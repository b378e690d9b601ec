//! Replication property test for the versioned catalog log.
//!
//! Over 10 000 seeded grant/revoke/partition/crash schedules, every
//! replica's reconstructed catalog at epoch *e* must be byte-identical to
//! the coordinator's at *e*, and no replica may ever report an epoch it
//! cannot reconstruct. Partitions are modelled as withheld deliveries (a
//! stalled replica simply stops advancing), lag as short in-order
//! prefixes, crashes as wipes back to the base (recovered by replaying
//! the log, which nothing truncates), and a byzantine transport as
//! occasional tampered or out-of-order entries — which the chain
//! verification must refuse, leaving the replica exactly where it was.

use geoqp_common::{DataType, Field, LocationPattern, Schema, TableRef};
use geoqp_expr::ScalarExpr;
use geoqp_policy::{
    CatalogAction, CatalogLog, CatalogReplica, PolicyCatalog, PolicyExpression, ShipAttrs,
};

const COLS: [&str; 4] = ["a", "b", "c", "d"];
const SCHEDULES: u64 = 10_000;
const REPLICAS: usize = 3;
const MAX_OPS: u64 = 8;

fn schema() -> Schema {
    Schema::new(
        COLS.iter()
            .map(|c| {
                Field::new(
                    *c,
                    if *c == "d" {
                        DataType::Str
                    } else {
                        DataType::Int64
                    },
                )
            })
            .collect(),
    )
    .unwrap()
}

/// Deterministic PRNG — same generator the bench harness seeds runs with.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded policy expression over the test table: random attribute
/// subset, sometimes `ship *`, sometimes predicated — enough variety
/// that canonical lines differ in attrs, table_attrs, and predicate.
fn arb_expr(rng: &mut u64) -> PolicyExpression {
    let r = splitmix64(rng);
    let attrs = if r.is_multiple_of(5) {
        ShipAttrs::Star
    } else {
        let mut picked = Vec::new();
        for (i, c) in COLS.iter().enumerate() {
            if (r >> (8 + i)) & 1 == 1 {
                picked.push(*c);
            }
        }
        if picked.is_empty() {
            picked.push(COLS[(r >> 16) as usize % COLS.len()]);
        }
        ShipAttrs::list(picked)
    };
    let predicate = if r.is_multiple_of(3) {
        let col = COLS[(r >> 20) as usize % 3]; // int columns only
        let v = ((r >> 24) % 10) as i64 - 5;
        Some(ScalarExpr::col(col).gt(ScalarExpr::lit(v)))
    } else {
        None
    };
    PolicyExpression::basic(TableRef::bare("t"), attrs, LocationPattern::Star, predicate)
}

fn base_catalog() -> PolicyCatalog {
    let mut cat = PolicyCatalog::new();
    cat.register(
        PolicyExpression::basic(
            TableRef::bare("t"),
            ShipAttrs::list(["a"]),
            LocationPattern::Star,
            None,
        ),
        &schema(),
    )
    .unwrap();
    cat
}

/// Check every replication invariant for one replica against the
/// coordinator's log.
fn check_replica(seed: u64, log: &CatalogLog, replica: &CatalogReplica) {
    assert!(
        replica.seq() <= log.seq(),
        "seed {seed}: replica at seq {} is ahead of the log head {}",
        replica.seq(),
        log.seq()
    );
    // The epoch a replica reports must be one it can reconstruct — and
    // reconstructing it must land on the coordinator's epoch for the
    // same prefix.
    let coordinator_epoch = log
        .epoch_at(replica.seq())
        .expect("replica seq is within the log");
    assert_eq!(
        replica.epoch(),
        coordinator_epoch,
        "seed {seed}: replica epoch diverges at seq {}",
        replica.seq()
    );
    // Byte-identical materialization at every prefix the replica holds.
    for seq in 0..=replica.seq() {
        let ours = replica.materialize(seq).unwrap();
        let theirs = log.materialize(seq).unwrap();
        assert_eq!(
            ours.canonical_bytes(),
            theirs.canonical_bytes(),
            "seed {seed}: replica snapshot at seq {seq} is not byte-identical"
        );
    }
    // A prefix the replica has not seen must refuse to materialize
    // rather than guess.
    assert!(replica.materialize(replica.seq() + 1).is_err());
}

#[test]
fn replicas_reconstruct_the_coordinator_byte_identically_over_10k_schedules() {
    let schema = schema();
    let mut stalled_schedules = 0u64;
    let mut refusals = 0u64;
    let mut wipes = 0u64;
    for seed in 0..SCHEDULES {
        let mut rng = seed.wrapping_mul(0x9e37_79b9).wrapping_add(2021);
        let mut log = CatalogLog::new(base_catalog());
        let mut replicas: Vec<CatalogReplica> = (0..REPLICAS).map(|_| log.replica()).collect();
        // A partitioned replica receives nothing for the whole schedule.
        let partitioned = splitmix64(&mut rng) as usize % (REPLICAS + 1); // REPLICAS = none
        let ops = 1 + splitmix64(&mut rng) % MAX_OPS;
        for _ in 0..ops {
            match splitmix64(&mut rng) % 5 {
                // Grant a fresh policy.
                0 => {
                    let expr = arb_expr(&mut rng);
                    log.grant(expr, &schema).unwrap();
                }
                // Revoke a random live pid (skip when nothing is live).
                1 => {
                    let live = log.live_policies(log.seq());
                    if !live.is_empty() {
                        let (pid, _) = live[splitmix64(&mut rng) as usize % live.len()];
                        log.revoke(pid).unwrap();
                    }
                }
                // Deliver an in-order prefix of the backlog to one
                // replica; length 0 models lag on a healthy link.
                2 => {
                    let r = splitmix64(&mut rng) as usize % REPLICAS;
                    if r == partitioned {
                        continue;
                    }
                    let backlog = log.entries_after(replicas[r].seq());
                    if backlog.is_empty() {
                        continue;
                    }
                    let take = splitmix64(&mut rng) as usize % (backlog.len() + 1);
                    for entry in &backlog[..take] {
                        replicas[r].apply(entry).unwrap();
                    }
                }
                // Crash: a replica holding entries loses everything
                // above the base. It must still never claim a prefix it
                // cannot rebuild, and the heal below recovers it by
                // replay alone.
                3 => {
                    let holding: Vec<usize> =
                        (0..REPLICAS).filter(|&r| replicas[r].seq() > 0).collect();
                    if holding.is_empty() {
                        continue;
                    }
                    let r = holding[splitmix64(&mut rng) as usize % holding.len()];
                    replicas[r].wipe();
                    wipes += 1;
                    assert_eq!(replicas[r].seq(), 0, "seed {seed}: a wipe keeps state");
                    assert_eq!(replicas[r].epoch(), log.epoch_at(0).unwrap());
                }
                // Byzantine transport: a tampered, replayed, or gapped
                // entry. All must be refused with the replica unchanged.
                _ => {
                    let r = splitmix64(&mut rng) as usize % REPLICAS;
                    let before_seq = replicas[r].seq();
                    let before_epoch = replicas[r].epoch();
                    let next = log.entries_after(before_seq).first().cloned();
                    let forged = match splitmix64(&mut rng) % 3 {
                        // Epoch flipped: fails chain verification.
                        0 => next.clone().map(|mut e| {
                            e.epoch ^= 1;
                            e
                        }),
                        // Content mutated under the claimed epoch.
                        1 => next.clone().map(|mut e| {
                            match &mut e.action {
                                CatalogAction::Grant { pid, .. } => *pid += 100,
                                CatalogAction::Revoke { pid } => *pid += 100,
                            }
                            e
                        }),
                        // Out of order: skip ahead past the frontier.
                        _ => log.entries_after(before_seq).get(1).cloned(),
                    };
                    if let Some(entry) = forged {
                        assert!(
                            replicas[r].apply(&entry).is_err(),
                            "seed {seed}: forged entry seq {} was accepted",
                            entry.seq
                        );
                        refusals += 1;
                        assert_eq!(replicas[r].seq(), before_seq);
                        assert_eq!(
                            replicas[r].epoch(),
                            before_epoch,
                            "seed {seed}: a refused entry moved the replica's epoch"
                        );
                    }
                }
            }
            for replica in &replicas {
                check_replica(seed, &log, replica);
            }
        }
        // Heal everything except the partition: a lagged replica always
        // converges to the coordinator's head, byte for byte.
        for (r, replica) in replicas.iter_mut().enumerate() {
            if r == partitioned {
                continue;
            }
            for entry in log.entries_after(replica.seq()).to_vec() {
                replica.apply(&entry).unwrap();
            }
            assert_eq!(replica.seq(), log.seq(), "seed {seed}: healed replica lags");
            assert_eq!(replica.epoch(), log.epoch());
            assert_eq!(
                replica
                    .materialize(replica.seq())
                    .unwrap()
                    .canonical_bytes(),
                log.materialize(log.seq()).unwrap().canonical_bytes()
            );
        }
        // The partitioned replica stays frozen but internally sound: it
        // proves exactly the prefix it holds, nothing newer.
        if partitioned < REPLICAS {
            let frozen = &replicas[partitioned];
            check_replica(seed, &log, frozen);
            if frozen.seq() < log.seq() {
                stalled_schedules += 1;
                assert!(!frozen.has_seen(log.seq()));
            }
        }
    }
    assert!(
        stalled_schedules > 1_000,
        "partitions must actually stall replicas ({stalled_schedules} schedules)"
    );
    assert!(
        refusals > 1_000,
        "byzantine deliveries must actually occur ({refusals} refusals)"
    );
    assert!(
        wipes > 300,
        "crashes must actually cost replicas state ({wipes} wipes)"
    );
}

#[test]
fn identically_seeded_schedules_produce_identical_heads() {
    let schema = schema();
    for seed in [0u64, 7, 2021] {
        let run = |mut rng: u64| {
            let mut log = CatalogLog::new(base_catalog());
            for _ in 0..6 {
                if splitmix64(&mut rng).is_multiple_of(2) {
                    log.grant(arb_expr(&mut rng), &schema).unwrap();
                } else {
                    let live = log.live_policies(log.seq());
                    if !live.is_empty() {
                        let (pid, _) = live[splitmix64(&mut rng) as usize % live.len()];
                        log.revoke(pid).unwrap();
                    }
                }
            }
            (
                (log.seq(), log.epoch()),
                log.materialize(log.seq()).unwrap().canonical_bytes(),
            )
        };
        assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
    }
}
