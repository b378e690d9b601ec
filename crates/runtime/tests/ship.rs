//! The SHIP adjudicator on its own: one table of single-batch cases over
//! every verdict it can reach, plus the stream-level and leaf-level
//! behaviour the runtime relies on.

use geoqp_common::{
    ChurnEvent, ChurnSignal, ChurnWatch, ColumnarBatch, GeoError, Location, LocationSet,
    QueryDeadline, RunControl, StaleGuard, TableRef, Value,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::hedge::HEDGE_STEP_BASE;
use geoqp_net::{
    FaultPlan, HealthConfig, HedgeConfig, LinkHealth, NetworkTopology, StepWindow, TransferLog,
};
use geoqp_plan::LogicalPlan;
use geoqp_runtime::{CheckpointSpec, CheckpointStore, ShipEdge, ShipEnv};
use std::sync::Arc;

const BYTES: u64 = 10_000;
/// The edge's slot on a one-slot grid, so attempt `a` consults step
/// `STEP0 + a - 1`; its lane is primed at steps below it.
const STEP0: u64 = 100;

fn loc(n: &str) -> Location {
    Location::new(n)
}

fn wan() -> NetworkTopology {
    NetworkTopology::paper_wan()
}

/// `α + β·b` of the direct L1 → L4 link.
fn base_ms() -> f64 {
    wan().ship_cost_ms(&loc("L1"), &loc("L4"), BYTES as f64)
}

fn all_sites() -> LocationSet {
    LocationSet::from_iter(["L1", "L2", "L3", "L4", "L5"])
}

fn endpoints() -> LocationSet {
    LocationSet::from_iter(["L1", "L4"])
}

/// How a case pre-loads the L1 → L4 lane before the batch is judged.
#[derive(Clone, Copy)]
enum Prime {
    /// No history: the link looks healthy.
    Healthy,
    /// Past deliveries at `ratio ×` the model: past the hedge threshold.
    Slow(f64),
    /// Three straight failures: the breaker is open.
    Tripped,
}

/// What the adjudicator must answer.
enum Expect {
    /// Delivered: primary attempts (0 = rescued by the backup), the
    /// primary record's cost, total delivery records, dropped attempts.
    Ok {
        attempts: u32,
        cost_ms: f64,
        records: usize,
        drops: usize,
    },
    /// Refused with this error kind, after this many dropped attempts,
    /// with nothing committed to the log.
    Err { kind: &'static str, drops: usize },
}

struct Case {
    name: &'static str,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    legal: Option<LocationSet>,
    /// `Some(open_budget)` turns hedging and breakers on.
    hedge: Option<u32>,
    prime: Prime,
    deadline_ms: Option<f64>,
    churn: Option<ChurnWatch>,
    expect: Expect,
    /// Extra checks on the error, the log, and the health table.
    check: fn(&Result<(), GeoError>, &TransferLog, &LinkHealth),
}

impl Case {
    fn new(name: &'static str, expect: Expect) -> Case {
        Case {
            name,
            faults: None,
            retry: RetryPolicy::default(),
            legal: Some(endpoints()),
            hedge: None,
            prime: Prime::Healthy,
            deadline_ms: None,
            churn: None,
            expect,
            check: |_, _, _| {},
        }
    }

    fn faults(mut self, faults: FaultPlan) -> Case {
        self.faults = Some(faults);
        self
    }
}

fn degrade(factor: f64) -> FaultPlan {
    FaultPlan::new(1).with_degrade("L1", "L4", factor, StepWindow::ALWAYS)
}

fn watch(planned: Vec<ChurnEvent>, fresh: Option<LocationSet>) -> ChurnWatch {
    ChurnWatch {
        pin: 0,
        signal: Arc::new(ChurnSignal::with_planned(planned)),
        stale: fresh.map(|f| Arc::new(StaleGuard::new(f))),
    }
}

fn cases() -> Vec<Case> {
    let base = base_ms();
    vec![
        Case::new(
            "no fault plan: one first-try delivery at the model price",
            Expect::Ok {
                attempts: 1,
                cost_ms: base,
                records: 1,
                drops: 0,
            },
        ),
        Case::new(
            "Deliver with injected delay rides in the record's cost",
            Expect::Ok {
                attempts: 1,
                cost_ms: base + 40.0,
                records: 1,
                drops: 0,
            },
        )
        .faults(FaultPlan::new(1).with_delay("L1", "L4", 40.0, StepWindow::ALWAYS)),
        Case::new(
            "Degraded delivers at factor × the model, unhedged",
            Expect::Ok {
                attempts: 1,
                cost_ms: base + 2.0 * base,
                records: 1,
                drops: 0,
            },
        )
        .faults(degrade(3.0)),
        Case::new(
            "Drop inside a healing window is retried; backoff is charged",
            Expect::Ok {
                attempts: 3,
                cost_ms: base + 30.0,
                records: 1,
                drops: 2,
            },
        )
        .faults(FaultPlan::new(1).with_drop("L1", "L4", StepWindow::new(STEP0, STEP0 + 2))),
        Case {
            check: |r, _, _| {
                let e = r.as_ref().unwrap_err();
                assert!(e.is_transient());
                assert_eq!(e.failed_link(), Some((&loc("L1"), &loc("L4"))));
                assert_eq!(
                    e.failed_site(),
                    Some(&loc("L4")),
                    "route away from the sink"
                );
            },
            ..Case::new(
                "Drop past the retry budget surfaces the typed link error",
                Expect::Err {
                    kind: "unavailable",
                    drops: 4,
                },
            )
            .faults(FaultPlan::new(1).with_drop("L1", "L4", StepWindow::ALWAYS))
        },
        Case {
            check: |r, _, _| {
                let e = r.as_ref().unwrap_err();
                assert!(!e.is_transient());
                assert_eq!(e.failed_site(), Some(&loc("L1")), "the crashed endpoint");
            },
            ..Case::new(
                "a permanently crashed endpoint is never retried",
                Expect::Err {
                    kind: "unavailable",
                    drops: 1,
                },
            )
            .faults(FaultPlan::new(1).with_crash("L1", StepWindow::ALWAYS))
        },
        Case {
            legal: Some(LocationSet::from_iter(["L1", "L5"])),
            ..Case::new(
                "a destination outside 𝒮ₙ is a typed non-compliant refusal",
                Expect::Err {
                    kind: "non-compliant",
                    drops: 0,
                },
            )
        },
        Case {
            hedge: Some(u32::MAX),
            prime: Prime::Slow(3.0),
            check: |_, log, health| {
                // 𝒮ₙ holds only the endpoints, so the backup is a delayed
                // duplicate on the same (equally degraded) wire: it
                // transmits, is charged under a hedge step, and loses.
                assert!(log.records()[0].step >= HEDGE_STEP_BASE);
                assert_eq!(log.records()[0].cost_ms, 3.0 * base_ms());
                assert_eq!((health.hedges_launched(), health.hedges_won()), (1, 0));
                assert_eq!(health.relays_used(), 0);
            },
            ..Case::new(
                "a slow lane races a delayed duplicate; the primary wins",
                Expect::Ok {
                    attempts: 1,
                    cost_ms: base + 2.0 * base,
                    records: 2,
                    drops: 0,
                },
            )
            .faults(degrade(3.0))
        },
        Case {
            hedge: Some(u32::MAX),
            prime: Prime::Slow(8.0),
            legal: Some(all_sites()),
            check: |_, log, health| {
                // With the whole WAN legal the backup relays around the
                // gray wire, both hops charged, and beats the primary.
                let relay = health.relay_events();
                assert_eq!(relay.len(), 1);
                assert!(all_sites().contains(&relay[0].via));
                assert_eq!(log.records()[0].to, relay[0].via);
                assert_eq!(log.records()[1].from, relay[0].via);
                assert_eq!((health.hedges_launched(), health.hedges_won()), (1, 1));
            },
            ..Case::new(
                "a slow lane with a legal detour races a relay; the relay wins",
                Expect::Ok {
                    attempts: 1,
                    cost_ms: base + 7.0 * base,
                    records: 3,
                    drops: 0,
                },
            )
            .faults(degrade(8.0))
        },
        Case {
            hedge: Some(u32::MAX),
            prime: Prime::Slow(8.0),
            legal: None,
            check: |_, _, health| assert_eq!(health.relays_used(), 0),
            ..Case::new(
                "without an 𝒮ₙ no relay is ever considered",
                Expect::Ok {
                    attempts: 1,
                    cost_ms: base + 7.0 * base,
                    records: 2,
                    drops: 0,
                },
            )
            .faults(degrade(8.0))
        },
        Case {
            hedge: Some(u32::MAX),
            prime: Prime::Slow(8.0),
            legal: Some(all_sites()),
            retry: RetryPolicy::none(),
            check: |_, log, health| {
                // No primary record: both records are the relay's hops.
                assert!(log.records().iter().all(|r| r.step >= HEDGE_STEP_BASE));
                assert_eq!(health.hedges_won(), 1);
            },
            ..Case::new(
                "a primary that failed outright is rescued by its backup",
                Expect::Ok {
                    attempts: 0,
                    cost_ms: 0.0,
                    records: 2,
                    drops: 1,
                },
            )
            .faults(FaultPlan::new(1).with_drop("L1", "L4", StepWindow::ALWAYS))
        },
        Case {
            hedge: Some(1),
            prime: Prime::Tripped,
            check: |r, _, _| {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.breaker_link(), Some((&loc("L1"), &loc("L4"))));
                assert_eq!(e.failed_site(), None, "a gray link condemns no site");
            },
            ..Case::new(
                "a breaker open past its budget condemns the link",
                Expect::Err {
                    kind: "unavailable",
                    drops: 0,
                },
            )
        },
        Case {
            hedge: Some(u32::MAX),
            prime: Prime::Tripped,
            ..Case::new(
                "an open breaker inside its budget still ships (and hedges)",
                Expect::Ok {
                    attempts: 1,
                    cost_ms: base,
                    records: 2,
                    drops: 0,
                },
            )
            .faults(FaultPlan::new(1))
        },
        Case {
            deadline_ms: Some(base - 1.0),
            ..Case::new(
                "a batch that would land past the deadline is never committed",
                Expect::Err {
                    kind: "deadline",
                    drops: 0,
                },
            )
        },
        Case {
            churn: Some(watch(vec![], Some(LocationSet::from_iter(["L4"])))),
            ..Case::new(
                "an origin that cannot prove the pinned seq refuses to ship",
                Expect::Err {
                    kind: "catalog-stale",
                    drops: 0,
                },
            )
        },
        Case {
            churn: Some(watch(
                vec![ChurnEvent {
                    step: 0,
                    seq: 4,
                    revocation: true,
                }],
                Some(all_sites()),
            )),
            check: |r, _, _| {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.churn_head(), Some(4));
                assert_eq!(e.churn_step(), Some(0), "the edge's place in the walk");
            },
            ..Case::new(
                "a revocation newer than the pin aborts before the batch leaves",
                Expect::Err {
                    kind: "churn",
                    drops: 0,
                },
            )
        },
    ]
}

#[test]
fn single_batch_verdicts() {
    let topology = wan();
    let (from, to) = (loc("L1"), loc("L4"));
    for case in cases() {
        let health = LinkHealth::new(HealthConfig {
            open_budget: case.hedge.unwrap_or(0),
            ..HealthConfig::default()
        });
        match case.prime {
            Prime::Healthy => {}
            Prime::Slow(ratio) => {
                health.observe_delivery(&from, &to, STEP0, 0, 1.0, ratio);
                health.observe_delivery(&from, &to, STEP0, 1, 1.0, ratio);
            }
            Prime::Tripped => (0..3).for_each(|s| health.observe_failure(&from, &to, STEP0, s)),
        }
        let mut env = ShipEnv::new(&topology).with_control(RunControl {
            deadline: case.deadline_ms.map(QueryDeadline::new),
            ..RunControl::unlimited()
        });
        if let Some(faults) = &case.faults {
            env = env.with_faults(faults, case.retry.clone());
        }
        if case.hedge.is_some() {
            env = env.with_hedge(
                &health,
                HedgeConfig {
                    health: health.config().clone(),
                    ..HedgeConfig::default()
                },
            );
        }
        if let Some(watch) = &case.churn {
            env = env.with_churn(watch.clone());
        }
        let mut log = TransferLog::new();
        let mut stream = env.open(ShipEdge {
            from: &from,
            to: &to,
            legal: case.legal.as_ref(),
            slot: STEP0,
            n_slots: 1,
            order: 0,
            ready_ms: 0.0,
        });
        let verdict = stream.ship_batch(BYTES, 7, &mut log);
        let name = case.name;
        match (&case.expect, &verdict) {
            (
                Expect::Ok {
                    attempts,
                    cost_ms,
                    records,
                    drops,
                },
                Ok(()),
            ) => {
                assert_eq!(log.transfer_count(), *records, "{name}: delivery records");
                assert_eq!(log.fault_count(), *drops, "{name}: dropped attempts");
                assert_eq!(stream.attempts(), *attempts as u64, "{name}: attempts");
                let primary = log.records().iter().find(|r| r.step < HEDGE_STEP_BASE);
                assert_eq!(primary.is_some(), *attempts > 0, "{name}: primary record");
                if let Some(r) = primary {
                    assert_eq!((&r.from, &r.to), (&from, &to), "{name}");
                    assert_eq!(
                        (r.bytes, r.rows, r.attempts),
                        (BYTES, 7, *attempts),
                        "{name}"
                    );
                    assert!(
                        (r.cost_ms - cost_ms).abs() < 1e-9,
                        "{name}: primary cost {} != {cost_ms}",
                        r.cost_ms
                    );
                }
            }
            (Expect::Err { kind, drops }, Err(e)) => {
                assert_eq!(e.kind(), *kind, "{name}: {e}");
                assert_eq!(log.fault_count(), *drops, "{name}: dropped attempts");
                assert_eq!(log.transfer_count(), 0, "{name}: a refusal commits nothing");
            }
            (_, got) => panic!("{name}: unexpected verdict {got:?}"),
        }
        (case.check)(&verdict, &log, &health);
    }
}

/// A stream pays its link's `α` once, and re-checks revocations before
/// every batch at its place in the runtime's walk: a revocation released
/// for a later edge passes it, one published mid-stream stops the next
/// batch.
#[test]
fn streams_amortize_the_header_and_recheck_churn_per_batch() {
    let topology = wan();
    let (from, to) = (loc("L1"), loc("L4"));
    let link = topology.link(&from, &to);
    let revoke_at_3 = watch(
        vec![ChurnEvent {
            step: 3,
            seq: 1,
            revocation: true,
        }],
        None,
    );
    let env = ShipEnv::new(&topology).with_churn(revoke_at_3.clone());
    let edge = |order: u64| ShipEdge {
        from: &from,
        to: &to,
        legal: None,
        slot: 3,
        n_slots: 5,
        order,
        ready_ms: 50.0,
    };
    let mut log = TransferLog::new();
    let mut stream = env.open(edge(2));
    stream.ship_batch(BYTES, 1, &mut log).unwrap();
    stream.ship_batch(BYTES, 1, &mut log).unwrap();
    let wire = link.beta_ms_per_byte * BYTES as f64;
    assert_eq!(log.records()[0].cost_ms, link.alpha_ms + wire);
    assert_eq!(log.records()[1].cost_ms, wire, "α is paid once per stream");
    assert_eq!(stream.arrival_ms(), 50.0 + link.alpha_ms + wire + wire);
    revoke_at_3.signal.publish(2, true);
    let abort = stream.ship_batch(BYTES, 1, &mut log).unwrap_err();
    assert_eq!(abort.churn_head(), Some(2));
    assert_eq!(abort.churn_step(), Some(2), "the edge shipped third");
    assert_eq!(log.transfer_count(), 2);

    let planned = ShipEnv::new(&topology).with_churn(watch(
        vec![ChurnEvent {
            step: 3,
            seq: 1,
            revocation: true,
        }],
        None,
    ));
    let abort = planned.open(edge(3)).ship_batch(BYTES, 1, &mut log);
    assert_eq!(abort.unwrap_err().churn_step(), Some(3));
    assert_eq!(log.transfer_count(), 2, "the fourth edge ships nothing");
}

/// The deadline reads the stream's critical path — producer ready time
/// plus every delivered batch — not the transfer log: cost already spent
/// by other edges does not count against this one, and a late producer
/// does.
#[test]
fn the_deadline_reads_the_streams_critical_path() {
    let topology = wan();
    let (from, to) = (loc("L1"), loc("L4"));
    let env = ShipEnv::new(&topology).with_control(RunControl {
        deadline: Some(QueryDeadline::new(2.0 * base_ms())),
        ..RunControl::unlimited()
    });
    let edge = |ready_ms: f64| ShipEdge {
        from: &from,
        to: &to,
        legal: None,
        slot: 0,
        n_slots: 1,
        order: 0,
        ready_ms,
    };
    let mut log = TransferLog::new();
    log.record(&topology, &from, &to, 2 * BYTES, 1);
    let spent = log.total_cost_ms();
    assert!(
        spent + base_ms() > 2.0 * base_ms(),
        "a running sum would trip"
    );
    env.open(edge(0.0)).ship_batch(BYTES, 1, &mut log).unwrap();
    let late = env
        .open(edge(1.5 * base_ms()))
        .ship_batch(BYTES, 1, &mut log);
    assert_eq!(late.unwrap_err().kind(), "deadline");
    assert_eq!(
        log.total_cost_ms(),
        spent + base_ms(),
        "the tripped batch was not committed"
    );
}

fn spec(legal: LocationSet) -> CheckpointSpec {
    CheckpointSpec {
        fingerprint: 0xfeed,
        legal,
        logical: Arc::new(LogicalPlan::TableScan {
            table: TableRef::bare("t"),
            location: loc("L1"),
            schema: Arc::new(geoqp_common::Schema::new(vec![]).unwrap()),
        }),
    }
}

fn delivered() -> Arc<ColumnarBatch> {
    let rows = [vec![Value::Int64(1)], vec![Value::Int64(2)]];
    Arc::new(ColumnarBatch::from_rows(&rows, 1))
}

fn drained_edge<'a>(from: &'a Location, to: &'a Location) -> ShipEdge<'a> {
    ShipEdge {
        from,
        to,
        legal: None,
        slot: 0,
        n_slots: 1,
        order: 0,
        ready_ms: 0.0,
    }
}

#[test]
fn a_drained_edge_is_retained_at_both_endpoints_or_refused_typed() {
    let topology = wan();
    let (from, to) = (loc("L1"), loc("L4"));
    let edge = || drained_edge(&from, &to);

    // No store: nothing retained, spec or not.
    let bare = ShipEnv::new(&topology);
    bare.open(edge()).finish(None).unwrap();

    let store = CheckpointStore::new();
    let env = ShipEnv::new(&topology).with_checkpoints(&store);
    env.open(edge())
        .finish(Some((&spec(endpoints()), delivered())))
        .unwrap();
    assert_eq!(store.len(), 2);
    // A ResumeScan can only be served from the site that holds the batch.
    assert_eq!(
        env.resume(0xfeed, &loc("L2")).unwrap_err().kind(),
        "execution"
    );
    assert_eq!(bare.resume(0xfeed, &from).unwrap_err().kind(), "execution");

    // A home outside the producer's 𝒮ₙ is refused, never silently kept.
    let illegal = env
        .open(edge())
        .finish(Some((&spec(LocationSet::from_iter(["L4"])), delivered())))
        .unwrap_err();
    assert_eq!(illegal.kind(), "non-compliant");
    // More edges than specs is a typed error, not a skipped checkpoint.
    let underflow = env.open(edge()).finish(None).unwrap_err();
    assert_eq!(underflow.kind(), "execution");
}

/// A resume is a pointer copy: both homes hand back the very allocation
/// the drained edge delivered.
#[test]
fn resume_returns_the_batch_finish_retained_at_both_homes() {
    let topology = wan();
    let (from, to) = (loc("L1"), loc("L4"));
    let store = CheckpointStore::new();
    let env = ShipEnv::new(&topology).with_checkpoints(&store);
    let batch = delivered();
    env.open(drained_edge(&from, &to))
        .finish(Some((&spec(endpoints()), Arc::clone(&batch))))
        .unwrap();
    for home in [&from, &to] {
        assert!(Arc::ptr_eq(&env.resume(0xfeed, home).unwrap(), &batch));
    }
}

#[test]
fn the_leaf_gate_outlasts_bounded_outages_and_surfaces_permanent_ones() {
    let topology = wan();
    let site = loc("L2");
    // No fault plan: one attempt.
    let free = ShipEnv::new(&topology)
        .leaf_gate(&site, "scan of t", 0, 1)
        .unwrap();
    assert_eq!((free.attempts, free.backoff_ms), (1, 0.0));

    // Attempt `a` of slot 1 on a 2-slot grid consults step 2(a-1)+1:
    // steps 1 and 3 fall in the outage, step 5 does not.
    let blip = FaultPlan::new(1).with_crash("L2", StepWindow::new(0, 4));
    let env = ShipEnv::new(&topology).with_faults(&blip, RetryPolicy::default());
    let gated = env.leaf_gate(&site, "scan of t", 1, 2).unwrap();
    assert_eq!((gated.attempts, gated.backoff_ms), (3, 30.0));
    // The same outage seen by slot 0 of a 1-slot grid: steps 0..3 are
    // down, so the retry budget runs out.
    let err = env.leaf_gate(&site, "scan of t", 0, 1).unwrap_err();
    assert!(err.is_transient());

    let dead = FaultPlan::new(1).with_crash("L2", StepWindow::ALWAYS);
    let err = ShipEnv::new(&topology)
        .with_faults(&dead, RetryPolicy::default())
        .leaf_gate(&site, "resume of checkpoint 00", 0, 1)
        .unwrap_err();
    assert!(!err.is_transient());
    assert_eq!(err.failed_site(), Some(&site));
}
