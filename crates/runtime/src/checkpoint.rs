//! Compliant checkpoint/resume for failover.
//!
//! When a fragment's output fully crosses a SHIP edge, the delivered batch
//! is retained in a [`CheckpointStore`], keyed by a canonical
//! **fingerprint** of the producer subtree (operator parameters, schemas,
//! placement — mixed with the policy-catalog epoch) and homed at a site.
//! The legality rule is the paper's shipping trait `𝒮_n` (AR1–AR4): an
//! operator's output may persist exactly at the sites its output may ship
//! to, so [`CheckpointStore::put`] refuses any home outside the trait with
//! a typed [`GeoError::NonCompliant`] — checkpointing never weakens
//! Definition 1.
//!
//! On a site crash, the engine drops every checkpoint homed on the dead
//! site ([`CheckpointStore::drop_site`]), re-runs Algorithm 2 over the
//! surviving sites, and [`stitch`]es the new plan against the store: any
//! SHIP whose producer subtree's fingerprint has a live, trait-legal
//! checkpoint is replaced by a [`PhysOp::ResumeScan`] leaf at the
//! checkpoint's home, so only the lost work re-executes. Fingerprints are
//! structural (never pointer identity), and Algorithm 2 is deterministic,
//! so subtrees untouched by the crash re-plan to identical placements and
//! hit their checkpoints.

use geoqp_common::{ColumnarBatch, GeoError, Location, LocationSet, Result};
use geoqp_plan::logical::LogicalPlan;
use geoqp_plan::{PhysOp, PhysicalPlan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the engine derived for one SHIP edge before execution: the
/// fingerprint of the producer subtree plus the compliance checker's view
/// of it (shipping trait + logical content). The runtime consumes these in
/// the same SHIP order it consumes the per-batch audit traits.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Canonical fingerprint of the edge's producer subtree.
    pub fingerprint: u64,
    /// The subtree's derived shipping trait `𝒮` — the only legal homes.
    pub legal: LocationSet,
    /// The subtree's logical content, for re-auditing resume edges.
    pub logical: Arc<LogicalPlan>,
}

/// One retained intermediate result.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Fingerprint of the subtree that produced it.
    pub fingerprint: u64,
    /// The site holding the output.
    pub home: Location,
    /// The producing subtree's shipping trait at checkpoint time.
    pub legal: LocationSet,
    /// The producing subtree's logical content.
    pub logical: Arc<LogicalPlan>,
    /// The output as it was delivered — the same allocation at every
    /// home, and the very batch a resume leaf hands its interpreter.
    pub batch: Arc<ColumnarBatch>,
}

/// The per-query checkpoint store, shared by every fragment worker and
/// surviving across failover re-plans. Interior-mutable: workers `put`
/// concurrently, the re-planner `drop_site`s between attempts.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    by_key: Mutex<BTreeMap<(u64, Location), Checkpoint>>,
    hits: AtomicU64,
    misses: AtomicU64,
    resumed_bytes: AtomicU64,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Retain an intermediate result at `home`. The legality rule of the
    /// whole layer: `home` must lie inside the producing operator's
    /// shipping trait `𝒮_n`, otherwise the checkpoint is refused with a
    /// typed [`GeoError::NonCompliant`] — persisting data at a site its
    /// policies forbid is a Definition-1 violation even if no query ever
    /// reads it back.
    pub fn put(
        &self,
        fingerprint: u64,
        home: Location,
        legal: &LocationSet,
        logical: &Arc<LogicalPlan>,
        batch: Arc<ColumnarBatch>,
    ) -> Result<()> {
        if !legal.contains(&home) {
            return Err(GeoError::NonCompliant(format!(
                "checkpoint {fingerprint:016x} may not be homed at {home}: \
                 outside its shipping trait {legal}"
            )));
        }
        self.by_key.lock().unwrap().insert(
            (fingerprint, home.clone()),
            Checkpoint {
                fingerprint,
                home,
                legal: legal.clone(),
                logical: Arc::clone(logical),
                batch,
            },
        );
        Ok(())
    }

    /// The checkpoint for `fingerprint` homed exactly at `home`.
    pub fn get(&self, fingerprint: u64, home: &Location) -> Option<Checkpoint> {
        self.by_key
            .lock()
            .unwrap()
            .get(&(fingerprint, home.clone()))
            .cloned()
    }

    /// Any surviving checkpoint for `fingerprint`, preferring one homed
    /// at `prefer` (resuming there ships zero bytes); otherwise the first
    /// home in deterministic (sorted) order.
    pub fn lookup(&self, fingerprint: u64, prefer: &Location) -> Option<Checkpoint> {
        let map = self.by_key.lock().unwrap();
        if let Some(cp) = map.get(&(fingerprint, prefer.clone())) {
            return Some(cp.clone());
        }
        map.range((fingerprint, Location::new(""))..)
            .take_while(|((fp, _), _)| *fp == fingerprint)
            .map(|(_, cp)| cp.clone())
            .next()
    }

    /// Drop every checkpoint homed on `site` (it crashed; its retained
    /// state is gone with it). Returns how many were dropped.
    pub fn drop_site(&self, site: &Location) -> usize {
        let mut map = self.by_key.lock().unwrap();
        let before = map.len();
        map.retain(|(_, home), _| home != site);
        before - map.len()
    }

    /// Re-key every checkpoint of one subtree across a policy-epoch bump
    /// (a live revocation re-planned the query): entries under `old_fp`
    /// whose home still lies inside the subtree's *new* shipping trait
    /// move to `new_fp` with the shrunken trait recorded; homes that
    /// fell outside 𝒮ₙ are dropped — retained data may not outlive the
    /// policy that allowed it there. Returns `(kept, dropped)`.
    pub fn migrate(&self, old_fp: u64, new_fp: u64, legal: &LocationSet) -> (usize, usize) {
        if old_fp == new_fp {
            return (0, 0);
        }
        let mut map = self.by_key.lock().unwrap();
        let homes: Vec<Location> = map
            .range((old_fp, Location::new(""))..)
            .take_while(|((fp, _), _)| *fp == old_fp)
            .map(|((_, home), _)| home.clone())
            .collect();
        let (mut kept, mut dropped) = (0, 0);
        for home in homes {
            let mut cp = map
                .remove(&(old_fp, home.clone()))
                .expect("home just listed");
            if legal.contains(&home) {
                cp.fingerprint = new_fp;
                cp.legal = legal.clone();
                map.insert((new_fp, home), cp);
                kept += 1;
            } else {
                dropped += 1;
            }
        }
        (kept, dropped)
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.by_key.lock().unwrap().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every retained checkpoint (tests, diagnostics).
    pub fn snapshot(&self) -> Vec<Checkpoint> {
        self.by_key.lock().unwrap().values().cloned().collect()
    }

    /// Fingerprint lookups that found a live legal checkpoint.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }

    /// Fingerprint lookups that found nothing (lost or never taken).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::SeqCst)
    }

    /// Wire bytes served from checkpoints instead of recomputation.
    pub fn resumed_bytes(&self) -> u64 {
        self.resumed_bytes.load(Ordering::SeqCst)
    }
}

/// Canonical structural fingerprint of a physical subtree: a pure
/// function of every node's operator parameters, output schema, and
/// placement, mixed with the policy-catalog `epoch`. Two structurally
/// identical subtrees fingerprint equal across independently built plans
/// (no pointer identity anywhere), which is what lets a re-planned query
/// find the checkpoints its previous attempt left behind.
pub fn fingerprint(plan: &PhysicalPlan, epoch: u64) -> u64 {
    let mut canon = String::new();
    write_canonical(plan, &mut canon);
    // FNV-1a seeded with the policy epoch: a changed catalog invalidates
    // every checkpoint by changing every fingerprint.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ epoch;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn write_canonical(plan: &PhysicalPlan, out: &mut String) {
    // Debug forms of the operator enums are stable canonical encodings of
    // their parameters (expressions, keys, table refs — no pointers).
    let _ = write!(out, "{:?}@{}[", plan.op, plan.location);
    for f in plan.schema.fields() {
        let _ = write!(out, "{}:{:?},", f.name, f.data_type);
    }
    let _ = write!(out, "](");
    for c in &plan.inputs {
        write_canonical(c, out);
        out.push(',');
    }
    out.push(')');
}

/// The result of stitching a re-planned physical plan against the store.
#[derive(Debug)]
pub struct StitchOutcome {
    /// The stitched plan (unchanged when no checkpoint matched).
    pub plan: Arc<PhysicalPlan>,
    /// SHIP edges replaced by a resume leaf.
    pub hits: u64,
    /// SHIP edges with no usable checkpoint.
    pub misses: u64,
    /// Wire bytes the hits will serve from the store.
    pub resumed_bytes: u64,
}

/// Replace every SHIP edge whose producer subtree has a live, trait-legal
/// checkpoint with a [`PhysOp::ResumeScan`] leaf at the checkpoint's home
/// (shipped to the edge's destination when the home differs — legal by
/// construction, since the destination passed the original per-edge
/// audit against the same trait). Subtrees under a hit are skipped;
/// subtrees under a miss are stitched recursively, so inner edges can
/// still resume even when their consumer's work was lost.
pub fn stitch(
    plan: &Arc<PhysicalPlan>,
    store: &CheckpointStore,
    epoch: u64,
) -> Result<StitchOutcome> {
    let mut hits = 0;
    let mut misses = 0;
    let mut resumed_bytes = 0;
    let stitched = stitch_node(
        plan,
        store,
        epoch,
        &mut hits,
        &mut misses,
        &mut resumed_bytes,
    )?;
    store.hits.fetch_add(hits, Ordering::SeqCst);
    store.misses.fetch_add(misses, Ordering::SeqCst);
    store
        .resumed_bytes
        .fetch_add(resumed_bytes, Ordering::SeqCst);
    Ok(StitchOutcome {
        plan: stitched,
        hits,
        misses,
        resumed_bytes,
    })
}

fn stitch_node(
    plan: &Arc<PhysicalPlan>,
    store: &CheckpointStore,
    epoch: u64,
    hits: &mut u64,
    misses: &mut u64,
    resumed_bytes: &mut u64,
) -> Result<Arc<PhysicalPlan>> {
    if matches!(plan.op, PhysOp::Ship) {
        let input = &plan.inputs[0];
        let fp = fingerprint(input, epoch);
        if let Some(cp) = store.lookup(fp, &plan.location) {
            *hits += 1;
            // The row encoding's length, from column metadata.
            *resumed_bytes += cp.batch.encoded_size() as u64;
            let leaf = Arc::new(PhysicalPlan::new(
                PhysOp::ResumeScan {
                    fingerprint: fp,
                    legal: cp.legal.clone(),
                    logical: Arc::clone(&cp.logical),
                },
                Arc::clone(&input.schema),
                cp.home.clone(),
                vec![],
            )?);
            // No-op when the checkpoint is homed at the destination.
            return Ok(PhysicalPlan::ship(leaf, plan.location.clone()));
        }
        *misses += 1;
    }
    let mut new_inputs = Vec::with_capacity(plan.inputs.len());
    let mut changed = false;
    for c in &plan.inputs {
        let s = stitch_node(c, store, epoch, hits, misses, resumed_bytes)?;
        changed |= !Arc::ptr_eq(&s, c);
        new_inputs.push(s);
    }
    if !changed {
        return Ok(Arc::clone(plan));
    }
    Ok(Arc::new(PhysicalPlan::new(
        plan.op.clone(),
        Arc::clone(&plan.schema),
        plan.location.clone(),
        new_inputs,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, Schema, TableRef, Value};

    fn scan(table: &str, loc: &str) -> Arc<PhysicalPlan> {
        Arc::new(
            PhysicalPlan::new(
                PhysOp::Scan {
                    table: TableRef::bare(table),
                },
                Arc::new(Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap()),
                Location::new(loc),
                vec![],
            )
            .unwrap(),
        )
    }

    fn logical_of(plan: &PhysicalPlan) -> Arc<LogicalPlan> {
        let PhysOp::Scan { table } = &plan.op else {
            panic!("test helper expects a scan");
        };
        Arc::new(LogicalPlan::TableScan {
            table: table.clone(),
            location: plan.location.clone(),
            schema: Arc::clone(&plan.schema),
        })
    }

    fn batch() -> Arc<ColumnarBatch> {
        let rows = [vec![Value::Int64(1)], vec![Value::Int64(2)]];
        Arc::new(ColumnarBatch::from_rows(&rows, 1))
    }

    #[test]
    fn fingerprints_are_structural_not_pointer_identity() {
        let a = scan("t", "L1");
        let b = scan("t", "L1");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(fingerprint(&a, 7), fingerprint(&b, 7));
        // Placement, table, and policy epoch all discriminate.
        assert_ne!(fingerprint(&a, 7), fingerprint(&scan("t", "L2"), 7));
        assert_ne!(fingerprint(&a, 7), fingerprint(&scan("u", "L1"), 7));
        assert_ne!(fingerprint(&a, 7), fingerprint(&a, 8));
    }

    #[test]
    fn illegal_home_is_a_typed_error() {
        let store = CheckpointStore::new();
        let node = scan("t", "L1");
        let legal = LocationSet::from_iter(["L1", "L2"]);
        let err = store
            .put(
                fingerprint(&node, 0),
                Location::new("L3"),
                &legal,
                &logical_of(&node),
                batch(),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "non-compliant");
        assert!(err.message().contains("L3"));
        assert!(store.is_empty(), "a refused checkpoint must not persist");
    }

    #[test]
    fn drop_site_forgets_only_that_home() {
        let store = CheckpointStore::new();
        let node = scan("t", "L1");
        let fp = fingerprint(&node, 0);
        let legal = LocationSet::from_iter(["L1", "L2"]);
        let logical = logical_of(&node);
        for home in ["L1", "L2"] {
            store
                .put(fp, Location::new(home), &legal, &logical, batch())
                .unwrap();
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.drop_site(&Location::new("L1")), 1);
        assert!(store.get(fp, &Location::new("L1")).is_none());
        // The surviving home still answers preferred-miss lookups.
        let cp = store.lookup(fp, &Location::new("L9")).unwrap();
        assert_eq!(cp.home, Location::new("L2"));
    }

    #[test]
    fn migrate_rekeys_surviving_homes_and_drops_revoked_ones() {
        let store = CheckpointStore::new();
        let node = scan("t", "L1");
        let old_fp = fingerprint(&node, 1);
        let new_fp = fingerprint(&node, 2);
        let legal = LocationSet::from_iter(["L1", "L2"]);
        let logical = logical_of(&node);
        for home in ["L1", "L2"] {
            store
                .put(old_fp, Location::new(home), &legal, &logical, batch())
                .unwrap();
        }
        // The revocation shrank 𝒮ₙ to {L1}: L2's copy must not survive.
        let shrunken = LocationSet::from_iter(["L1"]);
        assert_eq!(store.migrate(old_fp, new_fp, &shrunken), (1, 1));
        assert_eq!(store.len(), 1);
        assert!(store.get(old_fp, &Location::new("L1")).is_none());
        let cp = store.get(new_fp, &Location::new("L1")).unwrap();
        assert_eq!(cp.legal, shrunken);
        // Same-epoch migration is a no-op.
        assert_eq!(store.migrate(new_fp, new_fp, &shrunken), (0, 0));
    }

    #[test]
    fn stitch_replaces_hit_edges_and_audits_counts() {
        // union(ship(t1@L1 → L4), ship(t3@L3 → L4)); checkpoint only t1.
        let t1 = scan("t1", "L1");
        let t3 = scan("t3", "L3");
        let schema = Arc::clone(&t1.schema);
        let plan = Arc::new(
            PhysicalPlan::new(
                PhysOp::Union,
                schema,
                Location::new("L4"),
                vec![
                    PhysicalPlan::ship(Arc::clone(&t1), Location::new("L4")),
                    PhysicalPlan::ship(Arc::clone(&t3), Location::new("L4")),
                ],
            )
            .unwrap(),
        );
        let store = CheckpointStore::new();
        let fp = fingerprint(&t1, 0);
        let legal = LocationSet::from_iter(["L1", "L4"]);
        let retained = batch();
        // What the row encoding of the retained rows weighs on the wire.
        let bytes = retained.to_rows().encode().len() as u64;
        store
            .put(fp, Location::new("L4"), &legal, &logical_of(&t1), retained)
            .unwrap();

        let out = stitch(&plan, &store, 0).unwrap();
        assert_eq!((out.hits, out.misses), (1, 1));
        assert_eq!(out.resumed_bytes, bytes);
        assert_eq!((store.hits(), store.misses()), (1, 1));
        // Homed at the destination: the SHIP disappears entirely.
        assert_eq!(out.plan.ship_count(), 1);
        let mut resumes = 0;
        out.plan.visit(&mut |p| {
            if let PhysOp::ResumeScan { fingerprint, .. } = &p.op {
                resumes += 1;
                assert_eq!(*fingerprint, fp);
                assert_eq!(p.location, Location::new("L4"));
            }
        });
        assert_eq!(resumes, 1);

        // Nothing matching: the plan comes back untouched (same Arc).
        let empty = CheckpointStore::new();
        let same = stitch(&plan, &empty, 0).unwrap();
        assert!(Arc::ptr_eq(&same.plan, &plan));
        assert_eq!((same.hits, same.misses), (0, 2));
    }
}
