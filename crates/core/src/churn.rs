//! The live policy-catalog service: the coordinator's versioned log, one
//! chain-verifying replica per site, the fault-gated replication
//! transport between them, and the churn signal that pushes revocations
//! into in-flight queries.
//!
//! This is the glue between three layers that deliberately do not know
//! each other:
//!
//! * `geoqp-policy` owns the [`CatalogLog`] / [`CatalogReplica`] state
//!   machines (append, chain-epoch, replay),
//! * `geoqp-net` owns the [`CatalogGossip`] transport (which entry
//!   sequences get through a fault-scheduled link on one pull round),
//! * `geoqp-common` owns the tiny executor-facing surface
//!   ([`CatalogPin`], [`ChurnSignal`], [`StaleGuard`], `ChurnWatch`).
//!
//! The service wires them to the storage catalog (grant validation needs
//! the governed table's schema) and hands the engine everything churn-
//! aware execution needs: epoch-pinned snapshots at admission, a
//! [`StaleGuard`] built from what each replica can *prove* it has seen,
//! and fresh watches after a mid-flight re-pin.

use crate::engine::Engine;
use geoqp_common::{
    CatalogPin, ChurnEvent, ChurnSignal, ChurnWatch, GeoError, Location, LocationSet, Result,
    StaleGuard,
};
use geoqp_net::{CatalogGossip, FaultPlan};
use geoqp_policy::{CatalogLog, CatalogReplica, PolicyCatalog, PolicyExpression};
use geoqp_storage::Catalog;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Churn wiring for one resilient execution: where snapshots, stale
/// guards, and re-pins come from, plus the catalog pin the query was
/// admitted under.
#[derive(Debug, Clone)]
pub struct ChurnOpts {
    /// The deployment's catalog service.
    pub service: Arc<CatalogService>,
    /// The `(seq, epoch)` snapshot pinned at admission.
    pub pin: CatalogPin,
}

/// One replica's catalog-plane health: its applied sequence, how far it
/// trails the coordinator's head, and whether that lag can ever close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// The replica's site.
    pub site: Location,
    /// The highest log sequence the replica has applied.
    pub seq: u64,
    /// `head.seq - seq`: entries the replica has not yet proven.
    pub lag: u64,
    /// The replica's catalog-plane link to the coordinator is severed by
    /// an open-ended fault — its lag is unbounded and will never close.
    pub unbounded: bool,
}

/// A point-in-time health report for the whole catalog plane: the
/// coordinator's head and compaction floor, per-replica lag with its
/// distribution, and the lifetime resilience counters (wipes,
/// snapshot bootstraps, chain-verification rejects, bytes shipped).
#[derive(Debug, Clone)]
pub struct CatalogHealth {
    /// The coordinator's current head `(seq, epoch)`.
    pub head: CatalogPin,
    /// The compaction floor: the oldest sequence still materializable.
    pub floor_seq: u64,
    /// How many times the log's prefix has been compacted away.
    pub compactions: u64,
    /// Replica state losses from catalog-plane crashes.
    pub wipes: u64,
    /// Successful snapshot bootstraps (including deployment setup).
    pub bootstraps: u64,
    /// Snapshots refused because their chain-anchored hash failed
    /// verification. Always zero with an honest coordinator.
    pub chain_rejects: u64,
    /// Bytes of floor snapshots shipped to bootstrapping replicas.
    pub snapshot_bytes: u64,
    /// Bytes of log entries shipped on replication pulls.
    pub entry_bytes: u64,
    /// Median replica lag, in entries.
    pub lag_p50: u64,
    /// Worst replica lag, in entries.
    pub lag_max: u64,
    /// Per-replica health, in site order.
    pub replicas: Vec<ReplicaHealth>,
}

/// The replicated policy-catalog service for one deployment.
///
/// Owns the coordinator's append-only [`CatalogLog`] and a
/// [`CatalogReplica`] per site, connected by pull-based [`CatalogGossip`]
/// over the deployment's simulated network. An optional catalog-plane
/// [`FaultPlan`] makes replica lag, catalog partitions, and crashed
/// replicas replay deterministically from a seed.
#[derive(Debug)]
pub struct CatalogService {
    storage: Arc<Catalog>,
    gossip: CatalogGossip,
    log: Mutex<CatalogLog>,
    replicas: Mutex<BTreeMap<Location, CatalogReplica>>,
    /// Materialized epoch-pinned snapshots, keyed by log sequence. A
    /// snapshot is immutable once materialized (the log is append-only),
    /// and the cache is deliberately kept across compaction: a query
    /// pinned to a since-compacted sequence keeps executing against the
    /// snapshot it admitted under.
    snapshots: Mutex<BTreeMap<u64, Arc<PolicyCatalog>>>,
    signal: Arc<ChurnSignal>,
    faults: Option<FaultPlan>,
    /// Catalog-plane step clock: each sync round consumes one step of
    /// the fault schedule, independent of the data plane's clock.
    clock: AtomicU64,
    /// Compact automatically after appends, keeping at most this many
    /// entries above the floor.
    auto_compact_keep: Option<u64>,
    wipes: AtomicU64,
    bootstraps: AtomicU64,
    chain_rejects: AtomicU64,
    snapshot_bytes: AtomicU64,
    entry_bytes: AtomicU64,
}

impl CatalogService {
    /// A service over `base`, coordinated from `coordinator`, with one
    /// replica per site of the storage catalog and a fault-free catalog
    /// plane.
    pub fn new(
        storage: Arc<Catalog>,
        base: PolicyCatalog,
        coordinator: Location,
    ) -> CatalogService {
        let log = CatalogLog::new(base);
        let replicas = storage
            .locations()
            .iter()
            .map(|site| (site.clone(), log.replica()))
            .collect();
        CatalogService {
            storage,
            gossip: CatalogGossip::new(coordinator),
            log: Mutex::new(log),
            replicas: Mutex::new(replicas),
            snapshots: Mutex::new(BTreeMap::new()),
            signal: Arc::new(ChurnSignal::new()),
            faults: None,
            clock: AtomicU64::new(0),
            auto_compact_keep: None,
            wipes: AtomicU64::new(0),
            bootstraps: AtomicU64::new(0),
            chain_rejects: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            entry_bytes: AtomicU64::new(0),
        }
    }

    /// A service whose log starts at `engine`'s policy set, coordinated
    /// from the first site in canonical order (`L0` for a siteless
    /// catalog), with every replica fresh at the head.
    pub fn for_engine(engine: &Engine) -> CatalogService {
        let coordinator = engine
            .catalog()
            .locations()
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| Location::new("L0"));
        CatalogService::new(
            Arc::clone(engine.catalog()),
            (**engine.policies()).clone(),
            coordinator,
        )
    }

    /// Re-admit under catalog head `pin`: every replica is brought fully
    /// up to date (so no site refuses transfers as catalog-stale), and
    /// `engine` is forked over the epoch-pinned snapshot — cold
    /// implication memo, same storage and topology.
    pub fn readmit(&self, engine: &Engine, pin: CatalogPin) -> Result<Engine> {
        self.sync_full();
        Ok(engine.fork_with_policies(self.snapshot(pin.seq)?))
    }

    /// Drive catalog replication through a seeded fault schedule:
    /// partitions and crashes involving the coordinator link stall a
    /// replica's pulls, which is how a site ends up unable to prove
    /// freshness ([`GeoError::CatalogStale`] at transfer time).
    pub fn with_faults(mut self, faults: FaultPlan) -> CatalogService {
        self.faults = Some(faults);
        self
    }

    /// Replace the churn signal with pre-planned, step-triggered events
    /// (the bench and chaos harnesses): any head published by earlier
    /// [`CatalogService::grant`]/[`CatalogService::revoke`] calls is
    /// discarded, so a log can be scripted up-front and its revocations
    /// released at chosen executor steps instead of immediately.
    pub fn with_planned(mut self, events: Vec<ChurnEvent>) -> CatalogService {
        self.signal = Arc::new(ChurnSignal::with_planned(events));
        self
    }

    /// Compact automatically after every append, keeping at most `keep`
    /// entries of tail above the floor snapshot. `keep = 0` pins the
    /// floor to the head: every replica that misses an entry must
    /// bootstrap from a snapshot.
    pub fn with_auto_compact(mut self, keep: u64) -> CatalogService {
        self.auto_compact_keep = Some(keep);
        self
    }

    fn log(&self) -> MutexGuard<'_, CatalogLog> {
        self.log.lock().expect("catalog log lock poisoned")
    }

    /// The coordinator site holding the log of record.
    pub fn coordinator(&self) -> &Location {
        self.gossip.coordinator()
    }

    /// The storage catalog grants are validated against.
    pub fn storage(&self) -> &Arc<Catalog> {
        &self.storage
    }

    /// The channel revocations reach in-flight queries on.
    pub fn signal(&self) -> Arc<ChurnSignal> {
        Arc::clone(&self.signal)
    }

    /// The coordinator's current head `(seq, epoch)` — what a newly
    /// admitted query pins.
    pub fn head(&self) -> CatalogPin {
        self.log().head()
    }

    /// Append a grant: the expression is validated against its governed
    /// table's schema (resolved through the storage catalog), the epoch
    /// bumps, and the new head is published. Grants never interrupt
    /// in-flight queries — they take effect for queries admitted later.
    pub fn grant(&self, expr: PolicyExpression) -> Result<CatalogPin> {
        let schema = Arc::clone(&self.storage.resolve_one(&expr.table)?.schema);
        let pin = {
            let mut log = self.log();
            let pin = log.grant(expr, &schema)?;
            self.auto_compact(&mut log);
            pin
        };
        self.signal.publish(pin.seq, pin.epoch, false);
        Ok(pin)
    }

    /// Append a revocation of live policy `pid`, bump the epoch, and
    /// push the new head to in-flight queries: any query caught shipping
    /// on a now-revoked edge aborts its attempt and re-plans under the
    /// new epoch.
    pub fn revoke(&self, pid: u64) -> Result<CatalogPin> {
        let pin = {
            let mut log = self.log();
            let pin = log.revoke(pid)?;
            self.auto_compact(&mut log);
            pin
        };
        self.signal.publish(pin.seq, pin.epoch, true);
        Ok(pin)
    }

    fn auto_compact(&self, log: &mut CatalogLog) {
        if let Some(keep) = self.auto_compact_keep {
            let head = log.seq();
            if head.saturating_sub(log.floor_seq()) > keep {
                log.compact(head - keep)
                    .expect("auto-compaction targets a held sequence");
            }
        }
    }

    /// Compact the log's prefix up to `seq`: the live state there becomes
    /// the floor snapshot, earlier entries are truncated, and replicas
    /// that fall below the floor re-bootstrap from the snapshot on their
    /// next sync. Returns the new floor sequence. Sequences below the
    /// current floor are [`GeoError::CatalogCompacted`]; sequences above
    /// the head are a policy error.
    pub fn compact(&self, seq: u64) -> Result<u64> {
        Ok(self.log().compact(seq)?.seq())
    }

    /// The epoch-pinned catalog snapshot at log sequence `seq`, cached.
    /// The cache is consulted first, so a sequence that was materialized
    /// before being compacted away stays servable; a cold read below the
    /// floor is a typed [`GeoError::CatalogCompacted`].
    pub fn snapshot(&self, seq: u64) -> Result<Arc<PolicyCatalog>> {
        let mut cache = self.snapshots.lock().expect("snapshot cache lock poisoned");
        if let Some(snap) = cache.get(&seq) {
            return Ok(Arc::clone(snap));
        }
        let snap = Arc::new(self.log().materialize(seq)?);
        cache.insert(seq, Arc::clone(&snap));
        Ok(snap)
    }

    /// One replication round at catalog-plane step `step`: every site
    /// pulls the entries it is missing, in order, each fetch judged by
    /// the fault plan; delivered entries are chain-verified and applied.
    /// Returns the slowest replica's applied sequence (the deployment's
    /// stable frontier).
    ///
    /// Resilience happens here too. A site inside a catalog-plane crash
    /// window loses its volatile replica state (a *wipe*) — the
    /// coordinator never wipes, its log of record is durable. A replica
    /// whose applied sequence has fallen below the compaction floor
    /// cannot replay entry-by-entry (the prefix is gone); it first pulls
    /// the floor snapshot as one fault-judged, byte-charged transfer and
    /// *bootstraps* from it — chain-verifying the snapshot's anchored
    /// hash before installing — then tails the remaining entries.
    pub fn sync_at(&self, step: u64) -> u64 {
        self.sync(self.faults.as_ref(), step)
    }

    /// [`CatalogService::sync_at`] under `faults`; with none, every pull
    /// and snapshot transfer gets through.
    fn sync(&self, faults: Option<&FaultPlan>, step: u64) -> u64 {
        let log = self.log();
        let head = log.seq();
        let mut replicas = self.replicas.lock().expect("replica table lock poisoned");
        let mut frontier = head;
        for (site, replica) in replicas.iter_mut() {
            if site != self.coordinator()
                && faults.is_some_and(|plan| plan.site_down_until(site, step).is_some())
            {
                // The crash loses whatever the replica held beyond its
                // static deployment base; a bare replica has nothing to
                // lose, so repeated windows count one wipe, not many.
                if replica.seq() > 0 {
                    replica.wipe();
                    self.wipes.fetch_add(1, Ordering::Relaxed);
                }
                frontier = frontier.min(replica.seq());
                continue;
            }
            if replica.seq() < log.floor_seq() {
                let snap = log.latest_snapshot();
                if !self.gossip.pull_snapshot(site, snap.seq(), faults, step) {
                    frontier = frontier.min(replica.seq());
                    continue;
                }
                // The coordinator's replica catches up from its own
                // durable log: no bytes crossed a link, so only remote
                // installs are charged and counted.
                if site != self.coordinator() {
                    self.snapshot_bytes
                        .fetch_add(snap.encoded_len(), Ordering::Relaxed);
                }
                match replica.bootstrap(snap) {
                    Ok(()) => {
                        if site != self.coordinator() {
                            self.bootstraps.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(_) => {
                        self.chain_rejects.fetch_add(1, Ordering::Relaxed);
                        frontier = frontier.min(replica.seq());
                        continue;
                    }
                }
            }
            let target = self.gossip.pull(site, replica.seq(), head, faults, step);
            for entry in log.entries_after(replica.seq()) {
                if entry.seq > target {
                    break;
                }
                replica
                    .apply(entry)
                    .expect("entries pulled from the coordinator's own log chain-verify");
                if site != self.coordinator() {
                    self.entry_bytes
                        .fetch_add(entry.encoded_len(), Ordering::Relaxed);
                }
            }
            frontier = frontier.min(replica.seq());
        }
        frontier
    }

    /// [`CatalogService::sync_at`] at the next catalog-plane step.
    pub fn sync_round(&self) -> u64 {
        let step = self.clock.fetch_add(1, Ordering::Relaxed);
        self.sync_at(step)
    }

    /// Replicate everything, ignoring the fault plan — deployment setup
    /// and tests that want a fully fresh fleet. Replicas below the
    /// compaction floor bootstrap from the floor snapshot (still
    /// chain-verified, still byte-charged) before tailing entries.
    pub fn sync_full(&self) {
        self.sync(None, 0);
    }

    /// The set of sites whose catalog-plane link to the coordinator is
    /// cut by an open-ended fault at the current catalog step — their
    /// replica lag is unbounded and will never close on its own.
    fn severed_sites(&self) -> LocationSet {
        let mut severed = LocationSet::new();
        if let Some(plan) = self.faults.as_ref() {
            let step = self.clock.load(Ordering::Relaxed);
            for site in self.storage.locations().iter() {
                if site != self.coordinator() && plan.severed(self.coordinator(), site, step) {
                    severed.insert(site.clone());
                }
            }
        }
        severed
    }

    /// The freshness proof for `pin`: the set of sites whose replica has
    /// applied (and chain-verified) every entry up to the pinned
    /// sequence. Sites outside the set fail safe at transfer time, and
    /// the refusal names the lagging site — distinguishing a replica
    /// that is merely behind from one whose coordinator link is severed
    /// (unbounded lag, will never catch up).
    pub fn stale_guard(&self, pin: CatalogPin) -> StaleGuard {
        let mut fresh = LocationSet::new();
        for (site, replica) in self
            .replicas
            .lock()
            .expect("replica table lock poisoned")
            .iter()
        {
            if replica.has_seen(pin.seq) {
                fresh.insert(site.clone());
            }
        }
        StaleGuard::new(pin, fresh).with_unbounded(self.severed_sites())
    }

    /// The catalog plane's health report: head, compaction floor,
    /// per-replica lag (with its median and maximum), and the lifetime
    /// wipe / bootstrap / chain-reject / byte counters.
    pub fn health(&self) -> CatalogHealth {
        let (head, floor_seq, compactions) = {
            let log = self.log();
            (log.head(), log.floor_seq(), log.compactions())
        };
        let severed = self.severed_sites();
        let replicas: Vec<ReplicaHealth> = self
            .replicas
            .lock()
            .expect("replica table lock poisoned")
            .iter()
            .map(|(site, r)| ReplicaHealth {
                site: site.clone(),
                seq: r.seq(),
                lag: head.seq.saturating_sub(r.seq()),
                unbounded: severed.contains(site),
            })
            .collect();
        let mut lags: Vec<u64> = replicas.iter().map(|r| r.lag).collect();
        lags.sort_unstable();
        CatalogHealth {
            head,
            floor_seq,
            compactions,
            wipes: self.wipes.load(Ordering::Relaxed),
            bootstraps: self.bootstraps.load(Ordering::Relaxed),
            chain_rejects: self.chain_rejects.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            entry_bytes: self.entry_bytes.load(Ordering::Relaxed),
            lag_p50: lags.get(lags.len() / 2).copied().unwrap_or(0),
            lag_max: lags.last().copied().unwrap_or(0),
            replicas,
        }
    }

    /// Everything one execution attempt needs to enforce churn under
    /// `pin`: the pin, the revocation signal, and a freshness guard
    /// built from the current replica states.
    pub fn watch(&self, pin: CatalogPin) -> ChurnWatch {
        ChurnWatch {
            pin,
            signal: self.signal(),
            stale: Some(Arc::new(self.stale_guard(pin))),
        }
    }

    /// The live policies at the head, `(pid, display form)` in pid order.
    pub fn live_policies(&self) -> Vec<(u64, String)> {
        let log = self.log();
        log.live_policies(log.seq())
    }

    /// The pid of the newest live policy whose display form is `expr`,
    /// if any — how the server maps a removed expression back to the
    /// grant it revokes.
    pub fn find_live(&self, expr: &str) -> Option<u64> {
        self.live_policies()
            .into_iter()
            .rev()
            .find(|(_, e)| e == expr)
            .map(|(pid, _)| pid)
    }

    /// Display lines for every appended entry, in sequence order (the
    /// `\catalog` shell verb's history listing).
    pub fn history(&self) -> Vec<String> {
        self.log().entries().iter().map(|e| e.to_string()).collect()
    }

    /// Validate that `seq` names a prefix the coordinator holds, then
    /// return its chain epoch. A sequence compacted below the floor is
    /// a typed [`GeoError::CatalogCompacted`]; one beyond the head is a
    /// policy error.
    pub fn epoch_at(&self, seq: u64) -> Result<u64> {
        let log = self.log();
        if seq < log.floor_seq() {
            return Err(GeoError::CatalogCompacted(format!(
                "catalog seq {seq} was compacted away; the floor snapshot holds seq {}",
                log.floor_seq()
            )));
        }
        log.epoch_at(seq)
            .ok_or_else(|| GeoError::Policy(format!("catalog log has no sequence {seq}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{LocationPattern, TableRef};
    use geoqp_net::StepWindow;
    use geoqp_policy::ShipAttrs;
    use geoqp_storage::Catalog;

    fn storage() -> Arc<Catalog> {
        let mut cat = Catalog::new();
        for (db, site) in [("db1", "L1"), ("db2", "L2"), ("db3", "L3")] {
            cat.add_database(db, Location::new(site)).unwrap();
        }
        cat.add_table(
            "db1",
            "t",
            geoqp_common::Schema::new(vec![
                geoqp_common::Field::new("a", geoqp_common::DataType::Int64),
                geoqp_common::Field::new("b", geoqp_common::DataType::Str),
            ])
            .unwrap(),
            geoqp_storage::TableStats::default(),
        )
        .unwrap();
        Arc::new(cat)
    }

    fn expr(attr: &str) -> PolicyExpression {
        PolicyExpression::basic(
            TableRef::bare("t"),
            ShipAttrs::list([attr]),
            LocationPattern::Star,
            None,
        )
    }

    #[test]
    fn grants_and_revokes_move_the_head_and_publish() {
        let svc = CatalogService::new(storage(), PolicyCatalog::new(), Location::new("L1"));
        let base = svc.head();
        let g = svc.grant(expr("a")).unwrap();
        assert_eq!(g.seq, base.seq + 1);
        assert_eq!(
            svc.signal().revoked_since(0, 0),
            None,
            "grants don't interrupt"
        );
        let r = svc.revoke(0).unwrap();
        assert_eq!(svc.signal().revoked_since(g.seq, 0), Some(r));
        assert!(svc.live_policies().is_empty());
    }

    #[test]
    fn snapshots_are_epoch_pinned_and_cached() {
        let svc = CatalogService::new(storage(), PolicyCatalog::new(), Location::new("L1"));
        let g = svc.grant(expr("a")).unwrap();
        let s0 = svc.snapshot(0).unwrap();
        let s1 = svc.snapshot(g.seq).unwrap();
        assert_ne!(s0.epoch(), s1.epoch());
        assert_eq!(s1.epoch(), g.epoch);
        assert!(Arc::ptr_eq(&s1, &svc.snapshot(g.seq).unwrap()));
    }

    #[test]
    fn partitioned_replicas_go_stale_and_the_guard_refuses_them() {
        let faults = FaultPlan::new(3).with_partition(["L3"], StepWindow::new(0, 100));
        let svc = CatalogService::new(storage(), PolicyCatalog::new(), Location::new("L1"))
            .with_faults(faults);
        let pin = svc.grant(expr("a")).unwrap();
        let frontier = svc.sync_round();
        assert_eq!(frontier, 0, "the partitioned replica is the frontier");
        let guard = svc.stale_guard(pin);
        assert!(
            guard.check_origin(&Location::new("L1")).is_ok(),
            "coordinator"
        );
        assert!(
            guard.check_origin(&Location::new("L2")).is_ok(),
            "healthy replica"
        );
        let err = guard.check_origin(&Location::new("L3")).unwrap_err();
        assert_eq!(err.kind(), "catalog-stale");
        // The partition heals at step 100: the replica catches up.
        svc.sync_at(100);
        assert!(svc
            .stale_guard(pin)
            .check_origin(&Location::new("L3"))
            .is_ok());
    }

    #[test]
    fn crashed_replicas_wipe_then_bootstrap_from_the_floor_snapshot() {
        let faults = FaultPlan::new(5).with_crash("L2", StepWindow::new(1, 3));
        let svc = CatalogService::new(storage(), PolicyCatalog::new(), Location::new("L1"))
            .with_faults(faults)
            .with_auto_compact(0);
        let g1 = svc.grant(expr("a")).unwrap();
        svc.sync_at(0); // L2 is up: it holds seq 1 (via a bootstrap).
        let g2 = svc.grant(expr("b")).unwrap();
        svc.sync_at(1); // L2 crashes holding state: wiped.
        let mid = svc.health();
        assert_eq!(mid.floor_seq, g2.seq, "keep=0 pins the floor to the head");
        assert_eq!(mid.wipes, 1);
        let l2 = |h: &CatalogHealth| {
            h.replicas
                .iter()
                .find(|r| r.site == Location::new("L2"))
                .cloned()
                .unwrap()
        };
        assert_eq!(l2(&mid).seq, 0, "the crash lost everything");
        svc.sync_at(2); // still down
        assert_eq!(
            svc.health().wipes,
            1,
            "a bare replica has nothing left to lose"
        );
        svc.sync_at(4); // recovered: bootstraps straight to the floor
        let end = svc.health();
        assert_eq!(l2(&end).seq, g2.seq);
        assert_eq!(l2(&end).lag, 0);
        assert!(end.bootstraps > mid.bootstraps);
        assert_eq!(end.chain_rejects, 0, "honest snapshots always verify");
        assert!(
            end.snapshot_bytes > 0,
            "snapshot transfers are byte-charged"
        );
        assert_eq!(end.entry_bytes, 0, "keep=0 ships everything as snapshots");
        assert!(svc
            .stale_guard(CatalogPin::new(g2.seq, g2.epoch))
            .check_origin(&Location::new("L2"))
            .is_ok());
        let _ = g1;
    }

    #[test]
    fn compacted_sequences_read_as_typed_errors_but_cached_snapshots_survive() {
        let svc = CatalogService::new(storage(), PolicyCatalog::new(), Location::new("L1"));
        let g1 = svc.grant(expr("a")).unwrap();
        let g2 = svc.grant(expr("b")).unwrap();
        let pinned = svc.snapshot(g1.seq).unwrap(); // materialized before compaction
        svc.compact(g2.seq).unwrap();
        // Regression: a cold read below the floor is typed, never a panic.
        assert_eq!(svc.snapshot(0).unwrap_err().kind(), "catalog-compacted");
        assert_eq!(svc.epoch_at(0).unwrap_err().kind(), "catalog-compacted");
        // In-flight queries pinned before the compaction keep their view.
        assert!(Arc::ptr_eq(&pinned, &svc.snapshot(g1.seq).unwrap()));
        // The floor itself and the head stay readable.
        assert!(svc.snapshot(g2.seq).is_ok());
        assert_eq!(svc.epoch_at(g2.seq).unwrap(), g2.epoch);
        // Compacting below the floor is itself typed.
        assert_eq!(svc.compact(g1.seq).unwrap_err().kind(), "catalog-compacted");
        assert_eq!(svc.health().compactions, 1);
    }

    #[test]
    fn severed_replicas_surface_unbounded_lag_and_named_refusals() {
        let faults = FaultPlan::new(9).with_partition(["L3"], StepWindow::ALWAYS);
        let svc = CatalogService::new(storage(), PolicyCatalog::new(), Location::new("L1"))
            .with_faults(faults);
        let pin = svc.grant(expr("a")).unwrap();
        svc.sync_round();
        let health = svc.health();
        let l3 = health
            .replicas
            .iter()
            .find(|r| r.site == Location::new("L3"))
            .unwrap();
        assert!(l3.unbounded, "an ALWAYS partition can never heal");
        assert_eq!(l3.lag, pin.seq);
        assert_eq!(health.lag_max, pin.seq);
        assert_eq!(health.lag_p50, 0, "the other two replicas are fresh");
        let err = svc
            .stale_guard(pin)
            .check_origin(&Location::new("L3"))
            .unwrap_err();
        match (err.stale_site(), &err) {
            (Some((site, unbounded)), _) => {
                assert_eq!(site, &Location::new("L3"), "the refusal names the site");
                assert!(unbounded);
            }
            _ => panic!("expected a CatalogStale payload, got {err:?}"),
        }
        assert!(err.message().contains("severed"));
    }
}
