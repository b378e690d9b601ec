//! The live policy-catalog service: the catalog log of record and the
//! churn signal that pushes revocations into in-flight queries.
//!
//! This is the glue between two layers that deliberately do not know
//! each other:
//!
//! * `geoqp-policy` owns the [`CatalogLog`] (append, materialize),
//! * `geoqp-common` owns the tiny executor-facing surface
//!   ([`ChurnSignal`], [`ChurnWatch`]).
//!
//! The service wires them to the deployment's base engine (grant
//! validation needs the governed table's schema) and is the one owner
//! that turns a log sequence into an engine: [`CatalogService::engine`]
//! forks the base engine over the cached snapshot at that seq. Whether a
//! plan still holds under a snapshot is decided where it runs: every
//! shipped batch is audited against the pinned snapshot, and a
//! revocation newer than the pin aborts the attempt and re-pins it to
//! the head it can see ([`ChurnSignal::revoked_since`]).

use crate::engine::Engine;
use geoqp_common::{ChurnEvent, ChurnSignal, ChurnWatch, Result};
use geoqp_policy::{CatalogLog, PolicyCatalog, PolicyExpression};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Churn wiring for one resilient execution: where snapshots and re-pins
/// come from, plus the catalog pin the query was admitted under.
#[derive(Debug, Clone)]
pub struct ChurnOpts {
    /// The deployment's catalog service.
    pub service: Arc<CatalogService>,
    /// The catalog sequence pinned at admission.
    pub pin: u64,
}

/// The policy-catalog service for one deployment: the append-only
/// [`CatalogLog`], its materialized snapshots, the churn signal, and the
/// base engine every snapshot is planned on.
pub struct CatalogService {
    /// The engine the log started from; [`CatalogService::engine`] forks
    /// it, so every engine of this deployment shares its implication memo.
    base: Engine,
    log: Mutex<CatalogLog>,
    /// Materialized snapshots, keyed by log sequence. A snapshot is
    /// immutable once materialized: the log is append-only.
    snapshots: Mutex<BTreeMap<u64, Arc<PolicyCatalog>>>,
    signal: Arc<ChurnSignal>,
}

impl std::fmt::Debug for CatalogService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogService")
            .field("head", &self.head())
            .field("signal", &self.signal)
            .finish_non_exhaustive()
    }
}

impl CatalogService {
    /// A service whose log starts at `engine`'s policy set (seq 0);
    /// grants are validated against `engine`'s storage catalog.
    pub fn new(engine: &Engine) -> CatalogService {
        CatalogService {
            base: engine.fork_with_policies(Arc::clone(engine.policies())),
            log: Mutex::new(CatalogLog::new((**engine.policies()).clone())),
            snapshots: Mutex::new(BTreeMap::new()),
            signal: Arc::new(ChurnSignal::new()),
        }
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

    fn log(&self) -> MutexGuard<'_, CatalogLog> {
        self.log.lock().expect("catalog log lock poisoned")
    }

    /// The channel revocations reach in-flight queries on.
    pub fn signal(&self) -> Arc<ChurnSignal> {
        Arc::clone(&self.signal)
    }

    /// The log's current head sequence — what a newly admitted query
    /// pins.
    pub fn head(&self) -> u64 {
        self.log().seq()
    }

    /// Append a grant: the expression is validated against its governed
    /// table's schema (resolved through the storage catalog), and the new
    /// head is published and returned. A grant never interrupts in-flight
    /// queries: it takes effect for queries that pin a head holding it —
    /// admitted later, or re-pinned by a revocation once it is visible.
    pub fn grant(&self, expr: PolicyExpression) -> Result<u64> {
        let schema = Arc::clone(&self.base.catalog().resolve_one(&expr.table)?.schema);
        let pin = self.log().grant(expr, &schema)?;
        self.signal.publish(pin, false);
        Ok(pin)
    }

    /// Append a revocation of live policy `pid` and push the new head to
    /// in-flight queries: any query caught shipping on a now-revoked edge
    /// aborts its attempt and re-plans under the new head.
    pub fn revoke(&self, pid: u64) -> Result<u64> {
        let pin = self.log().revoke(pid)?;
        self.signal.publish(pin, true);
        Ok(pin)
    }

    /// The engine at log sequence `seq`: the base engine forked over the
    /// snapshot at `seq`, materialized once and cached. The fork shares
    /// the base engine's implication memo; a sequence past the head is a
    /// policy error.
    pub fn engine(&self, seq: u64) -> Result<Engine> {
        let snapshot = {
            let mut cache = self.snapshots.lock().expect("snapshot cache lock poisoned");
            match cache.get(&seq) {
                Some(snap) => Arc::clone(snap),
                None => {
                    let snap = Arc::new(self.log().materialize(seq)?);
                    cache.insert(seq, Arc::clone(&snap));
                    snap
                }
            }
        };
        Ok(self.base.fork_with_policies(snapshot))
    }

    /// Everything one execution attempt needs to enforce churn under
    /// `pin`: the pin and the revocation signal.
    pub fn watch(&self, pin: u64) -> ChurnWatch {
        ChurnWatch {
            pin,
            signal: self.signal(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{Location, LocationPattern, TableRef};
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

    fn service() -> CatalogService {
        let sites = geoqp_common::LocationSet::from_iter(["L1", "L2", "L3"]);
        let topology = geoqp_net::NetworkTopology::uniform(sites, 10.0, 100.0);
        CatalogService::new(&Engine::new(
            storage(),
            Arc::new(PolicyCatalog::new()),
            topology,
        ))
    }

    #[test]
    fn grants_and_revokes_move_the_head_and_publish() {
        let svc = service();
        let base = svc.head();
        let g = svc.grant(expr("a")).unwrap();
        assert_eq!(g, base + 1);
        assert_eq!(
            svc.signal().revoked_since(0, 0),
            None,
            "grants don't interrupt"
        );
        let r = svc.revoke(0).unwrap();
        assert_eq!(svc.signal().revoked_since(g, 0), Some(r));
        assert!(svc.live_policies().is_empty());
    }

    #[test]
    fn engines_fork_the_base_over_snapshots_materialized_once() {
        let svc = service();
        let g = svc.grant(expr("a")).unwrap();
        let (e0, e1) = (svc.engine(0).unwrap(), svc.engine(g).unwrap());
        assert_ne!(
            e0.policies().canonical_bytes(),
            e1.policies().canonical_bytes()
        );
        assert!(Arc::ptr_eq(
            e1.policies(),
            svc.engine(g).unwrap().policies()
        ));
        assert!(std::ptr::eq(e0.implication_memo(), e1.implication_memo()));
        let past = svc.engine(g + 1).err().expect("a seq past the head");
        assert_eq!(past.kind(), "policy");
    }
}
