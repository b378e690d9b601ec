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
//! The service wires them to the storage catalog (grant validation needs
//! the governed table's schema) and hands the engine everything churn-
//! aware execution needs: the snapshot at a pinned log sequence and a
//! fresh watch after a mid-flight re-pin. Whether a plan still holds
//! under a snapshot is decided where it runs: every shipped batch is
//! audited against the pinned snapshot, and a revocation newer than the
//! pin aborts the attempt.

use crate::engine::Engine;
use geoqp_common::{ChurnEvent, ChurnSignal, ChurnWatch, Result};
use geoqp_policy::{CatalogLog, PolicyCatalog, PolicyExpression};
use geoqp_storage::Catalog;
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
/// [`CatalogLog`], its materialized snapshots, and the churn signal.
#[derive(Debug)]
pub struct CatalogService {
    storage: Arc<Catalog>,
    log: Mutex<CatalogLog>,
    /// Materialized snapshots, keyed by log sequence. A snapshot is
    /// immutable once materialized: the log is append-only.
    snapshots: Mutex<BTreeMap<u64, Arc<PolicyCatalog>>>,
    signal: Arc<ChurnSignal>,
}

impl CatalogService {
    /// A service whose log starts at `base`; grants are validated against
    /// `storage`'s schemas.
    pub fn new(storage: Arc<Catalog>, base: PolicyCatalog) -> CatalogService {
        CatalogService {
            storage,
            log: Mutex::new(CatalogLog::new(base)),
            snapshots: Mutex::new(BTreeMap::new()),
            signal: Arc::new(ChurnSignal::new()),
        }
    }

    /// A service whose log starts at `engine`'s policy set.
    pub fn for_engine(engine: &Engine) -> CatalogService {
        CatalogService::new(Arc::clone(engine.catalog()), (**engine.policies()).clone())
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
    /// head is published and returned. Grants never interrupt in-flight
    /// queries — they take effect for queries admitted later.
    pub fn grant(&self, expr: PolicyExpression) -> Result<u64> {
        let schema = Arc::clone(&self.storage.resolve_one(&expr.table)?.schema);
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

    /// The catalog snapshot at log sequence `seq`, cached; a sequence
    /// past the head is a policy error.
    pub fn snapshot(&self, seq: u64) -> Result<Arc<PolicyCatalog>> {
        let mut cache = self.snapshots.lock().expect("snapshot cache lock poisoned");
        if let Some(snap) = cache.get(&seq) {
            return Ok(Arc::clone(snap));
        }
        let snap = Arc::new(self.log().materialize(seq)?);
        cache.insert(seq, Arc::clone(&snap));
        Ok(snap)
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

    #[test]
    fn grants_and_revokes_move_the_head_and_publish() {
        let svc = CatalogService::new(storage(), PolicyCatalog::new());
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
    fn snapshots_are_materialized_per_seq_and_cached() {
        let svc = CatalogService::new(storage(), PolicyCatalog::new());
        let g = svc.grant(expr("a")).unwrap();
        let s0 = svc.snapshot(0).unwrap();
        let s1 = svc.snapshot(g).unwrap();
        assert_ne!(s0.canonical_bytes(), s1.canonical_bytes());
        assert!(Arc::ptr_eq(&s1, &svc.snapshot(g).unwrap()));
        assert_eq!(svc.snapshot(g + 1).unwrap_err().kind(), "policy");
    }
}
