//! Shared experiment setup: catalogs, engines, policy sets.

use geoqp_common::{Row, Rows};
use geoqp_core::Engine;
use geoqp_net::NetworkTopology;
use geoqp_policy::PolicyCatalog;
use geoqp_storage::Catalog;
use std::sync::Arc;

/// The evaluation's scale factor for optimization experiments (paper:
/// SF 10; scale does not influence plan choice, only byte magnitudes).
pub const OPT_SF: f64 = 10.0;

/// Scale factor for experiments that actually execute plans.
pub const EXEC_SF: f64 = 0.01;

/// Build an engine over the Table 2 catalog with a given policy catalog.
pub fn engine_with_policies(catalog: Arc<Catalog>, policies: PolicyCatalog) -> Engine {
    Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan())
}

/// An answer as a multiset — its rows, sorted — so two answers compare
/// equal whatever order their rows arrived in.
pub fn multiset(rows: &Rows) -> Vec<Row> {
    let mut sorted = rows.rows().to_vec();
    sorted.sort();
    sorted
}
