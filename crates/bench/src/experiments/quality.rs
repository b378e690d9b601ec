//! Plan-quality experiments: Figures 6(g) and 6(h).
//!
//! Compares the *execution cost arising from shipping intermediate data*
//! between the plans of the two optimizers, under the C and CR template
//! sets. Following Section 7.4, the network is simulated with the
//! `α_ij + β_ij · b` message cost model; here the plans are actually
//! executed over generated data and every SHIP's exact byte volume is
//! charged, rather than estimated.

use crate::experiments::setup::engine_with_policies;
use geoqp_core::OptimizerMode;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

/// One bar pair of Figure 6(g)/(h).
#[derive(Debug)]
pub struct QualityRow {
    /// Query name.
    pub query: &'static str,
    /// Simulated shipping cost of the traditional plan (ms).
    pub traditional_cost_ms: f64,
    /// Whether the traditional plan was compliant.
    pub traditional_compliant: bool,
    /// Simulated shipping cost of the compliant plan (ms).
    pub compliant_cost_ms: f64,
    /// Scaled execution cost: compliant / traditional.
    pub scaled: f64,
    /// Whether the two physical plans are identical (the paper's "=").
    pub same_plan: bool,
    /// Bytes shipped by each plan.
    pub traditional_bytes: u64,
    /// Bytes shipped by the compliant plan.
    pub compliant_bytes: u64,
}

/// Run the quality experiment for one template at a data scale factor.
pub fn measure(template: PolicyTemplate, sf: f64, seed: u64) -> Vec<QualityRow> {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(sf));
    geoqp_tpch::populate(&catalog, sf, seed).expect("populate");
    let policies = generate_policies(&catalog, template, template.base_count(), seed).unwrap();
    let engine = engine_with_policies(Arc::clone(&catalog), policies);

    let mut out = Vec::new();
    for (query, plan) in all_queries(&catalog).unwrap() {
        let trad = engine
            .optimize(&plan, OptimizerMode::Traditional, None)
            .expect("traditional");
        let comp = engine
            .optimize(&plan, OptimizerMode::Compliant, None)
            .expect("compliant");
        let trad_exec = engine.execute(&trad.physical).expect("execute traditional");
        let comp_exec = engine.execute(&comp.physical).expect("execute compliant");
        // Semantics check: both plans must produce identical result sets.
        assert_eq!(
            sorted(&trad_exec.rows),
            sorted(&comp_exec.rows),
            "{query}: compliant and traditional results diverge"
        );
        let t_cost = trad_exec.transfers.total_cost_ms();
        let c_cost = comp_exec.transfers.total_cost_ms();
        out.push(QualityRow {
            query,
            traditional_cost_ms: t_cost,
            traditional_compliant: engine.audit(&trad.physical).is_ok(),
            compliant_cost_ms: c_cost,
            scaled: if t_cost > 0.0 { c_cost / t_cost } else { 1.0 },
            same_plan: trad.physical == comp.physical,
            traditional_bytes: trad_exec.transfers.total_bytes(),
            compliant_bytes: comp_exec.transfers.total_bytes(),
        });
    }
    out
}

fn sorted(rows: &geoqp_common::Rows) -> Vec<geoqp_common::Row> {
    let mut v: Vec<geoqp_common::Row> = rows.rows().to_vec();
    v.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    v
}
