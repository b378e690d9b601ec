//! Search-volume counters of the compliant optimizer over the scaled-out
//! ad-hoc workload (`repro --figure adhoc`, `BENCH_optimizer.json`).
//!
//! One single-threaded pass per template set over seeded
//! [`generate_adhoc`] queries, reporting only what the seed determines:
//! the fraction of queries for which a compliant plan exists, η,
//! Algorithm 2 DP states, implication-memo hits and misses. Nothing here
//! reads a clock — planning *time*, and its ratio to the traditional
//! optimizer's, is `benchmark/`'s `adhoc_optimize` — and effectiveness
//! against the traditional optimizer is Fig. 6(a)
//! ([`effectiveness::adhoc_effectiveness`](super::effectiveness::adhoc_effectiveness))
//! — so the JSON is byte-identical run to run and is regression-checked
//! (`crates/bench/tests/adhoc_counters.rs`).

use crate::experiments::setup::{engine_with_policies, OPT_SF};
use geoqp_core::OptimizerMode;
use geoqp_tpch::adhoc::generate_adhoc;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use std::sync::Arc;

/// The four template sets, in the paper's order.
pub const TEMPLATES: [PolicyTemplate; 4] = [
    PolicyTemplate::T,
    PolicyTemplate::C,
    PolicyTemplate::CR,
    PolicyTemplate::CRA,
];

/// Expressions per template set in the paper's ad-hoc experiments: T has
/// only its 8 base expressions, the rest use 50.
pub fn expressions_for(template: PolicyTemplate) -> usize {
    match template {
        PolicyTemplate::T => 8,
        _ => 50,
    }
}

/// One template's search-volume counters.
#[derive(Debug)]
pub struct AdhocCounters {
    /// Template set.
    pub template: PolicyTemplate,
    /// Expression count used.
    pub expressions: usize,
    /// Queries optimized (compliant mode).
    pub queries: usize,
    /// Fraction of queries for which a compliant plan was found.
    pub compliant_fraction: f64,
    /// Implication-memo hits over the batch.
    pub memo_hits: u64,
    /// Implication-memo misses (proofs actually run).
    pub memo_misses: u64,
    /// `hits / (hits + misses)` over the batch.
    pub memo_hit_rate: f64,
    /// Total Algorithm 2 DP states across all queries.
    pub dp_states_total: u64,
    /// Mean DP states per query.
    pub dp_states_mean: f64,
    /// Mean η (expressions passing overlap + implication) per query.
    pub eta_mean: f64,
}

/// `total_queries` split evenly across the four template sets, each batch
/// optimized in compliant mode, in generation order, on one thread (the
/// implication memo is engine-wide, so its counters depend on the order).
pub fn adhoc_counters(total_queries: usize, seed: u64) -> Vec<AdhocCounters> {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(OPT_SF));
    let per_group = total_queries / 4;
    let mut out = Vec::new();
    for (i, template) in TEMPLATES.into_iter().enumerate() {
        let n_expr = expressions_for(template);
        let policies = generate_policies(&catalog, template, n_expr, seed).unwrap();
        let engine = engine_with_policies(Arc::clone(&catalog), policies);
        let queries = generate_adhoc(&catalog, per_group, seed.wrapping_add(i as u64)).unwrap();
        let (mut found, mut dp, mut eta) = (0usize, 0u64, 0u64);
        for q in &queries {
            if let Ok(opt) = engine.optimize(&q.plan, OptimizerMode::Compliant, None) {
                found += 1;
                dp += opt.stats.dp_states as u64;
                eta += opt.stats.eta;
            }
        }
        let memo = engine.implication_memo();
        let n = per_group.max(1) as f64;
        out.push(AdhocCounters {
            template,
            expressions: n_expr,
            queries: per_group,
            compliant_fraction: found as f64 / n,
            memo_hits: memo.hits(),
            memo_misses: memo.misses(),
            memo_hit_rate: memo.hit_rate(),
            dp_states_total: dp,
            dp_states_mean: dp as f64 / n,
            eta_mean: eta as f64 / n,
        });
    }
    out
}

/// Render the counters as the `BENCH_optimizer.json` document.
pub fn to_json(counters: &[AdhocCounters], seed: u64) -> String {
    let rows: Vec<String> = counters
        .iter()
        .map(|t| {
            format!(
                "    {{\"template\": \"{}\", \"expressions\": {}, \"queries\": {}, \
                 \"compliant_fraction\": {:.4}, \"memo_hits\": {}, \"memo_misses\": {}, \
                 \"memo_hit_rate\": {:.4}, \"dp_states_total\": {}, \"dp_states_mean\": {:.2}, \
                 \"eta_mean\": {:.2}}}",
                t.template.name(),
                t.expressions,
                t.queries,
                t.compliant_fraction,
                t.memo_hits,
                t.memo_misses,
                t.memo_hit_rate,
                t.dp_states_total,
                t.dp_states_mean,
                t.eta_mean
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"scale_factor\": {OPT_SF},\n  \"counters\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}
