//! Differential suite: the vectorized columnar engine must be
//! *observationally identical* to the row-at-a-time engine.
//!
//! Every TPC-H query that survives compliant optimization is executed on
//! both engines, on both runtimes (sequential interpreter and the
//! concurrent pipelined runtime), under a matrix of deterministic fault
//! schedules. For every cell the two engines must agree on
//!
//! * the result **row multiset** (in fact: the exact rows, in order),
//! * the **shipped bytes** and the full normalized transfer log (every
//!   transfer's source, destination, bytes, rows, attempts, and cost —
//!   which makes the fault replay bit-identical, not just equal in
//!   aggregate), and
//! * the **audit outcome**: success, or the same typed error (policy
//!   rejection, Definition-1 violation, site crash) naming the same site.
//!
//! Columnar execution is a CPU optimization; nothing observable may move.

use geoqp_core::{
    Engine, ExecOptions, ExecutionResult, OptimizedQuery, OptimizerMode, RuntimeConfig,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::FaultPlan;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

const SF: f64 = 0.01;
const SEED: u64 = 2021;

/// The fault matrix: drops with a healing window, seeded probabilistic
/// loss, latency degradation, and a permanent single-site crash (which
/// both engines must *fail* on identically for queries that need L3).
const FAULT_SPECS: [&str; 4] = [
    "drop:L1-L4@0..1",
    "flaky:L1-L3:0.25",
    "degrade:L2-L4:4x",
    "crash:L3",
];

/// Build the standard experiment engine and the optimized plans for
/// every query the CRA policy set admits.
fn optimized_queries() -> (Engine, Vec<(&'static str, OptimizedQuery)>) {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(SF));
    geoqp_tpch::populate(&catalog, SF, SEED).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, SEED).expect("policy generation");
    let engine = geoqp_bench::experiments::engine_with_policies(Arc::clone(&catalog), policies);

    let mut plans = Vec::new();
    for (query, plan) in all_queries(&catalog).expect("queries") {
        if let Ok(optimized) = engine.optimize(&plan, OptimizerMode::Compliant, None) {
            plans.push((query, optimized));
        }
    }
    assert!(!plans.is_empty(), "no query survived the policy set");
    (engine, plans)
}

/// One sequential try under `faults` — no failover — on the row or the
/// columnar engine.
fn with_faults(
    engine: &Engine,
    optimized: &OptimizedQuery,
    faults: &FaultPlan,
    retry: &RetryPolicy,
    columnar: bool,
) -> Result<ExecutionResult, geoqp_common::GeoError> {
    let opts = ExecOptions {
        faults: Some(faults),
        retry: retry.clone(),
        runtime: RuntimeConfig {
            columnar,
            ..RuntimeConfig::default()
        },
        ..ExecOptions::default()
    };
    engine.run(optimized, &opts).map(|o| ExecutionResult {
        rows: o.rows,
        transfers: o.transfers,
    })
}

/// Assert that two execution outcomes are observationally identical:
/// same rows in the same order, bit-identical transfer logs (bytes,
/// rows, attempts, faults, costs), or the same typed error.
fn assert_identical(
    query: &str,
    runtime: &str,
    schedule: &str,
    row: Result<ExecutionResult, geoqp_common::GeoError>,
    col: Result<ExecutionResult, geoqp_common::GeoError>,
) {
    let ctx = format!("{query} [{runtime}, faults={schedule}]");
    match (row, col) {
        (Ok(r), Ok(c)) => {
            assert_eq!(r.rows, c.rows, "{ctx}: rows diverged");
            assert_eq!(
                r.transfers.total_bytes(),
                c.transfers.total_bytes(),
                "{ctx}: shipped bytes diverged"
            );
            assert_eq!(r.transfers, c.transfers, "{ctx}: transfer logs diverged");
        }
        (Err(r), Err(c)) => {
            assert_eq!(r.kind(), c.kind(), "{ctx}: error kinds diverged");
            assert_eq!(
                r.failed_site(),
                c.failed_site(),
                "{ctx}: failed sites diverged"
            );
        }
        (Ok(_), Err(c)) => panic!("{ctx}: row engine succeeded, columnar failed: {c}"),
        (Err(r), Ok(_)) => panic!("{ctx}: columnar engine succeeded, row failed: {r}"),
    }
}

#[test]
fn sequential_engines_agree_without_faults() {
    let (engine, plans) = optimized_queries();
    for (query, OptimizedQuery { physical: plan, .. }) in &plans {
        assert_identical(
            query,
            "sequential",
            "none",
            engine.execute(plan),
            engine.execute_columnar(plan),
        );
    }
}

#[test]
fn sequential_engines_agree_under_every_fault_schedule() {
    let (engine, plans) = optimized_queries();
    let retry = RetryPolicy::default();
    for spec in FAULT_SPECS {
        let faults = FaultPlan::parse(spec, SEED).expect("fault spec");
        for (query, plan) in &plans {
            faults.reset_clock();
            let row = with_faults(&engine, plan, &faults, &retry, false);
            faults.reset_clock();
            let col = with_faults(&engine, plan, &faults, &retry, true);
            assert_identical(query, "sequential", spec, row, col);
        }
    }
}

#[test]
fn parallel_runtime_agrees_without_faults() {
    let (engine, plans) = optimized_queries();
    let retry = RetryPolicy::none();
    for (query, OptimizedQuery { physical: plan, .. }) in &plans {
        let run = |columnar: bool| {
            let config = RuntimeConfig {
                columnar,
                ..RuntimeConfig::default()
            };
            engine
                .execute_parallel_opts(plan, None, &retry, &config)
                .map(|p| ExecutionResult {
                    rows: p.rows,
                    transfers: p.transfers,
                })
        };
        assert_identical(query, "parallel", "none", run(false), run(true));
    }
}

#[test]
fn parallel_runtime_agrees_under_every_fault_schedule() {
    let (engine, plans) = optimized_queries();
    let retry = RetryPolicy::default();
    for spec in FAULT_SPECS {
        let faults = FaultPlan::parse(spec, SEED).expect("fault spec");
        for (query, OptimizedQuery { physical: plan, .. }) in &plans {
            let run = |columnar: bool| {
                faults.reset_clock();
                let config = RuntimeConfig {
                    columnar,
                    ..RuntimeConfig::default()
                };
                engine
                    .execute_parallel_opts(plan, Some(&faults), &retry, &config)
                    .map(|p| ExecutionResult {
                        rows: p.rows,
                        transfers: p.transfers,
                    })
            };
            assert_identical(query, "parallel", spec, run(false), run(true));
        }
    }
}

#[test]
fn sequential_and_parallel_columnar_ship_the_same_bytes() {
    // Cross-runtime invariant on the columnar path itself: streaming a
    // batch as column vectors must charge exactly what the sequential
    // engine's one monolithic row encoding charges.
    let (engine, plans) = optimized_queries();
    for (query, OptimizedQuery { physical: plan, .. }) in &plans {
        let seq = engine.execute_columnar(plan).expect("sequential columnar");
        let config = RuntimeConfig {
            columnar: true,
            ..RuntimeConfig::default()
        };
        let par = engine
            .execute_parallel_opts(plan, None, &RetryPolicy::none(), &config)
            .expect("parallel columnar");
        assert_eq!(
            seq.transfers.total_bytes(),
            par.transfers.total_bytes(),
            "{query}: columnar runtimes shipped different bytes"
        );
        assert_eq!(
            seq.rows.len(),
            par.rows.len(),
            "{query}: cardinality diverged"
        );
    }
}
