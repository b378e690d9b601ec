//! Differential fuzz over the generated ad-hoc workload: a seeded
//! sample of generator queries (default 500 in release builds, override
//! with `GEOQP_ADHOC_N`) is optimized in compliant mode and executed
//! row vs columnar × sequential vs parallel. Engine pairs must agree on
//! rows, shipped bytes, and the full normalized transfer log; the two
//! runtimes must agree on the row multiset and shipped bytes. A slice
//! of the sample additionally replays under drop and flaky fault
//! schedules, where both engines must agree outcome-for-outcome —
//! including failing with the same typed error at the same site.

use geoqp_core::{
    Engine, ExecOptions, ExecutionResult, OptimizedQuery, OptimizerMode, RuntimeConfig,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::FaultPlan;
use geoqp_tpch::adhoc::generate_adhoc;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use std::sync::Arc;

const SF: f64 = 0.001;
const SEED: u64 = 2021;

/// The fault slice: a healing partition and a seeded flaky link.
const FAULT_SPECS: [&str; 2] = ["drop:L1-L4@0..1", "flaky:L1-L3:0.25"];

/// Sample size: `GEOQP_ADHOC_N`, defaulting to the acceptance-level 500
/// in release builds and a quicker round under `cargo test` (debug).
fn adhoc_n() -> usize {
    std::env::var("GEOQP_ADHOC_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 80 } else { 500 })
}

/// Generate the sample and optimize every query in compliant mode. The
/// generator's contract says nothing may fail to plan.
fn optimized_adhoc() -> (Engine, Vec<(usize, OptimizedQuery)>) {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(SF));
    geoqp_tpch::populate(&catalog, SF, SEED).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, SEED).expect("policy generation");
    let engine = geoqp_bench::experiments::engine_with_policies(Arc::clone(&catalog), policies);
    let queries = generate_adhoc(&catalog, adhoc_n(), SEED).expect("generate");
    let plans = queries
        .iter()
        .map(|q| {
            let opt = engine
                .optimize(&q.plan, OptimizerMode::Compliant, None)
                .unwrap_or_else(|e| panic!("query #{} failed to plan: {e}\n{}", q.id, q.sql));
            (q.id, opt)
        })
        .collect();
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

/// Two executions of the *same engine pair* must be observationally
/// identical: same rows in the same order, bit-identical transfer logs,
/// or the same typed error naming the same site.
fn assert_identical(
    id: usize,
    runtime: &str,
    schedule: &str,
    row: Result<ExecutionResult, geoqp_common::GeoError>,
    col: Result<ExecutionResult, geoqp_common::GeoError>,
) {
    let ctx = format!("adhoc #{id} [{runtime}, faults={schedule}]");
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

/// Sorted row fingerprints, for cross-runtime comparison (the pipelined
/// runtime may emit unsorted results in a different order).
fn sorted_rows(r: &ExecutionResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    v.sort();
    v
}

#[test]
fn engines_and_runtimes_agree_on_generated_queries() {
    let (engine, plans) = optimized_adhoc();
    assert!(plans.len() >= adhoc_n(), "sample came up short");
    let retry = RetryPolicy::none();
    for (id, OptimizedQuery { physical: plan, .. }) in &plans {
        let seq_row = engine.execute(plan);
        let seq_col = engine.execute_columnar(plan);
        let par = |columnar: bool| {
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
        let par_row = par(false);
        let par_col = par(true);

        // Engine pairs: bit-identical within each runtime.
        let seq_row = seq_row.unwrap_or_else(|e| panic!("adhoc #{id} sequential: {e}"));
        let seq_col = seq_col.unwrap_or_else(|e| panic!("adhoc #{id} seq columnar: {e}"));
        let par_row = par_row.unwrap_or_else(|e| panic!("adhoc #{id} parallel: {e}"));
        let par_col = par_col.unwrap_or_else(|e| panic!("adhoc #{id} par columnar: {e}"));
        let (seq_sorted, seq_bytes) = (sorted_rows(&seq_row), seq_row.transfers.total_bytes());
        let (par_sorted, par_bytes) = (sorted_rows(&par_row), par_row.transfers.total_bytes());
        assert_identical(*id, "sequential", "none", Ok(seq_row), Ok(seq_col));
        assert_identical(*id, "parallel", "none", Ok(par_row), Ok(par_col));

        // Runtimes: same multiset of rows, same shipped bytes.
        assert_eq!(
            seq_sorted, par_sorted,
            "adhoc #{id}: runtimes returned different rows"
        );
        assert_eq!(
            seq_bytes, par_bytes,
            "adhoc #{id}: runtimes shipped different bytes"
        );
    }
}

#[test]
fn fault_schedule_slice_agrees_across_engines() {
    let (engine, plans) = optimized_adhoc();
    let slice = &plans[..plans.len().min(60)];
    let retry = RetryPolicy::default();
    for spec in FAULT_SPECS {
        let faults = FaultPlan::parse(spec, SEED).expect("fault spec");
        for (id, opt) in slice {
            let plan = &opt.physical;
            faults.reset_clock();
            let row = with_faults(&engine, opt, &faults, &retry, false);
            faults.reset_clock();
            let col = with_faults(&engine, opt, &faults, &retry, true);
            assert_identical(*id, "sequential", spec, row, col);

            let par = |columnar: bool| {
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
            assert_identical(*id, "parallel", spec, par(false), par(true));
        }
    }
}
