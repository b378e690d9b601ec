//! Differential suite: morsel-driven intra-fragment parallelism must be
//! *observationally invisible*.
//!
//! Every TPC-H query that survives compliant optimization is executed on
//! the columnar engine at 1, 2, and 4 morsel workers per
//! site, under a matrix of deterministic fault schedules. For every
//! cell the multi-worker run must reproduce the one-worker run's
//!
//! * **rows**, bit-for-bit and in the same order (the hash join probes
//!   one index built in input order, and it and the parallel aggregates
//!   merge per-morsel results in morsel sequence order, so not even row
//!   order may move),
//! * **transfer log** — every transfer's source, destination, bytes,
//!   rows, attempts, and cost, which makes fault replay identical, and
//! * **audit outcome**: success, or the same typed error naming the
//!   same site.
//!
//! The worker pool is a scheduling freedom, not a semantic one: which
//! worker runs which morsel is schedule noise no output may reflect.

use geoqp_core::{Engine, OptimizerMode, ParallelResult, RuntimeConfig};
use geoqp_exec::RetryPolicy;
use geoqp_net::FaultPlan;
use geoqp_plan::PhysicalPlan;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

const SF: f64 = 0.01;
const SEED: u64 = 2021;

/// Worker counts under test; the first is the serial baseline.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Small morsels so the SF 0.01 fragments split into many tasks and
/// several workers really do share each dispatch.
const MORSEL_ROWS: usize = 128;

/// Same fault matrix as the columnar differential suite: drops with a
/// healing window, seeded probabilistic loss, latency degradation, and
/// a permanent single-site crash.
const FAULT_SPECS: [&str; 4] = [
    "drop:L1-L4@0..1",
    "flaky:L1-L3:0.25",
    "degrade:L2-L4:4x",
    "crash:L3",
];

fn optimized_queries() -> (Engine, Vec<(&'static str, Arc<PhysicalPlan>)>) {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(SF));
    geoqp_tpch::populate(&catalog, SF, SEED).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, SEED).expect("policy generation");
    let engine = geoqp_bench::experiments::engine_with_policies(Arc::clone(&catalog), policies);

    let mut plans = Vec::new();
    for (query, plan) in all_queries(&catalog).expect("queries") {
        if let Ok(optimized) = engine.optimize(&plan, OptimizerMode::Compliant, None) {
            plans.push((query, Arc::clone(&optimized.physical)));
        }
    }
    assert!(!plans.is_empty(), "no query survived the policy set");
    (engine, plans)
}

fn config_for(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        columnar: true,
        workers_per_site: workers,
        morsel_rows: MORSEL_ROWS,
        ..RuntimeConfig::default()
    }
}

/// Total pooled morsels a run dispatched across its site pools.
fn pooled_morsels(run: &ParallelResult) -> u64 {
    run.metrics.sites.values().map(|m| m.morsels).sum()
}

/// Assert a multi-worker outcome is bit-identical to the one-worker
/// baseline: exact rows in order, exact transfer log, or the same
/// typed error naming the same site.
fn assert_identical(
    query: &str,
    workers: usize,
    schedule: &str,
    base: &Result<ParallelResult, geoqp_common::GeoError>,
    run: &Result<ParallelResult, geoqp_common::GeoError>,
) {
    let ctx = format!("{query} [workers={workers}, faults={schedule}]");
    match (base, run) {
        (Ok(b), Ok(r)) => {
            assert_eq!(b.rows, r.rows, "{ctx}: rows diverged");
            assert_eq!(b.transfers, r.transfers, "{ctx}: transfer logs diverged");
            assert_eq!(
                b.transfers.total_bytes(),
                r.transfers.total_bytes(),
                "{ctx}: shipped bytes diverged"
            );
        }
        (Err(b), Err(r)) => {
            assert_eq!(b.kind(), r.kind(), "{ctx}: error kinds diverged");
            assert_eq!(
                b.failed_site(),
                r.failed_site(),
                "{ctx}: failed sites diverged"
            );
        }
        (Ok(_), Err(r)) => panic!("{ctx}: one worker succeeded, {workers} failed: {r}"),
        (Err(b), Ok(_)) => panic!("{ctx}: {workers} workers succeeded, one failed: {b}"),
    }
}

#[test]
fn worker_counts_agree_without_faults() {
    let (engine, plans) = optimized_queries();
    let retry = RetryPolicy::none();
    let mut pooled = 0u64;
    for (query, plan) in &plans {
        let base = engine.execute_parallel_opts(plan, None, &retry, &config_for(1));
        for &workers in &WORKER_COUNTS[1..] {
            let run = engine.execute_parallel_opts(plan, None, &retry, &config_for(workers));
            if let Ok(r) = &run {
                pooled += pooled_morsels(r);
            }
            assert_identical(query, workers, "none", &base, &run);
        }
    }
    assert!(
        pooled > 0,
        "no query dispatched a single pooled morsel — the suite is vacuous"
    );
}

#[test]
fn worker_counts_agree_under_every_fault_schedule() {
    let (engine, plans) = optimized_queries();
    let retry = RetryPolicy::default();
    for spec in FAULT_SPECS {
        let faults = FaultPlan::parse(spec, SEED).expect("fault spec");
        for (query, plan) in &plans {
            let base = engine.execute_parallel_opts(plan, Some(&faults), &retry, &config_for(1));
            for &workers in &WORKER_COUNTS[1..] {
                let run =
                    engine.execute_parallel_opts(plan, Some(&faults), &retry, &config_for(workers));
                assert_identical(query, workers, spec, &base, &run);
            }
        }
    }
}

#[test]
fn merge_order_is_pure_across_repeated_runs() {
    // Purity of the deterministic merge: re-running the *same* worker
    // count must reproduce rows and transfers exactly, run after run,
    // even though which worker runs which morsel differs every time.
    let (engine, plans) = optimized_queries();
    let retry = RetryPolicy::none();
    for (query, plan) in plans.iter().take(6) {
        let reference = engine
            .execute_parallel_opts(plan, None, &retry, &config_for(4))
            .expect("reference run");
        for round in 0..3 {
            let again = engine
                .execute_parallel_opts(plan, None, &retry, &config_for(4))
                .expect("repeat run");
            assert_eq!(
                reference.rows, again.rows,
                "{query}: round {round} rows diverged from the reference schedule"
            );
            assert_eq!(
                reference.transfers, again.transfers,
                "{query}: round {round} transfer logs diverged"
            );
            assert_eq!(
                pooled_morsels(&reference),
                pooled_morsels(&again),
                "{query}: round {round} morsel counts diverged (dispatch is not pure)"
            );
        }
    }
}
