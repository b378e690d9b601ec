//! Pipelined scale-up experiment: sequential vs concurrent runtime.
//!
//! Every TPC-H query is optimized once (compliant mode) and executed
//! twice over the Table 2 deployment — on the sequential engine and on
//! the concurrent pipelined runtime (`geoqp-runtime`). The two runtimes
//! ship exactly the same bytes over exactly the same SHIP edges and
//! return the same row multiset; what changes is the simulated wall
//! clock. The sequential engine pays the *sum* of all transfer costs,
//! while the pipelined runtime pays the *critical path*: fragments on
//! different sites stream batches concurrently, so independent SHIP
//! edges overlap.

use crate::experiments::setup::{engine_with_policies, EXEC_SF};
use geoqp_common::Rows;
use geoqp_core::{OptimizerMode, RuntimeConfig};
use geoqp_exec::RetryPolicy;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

/// Workers per site for the intra-fragment (morsel) column.
pub const SCALEUP_WORKERS: usize = 4;

/// Rows per morsel for the scale-up runs: small enough that the
/// SF 0.01 fragments split into many morsels.
pub const SCALEUP_MORSEL_ROWS: usize = 256;

/// One query's sequential-vs-pipelined comparison.
#[derive(Debug)]
pub struct ScaleupRow {
    /// Query name.
    pub query: &'static str,
    /// Number of SHIP edges (= exchange edges = extra worker threads).
    pub ship_edges: usize,
    /// Result cardinality (identical across runtimes by construction;
    /// asserted via `rows_match`).
    pub rows: usize,
    /// Total bytes shipped by the sequential engine.
    pub bytes_sequential: u64,
    /// Total bytes shipped by the pipelined runtime.
    pub bytes_parallel: u64,
    /// Sequential completion: the sum of every transfer's simulated cost.
    pub sequential_ms: f64,
    /// Pipelined completion: the critical path through the fragment DAG.
    pub parallel_ms: f64,
    /// `sequential_ms / parallel_ms` (1.0 = no overlap to exploit).
    pub speedup: f64,
    /// Whether the two runtimes returned identical row multisets.
    pub rows_match: bool,
    /// Best-of-N CPU wall clock for the row-at-a-time engine, ms.
    pub row_cpu_ms: f64,
    /// Best-of-N CPU wall clock for the vectorized columnar engine, ms.
    pub columnar_cpu_ms: f64,
    /// Whether the columnar engine returned exactly the sequential
    /// engine's rows and shipped exactly its bytes.
    pub columnar_identical: bool,
    /// Deterministic makespan fraction at [`SCALEUP_WORKERS`] morsel
    /// workers per site: `Σ makespan_morsels / Σ morsels` over the
    /// run's site pools (`1.0` when no kernel split).
    pub makespan_fraction_w: f64,
    /// Whether the [`SCALEUP_WORKERS`]-worker run reproduced the
    /// one-worker run's rows and transfer log bit-for-bit.
    pub workers_identical: bool,
}

impl ScaleupRow {
    /// `row_cpu_ms / columnar_cpu_ms` (>1 = vectorization wins).
    pub fn cpu_speedup(&self) -> f64 {
        if self.columnar_cpu_ms > 0.0 {
            self.row_cpu_ms / self.columnar_cpu_ms
        } else {
            1.0
        }
    }

    /// Modeled end-to-end completion at one morsel worker: pipelined
    /// network critical path plus serial columnar kernel CPU.
    pub fn endtoend_w1_ms(&self) -> f64 {
        self.parallel_ms + self.columnar_cpu_ms
    }

    /// Modeled end-to-end completion at [`SCALEUP_WORKERS`] workers:
    /// the kernel CPU term shrinks by the deterministic makespan
    /// fraction; the network critical path is worker-invariant.
    pub fn endtoend_w_ms(&self) -> f64 {
        self.parallel_ms + self.columnar_cpu_ms * self.makespan_fraction_w
    }

    /// `endtoend_w1_ms / endtoend_w_ms` (>1 = intra-fragment
    /// parallelism shortens the modeled completion).
    pub fn intra_speedup(&self) -> f64 {
        let w = self.endtoend_w_ms();
        if w > 0.0 {
            self.endtoend_w1_ms() / w
        } else {
            1.0
        }
    }
}

/// Order-insensitive row-multiset equality.
fn same_multiset(a: &Rows, b: &Rows) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let key = |rows: &Rows| {
        let mut k: Vec<String> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1f}")
            })
            .collect();
        k.sort_unstable();
        k
    };
    key(a) == key(b)
}

/// Run every TPC-H query on both runtimes and compare.
pub fn measure(seed: u64) -> Vec<ScaleupRow> {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(EXEC_SF));
    geoqp_tpch::populate(&catalog, EXEC_SF, seed).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, seed).expect("policy generation");
    let engine = engine_with_policies(Arc::clone(&catalog), policies);

    let mut out = Vec::new();
    for (query, plan) in all_queries(&catalog).expect("queries") {
        let Ok(optimized) = engine.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue; // rejected under this policy set; nothing to execute
        };
        let sequential = engine.execute(&optimized.physical).expect("sequential");
        let parallel = engine
            .execute_parallel_opts(
                &optimized.physical,
                None,
                &RetryPolicy::none(),
                &RuntimeConfig::default(),
            )
            .expect("parallel");
        let sequential_ms = sequential.transfers.total_cost_ms();
        let parallel_ms = parallel.metrics.completion_ms;

        // Row vs columnar CPU: best-of-3 real wall clock for the same
        // plan through each engine, with an exact identity check (rows
        // in order, shipped bytes) rather than a multiset comparison.
        let best_of = |f: &dyn Fn() -> geoqp_core::ExecutionResult| {
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..3 {
                let t = std::time::Instant::now();
                let r = f();
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                last = Some(r);
            }
            (last.expect("three runs"), best)
        };
        let (row_run, row_cpu_ms) = best_of(&|| engine.execute(&optimized.physical).expect("row"));
        let (col_run, columnar_cpu_ms) = best_of(&|| {
            engine
                .execute_columnar(&optimized.physical)
                .expect("columnar")
        });
        let columnar_identical = row_run.rows == col_run.rows
            && row_run.transfers.total_bytes() == col_run.transfers.total_bytes();

        // Intra-fragment morsel parallelism: the same plan through the
        // columnar parallel runtime at 1 and SCALEUP_WORKERS workers
        // per site. Results and transfer logs must be bit-identical;
        // what changes is the deterministic makespan fraction the
        // worker pools report.
        let run_workers = |workers: usize| {
            let config = RuntimeConfig {
                columnar: true,
                workers_per_site: workers,
                morsel_rows: SCALEUP_MORSEL_ROWS,
                ..RuntimeConfig::default()
            };
            engine
                .execute_parallel_opts(&optimized.physical, None, &RetryPolicy::none(), &config)
                .expect("parallel columnar")
        };
        let one = run_workers(1);
        let many = run_workers(SCALEUP_WORKERS);
        let workers_identical = one.rows == many.rows && one.transfers == many.transfers;
        let pool_morsels: u64 = many.metrics.sites.values().map(|m| m.pool.morsels).sum();
        let pool_makespan: u64 = many
            .metrics
            .sites
            .values()
            .map(|m| m.pool.makespan_morsels)
            .sum();
        let makespan_fraction_w = if pool_morsels > 0 {
            pool_makespan as f64 / pool_morsels as f64
        } else {
            1.0
        };

        out.push(ScaleupRow {
            query,
            ship_edges: optimized.physical.ship_count(),
            rows: sequential.rows.len(),
            bytes_sequential: sequential.transfers.total_bytes(),
            bytes_parallel: parallel.transfers.total_bytes(),
            sequential_ms,
            parallel_ms,
            speedup: if parallel_ms > 0.0 {
                sequential_ms / parallel_ms
            } else {
                1.0
            },
            rows_match: same_multiset(&sequential.rows, &parallel.rows),
            row_cpu_ms,
            columnar_cpu_ms,
            columnar_identical,
            makespan_fraction_w,
            workers_identical,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_overlaps_without_changing_results() {
        let rows = measure(2021);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.rows_match, "{}: row multisets diverged", r.query);
            assert!(
                r.columnar_identical,
                "{}: columnar engine diverged from the row engine",
                r.query
            );
            assert_eq!(
                r.bytes_sequential, r.bytes_parallel,
                "{}: shipped bytes diverged",
                r.query
            );
            assert!(
                r.parallel_ms <= r.sequential_ms + 1e-6,
                "{}: pipelined completion {} exceeds sequential {}",
                r.query,
                r.parallel_ms,
                r.sequential_ms
            );
        }
        // The acceptance bar: at least one multi-site query genuinely
        // overlaps its transfers.
        assert!(
            rows.iter()
                .any(|r| r.ship_edges >= 2 && r.speedup > 1.0 + 1e-9),
            "no multi-site query beat the sequential runtime: {rows:?}"
        );
        // Morsel workers never perturb results, and at least one query's
        // kernels genuinely split (modeled end-to-end improves at
        // SCALEUP_WORKERS workers).
        for r in &rows {
            assert!(
                r.workers_identical,
                "{}: {SCALEUP_WORKERS}-worker run diverged from one worker",
                r.query
            );
            assert!(r.makespan_fraction_w > 0.0 && r.makespan_fraction_w <= 1.0);
            assert!(r.endtoend_w_ms() <= r.endtoend_w1_ms() + 1e-9);
        }
        assert!(
            rows.iter().any(|r| r.intra_speedup() > 1.0 + 1e-9),
            "no query's modeled completion improved with morsel workers: {rows:?}"
        );
    }
}
