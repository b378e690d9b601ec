//! Gray-failure experiment: each TPC-H query executed over a WAN whose
//! busiest link is degraded (delivering at a multiple of its modelled
//! cost), with and without the hedged-transfer defense.
//!
//! For every query the harness first runs fault-free to find the busiest
//! cross-site exchange edge, then degrades that link and measures
//! simulated completion time three ways:
//!
//! * **no-hedge** — the baseline rides the degraded link at full price;
//! * **hedged** — link-health scoring launches compliant backup
//!   transfers (delayed duplicates, or one-hop relays through a site in
//!   the edge's shipping trait `𝒮_n`), first delivery wins;
//! * **condemned** ([`condemnation_matrix`]) — a tight breaker budget
//!   condemns the link entirely and the engine re-runs Algorithm 2 with
//!   the link priced at ∞, keeping both endpoints in the execution
//!   traits.
//!
//! Every run's final plan is re-audited against Definition 1: the
//! defense never buys latency with a non-compliant dataflow.

use crate::experiments::setup::{engine_with_policies, multiset, EXEC_SF};
use geoqp_common::Location;
use geoqp_core::{
    Engine, ExecOptions, HealthConfig, HedgeConfig, OptimizerMode, RuntimeConfig, RuntimeMetrics,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, StepWindow};
use geoqp_plan::PhysOp;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

/// Exchange batch size for the gray-failure runs: small enough that
/// every cross-site stream produces several batches, so the health
/// table has observations to score before the stream ends.
const BATCH_ROWS: usize = 32;

/// One query's hedged-vs-unhedged comparison under a degraded link.
#[derive(Debug)]
pub struct GrayfailCell {
    /// Query name.
    pub query: &'static str,
    /// The degraded link (the query's busiest cross-site edge).
    pub link: (Location, Location),
    /// Degrade factor applied to the link.
    pub factor: f64,
    /// Pipelined completion without hedging, ms.
    pub nohedge_ms: f64,
    /// Pipelined completion with hedging, ms.
    pub hedged_ms: f64,
    /// Bytes shipped without hedging.
    pub nohedge_bytes: u64,
    /// Bytes shipped with hedging (backup legs included — the real cost
    /// of the defense).
    pub hedged_bytes: u64,
    /// Hedged backups launched.
    pub hedges_launched: u64,
    /// Hedged backups that beat their primary.
    pub hedges_won: u64,
    /// Backups that routed via a compliant relay site.
    pub relays_used: u64,
    /// Both degraded runs returned the fault-free row multiset.
    pub rows_match: bool,
    /// The hedged run's plan passed the Definition-1 audit.
    pub audit_ok: bool,
}

impl GrayfailCell {
    /// Completion-time speedup of hedging over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.hedged_ms > 0.0 {
            self.nohedge_ms / self.hedged_ms
        } else {
            1.0
        }
    }

    /// Shipped-bytes overhead of hedging over the baseline (0.08 = +8%).
    pub fn bytes_overhead(&self) -> f64 {
        if self.nohedge_bytes > 0 {
            self.hedged_bytes as f64 / self.nohedge_bytes as f64 - 1.0
        } else {
            0.0
        }
    }
}

/// The engine and config shared by both matrices.
fn grayfail_engine(seed: u64) -> (Engine, RuntimeConfig) {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(EXEC_SF));
    geoqp_tpch::populate(&catalog, EXEC_SF, seed).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, seed).expect("policy generation");
    let engine = engine_with_policies(catalog, policies);
    let config = RuntimeConfig {
        batch_rows: BATCH_ROWS,
        ..RuntimeConfig::default()
    };
    (engine, config)
}

/// The busiest cross-site exchange edge of a fault-free run —
/// the link a gray failure hurts most.
fn busiest_link(metrics: &RuntimeMetrics) -> Option<(Location, Location)> {
    metrics
        .edges
        .iter()
        .filter(|e| e.from != e.to)
        .max_by(|a, b| {
            a.stats
                .bytes
                .cmp(&b.stats.bytes)
                .then(a.arrival_ms.total_cmp(&b.arrival_ms))
        })
        .map(|e| (e.from.clone(), e.to.clone()))
}

/// One run of `optimized` under `faults`.
fn run_under(
    engine: &Engine,
    optimized: &geoqp_core::OptimizedQuery,
    faults: &FaultPlan,
    opts: &ExecOptions<'_>,
) -> geoqp_common::Result<geoqp_core::QueryOutcome> {
    engine.run(
        optimized,
        &ExecOptions {
            faults: Some(faults),
            ..opts.clone()
        },
    )
}

/// Hedged vs unhedged completion for every TPC-H query whose busiest
/// link turns gray: degraded by `factor` and dropping each batch with
/// probability `loss` (a loss burst). The two fault modes exercise both
/// backup shapes — relays detour around the slow wire where the edge's
/// `𝒮_n` permits one, and duplicates on independent fault coins rescue
/// lost batches without waiting out the primary's retry backoff.
pub fn grayfail_matrix(seed: u64, factor: f64, loss: f64) -> Vec<GrayfailCell> {
    let (engine, config) = grayfail_engine(seed);
    let retry = RetryPolicy::default();
    // No replanning in either arm: the comparison isolates hedging, so
    // the breaker's open budget is effectively unlimited here (the tight
    // budget is `condemnation_matrix`'s subject).
    let plain_opts = ExecOptions {
        retry: retry.clone(),
        runtime: config,
        ..ExecOptions::default()
    };
    let hedge_opts = plain_opts.clone().with_hedge(HedgeConfig {
        delay_ms: 0.0,
        health: HealthConfig {
            open_budget: u32::MAX,
            ..HealthConfig::default()
        },
    });
    let mut out = Vec::new();
    for (query, plan) in all_queries(engine.catalog()).expect("queries") {
        let Ok(optimized) = engine.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let Ok(reference) = run_under(&engine, &optimized, &FaultPlan::new(seed), &plain_opts)
        else {
            continue;
        };
        let Some(link) = busiest_link(&reference.metrics) else {
            continue;
        };
        let degrade = || {
            FaultPlan::new(seed)
                .with_degrade(link.0.clone(), link.1.clone(), factor, StepWindow::ALWAYS)
                .with_loss_burst(link.0.clone(), link.1.clone(), loss, StepWindow::ALWAYS)
        };
        let Ok(plain) = run_under(&engine, &optimized, &degrade(), &plain_opts) else {
            continue;
        };
        let Ok(hedged) = run_under(&engine, &optimized, &degrade(), &hedge_opts) else {
            continue;
        };
        let reference_rows = multiset(&reference.rows);
        out.push(GrayfailCell {
            query,
            link: link.clone(),
            factor,
            nohedge_ms: plain.metrics.completion_ms,
            hedged_ms: hedged.metrics.completion_ms,
            nohedge_bytes: plain.transfers.total_bytes(),
            hedged_bytes: hedged.transfers.total_bytes(),
            hedges_launched: hedged.hedges_launched,
            hedges_won: hedged.hedges_won,
            relays_used: hedged.relays_used,
            rows_match: multiset(&plain.rows) == reference_rows
                && multiset(&hedged.rows) == reference_rows,
            audit_ok: engine.audit(&hedged.physical).is_ok(),
        });
    }
    out
}

/// One query's breaker-condemnation run: a tight open budget condemns
/// the degraded link and the engine re-plans with the link priced at ∞.
#[derive(Debug)]
pub struct CondemnCell {
    /// Query name.
    pub query: &'static str,
    /// The degraded (and condemned) link.
    pub link: (Location, Location),
    /// Compliant re-plans taken (≥ 1 when the breaker bit).
    pub replans: usize,
    /// The condemned link appears in the result's avoided set.
    pub avoided: bool,
    /// The condemnation was waived: no compliant placement avoids the
    /// link, so the engine rode the degraded wire instead of rejecting.
    pub waived: bool,
    /// Closed → open breaker transitions observed.
    pub breaker_trips: u64,
    /// Sites excluded during failover (must stay empty: a gray link is a
    /// link problem, not a site problem).
    pub sites_excluded: usize,
    /// SHIP edges a re-plan served from a checkpoint.
    pub checkpoint_hits: u64,
    /// The completing plan reads a checkpoint through a `ResumeScan` leaf.
    pub stitched: bool,
    /// The run returned the fault-free row multiset.
    pub rows_match: bool,
    /// The final (re-planned) plan passed the Definition-1 audit.
    pub audit_ok: bool,
}

/// Degrade each query's busiest link and give the breaker a one-trip
/// budget: the link is condemned, Algorithm 2 re-runs with its cost at
/// ∞, and the query completes on a placement that routes around it.
pub fn condemnation_matrix(seed: u64, factor: f64) -> Vec<CondemnCell> {
    let (engine, config) = grayfail_engine(seed);
    let retry = RetryPolicy::default();
    let plain_opts = ExecOptions {
        retry: retry.clone(),
        runtime: config,
        ..ExecOptions::default()
    };
    let condemn_opts = ExecOptions {
        max_replans: 2,
        resume: true,
        ..plain_opts.clone()
    }
    .with_hedge(HedgeConfig {
        delay_ms: 0.0,
        health: HealthConfig {
            open_budget: 1,
            cooldown_steps: 2,
        },
    });
    let mut out = Vec::new();
    for (query, plan) in all_queries(engine.catalog()).expect("queries") {
        let Ok(optimized) = engine.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let Ok(reference) = run_under(&engine, &optimized, &FaultPlan::new(seed), &plain_opts)
        else {
            continue;
        };
        let Some(link) = busiest_link(&reference.metrics) else {
            continue;
        };
        let faults = FaultPlan::new(seed).with_degrade(
            link.0.clone(),
            link.1.clone(),
            factor,
            StepWindow::ALWAYS,
        );
        let run = match run_under(&engine, &optimized, &faults, &condemn_opts) {
            Ok(r) => r,
            Err(_) => continue,
        };
        out.push(CondemnCell {
            query,
            link: link.clone(),
            replans: run.replans,
            avoided: run.avoided_links.contains(&link),
            waived: run.waived_links.contains(&link),
            breaker_trips: run.breaker_trips,
            sites_excluded: run.excluded.len(),
            checkpoint_hits: run.checkpoint_hits,
            stitched: {
                let mut resumes = false;
                run.physical.visit(&mut |node| {
                    resumes |= matches!(node.op, PhysOp::ResumeScan { .. });
                });
                resumes
            },
            rows_match: multiset(&run.rows) == multiset(&reference.rows),
            audit_ok: engine.audit(&run.physical).is_ok(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: under a ≥2x degrade of its busiest link, the
    /// hedged run must complete faster than the unhedged run on at
    /// least 3 TPC-H queries, every run returning the fault-free rows
    /// under a Definition-1-clean plan.
    #[test]
    fn hedging_beats_the_degraded_baseline() {
        let cells = grayfail_matrix(2021, 6.0, 0.08);
        assert!(cells.len() >= 3, "too few measurable queries");
        let mut improved = 0;
        for c in &cells {
            assert!(c.rows_match, "{}: degraded run changed the answer", c.query);
            assert!(c.audit_ok, "{}: hedged plan failed audit", c.query);
            if c.hedges_won > 0 && c.hedged_ms < c.nohedge_ms {
                improved += 1;
            }
        }
        assert!(
            improved >= 3,
            "hedging must cut completion time on ≥3 queries; got {improved} of {:?}",
            cells
                .iter()
                .map(|c| (c.query, c.speedup(), c.hedges_won))
                .collect::<Vec<_>>()
        );
    }

    /// A one-trip breaker budget condemns the gray link: the engine
    /// re-plans around the *link* without excluding either endpoint
    /// site, and the result still audits clean.
    #[test]
    fn breaker_condemnation_replans_around_the_link() {
        let cells = condemnation_matrix(2021, 6.0);
        assert!(!cells.is_empty());
        let mut condemned = 0;
        for c in &cells {
            assert!(
                c.rows_match,
                "{}: condemned run changed the answer",
                c.query
            );
            assert!(c.audit_ok, "{}: re-planned plan failed audit", c.query);
            assert_eq!(
                c.sites_excluded, 0,
                "{}: a gray link must never exclude a site",
                c.query
            );
            assert!(
                c.avoided || c.waived,
                "{}: a tripped breaker must either detour around the link or \
                 explicitly waive the condemnation",
                c.query
            );
            if c.replans >= 1 && c.avoided {
                condemned += 1;
            }
        }
        assert!(
            condemned >= 1,
            "at least one query's breaker must condemn its gray link; cells: {:?}",
            cells
                .iter()
                .map(|c| (c.query, c.replans, c.breaker_trips))
                .collect::<Vec<_>>()
        );
    }

    /// A waived condemnation re-runs the plan that failed as it was:
    /// stitching it would renumber the edges' health lanes and send the
    /// final attempt out on cold ones.
    #[test]
    fn a_waived_condemnation_reruns_its_plan_unstitched() {
        let cells = condemnation_matrix(2021, 6.0);
        let q2 = cells.iter().find(|c| c.query == "Q2").expect("Q2 measured");
        assert!(q2.waived, "{q2:?}");
        assert_eq!(q2.checkpoint_hits, 0, "{q2:?}");
        assert!(!q2.stitched, "{q2:?}");
    }
}
