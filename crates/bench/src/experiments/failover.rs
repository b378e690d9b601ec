//! Failover experiment: each TPC-H query executed under the permanent
//! crash of each site in turn.
//!
//! For every (query, crashed site) pair the engine runs
//! [`Engine::run`] with a failover budget: the crash surfaces as a typed
//! `SiteUnavailable`, Algorithm 2 re-runs with the dead site excluded
//! from every execution trait, and the new placement is re-verified
//! against Definition 1 before execution resumes. The matrix reports,
//! per cell, whether the query completed (and after how many re-plans)
//! or degraded into a typed rejection — never a silent non-compliant
//! answer.

use crate::experiments::setup::{engine_with_policies, multiset, EXEC_SF};
use geoqp_common::Location;
use geoqp_core::{Engine, ExecOptions, OptimizerMode};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, StepWindow};
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

/// What happened to one (query, crashed site) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The crash never bit: the plan did not touch the dead site.
    Unaffected,
    /// Completed after the given number of compliant re-plans (≥ 1).
    FailedOver(usize),
    /// Degraded into a typed error of the given kind (`rejected`,
    /// `unavailable`, …) — the compliant refusal path.
    TypedError(String),
}

impl Outcome {
    /// Compact matrix label.
    pub fn label(&self) -> String {
        match self {
            Outcome::Unaffected => "ok".into(),
            Outcome::FailedOver(n) => format!("failover×{n}"),
            Outcome::TypedError(kind) => format!("err:{kind}"),
        }
    }
}

/// One cell of the crash matrix.
#[derive(Debug)]
pub struct FailoverCell {
    /// Query name.
    pub query: &'static str,
    /// The site crashed for this run.
    pub crashed: Location,
    /// What happened.
    pub outcome: Outcome,
    /// Fault events the network simulator recorded along the way.
    pub faults: usize,
}

/// Run one query under one permanently crashed site.
pub fn crash_one(
    engine: &Engine,
    optimized: &geoqp_core::OptimizedQuery,
    site: &Location,
    max_replans: usize,
) -> (Outcome, usize) {
    let faults = FaultPlan::new(0).with_crash(site.clone(), StepWindow::ALWAYS);
    match engine.run(
        optimized,
        &ExecOptions::failover(&faults, &RetryPolicy::default(), max_replans),
    ) {
        Ok(res) => {
            let outcome = if res.replans == 0 {
                Outcome::Unaffected
            } else {
                Outcome::FailedOver(res.replans)
            };
            (outcome, res.transfers.fault_count())
        }
        Err(e) => (Outcome::TypedError(e.kind().to_string()), 0),
    }
}

/// The full matrix: all six TPC-H queries × every site of the paper's
/// deployment, each under a permanent single-site crash.
pub fn crash_matrix(seed: u64) -> Vec<FailoverCell> {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(EXEC_SF));
    geoqp_tpch::populate(&catalog, EXEC_SF, seed).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, seed).expect("policy generation");
    let engine = engine_with_policies(Arc::clone(&catalog), policies);
    let sites: Vec<Location> = catalog.locations().iter().cloned().collect();
    let mut out = Vec::new();
    for (query, plan) in all_queries(&catalog).expect("queries") {
        let optimized = match engine.optimize(&plan, OptimizerMode::Compliant, None) {
            Ok(o) => o,
            Err(e) => {
                // Rejected before any fault: one row records it.
                out.push(FailoverCell {
                    query,
                    crashed: Location::new("-"),
                    outcome: Outcome::TypedError(e.kind().to_string()),
                    faults: 0,
                });
                continue;
            }
        };
        for site in &sites {
            let (outcome, faults) = crash_one(&engine, &optimized, site, sites.len());
            out.push(FailoverCell {
                query,
                crashed: site.clone(),
                outcome,
                faults,
            });
        }
    }
    out
}

/// One row of the checkpoint/resume recovery comparison: the same
/// late crash recovered from scratch vs resumed from checkpoints.
#[derive(Debug)]
pub struct ResumeCell {
    /// Query name.
    pub query: &'static str,
    /// The site crashed for this run.
    pub crashed: Location,
    /// Walk step the crash begins at: the edges the runtime ships from
    /// this position on (the final third of the run) fail.
    pub crash_step: u64,
    /// Length of the outage in rows of the fault-step grid: a failed
    /// edge's retries fail for this many further attempts.
    pub crash_window: u64,
    /// Bytes to recover without checkpoints: the post-failure traffic of
    /// a scratch failover when one exists, else the full traffic of
    /// re-running the query (the dead site hosts a base table, so the
    /// compliant refusal is correct and a complete re-run is the only
    /// checkpoint-free recovery).
    pub scratch_recovery_bytes: u64,
    /// Whether a scratch failover existed at all (`false` means the
    /// scratch cost above is a full re-run).
    pub scratch_replanned: bool,
    /// Bytes shipped after the first failure, resuming from checkpoints.
    pub resume_recovery_bytes: u64,
    /// SHIP edges the stitched re-plan served from checkpoints.
    pub checkpoint_hits: u64,
    /// Re-plans in each mode (they agree: resume changes bytes, not the
    /// failover decisions).
    pub replans: usize,
    /// Scratch recovery took the same number of re-plans (vacuously true
    /// when no scratch failover exists).
    pub replans_match: bool,
    /// The resumed run matched the fault-free reference row multiset
    /// (and the scratch failover's, when one exists).
    pub rows_match: bool,
    /// The stitched resume plan passed the Definition-1 checker.
    pub audit_ok: bool,
}

impl ResumeCell {
    /// Resume recovery traffic as a fraction of scratch recovery traffic.
    pub fn recovery_ratio(&self) -> f64 {
        if self.scratch_recovery_bytes == 0 {
            1.0
        } else {
            self.resume_recovery_bytes as f64 / self.scratch_recovery_bytes as f64
        }
    }
}

/// Late-crash recovery comparison across the TPC-H queries: for each
/// query, a site outage is injected for the final third of the edges the
/// runtime ships (a bounded outage, grown until the crash actually bites
/// an in-flight operation), and the same schedule is recovered twice —
/// once without checkpoints and once with checkpoint/resume — comparing
/// recovery traffic.
pub fn resume_matrix(seed: u64) -> Vec<ResumeCell> {
    // The column-restriction template: restrictive enough that compliance
    // is audited everywhere, permissive enough that the sites doing late
    // (post-join, pre-result) work have compliant alternates — which is
    // what makes a *late* crash both bite and be recoverable.
    let catalog = Arc::new(geoqp_tpch::paper_catalog(EXEC_SF));
    geoqp_tpch::populate(&catalog, EXEC_SF, seed).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::C, 10, seed).expect("policy generation");
    let engine = engine_with_policies(Arc::clone(&catalog), policies);
    let sites: Vec<Location> = catalog.locations().iter().cloned().collect();
    let retry = RetryPolicy::default();
    let mut out = Vec::new();
    for (query, plan) in all_queries(&catalog).expect("queries") {
        let Ok(optimized) = engine.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        // Fault-free run: reference rows. The crash is pinned to the
        // final third of the run's edges.
        let probe = FaultPlan::new(seed);
        let Ok(reference) = engine.run(&optimized, &ExecOptions::failover(&probe, &retry, 0))
        else {
            continue;
        };
        let cut = geoqp_runtime::cut(&optimized.physical).expect("an optimized plan is a tree");
        let (width, crash_step) = (cut.n_slots(), cut.edges.len() * 2 / 3);
        'sites: for site in &sites {
            if *site == optimized.result_location {
                continue;
            }
            // Grow the outage window, in rows of the grid, until the crash
            // bites something the site had in flight *and* the resumed
            // retry clears it: too short and every attempt's retry rides
            // it out; too long and even the stitched retry re-fails
            // inside it.
            let mut found = None;
            for window in [1u64, 2, 4, 8, 16] {
                // The edges shipped from `crash_step` on fail their first
                // attempt; every retry fails for `window` rows.
                let crash = || {
                    let late = cut.walk[crash_step..].iter().map(|&id| id as u64);
                    let late = late.map(|s| StepWindow::new(s, s + 1));
                    let retries = StepWindow::new(width, width + window * width);
                    (late.chain([retries]))
                        .fold(FaultPlan::new(seed), |f, w| f.with_crash(site.clone(), w))
                };
                let faults = crash();
                let Ok(resumed) = engine.run(
                    &optimized,
                    &ExecOptions::failover(&faults, &retry, sites.len()),
                ) else {
                    continue;
                };
                // Only cells where the crash actually bit and a checkpoint
                // survived to be resumed are comparable.
                if resumed.replans == 0 || resumed.checkpoint_hits == 0 {
                    continue;
                }
                found = Some((window, crash(), resumed));
                break;
            }
            let Some((window, scratch_faults, resumed)) = found else {
                continue 'sites;
            };
            let scratch_opts = ExecOptions {
                resume: false,
                ..ExecOptions::failover(&scratch_faults, &retry, sites.len())
            };
            let scratch = engine.run(&optimized, &scratch_opts);
            let (scratch_recovery_bytes, scratch_replanned, scratch_agrees, replans_match) =
                match &scratch {
                    Ok(s) => (
                        s.recomputed_bytes,
                        true,
                        multiset(&s.rows) == multiset(&reference.rows),
                        s.replans == resumed.replans,
                    ),
                    // Without checkpoints the dead site's base tables are
                    // unreachable, so the typed refusal is the correct
                    // scratch behaviour; the only checkpoint-free recovery
                    // is re-running the whole query, whose full traffic is
                    // the scratch cost.
                    Err(_) => (reference.transfers.total_bytes(), false, true, true),
                };
            out.push(ResumeCell {
                query,
                crashed: site.clone(),
                crash_step: crash_step as u64,
                crash_window: window,
                scratch_recovery_bytes,
                scratch_replanned,
                resume_recovery_bytes: resumed.recomputed_bytes,
                checkpoint_hits: resumed.checkpoint_hits,
                replans: resumed.replans,
                replans_match,
                rows_match: scratch_agrees && multiset(&resumed.rows) == multiset(&reference.rows),
                audit_ok: engine.audit(&resumed.physical).is_ok(),
            });
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_recovers_cheaper_than_scratch() {
        let cells = resume_matrix(2021);
        assert!(
            cells.len() >= 3,
            "late-crash resume must be measurable on at least 3 queries, got {}",
            cells.len()
        );
        let mut cheaper = 0;
        for c in &cells {
            assert!(c.rows_match, "{}: resume changed the answer", c.query);
            assert!(c.audit_ok, "{}: stitched plan failed audit", c.query);
            assert!(c.replans_match, "{}: resume changed replan count", c.query);
            assert!(c.checkpoint_hits >= 1);
            if c.recovery_ratio() < 0.5 {
                cheaper += 1;
            }
        }
        assert!(
            cheaper >= 3,
            "resume must re-ship <50% of scratch recovery bytes on ≥3 queries; \
             ratios: {:?}",
            cells
                .iter()
                .map(|c| (c.query, c.recovery_ratio()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_matrix_covers_every_query_site_pair() {
        let cells = crash_matrix(2021);
        assert!(!cells.is_empty());
        // Every cell either completed (possibly after failover) or
        // failed with a typed error — the matrix has no other states,
        // and a failover cell must have seen at least one fault event.
        for cell in &cells {
            if let Outcome::FailedOver(n) = cell.outcome {
                assert!(n >= 1);
                assert!(
                    cell.faults >= 1,
                    "{} under crash of {} failed over without a recorded fault",
                    cell.query,
                    cell.crashed
                );
            }
        }
        // The crash must actually bite somewhere: at least one cell
        // either failed over or degraded into a typed error.
        assert!(
            cells
                .iter()
                .any(|c| !matches!(c.outcome, Outcome::Unaffected)),
            "no crash had any effect — the fault plan is not being consulted"
        );
    }
}
