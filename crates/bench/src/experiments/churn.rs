//! Extension E12: live policy churn — mid-flight revocations against
//! queries pinned to a catalog sequence.
//!
//! Each cell of the grid runs one TPC-H query under a scripted catalog
//! log: the query is admitted pinned to log sequence 0 (the base
//! catalog), a revocation is already appended at sequence 1, and the
//! churn signal releases it at a chosen churn step. The runtime checks
//! every batch of the edge it ships `p`-th at churn step `p`, so a
//! revocation released at step `p` lets the first `p` edges drain, aborts
//! the next one before it ships, and re-plans under the new snapshot
//! (checkpoints of the drained edges restricted to the re-placed plan,
//! compliance re-verified); one released past the query's last edge
//! never bites. Cells where the shrunken policy set leaves no compliant
//! placement refuse typed; their counters are written `null`, because
//! the refusal carries none.
//!
//! The grant grid exercises the re-pin rule: the revocation releases at
//! step 0, and the *same* expression is re-granted at sequence 2,
//! released at a swept grant step. A revocation re-pins the query to the
//! head it can see at the abort step, so a grant released by then is
//! inside that head and the query re-plans once, straight onto it; a
//! grant released after the abort is not, and a query the revocation
//! alone refuses stays refused.
//!
//! Everything is simulated-clock and seed-driven: identically-seeded
//! runs serialize byte-identically.

use crate::experiments::setup::{multiset, EXEC_SF};
use geoqp_common::ChurnEvent;
use geoqp_core::{CatalogService, Engine, ExecOptions, OptimizerMode};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, NetworkTopology};
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use geoqp_tpch::queries::all_queries;
use std::sync::Arc;

/// Revocation-release steps of the grid: the number of edges the
/// runtime ships before the revocation becomes visible. The last value
/// is past any query's edge count — the control column where churn never
/// bites.
pub const REVOKE_STEPS: [u64; 5] = [0, 1, 2, 4, u64::MAX];

/// Grant-release steps of the grant grid: the churn step at which
/// the re-grant of the revoked expression becomes visible. The last
/// value lands after any abort, so no re-pin can see it — the control
/// column proving a re-pin reads only entries the query could have
/// seen.
pub const GRANT_STEPS: [u64; 5] = [0, 1, 2, 4, 1_000];

/// What happened to one (query, revocation-step) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOutcome {
    /// The revocation landed after the query's last transfer: finished
    /// under the admission pin, untouched.
    Finished,
    /// Caught in flight: re-planned under the new head the given
    /// number of times and completed.
    Replanned(u64),
    /// Degraded into a typed refusal of the given kind
    /// (`non-compliant`, …).
    Refused(String),
}

impl ChurnOutcome {
    /// Compact grid label.
    pub fn label(&self) -> String {
        match self {
            ChurnOutcome::Finished => "finished".into(),
            ChurnOutcome::Replanned(n) => format!("replanned×{n}"),
            ChurnOutcome::Refused(kind) => format!("refused:{kind}"),
        }
    }
}

/// One cell of the churn grid.
#[derive(Debug)]
pub struct ChurnCell {
    /// Query name.
    pub query: &'static str,
    /// Churn step the revocation was released at (`u64::MAX`: never).
    pub revoke_step: u64,
    /// The stable policy id revoked.
    pub revoked_pid: u64,
    /// What happened.
    pub outcome: ChurnOutcome,
    /// Total re-plans (site failures + churn; here churn only). Like
    /// every counter below, `None` for a refused cell: its error carries
    /// no counters, though it may have shipped edges and re-planned
    /// before the refusal.
    pub replans: Option<usize>,
    /// Bytes shipped across all attempts.
    pub total_bytes: Option<u64>,
    /// Bytes the fault-free, churn-free reference run shipped.
    pub reference_bytes: u64,
    /// Bytes re-shipped after the abort (checkpoint misses); the re-plan
    /// overhead the retained checkpoints are there to bound.
    pub recomputed_bytes: Option<u64>,
    /// Bytes served from retained checkpoints instead of re-shipping.
    pub resumed_bytes: Option<u64>,
    /// Whether the answer matched the reference multiset.
    pub rows_match: Option<bool>,
}

/// One cell of the grant grid: revocation at step 0, the same
/// expression re-granted at sequence 2 and released at `grant_step`.
#[derive(Debug)]
pub struct GrantCell {
    /// Query name.
    pub query: &'static str,
    /// Churn step the re-grant was released at.
    pub grant_step: u64,
    /// The stable policy id revoked (and whose expression was
    /// re-granted).
    pub revoked_pid: u64,
    /// What happened.
    pub outcome: ChurnOutcome,
    /// Whether the answer matched the reference multiset; `None` for a
    /// refused cell, which has no answer.
    pub rows_match: Option<bool>,
}

struct Fixture {
    catalog: Arc<geoqp_storage::Catalog>,
    engine: Engine,
}

fn fixture(seed: u64) -> Fixture {
    let catalog = Arc::new(geoqp_tpch::paper_catalog(EXEC_SF));
    geoqp_tpch::populate(&catalog, EXEC_SF, seed).expect("populate");
    let policies =
        generate_policies(&catalog, PolicyTemplate::CRA, 10, seed).expect("policy generation");
    let engine = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    Fixture { catalog, engine }
}

/// A catalog service whose log already holds the revocation of `pid`
/// at sequence 1, with the signal scripted to release it at `step`.
fn scripted_service(fx: &Fixture, pid: u64, step: u64) -> Arc<CatalogService> {
    let svc = CatalogService::new(&fx.engine);
    let rev = svc.revoke(pid).expect("revoking a live template pid");
    Arc::new(svc.with_planned(vec![ChurnEvent {
        step,
        seq: rev,
        revocation: true,
    }]))
}

/// The E12 grid: every TPC-H query × every revocation-release point,
/// revoking a different live policy per cell (cycling through the
/// template set in pid order).
pub fn churn_grid(seed: u64) -> Vec<ChurnCell> {
    let fx = fixture(seed);
    let sites = fx.catalog.locations().len();
    let retry = RetryPolicy::default();
    let probe = CatalogService::new(&fx.engine);
    let pids: Vec<u64> = probe.live_policies().iter().map(|(pid, _)| *pid).collect();
    assert!(!pids.is_empty(), "the template set registered no policies");
    let mut out = Vec::new();
    for (qi, (query, plan)) in all_queries(&fx.catalog)
        .expect("queries")
        .iter()
        .enumerate()
    {
        let Ok(optimized) = fx.engine.optimize(plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let Ok(reference) = fx.engine.run(
            &optimized,
            &ExecOptions::failover(&FaultPlan::new(seed), &retry, 0),
        ) else {
            continue;
        };
        let reference_rows = multiset(&reference.rows);
        let reference_bytes = reference.transfers.total_bytes();
        for (si, &step) in REVOKE_STEPS.iter().enumerate() {
            let pid = pids[(qi * REVOKE_STEPS.len() + si) % pids.len()];
            let svc = scripted_service(&fx, pid, step);
            let pin = 0;
            let faults = FaultPlan::new(seed);
            let opts =
                ExecOptions::failover(&faults, &retry, sites).with_churn(Arc::clone(&svc), pin);
            let cell = match fx.engine.run(&optimized, &opts) {
                Ok(res) => ChurnCell {
                    query,
                    revoke_step: step,
                    revoked_pid: pid,
                    outcome: if res.churn_replans == 0 {
                        ChurnOutcome::Finished
                    } else {
                        ChurnOutcome::Replanned(res.churn_replans)
                    },
                    replans: Some(res.replans),
                    total_bytes: Some(res.transfers.total_bytes()),
                    reference_bytes,
                    recomputed_bytes: Some(res.recomputed_bytes),
                    resumed_bytes: Some(res.resumed_bytes),
                    rows_match: Some(multiset(&res.rows) == reference_rows),
                },
                Err(e) => ChurnCell {
                    query,
                    revoke_step: step,
                    revoked_pid: pid,
                    outcome: ChurnOutcome::Refused(e.kind().to_string()),
                    replans: None,
                    total_bytes: None,
                    reference_bytes,
                    recomputed_bytes: None,
                    resumed_bytes: None,
                    rows_match: None,
                },
            };
            out.push(cell);
        }
    }
    out
}

/// The grant grid: every TPC-H query × every grant-release step. Each
/// cell's scripted log holds the revocation of a live pid at sequence 1
/// (released at churn step 0) and a re-grant of the *same*
/// expression at sequence 2 (released at the swept grant step), so
/// whether the re-pin at the abort can see the grant decides the
/// query's fate.
pub fn grant_grid(seed: u64) -> Vec<GrantCell> {
    let fx = fixture(seed);
    let sites = fx.catalog.locations().len();
    let retry = RetryPolicy::default();
    let probe = CatalogService::new(&fx.engine);
    let live = probe.live_policies();
    assert!(!live.is_empty(), "the template set registered no policies");
    let mut out = Vec::new();
    for (qi, (query, plan)) in all_queries(&fx.catalog)
        .expect("queries")
        .iter()
        .enumerate()
    {
        let Ok(optimized) = fx.engine.optimize(plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let Ok(reference) = fx.engine.run(
            &optimized,
            &ExecOptions::failover(&FaultPlan::new(seed), &retry, 0),
        ) else {
            continue;
        };
        let reference_rows = multiset(&reference.rows);
        for (si, &grant_step) in GRANT_STEPS.iter().enumerate() {
            let (pid, display) = &live[(qi * GRANT_STEPS.len() + si) % live.len()];
            let svc = CatalogService::new(&fx.engine);
            let pin = svc.head();
            let rev = svc.revoke(*pid).expect("revoking a live template pid");
            let regrant = geoqp_parser::parse_policy(display).expect("live display forms re-parse");
            let re = svc
                .grant(regrant)
                .expect("re-granting the revoked expression");
            let svc = Arc::new(svc.with_planned(vec![
                ChurnEvent {
                    step: 0,
                    seq: rev,
                    revocation: true,
                },
                ChurnEvent {
                    step: grant_step,
                    seq: re,
                    revocation: false,
                },
            ]));
            let faults = FaultPlan::new(seed);
            let opts =
                ExecOptions::failover(&faults, &retry, sites).with_churn(Arc::clone(&svc), pin);
            let cell = match fx.engine.run(&optimized, &opts) {
                Ok(res) => GrantCell {
                    query,
                    grant_step,
                    revoked_pid: *pid,
                    outcome: if res.churn_replans == 0 {
                        ChurnOutcome::Finished
                    } else {
                        ChurnOutcome::Replanned(res.churn_replans)
                    },
                    rows_match: Some(multiset(&res.rows) == reference_rows),
                },
                Err(e) => GrantCell {
                    query,
                    grant_step,
                    revoked_pid: *pid,
                    outcome: ChurnOutcome::Refused(e.kind().to_string()),
                    rows_match: None,
                },
            };
            out.push(cell);
        }
    }
    out
}

/// Per-outcome counts plus the re-plan byte overhead across a grid.
#[derive(Debug, Default)]
pub struct ChurnSummary {
    /// Cells that finished under their admission pin.
    pub finished: u64,
    /// Cells that re-planned under a new head and completed.
    pub replanned: u64,
    /// Cells refused `non-compliant`.
    pub refused_non_compliant: u64,
    /// Cells refused with any other typed kind.
    pub refused_other: u64,
    /// Re-shipped bytes across all re-planned cells.
    pub recomputed_bytes: u64,
    /// Checkpoint-resumed bytes across all re-planned cells.
    pub resumed_bytes: u64,
    /// Reference (churn-free) bytes of the re-planned cells.
    pub replanned_reference_bytes: u64,
}

impl ChurnSummary {
    /// Bytes re-shipped by churn re-plans as a fraction of what the
    /// affected queries ship churn-free.
    pub fn replan_byte_overhead(&self) -> f64 {
        if self.replanned_reference_bytes == 0 {
            0.0
        } else {
            self.recomputed_bytes as f64 / self.replanned_reference_bytes as f64
        }
    }

    fn count(&mut self, outcome: &ChurnOutcome) {
        match outcome {
            ChurnOutcome::Finished => self.finished += 1,
            ChurnOutcome::Replanned(_) => self.replanned += 1,
            ChurnOutcome::Refused(kind) => match kind.as_str() {
                "non-compliant" => self.refused_non_compliant += 1,
                _ => self.refused_other += 1,
            },
        }
    }
}

/// Tally a grid and a grant grid into one summary.
pub fn summarize(grid: &[ChurnCell], grants: &[GrantCell]) -> ChurnSummary {
    let mut s = ChurnSummary::default();
    for c in grid {
        s.count(&c.outcome);
        if matches!(c.outcome, ChurnOutcome::Replanned(_)) {
            s.recomputed_bytes += c.recomputed_bytes.unwrap_or(0);
            s.resumed_bytes += c.resumed_bytes.unwrap_or(0);
            s.replanned_reference_bytes += c.reference_bytes;
        }
    }
    for c in grants {
        s.count(&c.outcome);
    }
    s
}

/// A JSON value, or `null` for a field the cell could not observe.
fn json_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Serialize the two grids and their summary as deterministic JSON (no
/// wall-clock anywhere: same seed, same bytes).
pub fn to_json(grid: &[ChurnCell], grants: &[GrantCell], seed: u64) -> String {
    let summary = summarize(grid, grants);
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"churn\",\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"scale_factor\": {EXEC_SF},\n"));
    s.push_str("  \"grid\": [\n");
    for (i, c) in grid.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"query\": \"{}\", ", c.query));
        s.push_str(&format!("\"revoke_step\": {}, ", c.revoke_step));
        s.push_str(&format!("\"revoked_pid\": {}, ", c.revoked_pid));
        s.push_str(&format!("\"outcome\": \"{}\", ", c.outcome.label()));
        s.push_str(&format!("\"replans\": {}, ", json_opt(c.replans)));
        s.push_str(&format!("\"total_bytes\": {}, ", json_opt(c.total_bytes)));
        s.push_str(&format!("\"reference_bytes\": {}, ", c.reference_bytes));
        s.push_str(&format!(
            "\"recomputed_bytes\": {}, ",
            json_opt(c.recomputed_bytes)
        ));
        s.push_str(&format!(
            "\"resumed_bytes\": {}, ",
            json_opt(c.resumed_bytes)
        ));
        s.push_str(&format!("\"rows_match\": {}", json_opt(c.rows_match)));
        s.push('}');
        if i + 1 < grid.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str("  \"grants\": [\n");
    for (i, c) in grants.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"query\": \"{}\", ", c.query));
        s.push_str(&format!("\"grant_step\": {}, ", c.grant_step));
        s.push_str(&format!("\"revoked_pid\": {}, ", c.revoked_pid));
        s.push_str(&format!("\"outcome\": \"{}\", ", c.outcome.label()));
        s.push_str(&format!("\"rows_match\": {}", json_opt(c.rows_match)));
        s.push('}');
        if i + 1 < grants.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str("  \"summary\": {\n");
    s.push_str(&format!("    \"finished\": {},\n", summary.finished));
    s.push_str(&format!("    \"replanned\": {},\n", summary.replanned));
    s.push_str(&format!(
        "    \"refused_non_compliant\": {},\n",
        summary.refused_non_compliant
    ));
    s.push_str(&format!(
        "    \"refused_other\": {},\n",
        summary.refused_other
    ));
    s.push_str(&format!(
        "    \"recomputed_bytes\": {},\n",
        summary.recomputed_bytes
    ));
    s.push_str(&format!(
        "    \"resumed_bytes\": {},\n",
        summary.resumed_bytes
    ));
    s.push_str(&format!(
        "    \"replan_byte_overhead\": {:.4}\n",
        summary.replan_byte_overhead()
    ));
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_grid_resolves_every_cell_typed_and_deterministically() {
        let grid = churn_grid(2021);
        assert!(!grid.is_empty());
        // Every cell is one of the three typed outcomes; completed cells
        // answer exactly what the churn-free reference answered.
        let mut replanned = 0;
        let mut finished_control = 0;
        for c in &grid {
            assert_ne!(
                c.rows_match,
                Some(false),
                "{} @ step {}: answer changed",
                c.query,
                c.revoke_step
            );
            match &c.outcome {
                ChurnOutcome::Replanned(n) => {
                    assert!(*n >= 1);
                    replanned += 1;
                }
                ChurnOutcome::Finished if c.revoke_step == u64::MAX => finished_control += 1,
                _ => {}
            }
        }
        assert!(
            replanned >= 1,
            "no revocation ever caught a query in flight: {:?}",
            grid.iter().map(|c| c.outcome.label()).collect::<Vec<_>>()
        );
        assert!(
            finished_control >= 1,
            "the past-the-end control step must leave some query untouched"
        );
        // A late revocation finds the edges shipped before it drained:
        // re-plans stitch most of the reference traffic from checkpoints.
        let mostly_resumed = grid
            .iter()
            .filter(|c| matches!(c.outcome, ChurnOutcome::Replanned(_)))
            .filter(|c| 2 * c.resumed_bytes.unwrap_or(0) >= c.reference_bytes)
            .count();
        assert!(
            mostly_resumed >= 3,
            "only {mostly_resumed} re-planned cells resume half their reference bytes"
        );
        // Identically-seeded runs serialize byte-identically.
        assert_eq!(
            to_json(&grid, &grant_grid(2021), 2021),
            to_json(&churn_grid(2021), &grant_grid(2021), 2021)
        );
    }

    #[test]
    fn a_revocation_repins_onto_a_grant_it_can_see() {
        let grants = grant_grid(2021);
        assert!(!grants.is_empty());
        let mut refused_control = 0;
        for c in &grants {
            // A grant released with the revocation is inside the head the
            // revocation re-pins to: every such query completes with the
            // churn-free answer.
            if c.grant_step == 0 {
                assert_eq!(
                    c.rows_match,
                    Some(true),
                    "{} @ grant step 0: {}",
                    c.query,
                    c.outcome.label()
                );
            }
            // A grant released after any abort is invisible to the
            // re-pin: the control column shows the revocation alone.
            if c.grant_step == 1_000 && matches!(c.outcome, ChurnOutcome::Refused(_)) {
                refused_control += 1;
            }
        }
        assert!(
            refused_control >= 1,
            "the control column must show what the revocation alone refuses: {:?}",
            grants.iter().map(|c| c.outcome.label()).collect::<Vec<_>>()
        );
    }
}
