//! Differential checkpoint/resume failover tests.
//!
//! For every TPC-H query and a grid of crash steps spanning the whole
//! run — positions in the order the runtime ships edges — a site is
//! crashed permanently from that step on and the identical
//! fault schedule is recovered twice: once from scratch (re-planning
//! only) and once resuming from checkpoints. Resume must be invisible
//! except in the traffic: the same row multiset, the same number of
//! re-plans, and recovery bytes no worse than scratch. Where scratch
//! recovery is impossible but resume succeeds, the resumed answer must
//! equal the fault-free reference and its plan must pass the
//! Definition-1 audit.
//!
//! The engine is one more input: every cell runs on the row and the
//! columnar engine, and the two must resume alike — a checkpoint is the
//! same batch whichever engine delivered it.

use geoqp::plan::PhysicalPlan;
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.001;
const SEED: u64 = 2021;
const QUERIES: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];
const SITES: [&str; 5] = ["L1", "L2", "L3", "L4", "L5"];

fn engine(template: PolicyTemplate) -> Engine {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, template, 10, SEED).unwrap();
    Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan())
}

/// The engines a grid cell runs on, by `RuntimeConfig::columnar`: the
/// row engine first, the columnar second.
const ENGINES: [bool; 2] = [false, true];

fn on_engine(opts: ExecOptions<'_>, columnar: bool) -> ExecOptions<'_> {
    let runtime = RuntimeConfig {
        columnar,
        ..RuntimeConfig::default()
    };
    ExecOptions { runtime, ..opts }
}

/// Rows in a canonical order: semantically equal results from
/// differently-placed plans compare as multisets.
fn multiset(rows: &Rows) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// The row and the columnar engine resumed one cell:
/// the same outcome kind, rows, checkpoint traffic, re-plans and log.
/// Returns whether the cell was served from a checkpoint at all.
fn assert_engines_agree(
    cell: &str,
    row: &Result<QueryOutcome>,
    col: &Result<QueryOutcome>,
) -> bool {
    match (row, col) {
        (Ok(r), Ok(c)) => {
            assert_eq!(multiset(&r.rows), multiset(&c.rows), "{cell}: rows");
            assert_eq!(
                (r.resumed_bytes, r.recomputed_bytes, r.replans),
                (c.resumed_bytes, c.recomputed_bytes, c.replans),
                "{cell}: (resumed bytes, recomputed bytes, re-plans)"
            );
            assert_eq!(r.transfers, c.transfers, "{cell}: transfer log");
            r.resumed_bytes > 0
        }
        (Err(r), Err(c)) => {
            assert_eq!(r.kind(), c.kind(), "{cell}: {r} vs {c}");
            false
        }
        (r, c) => panic!(
            "{cell}: row engine {:?}, columnar {:?}",
            r.is_ok(),
            c.is_ok()
        ),
    }
}

/// A crash of `site` that fails the first attempt of every edge the
/// runtime ships from walk position `from` on, and each such edge's
/// retries for `horizon` rows of the plan's fault-step grid (`u64::MAX`
/// = permanently). The edges shipped before `from` are left alone.
fn crash_from(plan: &PhysicalPlan, site: &Location, from: usize, horizon: u64) -> FaultPlan {
    let cut = geoqp::runtime::cut(plan).unwrap();
    let width = cut.n_slots();
    let late = cut.walk[from..]
        .iter()
        .map(|&id| StepWindow::new(id as u64, id as u64 + 1));
    let retries = StepWindow::new(width, width.saturating_add(horizon.saturating_mul(width)));
    (late.chain([retries])).fold(FaultPlan::new(SEED), |f, w| f.with_crash(site.clone(), w))
}

/// The grid: for each query, crash each site at each of four steps
/// spread over the edges the runtime ships, for `horizon` rows of the
/// grid, and compare scratch failover against checkpoint/resume failover
/// on the identical schedule, on both engines, which must resume alike.
/// Returns
fn differential_grid(template: PolicyTemplate, horizon: u64) -> (usize, usize, usize, usize) {
    let eng = engine(template);
    let retry = RetryPolicy::default();
    let (mut both_ok, mut resume_only, mut both_err) = (0usize, 0usize, 0usize);
    let mut resumed_alike = 0;
    for query in QUERIES {
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let probe = FaultPlan::new(SEED);
        let reference = eng
            .run(&opt, &ExecOptions::failover(&probe, &retry, 0))
            .expect("fault-free probe");
        let edges = geoqp::runtime::cut(&opt.physical).unwrap().edges.len();
        let mut steps = vec![0, edges / 4, edges / 2, 3 * edges / 4];
        steps.dedup();
        for site in SITES {
            let dead = Location::new(site);
            if dead == opt.result_location {
                continue;
            }
            for &crash_step in &steps {
                let crash = || crash_from(&opt.physical, &dead, crash_step, horizon);
                let mut resumed_on: Vec<Result<QueryOutcome>> = Vec::new();
                for engine in ENGINES {
                    let cell = format!("{query}/{site}@{crash_step} columnar={engine}");
                    let (resumed_faults, scratch_faults) = (crash(), crash());
                    let resumed = eng.run(
                        &opt,
                        &on_engine(
                            ExecOptions::failover(&resumed_faults, &retry, SITES.len()),
                            engine,
                        ),
                    );
                    let scratch = eng.run(
                        &opt,
                        &on_engine(
                            ExecOptions {
                                resume: false,
                                ..ExecOptions::failover(&scratch_faults, &retry, SITES.len())
                            },
                            engine,
                        ),
                    );
                    match (&resumed, &scratch) {
                        (Ok(r), Ok(s)) => {
                            both_ok += 1;
                            assert_eq!(
                                multiset(&r.rows),
                                multiset(&s.rows),
                                "{cell}: resume changed the answer"
                            );
                            assert_eq!(
                                multiset(&r.rows),
                                multiset(&reference.rows),
                                "{cell}: failover changed the answer"
                            );
                            // The byte/replan comparison is exact only for
                            // a permanent crash, where both modes walk the
                            // same failover rounds; a bounded outage lets
                            // the two step schedules drift.
                            if horizon == u64::MAX {
                                assert_eq!(
                                    r.replans, s.replans,
                                    "{cell}: resume changed the replan count"
                                );
                                assert!(
                                    r.recomputed_bytes <= s.recomputed_bytes,
                                    "{cell}: resume recovery shipped {} bytes, scratch only {}",
                                    r.recomputed_bytes,
                                    s.recomputed_bytes
                                );
                                assert!(
                                    r.transfers.total_bytes() <= s.transfers.total_bytes(),
                                    "{cell}: resume shipped more in total"
                                );
                            }
                            eng.audit(&r.physical)
                                .expect("resumed placement must pass the Definition-1 audit");
                        }
                        (Ok(r), Err(_)) => {
                            // Resume is strictly more available than
                            // scratch: checkpoints can rescue crashes of
                            // base-table sites that no re-placement
                            // survives.
                            resume_only += 1;
                            assert_eq!(
                                multiset(&r.rows),
                                multiset(&reference.rows),
                                "{cell}: resume-only recovery changed the answer"
                            );
                            eng.audit(&r.physical)
                                .expect("resumed placement must pass the Definition-1 audit");
                        }
                        (Err(r), scratch) => {
                            both_err += 1;
                            assert!(
                                matches!(r.kind(), "rejected" | "unavailable"),
                                "{cell}: untyped resume failure {r}"
                            );
                            // Under a *permanent* crash, scratch must never
                            // out-recover resume. (A bounded outage can
                            // fall either way: the stitched plan has a
                            // different fault-step grid, so the two modes
                            // reach the dead site at different steps.)
                            assert!(
                                horizon != u64::MAX || scratch.is_err(),
                                "{cell}: scratch recovered where resume failed"
                            );
                        }
                    }
                    resumed_on.push(resumed);
                }
                // `ENGINES` runs row, then columnar.
                let cell = format!("{query}/{site}@{crash_step}");
                if assert_engines_agree(&cell, &resumed_on[0], &resumed_on[1]) {
                    resumed_alike += 1;
                }
            }
        }
    }
    (both_ok, resume_only, both_err, resumed_alike)
}

/// The full permanent-crash grid under the paper's most restrictive
/// policies: every outcome class must actually occur, or the comparison
/// is vacuous.
#[test]
fn resume_and_scratch_agree_on_the_crash_grid_cra() {
    let (both_ok, _resume_only, both_err, resumes) =
        differential_grid(PolicyTemplate::CRA, u64::MAX);
    assert!(
        resumes >= 1,
        "expected the two engines to be compared on a resumed run"
    );
    assert!(
        both_ok >= 3,
        "expected ≥3 grid cells where both recovery modes complete, got {both_ok}"
    );
    assert!(
        both_err >= 3,
        "expected ≥3 grid cells where both modes refuse, got {both_err}"
    );
}

/// The same grid under column-only policies with *bounded* outages:
/// resume's extra availability — riding out a blackout of a base-table
/// site from checkpoints, where re-placement alone is impossible — must
/// actually show up.
#[test]
fn resume_out_recovers_scratch_on_the_crash_grid_c() {
    let mut both_ok = 0;
    let mut resume_only = 0;
    let mut resumes = 0;
    for horizon in [1, 2, 4] {
        let (ok, ro, _, resumed) = differential_grid(PolicyTemplate::C, horizon);
        both_ok += ok;
        resume_only += ro;
        resumes += resumed;
    }
    assert!(
        resumes >= 1,
        "expected the two engines to be compared on a resumed run"
    );
    assert!(
        both_ok >= 3,
        "expected ≥3 grid cells where both recovery modes complete, got {both_ok}"
    );
    assert!(
        resume_only >= 1,
        "expected ≥1 grid cell recoverable only with checkpoints, got {resume_only}"
    );
}
