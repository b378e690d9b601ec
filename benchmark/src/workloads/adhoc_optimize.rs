//! `adhoc_optimize`: SQL text → located compliant plan, nothing executed.
//!
//! SF 10 statistics (no rows), CR+A with 50 expressions, seeded 2–5-way
//! join SQL texts; the timed op is `parse_query` → `lower_query` →
//! `Engine::optimize(Compliant)` on one thread, starting from a cold
//! implication memo. Every emitted plan is audited against Definition 1
//! (Theorem 1) outside the timed span.
//!
//! The policy set is part of the deployment and does not change with
//! `--seed` (one filler grant can halve every plan's shipping cost, so a
//! seeded set made `ship_cost_ms_per_op` a property of the seed); the
//! seed drives the SQL texts.

use super::Cfg;
use crate::metrics::Report;
use crate::stats::{mean, median, peak_rss_mb, percentile, ratio, slice_throughput};
use crate::sut::{AdhocSql, Dataset, Deployment, Located, PolicySet, Res, Template};
use crate::trace::Tracer;
use std::time::Instant;

pub const SF: f64 = 10.0;
const EXPRESSIONS: usize = 50;
const POLICY_SEED: u64 = 2021;
/// SQL texts generated in set-up; the measuring phase runs a prefix.
const SQL_TEXTS: usize = 30_000;
/// Ops per throughput slice.
const SLICE: usize = 500;
/// Traced replay: SQL texts per second of `--seconds`.
const TRACED_PER_SECOND: f64 = 300.0;
/// Queries whose implication questions are timed one by one.
const IMPLIES_SAMPLE: usize = 1000;

struct Ready {
    data: Dataset,
    policies: PolicySet,
    sql: Vec<AdhocSql>,
}

impl Ready {
    /// A fresh engine: cold implication memo.
    fn deployment(&self) -> Deployment {
        Deployment::new(&self.data, &self.policies)
    }
}

fn set_up(cfg: &Cfg) -> Res<Ready> {
    let n = if cfg.smoke { SQL_TEXTS / 50 } else { SQL_TEXTS };
    let data = Dataset::stats_only(SF);
    let policies = data.policies(Template::CRA, EXPRESSIONS, POLICY_SEED)?;
    let sql = data.adhoc(n, cfg.seed)?;
    Ok(Ready {
        data,
        policies,
        sql,
    })
}

/// The timed op.
fn sql_to_plan(dep: &Deployment, sql: &str) -> Res<Located> {
    let ast = dep.parse(sql)?;
    let logical = dep.lower(&ast)?;
    dep.optimize(&logical, true)
}

pub fn run(cfg: &Cfg) -> Res<Report> {
    let mut report = Report::default();
    let (ready, setup_s) = cfg.set_up(|| set_up(cfg))?;
    let dep = ready.deployment();

    let mut latency_ms = Vec::new();
    let mut cost_ms = Vec::new();
    let mut slices = Vec::new();
    let mut slice_s = 0.0;
    let phase = Instant::now();
    for q in &ready.sql {
        if phase.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        report.attempted += 1;
        let t = Instant::now();
        let out = sql_to_plan(&dep, &q.sql);
        let s = t.elapsed().as_secs_f64();
        match out {
            Ok(plan) if dep.audit(&plan.physical()).is_ok() => {
                cost_ms.push(plan.stats().est_ship_cost_ms);
            }
            _ => report.failed += 1,
        }
        latency_ms.push(s * 1e3);
        slice_s += s;
        if latency_ms.len() % SLICE == 0 {
            slices.push((SLICE, slice_s));
            slice_s = 0.0;
        }
    }
    if slices.is_empty() {
        slices.push((latency_ms.len(), slice_s));
    }

    report.set("setup_s", setup_s);
    report.set("ops_per_s", slice_throughput(&slices));
    report.set("latency_ms_p50", median(&latency_ms));
    report.set("latency_ms_p95", percentile(&latency_ms, 0.95));
    report.set("ship_cost_ms_per_op", mean(&cost_ms));
    report.set("peak_rss_mb", peak_rss_mb());
    report.note("scale_factor", SF);
    report.note("expressions", EXPRESSIONS);
    report.note("sql_texts", ready.sql.len());
    report.note("latency_samples", latency_ms.len());
    Ok(report)
}

pub fn run_traced(cfg: &Cfg) -> Res<Report> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);

    let t = Instant::now();
    let data = Dataset::stats_only(SF);
    let policies = data.policies(Template::CRA, EXPRESSIONS, POLICY_SEED)?;
    report.set("tpch.generate_policies_s", t.elapsed().as_secs_f64());
    let n = ((cfg.seconds * TRACED_PER_SECOND) as usize).max(20);
    let t = Instant::now();
    let sql = data.adhoc(n, cfg.seed)?;
    report.set("tpch.generate_adhoc_s", t.elapsed().as_secs_f64());
    let ready = Ready {
        data,
        policies,
        sql,
    };

    // Four engines, each with its own cold memo, fed the same queries in
    // the same order and interleaved per query, so a slow stretch of the
    // host hits every side of a ratio: the op untraced, the op traced, the
    // optimizer step by step, and the traditional optimizer.
    let quiet_dep = ready.deployment();
    let traced_dep = ready.deployment();
    let steps_dep = ready.deployment();
    let traditional_dep = ready.deployment();
    let probe_dep = ready.deployment();

    let mut quiet = Tracer::new(false);
    let (mut op_off, mut op_on) = (Vec::new(), Vec::new());
    let (mut compliant_ms, mut traditional_ms) = (Vec::new(), Vec::new());
    let (mut groups, mut exprs, mut candidates, mut dp_states) = (0, 0, 0, 0);
    let (mut eta, mut invocations) = (0u64, 0u64);
    let mut evaluate_us = Vec::new();
    let mut implies_us = Vec::new();

    for (i, q) in ready.sql.iter().enumerate() {
        report.attempted += 1;
        tracer.set_op(i as u64);

        // Whichever of the two sides runs second finds the caches warm, so
        // they swap places every query.
        let mut run_quiet = |op_off: &mut Vec<f64>| -> Res<()> {
            let t = Instant::now();
            quiet.span("op", |_| sql_to_plan(&quiet_dep, &q.sql))?;
            op_off.push(t.elapsed().as_secs_f64() * 1e3);
            Ok(())
        };
        if i % 2 == 0 {
            run_quiet(&mut op_off)?;
        }
        let t = Instant::now();
        let (logical, plan) = tracer.span("op", |tr| {
            let ast = tr.span("parser.parse", |_| traced_dep.parse(&q.sql))?;
            let logical = tr.span("parser.lower", |_| traced_dep.lower(&ast))?;
            let t = Instant::now();
            let plan = tr.span("core.optimize", |_| traced_dep.optimize(&logical, true))?;
            compliant_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Ok::<_, String>((logical, plan))
        })?;
        op_on.push(t.elapsed().as_secs_f64() * 1e3);
        if i % 2 == 1 {
            run_quiet(&mut op_off)?;
        }
        if tracer
            .span("core.audit", |_| traced_dep.audit(&plan.physical()))
            .is_err()
        {
            report.failed += 1;
        }
        let s = plan.stats();
        groups += s.memo_groups;
        exprs += s.memo_exprs;
        candidates += s.candidates;
        dp_states += s.dp_states;
        eta += s.eta;
        invocations += s.policy_invocations;

        let est = tracer.span("core.steps", |tr| {
            let normalized = tr.span("core.normalize", |_| steps_dep.opt_normalize(&logical))?;
            let explored = tr.span("core.explore", |_| steps_dep.opt_explore(&normalized))?;
            let annotated = tr.span("core.annotate", |_| steps_dep.opt_annotate(&explored))?;
            tr.span("core.site_select", |_| {
                steps_dep.opt_site_select(&annotated)
            })
        })?;
        // The replica must land on the plan the engine chose.
        if (est - s.est_ship_cost_ms).abs() > 1e-6 * s.est_ship_cost_ms.abs().max(1.0) {
            report.failed += 1;
        }

        let t = Instant::now();
        traditional_dep.optimize(&logical, false)?;
        traditional_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        tracer.span("policy.evaluate", |_| probe_dep.policy_evaluate(&logical));
        evaluate_us.push(t.elapsed().as_secs_f64() * 1e6);

        if i < IMPLIES_SAMPLE {
            for pair in probe_dep.implication_pairs(&logical) {
                let t = Instant::now();
                std::hint::black_box(pair.implies());
                implies_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    let totals = tracer.by_name();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let p50 = |name: &str| median(&tracer.durations_us(name));
    report.set("parser.parse_us_p50", p50("parser.parse"));
    report.set("parser.lower_us_p50", p50("parser.lower"));
    report.set(
        "parser.share",
        ratio(
            total_ns("parser.parse") + total_ns("parser.lower"),
            total_ns("op"),
        ),
    );
    report.set("core.normalize_us_p50", p50("core.normalize"));
    report.set("core.explore_us_p50", p50("core.explore"));
    report.set("core.annotate_us_p50", p50("core.annotate"));
    report.set("core.site_select_us_p50", p50("core.site_select"));
    report.set("core.optimize_us_p50", p50("core.optimize"));
    report.set("core.audit_us_p50", p50("core.audit"));
    report.set(
        "core.reconcile_ratio",
        ratio(
            tracer.children_ns("core.steps") as f64,
            total_ns("core.optimize"),
        ),
    );
    let nq = ready.sql.len() as f64;
    report.set("core.memo_groups_mean", groups as f64 / nq);
    report.set("core.memo_exprs_mean", exprs as f64 / nq);
    report.set("core.candidates_mean", candidates as f64 / nq);
    report.set("core.dp_states_mean", dp_states as f64 / nq);
    report.set(
        "core.overhead_factor",
        ratio(mean(&compliant_ms), mean(&traditional_ms)),
    );
    report.set("policy.evaluate_us_p50", median(&evaluate_us));
    report.set("policy.invocations_mean", invocations as f64 / nq);
    report.set("policy.eta_mean", eta as f64 / nq);
    let (hits, misses) = traced_dep.implication_memo();
    report.set(
        "expr.memo_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("expr.proofs_per_query", misses as f64 / nq);
    report.set("expr.implies_us_p50", median(&implies_us));
    report.set("bench.traced_ops", nq);
    report.set("trace.spans", totals.values().map(|t| t.calls as f64).sum());
    report.set("trace.replay_ms_p50", median(&op_on));
    report.set(
        "trace.overhead_ratio",
        ratio(median(&op_on), median(&op_off)),
    );
    report.note("scale_factor", SF);
    report.note("expressions", EXPRESSIONS);
    report.note("implication_pairs_timed", implies_us.len());
    cfg.dump_spans(&tracer)?;
    Ok(report)
}
