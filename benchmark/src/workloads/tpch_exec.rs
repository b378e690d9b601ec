//! `tpch_exec`: the TPC-H six on the pipelined columnar runtime.
//!
//! Table-2 deployment populated at SF 0.1, CR+A with 10 expressions, the
//! six planned once in set-up; the timed op is one query execution through
//! the pipelined runtime at its defaults (one worker per site — a
//! parallelism win has to reach users without a knob to count). One driver
//! thread. Latency percentiles are over query executions, so with six
//! unlike queries p95 is the heaviest query's typical time and p50 sits
//! between the third and fourth; `ops_per_s` carries the whole pass.

use super::Cfg;
use crate::golden::{Expected, Oracle};
use crate::metrics::Report;
use crate::stats::{mean, median, peak_rss_mb, percentile, ratio, slice_throughput};
use crate::sut::{Dataset, Deployment, Executed, Physical, Res, Template, SIX, TABLES};
use crate::trace::Tracer;
use std::time::Instant;

pub const SF: f64 = 0.1;
const EXPRESSIONS: usize = 10;
/// Runs per single-operator probe (median, not best-of).
const KERNEL_RUNS: usize = 5;

struct Ready {
    dep: Deployment,
    plans: Vec<Physical>,
}

fn plan_six(dep: &Deployment) -> Res<Vec<Physical>> {
    SIX.iter()
        .map(|name| {
            let logical = dep.tpch_query(name)?;
            Ok(dep.optimize(&logical, true)?.physical())
        })
        .collect()
}

fn set_up(seed: u64) -> Res<Ready> {
    let data = Dataset::populated(SF, seed)?;
    let policies = data.policies(Template::CRA, EXPRESSIONS, seed)?;
    let dep = Deployment::new(&data, &policies);
    let plans = plan_six(&dep)?;
    Ok(Ready { dep, plans })
}

fn row_oracle(ready: &Ready) -> Res<Oracle> {
    let mut oracle = Oracle::new();
    for (name, plan) in SIX.iter().zip(&ready.plans) {
        let e = ready.dep.run_rows(plan)?;
        oracle.insert(
            name.to_string(),
            Expected {
                digest: e.digest(),
                bytes: e.bytes,
            },
        );
    }
    Ok(oracle)
}

/// Compare one execution against the oracle; off the clock.
fn matches(oracle: &Oracle, name: &str, e: &Executed) -> bool {
    oracle
        .get(name)
        .is_some_and(|x| x.digest == e.digest() && x.bytes == e.bytes)
}

pub fn run(cfg: &Cfg) -> Res<Report> {
    let mut report = Report::default();
    let (ready, setup_s) = cfg.set_up(|| set_up(cfg.seed))?;
    let (oracle, oracle_s) = cfg.oracle(|| row_oracle(&ready))?;
    report.note("oracle_s", oracle_s);

    if !cfg.smoke {
        // One untimed pass: anything built lazily on first execution is
        // built before the clock starts.
        for plan in &ready.plans {
            ready.dep.run_pipelined(plan, 1)?;
        }
    }

    let mut round_ms = Vec::new();
    let mut latency_ms = Vec::new();
    let mut ship_ms = Vec::new();
    let phase = Instant::now();
    while round_ms.is_empty() || phase.elapsed().as_secs_f64() < cfg.seconds {
        let mut wall = 0.0;
        for (name, plan) in SIX.iter().zip(&ready.plans) {
            report.attempted += 1;
            let t = Instant::now();
            let out = ready.dep.run_pipelined(plan, 1);
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            wall += latency_ms[latency_ms.len() - 1];
            match out {
                Ok(e) if matches(&oracle, name, &e) => ship_ms.push(e.completion_ms),
                _ => report.failed += 1,
            }
        }
        round_ms.push(wall);
    }

    let slices: Vec<(usize, f64)> = round_ms.iter().map(|ms| (SIX.len(), ms / 1e3)).collect();
    report.set("setup_s", setup_s);
    report.set("ops_per_s", slice_throughput(&slices));
    report.set("latency_ms_p50", median(&latency_ms));
    report.set("latency_ms_p95", percentile(&latency_ms, 0.95));
    report.set("ship_cost_ms_per_op", mean(&ship_ms));
    report.set("peak_rss_mb", peak_rss_mb());
    report.note("scale_factor", SF);
    report.note("expressions", EXPRESSIONS);
    report.note("rounds", round_ms.len());
    report.note("round_ms_p50", median(&round_ms));
    report.note("latency_samples", latency_ms.len());
    Ok(report)
}

/// Per-query wall of one pass, ms, each call inside a span.
fn traced_round(
    tracer: &mut Tracer,
    span: &'static str,
    plans: &[Physical],
    mut call: impl FnMut(&Physical) -> Res<()>,
) -> Res<Vec<f64>> {
    let mut out = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        tracer.set_op(i as u64);
        let t = Instant::now();
        tracer.span(span, |_| call(plan))?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Column-wise medians of per-round, per-query samples.
fn per_query_median(rounds: &[Vec<f64>]) -> Vec<f64> {
    (0..SIX.len())
        .map(|q| median(&rounds.iter().map(|r| r[q]).collect::<Vec<_>>()))
        .collect()
}

fn median_of_runs(runs: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut s = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f()?;
        s.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&s))
}

pub fn run_traced(cfg: &Cfg) -> Res<Report> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);

    let (data, generate_s, attach_s) = Dataset::populated_split(SF, cfg.seed)?;
    report.set("tpch.populate_s", generate_s);
    report.set("storage.populate_s", attach_s);
    let t = Instant::now();
    let policies = data.policies(Template::CRA, EXPRESSIONS, cfg.seed)?;
    report.set("tpch.generate_policies_s", t.elapsed().as_secs_f64());
    let dep = Deployment::new(&data, &policies);
    let ready = Ready {
        plans: plan_six(&dep)?,
        dep,
    };
    let (oracle, oracle_s) = cfg.oracle(|| row_oracle(&ready))?;
    report.set("bench.oracle_s", oracle_s);
    let Ready { dep, plans } = &ready;

    // The four phases share the measuring time; each runs at least once.
    let budget = cfg.seconds / 4.0;

    // Phase 1: the pipelined runtime as the untraced run drives it. The
    // first pass is the cold one; passes then alternate tracing off and on.
    let checked = |name: &str, e: Executed, report: &mut Report| {
        report.attempted += 1;
        if !matches(&oracle, name, &e) {
            report.failed += 1;
        }
        e
    };
    let t = Instant::now();
    for plan in plans {
        dep.run_pipelined(plan, 1)?;
    }
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    // The counts below are those of one pass: they repeat exactly.
    let mut pass = Vec::new();
    let phase = Instant::now();
    while on.is_empty() || phase.elapsed().as_secs_f64() < budget {
        let mut quiet = Tracer::new(false);
        let mut last = Vec::new();
        off.push(traced_round(&mut quiet, "runtime.run", plans, |p| {
            dep.run_pipelined(p, 1).map(|_| ())
        })?);
        on.push(traced_round(&mut tracer, "runtime.run", plans, |p| {
            last.push(dep.run_pipelined(p, 1)?);
            Ok(())
        })?);
        pass = SIX
            .iter()
            .zip(last)
            .map(|(name, e)| checked(name, e, &mut report))
            .collect();
    }
    let sum = |f: fn(&Executed) -> f64| pass.iter().map(f).sum::<f64>();
    let network_ms = sum(|e| e.network_ms);
    let pipelined = per_query_median(&on);
    let round_on = median(&on.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>());
    let round_off = median(&off.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>());
    for (name, ms) in [
        "runtime.q2_ms_p50",
        "runtime.q3_ms_p50",
        "runtime.q5_ms_p50",
        "runtime.q8_ms_p50",
        "runtime.q9_ms_p50",
        "runtime.q10_ms_p50",
    ]
    .into_iter()
    .zip(&pipelined)
    {
        report.set(name, *ms);
    }
    report.set("storage.mirror_build_ms", cold_ms - round_off);
    report.set("runtime.batches", sum(|e| e.batches as f64));
    report.set("runtime.stalls", sum(|e| e.stalls as f64));
    report.set(
        "runtime.overlap_speedup",
        ratio(network_ms, sum(|e| e.completion_ms)),
    );
    let n = SIX.len() as f64;
    report.set("net.transfers_per_op", sum(|e| e.transfers as f64) / n);
    report.set("net.bytes_per_op", sum(|e| e.bytes as f64) / n);
    report.set("net.network_ms_per_op", network_ms / n);
    report.set("trace.replay_ms_p50", round_on);
    report.set("trace.overhead_ratio", ratio(round_on, round_off));

    // The Definition-1 edge audit every pipelined run pays first.
    let mut audit_us = Vec::new();
    for plan in plans {
        for _ in 0..KERNEL_RUNS {
            let t = Instant::now();
            tracer.span("core.ship_audit", |_| dep.ship_audit(plan))?;
            audit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.set("core.ship_audit_us_p50", median(&audit_us));

    // Phases 2 and 3, interleaved per query so a slow stretch of the host
    // hits both sides: operators alone, then the sequential columnar
    // engine with byte accounting and the transfer simulation.
    let (mut cpu, mut seq) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    while cpu.is_empty() || phase.elapsed().as_secs_f64() < 2.0 * budget {
        let (mut c, mut s) = (Vec::new(), Vec::new());
        for (i, (name, plan)) in SIX.iter().zip(plans).enumerate() {
            tracer.set_op(i as u64);
            let t = Instant::now();
            tracer.span("exec.operators", |_| dep.run_operators_only(plan))?;
            c.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let e = tracer.span("core.execute_columnar", |_| dep.run_columnar(plan))?;
            s.push(t.elapsed().as_secs_f64() * 1e3);
            checked(name, e, &mut report);
        }
        cpu.push(c);
        seq.push(s);
    }
    let simship: Vec<Vec<f64>> = seq
        .iter()
        .zip(&cpu)
        .map(|(s, c)| s.iter().zip(c).map(|(s, c)| s - c).collect())
        .collect();
    let plan_cpu_ms: f64 = per_query_median(&cpu).iter().sum();
    let simship_ms: f64 = per_query_median(&simship).iter().sum();
    let sequential = per_query_median(&seq);
    let seq_round_ms: f64 = sequential.iter().sum();
    report.set("exec.plan_cpu_ms", plan_cpu_ms);
    report.set("net.simship_ms", simship_ms);
    report.set(
        "exec.reconcile_ratio",
        ratio(plan_cpu_ms + simship_ms, seq_round_ms),
    );
    report.set(
        "runtime.overhead_ms",
        pipelined.iter().zip(&sequential).map(|(p, s)| p - s).sum(),
    );

    // Phase 4: the same plans at two morsel workers per site, measured.
    let mut w2 = Vec::new();
    let phase = Instant::now();
    while w2.is_empty() || phase.elapsed().as_secs_f64() < budget {
        let mut last = Vec::new();
        let r = traced_round(&mut tracer, "runtime.run_w2", plans, |p| {
            last.push(dep.run_pipelined(p, 2)?);
            Ok(())
        })?;
        w2.push(r.iter().sum::<f64>());
        for (name, e) in SIX.iter().zip(last) {
            checked(name, e, &mut report);
        }
    }
    report.set("runtime.w2_round_ms_p50", median(&w2));
    report.set("runtime.w2_speedup", ratio(round_off, median(&w2)));

    // Single-operator plans, operators only.
    let runs = if cfg.smoke { 3 } else { KERNEL_RUNS };
    let lineitem = data.table_rows("lineitem")? as f64;
    let orders = data.table_rows("orders")? as f64;
    for (name, plan, rows) in [
        ("exec.filter_rows_per_s", dep.filter_plan()?, lineitem),
        (
            "exec.hash_join_rows_per_s",
            dep.join_plan()?,
            lineitem + orders,
        ),
        (
            "exec.hash_aggregate_rows_per_s",
            dep.aggregate_plan()?,
            lineitem,
        ),
    ] {
        let s = median_of_runs(runs, || {
            tracer
                .span("exec.kernel", |_| dep.run_operators_only(&plan))
                .map(|_| ())
        })?;
        report.set(name, ratio(rows, s));
    }
    let (mut scanned, mut scan_s) = (0.0, 0.0);
    for table in TABLES {
        let plan = dep.scan_plan(table)?;
        scanned += data.table_rows(table)? as f64;
        scan_s += median_of_runs(runs, || {
            tracer
                .span("storage.scan", |_| dep.run_operators_only(&plan))
                .map(|_| ())
        })?;
    }
    report.set("storage.scan_rows_per_s", ratio(scanned, scan_s));

    report.set("bench.traced_ops", report.attempted as f64);
    report.set(
        "trace.spans",
        tracer.by_name().values().map(|t| t.calls as f64).sum(),
    );
    report.note("scale_factor", SF);
    report.note("pipelined_rounds", on.len());
    report.note("sequential_rounds", seq.len());
    report.note("w2_rounds", w2.len());
    cfg.dump_spans(&tracer)?;
    Ok(report)
}
