//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` is printed from these tables (`--manifest`)
//! and checked against them on every run, so the two cannot drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpch_exec",
        why: "SF 0.1 TPC-H six, planned once, run on the pipelined columnar runtime: execution layers do all timed work, planning none",
    },
    Workload {
        name: "adhoc_optimize",
        why: "SF 10 statistics, 50 expressions, seeded ad-hoc SQL parsed, lowered and optimized from a cold memo: planning layers do all timed work, execution none",
    },
    Workload {
        name: "service_mixed",
        why: "4 tenants, 2 closed-loop clients on the 2-worker query service, 80/20 hot pool at SF 0.005: plan cache, re-audit, optimizer and execution all on the path",
    },
    Workload {
        name: "service_churn",
        why: "service_mixed's query sequences with a policy grant or revoke before every 25th query per tenant: the same code with its caches continually invalidated",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ship_cost_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// README.md maps each of these to its layer's public functions, the
/// traced workload that measures it, and the end-to-end metric it should
/// move. A traced run reports 0 for a metric its workload does not
/// exercise.
pub const PER_LAYER: [PerLayer; 62] = [
    // parser — adhoc_optimize
    pl("parser.parse_us_p50", "us", "lower"),
    pl("parser.lower_us_p50", "us", "lower"),
    pl("parser.share", "ratio", "lower"),
    // core — adhoc_optimize (ship audit: tpch_exec)
    pl("core.normalize_us_p50", "us", "lower"),
    pl("core.explore_us_p50", "us", "lower"),
    pl("core.annotate_us_p50", "us", "lower"),
    pl("core.site_select_us_p50", "us", "lower"),
    pl("core.optimize_us_p50", "us", "lower"),
    pl("core.reconcile_ratio", "ratio", "higher"),
    pl("core.audit_us_p50", "us", "lower"),
    pl("core.ship_audit_us_p50", "us", "lower"),
    pl("core.memo_groups_mean", "count", "lower"),
    pl("core.memo_exprs_mean", "count", "lower"),
    pl("core.candidates_mean", "count", "lower"),
    pl("core.dp_states_mean", "count", "lower"),
    pl("core.overhead_factor", "ratio", "lower"),
    // policy — adhoc_optimize; update: service_churn
    pl("policy.evaluate_us_p50", "us", "lower"),
    pl("policy.invocations_mean", "count", "lower"),
    pl("policy.eta_mean", "count", "lower"),
    pl("policy.update_ms_p50", "ms", "lower"),
    pl("policy.update_ms_p95", "ms", "lower"),
    // expr — adhoc_optimize
    pl("expr.memo_hit_rate", "ratio", "higher"),
    pl("expr.proofs_per_query", "count", "lower"),
    pl("expr.implies_us_p50", "us", "lower"),
    // storage — tpch_exec (populate: every populated workload)
    pl("storage.populate_s", "s", "lower"),
    pl("storage.mirror_build_ms", "ms", "lower"),
    pl("storage.scan_rows_per_s", "1/s", "higher"),
    // exec — tpch_exec
    pl("exec.filter_rows_per_s", "1/s", "higher"),
    pl("exec.hash_join_rows_per_s", "1/s", "higher"),
    pl("exec.hash_aggregate_rows_per_s", "1/s", "higher"),
    pl("exec.plan_cpu_ms", "ms", "lower"),
    pl("exec.reconcile_ratio", "ratio", "higher"),
    // net — every executing workload, per query executed
    pl("net.transfers_per_op", "count", "lower"),
    pl("net.bytes_per_op", "B", "lower"),
    pl("net.network_ms_per_op", "ms", "lower"),
    pl("net.simship_ms", "ms", "lower"),
    // runtime — tpch_exec
    pl("runtime.q2_ms_p50", "ms", "lower"),
    pl("runtime.q3_ms_p50", "ms", "lower"),
    pl("runtime.q5_ms_p50", "ms", "lower"),
    pl("runtime.q8_ms_p50", "ms", "lower"),
    pl("runtime.q9_ms_p50", "ms", "lower"),
    pl("runtime.q10_ms_p50", "ms", "lower"),
    pl("runtime.overhead_ms", "ms", "lower"),
    pl("runtime.batches", "count", "lower"),
    pl("runtime.stalls", "count", "lower"),
    pl("runtime.overlap_speedup", "ratio", "higher"),
    pl("runtime.w2_round_ms_p50", "ms", "lower"),
    pl("runtime.w2_speedup", "ratio", "higher"),
    // server — service_mixed, service_churn
    pl("server.cache_hit_rate", "ratio", "higher"),
    pl("server.hit_latency_ms_p50", "ms", "lower"),
    pl("server.miss_latency_ms_p50", "ms", "lower"),
    pl("server.submit_us_p50", "us", "lower"),
    pl("server.overhead_ms_p50", "ms", "lower"),
    pl("server.latency_ms_p99", "ms", "lower"),
    // tpch — generators, set-up only
    pl("tpch.populate_s", "s", "lower"),
    pl("tpch.generate_adhoc_s", "s", "lower"),
    pl("tpch.generate_policies_s", "s", "lower"),
    // the benchmark itself
    pl("bench.oracle_s", "s", "lower"),
    pl("bench.traced_ops", "count", "higher"),
    pl("trace.spans", "count", "lower"),
    pl("trace.replay_ms_p50", "ms", "lower"),
    pl("trace.overhead_ratio", "ratio", "lower"),
];

/// One run's result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Run facts that are not metrics: op counts, scale factors.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The names a run must report: every end-to-end metric untraced, every
/// per-layer metric traced.
pub fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}
