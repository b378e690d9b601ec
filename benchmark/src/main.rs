//! The repo benchmark (see `BENCHMARK.json` and `README.md`).
//!
//! `geoqp-benchmark --workload W --seed S --seconds N --trace 0|1` runs
//! one workload in this process, prints every metric by name with its
//! unit, and ends with one JSON object on the last line of stdout.

mod golden;
mod metrics;
mod stats;
mod sut;
mod trace;
mod workloads;

use metrics::{expected_names, unit_of, Report, RUN_SECONDS, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{adhoc_optimize, service, tpch_exec, Cfg};

struct Args {
    cfg: Cfg,
    trace: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: Cfg {
            workload: String::new(),
            seed: golden::GOLDEN_SEED,
            seconds: RUN_SECONDS as f64,
            smoke: false,
            regen_golden: false,
        },
        trace: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.cfg.workload = value("--workload")?,
            "--seed" => {
                args.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace`, `--trace 0`, `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.cfg.smoke = true,
            "--regen-golden" => args.cfg.regen_golden = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.cfg.smoke {
        args.cfg.seconds /= 50.0;
    }
    Ok(args)
}

/// Refuse to run against a `BENCHMARK.json` that names other workloads or
/// metrics than this binary reports (its bounds and reasons may be edited).
fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let listed: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let known: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(expected_names(false))
        .chain(expected_names(true))
        .collect();
    if listed != known {
        return Err(
            "BENCHMARK.json names other workloads or metrics than this benchmark reports; \
             regenerate it with `benchmark/run.sh --manifest > BENCHMARK.json`"
                .into(),
        );
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let cfg = &args.cfg;
    match (cfg.workload.as_str(), args.trace) {
        ("tpch_exec", false) => tpch_exec::run(cfg),
        ("tpch_exec", true) => tpch_exec::run_traced(cfg),
        ("adhoc_optimize", false) => adhoc_optimize::run(cfg),
        ("adhoc_optimize", true) => adhoc_optimize::run_traced(cfg),
        ("service_mixed", false) => service::run(cfg, false),
        ("service_mixed", true) => service::run_traced(cfg, false),
        ("service_churn", false) => service::run(cfg, true),
        ("service_churn", true) => service::run_traced(cfg, true),
        (other, _) => Err(format!(
            "unknown workload '{other}'; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// The layers must sum to the whole: a traced run whose reconciliation
/// leaves 0.90–1.10 is not correct.
fn reconciles(report: &Report) -> bool {
    ["core.reconcile_ratio", "exec.reconcile_ratio"]
        .iter()
        .filter_map(|name| report.values.get(name))
        .all(|r| (0.90..=1.10).contains(r))
}

fn metrics_json(report: &Report, names: &[&'static str]) -> String {
    let mut s = String::from("{");
    for (i, name) in names.iter().enumerate() {
        let value = report.values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let comma = if i + 1 < names.len() { ", " } else { "" };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}{comma}",
            unit_of(name)
        );
    }
    s.push('}');
    s
}

/// A fact `run.sh` passes in about the build.
fn build_fact(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geoqp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("geoqp-benchmark: refusing to measure a debug build; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = check_manifest() {
        eprintln!("geoqp-benchmark: {e}");
        return ExitCode::from(2);
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("geoqp-benchmark: {}: {e}", args.cfg.workload);
            return ExitCode::from(1);
        }
    };

    let names = expected_names(args.trace);
    let unknown: Vec<_> = report
        .values
        .keys()
        .filter(|k| !names.contains(k))
        .collect();
    assert!(unknown.is_empty(), "unlisted metrics reported: {unknown:?}");
    let correct = report.failed == 0 && report.attempted > 0 && reconciles(&report);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = build_fact("GEOQP_BENCH_RUSTC");
    let commit = build_fact("GEOQP_BENCH_COMMIT");

    println!(
        "# workload {} seed {} seconds {} trace {} smoke {}",
        args.cfg.workload, args.cfg.seed, args.cfg.seconds, args.trace as u8, args.cfg.smoke
    );
    println!("# nproc {nproc} | {rustc} | commit {commit}");
    for (k, v) in &report.info {
        println!("# {k} {v}");
    }
    for name in &names {
        match report.values.get(name) {
            Some(v) => println!("{name} = {v} {}", unit_of(name)),
            None => println!(
                "{name} = 0 {} (not exercised by this workload)",
                unit_of(name)
            ),
        }
    }
    let failed_fraction = report.failed as f64 / report.attempted.max(1) as f64;
    println!("failed_fraction = {failed_fraction} ratio");

    let metrics = metrics_json(&report, &names);
    let mut stored = String::from("{");
    let _ = write!(
        stored,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"commit\": \"{commit}\", ",
        args.cfg.workload, args.cfg.seed, args.cfg.seconds, args.trace, args.cfg.smoke,
    );
    for (k, v) in &report.info {
        let _ = write!(stored, "\"{k}\": \"{v}\", ");
    }
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    stored.push_str(&result);
    let suffix = if args.trace { ".trace" } else { "" };
    let path = format!("benchmark/out/{}{suffix}.result.json", args.cfg.workload);
    if let Err(e) = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, format!("{stored}\n")))
    {
        eprintln!("geoqp-benchmark: {path}: {e}");
        return ExitCode::from(1);
    }

    println!("{{{result}");
    ExitCode::SUCCESS
}
