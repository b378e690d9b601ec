//! `geoqp` — an interactive shell for compliant geo-distributed query
//! processing.
//!
//! ```bash
//! cargo run -p geoqp-cli --bin geoqp-shell        # starts with \demo carco
//! echo 'SELECT ...' | cargo run -p geoqp-cli --bin geoqp-shell -- --demo tpch
//! # inject deterministic faults (see \help for the spec grammar):
//! ... -- --demo tpch --faults 'seed=7; crash:L2@0..6; flaky:L1-L3:0.2'
//! # run queries on the concurrent pipelined runtime:
//! ... -- --demo tpch --runtime parallel
//! # morsel-parallel kernels: 4 workers per site:
//! ... -- --demo tpch --runtime parallel --workers 4
//! # give every query a simulated-clock completion budget:
//! ... -- --demo tpch --deadline-ms 500
//! # defend against gray failures with hedged backup transfers:
//! ... -- --demo tpch --faults 'degrade:L1-L4:4x' --hedge
//! ```

use geoqp_cli::Shell;
use std::io::{self, BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let demo = args
        .iter()
        .position(|a| a == "--demo")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("carco");

    let mut shell = Shell::new();
    match shell.run_command(&format!("\\demo {demo}")) {
        Ok(out) => print!("{out}"),
        Err(e) => eprintln!("error: {e}"),
    }
    if let Some(spec) = args
        .iter()
        .position(|a| a == "--faults")
        .and_then(|i| args.get(i + 1))
    {
        match shell.run_command(&format!("\\faults {spec}")) {
            Ok(out) => print!("{out}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Some(mode) = args
        .iter()
        .position(|a| a == "--runtime")
        .and_then(|i| args.get(i + 1))
    {
        match shell.run_command(&format!("\\runtime {mode}")) {
            Ok(out) => print!("{out}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Some(n) = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
    {
        match shell.run_command(&format!("\\workers {n}")) {
            Ok(out) => print!("{out}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Some(ms) = args
        .iter()
        .position(|a| a == "--deadline-ms")
        .and_then(|i| args.get(i + 1))
    {
        match shell.run_command(&format!("\\deadline {ms}")) {
            Ok(out) => print!("{out}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--hedge") {
        // `--hedge` alone uses the defaults; `--hedge <ms>` sets the
        // backup launch delay.
        let setting = args
            .get(i + 1)
            .filter(|v| v.parse::<f64>().is_ok())
            .map(|v| v.as_str())
            .unwrap_or("on");
        match shell.run_command(&format!("\\hedge {setting}")) {
            Ok(out) => print!("{out}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    println!("type SQL, \\help for commands, \\quit to exit");

    let stdin = io::stdin();
    let interactive = args.iter().all(|a| a != "--batch");
    loop {
        if interactive {
            print!("geoqp> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        match shell.run_command(line) {
            Ok(out) => print!("{out}"),
            Err(e) => println!("error: {e}"),
        }
    }
}
