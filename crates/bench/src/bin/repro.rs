//! Reproduce every table and figure of the paper's evaluation.
//!
//! Usage:
//!   repro                # everything
//!   repro --figure 6a    # one artifact: table1|table2|table3|5a|5bcde|
//!                        # 6a|6b|6c|6d|6e|6f|6g|6h|7abc|7de|8ab|
//!                        # ablation|failover|grayfail|adhoc|churn
//!   repro --quick        # fewer runs / fewer ad-hoc queries
//!
//! An unknown `--figure` id is an error that lists the valid ones.
//!
//! `--figure adhoc` optimizes `GEOQP_ADHOC_N` generated queries (default
//! 100000, or 2000 with `--quick`) per the four template sets and writes
//! their seed-deterministic search-volume counters (compliant fraction,
//! η, Algorithm 2 DP states, implication-memo hits) to
//! `BENCH_optimizer.json` — byte-identical run to run.
//!
//! Wall-clock performance of the optimizer, the runtime, the kernels and
//! the service is measured by the repo benchmark (`benchmark/run.sh`),
//! not here.

use geoqp_bench::experiments::overhead::OverheadCase;
use geoqp_bench::experiments::{
    ablation, churn, effectiveness, failover, grayfail, optimizer, overhead, quality, scalability,
};
use geoqp_common::LocationSet;
use geoqp_plan::descriptor::describe_local;
use geoqp_policy::PolicyEvaluator;
use geoqp_tpch::policy_gen::PolicyTemplate;

const SEED: u64 = 2021;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 7 };
    let adhoc_n = if quick { 80 } else { 400 };

    // Every artifact, in print order. `--figure` is checked against
    // this one list, so an id that selects nothing cannot exist.
    type Arm = (&'static str, Box<dyn Fn()>);
    let overhead = |id: &'static str, case: OverheadCase| -> Arm {
        (id, Box::new(move || fig6_overhead(id, case, runs)))
    };
    let quality = |id: &'static str, template: PolicyTemplate| -> Arm {
        (id, Box::new(move || fig6_quality(id, template, quick)))
    };
    let arms: Vec<Arm> = vec![
        ("table1", Box::new(table1)),
        ("table2", Box::new(table2)),
        ("table3", Box::new(table3)),
        ("5a", Box::new(fig5a)),
        ("5bcde", Box::new(fig5bcde)),
        ("6a", Box::new(move || fig6a(adhoc_n))),
        overhead("6b", OverheadCase::NoRestrictions),
        overhead("6c", OverheadCase::Template(PolicyTemplate::T)),
        overhead("6d", OverheadCase::Template(PolicyTemplate::C)),
        overhead("6e", OverheadCase::Template(PolicyTemplate::CR)),
        overhead("6f", OverheadCase::Template(PolicyTemplate::CRA)),
        quality("6g", PolicyTemplate::C),
        quality("6h", PolicyTemplate::CR),
        ("7abc", Box::new(move || fig7abc(runs))),
        ("7de", Box::new(move || fig7de(runs))),
        ("8ab", Box::new(move || fig8ab(runs))),
        ("ablation", Box::new(ablations)),
        ("failover", Box::new(failover_matrix)),
        ("grayfail", Box::new(grayfail_figure)),
        ("adhoc", Box::new(move || adhoc_figure(quick))),
        ("churn", Box::new(churn_figure)),
    ];

    let figure = args.iter().position(|a| a == "--figure").map(|i| {
        let id = args
            .get(i + 1)
            .map_or(String::new(), |s| s.to_ascii_lowercase());
        if !arms.iter().any(|(known, _)| *known == id) {
            let ids: Vec<&str> = arms.iter().map(|(id, _)| *id).collect();
            eprintln!("repro: --figure takes one of {}; got `{id}`", ids.join("|"));
            std::process::exit(2);
        }
        id
    });
    for (id, run) in &arms {
        if figure.as_deref().is_none_or(|f| f == *id) {
            run();
        }
    }
}

fn churn_figure() {
    header(
        "Extension E12: live policy churn — mid-flight revocations vs epoch-pinned queries (CR+A)",
    );
    println!(
        "  {:6} {:>6} {:>5} {:>14} {:>8} {:>12} {:>12} {:>12} {:>6}",
        "query", "step", "pid", "outcome", "replans", "total B", "recomp B", "resumed B", "rows="
    );
    let grid = churn::churn_grid(SEED);
    let dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    let rows = |m: Option<bool>| match m {
        Some(true) => "yes",
        Some(false) => "NO",
        None => "-",
    };
    for c in &grid {
        let step = match c.revoke_step {
            u64::MAX => "∞".to_string(),
            step => step.to_string(),
        };
        println!(
            "  {:6} {:>6} {:>5} {:>14} {:>8} {:>12} {:>12} {:>12} {:>6}",
            c.query,
            step,
            c.revoked_pid,
            c.outcome.label(),
            dash(c.replans.map(|n| n.to_string())),
            dash(c.total_bytes.map(|n| n.to_string())),
            dash(c.recomputed_bytes.map(|n| n.to_string())),
            dash(c.resumed_bytes.map(|n| n.to_string())),
            rows(c.rows_match)
        );
    }

    header(
        "Extension E12: re-pin to the visible head — revoke@step 0, re-grant released at a \
         swept step",
    );
    println!(
        "  {:6} {:>6} {:>5} {:>14} {:>6}",
        "query", "gstep", "pid", "outcome", "rows="
    );
    let grants = churn::grant_grid(SEED);
    for c in &grants {
        println!(
            "  {:6} {:>6} {:>5} {:>14} {:>6}",
            c.query,
            c.grant_step,
            c.revoked_pid,
            c.outcome.label(),
            rows(c.rows_match)
        );
    }
    let s = churn::summarize(&grid, &grants);
    println!(
        "  summary: {} finished, {} replanned, {} refused non-compliant, \
         {} other; re-plan byte overhead {:.1}% \
         ({} B recomputed, {} B resumed from checkpoints)",
        s.finished,
        s.replanned,
        s.refused_non_compliant,
        s.refused_other,
        s.replan_byte_overhead() * 100.0,
        s.recomputed_bytes,
        s.resumed_bytes,
    );
    let json = churn::to_json(&grid, &grants, SEED);
    match std::fs::write("BENCH_churn.json", &json) {
        Ok(()) => println!("  wrote BENCH_churn.json"),
        Err(e) => println!("  could not write BENCH_churn.json: {e}"),
    }
}

fn adhoc_figure(quick: bool) {
    let n: usize = std::env::var("GEOQP_ADHOC_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2_000 } else { 100_000 });
    header(&format!(
        "Extension E10: optimizer search volume over {n} generated queries (compliant mode)"
    ));
    println!(
        "  {:14} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "template", "queries", "found", "memo hit%", "DP states", "η mean"
    );
    let counters = optimizer::adhoc_counters(n, SEED);
    for t in &counters {
        println!(
            "  {:14} {:>8} {:>8.2} {:>9.1}% {:>10.1} {:>9.1}",
            format!("{}({})", t.template.name(), t.expressions),
            t.queries,
            t.compliant_fraction,
            t.memo_hit_rate * 100.0,
            t.dp_states_mean,
            t.eta_mean
        );
    }
    let json = optimizer::to_json(&counters, SEED);
    match std::fs::write("BENCH_optimizer.json", &json) {
        Ok(()) => println!("  wrote BENCH_optimizer.json"),
        Err(e) => println!("  could not write BENCH_optimizer.json: {e}"),
    }
}

fn grayfail_figure() {
    header("Extension E7: gray links — hedged transfers vs baseline (CR+A, busiest link degraded 6x + 8% loss)");
    println!(
        "  {:6} {:>8} {:>12} {:>11} {:>8} {:>8} {:>11} {:>6} {:>6} {:>6}",
        "query",
        "link",
        "no-hedge ms",
        "hedged ms",
        "speedup",
        "bytes+",
        "hedges",
        "relays",
        "rows=",
        "audit"
    );
    for c in grayfail::grayfail_matrix(SEED, 6.0, 0.08) {
        println!(
            "  {:6} {:>8} {:>12.1} {:>11.1} {:>7.2}x {:>7.1}% {:>5}/{:<5} {:>6} {:>6} {:>6}",
            c.query,
            format!("{}-{}", c.link.0, c.link.1),
            c.nohedge_ms,
            c.hedged_ms,
            c.speedup(),
            c.bytes_overhead() * 100.0,
            c.hedges_won,
            c.hedges_launched,
            c.relays_used,
            if c.rows_match { "yes" } else { "NO" },
            if c.audit_ok { "pass" } else { "FAIL" }
        );
    }

    header("Extension E8: link down — re-plan around the failed link (busiest link dropped always, failover preset)");
    println!(
        "  {:6} {:>8} {:>12} {:>8} {:>10} {:>6} {:>6} {:>6}",
        "query", "link", "outcome", "avoided", "sites-excl", "faults", "rows=", "audit"
    );
    for c in grayfail::link_down_matrix(SEED) {
        let completed = !matches!(c.outcome, failover::Outcome::TypedError(_));
        let avoided: Vec<String> = c.avoided.iter().map(|(a, b)| format!("{a}-{b}")).collect();
        println!(
            "  {:6} {:>8} {:>12} {:>8} {:>10} {:>6} {:>6} {:>6}",
            c.query,
            format!("{}-{}", c.link.0, c.link.1),
            c.outcome.label(),
            if avoided.is_empty() {
                "-".to_string()
            } else {
                avoided.join(",")
            },
            c.sites_excluded,
            c.faults.map_or("-".to_string(), |n| n.to_string()),
            if !completed {
                "-"
            } else if c.rows_match {
                "yes"
            } else {
                "NO"
            },
            if !completed {
                "-"
            } else if c.audit_ok {
                "pass"
            } else {
                "FAIL"
            }
        );
    }
}

fn failover_matrix() {
    header("Extension E4: single-site crashes — compliant failover matrix (CR+A)");
    println!(
        "  {:6} {:>8} {:>14} {:>7}",
        "query", "crashed", "outcome", "faults"
    );
    for cell in failover::crash_matrix(SEED) {
        println!(
            "  {:6} {:>8} {:>14} {:>7}",
            cell.query,
            cell.crashed.to_string(),
            cell.outcome.label(),
            cell.faults
        );
    }

    header("Extension E6: late-crash recovery — checkpoint/resume vs scratch (C)");
    println!(
        "  {:6} {:>8} {:>6} {:>12} {:>12} {:>7} {:>5} {:>6} {:>6}",
        "query", "crashed", "step", "scratch B", "resume B", "ratio", "hits", "rows=", "audit"
    );
    for cell in failover::resume_matrix(SEED) {
        println!(
            "  {:6} {:>8} {:>6} {:>12} {:>12} {:>6.1}% {:>5} {:>6} {:>6}",
            cell.query,
            cell.crashed.to_string(),
            cell.crash_step,
            cell.scratch_recovery_bytes,
            cell.resume_recovery_bytes,
            cell.recovery_ratio() * 100.0,
            cell.checkpoint_hits,
            if cell.rows_match && cell.replans_match {
                "yes"
            } else {
                "NO"
            },
            if cell.audit_ok { "pass" } else { "FAIL" }
        );
    }
}

fn ablations() {
    header("Extension E1/E2: rejections over delivery-constrained revenue rollups (CR+A, result at L1)");
    println!(
        "  {:24} {:>8} {:>9}",
        "configuration", "planned", "rejected"
    );
    for (name, c) in ablation::rejection_ablation(SEED) {
        println!("  {:24} {:>8} {:>9}", name, c.planned, c.rejected);
    }
    header("Extension E3: total-cost vs response-time site selection (CR+A)");
    println!(
        "  {:6} {:>14} {:>16} {:>10}",
        "query", "total-cost ms", "resp-time ms", "placement"
    );
    for r in ablation::objective_comparison(SEED) {
        println!(
            "  {:6} {:>14.1} {:>16.1} {:>10}",
            r.query,
            r.total_cost_ms,
            r.response_time_ms,
            if r.placements_differ {
                "differs"
            } else {
                "same"
            }
        );
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 1: the worked policy-evaluation example.
fn table1() {
    use geoqp_common::{DataType, Field, Location, LocationPattern, Schema, TableRef};
    use geoqp_expr::{AggCall, AggFunc, ScalarExpr};
    use geoqp_plan::PlanBuilder;
    use geoqp_policy::{PolicyCatalog, PolicyExpression, ShipAttrs};

    header("Table 1: policy evaluation on T(A..G)");
    let schema = Schema::new(
        ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|n| {
                Field::new(
                    *n,
                    if *n == "c" || *n == "e" {
                        DataType::Str
                    } else if *n == "f" || *n == "g" {
                        DataType::Float64
                    } else {
                        DataType::Int64
                    },
                )
            })
            .collect(),
    )
    .unwrap();
    let t = TableRef::bare("t");
    let locs = |names: &[&str]| LocationPattern::Set(LocationSet::from_iter(names.iter().copied()));
    let mut cat = PolicyCatalog::new();
    let exprs = [
        PolicyExpression::basic(
            t.clone(),
            ShipAttrs::list(["a", "b", "c"]),
            locs(&["l2", "l3"]),
            None,
        ),
        PolicyExpression::basic(
            t.clone(),
            ShipAttrs::list(["a", "b"]),
            locs(&["l1", "l2", "l3", "l4"]),
            None,
        ),
        PolicyExpression::basic(
            t.clone(),
            ShipAttrs::list(["a", "d"]),
            locs(&["l1", "l3"]),
            Some(ScalarExpr::col("b").gt(ScalarExpr::lit(10i64))),
        ),
        PolicyExpression::aggregate(
            t.clone(),
            ShipAttrs::list(["f", "g"]),
            [AggFunc::Sum, AggFunc::Avg],
            ["e".to_string(), "c".to_string()],
            locs(&["l1", "l2"]),
            None,
        ),
    ];
    for e in exprs {
        println!("  e{}: {e}", cat.len() + 1);
        cat.register(e, &schema).unwrap();
    }
    let universe = LocationSet::from_iter(["l1", "l2", "l3", "l4"]);
    let scan = || PlanBuilder::scan(t.clone(), Location::new("l0"), schema.clone());
    let q1 = scan()
        .filter(ScalarExpr::col("b").gt(ScalarExpr::lit(15i64)))
        .unwrap()
        .project_columns(&["a", "c", "d"])
        .unwrap()
        .build();
    let q2 = scan()
        .aggregate(
            &["c"],
            vec![AggCall::new(
                AggFunc::Sum,
                ScalarExpr::col("f").mul(ScalarExpr::lit(1i64).sub(ScalarExpr::col("g"))),
                "s",
            )],
        )
        .unwrap()
        .build();
    let ev = PolicyEvaluator::new(&cat, &universe);
    for (name, q) in [
        ("q1 = Π_{A,C,D}(σ_{B>15}(T))", &q1),
        ("q2 = Γ_{C; SUM(F*(1-G))}(T)", &q2),
    ] {
        let d = describe_local(q).unwrap();
        let result = ev.evaluate(&d);
        println!("  𝒜({name}) = {result}   (η so far: {})", ev.eta());
    }
}

/// Table 2: the TPC-H distribution.
fn table2() {
    header("Table 2: TPC-H table distribution among five locations");
    for (loc, db, tables) in geoqp_tpch::distribution::DISTRIBUTION {
        println!("  {loc}  {db}  {}", tables.join(", "));
    }
}

/// Table 3: the policy-expression snippet, parsed and re-rendered.
fn table3() {
    header("Table 3: snippet of expressions based on TPC-H data");
    let catalog = geoqp_tpch::paper_catalog(10.0);
    let cat = geoqp_tpch::table3_policies(&catalog).unwrap();
    for e in cat.expressions() {
        println!("  e{}: {}", e.id + 1, e.expr);
    }
}

fn fig5a() {
    header("Figure 5(a): QEPs produced by the traditional query optimizer (C / NC)");
    let cells = effectiveness::tpch_matrix(SEED);
    let queries = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];
    println!(
        "  {:8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "set", "Q2", "Q3", "Q5", "Q8", "Q9", "Q10"
    );
    for template in ["T", "C", "CR", "CR+A"] {
        let mut row = format!("  {:8}", template);
        for q in queries {
            let cell = cells
                .iter()
                .find(|c| c.query == q && c.template.name() == template)
                .unwrap();
            row.push_str(&format!(" {:>6}", cell.traditional.label()));
        }
        println!("{row}");
    }
    println!("  (compliant optimizer, same grid:)");
    for template in ["T", "C", "CR", "CR+A"] {
        let mut row = format!("  {:8}", template);
        for q in queries {
            let cell = cells
                .iter()
                .find(|c| c.query == q && c.template.name() == template)
                .unwrap();
            row.push_str(&format!(" {:>6}", cell.compliant.label()));
        }
        println!("{row}");
    }
}

fn fig5bcde() {
    header("Figure 5(b–e): plan excerpts for Q2 (CR) and Q3 (CR+A)");
    for (title, body) in effectiveness::plan_excerpts(SEED) {
        println!("\n  -- {title} --");
        for line in body.lines() {
            println!("  {line}");
        }
    }
}

fn fig6a(n: usize) {
    header("Figure 6(a): effectiveness on ad-hoc queries");
    println!(
        "  {:14} {:>8} {:>12} {:>12}",
        "template", "queries", "traditional", "compliant"
    );
    for r in effectiveness::adhoc_effectiveness(n, SEED) {
        println!(
            "  {:14} {:>8} {:>12.2} {:>12.2}",
            format!("{}({})", r.template.name(), r.expressions),
            r.queries,
            r.traditional_fraction,
            r.compliant_fraction
        );
    }
}

fn fig6_overhead(id: &str, case: OverheadCase, runs: usize) {
    header(&format!(
        "Figure {id}: optimization time, {} (avg of {runs} runs, ms)",
        case.label()
    ));
    println!(
        "  {:6} {:>14} {:>14} {:>8} {:>8}",
        "query", "traditional", "compliant", "ratio", "η"
    );
    for r in overhead::measure(case, runs, SEED) {
        println!(
            "  {:6} {:>9.2}±{:<4.2} {:>9.2}±{:<4.2} {:>8.2} {:>8}",
            r.query,
            r.traditional.mean_ms,
            r.traditional.stderr_ms,
            r.compliant.mean_ms,
            r.compliant.stderr_ms,
            r.compliant.mean_ms / r.traditional.mean_ms.max(1e-9),
            r.eta
        );
    }
}

fn fig6_quality(id: &str, template: PolicyTemplate, quick: bool) {
    let sf = if quick { 0.002 } else { 0.01 };
    header(&format!(
        "Figure {id}: scaled execution (shipping) cost, {} set, SF {sf}",
        template.name()
    ));
    println!(
        "  {:6} {:>6} {:>14} {:>14} {:>8} {:>6}",
        "query", "trad", "trad cost ms", "compl cost ms", "scaled", "plan"
    );
    for r in quality::measure(template, sf, SEED) {
        println!(
            "  {:6} {:>6} {:>14.1} {:>14.1} {:>8.2} {:>6}",
            r.query,
            if r.traditional_compliant { "C" } else { "NC" },
            r.traditional_cost_ms,
            r.compliant_cost_ms,
            r.scaled,
            if r.same_plan { "=" } else { "≠" }
        );
    }
}

fn fig7abc(runs: usize) {
    header("Figure 7(a–c): optimization time vs #policy expressions (CR+A)");
    for q in ["Q2", "Q3", "Q10"] {
        println!("  {q}:");
        println!("    {:>6} {:>12} {:>8}", "#expr", "time ms", "η");
        for p in scalability::expression_sweep(q, runs, SEED) {
            println!("    {:>6} {:>12.2} {:>8}", p.x, p.mean_ms, p.eta);
        }
    }
}

fn fig7de(runs: usize) {
    header("Figure 7(d–e): optimization time vs #table locations (CR+A)");
    for q in ["Q3", "Q10"] {
        println!("  {q}:");
        println!("    {:>6} {:>12} {:>14}", "#locs", "time ms", "site-sel ms");
        for p in scalability::location_sweep(q, runs, SEED) {
            println!("    {:>6} {:>12.2} {:>14.3}", p.x, p.mean_ms, p.phase2_ms);
        }
    }
}

fn fig8ab(runs: usize) {
    header("Figure 8(a–b): optimization time vs #to-locations per expression");
    for q in ["Q2", "Q3"] {
        println!("  {q}:");
        println!("    {:>6} {:>12} {:>14}", "#locs", "time ms", "site-sel ms");
        for p in scalability::to_location_sweep(q, runs) {
            println!("    {:>6} {:>12.2} {:>14.3}", p.x, p.mean_ms, p.phase2_ms);
        }
    }
}
