//! Differential and compliance testing of the runtime (`geoqp-runtime`):
//! the audited columnar run of a plan against the unaudited row oracle.
//!
//! For every plan the two return the same row multiset and ship exactly
//! the same bytes at exactly the same total network cost, and simulated
//! completion — the critical path — never exceeds that network total.
//! These tests enforce that over the six TPC-H queries and a fuzz fleet
//! of generated ad-hoc queries, with and without injected faults, and
//! check the per-batch Definition-1 audit catches non-compliant
//! (traditional-optimizer) plans at the offending SHIP edge.

mod common;

use common::run_with_config;
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::adhoc::generate_adhoc;
use geoqp::tpch::policy_gen::PolicyTemplate;
use geoqp::tpch::queries::all_queries;
use std::cmp::Ordering;
use std::sync::Arc;

const SF: f64 = 0.001;
const SEED: u64 = 2021;

fn engine(template: PolicyTemplate, seed: u64) -> (Engine, Arc<Catalog>) {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, seed).unwrap();
    let policies = tpch::generate_policies(&catalog, template, 10, seed).unwrap();
    let eng = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    (eng, catalog)
}

fn canonical(rows: &Rows) -> Vec<Row> {
    let mut v: Vec<Row> = rows.rows().to_vec();
    v.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.total_cmp(y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    });
    v
}

/// Exact row-multiset equality (both engines execute the *same*
/// physical plan with the same operators, so even float results are
/// bit-identical).
fn same_rows(a: &Rows, b: &Rows) -> bool {
    canonical(a) == canonical(b)
}

/// Row oracle vs the audited columnar run of one optimized plan:
/// identical rows, bytes, and total network cost; completion within the
/// network total.
fn assert_differential(eng: &Engine, optimized: &OptimizedQuery, label: &str) -> usize {
    let row = eng.execute(&optimized.physical).unwrap();
    let col = eng
        .execute_parallel_opts(
            &optimized.physical,
            None,
            &RetryPolicy::none(),
            &RuntimeConfig::default(),
        )
        .unwrap();
    assert!(
        same_rows(&row.rows, &col.rows),
        "{label}: row multisets diverged (row engine {}, columnar {})",
        row.rows.len(),
        col.rows.len()
    );
    assert_eq!(
        row.transfers.total_bytes(),
        col.transfers.total_bytes(),
        "{label}: shipped bytes diverged"
    );
    let (rc, cc) = (row.transfers.total_cost_ms(), col.metrics.network_ms);
    assert!(
        (rc - cc).abs() <= 1e-6 * rc.max(1.0),
        "{label}: network cost diverged ({rc} vs {cc})"
    );
    assert!(
        col.metrics.completion_ms <= cc + 1e-6,
        "{label}: completion exceeds the network total"
    );
    col.transfers.transfer_count()
}

#[test]
fn tpch_queries_differential() {
    let (eng, catalog) = engine(PolicyTemplate::CRA, SEED);
    let mut executed = 0;
    for (query, plan) in all_queries(&catalog).unwrap() {
        let Ok(optimized) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        assert_differential(&eng, &optimized, query);
        executed += 1;
    }
    assert!(executed >= 4, "only {executed} TPC-H queries executed");
}

#[test]
fn adhoc_fuzz_differential() {
    let (eng, catalog) = engine(PolicyTemplate::CRA, 23);
    let mut executed = 0;
    for q in generate_adhoc(&catalog, 25, 23).unwrap() {
        let Ok(optimized) = eng.optimize(&q.plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        assert_differential(&eng, &optimized, &format!("adhoc {}", q.id));
        executed += 1;
    }
    assert!(executed >= 10, "only {executed} ad-hoc queries executed");
}

#[test]
fn transient_faults_do_not_change_results() {
    let (eng, catalog) = engine(PolicyTemplate::CRA, SEED);
    // A flaky link and a delayed one on the paths most queries use.
    let faults = FaultPlan::parse(
        "flaky:L1-L4:0.4@0..6; delay:L2-L1:25; flaky:L4-L1:0.3@0..4",
        7,
    )
    .unwrap();
    let retry = RetryPolicy::default();
    let config = RuntimeConfig::default();
    let mut any_fault = false;
    for (query, plan) in all_queries(&catalog).unwrap() {
        let Ok(optimized) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let clean = eng.execute(&optimized.physical).unwrap();
        let faulty = eng
            .execute_parallel_opts(&optimized.physical, Some(&faults), &retry, &config)
            .unwrap_or_else(|e| panic!("{query}: transient faults not ridden out: {e}"));
        assert!(
            same_rows(&clean.rows, &faulty.rows),
            "{query}: faults changed the result"
        );
        assert_eq!(
            clean.transfers.total_bytes(),
            faulty.transfers.total_bytes(),
            "{query}: retries changed delivered bytes"
        );
        any_fault |= faulty.transfers.fault_count() > 0;
    }
    assert!(
        any_fault,
        "no fault event recorded — the plan is not consulted"
    );
}

#[test]
fn parallel_fault_runs_are_deterministic() {
    let (eng, catalog) = engine(PolicyTemplate::CRA, SEED);
    let faults = FaultPlan::parse("flaky:L1-L4:0.5@0..8; flaky:L2-L1:0.5@0..8", 13).unwrap();
    let retry = RetryPolicy::default();
    let config = RuntimeConfig {
        batch_rows: 16,
        columnar: false,
        ..RuntimeConfig::default()
    };
    let (_, plan) = all_queries(&catalog)
        .unwrap()
        .into_iter()
        .find(|(q, _)| *q == "Q3")
        .unwrap();
    let optimized = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let runs: Vec<_> = (0..3)
        .map(|_| {
            eng.execute_parallel_opts(&optimized.physical, Some(&faults), &retry, &config)
                .unwrap()
        })
        .collect();
    for r in &runs[1..] {
        assert_eq!(canonical(&runs[0].rows), canonical(&r.rows));
        assert_eq!(
            runs[0].transfers.records(),
            r.transfers.records(),
            "transfer logs diverged across identically-seeded runs"
        );
        assert_eq!(runs[0].transfers.fault_count(), r.transfers.fault_count());
        assert_eq!(runs[0].metrics.completion_ms, r.metrics.completion_ms);
    }
}

#[test]
fn permanent_crashes_survive_or_error_typed() {
    let (eng, catalog) = engine(PolicyTemplate::CRA, SEED);
    let retry = RetryPolicy::default();
    let config = RuntimeConfig::default();
    let sites: Vec<Location> = catalog.locations().iter().cloned().collect();
    let (mut survived, mut refused) = (0, 0);
    for (query, plan) in all_queries(&catalog).unwrap() {
        let Ok(optimized) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let clean = eng.execute(&optimized.physical).unwrap();
        for site in &sites {
            let faults = FaultPlan::new(0).with_crash(site.clone(), StepWindow::ALWAYS);
            match run_with_config(
                &eng,
                &optimized,
                ExecOptions::failover(&faults, &retry, 5),
                &config,
            ) {
                Ok((res, metrics)) => {
                    // Surviving a crash (with or without re-planning)
                    // must preserve the query's answer.
                    assert!(
                        same_rows(&clean.rows, &res.rows),
                        "{query} crash {site}: failover changed the result"
                    );
                    assert!(metrics.completion_ms.is_finite());
                    survived += 1;
                }
                Err(e) => {
                    assert!(
                        matches!(e.kind(), "rejected" | "unavailable"),
                        "{query} crash {site}: untyped failure {e}"
                    );
                    refused += 1;
                }
            }
        }
    }
    assert!(survived > 0, "no crash was survivable");
    assert!(refused > 0, "no crash bit a base-table site");
}

/// A crash of an expendable *relay* site: the cheapest compliant plan
/// joins at C, C dies, and the resilient loop must
/// re-plan onto the (expensive but alive) direct placement at D —
/// exactly once, with the same answer, and without touching C again.
#[test]
fn parallel_failover_replans_around_crashed_relay() {
    use geoqp::net::topology::Link;
    use geoqp::storage::Table;

    let mut catalog = Catalog::new();
    for (db, loc) in [("db-a", "A"), ("db-b", "B"), ("db-c", "C"), ("db-d", "D")] {
        catalog.add_database(db, Location::new(loc)).unwrap();
    }
    let t1 = catalog
        .add_table(
            "db-a",
            "t1",
            Schema::new(vec![
                Field::new("u_id", DataType::Int64),
                Field::new("u_val", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(2, 16.0),
        )
        .unwrap();
    let t2 = catalog
        .add_table(
            "db-b",
            "t2",
            Schema::new(vec![
                Field::new("v_id", DataType::Int64),
                Field::new("v_val", DataType::Int64),
            ])
            .unwrap(),
            TableStats::new(2, 16.0),
        )
        .unwrap();
    t1.set_data(
        Table::new(
            Arc::clone(&t1.schema),
            vec![
                vec![Value::Int64(1), Value::str("x")],
                vec![Value::Int64(2), Value::str("y")],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    t2.set_data(
        Table::new(
            Arc::clone(&t2.schema),
            vec![
                vec![Value::Int64(1), Value::Int64(10)],
                vec![Value::Int64(3), Value::Int64(30)],
            ],
        )
        .unwrap(),
    )
    .unwrap();

    let mut policies = PolicyCatalog::new();
    for (text, table) in [
        ("ship * from t1 to C, D", "t1"),
        ("ship * from t2 to C, D", "t2"),
    ] {
        let expr = geoqp::parser::parse_policy(text).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
        policies.register(expr, &entry.schema).unwrap();
    }

    // Direct links into D are brutally expensive, so the cheapest
    // compliant plan relays through C.
    let mut topo =
        NetworkTopology::uniform(LocationSet::from_iter(["A", "B", "C", "D"]), 50.0, 100.0);
    let dear = Link {
        alpha_ms: 1e7,
        beta_ms_per_byte: 1.0,
    };
    for from in ["A", "B"] {
        topo.set_link(Location::new(from), Location::new("D"), dear);
    }
    let eng = Engine::new(Arc::new(catalog), Arc::new(policies), topo);

    let sql = "SELECT u_val, v_val FROM t1, t2 WHERE u_id = v_id";
    let opt = eng
        .optimize_sql(sql, OptimizerMode::Compliant, Some(Location::new("D")))
        .unwrap();
    let baseline = eng
        .execute_parallel_opts(
            &opt.physical,
            None,
            &RetryPolicy::none(),
            &RuntimeConfig::default(),
        )
        .unwrap();
    assert_eq!(baseline.rows.len(), 1);
    assert!(
        baseline
            .transfers
            .records()
            .iter()
            .any(|t| t.to == Location::new("C")),
        "premise broken: the fault-free plan should relay through C"
    );

    let faults = FaultPlan::new(9).with_crash("C", StepWindow::ALWAYS);
    let (res, metrics) = run_with_config(
        &eng,
        &opt,
        ExecOptions::failover(&faults, &RetryPolicy::default(), 3),
        &RuntimeConfig::default(),
    )
    .expect("a compliant alternative placement at D exists");
    assert_eq!(res.replans, 1, "exactly one re-plan should be needed");
    assert!(res.excluded.contains(&Location::new("C")));
    assert_eq!(canonical(&res.rows), canonical(&baseline.rows));
    assert!(
        res.transfers.fault_count() > 0,
        "the crash left no fault event"
    );
    assert!(metrics.completion_ms.is_finite());
    eng.audit(&res.physical)
        .expect("failover placement audits clean");
    for t in res.transfers.records() {
        assert!(
            t.from != Location::new("C") && t.to != Location::new("C"),
            "a delivery touched the crashed relay C"
        );
    }
}

#[test]
fn runtime_audit_catches_non_compliant_plans() {
    // Under a restrictive policy set the traditional optimizer emits
    // non-compliant plans (Figure 5a); the runtime's per-batch audit
    // must refuse them at the offending SHIP edge.
    let (eng, catalog) = engine(PolicyTemplate::C, SEED);
    let mut caught = 0;
    for (query, plan) in all_queries(&catalog).unwrap() {
        let Ok(optimized) = eng.optimize(&plan, OptimizerMode::Traditional, None) else {
            continue;
        };
        if eng.audit(&optimized.physical).is_ok() {
            // Compliant by luck: the runtime must agree and execute it.
            let audited = eng
                .execute_parallel_opts(
                    &optimized.physical,
                    None,
                    &RetryPolicy::none(),
                    &RuntimeConfig::default(),
                )
                .unwrap();
            let unaudited = eng.execute(&optimized.physical).unwrap();
            assert!(same_rows(&unaudited.rows, &audited.rows), "{query}");
            continue;
        }
        let err = eng
            .execute_parallel_opts(
                &optimized.physical,
                None,
                &RetryPolicy::none(),
                &RuntimeConfig::default(),
            )
            .expect_err("non-compliant plan must not execute");
        assert_eq!(err.kind(), "non-compliant", "{query}: {err}");
        caught += 1;
    }
    assert!(
        caught > 0,
        "no traditional plan was non-compliant under the C template"
    );
}
