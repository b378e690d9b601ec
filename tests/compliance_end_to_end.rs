//! End-to-end integration across all crates, through the `geoqp` facade:
//! TPC-H deployment → policies → optimization → distributed simulated
//! execution → compliance audit.

mod common;

use common::per_edge;
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.002;

fn engine(template: PolicyTemplate) -> Engine {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies =
        tpch::generate_policies(&catalog, template, template.base_count(), 2021).unwrap();
    Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan())
}

#[test]
fn all_six_queries_execute_compliantly_under_cra() {
    let eng = engine(PolicyTemplate::CRA);
    for (name, plan) in tpch::all_queries(eng.catalog()).unwrap() {
        let opt = eng
            .optimize(&plan, OptimizerMode::Compliant, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        eng.audit(&opt.physical)
            .unwrap_or_else(|e| panic!("{name} audit: {e}"));
        // Under an empty fault plan every delivery is recorded at its
        // edge's grid slot, so the edges execution recorded (one record
        // per batch, grouped per edge) mirror the plan's SHIP edges,
        // compared as multisets.
        let no_faults = FaultPlan::new(0);
        let opts = ExecOptions {
            faults: Some(&no_faults),
            ..ExecOptions::default()
        };
        let exec = eng.run(&opt, &opts).unwrap();
        let mut planned = opt.physical.transfers();
        planned.sort();
        let mut executed: Vec<_> = per_edge(&exec.transfers)
            .into_iter()
            .map(|e| (e.from, e.to))
            .collect();
        executed.sort();
        assert_eq!(executed, planned, "{name}: transfer endpoints");
    }
}

#[test]
fn requested_result_location_is_honored_or_rejected() {
    let eng = engine(PolicyTemplate::CRA);
    let plan = tpch::query_by_name(eng.catalog(), "Q3").unwrap();
    // L4 hosts lineitem and every other grant includes L4, so delivery
    // there must succeed.
    let opt = eng
        .optimize(&plan, OptimizerMode::Compliant, Some(Location::new("L4")))
        .unwrap();
    assert_eq!(opt.result_location, Location::new("L4"));
    eng.audit(&opt.physical).unwrap();

    // L2 (supplier site) is reachable by nothing Q3 needs; the demand is
    // rejected rather than violated.
    let res = eng.optimize(&plan, OptimizerMode::Compliant, Some(Location::new("L2")));
    match res {
        Err(e) => assert_eq!(e.kind(), "rejected"),
        Ok(opt) => {
            // If a plan exists it must still be compliant.
            eng.audit(&opt.physical).unwrap();
            assert_eq!(opt.result_location, Location::new("L2"));
        }
    }
}

#[test]
fn partitioned_tables_execute_through_unions() {
    let catalog = Arc::new(tpch::paper_catalog_partitioned(SF, 3).unwrap());
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    let plan = tpch::query_by_name(&catalog, "Q3").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    eng.audit(&opt.physical).unwrap();
    let exec = eng.execute(&opt.physical).unwrap();

    // Reference: the same query on the unpartitioned deployment returns
    // the same rows (partitioning is transparent).
    let ref_catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&ref_catalog, SF, 7).unwrap();
    let ref_policies =
        tpch::generate_policies(&ref_catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let ref_eng = Engine::new(
        Arc::clone(&ref_catalog),
        Arc::new(ref_policies),
        NetworkTopology::paper_wan(),
    );
    let ref_plan = tpch::query_by_name(&ref_catalog, "Q3").unwrap();
    let ref_opt = ref_eng
        .optimize(&ref_plan, OptimizerMode::Compliant, None)
        .unwrap();
    let ref_exec = ref_eng.execute(&ref_opt.physical).unwrap();
    // Q3 sorts (revenue DESC, o_orderdate) and limits to 10; ties in the
    // sort key may legitimately order differently, so compare as sets of
    // the sort-relevant prefix.
    let key = |rows: &Rows| {
        let mut v: Vec<(String, String)> = rows
            .iter()
            .map(|r| (r[3].to_string(), r[1].to_string()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&exec.rows), key(&ref_exec.rows));
}

#[test]
fn sql_pipeline_runs_against_tpch_catalog() {
    let eng = engine(PolicyTemplate::CRA);
    let (opt, exec) = eng
        .run_sql(
            "SELECT n_name, COUNT(s_suppkey) AS suppliers \
             FROM nation, supplier WHERE n_nationkey = s_nationkey \
             GROUP BY n_name ORDER BY suppliers DESC, n_name LIMIT 5",
            OptimizerMode::Compliant,
            None,
            &ExecOptions::default(),
        )
        .unwrap();
    eng.audit(&opt.physical).unwrap();
    assert!(exec.rows.len() <= 5);
    assert!(!exec.rows.is_empty());
}

#[test]
fn empty_policy_catalog_confines_every_query_to_single_sites() {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let eng = Engine::new(
        Arc::clone(&catalog),
        Arc::new(PolicyCatalog::new()),
        NetworkTopology::paper_wan(),
    );
    // A cross-site join cannot be planned compliantly with no grants at
    // all (conservative disclosure model).
    let plan = tpch::query_by_name(&catalog, "Q3").unwrap();
    let err = eng
        .optimize(&plan, OptimizerMode::Compliant, None)
        .unwrap_err();
    assert_eq!(err.kind(), "rejected");

    // A single-site query still works.
    let (opt, exec) = eng
        .run_sql(
            "SELECT c_name FROM customer WHERE c_acctbal > 9000.0",
            OptimizerMode::Compliant,
            None,
            &ExecOptions::default(),
        )
        .unwrap();
    eng.audit(&opt.physical).unwrap();
    assert_eq!(opt.result_location, Location::new("L1"));
    let _ = exec;
}
