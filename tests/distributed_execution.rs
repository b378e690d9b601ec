//! Distributed-execution details: SHIP accounting, wire fidelity, and
//! network-cost consistency between the simulator and the executor.

use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.002;

fn engine() -> Engine {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan())
}

#[test]
fn transfer_costs_match_the_message_cost_model() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q5").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let exec = eng.execute(&opt.physical).unwrap();
    let topo = NetworkTopology::paper_wan();
    for t in exec.transfers.records() {
        let expect = topo.ship_cost_ms(&t.from, &t.to, t.bytes as f64);
        assert!(
            (t.cost_ms - expect).abs() < 1e-9,
            "transfer {}→{} cost {} != α+β·b {}",
            t.from,
            t.to,
            t.cost_ms,
            expect
        );
    }
    let total: f64 = exec.transfers.records().iter().map(|t| t.cost_ms).sum();
    assert!((total - exec.transfers.total_cost_ms()).abs() < 1e-9);
}

#[test]
fn shipped_bytes_reflect_actual_row_encoding() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q10").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let exec = eng.execute(&opt.physical).unwrap();
    for t in exec.transfers.records() {
        // Every batch carries the 8-byte header plus per-row payloads; a
        // non-trivial transfer is strictly larger than its header.
        assert!(t.bytes >= 8, "batch smaller than its header");
        if t.rows > 0 {
            assert!(t.bytes > 8 + t.rows, "suspiciously small payload");
        }
    }
}

#[test]
fn execution_is_deterministic() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q3").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let a = eng.execute(&opt.physical).unwrap();
    let b = eng.execute(&opt.physical).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.transfers.total_bytes(), b.transfers.total_bytes());
}

#[test]
fn intra_site_pipelines_ship_nothing() {
    // A query confined to one site moves zero bytes.
    let eng = engine();
    let (opt, exec) = eng
        .run_sql(
            "SELECT c_mktsegment, COUNT(c_custkey) AS n FROM customer \
             GROUP BY c_mktsegment",
            OptimizerMode::Compliant,
            Some(Location::new("L1")),
            &ExecOptions::default(),
        )
        .unwrap();
    assert_eq!(opt.physical.ship_count(), 0);
    assert_eq!(exec.transfers.transfer_count(), 0);
    assert_eq!(exec.rows.len(), 5);
}
