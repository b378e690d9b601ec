//! Engine option plumbing: objectives and ablation knobs stay sound.

use geoqp_common::{DataType, Field, Location, Schema, TableRef, Value};
use geoqp_core::{Engine, Objective, OptimizerMode, OptimizerOptions};
use geoqp_net::NetworkTopology;
use geoqp_parser::parse_policy;
use geoqp_policy::PolicyCatalog;
use geoqp_storage::{Catalog, Table, TableStats};
use std::sync::Arc;

fn engine() -> Engine {
    let mut catalog = Catalog::new();
    catalog.add_database("db-x", Location::new("X")).unwrap();
    catalog.add_database("db-y", Location::new("Y")).unwrap();
    catalog.add_database("db-z", Location::new("Z")).unwrap();
    let mk = |catalog: &mut Catalog, db: &str, name: &str, prefix: &str, n: i64| {
        let e = catalog
            .add_table(
                db,
                name,
                Schema::new(vec![
                    Field::new(format!("{prefix}_k"), DataType::Int64),
                    Field::new(format!("{prefix}_v"), DataType::Int64),
                ])
                .unwrap(),
                TableStats::new(n as u64, 18.0),
            )
            .unwrap();
        e.set_data(
            Table::new(
                Arc::clone(&e.schema),
                (0..n)
                    .map(|i| vec![Value::Int64(i % 5), Value::Int64(i)])
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
    };
    mk(&mut catalog, "db-x", "tx", "x", 40);
    mk(&mut catalog, "db-y", "ty", "y", 30);
    mk(&mut catalog, "db-z", "tz", "z", 20);
    let mut policies = PolicyCatalog::new();
    for t in ["tx", "ty", "tz"] {
        let e = parse_policy(&format!("ship * from {t} to *")).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(t)).unwrap();
        policies.register(e, &entry.schema).unwrap();
    }
    Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(
            geoqp_common::LocationSet::from_iter(["X", "Y", "Z"]),
            10.0,
            100.0,
        ),
    )
}

const SQL: &str = "SELECT x_v, y_v, z_v FROM tx, ty, tz WHERE x_k = y_k AND y_k = z_k";

#[test]
fn both_objectives_produce_sound_equal_results() {
    let eng = engine();
    let ast = geoqp_parser::parse_query(SQL).unwrap();
    let plan = geoqp_parser::lower_query(&ast, eng.catalog()).unwrap();
    let mut results = Vec::new();
    for objective in [Objective::TotalCost, Objective::ResponseTime] {
        let opt = eng
            .optimize_opts(
                &plan,
                OptimizerMode::Compliant,
                None,
                &OptimizerOptions {
                    objective,
                    ..Default::default()
                },
            )
            .unwrap();
        eng.audit(&opt.physical).unwrap();
        let mut rows: Vec<_> = eng.execute(&opt.physical).unwrap().rows.into_rows();
        rows.sort();
        results.push(rows);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0].len(), 40 * 30 * 20 / 25); // 5-key cross groups: 8×6×4×5
}

#[test]
fn ablation_knobs_do_not_break_soundness() {
    let eng = engine();
    let ast = geoqp_parser::parse_query(SQL).unwrap();
    let plan = geoqp_parser::lower_query(&ast, eng.catalog()).unwrap();
    for opts in [
        OptimizerOptions {
            disable_aggregate_pushdown: true,
            ..Default::default()
        },
        OptimizerOptions {
            frontier_cap: Some(1),
            ..Default::default()
        },
        OptimizerOptions {
            frontier_cap: Some(0), // clamps to 1
            ..Default::default()
        },
    ] {
        let opt = eng
            .optimize_opts(&plan, OptimizerMode::Compliant, None, &opts)
            .unwrap();
        eng.audit(&opt.physical).unwrap();
    }
}

#[test]
fn unknown_result_location_is_a_typed_error_not_a_policy_refusal() {
    let eng = engine();
    let err = eng
        .optimize_sql(SQL, OptimizerMode::Compliant, Some(Location::new("W")))
        .unwrap_err();
    assert_ne!(err.kind(), "rejected", "a typo is not a refusal: {err}");
    let msg = err.to_string();
    assert!(msg.contains("`W`") && msg.contains("{X, Y, Z}"), "{msg}");
    // The traditional optimizer takes the same gate.
    assert!(eng
        .optimize_sql(SQL, OptimizerMode::Traditional, Some(Location::new("W")))
        .is_err());
    // A real site still plans there.
    let opt = eng
        .optimize_sql(SQL, OptimizerMode::Compliant, Some(Location::new("Z")))
        .unwrap();
    assert_eq!(opt.result_location, Location::new("Z"));
}
