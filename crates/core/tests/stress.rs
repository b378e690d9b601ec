//! Stress and edge-case tests for the optimizer: deep chains, wide
//! unions, degenerate inputs.

use geoqp_common::{DataType, Field, Location, LocationSet, Schema, TableRef};
use geoqp_core::{Engine, ExecOptions, OptimizerMode};
use geoqp_net::NetworkTopology;
use geoqp_plan::PlanBuilder;
use geoqp_policy::{PolicyCatalog, PolicyExpression, ShipAttrs};
use geoqp_storage::{Catalog, TableStats};
use std::sync::Arc;

fn chain_engine(n: usize) -> (Engine, Arc<geoqp_plan::LogicalPlan>) {
    let mut catalog = Catalog::new();
    let mut policies = PolicyCatalog::new();
    let mut builders: Vec<PlanBuilder> = Vec::new();
    for i in 0..n {
        let db = format!("db-{i}");
        let loc = Location::new(format!("S{i}"));
        catalog.add_database(&db, loc.clone()).unwrap();
        let schema = Schema::new(vec![
            Field::new(format!("t{i}_k"), DataType::Int64),
            Field::new(format!("t{i}_n"), DataType::Int64),
            Field::new(format!("t{i}_v"), DataType::Int64),
        ])
        .unwrap();
        let entry = catalog
            .add_table(
                &db,
                format!("t{i}"),
                schema.clone(),
                TableStats::new(1000 + i as u64 * 100, 27.0),
            )
            .unwrap();
        policies
            .register(
                PolicyExpression::basic(
                    TableRef::bare(format!("t{i}")),
                    ShipAttrs::Star,
                    geoqp_common::LocationPattern::Star,
                    None,
                ),
                &entry.schema,
            )
            .unwrap();
        builders.push(PlanBuilder::scan(entry.table.clone(), loc, schema));
    }
    let mut iter = builders.into_iter();
    let mut acc = iter.next().unwrap();
    for (i, b) in iter.enumerate() {
        let lk = format!("t{i}_n");
        let rk = format!("t{}_k", i + 1);
        acc = acc.join(b, vec![(lk.as_str(), rk.as_str())]).unwrap();
    }
    let plan = acc.build();
    let universe: LocationSet = LocationSet::from_iter((0..n).map(|i| format!("S{i}")));
    let engine = Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(universe, 20.0, 200.0),
    );
    (engine, plan)
}

#[test]
fn twelve_way_chain_join_optimizes_within_budget() {
    let (engine, plan) = chain_engine(12);
    assert_eq!(plan.join_count(), 11);
    let start = std::time::Instant::now();
    let opt = engine
        .optimize(&plan, OptimizerMode::Compliant, None)
        .expect("12-way chain must optimize");
    engine.audit(&opt.physical).unwrap();
    assert!(
        start.elapsed().as_secs() < 120,
        "optimization took {:?}",
        start.elapsed()
    );
    // Every scan site appears in the plan.
    let mut scans = 0;
    opt.physical.visit(&mut |p| {
        if matches!(p.op, geoqp_plan::PhysOp::Scan { .. }) {
            scans += 1;
        }
    });
    assert_eq!(scans, 12);
}

#[test]
fn single_table_projection_optimizes_trivially() {
    let (engine, _) = chain_engine(2);
    let opt = engine
        .optimize_sql(
            "SELECT t0_v FROM t0 WHERE t0_k > 3",
            OptimizerMode::Compliant,
            None,
        )
        .unwrap();
    assert_eq!(opt.physical.ship_count(), 0);
    assert!(opt.stats.memo_groups <= 5);
}

#[test]
fn wide_union_over_many_partitions() {
    // One logical table partitioned over 5 sites, unioned and aggregated.
    let catalog = Arc::new(geoqp_tpch::paper_catalog_partitioned(0.01, 5).unwrap());
    let policies =
        geoqp_tpch::generate_policies(&catalog, geoqp_tpch::PolicyTemplate::CRA, 10, 1).unwrap();
    let engine = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    let plan = geoqp_tpch::query_by_name(&catalog, "Q3").unwrap();
    let opt = engine
        .optimize(&plan, OptimizerMode::Compliant, None)
        .unwrap();
    engine.audit(&opt.physical).unwrap();
    // 5 customer + 5 orders partitions + 1 lineitem = 11 scans.
    let mut scans = 0;
    opt.physical.visit(&mut |p| {
        if matches!(p.op, geoqp_plan::PhysOp::Scan { .. }) {
            scans += 1;
        }
    });
    assert_eq!(scans, 11);
}

#[test]
fn unicode_values_flow_through_predicates_and_wire() {
    use geoqp_common::{Row, Rows, Value};
    let mut catalog = Catalog::new();
    catalog.add_database("db-u", Location::new("U")).unwrap();
    catalog.add_location(Location::new("V"));
    let entry = catalog
        .add_table(
            "db-u",
            "cities",
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("pop", DataType::Int64),
            ])
            .unwrap(),
            TableStats::new(4, 24.0),
        )
        .unwrap();
    let rows: Vec<Row> = vec![
        vec![Value::str("Zürich"), Value::Int64(400)],
        vec![Value::str("México"), Value::Int64(9000)],
        vec![Value::str("北京"), Value::Int64(21000)],
        vec![Value::str("Zagreb"), Value::Int64(800)],
    ];
    entry
        .set_data(geoqp_storage::Table::new(Arc::clone(&entry.schema), rows).unwrap())
        .unwrap();
    let mut policies = PolicyCatalog::new();
    policies
        .register(
            geoqp_parser::parse_policy("ship * from cities to *").unwrap(),
            &entry.schema,
        )
        .unwrap();
    let engine = Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(LocationSet::from_iter(["U", "V"]), 10.0, 100.0),
    );
    let (_, result) = engine
        .run_sql(
            "SELECT name FROM cities WHERE name LIKE 'Z%' ORDER BY name",
            OptimizerMode::Compliant,
            Some(Location::new("V")),
            &ExecOptions::default(),
        )
        .unwrap();
    let names: Vec<String> = result
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["Zagreb", "Zürich"]);
    assert_eq!(Rows::decode(&result.rows.encode(), 1).unwrap(), result.rows);
}
