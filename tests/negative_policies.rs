//! Negative ("deny") policies through the whole engine: closed-world
//! expansion feeding the optimizer, Theorem-1 soundness intact.

use geoqp::parser::parse_denial;
use geoqp::policy::expand_denials;
use geoqp::prelude::*;
use std::sync::Arc;

fn deployment() -> (
    Catalog,
    Arc<geoqp::storage::TableEntry>,
    Arc<geoqp::storage::TableEntry>,
) {
    let mut catalog = Catalog::new();
    catalog.add_database("db-de", Location::new("DE")).unwrap();
    catalog.add_database("db-us", Location::new("US")).unwrap();
    let people = catalog
        .add_table(
            "db-de",
            "people",
            Schema::new(vec![
                Field::new("p_id", DataType::Int64),
                Field::new("p_name", DataType::Str),
                Field::new("p_ssn", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(4, 32.0),
        )
        .unwrap();
    let visits = catalog
        .add_table(
            "db-us",
            "visits",
            Schema::new(vec![
                Field::new("v_person", DataType::Int64),
                Field::new("v_site", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(6, 16.0),
        )
        .unwrap();
    people
        .set_data(
            Table::new(
                Arc::clone(&people.schema),
                (1..=4)
                    .map(|i| {
                        vec![
                            Value::Int64(i),
                            Value::str(format!("person{i}")),
                            Value::str(format!("ssn-{i}")),
                        ]
                    })
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
    visits
        .set_data(
            Table::new(
                Arc::clone(&visits.schema),
                vec![
                    vec![Value::Int64(1), Value::str("a")],
                    vec![Value::Int64(1), Value::str("b")],
                    vec![Value::Int64(2), Value::str("a")],
                    vec![Value::Int64(3), Value::str("c")],
                    vec![Value::Int64(4), Value::str("a")],
                    vec![Value::Int64(4), Value::str("c")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
    (catalog, people, visits)
}

#[test]
fn denial_expanded_engine_plans_around_the_denied_column() {
    let (catalog, people, visits) = deployment();
    let universe = catalog.locations().clone();

    // Only the SSN is restricted; everything else follows from the closed
    // world assumption.
    let denials = vec![parse_denial("deny ship p_ssn from people to *").unwrap()];
    let mut policies = PolicyCatalog::new();
    for g in expand_denials(
        &TableRef::bare("people"),
        &people.schema,
        &denials,
        &universe,
    )
    .unwrap()
    {
        policies.register(g, &people.schema).unwrap();
    }
    for g in expand_denials(&TableRef::bare("visits"), &visits.schema, &[], &universe).unwrap() {
        policies.register(g, &visits.schema).unwrap();
    }

    let engine = Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(universe, 50.0, 200.0),
    );

    // The join works compliantly: names may cross, SSNs may not — and the
    // optimizer masks them out before shipping.
    let (opt, result) = engine
        .run_sql(
            "SELECT p_name, v_site FROM people, visits WHERE p_id = v_person \
             ORDER BY p_name, v_site",
            OptimizerMode::Compliant,
            Some(Location::new("US")),
            &ExecOptions::default(),
        )
        .unwrap();
    engine.audit(&opt.physical).unwrap();
    assert_eq!(result.rows.len(), 6);
    opt.physical.visit(&mut |p| {
        if matches!(p.op, geoqp::plan::PhysOp::Ship) {
            assert!(p.schema.index_of("p_ssn").is_none(), "SSN crossed a border");
        }
    });

    // Demanding SSNs in the US is rejected.
    let err = engine
        .optimize_sql(
            "SELECT p_ssn, v_site FROM people, visits WHERE p_id = v_person",
            OptimizerMode::Compliant,
            Some(Location::new("US")),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "rejected");

    // But they remain queryable at home.
    assert!(engine
        .optimize_sql(
            "SELECT p_ssn FROM people",
            OptimizerMode::Compliant,
            Some(Location::new("DE")),
        )
        .is_ok());
}

#[test]
fn conditional_denial_interacts_with_query_predicates() {
    let (catalog, people, visits) = deployment();
    let universe = catalog.locations().clone();

    // People with id < 3 are confidential abroad.
    let denials = vec![parse_denial("deny ship * from people to US where p_id < 3").unwrap()];
    let mut policies = PolicyCatalog::new();
    for g in expand_denials(
        &TableRef::bare("people"),
        &people.schema,
        &denials,
        &universe,
    )
    .unwrap()
    {
        policies.register(g, &people.schema).unwrap();
    }
    for g in expand_denials(&TableRef::bare("visits"), &visits.schema, &[], &universe).unwrap() {
        policies.register(g, &visits.schema).unwrap();
    }
    let engine = Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(universe, 50.0, 200.0),
    );

    // Excluding the confidential rows satisfies the complement guard.
    let (opt, result) = engine
        .run_sql(
            "SELECT p_name, v_site FROM people, visits \
             WHERE p_id = v_person AND p_id >= 3",
            OptimizerMode::Compliant,
            Some(Location::new("US")),
            &ExecOptions::default(),
        )
        .unwrap();
    engine.audit(&opt.physical).unwrap();
    assert_eq!(result.rows.len(), 3); // person3 ×1, person4 ×2

    // Without the exclusion, the only compliant shape is to bring visits
    // to DE — which a US result location forbids for people rows.
    let err = engine
        .optimize_sql(
            "SELECT p_name, v_site FROM people, visits WHERE p_id = v_person",
            OptimizerMode::Compliant,
            Some(Location::new("US")),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "rejected");
}
