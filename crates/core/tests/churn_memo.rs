//! Regression: an implication memo shared across a catalog change
//! answers exactly as no memo would.
//!
//! The memo keys a verdict by the two predicates it relates — the query
//! predicate and the expression predicate — never by a catalog snapshot,
//! so an engine forked over the catalog after a grant or revoke shares
//! its parent's memo. The one precondition: a verdict depends on nothing
//! but its key. This test holds the fork to a memo-less reference over
//! the new snapshot: the same located plans, and the same `𝒜(q)` for
//! every local query.

use geoqp_common::{DataType, Field, Location, LocationSet, Schema, TableRef, Value};
use geoqp_core::normalize::normalize_plan;
use geoqp_core::{CatalogService, Engine, OptimizerMode};
use geoqp_net::NetworkTopology;
use geoqp_plan::descriptor::describe_local;
use geoqp_policy::{PolicyCatalog, PolicyEvaluator};
use geoqp_storage::{Catalog, Table, TableStats};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.add_database("db-eu", Location::new("EU")).unwrap();
    c.add_database("db-us", Location::new("US")).unwrap();
    let users = c
        .add_table(
            "db-eu",
            "users",
            Schema::new(vec![
                Field::new("u_id", DataType::Int64),
                Field::new("u_name", DataType::Str),
                Field::new("u_email", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(2, 48.0),
        )
        .unwrap();
    let events = c
        .add_table(
            "db-us",
            "events",
            Schema::new(vec![
                Field::new("e_user", DataType::Int64),
                Field::new("e_kind", DataType::Str),
            ])
            .unwrap(),
            // Costed as the big side, so the join runs in US unless a
            // policy keeps names in EU.
            TableStats::new(1000, 16.0),
        )
        .unwrap();
    users
        .set_data(
            Table::new(
                Arc::clone(&users.schema),
                vec![
                    vec![Value::Int64(1), Value::str("alice"), Value::str("a@eu")],
                    vec![Value::Int64(2), Value::str("bob"), Value::str("b@eu")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
    events
        .set_data(
            Table::new(
                Arc::clone(&events.schema),
                vec![
                    vec![Value::Int64(1), Value::str("click")],
                    vec![Value::Int64(2), Value::str("view")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
    Arc::new(c)
}

fn policies(catalog: &Catalog) -> PolicyCatalog {
    let mut p = PolicyCatalog::new();
    for (table, text) in [
        ("users", "ship u_id, u_name from users to *"),
        (
            "users",
            "ship u_id, u_email from users to US where u_id > 1",
        ),
        ("events", "ship * from events to *"),
    ] {
        let expr = geoqp_parser::parse_policy(text).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
        p.register(expr, &entry.schema).unwrap();
    }
    p
}

const WORKLOAD: [&str; 5] = [
    "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user",
    "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user AND u_id > 1",
    "SELECT u_email FROM users WHERE u_id > 1",
    "SELECT u_email FROM users WHERE u_id = 2",
    "SELECT e_kind FROM events WHERE e_user > 0",
];

/// Optimize the workload on `forked` and on a brand-new engine over the
/// same snapshot, and require the same located plans. Then require the
/// fork's shared memo to give every local query of the workload the
/// legal set a memo-less evaluator gives it. Returns the implication
/// proofs the fork ran.
fn assert_plans_as_memo_less(forked: &Engine) -> u64 {
    let memo = forked.implication_memo();
    let misses = memo.misses();
    let fresh = Engine::new(
        Arc::clone(forked.catalog()),
        Arc::clone(forked.policies()),
        forked.topology().clone(),
    );
    let locations = forked.catalog().locations();
    for sql in WORKLOAD {
        let got = forked.optimize_sql(sql, OptimizerMode::Compliant, None);
        let want = fresh.optimize_sql(sql, OptimizerMode::Compliant, None);
        let (got, want) = (got.unwrap(), want.unwrap());
        assert_eq!(got.physical, want.physical, "{sql}");
        let shared = PolicyEvaluator::with_memo(forked.policies(), locations, memo);
        let memo_less = PolicyEvaluator::new(forked.policies(), locations);
        normalize_plan(&got.query).unwrap().visit(&mut |node| {
            if let Some(q) = describe_local(node) {
                assert_eq!(shared.evaluate(&q), memo_less.evaluate(&q), "{sql}: {q:?}");
            }
        });
    }
    memo.misses() - misses
}

#[test]
fn a_fork_shares_the_memo_and_plans_as_a_memo_less_engine() {
    let catalog = catalog();
    let base = policies(&catalog);
    let topology = NetworkTopology::uniform(LocationSet::from_iter(["EU", "US"]), 10.0, 100.0);
    let engine = Engine::new(Arc::clone(&catalog), Arc::new(base.clone()), topology);
    let svc = CatalogService::new(&engine);

    // Warm the memo over the base catalog.
    let cold_proofs = assert_plans_as_memo_less(&engine);
    assert!(cold_proofs > 0, "the first pass populates the memo");

    // Revoke the policy that lets names leave EU: plans must move, and
    // the fork must plan exactly as a memo-less engine would, while
    // sharing — not copying — its parent's memo.
    let seq = svc.revoke(0).unwrap();
    let forked = svc.engine(seq).unwrap();
    assert!(std::ptr::eq(
        forked.implication_memo(),
        engine.implication_memo()
    ));
    let before = engine
        .optimize_sql(WORKLOAD[0], OptimizerMode::Compliant, None)
        .unwrap();
    let after = forked
        .optimize_sql(WORKLOAD[0], OptimizerMode::Compliant, None)
        .unwrap();
    assert_ne!(
        before.physical, after.physical,
        "the revocation moves the join"
    );
    assert_eq!(
        assert_plans_as_memo_less(&forked),
        0,
        "every verdict the new catalog needs was proven under the old one"
    );

    // Revoke-then-regrant: the same content under a new pid and seq. The
    // regranted policy's verdicts were proven before the revocation, and
    // they still answer exactly.
    let regrant = geoqp_parser::parse_policy("ship u_id, u_name from users to *").unwrap();
    let seq = svc.grant(regrant).unwrap();
    let refork = svc.engine(seq).unwrap();
    assert_eq!(refork.policies().expressions().last().unwrap().id, 3);
    assert_eq!(
        assert_plans_as_memo_less(&refork),
        0,
        "nothing left to prove"
    );
}
