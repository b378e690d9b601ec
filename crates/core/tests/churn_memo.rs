//! Regression: a memoized implication verdict must never be served
//! across a catalog epoch bump.
//!
//! The implication memo caches `implies_opt` verdicts keyed by policy
//! content; a grant or revoke changes what the catalog implies, so an
//! engine forked onto a new epoch must start with a *cold* memo — its
//! hit/miss counters restart from zero and its first optimization pass
//! records only misses. The original engine's memo (and the epoch it
//! was warmed under) stays untouched.

use geoqp_common::{DataType, Field, Location, LocationSet, Schema, TableRef, Value};
use geoqp_core::{CatalogService, Engine, OptimizerMode};
use geoqp_net::NetworkTopology;
use geoqp_policy::PolicyCatalog;
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
            TableStats::new(2, 16.0),
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
        ("events", "ship * from events to *"),
    ] {
        let expr = geoqp_parser::parse_policy(text).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
        p.register(expr, &entry.schema).unwrap();
    }
    p
}

const SQL: &str = "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user";

#[test]
fn implication_memo_restarts_cold_across_an_epoch_bump() {
    let catalog = catalog();
    let base = policies(&catalog);
    let topology = NetworkTopology::uniform(LocationSet::from_iter(["EU", "US"]), 10.0, 100.0);
    let engine = Engine::new(Arc::clone(&catalog), Arc::new(base.clone()), topology);
    let svc = CatalogService::new(Arc::clone(&catalog), base, Location::new("EU"));

    // Warm the memo: the second identical optimization is served from it.
    engine
        .optimize_sql(SQL, OptimizerMode::Compliant, None)
        .unwrap();
    let warm_misses = engine.implication_memo().misses();
    assert!(warm_misses > 0, "first pass populates the memo");
    engine
        .optimize_sql(SQL, OptimizerMode::Compliant, None)
        .unwrap();
    let warm_hits = engine.implication_memo().hits();
    assert!(warm_hits > 0, "second pass must hit the warmed memo");

    // Grant a new policy: the epoch bumps, and the forked engine's memo
    // is cold — zero hits, zero misses, zero cached verdicts.
    let grant = geoqp_parser::parse_policy("ship u_email from users to EU").unwrap();
    let pin = svc.grant(grant).unwrap();
    let forked = engine.fork_with_policies(svc.snapshot(pin.seq).unwrap());
    assert_ne!(pin.epoch, svc.epoch_at(0).unwrap());
    assert_eq!(forked.implication_memo().hits(), 0);
    assert_eq!(forked.implication_memo().misses(), 0);
    assert_eq!(forked.implication_memo().len(), 0);

    // The fork's first pass behaves exactly like a brand-new engine over
    // the same snapshot: identical hit/miss/len counters. Any verdict
    // smuggled across the epoch bump would show up as extra hits (and
    // fewer misses) than the genuinely cold engine records.
    forked
        .optimize_sql(SQL, OptimizerMode::Compliant, None)
        .unwrap();
    let fresh = Engine::new(
        Arc::clone(&catalog),
        svc.snapshot(pin.seq).unwrap(),
        forked.topology().clone(),
    );
    fresh
        .optimize_sql(SQL, OptimizerMode::Compliant, None)
        .unwrap();
    assert_eq!(
        forked.implication_memo().hits(),
        fresh.implication_memo().hits(),
        "a forked engine's first pass must hit exactly as often as a cold engine's"
    );
    assert_eq!(
        forked.implication_memo().misses(),
        fresh.implication_memo().misses()
    );
    assert_eq!(
        forked.implication_memo().len(),
        fresh.implication_memo().len()
    );
    assert!(forked.implication_memo().misses() > 0);

    // The original engine's memo is untouched by the fork's activity.
    assert_eq!(engine.implication_memo().hits(), warm_hits);
    assert_eq!(engine.implication_memo().misses(), warm_misses);

    // Revoke-then-regrant restores the policy *content* but chains to a
    // fresh epoch — so even an identical catalog restarts the memo cold
    // rather than resurrecting verdicts from before the revocation.
    let pid = svc
        .find_live("ship u_email from users to EU")
        .expect("the grant is live");
    svc.revoke(pid).unwrap();
    let regrant = geoqp_parser::parse_policy("ship u_email from users to EU").unwrap();
    let repin = svc.grant(regrant).unwrap();
    assert_ne!(
        repin.epoch, pin.epoch,
        "revoke-then-regrant must not return to the revoked epoch"
    );
    let refork = engine.fork_with_policies(svc.snapshot(repin.seq).unwrap());
    assert_eq!(refork.implication_memo().len(), 0, "cold again");
}
