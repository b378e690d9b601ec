//! The re-pin rule, end to end on the resilient engine.
//!
//! A revocation lands mid-flight and aborts the query. The query re-pins
//! to the catalog head it can see at the abort step — the newest entry of
//! either kind released by then — and re-plans there once. If a grant
//! that re-grows the legal set was released by the abort step, that head
//! holds it and the query completes; a grant released later is invisible,
//! and a refusal under the revocation alone is final (`NonCompliant`).
//! Identical seeds replay byte-identically.

use geoqp_common::{ChurnEvent, DataType, Field, Location, LocationSet, Schema, TableRef, Value};
use geoqp_core::{CatalogService, Engine, ExecOptions, OptimizerMode};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, NetworkTopology};
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
            ])
            .unwrap(),
            TableStats::new(2, 32.0),
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
                    vec![Value::Int64(1), Value::str("alice")],
                    vec![Value::Int64(2), Value::str("bob")],
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

const USERS_POLICY: &str = "ship u_id, u_name from users to *";
const EVENTS_POLICY: &str = "ship * from events to *";

fn policies(catalog: &Catalog) -> PolicyCatalog {
    let mut p = PolicyCatalog::new();
    for (table, text) in [("users", USERS_POLICY), ("events", EVENTS_POLICY)] {
        let expr = geoqp_parser::parse_policy(text).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
        p.register(expr, &entry.schema).unwrap();
    }
    p
}

const SQL: &str = "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user";

/// The events policy is pid 1 (registration order). Revoking it while
/// the result must land at EU leaves no compliant placement: `e_kind`
/// can no longer cross US → EU.
const EVENTS_PID: u64 = 1;

#[derive(Debug)]
struct Run {
    rows: Vec<String>,
    transfer_bytes: u64,
    transfer_count: usize,
    replans: usize,
    churn_replans: u64,
    /// The Definition-1 audit of the completed plan under the catalog
    /// head.
    audit_at_head: geoqp_common::Result<()>,
}

/// One resilient execution against a scripted catalog: the events
/// policy is revoked (released at executor step `revoke_step`), and —
/// when `regrant` — granted back one sequence later (released at step
/// `grant_step`).
fn run_scripted(regrant: bool, revoke_step: u64, grant_step: u64) -> geoqp_common::Result<Run> {
    let catalog = catalog();
    let base = policies(&catalog);
    let topology = NetworkTopology::uniform(LocationSet::from_iter(["EU", "US"]), 10.0, 100.0);
    let engine = Engine::new(Arc::clone(&catalog), Arc::new(base.clone()), topology);
    let svc = CatalogService::new(&engine);
    let pin = 0;
    let rev = svc.revoke(EVENTS_PID).unwrap();
    let mut planned = vec![ChurnEvent {
        step: revoke_step,
        seq: rev,
        revocation: true,
    }];
    if regrant {
        let expr = geoqp_parser::parse_policy(EVENTS_POLICY).unwrap();
        let re = svc.grant(expr).unwrap();
        planned.push(ChurnEvent {
            step: grant_step,
            seq: re,
            revocation: false,
        });
    }
    let svc = Arc::new(svc.with_planned(planned));
    let optimized = engine
        .optimize_sql(SQL, OptimizerMode::Compliant, Some(Location::new("EU")))
        .unwrap();
    let faults = FaultPlan::new(7);
    let opts = ExecOptions::failover(&faults, &RetryPolicy::default(), 3)
        .with_churn(Arc::clone(&svc), pin);
    let result = engine.run(&optimized, &opts)?;
    Ok(Run {
        rows: result.rows.iter().map(|r| format!("{r:?}")).collect(),
        transfer_bytes: result.transfers.total_bytes(),
        transfer_count: result.transfers.records().len(),
        replans: result.replans,
        churn_replans: result.churn_replans,
        audit_at_head: svc.engine(svc.head())?.audit(&result.physical),
    })
}

#[test]
fn revocation_without_a_regrant_refuses_typed() {
    let err = run_scripted(false, 0, 0).unwrap_err();
    assert_eq!(err.kind(), "non-compliant");
    assert!(
        err.message().contains("no compliant placement survives"),
        "unexpected refusal: {}",
        err.message()
    );
}

#[test]
fn a_landed_grant_rescues_the_refused_query() {
    let run = run_scripted(true, 0, 0).expect("the regrant restores a compliant placement");
    assert_eq!(
        (run.replans, run.churn_replans),
        (1, 1),
        "one revocation re-plan, straight onto the head holding the grant"
    );
    run.audit_at_head
        .as_ref()
        .expect("the completed plan audits under the head");
    assert!(!run.rows.is_empty());
    // Same rows a churn-free execution produces.
    let baseline = run_scripted(true, 1000, 0).expect("revocation released after the query");
    assert_eq!(baseline.churn_replans, 0);
    assert_eq!(run.rows, baseline.rows);
}

#[test]
fn grants_landing_after_the_abort_step_cannot_rescue() {
    // The grant releases at step 1000, far beyond the abort step: at
    // retry time the query can only see the revocation, so it refuses
    // exactly as if no grant existed. No hindsight rescues.
    let err = run_scripted(true, 0, 1000).unwrap_err();
    assert_eq!(err.kind(), "non-compliant");
}

#[test]
fn grant_retry_replays_byte_identically_under_identical_seeds() {
    let a = run_scripted(true, 0, 0).unwrap();
    let b = run_scripted(true, 0, 0).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.transfer_bytes, b.transfer_bytes);
    assert_eq!(a.transfer_count, b.transfer_count);
    assert_eq!((a.replans, a.churn_replans), (b.replans, b.churn_replans));
}
