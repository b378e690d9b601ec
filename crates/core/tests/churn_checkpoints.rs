//! A revocation restricts the run's checkpoint store to what the new
//! policy snapshot allows.
//!
//! `users` lives at S and may ship to the cheap hub B or to D; `events`
//! lives at U and may ship anywhere. With the result at D, the optimizer
//! joins at B, so the first attempt checkpoints the `users` subtree at
//! both ends of S → B. Revoking "users to B" mid-flight re-plans the join
//! to D, and the `users` edge S → D has the same producer subtree as
//! before. Its checkpoint at B must not be resumed, and must not remain
//! in the store: B left that subtree's shipping trait. The audit cannot
//! catch a stale home on its own, because a resume leaf is audited
//! against the trait its checkpoint records.

use geoqp_common::{ChurnEvent, DataType, Field, Location, LocationSet, Schema, TableRef, Value};
use geoqp_core::{CatalogService, CheckpointStore, ChurnOpts, Engine, ExecOptions, OptimizerMode};
use geoqp_exec::RetryPolicy;
use geoqp_net::topology::Link;
use geoqp_net::{FaultPlan, NetworkTopology};
use geoqp_plan::{LogicalPlan, PhysOp};
use geoqp_policy::PolicyCatalog;
use geoqp_storage::{Catalog, Table, TableStats};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    for (db, site) in [("db-s", "S"), ("db-u", "U"), ("db-b", "B"), ("db-d", "D")] {
        c.add_database(db, Location::new(site)).unwrap();
    }
    let tables = [
        ("db-s", "users", ["u_id", "u_name"]),
        ("db-u", "events", ["e_user", "e_kind"]),
    ];
    for (db, name, [key, text]) in tables {
        let schema = Schema::new(vec![
            Field::new(key, DataType::Int64),
            Field::new(text, DataType::Str),
        ])
        .unwrap();
        let entry = c
            .add_table(db, name, schema, TableStats::new(40, 24.0))
            .unwrap();
        let rows = (0..40)
            .map(|i| vec![Value::Int64(i), Value::str(format!("{name}-{i}"))])
            .collect();
        entry
            .set_data(Table::new(Arc::clone(&entry.schema), rows).unwrap())
            .unwrap();
    }
    Arc::new(c)
}

const POLICIES: [(&str, &str); 3] = [
    ("users", "ship * from users to B"),
    ("users", "ship * from users to D"),
    ("events", "ship * from events to *"),
];

/// The pid of "users to B" (registration order).
const USERS_TO_B: u64 = 0;

fn policies(catalog: &Catalog) -> PolicyCatalog {
    let mut p = PolicyCatalog::new();
    for (table, text) in POLICIES {
        let expr = geoqp_parser::parse_policy(text).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
        p.register(expr, &entry.schema).unwrap();
    }
    p
}

/// Every link costs 100 ms except the hub's (1 ms) and U → D (50 ms):
/// the join goes to B, and once B is out for `users`, to D.
fn topology() -> NetworkTopology {
    let sites = LocationSet::from_iter(["S", "U", "B", "D"]);
    let mut t = NetworkTopology::uniform(sites, 100.0, 100.0);
    for (from, to, alpha_ms) in [
        ("S", "B", 1.0),
        ("U", "B", 1.0),
        ("B", "D", 1.0),
        ("U", "D", 50.0),
    ] {
        let link = Link {
            alpha_ms,
            beta_ms_per_byte: 1e-6,
        };
        t.set_link(Location::new(from), Location::new(to), link);
    }
    t
}

const SQL: &str = "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user";

/// Whether a retained subtree holds `users` data.
fn reads_users(logical: &LogicalPlan) -> bool {
    logical
        .tables()
        .iter()
        .any(|t| t.matches(&TableRef::bare("users")))
}

#[test]
fn a_revocation_drops_checkpoints_homed_where_the_new_snapshot_forbids() {
    let catalog = catalog();
    let base = policies(&catalog);
    let engine = Engine::new(Arc::clone(&catalog), Arc::new(base.clone()), topology());
    let optimized = engine
        .optimize_sql(SQL, OptimizerMode::Compliant, Some(Location::new("D")))
        .unwrap();
    let hub = Location::new("B");
    let mut joins_at_hub = false;
    optimized.physical.visit(&mut |p| {
        joins_at_hub |= matches!(p.op, PhysOp::HashJoin { .. }) && p.location == hub;
    });
    assert!(
        joins_at_hub,
        "the scenario needs the join at B: {:?}",
        optimized.physical
    );
    let faults = FaultPlan::new(7);
    let retry = RetryPolicy::default();
    let reference = engine
        .run(&optimized, &ExecOptions::failover(&faults, &retry, 0))
        .unwrap();
    let mut expected: Vec<String> = reference.rows.iter().map(|r| format!("{r:?}")).collect();
    expected.sort();

    let mut resumed_runs = 0;
    for step in 0..24 {
        let svc = CatalogService::new(&engine);
        let pin = 0;
        let rev = svc.revoke(USERS_TO_B).unwrap();
        let svc = Arc::new(svc.with_planned(vec![ChurnEvent {
            step,
            seq: rev,
            revocation: true,
        }]));
        let store = CheckpointStore::new();
        let opts = ExecOptions::failover(&faults, &retry, 3)
            .with_store(&store)
            .with_churn(Arc::clone(&svc), pin);
        let outcome = engine.run(&optimized, &opts).unwrap();
        let mut rows: Vec<String> = outcome.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        assert_eq!(rows, expected, "step {step}: answer changed");
        if outcome.churn_replans == 0 {
            continue;
        }
        outcome.physical.visit(&mut |p| {
            if let PhysOp::ResumeScan { logical, .. } = &p.op {
                assert!(
                    p.location != hub || !reads_users(logical),
                    "step {step}: users data resumed from B after its revocation"
                );
            }
        });
        for cp in store.snapshot() {
            assert!(
                cp.home != hub || !reads_users(&cp.logical),
                "step {step}: a users checkpoint outlived its revocation at B"
            );
        }
        resumed_runs += usize::from(outcome.checkpoint_hits > 0);
    }
    assert!(resumed_runs > 0, "no revocation step resumed a checkpoint");
}

/// The path every service query runs: a churn watch and a re-plan budget,
/// with no fault plan and no checkpoint store. A revocation published
/// before the run catches the first batch, the run re-pins to the head
/// and re-plans once, nothing is resumed, and the plan that completes
/// audits clean under the head — which the admission plan does not.
#[test]
fn a_plain_run_replans_once_under_a_revocation_published_before_it() {
    let catalog = catalog();
    let base = policies(&catalog);
    let engine = Engine::new(Arc::clone(&catalog), Arc::new(base.clone()), topology());
    let optimized = engine
        .optimize_sql(SQL, OptimizerMode::Compliant, Some(Location::new("D")))
        .unwrap();
    let reference = engine.run(&optimized, &ExecOptions::default()).unwrap();
    let mut expected: Vec<String> = reference.rows.iter().map(|r| format!("{r:?}")).collect();
    expected.sort();

    let svc = Arc::new(CatalogService::new(&engine));
    let head = svc.revoke(USERS_TO_B).unwrap();
    let opts = ExecOptions {
        churn: Some(ChurnOpts {
            service: Arc::clone(&svc),
            pin: 0,
        }),
        max_replans: 3,
        ..ExecOptions::default()
    };
    let outcome = engine.run(&optimized, &opts).unwrap();
    assert_eq!((outcome.replans, outcome.churn_replans), (1, 1));
    assert_eq!(outcome.resumed_bytes, 0);
    assert_eq!(outcome.checkpoint_hits, 0);
    let mut rows: Vec<String> = outcome.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    assert_eq!(rows, expected);

    let at_head = svc.engine(head).unwrap();
    at_head.audit(&outcome.physical).unwrap();
    assert!(
        at_head.audit(&optimized.physical).is_err(),
        "the admission plan ships users to B, which the head forbids"
    );
}

/// The same run with no re-plan budget: the revocation published before
/// it catches the first batch, and the query is refused typed instead of
/// shipping under the revoked grant.
#[test]
fn a_plain_run_without_a_replan_budget_is_refused_under_a_revocation_published_before_it() {
    let catalog = catalog();
    let engine = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies(&catalog)),
        topology(),
    );
    let optimized = engine
        .optimize_sql(SQL, OptimizerMode::Compliant, Some(Location::new("D")))
        .unwrap();
    let svc = Arc::new(CatalogService::new(&engine));
    svc.revoke(USERS_TO_B).unwrap();
    let opts = ExecOptions {
        churn: Some(ChurnOpts {
            service: Arc::clone(&svc),
            pin: 0,
        }),
        max_replans: 0,
        ..ExecOptions::default()
    };
    let err = engine.run(&optimized, &opts).expect_err("refused");
    assert_eq!(err.kind(), "non-compliant", "{err}");
}
