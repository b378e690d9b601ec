//! Integration suite for the multi-tenant query service: admission
//! control, round-robin fairness, the value-keyed plan cache
//! (each key component, eviction by revocation only, LRU eviction,
//! hit/miss determinism, hits equal to a fresh optimize across policy
//! churn, failover from a hit), cancellation/deadline handling
//! mid-queue, and cross-tenant memo/plan isolation.

use geoqp_common::{
    CancelToken, DataType, Field, Location, LocationSet, QueryDeadline, Rows, Schema, TableRef,
    Value,
};
use geoqp_core::{ExecOptions, OptimizerMode};
use geoqp_net::topology::Link;
use geoqp_net::{FaultPlan, NetworkTopology, StepWindow};
use geoqp_policy::PolicyCatalog;
use geoqp_server::{QueryRequest, QueryService, ServiceConfig, TenantConfig, TenantId};
use geoqp_storage::{Catalog, Table, TableStats};
use geoqp_tpch::adhoc::generate_adhoc;
use geoqp_tpch::{generate_policies, PolicyTemplate};
use std::collections::HashSet;
use std::sync::Arc;

// ---------------------------------------------------------------- helpers

/// Two sites, two small populated tables: `users` in the EU holding a
/// sensitive email column, `events` in the US, joinable on user id.
fn tiny_catalog() -> Arc<Catalog> {
    let mut catalog = Catalog::new();
    catalog.add_database("db-eu", Location::new("EU")).unwrap();
    catalog.add_database("db-us", Location::new("US")).unwrap();
    catalog
        .add_table(
            "db-eu",
            "users",
            Schema::new(vec![
                Field::new("u_id", DataType::Int64),
                Field::new("u_name", DataType::Str),
                Field::new("u_email", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(3, 48.0),
        )
        .unwrap();
    catalog
        .add_table(
            "db-us",
            "events",
            Schema::new(vec![
                Field::new("e_user", DataType::Int64),
                Field::new("e_kind", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(4, 16.0),
        )
        .unwrap();
    let users = catalog.resolve_one(&TableRef::bare("users")).unwrap();
    users
        .set_data(
            Table::new(
                Arc::clone(&users.schema),
                vec![
                    vec![Value::Int64(1), Value::str("alice"), Value::str("a@eu")],
                    vec![Value::Int64(2), Value::str("bob"), Value::str("b@eu")],
                    vec![Value::Int64(3), Value::str("carol"), Value::str("c@eu")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let events = catalog.resolve_one(&TableRef::bare("events")).unwrap();
    events
        .set_data(
            Table::new(
                Arc::clone(&events.schema),
                vec![
                    vec![Value::Int64(1), Value::str("click")],
                    vec![Value::Int64(2), Value::str("view")],
                    vec![Value::Int64(1), Value::str("buy")],
                    vec![Value::Int64(3), Value::str("click")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
    Arc::new(catalog)
}

fn tiny_topology() -> NetworkTopology {
    NetworkTopology::uniform(LocationSet::from_iter(["EU", "US"]), 10.0, 100.0)
}

fn add_policy(policies: &mut PolicyCatalog, catalog: &Catalog, table: &str, text: &str) {
    let expr = geoqp_parser::parse_policy(text).unwrap();
    let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
    policies.register(expr, &entry.schema).unwrap();
}

/// Everything may ship anywhere.
fn permissive_policies(catalog: &Catalog) -> Arc<PolicyCatalog> {
    let mut p = PolicyCatalog::new();
    add_policy(&mut p, catalog, "users", "ship * from users to *");
    add_policy(&mut p, catalog, "events", "ship * from events to *");
    Arc::new(p)
}

/// Emails may never leave the EU; ids and names ship freely.
fn restrictive_policies(catalog: &Catalog) -> Arc<PolicyCatalog> {
    let mut p = PolicyCatalog::new();
    add_policy(
        &mut p,
        catalog,
        "users",
        "ship u_id, u_name from users to *",
    );
    add_policy(&mut p, catalog, "events", "ship * from events to *");
    Arc::new(p)
}

fn service(workers: usize, cache_capacity: usize) -> QueryService {
    QueryService::new(ServiceConfig {
        workers,
        cache_capacity,
        columnar: true,
        max_replans: 2,
    })
}

/// A query compliant under both policy sets: only names and kinds move.
const Q_NAMES: &str = "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user";
/// A query shipping raw emails — compliant only under the permissive set
/// when pinned outside the EU.
const Q_EMAILS: &str = "SELECT u_email, e_kind FROM users, events WHERE u_id = e_user";

/// TPC-H catalog at chaos-soak scale, populated, with a template policy
/// set — the substrate for execution-heavy tests.
fn tpch_setup(template: PolicyTemplate, seed: u64) -> (Arc<Catalog>, Arc<PolicyCatalog>) {
    const SF: f64 = 0.001;
    let catalog = Arc::new(geoqp_tpch::paper_catalog(SF));
    geoqp_tpch::populate(&catalog, SF, 7).unwrap();
    let policies = generate_policies(&catalog, template, 10, seed).unwrap();
    (catalog, Arc::new(policies))
}

// ------------------------------------------------------------- admission

/// Overflowing a tenant's backlog budget is refused immediately with the
/// typed admission error; queued-but-never-run queries resolve their
/// tickets with a typed cancellation at shutdown instead of hanging.
#[test]
fn admission_overflow_is_typed_and_shutdown_resolves_tickets() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    // `max_inflight: 0` makes the tenant permanently ineligible for
    // scheduling, so its queue fills deterministically.
    let tenant = svc.add_tenant(
        "stalled",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig {
            max_inflight: 0,
            max_queue: 3,
        },
    );

    let mut tickets = Vec::new();
    let mut rejections = Vec::new();
    for _ in 0..5 {
        match svc.submit(tenant, QueryRequest::new(Q_NAMES)) {
            Ok(t) => tickets.push(t),
            Err(e) => rejections.push(e),
        }
    }
    assert_eq!(tickets.len(), 3, "budget is 0 in flight + 3 queued");
    assert_eq!(rejections.len(), 2);
    for e in &rejections {
        assert_eq!(e.kind(), "admission", "typed rejection, got {e}");
    }
    let stats = svc.tenant_stats(tenant).unwrap();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.queued, 3);

    // Shutting the service down must resolve every queued ticket.
    drop(svc);
    for t in tickets {
        assert_eq!(t.wait().unwrap_err().kind(), "cancelled");
    }
}

#[test]
fn unknown_tenant_is_refused() {
    let svc = service(1, 4);
    let err = svc.submit(TenantId(42), QueryRequest::new(Q_NAMES));
    assert!(err.is_err());
}

// -------------------------------------------------------------- fairness

/// A tenant flooding its own queue cannot starve a trickle tenant: with
/// one worker, round-robin alternates between the two backlogged tenants, so the
/// trickle tenant's five queries all finish while the flood backlog is
/// still mostly unserved — its p99 stays below the flood tenant's median.
#[test]
fn flooding_tenant_cannot_starve_trickle_tenant() {
    let (catalog, policies) = tpch_setup(PolicyTemplate::T, 2021);
    let queries = generate_adhoc(&catalog, 50, 5).unwrap();
    let svc = service(1, 64);
    let flood = svc.add_tenant(
        "flood",
        catalog.clone(),
        policies.clone(),
        NetworkTopology::paper_wan(),
        TenantConfig {
            max_inflight: 1,
            max_queue: 40,
        },
    );
    let trickle = svc.add_tenant(
        "trickle",
        catalog.clone(),
        policies.clone(),
        NetworkTopology::paper_wan(),
        TenantConfig {
            max_inflight: 1,
            max_queue: 10,
        },
    );

    let mut flood_tickets = Vec::new();
    for q in queries.iter().take(40) {
        flood_tickets.push(svc.submit(flood, QueryRequest::new(&q.sql)).unwrap());
    }
    let mut trickle_tickets = Vec::new();
    for q in queries.iter().skip(40).take(5) {
        trickle_tickets.push(svc.submit(trickle, QueryRequest::new(&q.sql)).unwrap());
    }
    // Refill the flood queue past its budget: overflow must be refused
    // with the typed admission error, never queued.
    let mut overflow_rejections = 0;
    for q in queries.iter().take(30) {
        match svc.submit(flood, QueryRequest::new(&q.sql)) {
            Ok(t) => flood_tickets.push(t),
            Err(e) => {
                assert_eq!(e.kind(), "admission", "typed overflow, got {e}");
                overflow_rejections += 1;
            }
        }
    }
    assert!(
        overflow_rejections > 0,
        "a 30-query burst on a full 40-slot queue must overflow"
    );

    svc.wait_idle();
    for t in trickle_tickets {
        t.wait().expect("trickle queries must all complete");
    }
    for t in flood_tickets {
        t.wait().expect("admitted flood queries complete too");
    }

    let fs = svc.tenant_stats(flood).unwrap();
    let ts = svc.tenant_stats(trickle).unwrap();
    assert_eq!(ts.completed, 5);
    assert_eq!(fs.rejected, overflow_rejections);
    // The fairness property: interleaved 1:1, the trickle tenant is done
    // within ~10 service slots while the flood median sits near slot 20+.
    assert!(
        ts.p99_ms < fs.p99_ms,
        "trickle p99 {:.1} ms must beat flood p99 {:.1} ms",
        ts.p99_ms,
        fs.p99_ms
    );
    assert!(
        ts.p99_ms < fs.p50_ms,
        "trickle p99 {:.1} ms must beat the flood median {:.1} ms",
        ts.p99_ms,
        fs.p50_ms
    );
}

// ------------------------------------------- cancellation and deadlines

/// Cancellation and deadlines firing while queries sit in the queue (or
/// mid-execution) unwind typed-ly, every ticket resolves, and the
/// service keeps serving afterwards — no deadlock, no wedged workers.
#[test]
fn cancellation_and_deadlines_mid_queue_do_not_deadlock() {
    let (catalog, policies) = tpch_setup(PolicyTemplate::C, 7);
    let queries = generate_adhoc(&catalog, 24, 11).unwrap();
    let svc = service(2, 32);
    let tenant = svc.add_tenant(
        "churn",
        catalog.clone(),
        policies,
        NetworkTopology::paper_wan(),
        TenantConfig {
            max_inflight: 2,
            max_queue: 100,
        },
    );

    let mut cancelled = Vec::new();
    let mut deadlined = Vec::new();
    let mut plain = Vec::new();
    let mut tokens = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        match i % 3 {
            0 => {
                let token = CancelToken::new();
                let req = QueryRequest::new(&q.sql).with_cancel(token.clone());
                cancelled.push(svc.submit(tenant, req).unwrap());
                tokens.push(token);
            }
            1 => {
                // A budget no multi-site query can meet: the first WAN
                // transfer already spends more simulated time.
                let req = QueryRequest::new(&q.sql).with_deadline(QueryDeadline::new(0.001));
                deadlined.push(svc.submit(tenant, req).unwrap());
            }
            _ => plain.push(svc.submit(tenant, QueryRequest::new(&q.sql)).unwrap()),
        }
    }
    // Fire every cancellation while most of the backlog is still queued.
    for token in &tokens {
        token.cancel();
    }

    svc.wait_idle();
    for t in cancelled {
        // A query may legitimately have finished before its token fired.
        match t.wait() {
            Ok(_) => {}
            Err(e) => assert_eq!(e.kind(), "cancelled", "got {e}"),
        }
    }
    for t in deadlined {
        assert_eq!(t.wait().unwrap_err().kind(), "deadline");
    }
    for t in plain {
        t.wait().expect("unencumbered queries complete");
    }

    let stats = svc.tenant_stats(tenant).unwrap();
    assert_eq!(stats.completed + stats.failed, stats.admitted);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.queued, 0);

    // The pool is still alive and serving.
    let reply = svc
        .submit(tenant, QueryRequest::new(&queries[2].sql))
        .unwrap()
        .wait()
        .unwrap();
    assert!(reply.latency_ms >= 0.0);
}

// ------------------------------------------------------------ plan cache

/// A cache hit must be observationally identical to the miss that seeded
/// it: same rows, same transfers (bytes, routes, costs), same result
/// location.
#[test]
fn cache_hit_and_miss_yield_identical_results() {
    let (catalog, policies) = tpch_setup(PolicyTemplate::T, 3);
    let queries = generate_adhoc(&catalog, 4, 17).unwrap();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        policies,
        NetworkTopology::paper_wan(),
        TenantConfig::default(),
    );

    for q in &queries {
        let miss = svc
            .submit(tenant, QueryRequest::new(&q.sql))
            .unwrap()
            .wait()
            .unwrap();
        let hit = svc
            .submit(tenant, QueryRequest::new(&q.sql))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!miss.cached, "first run optimizes fresh: {}", q.sql);
        assert!(hit.cached, "second run must hit the cache: {}", q.sql);
        assert_eq!(miss.rows, hit.rows, "rows differ for {}", q.sql);
        assert_eq!(
            miss.transfers, hit.transfers,
            "transfer logs differ for {}",
            q.sql
        );
        assert_eq!(miss.result_location, hit.result_location);
    }
    let cs = svc.cache_stats();
    assert_eq!(cs.hits, queries.len() as u64);
    assert_eq!(cs.misses, queries.len() as u64);
}

/// A policy update that revokes an expression the query reads moves the
/// tenant's catalog head and evicts the plan: the next identical query
/// re-optimizes under the new catalog instead of reusing the stale plan.
#[test]
fn revoking_a_governing_policy_evicts_cached_plans() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );

    let run = |sql: &str| svc.submit(tenant, QueryRequest::new(sql)).unwrap().wait();
    assert!(!run(Q_NAMES).unwrap().cached);
    assert!(run(Q_NAMES).unwrap().cached);
    let head_before = svc.tenant_catalog(tenant).unwrap().head();

    // Swap in a different (still compatible) policy set.
    let head = svc
        .update_tenant_policies(tenant, restrictive_policies(&catalog))
        .unwrap();
    let head_after = svc.tenant_catalog(tenant).unwrap().head();
    assert_eq!(head, head_after, "the update returns the new head");
    assert!(head_after > head_before, "the catalog head must move");
    assert_eq!(
        svc.cache_stats().len,
        0,
        "the update revokes the users expression the only entry's key names, \
         so that entry is evicted"
    );

    // Same SQL, new head: a fresh optimize, then hits again.
    assert!(!run(Q_NAMES).unwrap().cached);
    assert!(run(Q_NAMES).unwrap().cached);
}

/// Everything ships anywhere (pid 0) and ids and names also ship by
/// their own grant (pid 1), so revoking pid 0 leaves `Q_NAMES` a
/// compliant plan.
fn layered_policies(catalog: &Catalog) -> Arc<PolicyCatalog> {
    let mut p = PolicyCatalog::new();
    add_policy(&mut p, catalog, "users", "ship * from users to *");
    add_policy(
        &mut p,
        catalog,
        "users",
        "ship u_id, u_name from users to *",
    );
    add_policy(&mut p, catalog, "events", "ship * from events to *");
    Arc::new(p)
}

/// The pid of "ship * from users to *" in [`layered_policies`].
const USERS_ANYWHERE: u64 = 0;

/// A revoke appended straight on the tenant's catalog log is the
/// tenant's new head: the next plain query pins it, misses the cache
/// (its key no longer names the revoked pid), plans under the head with
/// no revocation re-plan, and returns the rows of a fresh run on the
/// tenant's engine.
#[test]
fn a_revoke_on_the_tenant_log_is_the_next_querys_pin() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        layered_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let us = Location::new("US");
    let run = || {
        svc.submit(tenant, QueryRequest::new(Q_NAMES).at(us.clone()))
            .unwrap()
            .wait()
    };
    let before = run().unwrap();
    assert!(
        (before.transfers.records().iter()).any(|r| r.from == Location::new("EU")),
        "the plan must ship users' rows out of the EU: {:?}",
        before.transfers
    );
    assert!(run().unwrap().cached, "the pre-revocation plan is cached");

    svc.tenant_catalog(tenant)
        .unwrap()
        .revoke(USERS_ANYWHERE)
        .unwrap();
    let reply = run().unwrap();
    assert!(!reply.cached, "the post-revocation query plans afresh");
    assert_eq!(reply.churn_replans, 0, "it was pinned at the new head");

    let engine = svc.tenant_engine(tenant).unwrap();
    let fresh = engine
        .optimize_sql(Q_NAMES, OptimizerMode::Compliant, Some(us.clone()))
        .unwrap();
    let expected = engine.run(&fresh, &ExecOptions::default()).unwrap();
    assert_eq!(sorted_rows(&reply.rows), sorted_rows(&expected.rows));
}

fn sorted_rows(rows: &Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Regression: removing a policy set and then restoring the *identical*
/// content must not resurrect plans cached before the revocation. Under
/// content hashing the restored set would reproduce the old key (and the
/// old `PlanKey`s would hit again); the catalog log's sequence only moves
/// forward, so the restored world is a fresh snapshot instead.
#[test]
fn revoke_then_regrant_never_resurrects_cached_plans() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let run = |sql: &str| svc.submit(tenant, QueryRequest::new(sql)).unwrap().wait();
    assert!(!run(Q_NAMES).unwrap().cached);
    assert!(run(Q_NAMES).unwrap().cached);
    let original = svc.tenant_catalog(tenant).unwrap().head();

    // Swap to the restrictive set, then back to an identical permissive
    // set: same policy text as the original, different history.
    let restricted = svc
        .update_tenant_policies(tenant, restrictive_policies(&catalog))
        .unwrap();
    assert!(restricted > original);
    let restored = svc
        .update_tenant_policies(tenant, permissive_policies(&catalog))
        .unwrap();
    assert!(restored > restricted, "the log only moves forward");

    // The tenant's catalog log remembers the whole history, and the
    // restored head re-optimizes fresh before hitting again.
    let churn = svc.tenant_catalog(tenant).unwrap();
    assert_eq!(churn.head(), restored);
    assert!(churn.history().len() >= 4, "revokes + regrants are logged");
    assert!(
        !run(Q_NAMES).unwrap().cached,
        "no resurrection across churn"
    );
    assert!(run(Q_NAMES).unwrap().cached, "fresh head caches normally");
}

/// An update whose grant cannot be appended — here one registered
/// against another deployment's `orders` table — is refused whole: the
/// log does not move, so the revocation it carried never lands while the
/// engine and cache still serve the revoked policy. The tenant's engine
/// keeps exactly the log's live pids, and a valid update afterwards
/// takes effect as usual.
#[test]
fn a_refused_policy_update_appends_nothing() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let us = Location::new("US");
    let run = || {
        svc.submit(tenant, QueryRequest::new(Q_EMAILS).at(us.clone()))
            .unwrap()
            .wait()
    };
    assert_eq!(run().unwrap().rows.len(), 4, "emails ship freely at first");
    let churn = svc.tenant_catalog(tenant).unwrap();
    let live_pids = || -> Vec<usize> {
        let mut engine_pids: Vec<usize> = (svc.tenant_engine(tenant).unwrap().policies())
            .expressions()
            .iter()
            .map(|e| e.id)
            .collect();
        engine_pids.sort_unstable();
        let log_pids: Vec<usize> = (churn.live_policies().iter())
            .map(|(pid, _)| *pid as usize)
            .collect();
        assert_eq!(
            engine_pids, log_pids,
            "the engine serves the log's live set"
        );
        log_pids
    };
    let (head, pids) = (churn.head(), live_pids());

    let mut foreign = (*restrictive_policies(&catalog)).clone();
    let orders = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
    let expr = geoqp_parser::parse_policy("ship x from orders to *").unwrap();
    foreign.register(expr, &orders).unwrap();
    let err = svc
        .update_tenant_policies(tenant, Arc::new(foreign))
        .unwrap_err();
    assert_eq!(err.kind(), "storage", "{err}");
    assert_eq!(churn.head(), head, "a refused update appends nothing");
    assert_eq!(live_pids(), pids);
    assert_eq!(run().unwrap().rows.len(), 4, "pid 0 is still live");

    svc.update_tenant_policies(tenant, restrictive_policies(&catalog))
        .unwrap();
    assert!(churn.head() > head);
    assert!(!live_pids().contains(&0), "the users grant is revoked");
    assert_eq!(run().unwrap_err().kind(), "rejected");
}

/// The key's policy component rests on two facts about the tenant's
/// engine: its expression ids are the catalog log's pids — at
/// registration and after every update — and revoking then re-granting
/// the same text yields a fresh pid, so a key naming a revoked pid can
/// never be formed again.
#[test]
fn engine_expression_ids_are_log_pids_and_never_reissued() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let ids_and_pids = || {
        let engine = svc.tenant_engine(tenant).unwrap();
        let ids: Vec<u64> = (engine.policies().expressions().iter())
            .map(|e| e.id as u64)
            .collect();
        let live = svc.tenant_catalog(tenant).unwrap().live_policies();
        (ids, live)
    };
    let (ids, live) = ids_and_pids();
    assert_eq!(ids, live.iter().map(|(pid, _)| *pid).collect::<Vec<_>>());
    let users_pid = |live: &[(u64, String)]| {
        (live.iter())
            .find(|(_, text)| text.contains("from users to *") && text.contains("ship *"))
            .map(|(pid, _)| *pid)
    };
    let original = users_pid(&live).expect("the permissive users expression is live");

    for policies in [
        restrictive_policies(&catalog),
        permissive_policies(&catalog),
    ] {
        svc.update_tenant_policies(tenant, policies).unwrap();
        let (ids, live) = ids_and_pids();
        assert_eq!(ids, live.iter().map(|(pid, _)| *pid).collect::<Vec<_>>());
    }
    let (_, live) = ids_and_pids();
    let restored = users_pid(&live).expect("the same text is live again");
    assert!(
        restored > original,
        "re-granting identical text gets a fresh pid ({original} → {restored})"
    );
}

/// A grant on a table the query does not scan leaves the query's key —
/// and its plan — as they were: the next submit is a hit, equal to a
/// fresh optimize → run under the new catalog. A query that scans the
/// granted table misses.
#[test]
fn a_grant_on_an_unscanned_table_keeps_the_plan() {
    const Q_USERS: &str = "SELECT u_name FROM users WHERE u_id > 1";
    const Q_EVENTS: &str = "SELECT e_kind FROM events";
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        restrictive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let run = |sql: &str| svc.submit(tenant, QueryRequest::new(sql)).unwrap().wait();
    assert!(!run(Q_USERS).unwrap().cached);
    assert!(!run(Q_EVENTS).unwrap().cached);

    let mut granted = (*restrictive_policies(&catalog)).clone();
    add_policy(
        &mut granted,
        &catalog,
        "events",
        "ship e_kind from events to EU",
    );
    svc.update_tenant_policies(tenant, Arc::new(granted))
        .unwrap();
    assert_eq!(svc.cache_stats().len, 2, "a grant evicts nothing");

    let reply = run(Q_USERS).unwrap();
    assert!(reply.cached, "no expression the query reads changed");
    let engine = svc.tenant_engine(tenant).unwrap();
    let fresh = engine
        .optimize_sql(Q_USERS, OptimizerMode::Compliant, None)
        .unwrap();
    let want = engine.run(&fresh, &ExecOptions::default()).unwrap();
    assert_eq!(reply.rows, want.rows);
    assert_eq!(reply.transfers, want.transfers);
    assert_eq!(reply.result_location, fresh.result_location);

    assert!(
        !run(Q_EVENTS).unwrap().cached,
        "the grant governs events, so its key moved"
    );
}

/// A revoke evicts exactly the tenant's entries whose key names the
/// revoked pid: a query over the other table keeps its plan, and a
/// second tenant's entries are untouched.
#[test]
fn a_revoke_evicts_exactly_the_entries_naming_its_pid() {
    const Q_USERS: &str = "SELECT u_name FROM users";
    const Q_EVENTS: &str = "SELECT e_kind FROM events";
    let catalog = tiny_catalog();
    let mut with_extra = (*permissive_policies(&catalog)).clone();
    add_policy(
        &mut with_extra,
        &catalog,
        "events",
        "ship e_kind from events to EU",
    );
    let with_extra = Arc::new(with_extra);
    let svc = service(1, 16);
    let tenants = ["a", "b"].map(|name| {
        svc.add_tenant(
            name,
            catalog.clone(),
            with_extra.clone(),
            tiny_topology(),
            TenantConfig::default(),
        )
    });
    let run = |tenant, sql: &str| {
        (svc.submit(tenant, QueryRequest::new(sql)).unwrap().wait())
            .unwrap()
            .cached
    };
    for tenant in tenants {
        for sql in [Q_USERS, Q_EVENTS, Q_NAMES] {
            assert!(!run(tenant, sql), "{sql} plans fresh");
        }
    }
    assert_eq!(svc.cache_stats().len, 6);

    // Tenant a drops the extra events expression: its events and join
    // entries name that pid, its users entry does not.
    svc.update_tenant_policies(tenants[0], permissive_policies(&catalog))
        .unwrap();
    assert_eq!(
        svc.cache_stats().len,
        4,
        "tenant a's two entries naming the revoked pid are gone, nothing else"
    );
    assert!(
        run(tenants[0], Q_USERS),
        "the users plan read no revoked pid"
    );
    assert!(!run(tenants[0], Q_EVENTS));
    assert!(!run(tenants[0], Q_NAMES));
    for sql in [Q_USERS, Q_EVENTS, Q_NAMES] {
        assert!(run(tenants[1], sql), "tenant b keeps {sql}");
    }
}

/// A faulted request served from the cache fails over exactly as the
/// miss that planned it: the re-plan re-derives phase 1's tree from the
/// query the hit just lowered, and places the same plan. Two tables at
/// A and B may ship to a relay C or the result site D; links into D are
/// dear, so the plan joins at C. C crashed: one re-plan joins at D.
#[test]
fn a_cached_plan_fails_over_as_the_miss_that_planned_it() {
    let mut catalog = Catalog::new();
    for (db, site) in [("db-a", "A"), ("db-b", "B"), ("db-c", "C"), ("db-d", "D")] {
        catalog.add_database(db, Location::new(site)).unwrap();
    }
    for (db, table, key, val) in [
        ("db-a", "t1", "u_id", "u_val"),
        ("db-b", "t2", "v_id", "v_val"),
    ] {
        let entry = catalog
            .add_table(
                db,
                table,
                Schema::new(vec![
                    Field::new(key, DataType::Int64),
                    Field::new(val, DataType::Int64),
                ])
                .unwrap(),
                TableStats::new(2, 16.0),
            )
            .unwrap();
        let rows = vec![
            vec![Value::Int64(1), Value::Int64(10)],
            vec![Value::Int64(2), Value::Int64(20)],
        ];
        (entry.set_data(Table::new(Arc::clone(&entry.schema), rows).unwrap())).unwrap();
    }
    let catalog = Arc::new(catalog);
    let mut policies = PolicyCatalog::new();
    add_policy(&mut policies, &catalog, "t1", "ship * from t1 to C, D");
    add_policy(&mut policies, &catalog, "t2", "ship * from t2 to C, D");
    let mut topology =
        NetworkTopology::uniform(LocationSet::from_iter(["A", "B", "C", "D"]), 50.0, 100.0);
    let dear = Link {
        alpha_ms: 1e7,
        beta_ms_per_byte: 1.0,
    };
    for from in ["A", "B"] {
        topology.set_link(Location::new(from), Location::new("D"), dear);
    }

    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "relay",
        catalog,
        Arc::new(policies),
        topology,
        TenantConfig::default(),
    );
    let faults = FaultPlan::new(9).with_crash("C", StepWindow::ALWAYS);
    let submit = || {
        let request = QueryRequest::new("SELECT u_val, v_val FROM t1, t2 WHERE u_id = v_id")
            .at(Location::new("D"))
            .with_faults(faults.clone());
        svc.submit(tenant, request).unwrap().wait().unwrap()
    };
    let (miss, hit) = (submit(), submit());
    assert!(!miss.cached && hit.cached);
    assert_eq!(miss.replans, 1, "the crashed relay forces one re-plan");
    assert_eq!(hit.replans, miss.replans);
    assert_eq!(hit.rows, miss.rows);
    assert_eq!(hit.rows.len(), 2);
    assert_eq!(hit.transfers, miss.transfers);
    assert_eq!(hit.result_location, miss.result_location);
}

/// Exact LRU behavior at capacity 2: a lookup refreshes recency, the
/// least-recently-used entry is the eviction victim.
#[test]
fn lru_evicts_least_recently_used_plan() {
    let catalog = tiny_catalog();
    let svc = service(1, 2);
    let tenant = svc.add_tenant(
        "t0",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let qa = "SELECT u_name FROM users";
    let qb = "SELECT e_kind FROM events";
    let qc = "SELECT u_id FROM users";
    let run = |sql: &str| {
        svc.submit(tenant, QueryRequest::new(sql))
            .unwrap()
            .wait()
            .unwrap()
            .cached
    };

    assert!(!run(qa)); // miss, insert a
    assert!(!run(qb)); // miss, insert b — cache full
    assert!(run(qa)); // hit, refresh a
    assert!(!run(qc)); // miss, insert c — evicts b (LRU), not a
    assert_eq!(svc.cache_stats().evictions, 1);
    assert!(!run(qb)); // b was evicted — miss, evicts a (older than c)
    assert!(run(qc)); // c survived
    assert!(!run(qa)); // a was evicted by b's reinsert
    assert_eq!(svc.cache_stats().len, 2);
}

/// Under a diverse ad-hoc stream the cache stays bounded and evicts:
/// early queries age out while late ones are still resident.
#[test]
fn lru_eviction_under_adhoc_stream() {
    let (catalog, policies) = tpch_setup(PolicyTemplate::T, 13);
    let mut queries = generate_adhoc(&catalog, 40, 23).unwrap();
    let mut seen = std::collections::HashSet::new();
    queries.retain(|q| seen.insert(q.sql.clone()));
    queries.truncate(24);
    assert!(queries.len() >= 20, "generator yields diverse queries");

    const CAP: usize = 8;
    let svc = service(2, CAP);
    let tenant = svc.add_tenant(
        "stream",
        catalog.clone(),
        policies,
        NetworkTopology::paper_wan(),
        TenantConfig {
            max_inflight: 2,
            max_queue: 64,
        },
    );
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| svc.submit(tenant, QueryRequest::new(&q.sql)).unwrap())
        .collect();
    for t in tickets {
        t.wait().expect("stream queries complete");
    }

    let cs = svc.cache_stats();
    assert!(cs.len <= CAP, "cache stays bounded, len {}", cs.len);
    assert_eq!(
        cs.evictions,
        (queries.len() - cs.len) as u64,
        "every insert past capacity evicts exactly once"
    );

    // The first query has long aged out; the last is still resident.
    let first = svc
        .submit(tenant, QueryRequest::new(&queries[0].sql))
        .unwrap()
        .wait()
        .unwrap();
    assert!(!first.cached, "earliest query must have been evicted");
    let last = svc
        .submit(tenant, QueryRequest::new(&queries[queries.len() - 1].sql))
        .unwrap()
        .wait()
        .unwrap();
    assert!(last.cached, "latest query must still be resident");
}

/// Concurrent closed loops across four template tenants: every query
/// completes, and afterwards the counters reconcile. The plan-cache
/// identity in particular holds only if no lookup is lost or counted
/// twice while several workers hit the cache at once — nothing else
/// checks it under concurrency.
#[test]
fn concurrent_closed_loops_reconcile_cache_and_tenant_counters() {
    const SEED: u64 = 2021;
    const CLIENTS: usize = 12;
    const PER_CLIENT: usize = 4;
    const POOL: usize = 10;
    let templates = [
        PolicyTemplate::T,
        PolicyTemplate::C,
        PolicyTemplate::CR,
        PolicyTemplate::CRA,
    ];

    let svc = service(4, 1024);
    // Disjoint policy sets: a different template AND a different seed each.
    let tenants: Vec<_> = templates
        .iter()
        .zip(1u64..)
        .map(|(template, i)| {
            let (catalog, policies) = tpch_setup(*template, SEED ^ i);
            let pool = generate_adhoc(&catalog, POOL, SEED ^ (i << 8)).unwrap();
            let id = svc.add_tenant(
                template.name(),
                catalog,
                policies,
                NetworkTopology::paper_wan(),
                TenantConfig {
                    max_inflight: 8,
                    max_queue: CLIENTS,
                },
            );
            (id, pool)
        })
        .collect();

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (tenant, pool) = &tenants[client % tenants.len()];
            let svc = &svc;
            scope.spawn(move || {
                // A closed loop: the next query goes out only once the
                // previous one's rows are back. Strides over a small pool
                // make clients of one tenant collide on some queries
                // (cache hits, racing misses) and not on others.
                for k in 0..PER_CLIENT {
                    let q = &pool[(client * 3 + k * 7) % pool.len()];
                    svc.submit(*tenant, QueryRequest::new(&q.sql))
                        .expect("a closed loop never overflows admission")
                        .wait()
                        .expect("generated queries plan and execute");
                }
            });
        }
    });
    svc.wait_idle();

    let stats: Vec<_> = tenants
        .iter()
        .map(|(id, _)| svc.tenant_stats(*id).expect("tenant registered"))
        .collect();
    let completed: u64 = stats.iter().map(|t| t.completed).sum();
    assert_eq!(completed, (CLIENTS * PER_CLIENT) as u64);
    for t in &stats {
        assert_eq!(
            t.failed, 0,
            "{}: generated queries plan compliantly",
            t.name
        );
        assert_eq!(t.rejected, 0, "{}: closed loops fit admission", t.name);
        assert_eq!(t.inflight, 0);
        assert_eq!(t.queued, 0);
        assert_eq!(t.completed + t.failed, t.admitted);
        // The latency fields are computed from a bounded sample window,
        // sorted after the scheduler lock is released: still populated,
        // still ordered.
        assert!(t.p50_ms > 0.0 && t.mean_ms > 0.0, "{}: {t:?}", t.name);
        assert!(t.p99_ms >= t.p50_ms);
    }
    // Both snapshot paths read the same window of an idle service.
    for (one, all) in stats.iter().zip(svc.all_stats()) {
        assert_eq!(
            (one.p50_ms, one.p99_ms, one.mean_ms),
            (all.p50_ms, all.p99_ms, all.mean_ms)
        );
    }
    let cs = svc.cache_stats();
    assert_eq!(
        cs.hits + cs.misses,
        completed,
        "every query went through the plan cache exactly once"
    );
    assert!(
        cs.hits > 0 && cs.misses > 0,
        "the loop mixes hits and misses"
    );
}

/// The cache key is compared by value, component by component: the same
/// lowered query pinned at three result locations is three entries, and
/// a select list in another order lowers to another plan and gets its
/// own entry. (The tenant and catalog-sequence components are covered by
/// the isolation and policy-update tests.)
#[test]
fn plan_cache_key_separates_result_location_and_lowered_plan() {
    let catalog = tiny_catalog();
    let svc = service(1, 16);
    let tenant = svc.add_tenant(
        "strict",
        catalog.clone(),
        restrictive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let run = |sql: &str, at: Option<&str>| {
        let mut request = QueryRequest::new(sql);
        request.result_location = at.map(Location::new);
        svc.submit(tenant, request).unwrap().wait().unwrap().cached
    };
    let sites = [None, Some("EU"), Some("US")];

    for at in sites {
        assert!(!run(Q_NAMES, at), "first run at {at:?} optimizes fresh");
    }
    for at in sites {
        assert!(run(Q_NAMES, at), "second run at {at:?} hits its own entry");
    }
    let cs = svc.cache_stats();
    assert_eq!((cs.hits, cs.misses, cs.len), (3, 3, 3));

    // Same tables, same join, same columns — in another order.
    const Q_NAMES_REORDERED: &str = "SELECT e_kind, u_name FROM users, events WHERE u_id = e_user";
    assert!(!run(Q_NAMES_REORDERED, None), "a different plan is a miss");
    assert!(run(Q_NAMES_REORDERED, None));
    assert!(run(Q_NAMES, None), "the original entry is still its own");
    let cs = svc.cache_stats();
    assert_eq!((cs.hits, cs.misses, cs.len), (5, 4, 4));
}

/// Across policy churn, every reply — hit or miss — is what the tenant's
/// current engine gives for a fresh optimize → audit → run: the same
/// rows, the same transfers, the same result site, or a refusal of the
/// same kind. One worker, four template tenants, a seeded 80/20 stream
/// over a 20-query pool, and one tenant moved between policy set A (10
/// expressions) and set B (A plus one) on every 7th submit. The service
/// must hit exactly when this tenant planned the query before under the
/// same governing expressions — the pids of its live expressions that
/// govern a table the query scans. A pid is never reissued, so a plan
/// keyed by a revoked one is never asked for again, and plans survive
/// every update that leaves their governing pids alone. (The pool's
/// generated queries plan under every set here, so the refusal arm
/// guards a regression rather than a case this seed draws.)
#[test]
fn every_reply_equals_a_fresh_optimize_across_policy_churn() {
    const SEED: u64 = 29;
    const SUBMITS: usize = 400;
    const POOL: usize = 20;
    const HOT: usize = 4;
    const TOGGLE_EVERY: usize = 7;
    let templates = [
        PolicyTemplate::T,
        PolicyTemplate::C,
        PolicyTemplate::CR,
        PolicyTemplate::CRA,
    ];

    let (catalog, _) = tpch_setup(PolicyTemplate::T, SEED);
    let pool = generate_adhoc(&catalog, POOL, SEED).unwrap();
    let svc = service(1, 1024);
    let tenants: Vec<_> = templates
        .iter()
        .zip(1u64..)
        .map(|(template, i)| {
            let set = |n| Arc::new(generate_policies(&catalog, *template, n, SEED ^ i).unwrap());
            let sets = [set(10), set(11)];
            let id = svc.add_tenant(
                template.name(),
                catalog.clone(),
                sets[0].clone(),
                NetworkTopology::paper_wan(),
                TenantConfig::default(),
            );
            (id, sets)
        })
        .collect();

    let mut state = SEED;
    let mut draw = |n: usize| {
        // SplitMix64: the stream is a function of SEED alone.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    // Per tenant: whether it is on set B, the (pool query, governing
    // pids) pairs it planned, and the pool queries it ran since its last
    // update — a hit outside those is one a cache emptied by every update
    // would have missed.
    let mut on_b = [false; 4];
    let mut planned: Vec<HashSet<(usize, Vec<usize>)>> = vec![HashSet::new(); 4];
    let mut since_update: Vec<HashSet<usize>> = vec![HashSet::new(); 4];
    let (mut hits, mut hits_across_updates) = (0, 0);
    for k in 0..SUBMITS {
        if k % TOGGLE_EVERY == TOGGLE_EVERY - 1 {
            let t = (k / TOGGLE_EVERY) % tenants.len();
            on_b[t] = !on_b[t];
            let (id, sets) = &tenants[t];
            svc.update_tenant_policies(*id, sets[usize::from(on_b[t])].clone())
                .unwrap();
            since_update[t].clear();
        }
        let t = draw(tenants.len());
        let q = if draw(10) < 8 {
            draw(HOT)
        } else {
            HOT + draw(POOL - HOT)
        };
        let (id, _) = &tenants[t];
        let sql = &pool[q].sql;
        let reply = svc.submit(*id, QueryRequest::new(sql)).unwrap().wait();

        let engine = svc.tenant_engine(*id).unwrap();
        let fresh = engine.optimize_sql(sql, OptimizerMode::Compliant, None);
        match (reply, fresh) {
            (Ok(reply), Ok(fresh)) => {
                engine.audit(&fresh.physical).unwrap();
                let run = engine.run(&fresh, &ExecOptions::default()).unwrap();
                // A hit exactly when this query was planned before under
                // the same governing expressions.
                let tables = fresh.query.tables();
                let governing: Vec<usize> = (engine.policies().expressions().iter())
                    .filter(|e| tables.iter().any(|t| e.governs(t)))
                    .map(|e| e.id)
                    .collect();
                let seen = !planned[t].insert((q, governing));
                let recent = !since_update[t].insert(q);
                assert_eq!(reply.cached, seen, "submit {k}: {sql}");
                assert_eq!(reply.rows, run.rows, "submit {k}: rows of {sql}");
                assert_eq!(reply.transfers, run.transfers, "submit {k}: {sql}");
                assert_eq!(reply.result_location, fresh.result_location);
                hits += usize::from(seen);
                hits_across_updates += usize::from(seen && !recent);
            }
            (Err(served), Err(fresh)) => assert_eq!(
                served.kind(),
                fresh.kind(),
                "submit {k}: {sql} refused as {served}, fresh as {fresh}"
            ),
            (served, fresh) => panic!(
                "submit {k}: {sql}: service {:?} but fresh {:?}",
                served.map(|r| r.cached),
                fresh.map(|f| f.result_location)
            ),
        }
    }
    // The stream is a function of SEED alone: these are its counts.
    assert!(hits >= 312, "only {hits} hits in {SUBMITS} submits");
    assert!(
        hits_across_updates >= 160,
        "only {hits_across_updates} hits on plans made before the tenant's last update"
    );
}

// ------------------------------------------------------ tenant isolation

/// Two tenants with conflicting policy sets over the same catalog never
/// observe each other's cached implication verdicts or plans: the
/// permissive tenant's successes never soften the restrictive tenant's
/// rejections, in either interleaving order.
#[test]
fn conflicting_tenants_never_share_memo_verdicts_or_plans() {
    let catalog = tiny_catalog();
    let svc = service(1, 32);
    let open = svc.add_tenant(
        "open",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let strict = svc.add_tenant(
        "strict",
        catalog.clone(),
        restrictive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );

    // Separate engines — separate implication memos by construction.
    assert!(!std::ptr::eq(
        svc.tenant_engine(open).unwrap().implication_memo(),
        svc.tenant_engine(strict).unwrap().implication_memo()
    ));

    let us = Location::new("US");
    let run = |tenant, sql: &str| {
        svc.submit(tenant, QueryRequest::new(sql).at(us.clone()))
            .unwrap()
            .wait()
    };
    // Six rounds, alternating which tenant goes first, so cached
    // verdicts from either side would have every chance to leak.
    for round in 0..6 {
        let order: [TenantId; 2] = if round % 2 == 0 {
            [open, strict]
        } else {
            [strict, open]
        };
        for tenant in order {
            let outcome = run(tenant, Q_EMAILS);
            if tenant == open {
                let reply = outcome.expect("permissive tenant ships emails freely");
                assert_eq!(reply.rows.len(), 4);
            } else {
                let err = outcome.expect_err("restrictive tenant must keep rejecting");
                assert_eq!(err.kind(), "rejected", "round {round}: got {err}");
            }
        }
    }
    let os = svc.tenant_stats(open).unwrap();
    let ss = svc.tenant_stats(strict).unwrap();
    assert_eq!(os.completed, 6);
    assert_eq!(os.failed, 0);
    assert_eq!(ss.completed, 0);
    assert_eq!(ss.failed, 6, "every strict attempt stays rejected");
    // The permissive tenant's repeats were served from its cache; the
    // rejected queries never seeded an entry the strict tenant could use.
    assert_eq!(os.cache_hits, 5);
    assert_eq!(os.cache_misses, 1);
}

/// Plans never cross tenants even when two tenants run *identical*
/// policy sets at the same catalog sequence: the cache key's tenant
/// component keeps their entries apart.
#[test]
fn identical_policy_tenants_still_get_separate_plan_cache_entries() {
    let catalog = tiny_catalog();
    let svc = service(1, 32);
    let a = svc.add_tenant(
        "a",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    let b = svc.add_tenant(
        "b",
        catalog.clone(),
        permissive_policies(&catalog),
        tiny_topology(),
        TenantConfig::default(),
    );
    assert_eq!(
        svc.tenant_catalog(a).unwrap().head(),
        svc.tenant_catalog(b).unwrap().head(),
        "both tenants sit at their base catalog, seq 0"
    );

    let run = |tenant| {
        svc.submit(tenant, QueryRequest::new(Q_NAMES))
            .unwrap()
            .wait()
            .unwrap()
    };
    assert!(!run(a).cached);
    assert!(run(a).cached);
    // Same SQL, same seq — but a different tenant must optimize fresh.
    assert!(!run(b).cached, "plans must not leak across tenants");
    assert!(run(b).cached);
    assert_eq!(svc.cache_stats().len, 2, "one entry per tenant");
}

/// Two queries that differ only in a literal's type — `1` against `1.0` —
/// are two plans: each reply is what a fresh optimize → run of its own
/// text gives, down to the type of every output value, whichever of the
/// two the cache saw first.
#[test]
fn literals_of_different_types_never_share_a_cached_plan() {
    const INT: &str = "SELECT u_name, u_id + 1 AS k FROM users WHERE u_id > 1";
    const FLOAT: &str = "SELECT u_name, u_id + 1.0 AS k FROM users WHERE u_id > 1";
    let typed = |rows: &geoqp_common::Rows| -> Vec<String> {
        rows.iter().map(|r| format!("{r:?}")).collect()
    };
    let catalog = tiny_catalog();
    let mut answers = std::collections::HashMap::new();
    for order in [[INT, FLOAT], [FLOAT, INT]] {
        let svc = service(1, 16);
        let tenant = svc.add_tenant(
            "open",
            catalog.clone(),
            permissive_policies(&catalog),
            tiny_topology(),
            TenantConfig::default(),
        );
        for sql in order.into_iter().chain(order) {
            let reply = svc.submit(tenant, QueryRequest::new(sql)).unwrap().wait();
            let reply = reply.unwrap();
            let engine = svc.tenant_engine(tenant).unwrap();
            let fresh = engine
                .optimize_sql(sql, OptimizerMode::Compliant, None)
                .unwrap();
            let run = engine.run(&fresh, &ExecOptions::default()).unwrap();
            assert_eq!(typed(&reply.rows), typed(&run.rows), "{sql}");
            answers.insert(sql, typed(&reply.rows));
            assert_eq!(reply.transfers, run.transfers, "{sql}");
            assert_eq!(reply.result_location, fresh.result_location, "{sql}");
        }
        let cs = svc.cache_stats();
        assert_eq!((cs.hits, cs.misses), (2, 2), "{order:?}: one entry each");
    }
    assert_ne!(
        answers[INT], answers[FLOAT],
        "the two literals type k apart"
    );
}
