//! Integration suite for the multi-tenant query service: admission
//! control, deficit-round-robin fairness, the value-keyed plan cache
//! (each key component, invalidation by policy update, LRU eviction,
//! hit/miss determinism, hits equal to a fresh optimize across policy
//! churn), cancellation/deadline handling mid-queue, and cross-tenant
//! memo/plan isolation.

use geoqp_common::{
    CancelToken, DataType, Field, Location, LocationSet, QueryDeadline, Schema, TableRef, Value,
};
use geoqp_core::{ExecOptions, OptimizerMode};
use geoqp_net::NetworkTopology;
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
            quantum: 1,
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
/// one worker, DRR alternates between the two backlogged tenants, so the
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
            quantum: 1,
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
            quantum: 1,
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
            quantum: 1,
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

/// A policy update moves the tenant's catalog head: the next identical query
/// re-optimizes under the new catalog instead of reusing the stale plan,
/// and the tenant's old entries are purged eagerly.
#[test]
fn epoch_bump_invalidates_cached_plans() {
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
        "the tenant's entries are purged on policy update"
    );

    // Same SQL, new head: a fresh optimize, then hits again.
    assert!(!run(Q_NAMES).unwrap().cached);
    assert!(run(Q_NAMES).unwrap().cached);
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
            quantum: 1,
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
                    quantum: 1,
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
/// must hit exactly when this tenant planned the query since its last
/// policy update — so the first submit after an update is always a miss.
/// (The pool's generated queries plan under every set here, so the
/// refusal arm guards a regression rather than a case this seed draws.)
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
    // Per tenant: whether it is on set B, and the pool queries it planned
    // since its last update.
    let mut on_b = [false; 4];
    let mut planned: Vec<HashSet<usize>> = vec![HashSet::new(); 4];
    let mut hits = 0;
    for k in 0..SUBMITS {
        if k % TOGGLE_EVERY == TOGGLE_EVERY - 1 {
            let t = (k / TOGGLE_EVERY) % tenants.len();
            on_b[t] = !on_b[t];
            let (id, sets) = &tenants[t];
            svc.update_tenant_policies(*id, sets[usize::from(on_b[t])].clone())
                .unwrap();
            planned[t].clear();
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
                // A hit exactly when planned since the last update: the
                // first submit of a query after an update is a miss.
                let seen = !planned[t].insert(q);
                assert_eq!(reply.cached, seen, "submit {k}: {sql}");
                assert_eq!(reply.rows, run.rows, "submit {k}: rows of {sql}");
                assert_eq!(reply.transfers, run.transfers, "submit {k}: {sql}");
                assert_eq!(reply.result_location, fresh.result_location);
                hits += usize::from(seen);
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
    assert!(hits >= 100, "only {hits} hits in {SUBMITS} submits");
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
    assert!(!Arc::ptr_eq(
        &svc.tenant_engine(open).unwrap(),
        &svc.tenant_engine(strict).unwrap()
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
