//! The multi-tenant query service: sessions, admission control,
//! round-robin fair scheduling, and per-tenant statistics.
//!
//! # Architecture
//!
//! ```text
//!  submit(tenant, request) ──admission──▶ per-tenant bounded queue
//!                                              │
//!                     round-robin scheduler (shared Condvar)
//!                                              │
//!                          bounded worker pool (OS threads)
//!                                              │
//!   pin the tenant's catalog head → the engine at that seq (lock released)
//!                                              │
//!       parse → lower → plan-cache lookup (hit) / optimize (miss)
//!                                              │
//!   execute under that pin (+ failover if faulted, deadline, cancel)
//!                                              │
//!                      QueryTicket ◀── reply ──┘  + TenantStats update
//! ```
//!
//! # One pin rule
//!
//! A tenant is its [`CatalogService`]: the service keeps no engine or pin
//! of its own. A worker claims a job, releases the scheduler lock, pins
//! the tenant's catalog head and plans on the engine at that seq
//! ([`CatalogService::engine`]), so an append made through
//! [`QueryService::update_tenant_policies`] or straight on the tenant's
//! log reaches every query claimed after it. Every execution runs under
//! its pin's churn watch with the service's re-plan budget. A revocation
//! published after the pin aborts the query before its next batch
//! leaves; the engine re-pins to the head it can see, re-plans, and
//! returns the rows, or refuses typed [`GeoError::NonCompliant`] when no
//! compliant placement survives. A query whose last batch left before
//! the revocation returns its rows: every batch it shipped was legal
//! when it left. Each job runs once; nothing is re-checked at completion.
//!
//! A plan-cache key is the SQL text, the requested result site, the
//! tenant and the pids of the tenant's live expressions governing a table
//! the query scans — everything the compliant optimizer reads — so a
//! policy update only misses for the queries whose tables it touches.
//!
//! Each tenant's catalog service owns a base [`Engine`] over its own
//! policy catalog, and the engine owns the `ImplicationMemo`: separate
//! tenants get separate memos *by construction*, while every engine the
//! service forks for a seq keeps the tenant's memo, whose verdicts relate
//! two predicates and hold under every snapshot.
//!
//! # Admission and fairness
//!
//! A tenant may hold at most [`TenantConfig::max_inflight`] executing
//! queries plus [`TenantConfig::max_queue`] waiting ones; a submit beyond
//! that is refused immediately with the typed
//! [`GeoError::Admission`] — the client sees backpressure instead of
//! unbounded queueing. Among admitted queries the scheduler runs
//! round-robin: a free worker scans the tenants from the one after the
//! last served and claims the first with a queued query and a free
//! in-flight slot, so a tenant flooding its own queue can never starve a
//! trickle tenant — the trickle tenant's next query is at most one
//! rotation away.

use crate::plan_cache::{CacheStats, CachedPlan, PlanCache, PlanKey};
use geoqp_common::{CancelToken, GeoError, Location, QueryDeadline, Result, Rows};
use geoqp_core::{
    CatalogService, ChurnOpts, Engine, ExecOptions, OptimizedQuery, OptimizerMode,
    OptimizerOptions, RuntimeConfig,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, NetworkTopology, TransferLog};
use geoqp_policy::{PolicyCatalog, PolicyExpression};
use geoqp_storage::Catalog;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// Handle naming a tenant registered with [`QueryService::add_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub usize);

/// Per-tenant admission and fairness knobs.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Maximum queries of this tenant executing at once.
    pub max_inflight: usize,
    /// Maximum queries waiting in this tenant's queue; a submit past
    /// `max_inflight + max_queue` outstanding is refused with
    /// [`GeoError::Admission`].
    pub max_queue: usize,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            max_inflight: 4,
            max_queue: 64,
        }
    }
}

/// Service-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Plan-cache capacity (entries across all tenants).
    pub cache_capacity: usize,
    /// Run attempts on the columnar engine (`false`: the row
    /// interpreter).
    pub columnar: bool,
    /// Re-plan budget of every execution: failover re-plans and the
    /// re-plans a mid-flight revocation forces.
    pub max_replans: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            cache_capacity: 256,
            columnar: true,
            max_replans: 4,
        }
    }
}

/// One query submission. Deadline, cancellation, and fault plans are the
/// same per-query controls the engine already understands — the service
/// threads them through unchanged.
#[derive(Debug, Clone, Default)]
pub struct QueryRequest {
    /// SQL text, parsed and lowered against the tenant's catalog.
    pub sql: String,
    /// Where the result must materialize; `None` lets the optimizer pick
    /// the cheapest compliant site.
    pub result_location: Option<Location>,
    /// Simulated-ms completion budget.
    pub deadline: Option<QueryDeadline>,
    /// Cooperative abort flag, polled while queued and at batch
    /// granularity while executing.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault schedule to execute under.
    pub faults: Option<FaultPlan>,
}

impl QueryRequest {
    /// A plain request for `sql` with no location pin, deadline, cancel
    /// token, or faults.
    pub fn new(sql: impl Into<String>) -> QueryRequest {
        QueryRequest {
            sql: sql.into(),
            ..QueryRequest::default()
        }
    }

    /// Pin the result location.
    pub fn at(mut self, location: Location) -> QueryRequest {
        self.result_location = Some(location);
        self
    }

    /// Attach a simulated-ms deadline.
    pub fn with_deadline(mut self, deadline: QueryDeadline) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancel token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> QueryRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Attach a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> QueryRequest {
        self.faults = Some(faults);
        self
    }
}

/// A completed query's payload.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Result rows at `result_location`.
    pub rows: Rows,
    /// Every cross-site transfer the execution performed.
    pub transfers: TransferLog,
    /// Whether the located plan came from the plan cache: a plan the
    /// compliant optimizer returned for the same SQL text, requested
    /// result location and tenant, under a catalog whose expressions
    /// governing the query's tables were the ones live now (same pids).
    pub cached: bool,
    /// Re-plans performed around a failure or a revocation (0 when
    /// neither caught the run).
    pub replans: usize,
    /// Re-plans forced by a mid-flight policy revocation (a subset of
    /// `replans`; 0 for churn-free runs).
    pub churn_replans: u64,
    /// Wall-clock submit-to-completion latency, ms (includes queueing).
    pub latency_ms: f64,
    /// Where the rows materialized.
    pub result_location: Location,
}

/// Receipt for a submitted query; redeem with [`QueryTicket::wait`].
#[derive(Debug)]
pub struct QueryTicket {
    rx: mpsc::Receiver<Result<QueryReply>>,
}

impl QueryTicket {
    /// Block until the query completes. If the service shuts down before
    /// the query runs, resolves to a typed cancellation instead of
    /// hanging.
    pub fn wait(self) -> Result<QueryReply> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(GeoError::Cancelled(
                "service shut down before the query ran".into(),
            )),
        }
    }
}

/// Per-tenant counters and latency percentiles, as rendered by `\tenants`
/// and the service benchmark. A tenant keeps its counters as one of
/// these; a snapshot adds the queue depths and the latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Queries accepted past admission control.
    pub admitted: u64,
    /// Queries refused with [`GeoError::Admission`].
    pub rejected: u64,
    /// Queries that completed with rows.
    pub completed: u64,
    /// Queries that resolved to an error (rejection by the optimizer,
    /// deadline, cancellation, execution failure).
    pub failed: u64,
    /// Queries executing right now.
    pub inflight: usize,
    /// Queries waiting in the tenant queue right now.
    pub queued: usize,
    /// Completed queries whose plan came from the cache.
    pub cache_hits: u64,
    /// Completed queries that optimized fresh.
    pub cache_misses: u64,
    /// Re-plans (failover and revocation) summed over completed queries.
    pub replans: u64,
    /// Re-plans forced by a revocation published after a query pinned
    /// its catalog head, summed over completed queries (a subset of
    /// `replans`). A query refused because no compliant placement
    /// survived counts as `failed` instead.
    pub churn_replans: u64,
    /// Median submit-to-completion latency, ms — like `p99_ms` and
    /// `mean_ms`, over the tenant's most recent [`LATENCY_WINDOW`]
    /// resolved queries.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-completion latency, ms.
    pub p99_ms: f64,
    /// Mean submit-to-completion latency, ms.
    pub mean_ms: f64,
}

/// Latency samples kept per tenant: the newest replace the oldest, so a
/// long-lived service's memory and its stats snapshots stay bounded.
pub const LATENCY_WINDOW: usize = 4096;

impl TenantStats {
    /// Fill in the latency fields from a copy of the tenant's sample
    /// window. The sort happens here, on the caller's copy, after the
    /// scheduler lock that produced it has been released.
    fn with_latencies(mut self, mut samples: Vec<f64>) -> TenantStats {
        samples.sort_by(f64::total_cmp);
        if !samples.is_empty() {
            self.mean_ms = samples.iter().sum::<f64>() / samples.len() as f64;
        }
        self.p50_ms = percentile(&samples, 0.50);
        self.p99_ms = percentile(&samples, 0.99);
        self
    }

    /// Plan-cache hit rate over this tenant's completed queries.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One admitted query waiting for (or holding) a worker.
struct Job {
    request: QueryRequest,
    submitted: Instant,
    tx: mpsc::Sender<Result<QueryReply>>,
}

struct TenantState {
    /// The tenant's catalog service: every policy change is a log append
    /// here, a claimed job pins its head and plans on the engine at that
    /// seq, and its churn signal reaches in-flight queries.
    churn: Arc<CatalogService>,
    config: TenantConfig,
    queue: VecDeque<Job>,
    inflight: usize,
    /// Name and counters; `inflight`, `queued` and the latency fields are
    /// filled in by [`TenantState::snapshot`].
    stats: TenantStats,
    /// The most recent [`LATENCY_WINDOW`] latencies, oldest first.
    latencies_ms: VecDeque<f64>,
}

impl TenantState {
    /// The counters plus an unsorted copy of the latency window, for
    /// [`TenantStats::with_latencies`] once the scheduler lock — which
    /// every `submit` and every worker's next claim needs — is released.
    fn snapshot(&self) -> (TenantStats, Vec<f64>) {
        let counters = TenantStats {
            inflight: self.inflight,
            queued: self.queue.len(),
            ..self.stats.clone()
        };
        (counters, self.latencies_ms.iter().copied().collect())
    }
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// sample with at least a `p` share of the samples at or below it.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct SchedState {
    tenants: Vec<TenantState>,
    /// Round-robin cursor: the tenant index the next scan starts from.
    next_rr: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<SchedState>,
    /// Signals workers that a job may be runnable.
    work: Condvar,
    /// Signals `wait_idle` that queues/in-flight counts changed.
    idle: Condvar,
    cache: PlanCache,
    config: ServiceConfig,
}

/// Pick the next runnable job, round-robin: the first tenant from the
/// cursor with a queued job and a free in-flight slot, whose claim moves
/// the cursor past it.
fn next_job(st: &mut SchedState) -> Option<(usize, Job)> {
    let n = st.tenants.len();
    let t = (0..n).map(|i| (st.next_rr + i) % n).find(|&t| {
        let ten = &st.tenants[t];
        !ten.queue.is_empty() && ten.inflight < ten.config.max_inflight
    })?;
    let ten = &mut st.tenants[t];
    let job = ten.queue.pop_front().expect("queue checked non-empty");
    ten.inflight += 1;
    st.next_rr = (t + 1) % n;
    Some((t, job))
}

/// The multi-tenant query service. Dropping it shuts the worker pool
/// down; queued-but-unrun queries resolve their tickets with a typed
/// cancellation.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl QueryService {
    /// Start a service with `config.workers` pool threads and an empty
    /// tenant table.
    pub fn new(config: ServiceConfig) -> QueryService {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                next_rr: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            cache: PlanCache::new(config.cache_capacity),
            config,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("geoqp-svc-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        QueryService { shared, workers }
    }

    /// Register a tenant: its own policy catalog, hence its own catalog
    /// service, base engine and implication memo. Returns the handle used
    /// by `submit`.
    pub fn add_tenant(
        &self,
        name: impl Into<String>,
        catalog: Arc<Catalog>,
        policies: Arc<PolicyCatalog>,
        topology: NetworkTopology,
        config: TenantConfig,
    ) -> TenantId {
        // The tenant's catalog log starts at the registered policy set.
        let churn = Arc::new(CatalogService::new(&Engine::new(
            catalog, policies, topology,
        )));
        let mut st = self.shared.state.lock().unwrap();
        st.tenants.push(TenantState {
            churn,
            config,
            queue: VecDeque::new(),
            inflight: 0,
            stats: TenantStats {
                name: name.into(),
                ..TenantStats::default()
            },
            latencies_ms: VecDeque::new(),
        });
        TenantId(st.tenants.len() - 1)
    }

    /// Submit a query for `tenant`. Refuses immediately with
    /// [`GeoError::Admission`] when the tenant's backlog budget
    /// (`max_inflight + max_queue` outstanding) is exhausted; otherwise
    /// returns a [`QueryTicket`] that resolves when the query completes.
    pub fn submit(&self, tenant: TenantId, request: QueryRequest) -> Result<QueryTicket> {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.shared.state.lock().unwrap();
            if st.shutdown {
                return Err(GeoError::Cancelled("service is shutting down".into()));
            }
            let ten = st
                .tenants
                .get_mut(tenant.0)
                .ok_or_else(|| GeoError::Execution(format!("unknown tenant #{}", tenant.0)))?;
            let outstanding = ten.queue.len() + ten.inflight;
            let budget = ten.config.max_inflight + ten.config.max_queue;
            if outstanding >= budget {
                ten.stats.rejected += 1;
                return Err(GeoError::Admission(format!(
                    "tenant '{}' backlog full: {} in flight + {} queued \
                     reaches the {} + {} admission budget",
                    ten.stats.name,
                    ten.inflight,
                    ten.queue.len(),
                    ten.config.max_inflight,
                    ten.config.max_queue,
                )));
            }
            ten.stats.admitted += 1;
            ten.queue.push_back(Job {
                request,
                submitted: Instant::now(),
                tx,
            });
        }
        self.shared.work.notify_one();
        Ok(QueryTicket { rx })
    }

    /// Block until every tenant's queue is empty and nothing is in
    /// flight.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().unwrap();
        while st
            .tenants
            .iter()
            .any(|t| !t.queue.is_empty() || t.inflight > 0)
        {
            st = self.shared.idle.wait(st).unwrap();
        }
    }

    /// Move a tenant to a new policy set by **appending to its catalog
    /// log**: expressions missing from `policies` are revoked and new ones
    /// granted. Every query claimed from now on pins the new head; the
    /// head's snapshot is materialized before this returns, so the first
    /// of them does not pay for the log replay. The plan cache drops
    /// exactly the tenant's entries whose key names a revoked pid; every
    /// other plan stays valid, since its key lists every expression the
    /// optimizer read for it, and a grant on a table a query scans
    /// changes that query's key instead.
    ///
    /// Grants only affect queries that pin a head holding them.
    /// Revocations are **pushed**: each revoke appended here publishes on
    /// the tenant's churn signal, and every in-flight query pinned before
    /// it aborts before its next batch leaves and re-plans under the head
    /// it can see, or is refused typed [`GeoError::NonCompliant`]. A
    /// query claimed between this update's appends pins the intermediate
    /// head, which is a seq of the log like any other. Returns the new
    /// head's seq. An update with a grant that does not validate is
    /// refused whole: nothing is appended, and the tenant keeps its head
    /// and cached plans.
    pub fn update_tenant_policies(
        &self,
        tenant: TenantId,
        policies: Arc<PolicyCatalog>,
    ) -> Result<u64> {
        let churn = self.tenant_catalog(tenant)?;
        // Multiset diff of display forms: live policies absent from the
        // target are revoked, target expressions not live are granted.
        let mut wanted: BTreeMap<String, Vec<PolicyExpression>> = BTreeMap::new();
        for e in policies.expressions() {
            wanted
                .entry(e.expr.to_string())
                .or_default()
                .push(e.expr.clone());
        }
        let mut revoked = BTreeSet::new();
        for (pid, display) in churn.live_policies() {
            match wanted.get_mut(&display) {
                Some(v) if !v.is_empty() => {
                    v.pop();
                }
                _ => {
                    revoked.insert(pid as usize);
                }
            }
        }
        let grants: Vec<PolicyExpression> = wanted.into_values().flatten().collect();
        // Validate every grant before appending anything: a refused
        // update leaves the log and the plan cache as they were.
        let storage = Arc::clone(churn.engine(churn.head())?.catalog());
        for expr in &grants {
            expr.validate(&storage.resolve_one(&expr.table)?.schema)?;
        }
        for &pid in &revoked {
            churn.revoke(pid as u64)?;
        }
        for expr in grants {
            churn.grant(expr)?;
        }
        let head = churn.head();
        // Materialize the head now: the first query after the update
        // then finds its snapshot cached instead of replaying the log.
        churn.engine(head)?;
        self.shared.cache.evict_pids(tenant.0, &revoked);
        Ok(head)
    }

    /// The tenant's catalog service. An append made here is the tenant's
    /// new head: a revoke reaches in-flight queries through the churn
    /// signal, and every query claimed after it pins the new head. It
    /// evicts no cached plan — a plan keyed by a revoked pid can never be
    /// looked up again — and the head's snapshot is materialized by the
    /// first query that pins it;
    /// [`QueryService::update_tenant_policies`] does both up front.
    pub fn tenant_catalog(&self, tenant: TenantId) -> Result<Arc<CatalogService>> {
        let st = self.shared.state.lock().unwrap();
        st.tenants
            .get(tenant.0)
            .map(|t| t.churn.clone())
            .ok_or_else(|| GeoError::Execution(format!("unknown tenant #{}", tenant.0)))
    }

    /// The engine at the tenant's catalog head — the one the next claimed
    /// query plans on (tests use this to probe memo isolation).
    pub fn tenant_engine(&self, tenant: TenantId) -> Result<Engine> {
        let churn = self.tenant_catalog(tenant)?;
        churn.engine(churn.head())
    }

    /// Snapshot one tenant's counters.
    pub fn tenant_stats(&self, tenant: TenantId) -> Result<TenantStats> {
        let snapshot = {
            let st = self.shared.state.lock().unwrap();
            st.tenants.get(tenant.0).map(TenantState::snapshot)
        };
        snapshot
            .map(|(counters, samples)| counters.with_latencies(samples))
            .ok_or_else(|| GeoError::Execution(format!("unknown tenant #{}", tenant.0)))
    }

    /// Snapshot every tenant's counters, in registration order.
    pub fn all_stats(&self) -> Vec<TenantStats> {
        let snapshots: Vec<_> = {
            let st = self.shared.state.lock().unwrap();
            st.tenants.iter().map(TenantState::snapshot).collect()
        };
        snapshots
            .into_iter()
            .map(|(counters, samples)| counters.with_latencies(samples))
            .collect()
    }

    /// Snapshot the shared plan cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Claim a job under the lock; pin and execute it outside.
        let (tenant_idx, job, churn) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some((t, job)) = next_job(&mut st) {
                    break (t, job, st.tenants[t].churn.clone());
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };

        let outcome = run_job(shared, tenant_idx, &churn, &job.request);
        let latency_ms = job.submitted.elapsed().as_secs_f64() * 1e3;

        {
            let mut st = shared.state.lock().unwrap();
            let ten = &mut st.tenants[tenant_idx];
            ten.inflight -= 1;
            if ten.latencies_ms.len() == LATENCY_WINDOW {
                ten.latencies_ms.pop_front();
            }
            ten.latencies_ms.push_back(latency_ms);
            let stats = &mut ten.stats;
            match &outcome {
                Ok(reply) => {
                    stats.completed += 1;
                    stats.replans += reply.replans as u64;
                    stats.churn_replans += reply.churn_replans;
                    if reply.cached {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                    }
                }
                Err(_) => stats.failed += 1,
            }
        }
        // Finishing a query can unblock both the scheduler (inflight
        // dropped below the tenant cap) and `wait_idle`.
        shared.work.notify_all();
        shared.idle.notify_all();

        // The client may have dropped its ticket; that is not an error.
        let _ = job.tx.send(outcome.map(|mut reply| {
            reply.latency_ms = latency_ms;
            reply
        }));
    }
}

/// Pin the tenant's catalog head, then parse, plan (through the cache),
/// and execute one query on the engine at that seq. Runs without the
/// scheduler lock held.
fn run_job(
    shared: &Shared,
    tenant: usize,
    churn: &Arc<CatalogService>,
    request: &QueryRequest,
) -> Result<QueryReply> {
    // A cancellation that fired while the query sat in the queue unwinds
    // here, before any planning work.
    if let Some(cancel) = &request.cancel {
        cancel.check("leaving the admission queue")?;
    }
    let pin = churn.head();
    let engine = churn.engine(pin)?;

    let ast = geoqp_parser::parse_query(&request.sql)?;
    let query = geoqp_parser::lower_query(&ast, engine.catalog())?;
    // The pids the optimizer can read for this query under `engine`'s
    // snapshot. A hit was planned under expressions with exactly these
    // pids, hence these texts, so it is the plan this engine's compliant
    // optimizer would return: it runs with no second audit.
    let tables = query.tables();
    let policies = (engine.policies().expressions().iter())
        .filter(|e| tables.iter().any(|t| e.governs(t)))
        .map(|e| e.id)
        .collect();
    let key = PlanKey {
        tenant,
        sql: request.sql.clone(),
        result_location: request.result_location.clone(),
        policies,
    };
    let (optimized, cached) = match shared.cache.lookup(&key) {
        Some(hit) => {
            let optimized = OptimizedQuery {
                physical: hit.physical,
                query,
                requested: key.result_location,
                options: OptimizerOptions::default(),
                stats: hit.stats,
                result_location: hit.result_location,
                mode: OptimizerMode::Compliant,
            };
            (optimized, true)
        }
        None => {
            let fresh = engine.optimize(
                &query,
                OptimizerMode::Compliant,
                key.result_location.clone(),
            )?;
            let plan = CachedPlan {
                physical: Arc::clone(&fresh.physical),
                result_location: fresh.result_location.clone(),
                stats: fresh.stats.clone(),
            };
            shared.cache.insert(key, plan);
            (fresh, false)
        }
    };

    let churn = ChurnOpts {
        service: Arc::clone(churn),
        pin,
    };
    let opts = exec_options(&shared.config, request, churn);
    let result = engine.run(&optimized, &opts)?;

    Ok(QueryReply {
        rows: result.rows,
        transfers: result.transfers,
        cached,
        replans: result.replans,
        churn_replans: result.churn_replans,
        latency_ms: 0.0, // stamped by the worker after the clock stops
        result_location: optimized.result_location.clone(),
    })
}

/// The options a job runs under: its catalog pin (`churn`) and the
/// service's re-plan budget, so a revocation published after the pin
/// aborts the query before its next batch leaves and the engine re-plans
/// under the head it can see; plus what the request asked for. A fault
/// plan brings the failover preset (retries, checkpoint/resume); a
/// deadline and a cancel token attach on their own.
fn exec_options<'a>(
    config: &ServiceConfig,
    request: &'a QueryRequest,
    churn: ChurnOpts,
) -> ExecOptions<'a> {
    let base = match &request.faults {
        Some(faults) => ExecOptions::failover(faults, &RetryPolicy::default(), config.max_replans),
        None => ExecOptions::default(),
    };
    ExecOptions {
        runtime: RuntimeConfig {
            columnar: config.columnar,
            ..RuntimeConfig::default()
        },
        deadline: request.deadline,
        cancel: request.cancel.clone(),
        churn: Some(churn),
        max_replans: config.max_replans,
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::LocationSet;

    /// A plain request runs once under the claimed pin's churn watch and
    /// the service's re-plan budget, with no fault plan.
    #[test]
    fn a_plain_request_runs_under_its_pin_and_the_service_budget() {
        let sites = LocationSet::from_iter(["EU", "US"]);
        let engine = Engine::new(
            Arc::new(Catalog::new()),
            Arc::new(PolicyCatalog::new()),
            NetworkTopology::uniform(sites, 10.0, 100.0),
        );
        let service = Arc::new(CatalogService::new(&engine));
        let config = ServiceConfig {
            max_replans: 7,
            columnar: false,
            ..ServiceConfig::default()
        };
        let request = QueryRequest::new("SELECT 1");
        let churn = ChurnOpts {
            service: Arc::clone(&service),
            pin: 3,
        };
        let opts = exec_options(&config, &request, churn);
        let pinned = opts.churn.as_ref().expect("every job runs under its pin");
        assert!(Arc::ptr_eq(&pinned.service, &service));
        assert_eq!(pinned.pin, 3);
        assert_eq!(opts.max_replans, 7);
        assert!(!opts.runtime.columnar);
        assert!(opts.faults.is_none() && !opts.resume, "no failover preset");

        let deadline = request.with_deadline(QueryDeadline::new(50.0));
        let churn = ChurnOpts {
            service: Arc::clone(&service),
            pin: 3,
        };
        let opts = exec_options(&config, &deadline, churn);
        assert!(opts.deadline.is_some(), "the deadline attaches on its own");
        assert!(opts.faults.is_none() && !opts.resume, "no failover preset");
        assert_eq!(opts.max_replans, 7);

        let faulted = deadline.with_faults(FaultPlan::new(5));
        let churn = ChurnOpts { service, pin: 3 };
        let opts = exec_options(&config, &faulted, churn);
        assert!(
            opts.faults.is_some() && opts.resume,
            "a fault plan brings it"
        );
        assert_eq!(opts.max_replans, 7);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Of two samples the median is the smaller: one of two is half.
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
    }
}
