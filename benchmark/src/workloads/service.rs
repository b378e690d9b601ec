//! `service_mixed` and `service_churn`: the multi-tenant query service
//! under a closed loop.
//!
//! SF 0.005 populated; `QueryService` with 2 workers, a 1024-entry plan
//! cache, the columnar engine; four tenants T / C / CR / CR+A (10
//! expressions each, distinct policy seeds) over one 300-query ad-hoc SQL
//! pool. Two closed-loop clients — sessions that wait for their rows, so
//! a slow service receives less load — client *c* owns tenants 2c and
//! 2c+1 and alternates between them; 80 % of draws come from a hot 20 %
//! of the pool. Ownership makes each tenant's hit/miss sequence a
//! function of the seed alone.
//!
//! The pool and its hot set are a fixed corpus (generated from
//! `POOL_SEED`, as TPC-H's templates are fixed); `--seed` drives the data,
//! the policy fillers and the order of draws. Query costs in the pool span
//! three decades, so letting the seed choose the 60 hot queries — even one
//! per stratum of estimated size — moved throughput by a third between
//! seeds, which is more than any bound a later change could be held to.
//!
//! `service_churn` runs the same sequences, but before every 25th query
//! on a tenant its owner moves the tenant between policy set A and set B
//! (A plus one generated expression): a grant, then a revoke, each an
//! epoch bump, a cache purge and a cold implication memo. The owner has
//! no query in flight when it updates, so nothing races.
//!
//! The pool keeps only generated queries that (a) stay under a cap on
//! the optimizer's own row estimate — a handful of many-to-many joins
//! would otherwise take 100× the median and make every metric a function
//! of whether the seed put one in the hot set — and (b) plan, and audit
//! clean (Theorem 1), under every tenant's set A and set B, so no op is
//! refused.

use super::Cfg;
use crate::golden::{Expected, Oracle};
use crate::metrics::Report;
use crate::stats::{mean, median, peak_rss_mb, percentile, ratio, SplitMix64};
use crate::sut::{Dataset, Deployment, Digest, Located, PolicySet, Reply, Res, Service, Template};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub const SF: f64 = 0.005;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const CACHE_CAPACITY: usize = 1024;
const EXPRESSIONS: usize = 10;
const POOL: usize = 300;
const POOL_SEED: u64 = 2021;
/// Generated candidates per pool slot, before the two filters.
const CANDIDATES_PER_SLOT: f64 = 1.5;
/// Cap on Σ over a query's operators of estimated output rows (10× the
/// largest base table at this scale factor).
const EST_ROWS_CAP: f64 = 300_000.0;
const HOT_SHARE_OF_POOL: f64 = 0.2;
const HOT_SHARE_OF_DRAWS: f64 = 0.8;
const CHURN_EVERY: u64 = 25;
/// Width of one throughput slice.
const SLICE_S: f64 = 0.5;
/// Traced replay: queries per second of `--seconds`.
const TRACED_PER_SECOND: f64 = 150.0;

struct Ready {
    data: Dataset,
    pool: Vec<String>,
    mix: Mix,
    /// Per tenant: set A (base) and set B (A + one expression).
    sets: Vec<[PolicySet; 2]>,
    svc: Service,
}

struct SetupTimes {
    generate_policies_s: f64,
    generate_adhoc_s: f64,
}

fn set_up(cfg: &Cfg, data: Dataset) -> Res<(Ready, SetupTimes)> {
    let t = Instant::now();
    let mut sets = Vec::new();
    for (i, template) in Template::ALL.into_iter().enumerate() {
        let seed = cfg.seed ^ (i as u64 + 1);
        sets.push([
            data.policies(template, EXPRESSIONS, seed)?,
            data.policies(template, EXPRESSIONS + 1, seed)?,
        ]);
    }
    let generate_policies_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let candidates = data.adhoc((POOL as f64 * CANDIDATES_PER_SLOT) as usize, POOL_SEED)?;
    let generate_adhoc_s = t.elapsed().as_secs_f64();
    let engines: Vec<Deployment> = sets
        .iter()
        .flatten()
        .map(|set| Deployment::new(&data, set))
        .collect();
    let pool: Vec<(String, f64)> = candidates
        .into_iter()
        .map(|q| (data.estimated_rows(&q), q.sql))
        .filter(|(est, _)| *est <= EST_ROWS_CAP)
        .filter(|(_, sql)| {
            engines.iter().all(|dep| {
                dep.parse(sql)
                    .and_then(|ast| dep.lower(&ast))
                    .and_then(|logical| dep.optimize(&logical, true))
                    .and_then(|located| dep.audit(&located.physical()))
                    .is_ok()
            })
        })
        .map(|(est, sql)| (sql, est))
        .take(POOL)
        .collect();
    if pool.len() < POOL {
        return Err(format!(
            "only {} of {POOL} pool queries survived the filters",
            pool.len()
        ));
    }

    let mix = Mix::new(&pool);
    let pool = pool.into_iter().map(|(sql, _)| sql).collect();

    let svc = Service::start(WORKERS, CACHE_CAPACITY);
    for (template, set) in Template::ALL.iter().zip(&sets) {
        svc.add_tenant(template.name(), &data, &set[0]);
    }
    Ok((
        Ready {
            data,
            pool,
            mix,
            sets,
            svc,
        },
        SetupTimes {
            generate_policies_s,
            generate_adhoc_s,
        },
    ))
}

/// Rows are plan-independent, so one row-interpreter run per pool query
/// (under the first tenant's plan) checks every tenant's replies; shipped
/// bytes depend on the tenant's plan and are checked for repeatability
/// instead (`Checker`).
fn row_oracle(ready: &Ready) -> Res<Oracle> {
    let dep = Deployment::new(&ready.data, &ready.sets[0][0]);
    let mut oracle = Oracle::new();
    for (i, sql) in ready.pool.iter().enumerate() {
        let logical = dep.lower(&dep.parse(sql)?)?;
        let e = dep.run_rows(&dep.optimize(&logical, true)?.physical())?;
        oracle.insert(
            format!("q{i:03}"),
            Expected {
                digest: e.digest(),
                bytes: 0,
            },
        );
    }
    Ok(oracle)
}

/// Which pool queries are hot, which cold.
struct Mix {
    hot: Vec<usize>,
    cold: Vec<usize>,
}

impl Mix {
    /// One hot query per stratum of `1 / HOT_SHARE_OF_POOL` consecutive
    /// queries in order of estimated size.
    fn new(pool: &[(String, f64)]) -> Mix {
        let mut by_size: Vec<usize> = (0..pool.len()).collect();
        by_size.sort_by(|a, b| pool[*a].1.total_cmp(&pool[*b].1).then(a.cmp(b)));
        let stratum = (1.0 / HOT_SHARE_OF_POOL).round() as usize;
        let mut rng = SplitMix64(POOL_SEED);
        let mut mix = Mix {
            hot: Vec::new(),
            cold: Vec::new(),
        };
        for chunk in by_size.chunks(stratum) {
            let pick = rng.below(chunk.len());
            for (i, q) in chunk.iter().enumerate() {
                if i == pick {
                    mix.hot.push(*q);
                } else {
                    mix.cold.push(*q);
                }
            }
        }
        mix
    }
}

/// One client's query sequence: a pure function of `(seed, client)`.
struct Sequence<'a> {
    rng: SplitMix64,
    client: usize,
    issued: u64,
    mix: &'a Mix,
}

impl<'a> Sequence<'a> {
    fn new(seed: u64, client: usize, mix: &'a Mix) -> Sequence<'a> {
        Sequence {
            rng: SplitMix64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            client,
            issued: 0,
            mix,
        }
    }

    /// `(tenant, pool index, how many queries this tenant had before)`.
    fn next(&mut self) -> (usize, usize, u64) {
        let tenant = 2 * self.client + (self.issued % 2) as usize;
        let before = self.issued / 2;
        self.issued += 1;
        let from = if self.rng.unit() < HOT_SHARE_OF_DRAWS || self.mix.cold.is_empty() {
            &self.mix.hot
        } else {
            &self.mix.cold
        };
        let idx = from[self.rng.below(from.len())];
        (tenant, idx, before)
    }
}

/// Which policy set a tenant moves to before its `before`-th query, if any.
fn churn_target(before: u64) -> Option<usize> {
    (before > 0 && before.is_multiple_of(CHURN_EVERY))
        .then_some(((before / CHURN_EVERY) % 2) as usize)
}

/// Checks replies off the clock: rows against the oracle, shipped bytes
/// against the first reply for the same `(tenant, query, policy set)`.
struct Checker {
    digests: Vec<Digest>,
    bytes_seen: HashMap<(usize, usize, usize), u64>,
}

impl Checker {
    fn new(oracle: &Oracle, pool: usize) -> Res<Checker> {
        let digests = (0..pool)
            .map(|i| {
                oracle
                    .get(&format!("q{i:03}"))
                    .map(|e| e.digest)
                    .ok_or(format!("oracle has no entry for pool query {i}"))
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Checker {
            digests,
            bytes_seen: HashMap::new(),
        })
    }

    fn ok(&mut self, tenant: usize, idx: usize, set: usize, reply: &Reply) -> bool {
        let bytes = *self
            .bytes_seen
            .entry((tenant, idx, set))
            .or_insert(reply.exec.bytes);
        reply.exec.digest() == self.digests[idx] && bytes == reply.exec.bytes
    }
}

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    latency_ms: Vec<f64>,
    /// Seconds since the phase began at which each reply arrived.
    done_at_s: Vec<f64>,
    ship_ms: Vec<f64>,
    update_ms: Vec<f64>,
}

fn client(
    ready: &Ready,
    oracle: &Oracle,
    cfg: &Cfg,
    churn: bool,
    c: usize,
    start: Instant,
) -> Res<ClientLog> {
    let mut log = ClientLog::default();
    let mut seq = Sequence::new(cfg.seed, c, &ready.mix);
    let mut checker = Checker::new(oracle, ready.pool.len())?;
    let mut current_set = [0usize; 2 * CLIENTS];
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    while log.attempted == 0 || Instant::now() < deadline {
        let (tenant, idx, before) = seq.next();
        if let (true, Some(set)) = (churn, churn_target(before)) {
            let t = Instant::now();
            ready
                .svc
                .update_policies(tenant, &ready.sets[tenant][set])?;
            log.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            current_set[tenant] = set;
        }
        log.attempted += 1;
        let t = Instant::now();
        let reply = ready
            .svc
            .submit(tenant, &ready.pool[idx])
            .and_then(|ticket| ticket.wait());
        log.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.done_at_s.push(start.elapsed().as_secs_f64());
        match reply {
            Ok(r) if checker.ok(tenant, idx, current_set[tenant], &r) => {
                log.ship_ms.push(r.exec.network_ms);
            }
            _ => log.failed += 1,
        }
    }
    Ok(log)
}

pub fn run(cfg: &Cfg, churn: bool) -> Res<Report> {
    let mut report = Report::default();
    let (ready, setup_s) =
        cfg.set_up(|| set_up(cfg, Dataset::populated(SF, cfg.seed)?).map(|(ready, _)| ready))?;
    let (oracle, oracle_s) = cfg.oracle(|| row_oracle(&ready))?;
    report.note("oracle_s", oracle_s);

    let start = Instant::now();
    let logs: Vec<Res<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (ready, oracle) = (&ready, &oracle);
                scope.spawn(move || client(ready, oracle, cfg, churn, c, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        let log = log?;
        all.attempted += log.attempted;
        all.failed += log.failed;
        all.latency_ms.extend(log.latency_ms);
        all.done_at_s.extend(log.done_at_s);
        all.ship_ms.extend(log.ship_ms);
        all.update_ms.extend(log.update_ms);
    }
    report.attempted = all.attempted;
    report.failed = all.failed;

    // Replies per full slice of the phase, both clients together.
    let full = (cfg.seconds / SLICE_S).floor() as usize;
    let mut per_slice = vec![0usize; full.max(1)];
    let width = if full == 0 {
        cfg.seconds.max(1e-9)
    } else {
        SLICE_S
    };
    for t in &all.done_at_s {
        let i = (t / width) as usize;
        if i < per_slice.len() {
            per_slice[i] += 1;
        }
    }
    let rates: Vec<f64> = per_slice.iter().map(|n| *n as f64 / width).collect();

    report.set("setup_s", setup_s);
    report.set("ops_per_s", median(&rates));
    report.set("latency_ms_p50", median(&all.latency_ms));
    report.set("latency_ms_p95", percentile(&all.latency_ms, 0.95));
    report.set("ship_cost_ms_per_op", mean(&all.ship_ms));
    report.set("peak_rss_mb", peak_rss_mb());
    let (hits, misses) = ready.svc.cache_counters();
    report.note("scale_factor", SF);
    report.note("clients", CLIENTS);
    report.note("workers", WORKERS);
    report.note("pool", ready.pool.len());
    report.note("latency_samples", all.latency_ms.len());
    report.note("cache_hits", hits);
    report.note("cache_misses", misses);
    report.note("policy_updates", all.update_ms.len());
    report.note("policy_update_ms_p50", median(&all.update_ms));
    Ok(report)
}

/// What the direct replay remembers per `(tenant, query)`: the plan the
/// service's cache would hold.
type PlanCache = HashMap<(usize, usize), Located>;

pub fn run_traced(cfg: &Cfg, churn: bool) -> Res<Report> {
    let mut report = Report::default();
    let n = ((cfg.seconds * TRACED_PER_SECOND) as usize).max(20);

    let (data, generate_s, attach_s) = Dataset::populated_split(SF, cfg.seed)?;
    report.set("tpch.populate_s", generate_s);
    report.set("storage.populate_s", attach_s);
    let (ready, times) = set_up(cfg, data.clone())?;
    report.set("tpch.generate_policies_s", times.generate_policies_s);
    report.set("tpch.generate_adhoc_s", times.generate_adhoc_s);
    let (oracle, oracle_s) = cfg.oracle(|| row_oracle(&ready))?;
    report.set("bench.oracle_s", oracle_s);

    // Pass 1, tracing off, on a service of its own: the untraced side of
    // `trace.overhead_ratio`.
    let (quiet_ready, _) = set_up(cfg, data)?;
    let mut quiet = Tracer::new(false);
    let off = replay(
        cfg,
        churn,
        &quiet_ready,
        &oracle,
        n,
        &mut quiet,
        &mut Report::default(),
    )?;
    drop(quiet_ready);

    // Pass 2, tracing on.
    let mut tracer = Tracer::new(true);
    let on = replay(cfg, churn, &ready, &oracle, n, &mut tracer, &mut report)?;

    let (hits, misses) = ready.svc.cache_counters();
    report.set(
        "server.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("server.hit_latency_ms_p50", median(&on.hit_ms));
    report.set("server.miss_latency_ms_p50", median(&on.miss_ms));
    report.set(
        "server.submit_us_p50",
        median(&tracer.durations_us("server.submit")),
    );
    report.set("server.overhead_ms_p50", median(&on.overhead_ms));
    report.set("server.latency_ms_p99", percentile(&on.latency_ms, 0.99));
    report.set("policy.update_ms_p50", median(&on.update_ms));
    report.set("policy.update_ms_p95", percentile(&on.update_ms, 0.95));
    let nq = on.latency_ms.len() as f64;
    report.set("net.transfers_per_op", on.transfers as f64 / nq);
    report.set("net.bytes_per_op", on.bytes as f64 / nq);
    report.set("net.network_ms_per_op", on.network_ms / nq);
    report.set("bench.traced_ops", nq);
    report.set(
        "trace.spans",
        tracer.by_name().values().map(|t| t.calls as f64).sum(),
    );
    report.set("trace.replay_ms_p50", median(&on.latency_ms));
    report.set(
        "trace.overhead_ratio",
        ratio(median(&on.latency_ms), median(&off.latency_ms)),
    );
    report.note("scale_factor", SF);
    report.note("policy_updates", on.update_ms.len());
    cfg.dump_spans(&tracer)?;
    Ok(report)
}

#[derive(Default)]
struct ReplayLog {
    latency_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    /// Client latency minus the direct replay of the same query.
    overhead_ms: Vec<f64>,
    update_ms: Vec<f64>,
    transfers: usize,
    bytes: u64,
    network_ms: f64,
}

/// One thread plays both clients' sequences, alternating between them,
/// through the service; each query is then replayed directly on a private
/// engine — parse, lower, optimize-or-audit, execute — so what the service
/// adds (queue, scheduling, channel) is the difference.
fn replay(
    cfg: &Cfg,
    churn: bool,
    ready: &Ready,
    oracle: &Oracle,
    n: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Res<ReplayLog> {
    let mut log = ReplayLog::default();
    let mut sequences: Vec<Sequence> = (0..CLIENTS)
        .map(|c| Sequence::new(cfg.seed, c, &ready.mix))
        .collect();
    let mut checker = Checker::new(oracle, ready.pool.len())?;
    let mut current_set = [0usize; 2 * CLIENTS];
    let mut engines: Vec<Deployment> = ready
        .sets
        .iter()
        .map(|set| Deployment::new(&ready.data, &set[0]))
        .collect();
    let mut plans = PlanCache::new();

    for k in 0..n {
        let (tenant, idx, before) = sequences[k % CLIENTS].next();
        tracer.set_op(k as u64);
        if let (true, Some(set)) = (churn, churn_target(before)) {
            let t = Instant::now();
            tracer.span("policy.update", |_| {
                ready.svc.update_policies(tenant, &ready.sets[tenant][set])
            })?;
            log.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            current_set[tenant] = set;
            // Mirror the service: a forked engine with a cold memo, and
            // the tenant's cached plans gone.
            engines[tenant] = Deployment::new(&ready.data, &ready.sets[tenant][set]);
            plans.retain(|(t, _), _| *t != tenant);
        }

        report.attempted += 1;
        let sql = &ready.pool[idx];
        let t = Instant::now();
        let reply = tracer.span("server.query", |tr| {
            let ticket = tr.span("server.submit", |_| ready.svc.submit(tenant, sql))?;
            tr.span("server.wait", |_| ticket.wait())
        })?;
        let client_ms = t.elapsed().as_secs_f64() * 1e3;
        if !checker.ok(tenant, idx, current_set[tenant], &reply) {
            report.failed += 1;
        }
        log.latency_ms.push(client_ms);
        if reply.cached {
            log.hit_ms.push(client_ms);
        } else {
            log.miss_ms.push(client_ms);
        }
        log.transfers += reply.exec.transfers;
        log.bytes += reply.exec.bytes;
        log.network_ms += reply.exec.network_ms;

        let dep = &engines[tenant];
        let cached = plans.get(&(tenant, idx)).filter(|_| reply.cached).cloned();
        let t = Instant::now();
        let plan = tracer.span("direct.query", |tr| {
            let ast = tr.span("parser.parse", |_| dep.parse(sql))?;
            let logical = tr.span("parser.lower", |_| dep.lower(&ast))?;
            let plan = match cached {
                Some(plan) => {
                    tr.span("core.audit", |_| dep.audit(&plan.physical()))?;
                    plan
                }
                None => tr.span("core.optimize", |_| dep.optimize(&logical, true))?,
            };
            tr.span("core.execute_columnar", |_| {
                dep.run_columnar(&plan.physical())
            })?;
            Ok::<_, String>(plan)
        })?;
        log.overhead_ms
            .push(client_ms - t.elapsed().as_secs_f64() * 1e3);
        plans.insert((tenant, idx), plan);
    }
    Ok(log)
}
