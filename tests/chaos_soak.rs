//! Fixed-seed chaos soak: randomized crash/partition schedules with
//! query deadlines, driven through the runtime.
//!
//! Every schedule is a pure function of the soak seed, so a failure
//! replays exactly. For each schedule the invariants are: no panic, no
//! leaked worker thread, and — on every run that completes — the
//! fault-free answer through a placement that passes the Definition-1
//! audit. Runs that do not complete must fail with a *typed* error.
//!
//! `GEOQP_CHAOS_N` sets the number of schedules (default 8).

mod common;

use common::run_with_config;
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.001;
const QUERIES: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];
const SITES: [&str; 5] = ["L1", "L2", "L3", "L4", "L5"];

/// The fault-free answer every round is held to is the row interpreter's,
/// whichever engine the round soaks.
fn row_oracle() -> RuntimeConfig {
    RuntimeConfig {
        columnar: false,
        ..RuntimeConfig::default()
    }
}

/// splitmix64: the soak's only randomness, seeded and replayable.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Live threads in this process, from `/proc/self/status`.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(1)
}

/// One randomized schedule: a site blackout, a link partition, a flaky
/// link, and (half the time) a simulated-clock deadline. Returned as the
/// `--faults` spec plus its seed so a round can rebuild the *same*
/// `FaultPlan` for a duplicate-execution determinism check.
fn schedule_spec(rng: &mut u64) -> (String, u64, Option<QueryDeadline>, String) {
    let seed = splitmix(rng);
    let crash_site = SITES[(splitmix(rng) % 5) as usize];
    let crash_at = splitmix(rng) % 12;
    let crash_len = 1 + splitmix(rng) % 6;
    let pair = |rng: &mut u64| {
        let a = (splitmix(rng) % 5) as usize;
        let b = (a + 1 + (splitmix(rng) % 4) as usize) % 5;
        (SITES[a], SITES[b])
    };
    let (pa, pb) = pair(rng);
    let part_at = splitmix(rng) % 12;
    let part_len = 1 + splitmix(rng) % 4;
    let (fa, fb) = pair(rng);
    let flake = (splitmix(rng) % 40) as f64 / 100.0;
    let deadline = match splitmix(rng) % 2 {
        0 => None,
        _ => Some(QueryDeadline::new(500.0 + (splitmix(rng) % 4000) as f64)),
    };
    let spec = format!(
        "crash:{crash_site}@{crash_at}..{}; drop:{pa}-{pb}@{part_at}..{}; \
         flaky:{fa}-{fb}:{flake}",
        crash_at + crash_len,
        part_at + part_len,
    );
    let label = format!(
        "seed={seed} spec=[{spec}] deadline={:?}",
        deadline.as_ref().map(|d| d.budget_ms)
    );
    (spec, seed, deadline, label)
}

fn schedule(rng: &mut u64) -> (FaultPlan, Option<QueryDeadline>, String) {
    let (spec, seed, deadline, label) = schedule_spec(rng);
    let faults = FaultPlan::parse(&spec, seed).expect("generated spec parses");
    (faults, deadline, label)
}

/// One randomized *gray* schedule: a degraded link, a loss burst on the
/// same wire, and (sometimes) a flaky second link — the slow-but-alive
/// failures the hedging defense exists for, expressed in the `--faults`
/// grammar so the soak also exercises the parser.
fn gray_schedule(rng: &mut u64) -> (FaultPlan, String) {
    let seed = splitmix(rng);
    let pair = |rng: &mut u64| {
        let a = (splitmix(rng) % 5) as usize;
        let b = (a + 1 + (splitmix(rng) % 4) as usize) % 5;
        (SITES[a], SITES[b])
    };
    let (ga, gb) = pair(rng);
    let factor = 2 + splitmix(rng) % 7; // 2x..8x
    let loss = (splitmix(rng) % 20) as f64 / 100.0; // 0..0.19
    let mut spec = format!("degrade:{ga}-{gb}:{factor}x; loss:{ga}-{gb}:{loss}");
    if splitmix(rng) % 2 == 1 {
        let (fa, fb) = pair(rng);
        let flake = (splitmix(rng) % 25) as f64 / 100.0;
        spec.push_str(&format!("; flaky:{fa}-{fb}:{flake}"));
    }
    let faults = FaultPlan::parse(&spec, seed).expect("generated gray spec parses");
    (faults, format!("seed={seed} spec=[{spec}]"))
}

/// Gray-failure soak: randomized degrade/loss schedules with the full
/// hedging defense on (health scoring, backups, breakers, condemnation
/// re-plans). Invariants per run: the fault-free answer through an
/// audit-clean placement, or a typed refusal — hedging buys latency,
/// never different rows and never a compliance hole.
#[test]
fn randomized_gray_schedules_stay_compliant_with_hedging_on() {
    let n: usize = std::env::var("GEOQP_CHAOS_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan());
    let retry = RetryPolicy::default().with_jitter(0.3, 2021);

    let mut rng = 0x6772_6179_736f_616bu64; // fixed gray-soak seed
    let before = live_threads();
    let (mut completed, mut refused, mut hedged_runs) = (0usize, 0usize, 0usize);
    for round in 0..n {
        // Odd rounds soak the vectorized columnar path — same schedules,
        // same invariants, different inner loops.
        let config = RuntimeConfig {
            columnar: round % 2 == 1,
            // Columnar rounds alternate the morsel worker count so the
            // soak crosses every fault schedule with the morsel worker
            // pool engaged (even rounds are row-engine, workers inert).
            workers_per_site: if round % 4 == 1 { 2 } else { 4 },
            ..RuntimeConfig::default()
        };
        for query in QUERIES {
            let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
            let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
                continue;
            };
            let baseline = eng
                .execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &row_oracle())
                .unwrap();
            let (faults, label) = gray_schedule(&mut rng);
            let opts = ExecOptions::failover(&faults, &retry, SITES.len())
                .with_hedge(HedgeConfig::default());
            match run_with_config(&eng, &opt, opts, &config) {
                Ok((res, _metrics)) => {
                    completed += 1;
                    if res.hedges_launched > 0 {
                        hedged_runs += 1;
                    }
                    let mut got: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
                    let mut want: Vec<String> =
                        baseline.rows.iter().map(|r| format!("{r:?}")).collect();
                    got.sort();
                    want.sort();
                    assert_eq!(
                        got, want,
                        "round {round} {query} [{label}]: gray chaos changed the answer"
                    );
                    eng.audit(&res.physical).unwrap_or_else(|e| {
                        panic!(
                            "round {round} {query} [{label}]: completed through a \
                             non-compliant placement: {e}"
                        )
                    });
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            "rejected" | "unavailable" | "deadline" | "cancelled"
                        ),
                        "round {round} {query} [{label}]: untyped failure {e}"
                    );
                }
            }
        }
    }
    let mut after = live_threads();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = live_threads();
    }
    assert!(
        after <= before + 4,
        "{before} threads before the gray soak, {after} after — worker threads leaked"
    );
    assert!(
        completed >= 1,
        "the gray soak never completed a single run ({refused} refusals) — schedules too harsh"
    );
    assert!(
        hedged_runs >= 1,
        "the gray soak never launched a hedge across {completed} completions — \
         the defense was not exercised"
    );
}

/// Ad-hoc round: the soak's crash/partition schedules replayed over
/// *generated* queries instead of the named TPC-H six, so the chaos
/// surface tracks the workload generator's full shape space (2–5-way
/// joins, mixed aggregates). Same invariants: fault-free answer through
/// an audit-clean placement, or a typed refusal; no leaked workers.
#[test]
fn randomized_adhoc_round_stays_compliant_and_leak_free() {
    let n: usize = std::env::var("GEOQP_CHAOS_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan());
    let retry = RetryPolicy::default().with_jitter(0.3, 2021);
    // Three generated queries per schedule round, one deterministic batch.
    let queries = tpch::adhoc::generate_adhoc(eng.catalog(), 3 * n, 2021).unwrap();

    let mut rng = 0x6164_686f_6373_6f61u64; // fixed adhoc-soak seed
    let before = live_threads();
    let (mut completed, mut refused) = (0usize, 0usize);
    for (round, chunk) in queries.chunks(3).enumerate() {
        let config = RuntimeConfig {
            columnar: round % 2 == 1,
            // Columnar rounds alternate the morsel worker count so the
            // soak crosses every fault schedule with the morsel worker
            // pool engaged (even rounds are row-engine, workers inert).
            workers_per_site: if round % 4 == 1 { 2 } else { 4 },
            ..RuntimeConfig::default()
        };
        for q in chunk {
            let Ok(opt) = eng.optimize(&q.plan, OptimizerMode::Compliant, None) else {
                panic!("adhoc #{} failed to plan fault-free: {}", q.id, q.sql);
            };
            let baseline = eng
                .execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &row_oracle())
                .unwrap();
            let (faults, deadline, label) = schedule(&mut rng);
            let opts = ExecOptions {
                deadline,
                ..ExecOptions::failover(&faults, &retry, SITES.len())
            };
            match run_with_config(&eng, &opt, opts, &config) {
                Ok((res, _metrics)) => {
                    completed += 1;
                    let mut got: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
                    let mut want: Vec<String> =
                        baseline.rows.iter().map(|r| format!("{r:?}")).collect();
                    got.sort();
                    want.sort();
                    assert_eq!(
                        got, want,
                        "round {round} adhoc #{} [{label}]: chaos changed the answer\n{}",
                        q.id, q.sql
                    );
                    eng.audit(&res.physical).unwrap_or_else(|e| {
                        panic!(
                            "round {round} adhoc #{} [{label}]: completed through a \
                             non-compliant placement: {e}",
                            q.id
                        )
                    });
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            "rejected" | "unavailable" | "deadline" | "cancelled"
                        ),
                        "round {round} adhoc #{} [{label}]: untyped failure {e}",
                        q.id
                    );
                }
            }
        }
    }
    let mut after = live_threads();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = live_threads();
    }
    assert!(
        after <= before + 4,
        "{before} threads before the adhoc soak, {after} after — worker threads leaked"
    );
    assert!(
        completed >= 1,
        "the adhoc soak never completed a single run ({refused} refusals) — schedules too harsh"
    );
}

/// Service round: the soak's crash/partition/deadline schedules replayed
/// through the multi-tenant `QueryService` — concurrent sessions,
/// admission control, DRR scheduling, and the epoch-keyed plan cache all
/// under chaos at once. Invariants: every ticket resolves (no deadlock,
/// even with cancellations and deadlines mid-queue), completions return
/// the fault-free answer, failures carry a typed kind, and the service
/// joins every worker on drop.
#[test]
fn concurrent_service_round_under_chaos_resolves_every_ticket() {
    let n: usize = std::env::var("GEOQP_CHAOS_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let svc = QueryService::new(ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        columnar: true,
        max_replans: SITES.len(),
    });
    let mut tenants = Vec::new();
    for (i, template) in [PolicyTemplate::CRA, PolicyTemplate::CR].iter().enumerate() {
        let policies =
            tpch::generate_policies(&catalog, *template, 10, 2021 ^ (i as u64 + 1)).unwrap();
        tenants.push(svc.add_tenant(
            template.name(),
            Arc::clone(&catalog),
            Arc::new(policies),
            NetworkTopology::paper_wan(),
            TenantConfig {
                max_inflight: 2,
                max_queue: 16,
                quantum: 1,
            },
        ));
    }
    let queries = tpch::adhoc::generate_adhoc(&catalog, n, 2021).unwrap();

    let before = live_threads();
    let mut rng = 0x0073_6572_7669_6365_u64; // fixed service-soak seed
    let (mut completed, mut refused, mut rejected) = (0usize, 0usize, 0usize);
    for (round, q) in queries.iter().enumerate() {
        // Each round floods both tenants concurrently: one chaos-scheduled
        // submission plus one pre-cancelled submission per tenant, all in
        // flight before any ticket is waited on.
        let mut tickets = Vec::new();
        for &tenant in &tenants {
            let (faults, deadline, label) = schedule(&mut rng);
            let mut req = QueryRequest::new(&q.sql).with_faults(faults);
            if let Some(d) = deadline {
                req = req.with_deadline(d);
            }
            match svc.submit(tenant, req) {
                Ok(t) => tickets.push((tenant, label, t)),
                Err(e) => {
                    assert_eq!(e.kind(), "admission", "round {round}: untyped refusal {e}");
                    rejected += 1;
                }
            }
            let cancel = CancelToken::new();
            cancel.cancel();
            match svc.submit(tenant, QueryRequest::new(&q.sql).with_cancel(cancel)) {
                Ok(t) => tickets.push((tenant, "pre-cancelled".to_string(), t)),
                Err(e) => {
                    assert_eq!(e.kind(), "admission", "round {round}: untyped refusal {e}");
                    rejected += 1;
                }
            }
        }
        for (tenant, label, ticket) in tickets {
            match ticket.wait() {
                Ok(reply) => {
                    completed += 1;
                    // The fault-free answer through the same tenant's
                    // engine (policies differ per tenant).
                    let eng = svc.tenant_engine(tenant).unwrap();
                    let opt = eng
                        .optimize(&q.plan, OptimizerMode::Compliant, None)
                        .unwrap();
                    let baseline = eng.execute_columnar(&opt.physical).unwrap();
                    let mut got: Vec<String> =
                        reply.rows.iter().map(|r| format!("{r:?}")).collect();
                    let mut want: Vec<String> =
                        baseline.rows.iter().map(|r| format!("{r:?}")).collect();
                    got.sort();
                    want.sort();
                    assert_eq!(
                        got, want,
                        "round {round} adhoc #{} [{label}]: service chaos changed the answer\n{}",
                        q.id, q.sql
                    );
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            "rejected" | "unavailable" | "deadline" | "cancelled" | "admission"
                        ),
                        "round {round} adhoc #{} [{label}]: untyped failure {e}",
                        q.id
                    );
                }
            }
        }
    }
    assert!(
        completed >= 1,
        "the service soak never completed a single run \
         ({refused} refusals, {rejected} rejections) — schedules too harsh"
    );
    // Dropping the service must join all four workers.
    drop(svc);
    let mut after = live_threads();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = live_threads();
    }
    assert!(
        after <= before + 4,
        "{before} threads before the service soak, {after} after — service workers leaked"
    );
}

/// Catalog-churn round: mid-query revocations and catalog-plane
/// partitions layered on the soak's crash/partition/flake schedules.
/// Every run pins the pre-revocation epoch at admission and races a
/// scripted revocation released at a seeded executor step; every third
/// run additionally partitions the catalog plane at a non-coordinator
/// site so churn re-plans there must prove freshness or refuse.
/// Invariants per run: a completion returns the fault-free answer and
/// audits clean — against the pinned catalog when it finished under its
/// epoch, against the *shrunken* catalog when a revocation forced a
/// re-plan (zero non-compliant transfers either way); a failure carries
/// a typed kind; no leaked workers.
#[test]
fn catalog_churn_round_stays_compliant_and_resolves_typed() {
    let n: usize = std::env::var("GEOQP_CHAOS_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies.clone()),
        NetworkTopology::paper_wan(),
    );
    let retry = RetryPolicy::default().with_jitter(0.3, 2021);
    let coordinator = eng
        .catalog()
        .locations()
        .iter()
        .next()
        .cloned()
        .expect("the paper catalog has sites");

    let mut rng = 0x6361_7461_6c6f_6721u64; // fixed churn-soak seed
    let before = live_threads();
    let (mut completed, mut replanned, mut refused, mut stale_hits) =
        (0usize, 0usize, 0usize, 0usize);
    let mut run_idx = 0u64;
    for round in 0..n {
        // Odd rounds soak the vectorized columnar path, as elsewhere.
        let config = RuntimeConfig {
            columnar: round % 2 == 1,
            // Columnar rounds alternate the morsel worker count so the
            // soak crosses every fault schedule with the morsel worker
            // pool engaged (even rounds are row-engine, workers inert).
            workers_per_site: if round % 4 == 1 { 2 } else { 4 },
            ..RuntimeConfig::default()
        };
        for query in QUERIES {
            let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
            let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
                continue;
            };
            let baseline = eng
                .execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &row_oracle())
                .unwrap();
            let (faults, deadline, label) = schedule(&mut rng);

            // Fresh catalog service per run: revoke one live policy,
            // releasing it to in-flight execution at a deterministic
            // step that cycles through the early executor clock.
            let svc = CatalogService::new(
                Arc::clone(eng.catalog()),
                policies.clone(),
                coordinator.clone(),
            );
            let live = svc.live_policies();
            let (pid, _) = live[splitmix(&mut rng) as usize % live.len()];
            let rev = svc.revoke(pid).unwrap();
            let step = run_idx % 6;
            let svc = svc.with_planned(vec![ChurnEvent {
                step,
                seq: rev,
                revocation: true,
            }]);
            let partitioned = run_idx % 3 == 2;
            let svc = if partitioned {
                let site = SITES[1 + splitmix(&mut rng) as usize % (SITES.len() - 1)];
                Arc::new(
                    svc.with_faults(
                        FaultPlan::new(splitmix(&mut rng))
                            .with_partition([Location::new(site)], StepWindow::ALWAYS),
                    ),
                )
            } else {
                svc.sync_full();
                Arc::new(svc)
            };
            run_idx += 1;
            let pin = 0;
            let opts = ExecOptions {
                deadline,
                ..ExecOptions::failover(&faults, &retry, SITES.len())
                    .with_churn(Arc::clone(&svc), pin)
            };
            match run_with_config(&eng, &opt, opts, &config) {
                Ok((res, _metrics)) => {
                    completed += 1;
                    let mut got: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
                    let mut want: Vec<String> =
                        baseline.rows.iter().map(|r| format!("{r:?}")).collect();
                    got.sort();
                    want.sort();
                    assert_eq!(
                        got, want,
                        "round {round} {query} [{label}] revoke p{pid}@{step}: \
                         churn changed the answer"
                    );
                    if res.churn_replans > 0 {
                        replanned += 1;
                        // A revocation forced a re-plan: the final
                        // placement was chosen under the shrunken
                        // catalog and must audit clean against it.
                        let shrunk = eng.fork_with_policies(svc.snapshot(svc.head()).unwrap());
                        shrunk.audit(&res.physical).unwrap_or_else(|e| {
                            panic!(
                                "round {round} {query} [{label}] revoke p{pid}@{step}: \
                                 churn re-plan landed on a placement the shrunken \
                                 catalog forbids: {e}"
                            )
                        });
                    } else {
                        // Finished under the pinned epoch: Definition-1
                        // clean against the catalog it was admitted on.
                        eng.audit(&res.physical).unwrap_or_else(|e| {
                            panic!(
                                "round {round} {query} [{label}]: completed through a \
                                 non-compliant placement: {e}"
                            )
                        });
                    }
                }
                Err(e) => {
                    refused += 1;
                    if e.kind() == "catalog-stale" {
                        stale_hits += 1;
                    }
                    assert!(
                        matches!(
                            e.kind(),
                            "rejected"
                                | "unavailable"
                                | "deadline"
                                | "cancelled"
                                | "non-compliant"
                                | "catalog-stale"
                                | "churn"
                        ),
                        "round {round} {query} [{label}] revoke p{pid}@{step}: \
                         untyped failure {e}"
                    );
                }
            }
        }
    }
    let mut after = live_threads();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = live_threads();
    }
    assert!(
        after <= before + 4,
        "{before} threads before the churn soak, {after} after — worker threads leaked"
    );
    assert!(
        completed >= 1,
        "the churn soak never completed a single run ({refused} refusals) — schedules too harsh"
    );
    assert!(
        replanned >= 1,
        "no revocation ever caught a query in flight across {completed} completions \
         ({refused} refusals, {stale_hits} stale) — the recovery path was not exercised"
    );
}

/// The deployment the replica-crash + grant round runs against.
struct GrantRound {
    eng: Engine,
    policies: PolicyCatalog,
    coordinator: Location,
    crash_site: Location,
}

/// One run of the round, exactly as the soak's seeded stream yields it.
struct GrantRun {
    round: usize,
    query: &'static str,
    run_idx: u64,
    opt: OptimizedQuery,
    spec: String,
    fseed: u64,
    deadline: Option<QueryDeadline>,
    label: String,
    crash_seed: u64,
}

impl GrantRun {
    /// The executor step at which the revocations reach in-flight work.
    fn revoke_step(&self) -> u64 {
        self.run_idx % 6
    }

    fn config(&self) -> RuntimeConfig {
        RuntimeConfig {
            columnar: self.round % 2 == 1,
            // Columnar rounds alternate the morsel worker count so the
            // soak crosses every fault schedule with the morsel worker
            // pool engaged (even rounds are row-engine, workers inert).
            workers_per_site: if self.round % 4 == 1 { 2 } else { 4 },
            ..RuntimeConfig::default()
        }
    }
}

impl GrantRound {
    fn new() -> GrantRound {
        let catalog = Arc::new(tpch::paper_catalog(SF));
        tpch::populate(&catalog, SF, 7).unwrap();
        let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
        let eng = Engine::new(
            Arc::clone(&catalog),
            Arc::new(policies.clone()),
            NetworkTopology::paper_wan(),
        );
        let coordinator = eng
            .catalog()
            .locations()
            .iter()
            .next()
            .cloned()
            .expect("the paper catalog has sites");
        let crash_site = SITES
            .iter()
            .map(|s| Location::new(*s))
            .find(|s| *s != coordinator)
            .expect("a non-coordinator site exists");
        GrantRound {
            eng,
            policies,
            coordinator,
            crash_site,
        }
    }

    /// The first `n` rounds of the fixed bootstrap-soak stream.
    fn runs(&self, n: usize) -> Vec<GrantRun> {
        let mut rng = 0x626f_6f74_7374_7261u64; // fixed bootstrap-soak seed
        let mut runs = Vec::new();
        for round in 0..n {
            for query in QUERIES {
                let plan = tpch::query_by_name(self.eng.catalog(), query).unwrap();
                let Ok(opt) = self.eng.optimize(&plan, OptimizerMode::Compliant, None) else {
                    continue;
                };
                let (spec, fseed, deadline, label) = schedule_spec(&mut rng);
                let crash_seed = splitmix(&mut rng);
                runs.push(GrantRun {
                    round,
                    query,
                    run_idx: runs.len() as u64,
                    opt,
                    spec,
                    fseed,
                    deadline,
                    label,
                    crash_seed,
                });
            }
        }
        runs
    }

    /// Build the catalog service from identical seeded state: revoke
    /// every live policy, re-grant it, keep only the newest entries (so
    /// the floor snapshot is the only recovery path), and crash the
    /// chosen replica's catalog plane over the first two steps.
    /// Also returns the pin at seq 0, read before the appends compact it
    /// away.
    fn build_svc(&self, run: &GrantRun) -> (Arc<CatalogService>, u64) {
        let svc = CatalogService::new(
            Arc::clone(self.eng.catalog()),
            self.policies.clone(),
            self.coordinator.clone(),
        );
        let base = svc.head();
        let live = svc.live_policies();
        let svc = svc.with_auto_compact(live.len() as u64);
        let mut events = Vec::new();
        for (pid, _) in &live {
            let rev = svc.revoke(*pid).expect("live pid revokes");
            events.push(ChurnEvent {
                step: run.revoke_step(),
                seq: rev,
                revocation: true,
            });
        }
        for (_, display) in &live {
            let expr = geoqp::parser::parse_policy(display).expect("live policies re-parse");
            let grant = svc.grant(expr).expect("re-grant lands");
            events.push(ChurnEvent {
                step: 0,
                seq: grant,
                revocation: false,
            });
        }
        let svc = svc.with_planned(events).with_faults(
            FaultPlan::new(run.crash_seed)
                .with_crash(self.crash_site.clone(), StepWindow::new(0, 2)),
        );
        svc.sync_full();
        (Arc::new(svc), base)
    }

    /// Execute `run` from freshly seeded fault state against `svc`,
    /// admitted at `pin`.
    fn execute(
        &self,
        run: &GrantRun,
        (svc, pin): &(Arc<CatalogService>, u64),
    ) -> Result<(QueryOutcome, RuntimeMetrics)> {
        let faults = FaultPlan::parse(&run.spec, run.fseed).expect("spec re-parses");
        let retry = RetryPolicy::default().with_jitter(0.3, 2021);
        let opts = ExecOptions {
            deadline: run.deadline,
            ..ExecOptions::failover(&faults, &retry, SITES.len()).with_churn(Arc::clone(svc), *pin)
        };
        run_with_config(&self.eng, &run.opt, opts, &run.config())
    }
}

/// Everything a duplicate execution must reproduce: rows, typed outcome,
/// re-plan counts, and transfer bytes.
fn grant_outcome(r: &Result<(QueryOutcome, RuntimeMetrics)>) -> String {
    match r {
        Ok((res, _)) => {
            let mut rows: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            format!(
                "ok replans={} churn={} retries={} bytes={} rows={rows:?}",
                res.replans,
                res.churn_replans,
                res.grant_retries,
                res.transfers.total_bytes()
            )
        }
        Err(e) => format!("err kind={} msg={e}", e.kind()),
    }
}

/// Replica-crash + bootstrap + grant round: every run revokes the *entire*
/// live policy set (released to in-flight execution at a seeded step) and
/// re-grants it (released at step 0), while a catalog-plane crash wipes a
/// non-coordinator replica that must recover through the floor snapshot —
/// auto-compaction keeps only the newest entries, so recovery cannot
/// replay from seq 0. Invariants per run: a query the revocations refuse
/// under its re-pinned epoch is rescued by the quiesce-free grant retry
/// and still returns the fault-free answer through a placement the head
/// catalog allows; the wiped replica bootstraps with zero chain-
/// verification rejects; failures carry a typed kind; and every fourth
/// run re-executes from identically-seeded state and must reproduce the
/// outcome — rows, re-plan counts, and transfer bytes — exactly.
#[test]
fn replica_crash_bootstrap_and_grant_round_rescues_refused_queries() {
    let n: usize = std::env::var("GEOQP_CHAOS_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let fx = GrantRound::new();
    let eng = &fx.eng;

    let before = live_threads();
    let (mut completed, mut rescued, mut refused) = (0usize, 0usize, 0usize);
    let (mut wipes, mut bootstraps, mut chain_rejects) = (0u64, 0u64, 0u64);
    let mut determinism_checks = 0usize;
    for run in fx.runs(n) {
        let (round, query, label) = (run.round, run.query, &run.label);
        let revoke_step = run.revoke_step();
        let baseline = eng
            .execute_parallel_opts(&run.opt.physical, None, &RetryPolicy::none(), &row_oracle())
            .unwrap();

        let admitted = fx.build_svc(&run);
        let svc = &admitted.0;
        let synced = svc.health();
        let result = fx.execute(&run, &admitted);

        // Every fourth run replays from identically-seeded state; the
        // outcome — rows, re-plan counts, transfer bytes — must be
        // byte-identical.
        if run.run_idx.is_multiple_of(4) {
            let twin = fx.execute(&run, &fx.build_svc(&run));
            assert_eq!(
                grant_outcome(&result),
                grant_outcome(&twin),
                "round {round} {query} [{label}]: identically-seeded reruns diverged"
            );
            determinism_checks += 1;
        }

        // Heal the catalog plane: step 1 is inside the crash window
        // (the replica wipes), step 2 is past it (the replica must
        // re-bootstrap from the floor snapshot — replay from seq 0 is
        // impossible, compaction truncated the prefix).
        svc.sync_at(1);
        svc.sync_at(2);
        let health = svc.health();
        assert!(
            health.bootstraps > synced.bootstraps,
            "round {round} {query} [{label}]: the crashed replica never \
             bootstrapped from the floor snapshot"
        );
        wipes += health.wipes;
        bootstraps += health.bootstraps - synced.bootstraps;
        chain_rejects += health.chain_rejects;

        match &result {
            Ok((res, _)) => {
                completed += 1;
                let mut got: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
                let mut want: Vec<String> =
                    baseline.rows.iter().map(|r| format!("{r:?}")).collect();
                got.sort();
                want.sort();
                assert_eq!(
                    got, want,
                    "round {round} {query} [{label}] revoke-all@{revoke_step}: \
                     the grant round changed the answer"
                );
                if res.churn_replans > 0 {
                    // The revocations emptied the live set, so a churn
                    // re-plan can only have completed through the grant
                    // retry: refused under the revocation pin, rescued
                    // under the head where the re-grants live.
                    assert!(
                        res.grant_retries > 0,
                        "round {round} {query} [{label}]: a re-plan under the \
                         empty revocation pin completed without a grant retry"
                    );
                    rescued += 1;
                    let head = eng.fork_with_policies(svc.snapshot(svc.head()).unwrap());
                    head.audit(&res.physical).unwrap_or_else(|e| {
                        panic!(
                            "round {round} {query} [{label}]: a rescued query \
                             landed on a placement the head catalog forbids: {e}"
                        )
                    });
                } else {
                    eng.audit(&res.physical).unwrap_or_else(|e| {
                        panic!(
                            "round {round} {query} [{label}]: completed through a \
                             non-compliant placement: {e}"
                        )
                    });
                }
            }
            Err(e) => {
                refused += 1;
                assert!(
                    matches!(
                        e.kind(),
                        "rejected"
                            | "unavailable"
                            | "deadline"
                            | "cancelled"
                            | "non-compliant"
                            | "catalog-stale"
                            | "churn"
                    ),
                    "round {round} {query} [{label}] revoke-all@{revoke_step}: \
                     untyped failure {e}"
                );
            }
        }
    }
    let mut after = live_threads();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = live_threads();
    }
    assert!(
        after <= before + 4,
        "{before} threads before the bootstrap soak, {after} after — worker threads leaked"
    );
    assert!(
        completed >= 1,
        "the bootstrap soak never completed a single run ({refused} refusals) — \
         schedules too harsh"
    );
    assert!(
        rescued >= 1,
        "no refused query was ever rescued by a grant retry across {completed} \
         completions ({refused} refusals) — the recovery path was not exercised"
    );
    assert!(
        wipes >= 1 && bootstraps >= 1,
        "the catalog-plane crash never cost a replica its state \
         ({wipes} wipes, {bootstraps} bootstraps)"
    );
    assert_eq!(
        chain_rejects, 0,
        "a replica accepted state only after failing chain verification {chain_rejects} \
         time(s) — the bootstrap path has a verification bypass"
    );
    assert!(
        determinism_checks >= 1,
        "the duplicate-execution determinism check never ran"
    );
}

/// Regression for a schedule-dependent verdict of the earlier threaded
/// runtime: the two runs of the round above whose identically-seeded
/// twins diverged (between a stale-replica refusal and a churn re-plan)
/// whenever the test binary ran its tests concurrently. With every
/// fragment running to its own verdict, which failure a run reports —
/// and what it logged and checkpointed on the way — is a function of the
/// seed, so the twins must agree under any schedule. Here the schedule is made hostile on
/// purpose: spinner threads oversubscribe every core while each run is
/// repeated from identically-seeded state.
#[test]
fn twin_verdicts_agree_under_oversubscribed_spinners() {
    const DIVERGED_AT_PARENT: [u64; 2] = [6252809824418646282, 1817732632702134065];
    const REPEATS: usize = 8;
    let fx = GrantRound::new();
    let runs: Vec<GrantRun> = fx
        .runs(4)
        .into_iter()
        .filter(|run| DIVERGED_AT_PARENT.contains(&run.fseed))
        .collect();
    assert_eq!(runs.len(), 2, "the soak stream no longer yields both seeds");

    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..4 * cores {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        // Stop the spinners even when an assertion below unwinds, or the
        // scope would never join them.
        struct Stop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let _stop = Stop(&stop);
        for run in &runs {
            let first = grant_outcome(&fx.execute(run, &fx.build_svc(run)));
            for repeat in 0..REPEATS {
                assert_eq!(
                    grant_outcome(&fx.execute(run, &fx.build_svc(run))),
                    first,
                    "round {} {} [{}]: twin {repeat} diverged under contention",
                    run.round,
                    run.query,
                    run.label
                );
            }
        }
    });
}

#[test]
fn randomized_chaos_schedules_stay_compliant_and_leak_free() {
    let n: usize = std::env::var("GEOQP_CHAOS_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan());
    let retry = RetryPolicy::default().with_jitter(0.3, 2021);

    let mut rng = 0x6765_6f71_7063_686bu64; // fixed soak seed
    let before = live_threads();
    let (mut completed, mut refused) = (0usize, 0usize);
    for round in 0..n {
        // Odd rounds soak the vectorized columnar path — same schedules,
        // same invariants, different inner loops.
        let config = RuntimeConfig {
            columnar: round % 2 == 1,
            // Columnar rounds alternate the morsel worker count so the
            // soak crosses every fault schedule with the morsel worker
            // pool engaged (even rounds are row-engine, workers inert).
            workers_per_site: if round % 4 == 1 { 2 } else { 4 },
            ..RuntimeConfig::default()
        };
        for query in QUERIES {
            let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
            let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
                continue;
            };
            let baseline = eng
                .execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &row_oracle())
                .unwrap();
            let (faults, deadline, label) = schedule(&mut rng);
            let opts = ExecOptions {
                deadline,
                ..ExecOptions::failover(&faults, &retry, SITES.len())
            };
            match run_with_config(&eng, &opt, opts, &config) {
                Ok((res, _metrics)) => {
                    completed += 1;
                    let mut got: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
                    let mut want: Vec<String> =
                        baseline.rows.iter().map(|r| format!("{r:?}")).collect();
                    got.sort();
                    want.sort();
                    assert_eq!(
                        got, want,
                        "round {round} {query} [{label}]: chaos changed the answer"
                    );
                    eng.audit(&res.physical).unwrap_or_else(|e| {
                        panic!(
                            "round {round} {query} [{label}]: completed through a \
                             non-compliant placement: {e}"
                        )
                    });
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            "rejected" | "unavailable" | "deadline" | "cancelled"
                        ),
                        "round {round} {query} [{label}]: untyped failure {e}"
                    );
                }
            }
        }
    }
    // Workers join on every path; nothing may accumulate across the soak.
    let mut after = live_threads();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = live_threads();
    }
    assert!(
        after <= before + 4,
        "{before} threads before the soak, {after} after — worker threads leaked"
    );
    assert!(
        completed >= 1,
        "the soak never completed a single run ({refused} refusals) — schedules too harsh"
    );
}
