//! Fault injection and compliant failover, end to end.
//!
//! The acceptance scenario of this suite: a TPC-H query runs while a
//! site crashes. The engine must either complete the query through a
//! re-planned, compliance-verified placement that avoids the dead site,
//! or surface a typed error — never a silent non-compliant answer. All
//! fault schedules are driven by a seedable [`FaultPlan`], so every run
//! here replays deterministically.

use geoqp::plan::{PhysOp, PhysicalPlan};
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.002;

fn engine() -> Engine {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, 7).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan())
}

/// Rows in a canonical order, so results from differently-placed (but
/// semantically equal) plans compare as multisets.
fn canonical(rows: &Rows) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// The acceptance criterion: Q3 under a permanent crash of each site in
/// the paper's deployment. Every run either completes — with the answer
/// of the fault-free run, through a placement that passes the
/// Definition-1 audit and never touches the dead site — or returns a
/// typed error.
#[test]
fn tpch_query_survives_single_site_crash_or_fails_typed() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q3").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let baseline = eng.execute(&opt.physical).unwrap();

    let mut survived = 0;
    let mut refused = 0;
    for site in ["L1", "L2", "L3", "L4", "L5"] {
        let faults = FaultPlan::parse(&format!("crash:{site}"), 11).unwrap();
        match eng.run(
            &opt,
            &ExecOptions::failover(&faults, &RetryPolicy::default(), 5),
        ) {
            Ok(res) => {
                assert_eq!(
                    canonical(&res.rows),
                    canonical(&baseline.rows),
                    "failover changed the answer (crashed {site})"
                );
                eng.audit(&res.physical)
                    .expect("failover placement must pass the Definition-1 audit");
                let dead = Location::new(site);
                for t in res.transfers.records() {
                    assert!(
                        t.from != dead && t.to != dead,
                        "a delivery touched the crashed site {site}"
                    );
                }
                if res.replans > 0 {
                    assert!(
                        res.excluded.contains(&dead),
                        "re-planning did not exclude the crashed site {site}"
                    );
                }
                survived += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e.kind(), "rejected" | "unavailable"),
                    "crash of {site} surfaced an untyped failure: {e}"
                );
                refused += 1;
            }
        }
    }
    // Q3 reads customer/orders (L1) and lineitem (L4): those crashes are
    // unsurvivable with single-homed tables and must refuse; the other
    // three sites must not take the query down with them.
    assert!(refused >= 2, "crashing a base-table site must refuse");
    assert!(survived >= 3, "crashes of unused sites must be survived");
}

/// Identical fault seeds replay identically: same rows, and a
/// byte-identical transfer log (deliveries, attempts, simulated costs,
/// and fault events all included).
#[test]
fn same_fault_seed_replays_identically() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q5").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let spec = "flaky:L1-L3:0.5; flaky:L2-L4:0.3; delay:L1-L2:25ms; crash:L5@0..2";

    let run = |seed: u64| {
        let faults = FaultPlan::parse(spec, seed).unwrap();
        eng.run(
            &opt,
            &ExecOptions::failover(&faults, &RetryPolicy::default(), 5),
        )
        .expect("bounded faults under a generous retry budget")
    };

    let a = run(7);
    let b = run(7);
    assert_eq!(a.rows, b.rows, "same seed, different answers");
    assert_eq!(
        a.transfers, b.transfers,
        "same seed, different transfer logs"
    );
    assert_eq!(a.replans, b.replans);

    // A different seed flips different flaky-link coins: the schedule is
    // a function of the seed, not of ambient state.
    let c = run(8);
    assert_eq!(a.rows, c.rows, "the answer never depends on the seed");
    assert!(
        a.transfers != c.transfers || a.transfers.fault_count() == 0,
        "seeds 7 and 8 produced identical fault schedules — suspicious"
    );
}

/// A bounded crash window is transient: the retry loop rides it out
/// without ever re-planning.
#[test]
fn transient_crash_window_is_ridden_out_by_retries() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q10").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let faults = FaultPlan::parse("crash:L2@0..2", 3).unwrap();
    let res = eng
        .run(
            &opt,
            &ExecOptions::failover(&faults, &RetryPolicy::default(), 5),
        )
        .expect("a two-step outage is inside the default retry budget");
    assert_eq!(res.replans, 0, "retries should absorb a transient window");
    assert!(res.excluded.is_empty());
}

/// If the site that must hold the result dies permanently, no compliant
/// failover exists: the engine refuses with a typed rejection instead of
/// delivering the answer elsewhere.
#[test]
fn permanent_crash_of_result_site_is_a_typed_rejection() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q3").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    let result_site = opt.result_location.clone();
    let faults = FaultPlan::new(1).with_crash(result_site.clone(), StepWindow::ALWAYS);
    let err = eng
        .run(
            &opt,
            &ExecOptions::failover(&faults, &RetryPolicy::default(), 5),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "rejected", "got: {err}");
    assert!(
        err.message().contains(&result_site.to_string()),
        "the rejection should name the dead result site: {err}"
    );
}

/// A genuine failover: the join runs at a relay site C whose execution
/// trait also admits D. When C dies permanently, re-running Algorithm 2
/// with C excluded moves the join to D, the placement re-passes the
/// Definition-1 audit, and the query completes with the same answer.
#[test]
fn failover_replans_to_an_alternate_compliant_site() {
    use geoqp::net::topology::Link;
    use geoqp::storage::Table;

    let mut catalog = Catalog::new();
    for (db, loc) in [("db-a", "A"), ("db-b", "B"), ("db-c", "C"), ("db-d", "D")] {
        catalog.add_database(db, Location::new(loc)).unwrap();
    }
    let t1 = catalog
        .add_table(
            "db-a",
            "t1",
            Schema::new(vec![
                Field::new("u_id", DataType::Int64),
                Field::new("u_val", DataType::Str),
            ])
            .unwrap(),
            TableStats::new(2, 16.0),
        )
        .unwrap();
    let t2 = catalog
        .add_table(
            "db-b",
            "t2",
            Schema::new(vec![
                Field::new("v_id", DataType::Int64),
                Field::new("v_val", DataType::Int64),
            ])
            .unwrap(),
            TableStats::new(2, 16.0),
        )
        .unwrap();
    t1.set_data(
        Table::new(
            Arc::clone(&t1.schema),
            vec![
                vec![Value::Int64(1), Value::str("x")],
                vec![Value::Int64(2), Value::str("y")],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    t2.set_data(
        Table::new(
            Arc::clone(&t2.schema),
            vec![
                vec![Value::Int64(1), Value::Int64(10)],
                vec![Value::Int64(3), Value::Int64(30)],
            ],
        )
        .unwrap(),
    )
    .unwrap();

    // Both tables may go to the relay C or the result site D.
    let mut policies = PolicyCatalog::new();
    for (text, table) in [
        ("ship * from t1 to C, D", "t1"),
        ("ship * from t2 to C, D", "t2"),
    ] {
        let expr = geoqp::parser::parse_policy(text).unwrap();
        let entry = catalog.resolve_one(&TableRef::bare(table)).unwrap();
        policies.register(expr, &entry.schema).unwrap();
    }

    // Direct links into D are brutally expensive, so the cheapest
    // compliant plan joins at C and ships only the result to D.
    let mut topo =
        NetworkTopology::uniform(LocationSet::from_iter(["A", "B", "C", "D"]), 50.0, 100.0);
    let dear = Link {
        alpha_ms: 1e7,
        beta_ms_per_byte: 1.0,
    };
    for from in ["A", "B"] {
        topo.set_link(Location::new(from), Location::new("D"), dear);
    }
    let eng = Engine::new(Arc::new(catalog), Arc::new(policies), topo);

    let sql = "SELECT u_val, v_val FROM t1, t2 WHERE u_id = v_id";
    let opt = eng
        .optimize_sql(sql, OptimizerMode::Compliant, Some(Location::new("D")))
        .unwrap();
    let baseline = eng.execute(&opt.physical).unwrap();
    assert_eq!(baseline.rows.len(), 1);
    assert!(
        baseline
            .transfers
            .records()
            .iter()
            .any(|t| t.to == Location::new("C")),
        "premise broken: the fault-free plan should relay through C"
    );

    let faults = FaultPlan::new(9).with_crash("C", StepWindow::ALWAYS);
    let res = eng
        .run(
            &opt,
            &ExecOptions::failover(&faults, &RetryPolicy::default(), 3),
        )
        .expect("a compliant alternative placement at D exists");
    assert_eq!(res.replans, 1, "exactly one re-plan should be needed");
    assert!(res.excluded.contains(&Location::new("C")));
    assert_eq!(canonical(&res.rows), canonical(&baseline.rows));
    eng.audit(&res.physical)
        .expect("failover placement audits clean");
    for t in res.transfers.records() {
        assert!(
            t.from != Location::new("C") && t.to != Location::new("C"),
            "a delivery touched the crashed relay C"
        );
    }
}

/// Exhausting the retry budget on a permanently dead link surfaces the
/// typed `SiteUnavailable` naming the failing link when no failover
/// remains (max_replans = 0 forbids re-planning).
#[test]
fn exhausted_retries_surface_the_failing_link() {
    let eng = engine();
    let plan = tpch::query_by_name(eng.catalog(), "Q3").unwrap();
    let opt = eng.optimize(&plan, OptimizerMode::Compliant, None).unwrap();
    // Fault-free run to learn which links the plan actually uses.
    let baseline = eng.execute(&opt.physical).unwrap();
    let Some(t0) = baseline.transfers.records().first().cloned() else {
        panic!("Q3's compliant plan should ship at least once");
    };
    let faults = FaultPlan::new(5).with_drop(t0.from.clone(), t0.to.clone(), StepWindow::ALWAYS);
    let err = eng
        .run(
            &opt,
            &ExecOptions::failover(&faults, &RetryPolicy::default(), 0),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "unavailable", "got: {err}");
    assert_eq!(
        err.failed_link(),
        Some((&t0.from, &t0.to)),
        "the error must identify the dead link"
    );
}

// Recovery causes combined in one run. Each failure cause changes the
// state every later re-plan places around: a crash excludes a site, a
// condemned gray link is priced at ∞, a revocation re-pins the engine and
// the annotated plan. The scans below look, the way E6 looks for
// late-crash cells, for runs where two causes meet in a known order, and
// check that the second re-plan kept what the first one changed.

const QUERIES: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];
const SITES: [&str; 5] = ["L1", "L2", "L3", "L4", "L5"];
const FAULT_SEED: u64 = 11;
/// Re-plan budget of a scanned run: room for both causes and then some.
const BUDGET: usize = 5;
/// Churn steps a revocation is released at. The runtime checks one step
/// per SHIP edge, in the order it ships them.
const TRIGGER_STEPS: [u64; 6] = [0, 1, 2, 3, 4, 6];

/// A catalog service whose log starts at `eng`'s policies.
fn catalog_service(eng: &Engine) -> CatalogService {
    let coordinator = eng.catalog().locations().iter().next().cloned().unwrap();
    CatalogService::new(
        Arc::clone(eng.catalog()),
        (**eng.policies()).clone(),
        coordinator,
    )
}

/// A catalog service whose log holds the revocation of `pid`, released
/// to in-flight work at churn step `step`.
fn revoking(eng: &Engine, pid: u64, step: u64) -> Arc<CatalogService> {
    let svc = catalog_service(eng);
    let rev = svc.revoke(pid).unwrap();
    let svc = svc.with_planned(vec![ChurnEvent {
        step,
        seq: rev,
        revocation: true,
    }]);
    svc.sync_full();
    Arc::new(svc)
}

/// Everything identical seeds must reproduce: rows, typed outcome,
/// counters and the transfer log.
fn replay(run: &Result<QueryOutcome>) -> String {
    match run {
        Ok(r) => format!(
            "{:?} {:?} {:?}",
            r.rows,
            (
                r.replans,
                r.churn_replans,
                r.grant_retries,
                (r.checkpoint_hits, r.checkpoint_misses),
                (r.resumed_bytes, r.recomputed_bytes),
                (r.hedges_launched, r.hedges_won, r.breaker_trips),
                (&r.excluded, &r.avoided_links, &r.waived_links),
            ),
            r.transfers
        ),
        Err(e) => format!("{}: {}", e.kind(), e.message()),
    }
}

/// One cell of a scan: a query with live policy `pid` revoked at churn
/// step `step`, on top of the fault schedule `faults` builds.
struct Cell<'a> {
    eng: &'a Engine,
    opt: &'a OptimizedQuery,
    label: String,
    pid: u64,
    step: u64,
    faults: Box<dyn Fn() -> FaultPlan + 'a>,
    /// Everything but the faults, the budget and the churn wiring.
    base: ExecOptions<'static>,
}

impl Cell<'_> {
    /// One run with `max_replans`: its result and its catalog service.
    fn run(&self, max_replans: usize) -> (Result<QueryOutcome>, Arc<CatalogService>) {
        let svc = revoking(self.eng, self.pid, self.step);
        let faults = (self.faults)();
        let pin = 0;
        let opts = ExecOptions {
            faults: Some(&faults),
            max_replans,
            ..self.base.clone()
        }
        .with_churn(Arc::clone(&svc), pin);
        (self.eng.run(self.opt, &opts), svc)
    }

    /// Two runs under the scan's budget, which must agree.
    fn twice(&self) -> (Result<QueryOutcome>, Arc<CatalogService>) {
        let (a, svc) = self.run(BUDGET);
        let (b, _) = self.run(BUDGET);
        assert_eq!(
            replay(&a),
            replay(&b),
            "{}: identical seeds diverged",
            self.label
        );
        (a, svc)
    }

    /// The second cause the run meets: with a budget of one re-plan, the
    /// first cause is absorbed and the second ends the run typed.
    fn second_cause(&self) -> Option<GeoError> {
        self.run(1).0.err()
    }

    /// A completed run that re-planned for both causes, one of them the
    /// revocation.
    fn both_causes(&self) -> Option<(QueryOutcome, Arc<CatalogService>)> {
        match self.twice() {
            (Ok(res), svc) if res.replans >= 2 && res.churn_replans == 1 => Some((res, svc)),
            _ => None,
        }
    }
}

/// A revocation budget refusal: the revocation was the second cause.
fn revocation_came_second(e: Option<GeoError>) -> bool {
    e.is_some_and(|e| e.kind() == "non-compliant" && e.message().contains("re-plan budget (1)"))
}

/// A cell that met two causes re-plans exactly twice: a third re-plan
/// means the second one forgot what the first changed and met it again.
const KEPT: &str = "re-planned a third time: the second re-plan forgot the first cause";

/// The final plan touches no dead site, kept it excluded, and audits
/// clean under the catalog the revocation left.
fn assert_crash_and_revocation_kept(
    label: &str,
    res: &QueryOutcome,
    svc: &CatalogService,
    eng: &Engine,
    dead: &Location,
) {
    assert_eq!(res.replans, 2, "{label}: {KEPT}");
    assert!(
        res.excluded.contains(dead),
        "{label}: {dead} left the excluded set"
    );
    res.physical.visit(&mut |p| {
        assert_ne!(
            &p.location, dead,
            "{label}: the final plan runs at dead {dead}"
        );
    });
    let shrunk = eng.fork_with_policies(svc.snapshot(svc.head()).unwrap());
    shrunk
        .audit(&res.physical)
        .unwrap_or_else(|e| panic!("{label}: final plan fails the post-revocation audit: {e}"));
}

/// Live pids of `eng`'s policy catalog, in pid order.
fn live_pids(eng: &Engine) -> Vec<u64> {
    let svc = catalog_service(eng);
    svc.live_policies().iter().map(|(pid, _)| *pid).collect()
}

/// `engine()` on a WAN whose only cheap links touch L3. Every site of
/// Table 2 hosts a table, and on the paper's WAN every site a plan uses
/// holds a table the query reads, so no permanent crash is survived by
/// re-placement. Here plans relay through L3, whose one table (`part`)
/// Q3, Q5 and Q10 do not read: a crash of L3 can be placed around.
fn relay_engine() -> Engine {
    use geoqp::net::topology::Link;
    let eng = engine();
    let mut topology = NetworkTopology::paper_wan();
    for from in SITES.iter().filter(|s| **s != "L3") {
        for to in SITES.iter().filter(|s| **s != "L3" && *s != from) {
            let dear = Link {
                alpha_ms: 5000.0,
                beta_ms_per_byte: 0.01,
            };
            topology.set_link(Location::new(*from), Location::new(*to), dear);
        }
    }
    Engine::new(
        Arc::clone(eng.catalog()),
        Arc::clone(eng.policies()),
        topology,
    )
}

/// The first fault step past every slot of `plan`'s grid that touches
/// `site` — an edge into or out of it, or a leaf read there: a crash
/// from that step on never reaches the plan's first attempt, but does
/// reach a re-planned grid that uses `site` at a later slot.
fn past_last_use(plan: &PhysicalPlan, site: &Location) -> u64 {
    let (mut edges, mut leaves) = (Vec::new(), Vec::new());
    plan.visit(&mut |p| match p.op {
        PhysOp::Ship => edges.push(p.location == *site || p.inputs[0].location == *site),
        PhysOp::Scan { .. } | PhysOp::ResumeScan { .. } => leaves.push(p.location == *site),
        _ => {}
    });
    let slots = edges.into_iter().chain(leaves);
    slots
        .enumerate()
        .filter(|(_, uses)| *uses)
        .map(|(slot, _)| slot as u64 + 1)
        .max()
        .unwrap_or(0)
}

/// A permanent crash of `site` from fault step `from` onward.
fn crash_from(site: &Location, from: u64) -> Box<dyn Fn() -> FaultPlan> {
    let site = site.clone();
    Box::new(move || FaultPlan::new(FAULT_SEED).with_crash(site.clone(), StepWindow::from(from)))
}

/// The crash scans' search space: each query optimized for each result
/// site, paired with each other site whose permanent crash alone is
/// survived by a re-plan.
fn survivable_crashes(eng: &Engine) -> Vec<(String, Arc<OptimizedQuery>, Location)> {
    let mut out = Vec::new();
    for query in QUERIES {
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        for result in SITES.map(Location::new) {
            let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, Some(result.clone()))
            else {
                continue;
            };
            let opt = Arc::new(opt);
            for site in SITES.map(Location::new) {
                let faults = crash_from(&site, 0)();
                let retry = RetryPolicy::default();
                let survived = site != result
                    && eng
                        .run(&opt, &ExecOptions::failover(&faults, &retry, BUDGET))
                        .is_ok_and(|res| res.replans > 0);
                if survived {
                    out.push((format!("{query}@{result}"), Arc::clone(&opt), site));
                }
            }
        }
    }
    out
}

/// Crash, then revocation: a site dies for good, the failover re-plan
/// excludes it, and a revocation then catches the re-planned attempt.
/// The revocation's re-plan must keep the dead site excluded.
#[test]
fn a_revocation_after_a_crash_keeps_the_dead_site_excluded() {
    let eng = relay_engine();
    let pids = live_pids(&eng);
    let mut found = None;
    'scan: for (query, opt, site) in &survivable_crashes(&eng) {
        for &pid in &pids {
            for step in TRIGGER_STEPS {
                let cell = Cell {
                    eng: &eng,
                    opt,
                    label: format!("{query}: crash {site}, then revoke p{pid} at step {step}"),
                    pid,
                    step,
                    faults: crash_from(site, 0),
                    base: ExecOptions {
                        resume: true,
                        ..ExecOptions::default()
                    },
                };
                let Some((res, svc)) = cell.both_causes() else {
                    continue;
                };
                if !revocation_came_second(cell.second_cause()) {
                    continue;
                }
                assert_crash_and_revocation_kept(&cell.label, &res, &svc, &eng, site);
                found = Some(cell.label);
                break 'scan;
            }
        }
    }
    eprintln!("crash → revocation: {found:?}");
    assert!(found.is_some(), "no cell met a crash and then a revocation");
}

/// Revocation, then crash: a revocation re-pins the query and
/// re-optimizes it under the forked engine, and a crash opening past the
/// admitted plan's fault-step grid — a step only a wider re-planned grid
/// reaches on its first attempt — then fails the re-optimized plan. The
/// failure re-plan must place the re-optimized tree and audit it under
/// the revoked catalog.
#[test]
fn a_crash_after_a_revocation_replans_the_reoptimized_tree() {
    let eng = relay_engine();
    let pids = live_pids(&eng);
    let mut found = None;
    'scan: for (query, opt, site) in &survivable_crashes(&eng) {
        for &pid in &pids {
            for step in TRIGGER_STEPS {
                // With no budget the revocation ends the run.
                let probe = Cell {
                    eng: &eng,
                    opt,
                    label: format!("{query}: revoke p{pid} at step {step}"),
                    pid,
                    step,
                    faults: Box::new(|| FaultPlan::new(FAULT_SEED)),
                    base: ExecOptions {
                        resume: true,
                        ..ExecOptions::default()
                    },
                };
                let (run, svc) = probe.run(0);
                if !run.is_err_and(|e| e.message().contains("re-plan budget (0)")) {
                    continue;
                }
                // Only a revocation that outlaws the admission-time plan
                // tells the re-optimized tree from the original one.
                let revoked = eng.fork_with_policies(svc.snapshot(svc.head()).unwrap());
                if revoked.audit(&opt.physical).is_ok() {
                    continue;
                }
                let past = past_last_use(&opt.physical, site);
                let cell = Cell {
                    label: format!("{}, then crash {site} from fault step {past}", probe.label),
                    faults: crash_from(site, past),
                    ..probe
                };
                let Some((res, svc)) = cell.both_causes() else {
                    continue;
                };
                assert!(
                    cell.second_cause()
                        .is_some_and(|e| e.kind() == "unavailable"),
                    "{}: the crash opens past the admitted grid, so it must be the second cause",
                    cell.label
                );
                assert_crash_and_revocation_kept(&cell.label, &res, &svc, &eng, site);
                found = Some(cell.label);
                break 'scan;
            }
        }
    }
    eprintln!("revocation → crash: {found:?}");
    assert!(found.is_some(), "no cell met a revocation and then a crash");
}

/// Condemned link, then revocation: with hedging on and E8's schedule (the
/// busiest link degraded 6x, a one-trip breaker budget), the breaker
/// condemns the link and a revocation then catches the re-planned
/// attempt. The revocation's re-plan must keep pricing the link at ∞: the
/// final plan ships nothing over it. (A waived condemnation may carry the
/// plan over the link, so the scan looks for one the re-plan avoided.)
#[test]
fn a_revocation_after_a_condemnation_keeps_the_link_avoided() {
    let eng = engine();
    let pids = live_pids(&eng);
    let config = RuntimeConfig {
        batch_rows: 32,
        ..RuntimeConfig::default()
    };
    let base = ExecOptions {
        resume: true,
        runtime: config.clone(),
        ..ExecOptions::default()
    }
    .with_hedge(HedgeConfig {
        delay_ms: 0.0,
        health: HealthConfig {
            open_budget: 1,
            cooldown_steps: 2,
        },
    });
    let mut found = None;
    'scan: for query in QUERIES {
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        // E8's gray link: the fault-free run's busiest cross-site edge.
        let plain = ExecOptions {
            runtime: config.clone(),
            ..ExecOptions::default()
        };
        let reference = eng.run(&opt, &plain).unwrap();
        let Some(link) = reference
            .metrics
            .edges
            .iter()
            .filter(|e| e.from != e.to)
            .max_by(|a, b| {
                (a.stats.bytes.cmp(&b.stats.bytes)).then(a.arrival_ms.total_cmp(&b.arrival_ms))
            })
            .map(|e| (e.from.clone(), e.to.clone()))
        else {
            continue;
        };
        for &pid in &pids {
            for step in TRIGGER_STEPS {
                let gray = link.clone();
                let cell = Cell {
                    eng: &eng,
                    opt: &opt,
                    label: format!(
                        "{query}: condemn {}->{}, then revoke p{pid} at step {step}",
                        link.0, link.1
                    ),
                    pid,
                    step,
                    faults: Box::new(move || {
                        FaultPlan::new(FAULT_SEED).with_degrade(
                            gray.0.clone(),
                            gray.1.clone(),
                            6.0,
                            StepWindow::ALWAYS,
                        )
                    }),
                    base: base.clone(),
                };
                let Some((res, _)) = cell.both_causes() else {
                    continue;
                };
                if !res.avoided_links.contains(&link)
                    || !revocation_came_second(cell.second_cause())
                {
                    continue;
                }
                assert_eq!(res.replans, 2, "{}: {}", cell.label, KEPT);
                res.physical.visit(&mut |p| {
                    if matches!(p.op, PhysOp::Ship) {
                        let hop = (p.inputs[0].location.clone(), p.location.clone());
                        assert!(
                            hop != link,
                            "{}: the final plan ships over the avoided link",
                            cell.label
                        );
                    }
                });
                found = Some(cell.label);
                break 'scan;
            }
        }
    }
    eprintln!("condemned link → revocation: {found:?}");
    assert!(
        found.is_some(),
        "no cell met a condemnation and then a revocation"
    );
}
