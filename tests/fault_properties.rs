//! Compliance invariants under fault injection, as properties.
//!
//! For every (query, crashed site, seed) case: kill the site and run the
//! query with failover enabled. The engine must either complete —
//! through a placement that passes the independent Definition-1 audit,
//! whose deliveries never touch the dead site and never reach a site
//! outside the annotated plan's execution/shipping traits — or refuse
//! with a *typed* error. No case may produce an untyped failure or a
//! silently non-compliant dataflow.

mod common;

use common::run_with_config;
use geoqp::core::AnnotatedNode;
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

const SF: f64 = 0.001;
const QUERIES: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];
const SITES: [&str; 5] = ["L1", "L2", "L3", "L4", "L5"];
/// Links the gray-failure properties degrade: the busiest wires of the
/// paper WAN under the CR+A policy set.
const GRAY_LINKS: [(&str, &str); 3] = [("L2", "L3"), ("L1", "L4"), ("L4", "L3")];

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let catalog = Arc::new(tpch::paper_catalog(SF));
        tpch::populate(&catalog, SF, 7).unwrap();
        let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
        Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan())
    })
}

/// Every site any intermediate may legally occupy: the union of the
/// execution and shipping traits over the whole annotated plan.
fn legal_sites(node: &AnnotatedNode, into: &mut BTreeSet<Location>) {
    into.extend(node.exec.iter().cloned());
    into.extend(node.ship.iter().cloned());
    for child in &node.children {
        legal_sites(child, into);
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn killing_any_single_site_is_compliant_or_typed(
        qi in 0usize..6,
        si in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let dead = Location::new(SITES[si]);
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        // A query rejected before any fault is vacuously fine. (The
        // offline proptest stand-in runs cases in a plain loop, so use
        // `if let`, not an early `return`, to skip a case.)
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let mut legal = BTreeSet::new();
        legal_sites(&eng.annotate(&opt).unwrap(), &mut legal);

        let faults = FaultPlan::new(seed).with_crash(dead.clone(), StepWindow::ALWAYS);
        match eng.run(&opt, &ExecOptions::failover(&faults, &RetryPolicy::default(), 5)) {
            Ok(res) => {
                // The placement that answered is compliance-verified…
                eng.audit(&res.physical).expect("final placement must audit clean");
                for t in res.transfers.records() {
                    // …its deliveries never touch the corpse…
                    prop_assert!(
                        t.from != dead && t.to != dead,
                        "{query}: delivery {}→{} touched crashed {dead}",
                        t.from, t.to
                    );
                    // …and intermediates never land outside the traits
                    // the annotator derived from the policies.
                    prop_assert!(
                        legal.contains(&t.to),
                        "{query}: delivery into {} which is outside every \
                         execution/shipping trait of the plan", t.to
                    );
                    prop_assert!(
                        legal.contains(&t.from),
                        "{query}: delivery out of {} which is outside every \
                         execution/shipping trait of the plan", t.from
                    );
                }
            }
            Err(e) => {
                prop_assert!(
                    matches!(e.kind(), "rejected" | "unavailable"),
                    "{query} under crash of {dead}: untyped failure {e}"
                );
            }
        }
        }
    }

    /// Checkpoint legality: whatever crashes, however the failover goes,
    /// no retained intermediate is ever homed at a site outside the
    /// producing operator's shipping trait 𝒮ₙ — on either engine. The
    /// store enforces this at `put` time with a typed error, so a single
    /// illegal checkpoint would surface as a failed run, and the
    /// post-hoc sweep below re-checks every survivor independently.
    #[test]
    fn checkpoints_are_only_homed_inside_shipping_traits(
        qi in 0usize..6,
        si in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let dead = Location::new(SITES[si]);
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        // Crash onset varies with the seed so checkpoints are taken at
        // every stage of the run, not only before an early failure.
        let onset = seed % 8;
        let retry = RetryPolicy::default();
        for columnar in [false, true] {
            let faults = FaultPlan::new(seed)
                .with_crash(dead.clone(), StepWindow::new(onset, u64::MAX));
            let store = CheckpointStore::new();
            let opts = ExecOptions {
                runtime: RuntimeConfig { columnar, ..RuntimeConfig::default() },
                ..ExecOptions::failover(&faults, &retry, 5).with_store(&store)
            };
            if let Err(e) = eng.run(&opt, &opts) {
                prop_assert!(
                    matches!(e.kind(), "rejected" | "unavailable"),
                    "{query} (columnar={columnar}): untyped failure {e}"
                );
            }
            for cp in store.snapshot() {
                prop_assert!(
                    cp.legal.contains(&cp.home),
                    "{query} (columnar={columnar}): checkpoint {:016x} homed at {} \
                     outside its shipping trait {}",
                    cp.fingerprint, cp.home, cp.legal
                );
            }
        }
        }
    }

    /// Cooperative unwinding: a deadline or a pre-fired cancellation
    /// must join every worker (no thread leak) and leave no
    /// exchange slot poisoned — the very next run of the same query
    /// on the same engine succeeds with the fault-free answer.
    #[test]
    fn cancellation_joins_workers_and_poisons_nothing(
        qi in 0usize..6,
        budget in 0.0f64..80.0,
        seed in 0u64..1_000_000,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let baseline = eng.execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &RuntimeConfig::default()).unwrap();
        let fire_cancel = seed & 1 == 1;
        let cancel = CancelToken::new();
        if fire_cancel {
            cancel.cancel();
        }
        let faults = FaultPlan::new(seed);
        let opts = ExecOptions {
            deadline: Some(QueryDeadline::new(budget)),
            cancel: Some(cancel),
            ..ExecOptions::failover(&faults, &RetryPolicy::default(), 5)
        };
        let before = live_threads();
        let run = run_with_config(eng, &opt, opts, &RuntimeConfig::default());
        match run {
            Ok(_) => prop_assert!(!fire_cancel, "{query}: a fired token must cancel"),
            Err(e) => prop_assert!(
                matches!(e.kind(), "deadline" | "cancelled"),
                "{query}: fault-free unwind must be a typed deadline/cancel, got {e}"
            ),
        }
        // Fragment workers join on every path, success or unwind. Other
        // tests in this binary run concurrently, so give stray *foreign*
        // threads a moment; a worker leak here would never drain.
        let mut after = live_threads();
        for _ in 0..50 {
            if after <= before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            after = live_threads();
        }
        prop_assert!(
            after <= before + 4,
            "{query}: {} threads before, {after} after — worker threads leaked",
            before
        );
        // Nothing is poisoned: the same engine answers immediately.
        let again = eng.execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &RuntimeConfig::default()).unwrap();
        prop_assert_eq!(&again.rows, &baseline.rows);
        }
    }

    /// The same cooperative-unwinding contract with morsel workers: a
    /// deadline or pre-fired cancellation landing *mid-morsel* — small
    /// morsels, 4 workers per site — must join every pool thread,
    /// leave no exchange slot or job list
    /// poisoned, and keep the engine answering the fault-free result.
    #[test]
    fn cancellation_mid_morsel_joins_pool_workers(
        qi in 0usize..6,
        budget in 0.0f64..80.0,
        seed in 0u64..1_000_000,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let config = RuntimeConfig {
            columnar: true,
            workers_per_site: 4,
            morsel_rows: 64,
            ..RuntimeConfig::default()
        };
        let baseline = eng
            .execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &config)
            .unwrap();
        let fire_cancel = seed & 1 == 1;
        let cancel = CancelToken::new();
        if fire_cancel {
            cancel.cancel();
        }
        let faults = FaultPlan::new(seed);
        let opts = ExecOptions {
            deadline: Some(QueryDeadline::new(budget)),
            cancel: Some(cancel),
            ..ExecOptions::failover(&faults, &RetryPolicy::default(), 5)
        };
        let before = live_threads();
        let run = run_with_config(eng, &opt, opts, &config);
        match run {
            Ok(_) => prop_assert!(!fire_cancel, "{query}: a fired token must cancel"),
            Err(e) => prop_assert!(
                matches!(e.kind(), "deadline" | "cancelled"),
                "{query}: mid-morsel unwind must be a typed deadline/cancel, got {e}"
            ),
        }
        // Fragment workers *and* morsel pool threads join on every
        // path; a leaked pool worker would never drain.
        let mut after = live_threads();
        for _ in 0..50 {
            if after <= before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            after = live_threads();
        }
        prop_assert!(
            after <= before + 4,
            "{query}: {} threads before, {after} after — morsel pool workers leaked",
            before
        );
        // Nothing is poisoned, and worker invariance still holds: the
        // same engine immediately reproduces the 4-worker baseline.
        let again = eng
            .execute_parallel_opts(&opt.physical, None, &RetryPolicy::none(), &config)
            .unwrap();
        prop_assert_eq!(&again.rows, &baseline.rows);
        prop_assert_eq!(&again.transfers, &baseline.transfers);
        }
    }

    /// Flaky links and bounded outages (transient by construction) never
    /// change the answer: retries and failover are semantically
    /// invisible; only availability errors may escape.
    #[test]
    fn transient_chaos_never_corrupts_answers(
        qi in 0usize..6,
        seed in 0u64..1_000_000,
        prob in 0.0f64..0.6,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let baseline = eng.execute(&opt.physical).unwrap();
        let spec = format!(
            "flaky:L1-L4:{prob}; flaky:L2-L5:{prob}; crash:L3@1..3; delay:L1-L2:40ms"
        );
        let faults = FaultPlan::parse(&spec, seed).unwrap();
        match eng.run(&opt, &ExecOptions::failover(&faults, &RetryPolicy::default(), 5)) {
            Ok(res) => prop_assert_eq!(&res.rows, &baseline.rows),
            Err(e) => prop_assert!(
                matches!(e.kind(), "rejected" | "unavailable"),
                "untyped failure under transient chaos: {e}"
            ),
        }
        }
    }

    /// Hedged backups never leave the annotated plan's traits: every
    /// relay a backup routed through ([`geoqp::core::RelayEvent`]) is a
    /// site some operator's shipping trait admits, and every delivered
    /// byte — primary, duplicate, or relay hop — stays inside the legal
    /// site set. An illegal relay must surface as a typed refusal, never
    /// as a transfer.
    #[test]
    fn hedged_relays_stay_inside_shipping_traits(
        qi in 0usize..6,
        li in 0usize..3,
        seed in 0u64..1_000_000,
        factor in 2.0f64..8.0,
        loss in 0.0f64..0.2,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let (from, to) = GRAY_LINKS[li];
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let mut legal = BTreeSet::new();
        legal_sites(&eng.annotate(&opt).unwrap(), &mut legal);
        let faults = FaultPlan::new(seed)
            .with_degrade(from, to, factor, StepWindow::ALWAYS)
            .with_loss_burst(from, to, loss, StepWindow::ALWAYS);
        let opts = ExecOptions::failover(&faults, &RetryPolicy::default(), 5)
            .with_hedge(HedgeConfig::default());
        match run_with_config(eng, &opt, opts, &RuntimeConfig::default()) {
            Ok((res, _)) => {
                eng.audit(&res.physical).expect("final placement must audit clean");
                for relay in &res.relay_events {
                    prop_assert!(
                        legal.contains(&relay.via),
                        "{query}: hedged backup for {}→{} relayed via {}, a site \
                         outside every shipping trait of the plan",
                        relay.from, relay.to, relay.via
                    );
                }
                for t in res.transfers.records() {
                    prop_assert!(
                        legal.contains(&t.from) && legal.contains(&t.to),
                        "{query}: delivery {}→{} outside the legal site set",
                        t.from, t.to
                    );
                }
            }
            Err(e) => prop_assert!(
                matches!(e.kind(), "rejected" | "unavailable"),
                "{query} under gray {from}-{to}: untyped failure {e}"
            ),
        }
        }
    }

    /// The whole gray-failure defense is a pure function of (plan, fault
    /// seed): re-running the same hedged execution reproduces the health
    /// table fold, every hedge outcome, every link a re-plan avoided, and
    /// the simulated completion time bit-for-bit.
    #[test]
    fn breaker_and_hedge_state_replay_identically(
        qi in 0usize..6,
        li in 0usize..3,
        seed in 0u64..1_000_000,
        factor in 1.0f64..8.0,
        loss in 0.0f64..0.2,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let (from, to) = GRAY_LINKS[li];
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let run = || {
            let faults = FaultPlan::new(seed)
                .with_degrade(from, to, factor, StepWindow::ALWAYS)
                .with_loss_burst(from, to, loss, StepWindow::ALWAYS);
            let opts = ExecOptions::failover(&faults, &RetryPolicy::default(), 5)
                .with_hedge(HedgeConfig::default());
            run_with_config(eng, &opt, opts, &RuntimeConfig::default())
        };
        match (run(), run()) {
            (Ok((a, am)), Ok((b, bm))) => {
                prop_assert_eq!(a.link_health, b.link_health,
                    "{} health table fold diverged across identical replays", query);
                prop_assert_eq!(a.relay_events, b.relay_events);
                prop_assert_eq!(
                    (a.hedges_launched, a.hedges_won, &a.avoided_links),
                    (b.hedges_launched, b.hedges_won, &b.avoided_links)
                );
                prop_assert_eq!(am.completion_ms, bm.completion_ms);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "{query}: one replay completed and the other failed \
                 ({} vs {})",
                a.map(|_| "ok").unwrap_or_else(|e| e.kind()),
                b.map(|_| "ok").unwrap_or_else(|e| e.kind())
            ),
        }
        }
    }

    /// Hedging is semantically invisible: under the same gray link, the
    /// hedged and unhedged runs return the same row multiset — backups
    /// buy latency, never different answers.
    #[test]
    fn hedging_never_changes_the_answer(
        qi in 0usize..6,
        li in 0usize..3,
        seed in 0u64..1_000_000,
        factor in 1.0f64..8.0,
        loss in 0.0f64..0.15,
    ) {
        let eng = engine();
        let query = QUERIES[qi];
        let (from, to) = GRAY_LINKS[li];
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        if let Ok(opt) = eng.optimize(&plan, OptimizerMode::Compliant, None) {
        let run = |hedge: bool| {
            let faults = FaultPlan::new(seed)
                .with_degrade(from, to, factor, StepWindow::ALWAYS)
                .with_loss_burst(from, to, loss, StepWindow::ALWAYS);
            let opts = ExecOptions::failover(&faults, &RetryPolicy::default(), 5);
            let opts = if hedge {
                opts.with_hedge(HedgeConfig::default())
            } else {
                opts
            };
            run_with_config(eng, &opt, opts, &RuntimeConfig::default())
        };
        match (run(false), run(true)) {
            (Ok((plain, _)), Ok((hedged, _))) => {
                let sort = |rows: &Rows| {
                    let mut v: Vec<Vec<Value>> = rows.rows().to_vec();
                    v.sort_by(|a, b| {
                        a.iter()
                            .zip(b.iter())
                            .map(|(x, y)| x.total_cmp(y))
                            .find(|o| *o != std::cmp::Ordering::Equal)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    v
                };
                prop_assert_eq!(
                    sort(&plain.rows), sort(&hedged.rows),
                    "{} hedging changed the answer", query
                );
            }
            // Either arm may exhaust retries under heavy loss — a typed
            // availability failure, already covered above. Only matching
            // success is comparable.
            (a, b) => {
                for outcome in [a.err(), b.err()].into_iter().flatten() {
                    prop_assert!(
                        matches!(outcome.kind(), "rejected" | "unavailable"),
                        "{query}: untyped failure {outcome}"
                    );
                }
            }
        }
        }
    }
}
