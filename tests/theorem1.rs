//! Randomized validation of Theorem 1: *the compliance-based optimizer
//! never outputs a non-compliant query execution plan* — checked with the
//! independent Definition-1 auditor over generated workloads and policy
//! sets.

use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::adhoc::generate_adhoc;
use geoqp::tpch::policy_gen::{generate_policies, PolicyTemplate};
use std::sync::Arc;

#[test]
fn compliant_plans_always_pass_the_audit() {
    let catalog = Arc::new(tpch::paper_catalog(10.0));
    for (seed, template) in [
        (1u64, PolicyTemplate::T),
        (2, PolicyTemplate::C),
        (3, PolicyTemplate::CR),
        (4, PolicyTemplate::CRA),
    ] {
        let policies = generate_policies(&catalog, template, 20, seed).unwrap();
        let eng = Engine::new(
            Arc::clone(&catalog),
            Arc::new(policies),
            NetworkTopology::paper_wan(),
        );
        for q in generate_adhoc(&catalog, 25, seed * 101).unwrap() {
            match eng.optimize(&q.plan, OptimizerMode::Compliant, None) {
                // Rejection is allowed by Theorem 1 (incompleteness);
                // emitting a violating plan is not.
                Err(e) => assert_eq!(e.kind(), "rejected", "query {}", q.id),
                Ok(opt) => {
                    eng.audit(&opt.physical).unwrap_or_else(|e| {
                        panic!(
                            "Theorem 1 violated for adhoc query {} under {}: {e}\n{}",
                            q.id,
                            template.name(),
                            geoqp::plan::display::display_physical(&opt.physical)
                        )
                    });
                }
            }
        }
    }
}

#[test]
fn crafted_sets_guarantee_compliant_plans_for_generated_workloads() {
    // The generator's documented guarantee: under the crafted base sets
    // every generated query retains at least one compliant plan.
    let catalog = Arc::new(tpch::paper_catalog(10.0));
    for template in [
        PolicyTemplate::T,
        PolicyTemplate::C,
        PolicyTemplate::CR,
        PolicyTemplate::CRA,
    ] {
        let policies = generate_policies(&catalog, template, template.base_count(), 2021).unwrap();
        let eng = Engine::new(
            Arc::clone(&catalog),
            Arc::new(policies),
            NetworkTopology::paper_wan(),
        );
        for q in generate_adhoc(&catalog, 40, 77).unwrap() {
            let opt = eng
                .optimize(&q.plan, OptimizerMode::Compliant, None)
                .unwrap_or_else(|e| {
                    panic!(
                        "no compliant plan for adhoc {} (tables {:?}) under {}: {e}",
                        q.id,
                        q.tables,
                        template.name()
                    )
                });
            eng.audit(&opt.physical).unwrap();
        }
        for (name, plan) in tpch::all_queries(&catalog).unwrap() {
            eng.optimize(&plan, OptimizerMode::Compliant, None)
                .unwrap_or_else(|e| panic!("{name} under {}: {e}", template.name()));
        }
    }
}

#[test]
fn audits_of_traditional_plans_never_panic() {
    // The auditor must classify any well-formed plan, compliant or not.
    let catalog = Arc::new(tpch::paper_catalog(10.0));
    let policies = generate_policies(&catalog, PolicyTemplate::CRA, 30, 9).unwrap();
    let eng = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    let mut compliant = 0;
    let mut violating = 0;
    for q in generate_adhoc(&catalog, 40, 5).unwrap() {
        let opt = eng
            .optimize(&q.plan, OptimizerMode::Traditional, None)
            .unwrap();
        match eng.audit(&opt.physical) {
            Ok(()) => compliant += 1,
            Err(e) => {
                assert_eq!(e.kind(), "non-compliant");
                violating += 1;
            }
        }
    }
    // The experiment premise: the baseline violates sometimes, not always.
    assert!(compliant > 0, "baseline never compliant?");
    assert!(
        violating > 0,
        "baseline never violates — policies toothless?"
    );
}

/// Definition 1 is enforced at execution too, by default: a plan that
/// claims to come from the compliant optimizer has every batch audited,
/// so a non-compliant edge is refused — naming the edge — before a byte
/// leaves its site. A traditional plan is the baseline the harness
/// audits afterwards, and runs as it is.
#[test]
fn a_default_run_enforces_definition_one() {
    let catalog = Arc::new(tpch::paper_catalog(0.001));
    tpch::populate(&catalog, 0.001, 7).unwrap();
    let template = PolicyTemplate::CRA;
    let policies = generate_policies(&catalog, template, template.base_count(), 2021).unwrap();
    let eng = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    let evaluator = PolicyEvaluator::new(eng.policies(), catalog.locations());
    let mut refused = 0;
    for (name, plan) in tpch::all_queries(&catalog).unwrap() {
        let Ok(compliant) = eng.optimize(&plan, OptimizerMode::Compliant, None) else {
            continue;
        };
        let traditional = eng
            .optimize(&plan, OptimizerMode::Traditional, None)
            .unwrap();
        if eng.audit(&traditional.physical).is_ok() {
            continue;
        }
        // The edges Definition 1 forbids: a destination outside 𝒮ₙ.
        let traits = geoqp::core::ship_traits(&traditional.physical, &evaluator, &catalog).unwrap();
        let illegal: Vec<String> = (traditional.physical.transfers().into_iter())
            .zip(&traits)
            .filter(|((_, to), legal)| !legal.contains(to))
            .map(|((from, to), _)| format!("SHIP {from} -> {to}"))
            .collect();
        assert!(!illegal.is_empty(), "{name}: the audit failed on no edge");

        let mislabelled = OptimizedQuery {
            physical: Arc::clone(&traditional.physical),
            mode: OptimizerMode::Compliant,
            ..compliant
        };
        let err = eng
            .run(&mislabelled, &ExecOptions::default())
            .expect_err("a non-compliant plan must not run as a compliant one");
        assert_eq!(err.kind(), "non-compliant", "{name}: {err}");
        assert!(
            illegal
                .iter()
                .any(|edge| err.message().contains(edge.as_str())),
            "{name}: the refusal names no forbidden edge ({illegal:?}): {err}"
        );

        let baseline = OptimizedQuery {
            mode: OptimizerMode::Traditional,
            ..mislabelled
        };
        eng.run(&baseline, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{name}: the traditional baseline must run: {e}"));
        refused += 1;
    }
    assert!(
        refused > 0,
        "no traditional plan was non-compliant under CR+A"
    );
}
