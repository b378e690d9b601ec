//! Golden-plan regression snapshots.
//!
//! The annotated plan (with its AR1–AR4 execution/shipping traits) and
//! the sited physical plan for each of the six evaluated TPC-H queries,
//! under the CR+A template set, are pinned as text snapshots in
//! `tests/golden/`. Any optimizer change that silently re-places an
//! operator, widens/narrows a trait, or re-shapes a plan shows up as a
//! readable diff here.
//!
//! Refresh after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test golden_plans`

use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::path::PathBuf;
use std::sync::Arc;

const SF: f64 = 0.002;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn snapshot(eng: &Engine, query: &str) -> String {
    let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
    match eng.optimize(&plan, OptimizerMode::Compliant, None) {
        Err(e) => format!("{query}: rejected ({e})\n"),
        Ok(opt) => format!(
            "{query}: result at {}\n\nannotated plan (ℰ = execution trait, 𝒮 = shipping trait):\n{}\nphysical plan:\n{}",
            opt.result_location,
            geoqp::core::explain::display_annotated(&eng.annotate(&opt).unwrap()),
            geoqp::plan::display::display_physical(&opt.physical),
        ),
    }
}

#[test]
fn annotated_and_physical_plans_match_their_snapshots() {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan());

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).unwrap();
    }

    let mut diffs = Vec::new();
    for query in ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"] {
        let got = snapshot(&eng, query);
        let path = dir.join(format!("{query}.txt"));
        if update {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing snapshot {}; run UPDATE_GOLDEN=1 cargo test --test golden_plans",
                path.display()
            )
        });
        if got != want {
            diffs.push(format!(
                "--- {query}: snapshot drift ---\nexpected:\n{want}\ngot:\n{got}"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "plan snapshots drifted (UPDATE_GOLDEN=1 refreshes intentional changes):\n{}",
        diffs.join("\n")
    );
}

/// Link-down re-plans, pinned: for each query, its busiest link (the
/// link E7 degrades and E8 drops) is priced at ∞ and Algorithm 2 re-runs
/// over the unchanged annotated plan — exactly the engine's re-plan
/// after a link fails between two live sites. The snapshot pins the
/// detoured physical plan, or records that no compliant detour exists
/// (the case the engine answers by stitching the failed plan against its
/// checkpoints, else by a typed rejection naming the link). Any
/// cost-model or trait change that silently alters where failover
/// re-routes a query shows up as a readable diff.
#[test]
fn link_down_replans_match_their_snapshot() {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan());

    // Each query's busiest cross-site exchange edge under CR+A — the
    // link the gray-failure experiments degrade and drop.
    let failed: [(&str, (&str, &str)); 6] = [
        ("Q2", ("L2", "L3")),
        ("Q3", ("L1", "L4")),
        ("Q5", ("L1", "L4")),
        ("Q8", ("L4", "L3")),
        ("Q9", ("L4", "L3")),
        ("Q10", ("L1", "L4")),
    ];
    let mut got = String::new();
    for (query, (from, to)) in failed {
        let plan = tpch::query_by_name(eng.catalog(), query).unwrap();
        let opt = match eng.optimize(&plan, OptimizerMode::Compliant, None) {
            Ok(opt) => opt,
            Err(e) => {
                got.push_str(&format!("{query}: rejected before any fault ({e})\n\n"));
                continue;
            }
        };
        let avoided = [(Location::new(from), Location::new(to))];
        let avoiding = eng.topology().avoiding_links(&avoided);
        got.push_str(&format!("{query}: failed link {from}->{to}\n"));
        match geoqp::core::select_sites_with(
            &eng.annotate(&opt).unwrap(),
            &avoiding,
            Some(&opt.result_location),
            geoqp::core::Objective::TotalCost,
        ) {
            Ok(replan) => got.push_str(&format!(
                "re-planned physical plan (failed link priced at ∞):\n{}\n",
                geoqp::plan::display::display_physical(&replan.physical),
            )),
            Err(e) => got.push_str(&format!(
                "no compliant detour: stitched against checkpoints, else rejected\n({e})\n\n",
            )),
        }
    }

    let path = golden_dir().join("link_down_replan.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; run UPDATE_GOLDEN=1 cargo test --test golden_plans",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "link-down re-plan snapshot drifted (UPDATE_GOLDEN=1 refreshes intentional changes)"
    );
}

/// The snapshots themselves must be deterministic: two optimizations in
/// the same process produce byte-identical renderings.
#[test]
fn snapshots_are_deterministic() {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, 2021).unwrap();
    let eng = Engine::new(catalog, Arc::new(policies), NetworkTopology::paper_wan());
    for query in ["Q2", "Q5", "Q10"] {
        assert_eq!(
            snapshot(&eng, query),
            snapshot(&eng, query),
            "{query}: non-deterministic plan rendering"
        );
    }
}
