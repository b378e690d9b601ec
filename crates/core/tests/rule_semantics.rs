//! Exhaustive rule-semantics validation: **every** physical candidate the
//! optimizer can derive for a query — across `default_rules()` plus
//! `JoinExchange`, the one exported rule the default set leaves out —
//! must compute the same result when executed.
//!
//! This goes beyond the pipeline fuzz (which only executes the chosen
//! plan): here each root-group candidate is extracted, placed, executed,
//! and compared.

use geoqp_common::{DataType, Field, Location, LocationSet, Row, Rows, Schema, TableRef, Value};
use geoqp_core::annotate::{fill_stats, AnnotateMode, Annotator};
use geoqp_core::memo::Memo;
use geoqp_core::normalize::normalize_plan;
use geoqp_core::rules::transform::JoinExchange;
use geoqp_core::rules::{default_rules, explore, TransformRule};
use geoqp_core::select_sites;
use geoqp_exec::{LocalShip, MapSource};
use geoqp_net::NetworkTopology;
use geoqp_plan::{LogicalPlan, PlanBuilder};
use geoqp_policy::{PolicyCatalog, PolicyEvaluator};
use geoqp_storage::{Catalog, TableStats};
use std::cmp::Ordering;
use std::sync::Arc;

struct Fixture {
    catalog: Catalog,
    source: MapSource,
}

fn fixture() -> Fixture {
    let mut catalog = Catalog::new();
    let mut source = MapSource::new();
    let tables: [(&str, &str, &str, i64); 3] = [
        ("db-a", "A", "ta", 13),
        ("db-b", "B", "tb", 9),
        ("db-c", "C", "tc", 7),
    ];
    for (db, loc, t, n) in tables {
        catalog.add_database(db, Location::new(loc)).unwrap();
        let prefix = &t[1..];
        let schema = Schema::new(vec![
            Field::new(format!("{prefix}_k"), DataType::Int64),
            Field::new(format!("{prefix}_m"), DataType::Int64),
            Field::new(format!("{prefix}_v"), DataType::Int64),
        ])
        .unwrap();
        catalog
            .add_table(db, t, schema, TableStats::new(n as u64, 27.0))
            .unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                vec![
                    Value::Int64(i % 4),
                    Value::Int64(i % 3),
                    Value::Int64(i * 10 + n),
                ]
            })
            .collect();
        source.insert(
            TableRef::qualified(db, t),
            Location::new(loc),
            Rows::from_rows(rows),
        );
    }
    Fixture { catalog, source }
}

fn scan(f: &Fixture, t: &str) -> PlanBuilder {
    let e = f.catalog.resolve_one(&TableRef::bare(t)).unwrap();
    PlanBuilder::scan(
        e.table.clone(),
        e.location.clone(),
        e.schema.as_ref().clone(),
    )
}

fn canonical(rows: Rows) -> Vec<Row> {
    let mut v = rows.into_rows();
    v.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.total_cmp(y) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    });
    v
}

/// Every rule the crate implements: the product set plus `JoinExchange`.
fn every_rule() -> Vec<Box<dyn TransformRule>> {
    let mut rules = default_rules();
    rules.push(Box::new(JoinExchange));
    rules
}

/// Explore with every rule, then execute every root candidate.
fn assert_all_candidates_agree(f: &Fixture, plan: Arc<LogicalPlan>) {
    let normalized = normalize_plan(&plan).unwrap();
    let mut memo = Memo::new();
    let root = memo.copy_in(&normalized).unwrap();
    explore(&mut memo, &every_rule()).unwrap();

    let policies = PolicyCatalog::new();
    let universe = LocationSet::from_iter(["A", "B", "C"]);
    let evaluator = PolicyEvaluator::new(&policies, &universe);
    // Traditional mode: every site legal, so every candidate is placeable.
    let annotator = Annotator::new(&f.catalog, &evaluator, AnnotateMode::Traditional);
    let frontiers = annotator.annotate(&memo).unwrap();
    let topo = NetworkTopology::uniform(universe, 1.0, 1000.0);

    let candidates = frontiers.of(root);
    assert!(!candidates.is_empty(), "no candidates for root group");
    let mut reference: Option<Vec<Row>> = None;
    let mut distinct_shapes = 0;
    for cand in candidates {
        let mut annotated = frontiers.extract(&memo, cand);
        fill_stats(&mut annotated, &cand.logical, &f.catalog);
        let sited = select_sites(&annotated, &topo, None).unwrap();
        let rows = geoqp_exec::execute(&sited.physical, &f.source, &mut LocalShip).unwrap();
        let got = canonical(rows);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(
                r,
                &got,
                "candidate diverges:\n{}",
                geoqp_plan::display::display_physical(&sited.physical)
            ),
        }
        distinct_shapes += 1;
    }
    assert!(distinct_shapes >= 1);
}

#[test]
fn all_join_orders_agree_on_a_chain() {
    let f = fixture();
    let plan = scan(&f, "ta")
        .join(scan(&f, "tb"), vec![("a_k", "b_k")])
        .unwrap()
        .join(scan(&f, "tc"), vec![("b_m", "c_m")])
        .unwrap()
        .project_columns(&["a_v", "b_v", "c_v"])
        .unwrap()
        .build();
    assert_all_candidates_agree(&f, plan);
}

#[test]
fn exchange_alternatives_agree_on_a_star() {
    let f = fixture();
    // ta joins tb and tc on *different* ta columns — the star shape that
    // only JoinExchange can re-order.
    let plan = scan(&f, "ta")
        .join(scan(&f, "tb"), vec![("a_k", "b_k")])
        .unwrap()
        .join(scan(&f, "tc"), vec![("a_m", "c_m")])
        .unwrap()
        .project_columns(&["a_v", "b_v", "c_v"])
        .unwrap()
        .build();
    assert_all_candidates_agree(&f, plan);
}

#[test]
fn aggregation_pushdown_variants_agree() {
    use geoqp_expr::{AggCall, AggFunc, ScalarExpr};
    let f = fixture();
    // Mixed-side aggregate: SUM over the right side pushes down with a
    // count adjustment for the left-side SUM.
    let plan = scan(&f, "ta")
        .join(scan(&f, "tb"), vec![("a_k", "b_k")])
        .unwrap()
        .aggregate(
            &["a_m"],
            vec![
                AggCall::new(AggFunc::Sum, ScalarExpr::col("b_v"), "sum_b"),
                AggCall::new(AggFunc::Sum, ScalarExpr::col("a_v"), "sum_a"),
                AggCall::new(AggFunc::Min, ScalarExpr::col("b_v"), "min_b"),
                AggCall::new(AggFunc::Max, ScalarExpr::col("a_v"), "max_a"),
            ],
        )
        .unwrap()
        .build();
    assert_all_candidates_agree(&f, plan);
}

#[test]
fn count_star_pushdown_variants_agree() {
    use geoqp_expr::{AggCall, AggFunc, ScalarExpr};
    let f = fixture();
    let plan = scan(&f, "ta")
        .join(scan(&f, "tb"), vec![("a_k", "b_k")])
        .unwrap()
        .aggregate(
            &["b_m"],
            vec![
                AggCall::count_star("n"),
                AggCall::new(AggFunc::Sum, ScalarExpr::col("a_v"), "sum_a"),
            ],
        )
        .unwrap()
        .build();
    assert_all_candidates_agree(&f, plan);
}

#[test]
fn filters_and_residuals_agree() {
    use geoqp_expr::ScalarExpr;
    let f = fixture();
    let plan = scan(&f, "ta")
        .join(scan(&f, "tb"), vec![("a_k", "b_k")])
        .unwrap()
        .filter(
            ScalarExpr::col("a_v")
                .lt(ScalarExpr::col("b_v"))
                .and(ScalarExpr::col("a_m").gt(ScalarExpr::lit(0i64))),
        )
        .unwrap()
        .join(scan(&f, "tc"), vec![("b_m", "c_m")])
        .unwrap()
        .project_columns(&["a_v", "c_v"])
        .unwrap()
        .build();
    assert_all_candidates_agree(&f, plan);
}

/// Single-table projections over the partitioned `customer` / `orders`:
/// the only shape that leaves a `Project` directly on a `Union` after
/// normalization (which already prunes inside every union branch), hence
/// the only corpus `ProjectUnionTranspose` fires on — on the six + 200
/// ad-hoc queries over the partitioned catalog it adds nothing.
const PARTITIONED_PROJECTIONS: [&str; 3] = [
    "SELECT c_custkey, c_acctbal * 2 AS d FROM customer",
    "SELECT c_name, c_custkey FROM customer",
    "SELECT o_orderkey, o_totalprice + 1 AS t FROM orders WHERE o_totalprice > 100",
];

/// A rule that never fires is a dead rule: taking any one rule out of
/// `default_rules()` must cost the memo an expression somewhere on its
/// named corpus (the rules are judged inside the set they run in — alone,
/// `JoinAssocRight` adds nothing to a left-deep corpus), and the whole set
/// must reach its fixpoint far below `explore`'s 64-pass valve.
#[test]
fn every_default_rule_fires_and_exploration_converges() {
    use geoqp_tpch::{adhoc::generate_adhoc, queries::all_queries};
    let flat_catalog = geoqp_tpch::paper_catalog(10.0);
    let six = all_queries(&flat_catalog).unwrap().into_iter().map(|q| q.1);
    let adhoc = generate_adhoc(&flat_catalog, 200, 2021).unwrap();
    let flat: Vec<Arc<LogicalPlan>> = six.chain(adhoc.into_iter().map(|q| q.plan)).collect();
    let partitioned_catalog = geoqp_tpch::paper_catalog_partitioned(10.0, 3).unwrap();
    let partitioned: Vec<Arc<LogicalPlan>> = PARTITIONED_PROJECTIONS
        .iter()
        .map(|sql| {
            let ast = geoqp_parser::parse_query(sql).unwrap();
            geoqp_parser::lower_query(&ast, &partitioned_catalog).unwrap()
        })
        .collect();

    // (memo expressions, most fixpoint passes) over a corpus, explored
    // as `Engine::optimize_opts` does: normalize, copy in, explore.
    let explore_all = |plans: &[Arc<LogicalPlan>], rules: &[Box<dyn TransformRule>]| {
        let (mut exprs, mut max_passes) = (0, 0);
        for plan in plans {
            let mut memo = Memo::new();
            memo.copy_in(&normalize_plan(plan).unwrap()).unwrap();
            let stats = explore(&mut memo, rules).unwrap();
            exprs += memo.expr_count();
            max_passes = max_passes.max(stats.passes);
        }
        (exprs, max_passes)
    };
    let (flat_exprs, flat_passes) = explore_all(&flat, &default_rules());
    let (partitioned_exprs, partitioned_passes) = explore_all(&partitioned, &default_rules());
    let max_passes = flat_passes.max(partitioned_passes);
    assert!(max_passes <= 8, "fixpoint took {max_passes} passes");
    for (i, rule) in default_rules().iter().enumerate() {
        let (plans, with) = match rule.name() {
            "ProjectUnionTranspose" => (&partitioned, partitioned_exprs),
            _ => (&flat, flat_exprs),
        };
        let mut without = default_rules();
        without.remove(i);
        let (lacking, _) = explore_all(plans, &without);
        assert!(with > lacking, "{} adds nothing to its corpus", rule.name());
    }
}
