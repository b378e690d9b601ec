//! Property tests for the policy evaluator.
//!
//! * **Additivity / monotonicity**: the disclosure model is additive —
//!   registering one more expression can only *grow* (never shrink) the
//!   legal-location set of any query. The experiment generators rely on
//!   this to pad policy sets without breaking the compliant-plan
//!   guarantee.
//! * **Predicate monotonicity**: strengthening a query's predicate can
//!   only grow the legal set (more expressions become implied).
//! * **Masking monotonicity**: dropping output attributes can only grow
//!   the legal set (the paper's masking-via-projection rationale).
//! * **Memo transparency**: one implication memo shared across a whole
//!   workload answers exactly what the memo-less evaluator answers, and
//!   proves each distinct (query predicate, expression predicate) pair
//!   once.

use geoqp_common::{DataType, Field, Location, LocationPattern, LocationSet, Schema, TableRef};
use geoqp_expr::{AggCall, AggFunc, ScalarExpr};
use geoqp_plan::descriptor::{describe_local, LocalQuery, OutputShape};
use geoqp_plan::PlanBuilder;
use geoqp_policy::{ImplicationMemo, PolicyCatalog, PolicyEvaluator, PolicyExpression, ShipAttrs};
use proptest::prelude::*;
use std::collections::HashSet;

const COLS: [&str; 5] = ["a", "b", "c", "d", "e"];
const LOCS: [&str; 4] = ["l1", "l2", "l3", "l4"];

fn schema() -> Schema {
    Schema::new(
        COLS.iter()
            .map(|c| {
                Field::new(
                    *c,
                    if *c == "e" {
                        DataType::Str
                    } else {
                        DataType::Int64
                    },
                )
            })
            .collect(),
    )
    .unwrap()
}

fn universe() -> LocationSet {
    LocationSet::from_iter(LOCS.iter().copied())
}

/// An arbitrary policy expression over the test table.
fn arb_expr() -> impl Strategy<Value = PolicyExpression> {
    let attrs = proptest::sample::subsequence(COLS.to_vec(), 1..=COLS.len());
    let locs = proptest::sample::subsequence(LOCS.to_vec(), 1..=LOCS.len());
    let pred = proptest::option::of((0usize..4, -5i64..5, any::<bool>()).prop_map(|(c, v, gt)| {
        let col = ScalarExpr::col(COLS[c]);
        if gt {
            col.gt(ScalarExpr::lit(v))
        } else {
            col.lt_eq(ScalarExpr::lit(v))
        }
    }));
    let aggregate = any::<bool>();
    (attrs, locs, pred, aggregate).prop_map(|(attrs, locs, pred, aggregate)| {
        let to = LocationPattern::Set(LocationSet::from_iter(locs));
        if aggregate {
            PolicyExpression::aggregate(
                TableRef::bare("t"),
                ShipAttrs::list(attrs),
                [AggFunc::Sum, AggFunc::Avg],
                ["c".to_string(), "e".to_string()],
                to,
                pred,
            )
        } else {
            PolicyExpression::basic(TableRef::bare("t"), ShipAttrs::list(attrs), to, pred)
        }
    })
}

fn catalog_of(exprs: &[PolicyExpression]) -> PolicyCatalog {
    let s = schema();
    let mut cat = PolicyCatalog::new();
    for e in exprs {
        cat.register(e.clone(), &s).unwrap();
    }
    cat
}

/// The predicates of the expressions whose line-3 implication test
/// Algorithm 1 reaches for `q`: those governing its tables and sharing an
/// accessed attribute with it.
fn implication_tests(cat: &PolicyCatalog, q: &LocalQuery) -> Vec<Option<ScalarExpr>> {
    let mut accessed = q.output.output_attrs();
    if let Some(p) = &q.predicate {
        accessed.extend(p.referenced_columns());
    }
    if let OutputShape::Aggregated { group_attrs, .. } = &q.output {
        accessed.extend(group_attrs.iter().cloned());
    }
    if accessed.is_empty() {
        return Vec::new();
    }
    cat.expressions()
        .iter()
        .filter(|e| e.applies_to(q.tables.iter()) && accessed.iter().any(|a| e.attrs.contains(a)))
        .map(|e| e.expr.predicate.clone())
        .collect()
}

/// A random describable local query: optional filter, projection or
/// aggregation.
fn arb_query() -> impl Strategy<Value = std::sync::Arc<geoqp_plan::LogicalPlan>> {
    let out = proptest::sample::subsequence(vec!["a", "b", "c", "d", "e"], 1..=4);
    let pred = proptest::option::of(
        (0usize..4, -5i64..5).prop_map(|(c, v)| ScalarExpr::col(COLS[c]).gt(ScalarExpr::lit(v))),
    );
    let aggregate = any::<bool>();
    (out, pred, aggregate).prop_map(|(out, pred, aggregate)| {
        let mut b = PlanBuilder::scan(TableRef::bare("t"), Location::new("home"), schema());
        if let Some(p) = pred {
            b = b.filter(p).unwrap();
        }
        if aggregate {
            b.aggregate(
                &["c"],
                vec![AggCall::new(AggFunc::Sum, ScalarExpr::col("a"), "s")],
            )
            .unwrap()
            .build()
        } else {
            b.project_columns(&out).unwrap().build()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adding_expressions_is_monotone(
        base in proptest::collection::vec(arb_expr(), 0..5),
        extra in arb_expr(),
        query in arb_query(),
    ) {
        let uni = universe();
        let q = describe_local(&query).unwrap();

        let small = catalog_of(&base);
        let ev_small = PolicyEvaluator::new(&small, &uni);
        let before = ev_small.evaluate(&q);

        let mut bigger = base.clone();
        bigger.push(extra);
        let big = catalog_of(&bigger);
        let ev_big = PolicyEvaluator::new(&big, &uni);
        let after = ev_big.evaluate(&q);

        prop_assert!(
            before.is_subset(&after),
            "adding an expression shrank 𝒜: {before} → {after}"
        );
    }

    #[test]
    fn strengthening_the_predicate_is_monotone(
        exprs in proptest::collection::vec(arb_expr(), 1..5),
        threshold in -5i64..5,
    ) {
        let uni = universe();
        let cat = catalog_of(&exprs);
        let ev = PolicyEvaluator::new(&cat, &uni);

        let weak = PlanBuilder::scan(TableRef::bare("t"), Location::new("home"), schema())
            .filter(ScalarExpr::col("a").gt(ScalarExpr::lit(threshold)))
            .unwrap()
            .project_columns(&["a", "b"])
            .unwrap()
            .build();
        let strong = PlanBuilder::scan(TableRef::bare("t"), Location::new("home"), schema())
            .filter(ScalarExpr::col("a").gt(ScalarExpr::lit(threshold + 3)))
            .unwrap()
            .project_columns(&["a", "b"])
            .unwrap()
            .build();
        let l_weak = ev.evaluate(&describe_local(&weak).unwrap());
        let l_strong = ev.evaluate(&describe_local(&strong).unwrap());
        prop_assert!(
            l_weak.is_subset(&l_strong),
            "stronger predicate lost locations: {l_weak} vs {l_strong}"
        );
    }

    #[test]
    fn masking_attributes_is_monotone(
        exprs in proptest::collection::vec(arb_expr(), 1..5),
    ) {
        let uni = universe();
        let cat = catalog_of(&exprs);
        let ev = PolicyEvaluator::new(&cat, &uni);
        let wide = PlanBuilder::scan(TableRef::bare("t"), Location::new("home"), schema())
            .project_columns(&["a", "b", "c"])
            .unwrap()
            .build();
        let narrow = PlanBuilder::scan(TableRef::bare("t"), Location::new("home"), schema())
            .project_columns(&["a"])
            .unwrap()
            .build();
        let l_wide = ev.evaluate(&describe_local(&wide).unwrap());
        let l_narrow = ev.evaluate(&describe_local(&narrow).unwrap());
        prop_assert!(
            l_wide.is_subset(&l_narrow),
            "masking lost locations: {l_wide} vs {l_narrow}"
        );
    }

    #[test]
    fn a_memo_shared_across_a_workload_answers_as_the_memo_less_evaluator(
        exprs in proptest::collection::vec(arb_expr(), 0..6),
        pool in proptest::collection::vec(arb_query(), 1..8),
        picks in proptest::collection::vec(0usize..8, 1..=40),
    ) {
        let uni = universe();
        let cat = catalog_of(&exprs);
        let memo = ImplicationMemo::new();
        let shared = PolicyEvaluator::with_memo(&cat, &uni, &memo);
        let mut pairs = HashSet::new();
        let mut lookups = 0u64;
        for pick in picks {
            let q = describe_local(&pool[pick % pool.len()]).unwrap();
            let eta_before = shared.eta();
            let got = shared.evaluate(&q);

            let reference = PolicyEvaluator::new(&cat, &uni);
            prop_assert_eq!(&got, &reference.evaluate(&q));
            prop_assert_eq!(shared.eta() - eta_before, reference.eta());

            // A cold memo over the same query counts the lookups one
            // evaluation makes, independently of the shared memo, and
            // proves each distinct expression predicate once.
            let cold = ImplicationMemo::new();
            PolicyEvaluator::with_memo(&cat, &uni, &cold).evaluate(&q);
            let tested = implication_tests(&cat, &q);
            let distinct: HashSet<_> = tested.iter().collect();
            prop_assert_eq!(cold.misses(), distinct.len() as u64);
            prop_assert_eq!(cold.hits() + cold.misses(), tested.len() as u64);
            lookups += tested.len() as u64;
            pairs.extend(tested.into_iter().map(|e| (q.predicate.clone(), e)));
        }
        prop_assert_eq!(memo.len(), pairs.len());
        prop_assert_eq!(memo.misses(), pairs.len() as u64);
        prop_assert_eq!(memo.hits() + memo.misses(), lookups);
    }
}
