//! The policy evaluation algorithm `𝒜(q, D, P_D)` — Algorithm 1 of the
//! paper's Section 5.
//!
//! Given the local-query descriptor of a single-database subquery and the
//! policy catalog, the evaluator associates with every *accessed* attribute
//! `a` the set `L_a` of locations some expression allows it to reach, and
//! returns the intersection `⋂_{a} L_a`.
//!
//! Two clarifications the paper's examples force (and which only make the
//! evaluator more conservative, never less):
//!
//! * **Accessed attributes.** `A_q` covers every attribute the query
//!   *accesses* — output expressions, selection predicates, and grouping
//!   keys. Section 3.1's example demands this:
//!   `𝒜(Π_name(σ_acctbal=100(C)), D_N, P_N) = {N}` even though `acctbal`
//!   never appears in the output — the shipped rows still reveal that every
//!   customer's balance equals 100. A predicate-only attribute is legal
//!   under a basic expression listing it, or under an aggregate
//!   expression's `group by` list.
//! * **Multi-table local queries.** When one site hosts several tables
//!   (Table 2's L1 holds Customer *and* Orders), a local subquery may join
//!   them. Each expression governs one table, so the grouping-subset check
//!   of line 7 applies to the query's grouping attributes restricted to the
//!   governed table (`G_q ∩ attrs(t_e) ⊆ G_e`).
//!
//! The evaluator also maintains the `η` counter the paper's Figure 7 uses:
//! the number of times an expression passes both the attribute-overlap and
//! implication tests (i.e. Algorithm 1 reaches line 4).

use crate::catalog::PolicyCatalog;
use crate::expression::PolicyKind;
use crate::memo::{predicate_fingerprint, ImplicationMemo};
use geoqp_common::LocationSet;
use geoqp_expr::implication::implies_opt;
use geoqp_plan::descriptor::{LocalQuery, OutputShape};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Evaluates dataflow policies against local queries.
#[derive(Debug)]
pub struct PolicyEvaluator<'a> {
    catalog: &'a PolicyCatalog,
    universe: &'a LocationSet,
    /// Shared implication-verdict cache; `None` proves every test fresh.
    memo: Option<&'a ImplicationMemo>,
    eta: AtomicU64,
    invocations: AtomicU64,
}

impl<'a> PolicyEvaluator<'a> {
    /// Create an evaluator over a catalog, with `universe` the deployment's
    /// full location set (resolves `to *`).
    pub fn new(catalog: &'a PolicyCatalog, universe: &'a LocationSet) -> PolicyEvaluator<'a> {
        PolicyEvaluator {
            catalog,
            universe,
            memo: None,
            eta: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
        }
    }

    /// [`PolicyEvaluator::new`] with a shared [`ImplicationMemo`]: line-3
    /// implication verdicts are served from (and recorded into) the memo,
    /// keyed by predicate fingerprint × expression id under the catalog's
    /// current epoch. Evaluators across AR1–AR4, plan enumeration, and
    /// failover re-plans may share one memo; verdicts transfer because
    /// the prover is pure.
    pub fn with_memo(
        catalog: &'a PolicyCatalog,
        universe: &'a LocationSet,
        memo: &'a ImplicationMemo,
    ) -> PolicyEvaluator<'a> {
        PolicyEvaluator {
            catalog,
            universe,
            memo: Some(memo),
            eta: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
        }
    }

    /// `𝒜(q, D, P_D)`: the locations the query's output may be shipped to,
    /// *excluding* the always-legal source location (which annotation rule
    /// AR3 contributes in the optimizer).
    pub fn evaluate(&self, q: &LocalQuery) -> LocationSet {
        self.invocations.fetch_add(1, Ordering::Relaxed);

        // Accessed attributes: output ∪ predicate ∪ grouping.
        let mut accessed: BTreeSet<String> = q.output.output_attrs();
        if let Some(p) = &q.predicate {
            accessed.extend(p.referenced_columns());
        }
        let (group_attrs, agg_attrs): (BTreeSet<String>, BTreeMap<String, geoqp_expr::AggFunc>) =
            match &q.output {
                OutputShape::Plain { .. } => (BTreeSet::new(), BTreeMap::new()),
                OutputShape::Aggregated {
                    group_attrs,
                    agg_attrs,
                    ..
                } => (group_attrs.clone(), agg_attrs.clone()),
            };
        accessed.extend(group_attrs.iter().cloned());

        if accessed.is_empty() {
            // A query accessing no attributes discloses nothing; still, the
            // conservative model grants no remote destinations.
            return LocationSet::new();
        }

        // Line 1: L_a ← ∅ for every accessed attribute.
        let mut l_a: BTreeMap<&str, LocationSet> = accessed
            .iter()
            .map(|a| (a.as_str(), LocationSet::new()))
            .collect();

        // Memo key parts, computed once per evaluation.
        let memo_key = self.memo.map(|m| {
            (
                m,
                self.catalog.epoch(),
                predicate_fingerprint(q.predicate.as_ref()),
            )
        });

        for e in self.catalog.expressions() {
            // The expression must govern the query's tables — all of its
            // tables for multi-table expressions (footnote 4)...
            if !e.applies_to(q.tables.iter()) {
                continue;
            }
            // ... and share *ship* attributes with the query (line 2:
            // A_q ∩ A_e ≠ ∅; grouping attributes only become relevant in
            // lines 8–10 once this gate passes).
            if !accessed.iter().any(|a| e.attrs.contains(a)) {
                continue;
            }
            // Line 3: the implication test, memoized when a memo is
            // attached (the prover is pure, so cached verdicts are exact).
            let implied = match &memo_key {
                Some((m, epoch, fp)) => m.check(*epoch, *fp, e.id, || {
                    implies_opt(q.predicate.as_ref(), e.expr.predicate.as_ref())
                }),
                None => implies_opt(q.predicate.as_ref(), e.expr.predicate.as_ref()),
            };
            if !implied {
                continue;
            }
            // Reached line 4: count toward η.
            self.eta.fetch_add(1, Ordering::Relaxed);

            let grant = e.expr.to.resolve(self.universe);
            match &e.expr.kind {
                // Lines 4–5 (and case 2: an aggregate query's inputs are
                // "less aggregated" than a basic expression's cells, so the
                // same rule applies).
                PolicyKind::Basic => {
                    for a in &accessed {
                        if e.attrs.contains(a) {
                            l_a.get_mut(a.as_str()).unwrap().union_with(&grant);
                        }
                    }
                }
                // Lines 6–10.
                PolicyKind::Aggregate {
                    functions,
                    group_by,
                } => {
                    if !q.output.is_aggregated() {
                        continue; // line 6: only aggregation queries
                    }
                    // Line 7: G_q (restricted to this table) ⊆ G_e;
                    // the empty subset is allowed.
                    let gq_local: BTreeSet<&String> = group_attrs
                        .iter()
                        .filter(|g| e.table_attrs.contains(*g))
                        .collect();
                    if !gq_local.iter().all(|g| group_by.contains(*g)) {
                        continue;
                    }
                    // Lines 8–10.
                    for a in &accessed {
                        let in_ge = group_by.contains(a);
                        let aggregated_ok = e.attrs.contains(a)
                            && agg_attrs.get(a).is_some_and(|f| functions.contains(f));
                        if in_ge || aggregated_ok {
                            l_a.get_mut(a.as_str()).unwrap().union_with(&grant);
                        }
                    }
                }
            }
        }

        // Line 11: ⋂_{a ∈ A_q} L_a.
        let mut iter = l_a.values();
        let mut result = iter.next().cloned().unwrap_or_default();
        for s in iter {
            result.intersect_with(s);
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// Like [`PolicyEvaluator::evaluate`], additionally including the
    /// query's own source location, which is always legal (the form the
    /// paper's Section 3.1 examples use).
    pub fn evaluate_with_home(&self, q: &LocalQuery) -> LocationSet {
        let mut s = self.evaluate(q);
        s.insert(q.location.clone());
        s
    }

    /// The deployment's location universe.
    pub fn universe(&self) -> &LocationSet {
        self.universe
    }

    /// The `η` counter: expressions that passed overlap + implication.
    pub fn eta(&self) -> u64 {
        self.eta.load(Ordering::Relaxed)
    }

    /// Total `evaluate` calls.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Reset both counters.
    pub fn reset_counters(&self) {
        self.eta.store(0, Ordering::Relaxed);
        self.invocations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::{PolicyExpression, ShipAttrs};
    use geoqp_common::{DataType, Field, LocationPattern, Schema, TableRef};
    use geoqp_expr::AggCall;
    use geoqp_expr::{AggFunc, ScalarExpr};
    use geoqp_plan::builder::PlanBuilder;
    use geoqp_plan::descriptor::describe_local;

    fn t_schema() -> Schema {
        Schema::new(
            ["a", "b", "c", "d", "e", "f", "g"]
                .iter()
                .map(|n| {
                    Field::new(
                        *n,
                        if *n == "c" || *n == "e" {
                            DataType::Str
                        } else {
                            DataType::Float64
                        },
                    )
                })
                .map(|mut f| {
                    if f.name == "a" || f.name == "b" || f.name == "d" {
                        f.data_type = DataType::Int64;
                    }
                    f
                })
                .collect(),
        )
        .unwrap()
    }

    fn locs(names: &[&str]) -> LocationPattern {
        LocationPattern::Set(LocationSet::from_iter(names.iter().copied()))
    }

    /// The catalog of the paper's Table 1.
    fn table1_catalog() -> PolicyCatalog {
        let t = TableRef::bare("t");
        let schema = t_schema();
        let mut cat = PolicyCatalog::new();
        // e1 ≡ ship A, B, C from T to l2, l3
        cat.register(
            PolicyExpression::basic(
                t.clone(),
                ShipAttrs::list(["a", "b", "c"]),
                locs(&["l2", "l3"]),
                None,
            ),
            &schema,
        )
        .unwrap();
        // e2 ≡ ship A, B from T to l1, l2, l3, l4
        cat.register(
            PolicyExpression::basic(
                t.clone(),
                ShipAttrs::list(["a", "b"]),
                locs(&["l1", "l2", "l3", "l4"]),
                None,
            ),
            &schema,
        )
        .unwrap();
        // e3 ≡ ship A, D from T to l1, l3 where B > 10
        cat.register(
            PolicyExpression::basic(
                t.clone(),
                ShipAttrs::list(["a", "d"]),
                locs(&["l1", "l3"]),
                Some(ScalarExpr::col("b").gt(ScalarExpr::lit(10i64))),
            ),
            &schema,
        )
        .unwrap();
        // e4 ≡ ship F, G as aggregates sum, avg from T to l1, l2 group by E, C
        cat.register(
            PolicyExpression::aggregate(
                t,
                ShipAttrs::list(["f", "g"]),
                [AggFunc::Sum, AggFunc::Avg],
                ["e".to_string(), "c".to_string()],
                locs(&["l1", "l2"]),
                None,
            ),
            &schema,
        )
        .unwrap();
        cat
    }

    fn universe() -> LocationSet {
        LocationSet::from_iter(["l1", "l2", "l3", "l4"])
    }

    fn t_scan() -> PlanBuilder {
        PlanBuilder::scan(
            TableRef::bare("t"),
            geoqp_common::Location::new("l0"),
            t_schema(),
        )
    }

    #[test]
    fn table1_q1_select_project() {
        // q1 ≡ Π_{A,C,D}(σ_{B>15}(T))  →  { l3 }
        let plan = t_scan()
            .filter(ScalarExpr::col("b").gt(ScalarExpr::lit(15i64)))
            .unwrap()
            .project_columns(&["a", "c", "d"])
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        let result = ev.evaluate(&q);
        assert_eq!(result, LocationSet::from_iter(["l3"]));
        // e1, e2, e3 pass implication+overlap; e4 shares no attrs → η = 3.
        assert_eq!(ev.eta(), 3);
        assert_eq!(ev.invocations(), 1);
    }

    #[test]
    fn table1_q2_aggregate() {
        // q2 ≡ Γ_{C; sum(F*(1−G))}(T)  →  { l1, l2 }
        let plan = t_scan()
            .aggregate(
                &["c"],
                vec![AggCall::new(
                    AggFunc::Sum,
                    ScalarExpr::col("f").mul(ScalarExpr::lit(1i64).sub(ScalarExpr::col("g"))),
                    "s",
                )],
            )
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        let result = ev.evaluate(&q);
        assert_eq!(result, LocationSet::from_iter(["l1", "l2"]));
    }

    #[test]
    fn aggregate_query_grouping_not_subset_fails() {
        // Grouping by D ∉ G_e(e4): e4 contributes nothing to f/g.
        let plan = t_scan()
            .aggregate(
                &["d"],
                vec![AggCall::new(AggFunc::Sum, ScalarExpr::col("f"), "s")],
            )
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert!(ev.evaluate(&q).is_empty());
    }

    #[test]
    fn aggregate_query_disallowed_function_fails() {
        // MIN ∉ F_e(e4).
        let plan = t_scan()
            .aggregate(
                &["c"],
                vec![AggCall::new(AggFunc::Min, ScalarExpr::col("f"), "m")],
            )
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert!(ev.evaluate(&q).is_empty());
    }

    #[test]
    fn raw_projection_of_aggregate_only_attr_fails() {
        // Example 2: Π_f(T) cannot be shipped at all (f only under e4,
        // which requires aggregation).
        let plan = t_scan().project_columns(&["f"]).unwrap().build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert!(ev.evaluate(&q).is_empty());
    }

    #[test]
    fn global_aggregate_empty_group_subset_allowed() {
        // Γ_{sum(f)}(T): G_q = ∅ ⊆ G_e — allowed, footnote 6.
        let plan = t_scan()
            .aggregate(
                &[],
                vec![AggCall::new(AggFunc::Sum, ScalarExpr::col("f"), "s")],
            )
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert_eq!(ev.evaluate(&q), LocationSet::from_iter(["l1", "l2"]));
    }

    #[test]
    fn predicate_attribute_must_be_covered() {
        // Section 3.1: Π_a(σ_{d=100}(T)) — d accessed via predicate; d is
        // covered by e3 only, whose own predicate (b > 10) is not implied.
        let plan = t_scan()
            .filter(ScalarExpr::col("d").eq(ScalarExpr::lit(100i64)))
            .unwrap()
            .project_columns(&["a"])
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert!(ev.evaluate(&q).is_empty());
        assert_eq!(ev.evaluate_with_home(&q), LocationSet::from_iter(["l0"]));
    }

    #[test]
    fn predicate_strengthening_unlocks_expression() {
        // Π_{a,d}(σ_{b>15}(T)): b>15 ⟹ b>10, so e3 grants {l1,l3} to d.
        let plan = t_scan()
            .filter(ScalarExpr::col("b").gt(ScalarExpr::lit(15i64)))
            .unwrap()
            .project_columns(&["a", "d"])
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        // L_a ⊇ {l1..l4}, L_d = {l1,l3}, L_b(accessed) = {l1,l2,l3,l4}.
        assert_eq!(ev.evaluate(&q), LocationSet::from_iter(["l1", "l3"]));

        // Weaker predicate b > 5 does not imply b > 10 → d uncovered.
        let plan = t_scan()
            .filter(ScalarExpr::col("b").gt(ScalarExpr::lit(5i64)))
            .unwrap()
            .project_columns(&["a", "d"])
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        assert!(ev.evaluate(&q).is_empty());
    }

    #[test]
    fn star_to_resolves_against_universe() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let mut cat = PolicyCatalog::new();
        cat.register(
            PolicyExpression::basic(
                TableRef::bare("u"),
                ShipAttrs::Star,
                LocationPattern::Star,
                None,
            ),
            &schema,
        )
        .unwrap();
        let uni = LocationSet::from_iter(["p", "q", "r"]);
        let plan = PlanBuilder::scan(
            TableRef::bare("u"),
            geoqp_common::Location::new("p"),
            schema,
        )
        .build();
        let q = describe_local(&plan).unwrap();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert_eq!(ev.evaluate(&q), uni);
    }

    #[test]
    fn empty_catalog_grants_nothing() {
        let cat = PolicyCatalog::new();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        let plan = t_scan().project_columns(&["a"]).unwrap().build();
        let q = describe_local(&plan).unwrap();
        assert!(ev.evaluate(&q).is_empty());
        assert_eq!(ev.eta(), 0);
    }

    #[test]
    fn memoized_evaluation_matches_fresh_and_records_hits() {
        let cat = table1_catalog();
        let uni = universe();
        let memo = crate::memo::ImplicationMemo::new();
        let plan = t_scan()
            .filter(ScalarExpr::col("b").gt(ScalarExpr::lit(15i64)))
            .unwrap()
            .project_columns(&["a", "c", "d"])
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();

        let fresh = PolicyEvaluator::new(&cat, &uni).evaluate(&q);
        let ev = PolicyEvaluator::with_memo(&cat, &uni, &memo);
        let first = ev.evaluate(&q);
        assert_eq!(first, fresh);
        assert_eq!(memo.hits(), 0, "first pass proves everything");
        let proofs = memo.misses();
        assert!(proofs > 0);

        // Second evaluation of the same query: all verdicts served.
        let second = ev.evaluate(&q);
        assert_eq!(second, fresh);
        assert_eq!(memo.misses(), proofs, "no new proofs on a repeat");
        assert_eq!(memo.hits(), proofs);
        // η counts memo-served passes identically.
        assert_eq!(ev.eta(), 6);
    }

    #[test]
    fn grouping_attr_of_aggregate_expression_is_shippable() {
        // Γ_{c; sum(f)}(T): c ∈ G_e(e4) → allowed via e4 (and e1).
        let plan = t_scan()
            .aggregate(
                &["c"],
                vec![AggCall::new(AggFunc::Sum, ScalarExpr::col("f"), "s")],
            )
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        let cat = table1_catalog();
        let uni = universe();
        let ev = PolicyEvaluator::new(&cat, &uni);
        assert_eq!(ev.evaluate(&q), LocationSet::from_iter(["l1", "l2"]));
    }
}

#[cfg(test)]
mod multi_table_tests {
    use super::*;
    use crate::catalog::PolicyCatalog;
    use crate::expression::{PolicyExpression, ShipAttrs};
    use geoqp_common::{DataType, Field, Location, LocationPattern, Schema, TableRef};
    use geoqp_expr::ScalarExpr;
    use geoqp_plan::builder::PlanBuilder;
    use geoqp_plan::descriptor::describe_local;

    fn cust_schema() -> Schema {
        Schema::new(vec![
            Field::new("c_k", DataType::Int64),
            Field::new("c_name", DataType::Str),
        ])
        .unwrap()
    }
    fn ord_schema() -> Schema {
        Schema::new(vec![
            Field::new("o_k", DataType::Int64),
            Field::new("o_price", DataType::Float64),
        ])
        .unwrap()
    }

    /// A multi-table expression (footnote 4): the *joined* customer–order
    /// rows may ship, provided the query joins on the stated predicate.
    fn catalog() -> PolicyCatalog {
        let joined = cust_schema().join(&ord_schema()).unwrap();
        let mut cat = PolicyCatalog::new();
        let e = PolicyExpression::basic(
            TableRef::bare("cust"),
            ShipAttrs::list(["c_name", "o_price", "c_k", "o_k"]),
            LocationPattern::Set(LocationSet::from_iter(["E"])),
            Some(ScalarExpr::col("c_k").eq(ScalarExpr::col("o_k"))),
        )
        .with_joined_tables([TableRef::bare("ord")]);
        cat.register(e, &joined).unwrap();
        cat
    }

    fn joined_query(extra_pred: Option<ScalarExpr>) -> geoqp_plan::descriptor::LocalQuery {
        let c = PlanBuilder::scan(TableRef::bare("cust"), Location::new("N"), cust_schema());
        let o = PlanBuilder::scan(TableRef::bare("ord"), Location::new("N"), ord_schema());
        let mut b = c.join(o, vec![("c_k", "o_k")]).unwrap();
        if let Some(p) = extra_pred {
            b = b.filter(p).unwrap();
        }
        let plan = b.project_columns(&["c_name", "o_price"]).unwrap().build();
        describe_local(&plan).unwrap()
    }

    #[test]
    fn joined_query_matches_multi_table_expression() {
        let cat = catalog();
        let uni = LocationSet::from_iter(["N", "E"]);
        let ev = PolicyEvaluator::new(&cat, &uni);
        // The join predicate in P_q implies the expression's predicate
        // (canonically oriented equality atoms match syntactically).
        assert_eq!(
            ev.evaluate(&joined_query(None)),
            LocationSet::from_iter(["E"])
        );
    }

    #[test]
    fn single_table_query_cannot_use_multi_table_expression() {
        let cat = catalog();
        let uni = LocationSet::from_iter(["N", "E"]);
        let ev = PolicyEvaluator::new(&cat, &uni);
        // A scan of customer alone is NOT governed by the joined grant.
        let plan = PlanBuilder::scan(TableRef::bare("cust"), Location::new("N"), cust_schema())
            .project_columns(&["c_name"])
            .unwrap()
            .build();
        let q = describe_local(&plan).unwrap();
        assert!(ev.evaluate(&q).is_empty());
    }

    #[test]
    fn stronger_join_predicates_still_apply() {
        let cat = catalog();
        let uni = LocationSet::from_iter(["N", "E"]);
        let ev = PolicyEvaluator::new(&cat, &uni);
        let q = joined_query(Some(ScalarExpr::col("o_price").gt(ScalarExpr::lit(10.0))));
        assert_eq!(ev.evaluate(&q), LocationSet::from_iter(["E"]));
    }
}
