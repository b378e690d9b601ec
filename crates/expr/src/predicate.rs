//! Predicate manipulation utilities shared by the optimizer and the policy
//! evaluator: conjunction splitting/joining and column extraction.

use crate::expr::{BinaryOp, ScalarExpr};
use std::collections::BTreeSet;

/// Split a predicate into its top-level conjuncts:
/// `a AND (b AND c)` → `[a, b, c]`.
pub fn split_conjunction(pred: &ScalarExpr) -> Vec<&ScalarExpr> {
    let mut out = Vec::new();
    collect_conjuncts(pred, &mut out);
    out
}

fn collect_conjuncts<'a>(pred: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
    match pred {
        ScalarExpr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            collect_conjuncts(lhs, out);
            collect_conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

/// Combine predicates with AND; `None` when the input is empty
/// (the always-true predicate).
pub fn conjoin(preds: impl IntoIterator<Item = ScalarExpr>) -> Option<ScalarExpr> {
    preds.into_iter().reduce(|a, b| a.and(b))
}

/// The set of columns referenced by an optional predicate.
pub fn columns_of(pred: Option<&ScalarExpr>) -> BTreeSet<String> {
    pred.map(ScalarExpr::referenced_columns).unwrap_or_default()
}

/// Partition conjuncts into those fully covered by `available` columns and
/// the rest. The core move behind filter pushdown through joins.
pub fn partition_conjuncts(
    pred: &ScalarExpr,
    available: &BTreeSet<String>,
) -> (Vec<ScalarExpr>, Vec<ScalarExpr>) {
    let mut covered = Vec::new();
    let mut rest = Vec::new();
    for c in split_conjunction(pred) {
        if c.referenced_columns().is_subset(available) {
            covered.push(c.clone());
        } else {
            rest.push(c.clone());
        }
    }
    (covered, rest)
}

/// Recognize an equi-join conjunct `left_col = right_col` where the two
/// columns come from different sides. Returns `(left, right)` ordered by
/// membership in `left_cols`.
pub fn as_equi_join(
    conjunct: &ScalarExpr,
    left_cols: &BTreeSet<String>,
    right_cols: &BTreeSet<String>,
) -> Option<(String, String)> {
    if let ScalarExpr::Binary {
        op: BinaryOp::Eq,
        lhs,
        rhs,
    } = conjunct
    {
        let (a, b) = (lhs.as_column()?, rhs.as_column()?);
        if left_cols.contains(a) && right_cols.contains(b) {
            return Some((a.to_string(), b.to_string()));
        }
        if left_cols.contains(b) && right_cols.contains(a) {
            return Some((b.to_string(), a.to_string()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_nested_conjunction() {
        let p = ScalarExpr::col("a").gt(ScalarExpr::lit(1i64)).and(
            ScalarExpr::col("b")
                .eq(ScalarExpr::lit(2i64))
                .and(ScalarExpr::col("c").lt(ScalarExpr::lit(3i64))),
        );
        assert_eq!(split_conjunction(&p).len(), 3);
    }

    #[test]
    fn split_does_not_cross_or() {
        let p = ScalarExpr::col("a")
            .gt(ScalarExpr::lit(1i64))
            .or(ScalarExpr::col("b").eq(ScalarExpr::lit(2i64)));
        assert_eq!(split_conjunction(&p).len(), 1);
    }

    #[test]
    fn conjoin_round_trip() {
        let parts = vec![
            ScalarExpr::col("a").gt(ScalarExpr::lit(1i64)),
            ScalarExpr::col("b").lt(ScalarExpr::lit(2i64)),
        ];
        let joined = conjoin(parts.clone()).unwrap();
        let back: Vec<_> = split_conjunction(&joined).into_iter().cloned().collect();
        assert_eq!(back, parts);
        assert!(conjoin(Vec::new()).is_none());
    }

    #[test]
    fn partition_by_available_columns() {
        let p = ScalarExpr::col("a")
            .gt(ScalarExpr::lit(1i64))
            .and(ScalarExpr::col("x").eq(ScalarExpr::col("a")))
            .and(ScalarExpr::col("b").lt(ScalarExpr::lit(5i64)));
        let (covered, rest) = partition_conjuncts(&p, &cols(&["a", "b"]));
        assert_eq!(covered.len(), 2);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn equi_join_recognition() {
        let left = cols(&["c_custkey", "c_name"]);
        let right = cols(&["o_custkey", "o_orderkey"]);
        let c = ScalarExpr::col("c_custkey").eq(ScalarExpr::col("o_custkey"));
        assert_eq!(
            as_equi_join(&c, &left, &right),
            Some(("c_custkey".into(), "o_custkey".into()))
        );
        // Reversed operand order still resolves sides correctly.
        let c = ScalarExpr::col("o_custkey").eq(ScalarExpr::col("c_custkey"));
        assert_eq!(
            as_equi_join(&c, &left, &right),
            Some(("c_custkey".into(), "o_custkey".into()))
        );
        // Same-side equality is not a join predicate.
        let c = ScalarExpr::col("c_custkey").eq(ScalarExpr::col("c_name"));
        assert_eq!(as_equi_join(&c, &left, &right), None);
        // Non-equality is not an equi-join conjunct.
        let c = ScalarExpr::col("c_custkey").lt(ScalarExpr::col("o_custkey"));
        assert_eq!(as_equi_join(&c, &left, &right), None);
    }
}
