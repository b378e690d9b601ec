//! A sound (incomplete) logical-implication prover: `does P imply Q?`
//!
//! Used by the policy evaluator (paper Section 5, Algorithm 1 line 3) to
//! check that the rows selected by a query predicate `P_q` are a subset of
//! the rows a policy expression's predicate `P_e` covers. The technique
//! follows Goldstein & Larson's materialized-view matching: predicates are
//! normalized to NNF, disjunction is handled structurally, and conjunctions
//! of atoms are summarized into per-column facts (intervals, equalities,
//! IN-sets, LIKE patterns) against which each consequent atom is checked.
//!
//! Soundness: `implies(P, Q)` returns `true` only when every row satisfying
//! `P` also satisfies `Q` (where "satisfies" means *evaluates to TRUE*, the
//! filter semantics both queries and policies use). Incompleteness is by
//! design — e.g. `A = 5 AND B = 3 ⟹ A + B = 8` is not recognized, exactly
//! the example the paper gives.

use crate::expr::{BinaryOp, ScalarExpr};
use crate::like::{is_exact_pattern, prefix_of_pattern, LikePattern};
use crate::normalize::normalize;
use geoqp_common::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Does `p` logically imply `q`? Sound, incomplete.
pub fn implies(p: &ScalarExpr, q: &ScalarExpr) -> bool {
    let p = normalize(p);
    let q = normalize(q);
    implies_nnf(&p, &q)
}

/// Implication over optional predicates, where `None` is the always-true
/// predicate (a query or expression without a WHERE clause).
pub fn implies_opt(p: Option<&ScalarExpr>, q: Option<&ScalarExpr>) -> bool {
    match (p, q) {
        (_, None) => true,
        (None, Some(q)) => implies(&ScalarExpr::lit(true), q),
        (Some(p), Some(q)) => implies(p, q),
    }
}

fn implies_nnf(p: &ScalarExpr, q: &ScalarExpr) -> bool {
    if p == q {
        return true;
    }
    // (p1 OR p2) ⟹ q  iff  p1 ⟹ q and p2 ⟹ q.
    if let ScalarExpr::Binary {
        op: BinaryOp::Or,
        lhs,
        rhs,
    } = p
    {
        return implies_nnf(lhs, q) && implies_nnf(rhs, q);
    }
    match q {
        // p ⟹ (q1 AND q2)  iff  p ⟹ q1 and p ⟹ q2.
        ScalarExpr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => implies_nnf(p, lhs) && implies_nnf(p, rhs),
        // p ⟹ (q1 OR q2)  if  p ⟹ q1 or p ⟹ q2 (sound, incomplete).
        ScalarExpr::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } => implies_nnf(p, lhs) || implies_nnf(p, rhs),
        atom => {
            let summary = Summary::build(p);
            summary.entails(atom) || conjunct_member(p, atom)
        }
    }
}

/// Syntactic membership: `atom` appears verbatim among `p`'s conjuncts.
/// Covers atoms the summary cannot reason about (column-column comparisons,
/// arithmetic), since any conjunct of `p` is implied by `p`.
fn conjunct_member(p: &ScalarExpr, atom: &ScalarExpr) -> bool {
    crate::predicate::split_conjunction(p).contains(&atom)
}

/// One end of a column's value interval.
#[derive(Debug, Clone)]
struct Bound {
    value: Value,
    inclusive: bool,
}

/// Everything a conjunction of atoms tells us about one column.
#[derive(Debug, Clone, Default)]
struct ColumnFacts {
    eq: Option<Value>,
    lower: Option<Bound>,
    upper: Option<Bound>,
    neq: BTreeSet<Value>,
    /// Intersection of IN-lists: the column's value must be one of these.
    allowed: Option<BTreeSet<Value>>,
    likes: Vec<String>,
    not_likes: Vec<String>,
    asserted_null: bool,
    asserted_not_null: bool,
}

impl ColumnFacts {
    /// Any fact that requires evaluating the column against a non-null
    /// comparison implies the column is not NULL on satisfying rows.
    fn known_not_null(&self) -> bool {
        self.asserted_not_null
            || self.eq.is_some()
            || self.lower.is_some()
            || self.upper.is_some()
            || self.allowed.is_some()
            || !self.likes.is_empty()
            || !self.not_likes.is_empty()
            || !self.neq.is_empty()
    }
}

/// Summary of a conjunction: per-column facts plus an unsatisfiability flag.
#[derive(Debug, Default)]
struct Summary {
    columns: BTreeMap<String, ColumnFacts>,
    /// When the conjunction is provably unsatisfiable, it implies anything.
    unsat: bool,
    /// A literal FALSE conjunct.
    literal_false: bool,
}

impl Summary {
    fn build(p: &ScalarExpr) -> Summary {
        let mut s = Summary::default();
        for conjunct in crate::predicate::split_conjunction(p) {
            s.absorb(conjunct);
        }
        s.finish();
        s
    }

    fn facts(&mut self, col: &str) -> &mut ColumnFacts {
        self.columns.entry(col.to_string()).or_default()
    }

    fn absorb(&mut self, atom: &ScalarExpr) {
        match atom {
            ScalarExpr::Literal(Value::Bool(false)) => self.literal_false = true,
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (col, val) = match (lhs.as_column(), rhs.as_literal()) {
                    (Some(c), Some(v)) => (c, v.clone()),
                    _ => return, // column-column / arithmetic: unusable here
                };
                if val.is_null() {
                    // `col op NULL` never evaluates to TRUE: unsatisfiable.
                    self.unsat = true;
                    return;
                }
                let f = self.facts(col);
                match op {
                    BinaryOp::Eq => match &f.eq {
                        Some(prev) if prev.sql_cmp(&val) != Some(Ordering::Equal) => {
                            self.unsat = true
                        }
                        _ => f.eq = Some(val),
                    },
                    BinaryOp::NotEq => {
                        f.neq.insert(val);
                    }
                    BinaryOp::Gt => tighten_lower(f, val, false),
                    BinaryOp::GtEq => tighten_lower(f, val, true),
                    BinaryOp::Lt => tighten_upper(f, val, false),
                    BinaryOp::LtEq => tighten_upper(f, val, true),
                    _ => {}
                }
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                if let Some(col) = expr.as_column() {
                    let f = self.facts(col);
                    if *negated {
                        f.not_likes.push(pattern.clone());
                    } else if is_exact_pattern(pattern) {
                        // `col LIKE 'exact'` ≡ `col = 'exact'`.
                        match &f.eq {
                            Some(prev) if prev.as_str() != Some(pattern.as_str()) => {
                                self.unsat = true
                            }
                            _ => f.eq = Some(Value::str(pattern)),
                        }
                    } else {
                        f.likes.push(pattern.clone());
                    }
                }
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                if let Some(col) = expr.as_column() {
                    let f = self.facts(col);
                    if *negated {
                        for v in list {
                            if !v.is_null() {
                                f.neq.insert(v.clone());
                            }
                        }
                    } else {
                        let set: BTreeSet<Value> =
                            list.iter().filter(|v| !v.is_null()).cloned().collect();
                        f.allowed = Some(match f.allowed.take() {
                            None => set,
                            Some(prev) => prev.intersection(&set).cloned().collect(),
                        });
                    }
                }
            }
            ScalarExpr::IsNull { expr, negated } => {
                if let Some(col) = expr.as_column() {
                    let f = self.facts(col);
                    if *negated {
                        f.asserted_not_null = true;
                    } else {
                        f.asserted_null = true;
                    }
                }
            }
            // OR below a conjunct, arithmetic, NOT of unsupported shapes:
            // ignoring a conjunct only weakens the antecedent — sound.
            _ => {}
        }
    }

    /// Cross-fact consistency checks that mark the summary unsatisfiable.
    fn finish(&mut self) {
        if self.literal_false {
            self.unsat = true;
        }
        for f in self.columns.values_mut() {
            // Fold singleton IN-sets into equality.
            if let Some(allowed) = &f.allowed {
                if allowed.is_empty() {
                    self.unsat = true;
                    return;
                }
                if allowed.len() == 1 && f.eq.is_none() {
                    f.eq = allowed.iter().next().cloned();
                }
            }
            if let Some(eq) = &f.eq {
                if f.neq.iter().any(|v| v.sql_cmp(eq) == Some(Ordering::Equal)) {
                    self.unsat = true;
                    return;
                }
                if let Some(allowed) = &f.allowed {
                    if !allowed
                        .iter()
                        .any(|v| v.sql_cmp(eq) == Some(Ordering::Equal))
                    {
                        self.unsat = true;
                        return;
                    }
                }
                if !bound_admits(&f.lower, eq, true) || !bound_admits(&f.upper, eq, false) {
                    self.unsat = true;
                    return;
                }
            }
            if f.asserted_null && f.known_not_null() {
                self.unsat = true;
                return;
            }
            if let (Some(lo), Some(hi)) = (&f.lower, &f.upper) {
                match lo.value.sql_cmp(&hi.value) {
                    Some(Ordering::Greater) => {
                        self.unsat = true;
                        return;
                    }
                    Some(Ordering::Equal) if !(lo.inclusive && hi.inclusive) => {
                        self.unsat = true;
                        return;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Does this summary entail the (normalized) atom `q`?
    fn entails(&self, q: &ScalarExpr) -> bool {
        if self.unsat {
            return true;
        }
        match q {
            ScalarExpr::Literal(Value::Bool(true)) => true,
            ScalarExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (col, val) = match (lhs.as_column(), rhs.as_literal()) {
                    (Some(c), Some(v)) => (c, v),
                    _ => return false,
                };
                if val.is_null() {
                    return false;
                }
                let Some(f) = self.columns.get(col) else {
                    return false;
                };
                self.entails_cmp(f, *op, val)
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let Some(f) = expr.as_column().and_then(|c| self.columns.get(c)) else {
                    return false;
                };
                self.entails_like(f, pattern, *negated)
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                let Some(f) = expr.as_column().and_then(|c| self.columns.get(c)) else {
                    return false;
                };
                self.entails_in(f, list, *negated)
            }
            ScalarExpr::IsNull { expr, negated } => {
                let Some(f) = expr.as_column().and_then(|c| self.columns.get(c)) else {
                    return false;
                };
                if *negated {
                    f.known_not_null()
                } else {
                    f.asserted_null
                }
            }
            _ => false,
        }
    }

    fn entails_cmp(&self, f: &ColumnFacts, op: BinaryOp, val: &Value) -> bool {
        if let Some(eq) = &f.eq {
            return value_cmp_holds(eq, op, val).unwrap_or(false);
        }
        if let Some(allowed) = &f.allowed {
            return allowed
                .iter()
                .all(|v| value_cmp_holds(v, op, val).unwrap_or(false));
        }
        match op {
            BinaryOp::Gt => lower_entails(&f.lower, val, false),
            BinaryOp::GtEq => lower_entails(&f.lower, val, true),
            BinaryOp::Lt => upper_entails(&f.upper, val, false),
            BinaryOp::LtEq => upper_entails(&f.upper, val, true),
            BinaryOp::Eq => false, // needs an equality fact, handled above
            BinaryOp::NotEq => {
                f.neq
                    .iter()
                    .any(|v| v.sql_cmp(val) == Some(Ordering::Equal))
                    || value_outside_interval(f, val)
            }
            _ => false,
        }
    }

    fn entails_like(&self, f: &ColumnFacts, pattern: &str, negated: bool) -> bool {
        // Known values decide by matching: the pattern is compiled once
        // for all of them, and not at all when there are none.
        fn holds<'v>(
            pattern: &str,
            negated: bool,
            mut values: impl Iterator<Item = &'v Value>,
        ) -> bool {
            let compiled = LikePattern::new(pattern);
            let matches = |s| compiled.matches(s) != negated;
            values.all(|v| v.as_str().is_some_and(matches))
        }
        if let Some(eq) = &f.eq {
            return holds(pattern, negated, std::iter::once(eq));
        }
        if let Some(allowed) = &f.allowed {
            return holds(pattern, negated, allowed.iter());
        }
        if negated {
            f.not_likes.iter().any(|p| p == pattern)
        } else {
            f.likes.iter().any(|p| {
                if p == pattern {
                    return true;
                }
                // 'ABCD%' ⟹ 'ABC%' (longer prefix implies shorter).
                match (prefix_of_pattern(p), prefix_of_pattern(pattern)) {
                    (Some(fact), Some(query)) => fact.starts_with(query),
                    _ => false,
                }
            })
        }
    }

    fn entails_in(&self, f: &ColumnFacts, list: &[Value], negated: bool) -> bool {
        let in_list = |v: &Value| list.iter().any(|c| c.sql_cmp(v) == Some(Ordering::Equal));
        if let Some(eq) = &f.eq {
            return in_list(eq) != negated;
        }
        if let Some(allowed) = &f.allowed {
            return if negated {
                allowed.iter().all(|v| !in_list(v))
            } else {
                allowed.iter().all(in_list)
            };
        }
        if negated {
            // Every listed value must be excluded by a known fact.
            list.iter().all(|v| {
                f.neq.iter().any(|n| n.sql_cmp(v) == Some(Ordering::Equal))
                    || value_outside_interval(f, v)
            })
        } else {
            false
        }
    }
}

fn tighten_lower(f: &mut ColumnFacts, value: Value, inclusive: bool) {
    let replace = match &f.lower {
        None => true,
        Some(b) => match value.sql_cmp(&b.value) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => b.inclusive && !inclusive,
            _ => false,
        },
    };
    if replace {
        f.lower = Some(Bound { value, inclusive });
    }
}

fn tighten_upper(f: &mut ColumnFacts, value: Value, inclusive: bool) {
    let replace = match &f.upper {
        None => true,
        Some(b) => match value.sql_cmp(&b.value) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => b.inclusive && !inclusive,
            _ => false,
        },
    };
    if replace {
        f.upper = Some(Bound { value, inclusive });
    }
}

/// Does the known lower bound entail `col > val` (`or_equal=false`) or
/// `col >= val` (`or_equal=true`)?
fn lower_entails(lower: &Option<Bound>, val: &Value, or_equal: bool) -> bool {
    match lower {
        None => false,
        Some(b) => match b.value.sql_cmp(val) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => or_equal || !b.inclusive,
            _ => false,
        },
    }
}

fn upper_entails(upper: &Option<Bound>, val: &Value, or_equal: bool) -> bool {
    match upper {
        None => false,
        Some(b) => match b.value.sql_cmp(val) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => or_equal || !b.inclusive,
            _ => false,
        },
    }
}

/// Would value `v` be rejected by the column's interval facts?
fn value_outside_interval(f: &ColumnFacts, v: &Value) -> bool {
    let below = match &f.lower {
        Some(b) => match v.sql_cmp(&b.value) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => !b.inclusive,
            _ => false,
        },
        None => false,
    };
    let above = match &f.upper {
        Some(b) => match v.sql_cmp(&b.value) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => !b.inclusive,
            _ => false,
        },
        None => false,
    };
    below || above
}

/// Does a bound admit a specific value? (`is_lower` selects direction.)
fn bound_admits(bound: &Option<Bound>, v: &Value, is_lower: bool) -> bool {
    match bound {
        None => true,
        Some(b) => match v.sql_cmp(&b.value) {
            None => false,
            Some(Ordering::Equal) => b.inclusive,
            Some(Ordering::Greater) => is_lower,
            Some(Ordering::Less) => !is_lower,
        },
    }
}

/// Evaluate `v op val` for concrete scalars; `None` when incomparable.
fn value_cmp_holds(v: &Value, op: BinaryOp, val: &Value) -> Option<bool> {
    let ord = v.sql_cmp(val)?;
    Some(match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(n: &str) -> ScalarExpr {
        ScalarExpr::col(n)
    }
    fn int(v: i64) -> ScalarExpr {
        ScalarExpr::lit(v)
    }

    #[test]
    fn reflexive() {
        let p = col("a").gt(int(5));
        assert!(implies(&p, &p));
    }

    #[test]
    fn interval_strengthening() {
        assert!(implies(&col("b").gt(int(15)), &col("b").gt(int(10))));
        assert!(implies(&col("b").gt(int(10)), &col("b").gt_eq(int(10))));
        assert!(implies(&col("b").gt_eq(int(11)), &col("b").gt(int(10))));
        assert!(!implies(&col("b").gt_eq(int(10)), &col("b").gt(int(10))));
        assert!(!implies(&col("b").gt(int(5)), &col("b").gt(int(10))));
        assert!(implies(&col("b").lt(int(3)), &col("b").lt_eq(int(5))));
    }

    #[test]
    fn paper_example_e3_q1() {
        // Table 1: query predicate B > 15 implies expression predicate B > 10.
        assert!(implies(&col("B").gt(int(15)), &col("B").gt(int(10))));
    }

    #[test]
    fn equality_implies_everything_it_satisfies() {
        let p = col("a").eq(int(7));
        assert!(implies(&p, &col("a").gt(int(5))));
        assert!(implies(&p, &col("a").lt_eq(int(7))));
        assert!(implies(&p, &col("a").not_eq(int(9))));
        assert!(implies(
            &p,
            &col("a").in_list(vec![Value::Int64(7), Value::Int64(8)])
        ));
        assert!(!implies(&p, &col("a").gt(int(7))));
    }

    #[test]
    fn conjunction_on_both_sides() {
        let p = col("a").eq(int(1)).and(col("b").gt(int(20)));
        let q = col("b").gt(int(10)).and(col("a").lt(int(5)));
        assert!(implies(&p, &q));
        assert!(!implies(&q, &p));
    }

    #[test]
    fn disjunctive_antecedent_requires_both() {
        let p = col("a").eq(int(1)).or(col("a").eq(int(2)));
        assert!(implies(&p, &col("a").lt(int(5))));
        assert!(!implies(&p, &col("a").eq(int(1))));
    }

    #[test]
    fn disjunctive_consequent_any_branch() {
        // Table 3 e4: size > 40 OR type LIKE '%COPPER%'.
        let q = col("size").gt(int(40)).or(col("type").like("%COPPER%"));
        assert!(implies(&col("size").gt(int(50)), &q));
        assert!(implies(&col("type").like("%COPPER%"), &q));
        assert!(!implies(&col("size").gt(int(30)), &q));
    }

    #[test]
    fn like_reasoning() {
        let p = col("mktseg").like("commercial");
        assert!(implies(
            &p,
            &col("mktseg").eq(ScalarExpr::lit("commercial"))
        ));
        let p = col("name").like("ABCD%");
        assert!(implies(&p, &col("name").like("ABC%")));
        assert!(!implies(
            &col("name").like("ABC%"),
            &col("name").like("ABCD%")
        ));
        let p = col("s").eq(ScalarExpr::lit("PROMO BRASS"));
        assert!(implies(&p, &col("s").like("PROMO%")));
        assert!(implies(&p, &col("s").not_like("STANDARD%")));
    }

    #[test]
    fn in_list_reasoning() {
        let p = col("r").in_list(vec![Value::str("EUROPE"), Value::str("ASIA")]);
        let q = col("r").in_list(vec![
            Value::str("EUROPE"),
            Value::str("ASIA"),
            Value::str("AFRICA"),
        ]);
        assert!(implies(&p, &q));
        assert!(!implies(&q, &p));
        assert!(implies(&col("r").eq(ScalarExpr::lit("EUROPE")), &q));
        // Singleton IN behaves as equality.
        let p = col("r").in_list(vec![Value::str("EUROPE")]);
        assert!(implies(&p, &col("r").eq(ScalarExpr::lit("EUROPE"))));
    }

    #[test]
    fn not_null_from_comparisons() {
        let q = ScalarExpr::IsNull {
            expr: Box::new(col("a")),
            negated: true,
        };
        assert!(implies(&col("a").gt(int(1)), &q));
        assert!(!implies(&col("b").gt(int(1)), &q));
    }

    #[test]
    fn unsatisfiable_antecedent_implies_anything() {
        let p = col("a").eq(int(1)).and(col("a").eq(int(2)));
        assert!(implies(&p, &col("zz").like("%anything%")));
        let p = col("a").gt(int(10)).and(col("a").lt(int(5)));
        assert!(implies(&p, &col("b").eq(int(0))));
        let p = ScalarExpr::lit(false);
        assert!(implies(&p, &col("b").eq(int(0))));
    }

    #[test]
    fn incomplete_on_arithmetic_as_in_paper() {
        // Section 5 discussion: (A = 5 AND B = 3) ⟹ A + B = 8 is not proven.
        let p = col("A").eq(int(5)).and(col("B").eq(int(3)));
        let q = col("A").add(col("B")).eq(int(8));
        assert!(!implies(&p, &q));
    }

    #[test]
    fn column_column_atoms_by_syntactic_membership() {
        let join = col("x").eq(col("y"));
        let p = join.clone().and(col("x").gt(int(0)));
        assert!(implies(&p, &join));
        assert!(!implies(&col("x").gt(int(0)), &join));
    }

    #[test]
    fn true_antecedent_only_implies_trivialities() {
        assert!(implies_opt(None, None));
        assert!(implies_opt(Some(&col("a").gt(int(1))), None));
        assert!(!implies_opt(None, Some(&col("a").gt(int(1)))));
        assert!(implies_opt(None, Some(&ScalarExpr::lit(true))));
    }

    #[test]
    fn between_desugaring_feeds_prover() {
        let p = col("a").between(int(10), int(20));
        assert!(implies(&p, &col("a").gt_eq(int(10))));
        assert!(implies(&p, &col("a").lt_eq(int(25))));
        assert!(!implies(&p, &col("a").gt(int(10))));
        let q = col("a").between(int(5), int(30));
        assert!(implies(&p, &q));
        assert!(!implies(&q, &p));
    }

    #[test]
    fn negated_between() {
        let p = col("a").lt(int(1));
        let q = ScalarExpr::Between {
            expr: Box::new(col("a")),
            low: Box::new(int(5)),
            high: Box::new(int(10)),
            negated: true,
        };
        assert!(implies(&p, &q));
    }

    #[test]
    fn not_pushdown_via_normalization() {
        let p = col("a").lt_eq(int(10)).not(); // a > 10
        assert!(implies(&p, &col("a").gt(int(5))));
    }

    #[test]
    fn neq_from_interval() {
        assert!(implies(&col("a").gt(int(10)), &col("a").not_eq(int(3))));
        assert!(implies(&col("a").lt(int(0)), &col("a").not_eq(int(0))));
        assert!(!implies(&col("a").gt(int(10)), &col("a").not_eq(int(11))));
    }

    #[test]
    fn not_in_entailment() {
        let p = col("a").gt(int(100));
        let q = col("a").in_list(vec![Value::Int64(1), Value::Int64(2)]);
        let q = match q {
            ScalarExpr::InList { expr, list, .. } => ScalarExpr::InList {
                expr,
                list,
                negated: true,
            },
            _ => unreachable!(),
        };
        assert!(implies(&p, &q));
    }

    #[test]
    fn cross_type_numeric_bounds() {
        assert!(implies(
            &col("a").gt(ScalarExpr::lit(10.5)),
            &col("a").gt(int(10))
        ));
        assert!(!implies(
            &col("a").gt(int(10)),
            &col("a").gt(ScalarExpr::lit(10.5))
        ));
    }

    #[test]
    fn date_bounds() {
        let d1995 = ScalarExpr::lit(Value::date(1995, 1, 1));
        let d1996 = ScalarExpr::lit(Value::date(1996, 1, 1));
        assert!(implies(
            &col("d").lt(d1995.clone()),
            &col("d").lt(d1996.clone())
        ));
        assert!(!implies(&col("d").lt(d1996), &col("d").lt(d1995)));
    }
}
