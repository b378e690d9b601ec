//! The logical transformation rules the memo explores.
//!
//! Four run on the product path ([`default_rules`](super::default_rules)):
//! join re-association in both directions (join-order enumeration),
//! projection through union (masking each partition at its site), and
//! **eager aggregation past joins** with count adjustment — the rule
//! Section 6.4 singles out as the one completeness hinges on (without it,
//! Figure 4's only compliant plan is never generated and the query is
//! rejected). [`JoinExchange`] is implemented and exported but not in the
//! default set. Filter pushdown/merge and column pruning are not rules:
//! they dominate, so [`normalize`](crate::normalize) applies them once,
//! before the memo exists.

use crate::memo::{GroupId, MExpr, MOp, Memo};
use crate::rules::TransformRule;
use geoqp_common::Result;
use geoqp_expr::{conjoin, AggCall, AggFunc, ScalarExpr};
use std::collections::{BTreeMap, BTreeSet};

// --------------------------------------------------------------- helpers

fn group_columns(memo: &Memo, g: GroupId) -> BTreeSet<String> {
    memo.group(g)
        .schema
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Create (or find) the group for `op(children)`.
fn make_group(memo: &mut Memo, op: MOp, children: Vec<GroupId>) -> Result<GroupId> {
    let expr = MExpr {
        op: crate::memo::canon_op(op),
        children,
    };
    let repr = memo.repr_plan_of(&expr)?;
    memo.add_group_with_expr(repr, expr)
}

// ------------------------------------------------- ProjectUnionTranspose

/// `Π(U(x1..xn)) → U(Π(x1)..Π(xn))` — masks each partition at its site.
pub struct ProjectUnionTranspose;

impl TransformRule for ProjectUnionTranspose {
    fn name(&self) -> &'static str {
        "ProjectUnionTranspose"
    }

    fn apply(&self, memo: &mut Memo, _group: GroupId, expr: &MExpr) -> Result<Vec<MExpr>> {
        let MOp::Project { exprs } = &expr.op else {
            return Ok(vec![]);
        };
        let child = expr.children[0];
        let mut out = Vec::new();
        for ce in memo.group(child).exprs.clone() {
            if matches!(ce.op, MOp::Union) {
                let mut projected = Vec::with_capacity(ce.children.len());
                for c in &ce.children {
                    projected.push(make_group(
                        memo,
                        MOp::Project {
                            exprs: exprs.clone(),
                        },
                        vec![*c],
                    )?);
                }
                out.push(MExpr {
                    op: MOp::Union,
                    children: projected,
                });
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------- join algebra

/// Equi-join keys as `(left column, right column)` pairs.
type JoinKeys = Vec<(String, String)>;

/// Split join keys `(l, r)` of an outer join by which side of a nested
/// join their left columns come from.
fn split_keys(on: &[(String, String)], first: &BTreeSet<String>) -> (JoinKeys, JoinKeys) {
    let mut in_first = Vec::new();
    let mut rest = Vec::new();
    for (l, r) in on {
        if first.contains(l) {
            in_first.push((l.clone(), r.clone()));
        } else {
            rest.push((l.clone(), r.clone()));
        }
    }
    (in_first, rest)
}

/// `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)` when some outer keys connect B↔C.
pub struct JoinAssocLeft;

impl TransformRule for JoinAssocLeft {
    fn name(&self) -> &'static str {
        "JoinAssocLeft"
    }

    fn apply(&self, memo: &mut Memo, _group: GroupId, expr: &MExpr) -> Result<Vec<MExpr>> {
        let MOp::Join {
            on: on_outer,
            filter: f_outer,
        } = &expr.op
        else {
            return Ok(vec![]);
        };
        let (gl, gc) = (expr.children[0], expr.children[1]);
        let mut out = Vec::new();
        for ce in memo.group(gl).exprs.clone() {
            let MOp::Join {
                on: on_inner,
                filter: f_inner,
            } = &ce.op
            else {
                continue;
            };
            let (ga, gb) = (ce.children[0], ce.children[1]);
            let acols = group_columns(memo, ga);
            // Outer keys whose left column lives in A stay at the new
            // outer join; keys from B move into the new inner join (B⋈C).
            let (keys_a, keys_b) = split_keys(on_outer, &acols);
            if keys_b.is_empty() || !keys_a.is_empty() {
                // Either nothing connects B↔C (the inner join would be a
                // cross join), or the outer keys span both A and B:
                // splitting keys across levels multiplies semantically
                // distinct key placements and explodes the memo on cyclic
                // join graphs — skip mixed splits.
                continue;
            }
            // The inner filter may reference A columns; it must then stay
            // at the outer join.
            let (f_move, f_stay) = match f_inner {
                None => (None, None),
                Some(f) => {
                    if f.referenced_columns().is_subset(&acols) {
                        (None, Some(f.clone()))
                    } else {
                        (Some(f.clone()), None)
                    }
                }
            };
            // New inner: B ⋈ C on keys_b.
            let inner = make_group(
                memo,
                MOp::Join {
                    on: keys_b,
                    filter: None,
                },
                vec![gb, gc],
            )?;
            // New outer: A ⋈ inner on (on_inner ++ keys_a).
            let mut on_new = on_inner.clone();
            on_new.extend(keys_a);
            let filter_new = {
                let parts: Vec<ScalarExpr> = [f_outer.clone(), f_move, f_stay]
                    .into_iter()
                    .flatten()
                    .collect();
                conjoin(parts)
            };
            out.push(MExpr {
                op: MOp::Join {
                    on: on_new,
                    filter: filter_new,
                },
                children: vec![ga, inner],
            });
        }
        Ok(out)
    }
}

/// `A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C` when some outer keys connect A↔B.
pub struct JoinAssocRight;

impl TransformRule for JoinAssocRight {
    fn name(&self) -> &'static str {
        "JoinAssocRight"
    }

    fn apply(&self, memo: &mut Memo, _group: GroupId, expr: &MExpr) -> Result<Vec<MExpr>> {
        let MOp::Join {
            on: on_outer,
            filter: f_outer,
        } = &expr.op
        else {
            return Ok(vec![]);
        };
        let (ga, gr) = (expr.children[0], expr.children[1]);
        let mut out = Vec::new();
        for ce in memo.group(gr).exprs.clone() {
            let MOp::Join {
                on: on_inner,
                filter: f_inner,
            } = &ce.op
            else {
                continue;
            };
            let (gb, gc) = (ce.children[0], ce.children[1]);
            let bcols = group_columns(memo, gb);
            // Outer keys: (a_col, right_col); right_col ∈ B moves to the
            // new inner join (A⋈B); right_col ∈ C stays at the new outer.
            let mut keys_ab = Vec::new();
            let mut keys_ac = Vec::new();
            for (l, r) in on_outer {
                if bcols.contains(r) {
                    keys_ab.push((l.clone(), r.clone()));
                } else {
                    keys_ac.push((l.clone(), r.clone()));
                }
            }
            if keys_ab.is_empty() || !keys_ac.is_empty() {
                continue; // mixed split (see JoinAssocLeft)
            }
            let (f_move, f_stay) = match f_inner {
                None => (None, None),
                Some(f) => {
                    if f.referenced_columns().is_subset(&bcols) {
                        (Some(f.clone()), None)
                    } else {
                        (None, Some(f.clone()))
                    }
                }
            };
            // New inner: A ⋈ B.
            let inner = make_group(
                memo,
                MOp::Join {
                    on: keys_ab,
                    filter: f_move,
                },
                vec![ga, gb],
            )?;
            // New outer: inner ⋈ C on (on_inner ++ keys_ac).
            let mut on_new = on_inner.clone();
            on_new.extend(keys_ac);
            let parts: Vec<ScalarExpr> = [f_outer.clone(), f_stay].into_iter().flatten().collect();
            out.push(MExpr {
                op: MOp::Join {
                    on: on_new,
                    filter: conjoin(parts),
                },
                children: vec![inner, gc],
            });
        }
        Ok(out)
    }
}

/// `(A ⋈ B) ⋈ C → Π((A ⋈ C) ⋈ B)` when some outer keys connect A↔C.
/// The projection restores the original column order, keeping the group
/// schema invariant.
pub struct JoinExchange;

impl TransformRule for JoinExchange {
    fn name(&self) -> &'static str {
        "JoinExchange"
    }

    fn apply(&self, memo: &mut Memo, group: GroupId, expr: &MExpr) -> Result<Vec<MExpr>> {
        let MOp::Join {
            on: on_outer,
            filter: f_outer,
        } = &expr.op
        else {
            return Ok(vec![]);
        };
        let (gl, gc) = (expr.children[0], expr.children[1]);
        let mut out = Vec::new();
        for ce in memo.group(gl).exprs.clone() {
            let MOp::Join {
                on: on_inner,
                filter: f_inner,
            } = &ce.op
            else {
                continue;
            };
            let (ga, gb) = (ce.children[0], ce.children[1]);
            let acols = group_columns(memo, ga);
            let (keys_ac, keys_bc) = split_keys(on_outer, &acols);
            if keys_ac.is_empty() {
                continue; // nothing connects A↔C
            }
            // Inner filter referencing B columns keeps B adjacent; only
            // exchange when the inner filter (if any) is A-only.
            if let Some(f) = f_inner {
                if !f.referenced_columns().is_subset(&acols) {
                    continue;
                }
            }
            // New inner: A ⋈ C on keys_ac.
            let inner = make_group(
                memo,
                MOp::Join {
                    on: keys_ac,
                    filter: f_inner.clone(),
                },
                vec![ga, gc],
            )?;
            // New outer: (A⋈C) ⋈ B on on_inner (A↔B) plus keys_bc flipped
            // to (c-side…, b-side) orientation: original (b, c) becomes
            // left = c (in A⋈C), right = b.
            let mut on_new = on_inner.clone();
            for (b, c) in keys_bc {
                on_new.push((c, b));
            }
            let jg = make_group(
                memo,
                MOp::Join {
                    on: on_new,
                    filter: f_outer.clone(),
                },
                vec![inner, gb],
            )?;
            // Restore the original column order (A, B, C).
            let order: Vec<(ScalarExpr, String)> = memo
                .group(group)
                .schema
                .names()
                .iter()
                .map(|c| (ScalarExpr::col(*c), c.to_string()))
                .collect();
            out.push(MExpr {
                op: MOp::Project { exprs: order },
                children: vec![jg],
            });
        }
        Ok(out)
    }
}

// --------------------------------------------- AggregateJoinPushdown

/// Eager aggregation past a join with count adjustment (Yan–Larson style):
///
/// `Γ_{G,F}(L ⋈ R) → Γ_{G,F'}(L ⋈ Γ_{(G∩R) ∪ keys(R); partials, cnt}(R))`
///
/// where R-side SUM/MIN/MAX/COUNT become partial aggregates re-aggregated
/// above, and L-side SUMs are multiplied by the per-group row count `cnt`
/// to preserve join multiplicities. This is the transformation that makes
/// Figure 1(b)'s compliant plan (pre-aggregating Supply in Asia)
/// reachable; Section 6.4 notes completeness hinges on it. AVG and
/// L-side `COUNT(col)` block the rule (they do not decompose in this
/// form).
pub struct AggregateJoinPushdown;

impl AggregateJoinPushdown {
    #[allow(clippy::too_many_arguments)]
    fn try_push(
        &self,
        memo: &mut Memo,
        group_by: &[String],
        aggs: &[AggCall],
        on: &[(String, String)],
        push_left: bool,
        children: &[GroupId],
        tag: usize,
    ) -> Result<Option<MExpr>> {
        let (keep_g, push_g) = if push_left {
            (children[1], children[0])
        } else {
            (children[0], children[1])
        };
        let push_cols = group_columns(memo, push_g);
        let keep_cols = group_columns(memo, keep_g);

        // Classify aggregates.
        let mut pushed: Vec<(usize, &AggCall)> = Vec::new();
        let mut kept: Vec<(usize, &AggCall)> = Vec::new();
        let mut needs_cnt = false;
        for (i, a) in aggs.iter().enumerate() {
            if a.func == AggFunc::Avg {
                return Ok(None);
            }
            match &a.arg {
                None => {
                    // COUNT(*): counts joined rows = Σ cnt.
                    needs_cnt = true;
                    kept.push((i, a));
                }
                Some(arg) => {
                    let cols = arg.referenced_columns();
                    if cols.is_subset(&push_cols) {
                        pushed.push((i, a));
                    } else if cols.is_subset(&keep_cols) {
                        match a.func {
                            AggFunc::Sum => {
                                needs_cnt = true;
                                kept.push((i, a));
                            }
                            AggFunc::Min | AggFunc::Max => kept.push((i, a)),
                            // COUNT(col) on the kept side needs NULL-aware
                            // multiplication — not expressible here.
                            AggFunc::Count => return Ok(None),
                            AggFunc::Avg => unreachable!(),
                        }
                    } else {
                        return Ok(None); // mixed-side argument
                    }
                }
            }
        }
        if pushed.is_empty() {
            return Ok(None);
        }

        // Inner grouping: pushed side's share of G plus its join keys.
        let mut inner_groups: Vec<String> = Vec::new();
        for g in group_by {
            if push_cols.contains(g) {
                inner_groups.push(g.clone());
            }
        }
        for (l, r) in on {
            let k = if push_left { l } else { r };
            if !inner_groups.contains(k) {
                inner_groups.push(k.clone());
            }
        }

        // Inner aggregate calls: partials plus (optionally) cnt.
        let mut inner_aggs: Vec<AggCall> = Vec::new();
        let mut partial_name: BTreeMap<usize, String> = BTreeMap::new();
        for (i, a) in &pushed {
            let name = format!("__p{tag}_{i}");
            inner_aggs.push(AggCall {
                func: a.func,
                arg: a.arg.clone(),
                alias: name.clone(),
            });
            partial_name.insert(*i, name);
        }
        let cnt_name = format!("__cnt{tag}");
        if needs_cnt {
            // SUM(1) ≡ COUNT(*), but references no base attribute, so the
            // local-query descriptor stays expressible and AR4 can still
            // evaluate policies over the pre-aggregated side. Group
            // cardinalities are disclosed by any grouped aggregate anyway.
            inner_aggs.push(AggCall::new(AggFunc::Sum, ScalarExpr::lit(1i64), &cnt_name));
        }
        let inner_agg_g = make_group(
            memo,
            MOp::Aggregate {
                group_by: inner_groups,
                aggs: inner_aggs,
            },
            vec![push_g],
        )?;

        // Rebuild the join over the pre-aggregated side. Join key names
        // survive the inner aggregation (they are inner group columns).
        let (jl, jr) = if push_left {
            (inner_agg_g, keep_g)
        } else {
            (keep_g, inner_agg_g)
        };
        let join_g = make_group(
            memo,
            MOp::Join {
                on: on.to_vec(),
                filter: None,
            },
            vec![jl, jr],
        )?;

        // Outer aggregate with rewritten calls, preserving aliases/types.
        let mut outer_aggs: Vec<AggCall> = Vec::with_capacity(aggs.len());
        for (i, a) in aggs.iter().enumerate() {
            if let Some(pname) = partial_name.get(&i) {
                let func = match a.func {
                    AggFunc::Sum | AggFunc::Count => AggFunc::Sum,
                    AggFunc::Min => AggFunc::Min,
                    AggFunc::Max => AggFunc::Max,
                    _ => unreachable!(),
                };
                outer_aggs.push(AggCall {
                    func,
                    arg: Some(ScalarExpr::col(pname.clone())),
                    alias: a.alias.clone(),
                });
            } else {
                match (&a.arg, a.func) {
                    (None, AggFunc::Count) => outer_aggs.push(AggCall {
                        func: AggFunc::Sum,
                        arg: Some(ScalarExpr::col(cnt_name.clone())),
                        alias: a.alias.clone(),
                    }),
                    (Some(arg), AggFunc::Sum) => outer_aggs.push(AggCall {
                        func: AggFunc::Sum,
                        arg: Some(arg.clone().mul(ScalarExpr::col(cnt_name.clone()))),
                        alias: a.alias.clone(),
                    }),
                    (Some(_), AggFunc::Min) | (Some(_), AggFunc::Max) => outer_aggs.push(a.clone()),
                    _ => unreachable!("classified above"),
                }
            }
        }
        Ok(Some(MExpr {
            op: MOp::Aggregate {
                group_by: group_by.to_vec(),
                aggs: outer_aggs,
            },
            children: vec![join_g],
        }))
    }
}

impl TransformRule for AggregateJoinPushdown {
    fn name(&self) -> &'static str {
        "AggregateJoinPushdown"
    }

    fn apply(&self, memo: &mut Memo, group: GroupId, expr: &MExpr) -> Result<Vec<MExpr>> {
        let MOp::Aggregate { group_by, aggs } = &expr.op else {
            return Ok(vec![]);
        };
        // Never re-push an aggregate this rule itself produced (its
        // arguments reference partial columns) — that cascade never
        // terminates and adds nothing: the partials already sit below
        // the join.
        let touches_partials = aggs.iter().any(|a| {
            a.alias.starts_with("__p")
                || a.alias.starts_with("__cnt")
                || a.arg.as_ref().is_some_and(|arg| {
                    arg.referenced_columns()
                        .iter()
                        .any(|c| c.starts_with("__p") || c.starts_with("__cnt"))
                })
        });
        if touches_partials {
            return Ok(vec![]);
        }
        let child = expr.children[0];
        let mut out = Vec::new();
        for ce in memo.group(child).exprs.clone() {
            let MOp::Join { on, filter } = &ce.op else {
                continue;
            };
            if filter.is_some() {
                // A residual join filter may reference pushed-side columns
                // lost by the inner aggregation; skip conservatively.
                continue;
            }
            let tag = group.0;
            if let Some(e) = self.try_push(memo, group_by, aggs, on, false, &ce.children, tag)? {
                out.push(e);
            }
            if let Some(e) = self.try_push(memo, group_by, aggs, on, true, &ce.children, tag)? {
                out.push(e);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{default_rules, explore};
    use geoqp_common::{DataType, Field, Location, Schema, TableRef};
    use geoqp_plan::PlanBuilder;
    use std::sync::Arc;

    fn scan(name: &str, loc: &str, cols: &[&str]) -> PlanBuilder {
        PlanBuilder::scan(
            TableRef::bare(name),
            Location::new(loc),
            Schema::new(
                cols.iter()
                    .map(|c| {
                        Field::new(
                            *c,
                            if c.ends_with("_s") {
                                DataType::Str
                            } else {
                                DataType::Int64
                            },
                        )
                    })
                    .collect(),
            )
            .unwrap(),
        )
    }

    fn explore_plan(plan: Arc<geoqp_plan::LogicalPlan>) -> (Memo, GroupId) {
        let mut memo = Memo::new();
        let root = memo.copy_in(&plan).unwrap();
        let mut rules = default_rules();
        rules.push(Box::new(JoinExchange));
        explore(&mut memo, &rules).unwrap();
        (memo, root)
    }

    #[test]
    fn join_association_generates_alternatives() {
        // Chain a-b-c: both parenthesizations should appear.
        let plan = scan("a", "X", &["a_k"])
            .join(scan("b", "Y", &["b_k", "b_c"]), vec![("a_k", "b_k")])
            .unwrap()
            .join(scan("c", "Z", &["c_k"]), vec![("b_c", "c_k")])
            .unwrap()
            .build();
        let (memo, root) = explore_plan(plan);
        // Root group should have ≥ 2 join expressions: ((ab)c) and (a(bc)).
        let join_exprs = memo
            .group(root)
            .exprs
            .iter()
            .filter(|e| matches!(e.op, MOp::Join { .. }))
            .count();
        assert!(
            join_exprs >= 2,
            "expected associativity alternative, got {join_exprs}"
        );
    }

    #[test]
    fn join_exchange_covers_star_schemas() {
        // Star: f joins d1 and d2 on separate keys.
        let plan = scan("f", "X", &["f_k1", "f_k2"])
            .join(scan("d1", "Y", &["d1_k"]), vec![("f_k1", "d1_k")])
            .unwrap()
            .join(scan("d2", "Z", &["d2_k"]), vec![("f_k2", "d2_k")])
            .unwrap()
            .build();
        let (memo, root) = explore_plan(plan);
        // The exchanged form appears as a Project over ((f⋈d2)⋈d1).
        let has_project = memo
            .group(root)
            .exprs
            .iter()
            .any(|e| matches!(e.op, MOp::Project { .. }));
        assert!(has_project, "exchange alternative missing");
    }

    #[test]
    fn aggregate_pushdown_generates_partial_aggregate() {
        // Γ_{a_v; sum(b_v)}(a ⋈ b) — sum over the right side pushes down.
        let plan = scan("a", "X", &["a_k", "a_v"])
            .join(scan("b", "Y", &["b_k", "b_v"]), vec![("a_k", "b_k")])
            .unwrap()
            .aggregate(
                &["a_v"],
                vec![AggCall::new(AggFunc::Sum, ScalarExpr::col("b_v"), "s")],
            )
            .unwrap()
            .build();
        let (memo, root) = explore_plan(plan);
        // Root group gains an Aggregate over a join with an inner partial
        // aggregate; detect by finding any group with an Aggregate over b.
        let mut found_partial = false;
        for g in memo.groups() {
            for e in &g.exprs {
                if let MOp::Aggregate { aggs, .. } = &e.op {
                    if aggs.iter().any(|a| a.alias.starts_with("__p")) {
                        found_partial = true;
                    }
                }
            }
        }
        assert!(found_partial, "no partial aggregate generated");
        assert!(memo.group(root).exprs.len() >= 2);
    }

    #[test]
    fn aggregate_pushdown_skips_avg() {
        let plan = scan("a", "X", &["a_k", "a_v"])
            .join(scan("b", "Y", &["b_k", "b_v"]), vec![("a_k", "b_k")])
            .unwrap()
            .aggregate(
                &["a_v"],
                vec![AggCall::new(AggFunc::Avg, ScalarExpr::col("b_v"), "m")],
            )
            .unwrap()
            .build();
        let (memo, _) = explore_plan(plan);
        for g in memo.groups() {
            for e in &g.exprs {
                if let MOp::Aggregate { aggs, .. } = &e.op {
                    assert!(
                        !aggs.iter().any(|a| a.alias.starts_with("__p")),
                        "AVG must not be pushed"
                    );
                }
            }
        }
    }

    #[test]
    fn exploration_terminates_on_larger_chains() {
        // 6-way chain join: exploration must terminate within budget.
        let mut b = scan("t0", "L0", &["t0_k", "t0_n"]);
        for i in 1..6 {
            let prev_link = format!("t{}_n", i - 1);
            let this_key = format!("t{i}_k");
            b = b
                .join(
                    scan(
                        &format!("t{i}"),
                        &format!("L{i}"),
                        &[&this_key, &format!("t{i}_n")],
                    ),
                    vec![(prev_link.as_str(), this_key.as_str())],
                )
                .unwrap();
        }
        let plan = b.build();
        let (memo, root) = explore_plan(plan);
        assert!(memo.group_count() > 10);
        assert!(!memo.group(root).exprs.is_empty());
    }
}
