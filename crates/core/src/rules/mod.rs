//! The rule engine: the transformation rules with genuine trade-offs
//! ([`default_rules`], the one rule list), applied to the memo until
//! fixpoint (Volcano's "apply equivalence rules in a top-down fashion",
//! Section 6 — here an exhaustive fixpoint, which explores the same space).

pub mod transform;

use crate::memo::{GroupId, MExpr, Memo};
use geoqp_common::Result;
use std::collections::HashSet;

/// A logical transformation rule.
pub trait TransformRule: Send + Sync {
    /// Rule name (diagnostics).
    fn name(&self) -> &'static str;

    /// Inspect `expr` (an expression of `group`) and return equivalent
    /// expressions to be added to the same group. May create new child
    /// groups in the memo.
    fn apply(&self, memo: &mut Memo, group: GroupId, expr: &MExpr) -> Result<Vec<MExpr>>;
}

/// The rule set of both optimizers: join re-association, eager
/// aggregation past joins, projection through union. Filter pushdown and
/// column pruning are *not* explored here — they are dominating rewrites
/// applied by the [`normalize`](crate::normalize) pre-pass.
/// [`transform::JoinExchange`] is the one implemented rule left out (it
/// opens star join orders for 1.37× the memo expressions; see DESIGN §4).
pub fn default_rules() -> Vec<Box<dyn TransformRule>> {
    vec![
        Box::new(transform::JoinAssocLeft),
        Box::new(transform::JoinAssocRight),
        Box::new(transform::AggregateJoinPushdown),
        Box::new(transform::ProjectUnionTranspose),
    ]
}

/// Apply rules to fixpoint. Each `(group, expr, rule)` application is keyed
/// together with a fingerprint of the expression's child groups, so rules
/// that pattern-match into child groups re-fire when those groups gain new
/// alternatives.
pub fn explore(memo: &mut Memo, rules: &[Box<dyn TransformRule>]) -> Result<ExploreStats> {
    let mut applied: HashSet<(usize, usize, usize, usize)> = HashSet::new();
    let mut stats = ExploreStats::default();
    loop {
        let mut changed = false;
        let group_count = memo.group_count();
        for g in 0..group_count {
            let gid = GroupId(g);
            let mut ei = 0;
            while ei < memo.group(gid).exprs.len() {
                let expr = memo.group(gid).exprs[ei].clone();
                let fingerprint: usize = expr
                    .children
                    .iter()
                    .map(|c| memo.group(*c).exprs.len())
                    .sum();
                for (ri, rule) in rules.iter().enumerate() {
                    if !applied.insert((g, ei, ri, fingerprint)) {
                        continue;
                    }
                    let new_exprs = rule.apply(memo, gid, &expr)?;
                    stats.applications += 1;
                    for ne in new_exprs {
                        let ne = MExpr {
                            op: crate::memo::canon_op(ne.op),
                            children: ne.children,
                        };
                        if memo.add_expr(gid, ne)? {
                            changed = true;
                            stats.new_exprs += 1;
                        }
                    }
                }
                ei += 1;
            }
        }
        stats.passes += 1;
        if !changed && memo.group_count() == group_count {
            break;
        }
        if stats.passes > 64 {
            // Safety valve, 16× the measured maximum: 4 passes over the six
            // + 2 000 ad-hoc queries (9 with `JoinExchange`, on Q8).
            break;
        }
    }
    Ok(stats)
}

/// Exploration statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExploreStats {
    /// Fixpoint passes.
    pub passes: usize,
    /// Rule applications attempted.
    pub applications: u64,
    /// New expressions added.
    pub new_exprs: u64,
}
