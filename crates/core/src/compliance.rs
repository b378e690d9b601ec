//! The independent Definition-1 compliance checker.
//!
//! Recomputes execution/shipping traits bottom-up over a *final, located*
//! physical plan, straight from the policy catalog — without trusting any
//! optimizer state — and verifies that every operator executes inside its
//! derived execution trait and every SHIP targets a location inside its
//! input's derived shipping trait.
//!
//! This is the closed form of Definition 1's conditions under annotation
//! rules AR1–AR4: condition **c1** for tablescans, condition **c2** via
//! `ℰ(o) = ⋂_{o' ∈ in(o)} 𝒮(o')` with
//! `𝒮(o) = ℰ(o) ∪ 𝒜(Q_o, D, P_D)` for single-database subqueries.
//!
//! The checker serves two roles in the reproduction: it validates
//! Theorem 1 against the compliant optimizer (property-tested), and it
//! audits the traditional baseline's plans to produce the C/NC labels of
//! Figures 5(a), 6(g), and 6(h).

use geoqp_common::{GeoError, LocationSet, Result};
use geoqp_plan::descriptor::describe_local;
use geoqp_plan::logical::LogicalPlan;
use geoqp_plan::{node_key, PhysOp, PhysicalPlan};
use geoqp_policy::PolicyEvaluator;
use geoqp_storage::Catalog;
use std::collections::HashMap;
use std::sync::Arc;

/// Audit a located physical plan against the dataflow policies. Returns
/// `Ok(())` for compliant plans and a [`GeoError::NonCompliant`] naming
/// the offending operator otherwise.
pub fn check_compliance(
    plan: &PhysicalPlan,
    evaluator: &PolicyEvaluator<'_>,
    catalog: &Catalog,
) -> Result<()> {
    walk(plan, evaluator, catalog, true, &mut HashMap::new()).map(|_| ())
}

/// Derive the shipping trait `𝒮` of every SHIP's *input*, in pre-order
/// SHIP order — the per-edge audit sets the parallel runtime checks each
/// batch against before it leaves the producer site.
///
/// The derivation is **lenient**: Definition-1 violations do not abort it
/// (a traditional-optimizer plan may be non-compliant), so the offending
/// edge is caught at execution time by the runtime's per-batch audit
/// rather than here. Only structural failures (an unresolvable or
/// misplaced tablescan) are errors.
pub fn ship_traits(
    plan: &PhysicalPlan,
    evaluator: &PolicyEvaluator<'_>,
    catalog: &Catalog,
) -> Result<Vec<LocationSet>> {
    Ok(ship_audit_info(plan, evaluator, catalog)?
        .into_iter()
        .map(|a| a.legal)
        .collect())
}

/// What the checker derived for one SHIP edge's input subtree: the
/// shipping trait `𝒮` (the sites where the subtree's output may legally
/// travel — and therefore persist) and its logical content. The failover
/// checkpoint layer stores both alongside the retained rows, so a
/// stitched `ResumeScan` can be re-audited by [`check_compliance`]
/// without trusting the stitcher.
#[derive(Debug, Clone)]
pub struct ShipAudit {
    /// The edge input's derived shipping trait `𝒮`.
    pub legal: LocationSet,
    /// The edge input's logical content.
    pub logical: Arc<LogicalPlan>,
}

/// [`ship_traits`] with the logical content attached — same lenient
/// derivation, same pre-order SHIP order.
pub fn ship_audit_info(
    plan: &PhysicalPlan,
    evaluator: &PolicyEvaluator<'_>,
    catalog: &Catalog,
) -> Result<Vec<ShipAudit>> {
    let mut by_node = HashMap::new();
    walk(plan, evaluator, catalog, false, &mut by_node)?;
    Ok((plan.ships().into_iter())
        .filter_map(|ship| by_node.get(&node_key(ship)).cloned())
        .collect())
}

/// Bottom-up result: the subtree's shipping trait and its logical content.
struct Derived {
    ship: LocationSet,
    logical: Arc<LogicalPlan>,
}

fn walk(
    plan: &PhysicalPlan,
    evaluator: &PolicyEvaluator<'_>,
    catalog: &Catalog,
    strict: bool,
    ships: &mut HashMap<usize, ShipAudit>,
) -> Result<Derived> {
    match &plan.op {
        PhysOp::Scan { table } => {
            // Condition c1: a tablescan executes at the table's location.
            let entry = catalog.resolve_one(table).map_err(|e| {
                GeoError::NonCompliant(format!("cannot resolve scanned table: {e}"))
            })?;
            if entry.location != plan.location {
                return Err(GeoError::NonCompliant(format!(
                    "tablescan of {} executes at {} but the table lives at {}",
                    table, plan.location, entry.location
                )));
            }
            let logical: Arc<LogicalPlan> = Arc::new(LogicalPlan::TableScan {
                table: table.clone(),
                location: entry.location.clone(),
                schema: Arc::clone(&plan.schema),
            });
            let mut ship = LocationSet::singleton(plan.location.clone());
            augment_with_policy(&mut ship, &logical, evaluator);
            Ok(Derived { ship, logical })
        }
        PhysOp::ResumeScan {
            fingerprint,
            legal,
            logical,
        } => {
            // A resume leaf reads a checkpointed subtree's output. Its
            // shipping trait is the trait the subtree had when the
            // checkpoint was taken (recorded on the node, derived by this
            // same walk over the original plan), so ancestors — including
            // the resume edge's SHIP — audit exactly as if the subtree
            // were still there. The leaf's own location is the
            // checkpoint's home and must be inside that trait: a
            // checkpoint homed at an illegal site is a Definition-1
            // violation, not a recovery optimization.
            if strict && !legal.contains(&plan.location) {
                return Err(GeoError::NonCompliant(format!(
                    "resume of checkpoint {fingerprint:016x} at {} which is outside \
                     its shipping trait {legal}",
                    plan.location
                )));
            }
            Ok(Derived {
                ship: legal.clone(),
                logical: Arc::clone(logical),
            })
        }
        PhysOp::Ship => {
            let input = walk(&plan.inputs[0], evaluator, catalog, strict, ships)?;
            ships.insert(
                node_key(plan),
                ShipAudit {
                    legal: input.ship.clone(),
                    logical: Arc::clone(&input.logical),
                },
            );
            if strict && !input.ship.contains(&plan.location) {
                return Err(GeoError::NonCompliant(format!(
                    "SHIP {} → {} violates dataflow policies (legal: {})",
                    plan.inputs[0].location, plan.location, input.ship
                )));
            }
            // Moving data does not change which destinations are legal
            // for it.
            Ok(input)
        }
        other => {
            let children: Vec<Derived> = plan
                .inputs
                .iter()
                .map(|c| walk(c, evaluator, catalog, strict, ships))
                .collect::<Result<_>>()?;
            // Condition c2 via AR2: the operator's location must be legal
            // for every input.
            let mut exec = children[0].ship.clone();
            for c in &children[1..] {
                exec.intersect_with(&c.ship);
            }
            if strict && !exec.contains(&plan.location) {
                return Err(GeoError::NonCompliant(format!(
                    "{} executes at {} outside its derived execution trait {}",
                    other.name(),
                    plan.location,
                    exec
                )));
            }
            let logical = rebuild_logical(
                other,
                children.iter().map(|c| Arc::clone(&c.logical)).collect(),
            )?;
            // AR3 ∪ AR4.
            let mut ship = exec;
            augment_with_policy(&mut ship, &logical, evaluator);
            Ok(Derived { ship, logical })
        }
    }
}

fn augment_with_policy(
    ship: &mut LocationSet,
    logical: &Arc<LogicalPlan>,
    evaluator: &PolicyEvaluator<'_>,
) {
    if let Some(local) = describe_local(logical) {
        ship.union_with(&evaluator.evaluate(&local));
    }
}

/// Reconstruct the logical content of a physical operator (Ships already
/// removed by the caller).
fn rebuild_logical(op: &PhysOp, mut children: Vec<Arc<LogicalPlan>>) -> Result<Arc<LogicalPlan>> {
    let plan = match op {
        PhysOp::Scan { .. } | PhysOp::Ship | PhysOp::ResumeScan { .. } => {
            unreachable!("handled by walk")
        }
        PhysOp::Filter { predicate } => {
            LogicalPlan::filter(children.pop().unwrap(), predicate.clone())?
        }
        PhysOp::Project { exprs } => LogicalPlan::project(children.pop().unwrap(), exprs.clone())?,
        PhysOp::HashJoin {
            left_keys,
            right_keys,
            filter,
        } => {
            let right = children.pop().unwrap();
            let left = children.pop().unwrap();
            let on = left_keys
                .iter()
                .cloned()
                .zip(right_keys.iter().cloned())
                .collect();
            LogicalPlan::join(left, right, on, filter.clone())?
        }
        PhysOp::HashAggregate { group_by, aggs } => {
            LogicalPlan::aggregate(children.pop().unwrap(), group_by.clone(), aggs.to_vec())?
        }
        PhysOp::Sort { keys } => LogicalPlan::sort(children.pop().unwrap(), keys.clone())?,
        PhysOp::Limit { fetch } => LogicalPlan::limit(children.pop().unwrap(), *fetch),
        PhysOp::Union => LogicalPlan::union(children)?,
    };
    Ok(Arc::new(plan))
}
