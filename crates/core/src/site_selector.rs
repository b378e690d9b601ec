//! The **site selector** — phase 2 of the two-phase optimizer
//! (Section 6.3, Algorithm 2).
//!
//! Given an annotated plan, choose for every operator an execution
//! location from its execution trait `ℰ`, minimizing total data-shipping
//! cost under the message cost model `ShipCost(i→j, b) = α_ij + β_ij·b`.
//! The algorithm is the paper's memoized recursive DP: `CostOf(n, l)` is
//! the minimum cost of producing `n`'s output at location `l`, computed
//! from each input's best `(location, ship)` combination. Explicit SHIP
//! operators are inserted wherever a child's chosen location differs from
//! its parent's.
//!
//! Because parents only ever place themselves inside `⋂ 𝒮(child)`
//! (annotation rule AR2) and children's execution traits are subsets of
//! their shipping traits (AR3), every SHIP this phase inserts targets a
//! location inside the shipped subplan's shipping trait — which is the
//! induction Theorem 1's soundness proof rests on.

use crate::annotate::AnnotatedNode;
use crate::memo::MOp;
use geoqp_common::{GeoError, Location, Result};
use geoqp_net::NetworkTopology;
use geoqp_plan::{PhysOp, PhysicalPlan};
use std::collections::HashMap;
use std::sync::Arc;

/// The placement objective.
///
/// The paper's experiments use total communication cost; its Section 3.3
/// discussion notes the methods "can also be adapted to other cost models
/// (e.g., that determine query response time)" — that adaptation is the
/// `ResponseTime` variant: inputs transfer in parallel, so a node's cost
/// is the *maximum* over its inputs rather than the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize total bytes·β + per-transfer α over all SHIPs.
    #[default]
    TotalCost,
    /// Minimize the critical path of transfers (parallel inputs).
    ResponseTime,
}

/// The outcome of site selection.
#[derive(Debug)]
pub struct SitedPlan {
    /// The located physical plan with explicit SHIP operators.
    pub physical: Arc<PhysicalPlan>,
    /// Estimated total shipping cost (ms) under the message cost model.
    pub est_ship_cost_ms: f64,
    /// The location holding the final result.
    pub result_location: Location,
    /// Distinct `(operator, location)` states Algorithm 2 memoized while
    /// costing and reconstructing this placement — the DP search volume.
    pub dp_states: usize,
}

/// Run Algorithm 2 over an annotated plan. When `result_location` is
/// given, the final result is additionally shipped there (and its cost
/// included); the location must be in the root's shipping trait, which
/// phase 1 guarantees by candidate selection.
pub fn select_sites(
    root: &AnnotatedNode,
    topology: &NetworkTopology,
    result_location: Option<&Location>,
) -> Result<SitedPlan> {
    select_sites_with(root, topology, result_location, Objective::TotalCost)
}

/// [`select_sites`] with an explicit placement objective.
pub fn select_sites_with(
    root: &AnnotatedNode,
    topology: &NetworkTopology,
    result_location: Option<&Location>,
    objective: Objective,
) -> Result<SitedPlan> {
    let mut ids = HashMap::new();
    number(root, &mut ids, &mut 0);
    let mut memo: HashMap<(usize, Location), f64> = HashMap::new();

    // Choose the root location.
    let mut best: Option<(Location, f64)> = None;
    for l in root.exec.iter() {
        let c = cost_of(root, l, topology, &ids, &mut memo, objective)?;
        let total = match result_location {
            Some(res) => c + topology.ship_cost_ms(l, res, root.bytes()),
            None => c,
        };
        if best.as_ref().is_none_or(|(_, b)| total < *b) {
            best = Some((l.clone(), total));
        }
    }
    let (root_loc, total) = best.ok_or_else(|| {
        GeoError::QueryRejected("annotated plan has an empty root execution trait".into())
    })?;
    if total.is_infinite() {
        return Err(GeoError::QueryRejected(
            "no placement has finite cost: an operator's execution trait is empty, \
             or every compliant route crosses an avoided link"
                .into(),
        ));
    }

    let mut physical = assign(root, &root_loc, topology, &ids, &mut memo, objective)?;
    let mut result_loc = root_loc;
    if let Some(res) = result_location {
        if *res != result_loc {
            physical = PhysicalPlan::ship(physical, res.clone());
            result_loc = res.clone();
        }
    }
    Ok(SitedPlan {
        physical,
        est_ship_cost_ms: total,
        result_location: result_loc,
        dp_states: memo.len(),
    })
}

fn number(node: &AnnotatedNode, ids: &mut HashMap<*const AnnotatedNode, usize>, next: &mut usize) {
    ids.insert(node as *const AnnotatedNode, *next);
    *next += 1;
    for c in &node.children {
        number(c, ids, next);
    }
}

/// `CostOf(n, l)` — Algorithm 2 lines 3–18.
fn cost_of(
    node: &AnnotatedNode,
    l: &Location,
    topology: &NetworkTopology,
    ids: &HashMap<*const AnnotatedNode, usize>,
    memo: &mut HashMap<(usize, Location), f64>,
    objective: Objective,
) -> Result<f64> {
    let id = ids[&(node as *const AnnotatedNode)];
    if let Some(c) = memo.get(&(id, l.clone())) {
        return Ok(*c);
    }
    let cost = if node.children.is_empty() {
        // Base case: a tablescan is free at its own site, impossible
        // elsewhere (ℰ is the singleton source location, so `l` is it).
        0.0
    } else {
        let mut total = 0.0;
        for child in &node.children {
            let mut best = f64::INFINITY;
            for l2 in child.exec.iter() {
                let ship = topology.ship_cost_ms(l2, l, child.bytes());
                let c = ship + cost_of(child, l2, topology, ids, memo, objective)?;
                if c < best {
                    best = c;
                }
            }
            // An infinite best is a placement with no usable route to
            // `l` — an empty execution trait, or every path priced at ∞
            // by an avoided link. It propagates as a cost, not an
            // error: other locations of the ancestors may still admit a
            // finite plan, and only the root decides rejection.
            match objective {
                Objective::TotalCost => total += best,
                // Inputs transfer in parallel: the slowest path governs.
                Objective::ResponseTime => total = total.max(best),
            }
        }
        total
    };
    memo.insert((id, l.clone()), cost);
    Ok(cost)
}

/// Reconstruct the optimal assignment and build the physical tree.
fn assign(
    node: &AnnotatedNode,
    l: &Location,
    topology: &NetworkTopology,
    ids: &HashMap<*const AnnotatedNode, usize>,
    memo: &mut HashMap<(usize, Location), f64>,
    objective: Objective,
) -> Result<Arc<PhysicalPlan>> {
    let mut phys_children = Vec::with_capacity(node.children.len());
    for child in &node.children {
        let mut best: Option<(Location, f64)> = None;
        for l2 in child.exec.iter() {
            let ship = topology.ship_cost_ms(l2, l, child.bytes());
            let c = ship + cost_of(child, l2, topology, ids, memo, objective)?;
            if best.as_ref().is_none_or(|(_, b)| c < *b) {
                best = Some((l2.clone(), c));
            }
        }
        let (child_loc, _) =
            best.ok_or_else(|| GeoError::QueryRejected("child has empty execution trait".into()))?;
        let built = assign(child, &child_loc, topology, ids, memo, objective)?;
        phys_children.push(PhysicalPlan::ship(built, l.clone()));
    }
    let op = phys_op(&node.op);
    Ok(Arc::new(PhysicalPlan::new(
        op,
        Arc::clone(&node.schema),
        l.clone(),
        phys_children,
    )?))
}

/// Map logical memo operators onto physical operators (the engine's
/// implementation rules: hash join, hash aggregation).
pub fn phys_op(op: &MOp) -> PhysOp {
    match op {
        MOp::Scan { table, .. } => PhysOp::Scan {
            table: table.clone(),
        },
        MOp::Filter { predicate } => PhysOp::Filter {
            predicate: predicate.clone(),
        },
        MOp::Project { exprs } => PhysOp::Project {
            exprs: exprs.clone(),
        },
        MOp::Join { on, filter } => PhysOp::HashJoin {
            left_keys: on.iter().map(|(l, _)| l.clone()).collect(),
            right_keys: on.iter().map(|(_, r)| r.clone()).collect(),
            filter: filter.clone(),
        },
        MOp::Aggregate { group_by, aggs } => PhysOp::HashAggregate {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        MOp::Union => PhysOp::Union,
        MOp::Sort { keys } => PhysOp::Sort { keys: keys.clone() },
        MOp::Limit { fetch } => PhysOp::Limit { fetch: *fetch },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, LocationSet, Schema, TableRef};
    use geoqp_net::topology::Link;

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap())
    }

    fn leaf(at: &str, rows: f64) -> AnnotatedNode {
        AnnotatedNode {
            op: MOp::Scan {
                table: TableRef::bare(format!("t_{at}")),
                location: loc(at),
                schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap()),
            },
            schema: schema(),
            exec: LocationSet::singleton(loc(at)),
            ship: LocationSet::from_iter(["A", "B", "C"]),
            rows,
            width: 10.0,
            children: vec![],
        }
    }

    fn join(exec: &[&str], children: Vec<AnnotatedNode>, rows: f64) -> AnnotatedNode {
        AnnotatedNode {
            op: MOp::Join {
                on: vec![("x".into(), "x".into())],
                filter: None,
            },
            schema: schema(),
            exec: LocationSet::from_iter(exec.iter().copied()),
            ship: LocationSet::from_iter(exec.iter().copied()),
            rows,
            width: 10.0,
            children,
        }
    }

    /// A topology where shipping is priced purely per byte (α = 0), so the
    /// optimum is easy to reason about by hand.
    fn per_byte_topology() -> NetworkTopology {
        let mut t = NetworkTopology::uniform(
            LocationSet::from_iter(["A", "B", "C"]),
            0.0,
            125.0, // β = 1/15625 ms per byte... use explicit links below
        );
        for a in ["A", "B", "C"] {
            for b in ["A", "B", "C"] {
                if a != b {
                    t.set_link(
                        loc(a),
                        loc(b),
                        Link {
                            alpha_ms: 0.0,
                            beta_ms_per_byte: 1.0,
                        },
                    );
                }
            }
        }
        t
    }

    #[test]
    fn gravity_pulls_join_to_the_big_side() {
        // 1000-row table at A, 10-row table at B; join may run at A or B.
        // Cheapest: move the small side to A.
        let plan = join(&["A", "B"], vec![leaf("A", 1000.0), leaf("B", 10.0)], 500.0);
        let sited = select_sites(&plan, &per_byte_topology(), None).unwrap();
        let transfers = sited.physical.transfers();
        assert_eq!(transfers, vec![(loc("B"), loc("A"))]);
        assert!((sited.est_ship_cost_ms - 100.0).abs() < 1e-9); // 10 rows × 10 B
    }

    #[test]
    fn result_location_charges_the_final_ship() {
        let plan = join(&["A", "B"], vec![leaf("A", 1000.0), leaf("B", 10.0)], 500.0);
        let sited = select_sites(&plan, &per_byte_topology(), Some(&loc("C"))).unwrap();
        assert_eq!(sited.result_location, loc("C"));
        // 10×10 bytes B→A plus 500×10 bytes A→C.
        assert!((sited.est_ship_cost_ms - (100.0 + 5000.0)).abs() < 1e-9);
        assert_eq!(sited.physical.ship_count(), 2);
    }

    #[test]
    fn dp_matches_brute_force_on_a_two_level_tree() {
        // Join of (join of A,B) with C, middle join placeable anywhere.
        let inner = join(
            &["A", "B", "C"],
            vec![leaf("A", 50.0), leaf("B", 70.0)],
            30.0,
        );
        let outer = join(&["A", "B", "C"], vec![inner, leaf("C", 90.0)], 10.0);
        let topo = per_byte_topology();
        let sited = select_sites(&outer, &topo, None).unwrap();

        // Brute force over (outer loc, inner loc).
        let mut best = f64::INFINITY;
        for l_out in ["A", "B", "C"] {
            for l_in in ["A", "B", "C"] {
                let c = topo.ship_cost_ms(&loc("A"), &loc(l_in), 500.0)
                    + topo.ship_cost_ms(&loc("B"), &loc(l_in), 700.0)
                    + topo.ship_cost_ms(&loc(l_in), &loc(l_out), 300.0)
                    + topo.ship_cost_ms(&loc("C"), &loc(l_out), 900.0);
                if c < best {
                    best = c;
                }
            }
        }
        assert!(
            (sited.est_ship_cost_ms - best).abs() < 1e-9,
            "DP {} vs brute force {best}",
            sited.est_ship_cost_ms
        );
    }

    #[test]
    fn response_time_prefers_parallel_paths() {
        // Two equally big inputs at A and B; a join placeable at A, B or C.
        // Total cost: run at A or B (one 1000-byte ship). Response time:
        // running at C ships both in parallel (critical path 1000) — same
        // as the best sequential path, but crucially the *costs differ*
        // between objectives on asymmetric inputs:
        let plan = join(
            &["A", "B", "C"],
            vec![leaf("A", 100.0), leaf("B", 60.0)],
            10.0,
        );
        let topo = per_byte_topology();
        let total = select_sites_with(&plan, &topo, None, Objective::TotalCost).unwrap();
        let rt = select_sites_with(&plan, &topo, None, Objective::ResponseTime).unwrap();
        // Total cost: ship the smaller (600 B) side to A → 600.
        assert!((total.est_ship_cost_ms - 600.0).abs() < 1e-9);
        // Response time: the same placement has critical path 600; placing
        // at C would make it max(1000, 600) = 1000. So the DP must report
        // 600, not a sum.
        assert!((rt.est_ship_cost_ms - 600.0).abs() < 1e-9);
        assert_eq!(total.physical.transfers(), rt.physical.transfers());
    }

    #[test]
    fn response_time_differs_from_total_cost_when_paths_split() {
        // Children at A and B; join exec restricted to {C}. Both must ship.
        let plan = join(&["C"], vec![leaf("A", 100.0), leaf("B", 100.0)], 10.0);
        let topo = per_byte_topology();
        let total = select_sites_with(&plan, &topo, None, Objective::TotalCost).unwrap();
        let rt = select_sites_with(&plan, &topo, None, Objective::ResponseTime).unwrap();
        assert!((total.est_ship_cost_ms - 2000.0).abs() < 1e-9); // sum
        assert!((rt.est_ship_cost_ms - 1000.0).abs() < 1e-9); // max
    }

    #[test]
    fn empty_execution_trait_is_a_rejection() {
        let plan = join(&[], vec![leaf("A", 10.0), leaf("B", 10.0)], 5.0);
        let err = select_sites(&plan, &per_byte_topology(), None).unwrap_err();
        assert_eq!(err.kind(), "rejected");
    }
}
