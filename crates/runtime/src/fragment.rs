//! Cutting a located physical plan into per-site fragments at SHIP edges.
//!
//! Every [`PhysOp::Ship`] node is an **exchange edge**: its input subtree
//! (located at the Ship's source site) becomes a producer fragment, and the
//! fragment containing the Ship node consumes the edge's output in place of
//! interpreting the subtree. Because non-Ship operators are validated to be
//! colocated with their inputs, each fragment is single-site by
//! construction.
//!
//! Edges and scans are numbered in **pre-order**. Those indices are the
//! runtime's determinism anchor: fault-plan steps are derived from them
//! (never from the order fragments run in), and per-edge shipping-trait
//! audit sets are passed in the same order. The runtime runs producers
//! in [`Cut::walk`] order — left-to-right post-order, every edge after
//! the edges inside its producer subtree — and that order is the clock
//! revocations are checked on.

use geoqp_common::{GeoError, Location, Result};
use geoqp_plan::{node_key, PhysOp, PhysicalPlan};
use std::collections::HashMap;

/// One exchange edge: a Ship node and its endpoints.
pub struct Edge<'p> {
    /// Pre-order index among the plan's Ship nodes.
    pub id: usize,
    /// Position in [`Cut::walk`]: how many edges the runtime ships
    /// before this one.
    pub order: usize,
    /// The Ship node itself. `ship.inputs[0]` is the producer subtree.
    pub ship: &'p PhysicalPlan,
    /// Producer site.
    pub from: Location,
    /// Consumer site.
    pub to: Location,
    /// The fragment that consumes this edge: the enclosing edge's id, or
    /// `None` for the root fragment.
    pub consumer: Option<usize>,
}

impl Edge<'_> {
    /// The producer fragment's root.
    pub fn subtree(&self) -> &PhysicalPlan {
        self.ship.inputs[0].as_ref()
    }
}

/// The fragment decomposition of one plan.
pub struct Cut<'p> {
    /// Exchange edges in pre-order.
    pub edges: Vec<Edge<'p>>,
    /// Edge ids in left-to-right post-order: the order the runtime runs
    /// producers in, which is the order the SHIPs of a recursive
    /// evaluation of the plan would complete in.
    pub walk: Vec<usize>,
    /// Ship node address → edge id.
    pub edge_of: HashMap<usize, usize>,
    /// Scan node address → scan slot (pre-order among scans).
    pub scan_slot: HashMap<usize, usize>,
    /// Number of scan nodes.
    pub scan_count: usize,
}

impl Cut<'_> {
    /// Width of the deterministic fault-step grid: one slot per exchange
    /// edge plus one per scan. Attempt `a` (1-based) of slot `s` consults
    /// the fault plan at step `(a-1)·n_slots + s`, so verdicts depend only
    /// on the plan shape, never on execution order.
    pub fn n_slots(&self) -> u64 {
        (self.edges.len() + self.scan_count).max(1) as u64
    }
}

/// Decompose `plan` into exchange edges and scan slots. Fails if the plan
/// shares a Ship subtree between two parents (the tree-shaped interpreter
/// would evaluate it twice, but an exchange stream can be consumed once).
pub fn cut(plan: &PhysicalPlan) -> Result<Cut<'_>> {
    let mut out = Cut {
        edges: Vec::new(),
        walk: Vec::new(),
        edge_of: HashMap::new(),
        scan_slot: HashMap::new(),
        scan_count: 0,
    };
    let mut shared_ship = false;
    for (id, ship) in plan.ships().into_iter().enumerate() {
        shared_ship |= out.edge_of.insert(node_key(ship), id).is_some();
        out.edges.push(Edge {
            id,
            order: 0,
            ship,
            from: ship.inputs[0].location.clone(),
            to: ship.location.clone(),
            consumer: None,
        });
    }
    if shared_ship {
        return Err(GeoError::Execution(
            "parallel runtime requires a tree-shaped plan: a Ship subtree is shared \
             between two parents"
                .into(),
        ));
    }
    walk(plan, None, &mut out);
    for (order, &id) in out.walk.iter().enumerate() {
        out.edges[id].order = order;
    }
    Ok(out)
}

/// Link each edge to its consumer, number the scans in pre-order and
/// record the walk. `consumer` is the edge whose producer fragment `p`
/// belongs to (`None` in the root fragment).
fn walk(p: &PhysicalPlan, consumer: Option<usize>, out: &mut Cut<'_>) {
    let mut ship = None;
    match &p.op {
        PhysOp::Ship => {
            let id = out.edge_of[&node_key(p)];
            out.edges[id].consumer = consumer;
            ship = Some(id);
        }
        // ResumeScan is a leaf read gated by its home site's availability,
        // so it draws fault-clock steps from the same scan-slot grid.
        PhysOp::Scan { .. } | PhysOp::ResumeScan { .. } => {
            let slot = out.scan_count;
            out.scan_slot.entry(node_key(p)).or_insert(slot);
            out.scan_count += 1;
        }
        _ => {}
    }
    for c in &p.inputs {
        walk(c, ship.or(consumer), out);
    }
    out.walk.extend(ship);
}
