//! Cutting a located physical plan into per-site fragments at SHIP edges.
//!
//! Every [`PhysOp::Ship`] node is an **exchange edge**: its input subtree
//! (located at the Ship's source site) becomes a producer fragment, and the
//! fragment containing the Ship node consumes the edge's output in place of
//! interpreting the subtree. Because non-Ship operators are validated to be
//! colocated with their inputs, each fragment is single-site by
//! construction, so one worker thread per fragment is one worker per
//! (site, fragment) pair.
//!
//! Edges and scans are numbered in **pre-order**. Those indices are the
//! runtime's determinism anchor: fault-plan steps are derived from them
//! (never from thread arrival order), and per-edge shipping-trait audit
//! sets are passed in the same order.

use geoqp_common::{GeoError, Location, Result};
use geoqp_plan::{PhysOp, PhysicalPlan};
use std::collections::HashMap;

/// Address of a plan node, usable as a map key across worker threads.
pub fn node_key(p: &PhysicalPlan) -> usize {
    p as *const PhysicalPlan as usize
}

/// One exchange edge: a Ship node and its endpoints.
pub struct Edge<'p> {
    /// Pre-order index among the plan's Ship nodes.
    pub id: usize,
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
    /// on the plan shape, never on thread interleaving.
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
        edge_of: HashMap::new(),
        scan_slot: HashMap::new(),
        scan_count: 0,
    };
    let mut shared_ship = false;
    walk(plan, None, &mut out, &mut shared_ship);
    if shared_ship {
        return Err(GeoError::Execution(
            "parallel runtime requires a tree-shaped plan: a Ship subtree is shared \
             between two parents"
                .into(),
        ));
    }
    Ok(out)
}

/// `consumer` is the edge whose producer fragment `p` belongs to (`None`
/// in the root fragment).
fn walk<'p>(
    p: &'p PhysicalPlan,
    mut consumer: Option<usize>,
    out: &mut Cut<'p>,
    shared_ship: &mut bool,
) {
    match &p.op {
        PhysOp::Ship => {
            let id = out.edges.len();
            if out.edge_of.insert(node_key(p), id).is_some() {
                *shared_ship = true;
            }
            out.edges.push(Edge {
                id,
                ship: p,
                from: p.inputs[0].location.clone(),
                to: p.location.clone(),
                consumer,
            });
            consumer = Some(id);
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
        walk(c, consumer, out, shared_ship);
    }
}
