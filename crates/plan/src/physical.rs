//! Located physical plans.
//!
//! The two-phase optimizer's output: every operator carries the location it
//! executes at, and cross-location dataflow is explicit via [`PhysOp::Ship`]
//! nodes (the paper's SHIP operator). The executor interprets this tree
//! directly, charging every Ship to the network simulator.

use crate::logical::{LogicalPlan, SortKey};
use geoqp_common::{GeoError, Location, LocationSet, Result, Schema, TableRef};
use geoqp_expr::{AggCall, ScalarExpr};
use std::sync::Arc;

/// The physical operator kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Scan a base table (leaf).
    Scan {
        /// The table.
        table: TableRef,
    },
    /// Filter rows.
    Filter {
        /// Predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// Compute output expressions.
    Project {
        /// `(expression, output name)` pairs.
        exprs: Vec<(ScalarExpr, String)>,
    },
    /// Hash inner equi-join (build = left, probe = right) with an optional
    /// residual filter evaluated over the concatenated row.
    HashJoin {
        /// Left key columns.
        left_keys: Vec<String>,
        /// Right key columns.
        right_keys: Vec<String>,
        /// Residual condition.
        filter: Option<ScalarExpr>,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Group columns.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// In-memory sort.
    Sort {
        /// Keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Row limit.
    Limit {
        /// Row budget.
        fetch: usize,
    },
    /// Bag union of same-schema inputs.
    Union,
    /// Transfer the input's rows from its location to this node's location.
    /// The only operator whose input location differs from its own.
    Ship,
    /// Resume from a checkpointed intermediate result (leaf): read the
    /// retained output of an already-completed subtree instead of
    /// recomputing it after a failover re-plan. The node carries what the
    /// Definition-1 checker needs to re-audit the resume edge without
    /// consulting the checkpoint store: the replaced subtree's logical
    /// content (for AR4 policy augmentation above it) and its derived
    /// shipping trait `𝒮` — the sites where the checkpoint may legally
    /// live. The node's own location (the checkpoint's home) must be
    /// inside that trait.
    ResumeScan {
        /// Canonical fingerprint of the checkpointed subtree.
        fingerprint: u64,
        /// The subtree's shipping trait `𝒮` at checkpoint time.
        legal: LocationSet,
        /// The subtree's logical content.
        logical: Arc<LogicalPlan>,
    },
}

impl PhysOp {
    /// Short name for display.
    pub fn name(&self) -> &'static str {
        match self {
            PhysOp::Scan { .. } => "Scan",
            PhysOp::Filter { .. } => "Filter",
            PhysOp::Project { .. } => "Project",
            PhysOp::HashJoin { .. } => "HashJoin",
            PhysOp::HashAggregate { .. } => "HashAggregate",
            PhysOp::Sort { .. } => "Sort",
            PhysOp::Limit { .. } => "Limit",
            PhysOp::Union => "Union",
            PhysOp::Ship => "Ship",
            PhysOp::ResumeScan { .. } => "ResumeScan",
        }
    }
}

/// Address of a plan node, usable as a map key: two parents sharing one
/// `Arc`'d subtree see the same key.
pub fn node_key(p: &PhysicalPlan) -> usize {
    p as *const PhysicalPlan as usize
}

/// One node of a located physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The operator.
    pub op: PhysOp,
    /// Output schema.
    pub schema: Arc<Schema>,
    /// Where this operator executes. For [`PhysOp::Ship`], the destination.
    pub location: Location,
    /// Children, in order.
    pub inputs: Vec<Arc<PhysicalPlan>>,
}

impl PhysicalPlan {
    /// Create a node, validating arity.
    pub fn new(
        op: PhysOp,
        schema: Arc<Schema>,
        location: Location,
        inputs: Vec<Arc<PhysicalPlan>>,
    ) -> Result<PhysicalPlan> {
        let arity_ok = match &op {
            PhysOp::Scan { .. } | PhysOp::ResumeScan { .. } => inputs.is_empty(),
            PhysOp::HashJoin { .. } => inputs.len() == 2,
            PhysOp::Union => !inputs.is_empty(),
            _ => inputs.len() == 1,
        };
        if !arity_ok {
            return Err(GeoError::Plan(format!(
                "{} has wrong arity {}",
                op.name(),
                inputs.len()
            )));
        }
        // Non-Ship operators execute where their inputs' outputs are.
        if !matches!(op, PhysOp::Ship) {
            for i in &inputs {
                if i.location != location {
                    return Err(GeoError::Plan(format!(
                        "{} at {} consumes input at {} without a Ship",
                        op.name(),
                        location,
                        i.location
                    )));
                }
            }
        }
        Ok(PhysicalPlan {
            op,
            schema,
            location,
            inputs,
        })
    }

    /// Wrap `input` in a Ship to `to`. No-op when already there.
    pub fn ship(input: Arc<PhysicalPlan>, to: Location) -> Arc<PhysicalPlan> {
        if input.location == to {
            return input;
        }
        Arc::new(PhysicalPlan {
            op: PhysOp::Ship,
            schema: Arc::clone(&input.schema),
            location: to,
            inputs: vec![input],
        })
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&PhysicalPlan)) {
        f(self);
        for c in &self.inputs {
            c.visit(f);
        }
    }

    /// Every Ship node, in pre-order. This is the one numbering of SHIP
    /// edges: the `i`-th Ship here is edge `i` of the Definition-1 audit,
    /// of the checkpoint specs and of the runtime's slot grid.
    pub fn ships(&self) -> Vec<&PhysicalPlan> {
        fn walk<'p>(p: &'p PhysicalPlan, out: &mut Vec<&'p PhysicalPlan>) {
            if matches!(p.op, PhysOp::Ship) {
                out.push(p);
            }
            for c in &p.inputs {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Number of Ship operators in the plan.
    pub fn ship_count(&self) -> usize {
        self.ships().len()
    }

    /// All `(from, to)` transfers performed by the plan.
    pub fn transfers(&self) -> Vec<(Location, Location)> {
        (self.ships().iter())
            .map(|p| (p.inputs[0].location.clone(), p.location.clone()))
            .collect()
    }

    /// Total operator count.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field};

    fn scan(loc: &str) -> Arc<PhysicalPlan> {
        Arc::new(
            PhysicalPlan::new(
                PhysOp::Scan {
                    table: TableRef::bare("t"),
                },
                Arc::new(Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap()),
                Location::new(loc),
                vec![],
            )
            .unwrap(),
        )
    }

    #[test]
    fn ship_is_identity_at_same_location() {
        let s = scan("E");
        let same = PhysicalPlan::ship(Arc::clone(&s), Location::new("E"));
        assert_eq!(same.ship_count(), 0);
        let moved = PhysicalPlan::ship(s, Location::new("A"));
        assert_eq!(moved.ship_count(), 1);
        assert_eq!(
            moved.transfers(),
            vec![(Location::new("E"), Location::new("A"))]
        );
    }

    #[test]
    fn location_mismatch_without_ship_is_rejected() {
        let s = scan("E");
        let schema = Arc::clone(&s.schema);
        let err = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: ScalarExpr::col("a").gt(ScalarExpr::lit(0i64)),
            },
            schema,
            Location::new("A"),
            vec![s],
        )
        .unwrap_err();
        assert_eq!(err.kind(), "plan");
    }

    #[test]
    fn arity_validation() {
        let s = scan("E");
        let schema = Arc::clone(&s.schema);
        assert!(PhysicalPlan::new(
            PhysOp::HashJoin {
                left_keys: vec![],
                right_keys: vec![],
                filter: None
            },
            schema,
            Location::new("E"),
            vec![s],
        )
        .is_err());
    }
}
