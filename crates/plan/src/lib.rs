//! # geoqp-plan
//!
//! Logical and physical relational algebra for the `geoqp` workspace.
//!
//! * [`logical`] — the logical plan operators the optimizer enumerates over
//!   (scan, filter, project, join, aggregate, union, sort, limit),
//! * [`builder`] — a validating plan builder used by the SQL lowering and
//!   the TPC-H query definitions,
//! * [`descriptor`] — extraction of a *local query descriptor* from a
//!   single-database subplan; this is the `(A_q, P_q, G_q, f_a)` summary
//!   that Algorithm 1 (paper Section 5) evaluates policies against,
//! * [`physical`] — located physical plans with explicit SHIP operators,
//!   the output of the two-phase optimizer and the input of the executor,
//! * [`display`] — indented tree rendering used by EXPLAIN-style output.

pub mod builder;
pub mod descriptor;
pub mod display;
pub mod logical;
pub mod physical;

pub use builder::PlanBuilder;
pub use descriptor::{LocalQuery, OutputShape};
pub use logical::{LogicalPlan, SortKey};
pub use physical::{node_key, PhysOp, PhysicalPlan};
