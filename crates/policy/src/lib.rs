//! # geoqp-policy
//!
//! Dataflow policies: the declarative `SHIP … FROM … TO …` **policy
//! expressions** of the paper's Section 4, the per-database **policy
//! catalog**, and the **policy evaluation algorithm** `𝒜(q, D, P_D)`
//! (Section 5, Algorithm 1) that computes the set of locations a local
//! query's output may legally be shipped to.
//!
//! The disclosure model is conservative (Section 4): nothing may be shipped
//! anywhere unless some expression allows it, and the evaluator errs toward
//! the empty location set whenever a query shape falls outside the summary
//! language.

pub mod catalog;
pub mod evaluator;
pub mod expression;
pub mod log;
pub mod memo;
pub mod negative;

pub use catalog::{PolicyCatalog, RegisteredExpression};
pub use evaluator::PolicyEvaluator;
pub use expression::{PolicyExpression, PolicyKind, ShipAttrs};
pub use log::{CatalogAction, CatalogEntry, CatalogLog, CatalogReplica, CatalogSnapshot};
pub use memo::ImplicationMemo;
pub use negative::{expand_denials, DenyExpression};
