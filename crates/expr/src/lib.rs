#![allow(clippy::should_implement_trait)]

//! # geoqp-expr
//!
//! Scalar expression language for the `geoqp` workspace: construction,
//! type derivation, SQL-semantics evaluation, predicate utilities, and the
//! **logical implication prover** that Algorithm 1's `P_q ⟹ P_e` test
//! (paper Section 5) relies on.
//!
//! The prover follows the approach of Goldstein & Larson's materialized-view
//! matching: sound, efficient, and deliberately incomplete on arithmetic
//! combinations (`A + B = 8`), exactly as the paper's Discussion in
//! Section 5 describes.

pub mod agg;
pub mod eval;
pub mod expr;
pub mod implication;
pub mod like;
pub mod normalize;
pub mod predicate;

pub use agg::{AggCall, AggFunc};
pub use eval::{apply_cmp, as_tv, bind, BoundExpr};
pub use expr::{BinaryOp, ScalarExpr, UnaryOp};
pub use implication::implies;
pub use like::LikePattern;
pub use predicate::{columns_of, conjoin, split_conjunction};
