//! # geoqp-common
//!
//! Shared foundation types for the `geoqp` workspace — the Rust reproduction
//! of *Compliant Geo-distributed Query Processing* (SIGMOD 2021).
//!
//! This crate defines:
//!
//! * [`Value`] and [`DataType`] — the dynamic value model used by the
//!   expression evaluator, executor, and network serializer,
//! * [`Schema`] / [`Field`] — relational schemas with name-based lookup,
//! * [`Location`], [`LocationSet`], and [`LocationPattern`] — geographic or
//!   institutional sites, the *execution/shipping trait* carriers of the
//!   paper's Section 6,
//! * [`TableRef`] — a `database.table` reference tying a table to a site,
//! * [`GeoError`] / [`Result`] — the workspace-wide error type.
//!
//! Everything here is deliberately dependency-light so that every other crate
//! in the workspace can build on it.

pub mod builder;
pub mod churn;
pub mod columnar;
pub mod control;
pub mod error;
pub mod location;
pub mod row;
pub mod schema;
pub mod table_ref;
pub mod types;
pub mod value;

pub use builder::ColumnarBuilder;
pub use churn::{ChurnEvent, ChurnSignal, ChurnWatch};
pub use columnar::{Cells, Column, ColumnarBatch, SelectionVector, SharedColumn};
pub use control::{CancelToken, QueryDeadline, RunControl};
pub use error::{ChurnAbort, GeoError, Result, Unavailable};
pub use location::{Location, LocationPattern, LocationSet};
pub use row::{Row, Rows};
pub use schema::{Field, Schema};
pub use table_ref::TableRef;
pub use types::DataType;
pub use value::Value;
