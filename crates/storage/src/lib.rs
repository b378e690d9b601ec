//! # geoqp-storage
//!
//! In-memory storage and catalogs for the geo-distributed deployment model
//! of the paper's Section 3: a set of locations, one database per location,
//! each database holding typed columnar tables behind a site gateway.
//!
//! The [`Catalog`] doubles as the *global schema* (the union of all local
//! schemas, mapped GAV-style): a bare table name resolves to the site(s)
//! hosting it — several sites when a table is partitioned across locations
//! as in the paper's Section 7.5 experiment.
//!
//! Tables can be registered metadata-only (schema plus [`TableStats`]) for
//! optimization experiments, with data attached later for execution.

pub mod catalog;
pub mod stats;
pub mod table;

pub use catalog::{Catalog, DatabaseEntry, TableEntry};
pub use stats::TableStats;
pub use table::Table;
