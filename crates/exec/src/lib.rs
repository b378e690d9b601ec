//! # geoqp-exec
//!
//! The local execution engine: a recursive interpreter for located
//! [`PhysicalPlan`](geoqp_plan::PhysicalPlan) trees.
//!
//! The engine is parameterized by two capabilities supplied by the caller:
//!
//! * a [`DataSource`] that hands out what a plan's leaves read at a site —
//!   base tables and checkpointed intermediate results — and
//! * a [`ShipHandler`] invoked for every SHIP operator, which is where the
//!   distributed engine (in `geoqp-core`) charges the network simulator
//!   and enforces runtime compliance accounting.
//!
//! Data enters an interpreter from outside in one layout: a leaf read and
//! a fragment boundary ([`ExchangeSource`]) both supply one shared
//! `Arc<ColumnarBatch>`. Rows exist only inside the row interpreter,
//! which transposes at its own leaves.
//!
//! Operators implemented: scan, filter, project, hash equi-join with
//! residual filters, hash aggregation (SUM/AVG/MIN/MAX/COUNT with SQL null
//! semantics), sort, limit, union, ship.
//!
//! Two interpreters run the same plans to the same rows, row order and
//! shipped bytes: the row-at-a-time [`executor`] (the oracle every
//! differential suite compares against) and the vectorized [`columnar`]
//! engine, whose kernels split into morsels on a [`MorselRunner`]. The
//! columnar engine's two keyed kernels, hash join and hash aggregate,
//! share the private `keyed` module, the only place a key becomes a
//! table position: `KeyIndex` hashes a key fingerprint (it finalizes
//! fingerprints itself), a join whose build side has an integer key of
//! small enough span positions its rows by `key − min` instead
//! ([`positioned_key`] states the rule), an aggregate positions its
//! groups by such a key or a string's dictionary code
//! ([`positioned_group_key`]), and every way returns candidates in
//! insertion order, which is what keeps match order and group numbering
//! independent of any schedule; `KeyEq` is the one typed comparator
//! candidates are verified with, and a join whose one other key is an
//! integer compares it in a loop of its own. Every probe loop writes each
//! candidate pair and advances by its key test, so none branches on a
//! match, and a one-key join over a build whose keys are each held once
//! has no branch at all. A join's `Int64 = Int64` and
//! `Date = Date` pairs emit one column for both keys
//! ([`shared_key_pairs`]). The aggregate accumulates typed
//! per-group vectors; the row engine's `Accumulator` is its oracle.
//!
//! A filter's mask is a truth pair: one TRUE byte and one FALSE byte per
//! row, a row with neither being NULL, so `AND`, `OR` and `NOT` are
//! bytewise. A comparison picks its operator once per column — an
//! `Int64` or `Date` column against a literal of its own type, or
//! `BETWEEN` two, is one interval test `lo ≤ x ≤ hi` — and the kept rows
//! are written without a branch on the data, over the input's own
//! selection (no identity index is built for an input without one).
//!
//! SHIP and scan operations can additionally run under a [`RetryPolicy`]
//! with simulated exponential backoff, so transient site/link faults are
//! absorbed and permanent ones surface as typed
//! [`GeoError::SiteUnavailable`](geoqp_common::GeoError) errors.

pub mod aggregate;
pub mod columnar;
pub mod executor;
mod keyed;
pub mod parallel;
pub mod retry;

pub use columnar::{
    execute_columnar, execute_fragment_columnar, positioned_group_key, positioned_key,
    shared_key_pairs, ColBatch,
};
pub use executor::{
    execute, execute_fragment, DataSource, ExchangeSource, LocalShip, MapSource, NoExchange,
    ShipHandler,
};
pub use parallel::{MorselRunner, SerialRunner, MORSEL_ROWS_DEFAULT, SERIAL};
pub use retry::{Retried, RetryPolicy};
