//! Distributed execution plumbing for the sequential interpreter: a
//! catalog-backed data source and a network-simulating SHIP handler.
//! Both adjudicate through the attempt's [`ShipEnv`] — the same
//! adjudicator the pipelined runtime calls — on the fault plan's ticking
//! clock, so availability faults surface as typed
//! [`GeoError::SiteUnavailable`] errors during execution.

use geoqp_common::{
    ColumnarBatch, GeoError, Location, LocationSet, Result, Rows, Schema, TableRef,
};
use geoqp_exec::{DataSource, ShipHandler};
use geoqp_net::TransferLog;
use geoqp_runtime::{CheckpointSpec, ShipEdge, ShipEnv};
use geoqp_storage::Catalog;
use std::sync::Arc;

/// Scans base tables from the per-site databases of a [`Catalog`]. With
/// a [`ShipEnv`] attached, every leaf read polls its cancel token and
/// passes its availability gate (one tick of the fault clock per attempt)
/// before touching the data, and [`PhysOp::ResumeScan`] leaves read
/// retained intermediate results from its checkpoint store.
///
/// [`PhysOp::ResumeScan`]: geoqp_plan::PhysOp::ResumeScan
pub struct CatalogSource<'a> {
    catalog: &'a Catalog,
    env: Option<&'a ShipEnv<'a>>,
}

impl<'a> CatalogSource<'a> {
    /// Create an ungated source over the catalog.
    pub fn new(catalog: &'a Catalog) -> CatalogSource<'a> {
        CatalogSource { catalog, env: None }
    }

    /// Gate every leaf read through `env`.
    pub fn with_env(mut self, env: &'a ShipEnv<'a>) -> CatalogSource<'a> {
        self.env = Some(env);
        self
    }

    /// Cancellation poll and availability gate in front of a leaf read.
    fn gate(&self, location: &Location, what: &str) -> Result<()> {
        if let Some(env) = self.env {
            env.control()
                .check_cancel(&format!("{what} at {location}"))?;
            // The sequential clock ticks once per attempt.
            env.leaf_gate(location, what, 0, |faults, _| faults.tick())?;
        }
        Ok(())
    }
}

impl DataSource for CatalogSource<'_> {
    /// The table's own columns, shared by `Arc` — after the cancellation
    /// and availability gates.
    fn scan(&self, table: &TableRef, location: &Location) -> Result<Arc<ColumnarBatch>> {
        self.gate(location, &format!("scan of {table}"))?;
        let entries = self.catalog.resolve(table);
        let entry = entries
            .iter()
            .find(|e| e.location == *location)
            .ok_or_else(|| GeoError::Execution(format!("no table {table} at {location}")))?;
        let data = entry.data().ok_or_else(|| {
            GeoError::Execution(format!(
                "table {table} at {location} has no materialized data; \
                 attach rows with TableEntry::set_data"
            ))
        })?;
        Ok(data.to_columnar())
    }

    fn resume(&self, fingerprint: u64, location: &Location) -> Result<Arc<ColumnarBatch>> {
        // The checkpoint's home site must be up to serve it — a resume
        // leaf is gated by availability exactly like a tablescan.
        self.gate(
            location,
            &format!("resume of checkpoint {fingerprint:016x}"),
        )?;
        let env = self.env.ok_or_else(|| {
            GeoError::Execution(format!(
                "an ungated CatalogSource reads base tables only: cannot resume \
                 {fingerprint:016x} at {location}"
            ))
        })?;
        env.resume(fingerprint, location)
    }
}

/// The sequential interpreter's SHIP: every edge is a **one-batch
/// stream** through the attempt's [`ShipEnv`], on the fault plan's
/// ticking clock. The batch is charged for its exact serialized volume,
/// so the simulated WAN carries real byte counts, not estimates; faults,
/// retries, hedging, churn, the deadline, and checkpoint capture are the
/// adjudicator's, identical to the pipelined runtime's.
pub struct SimShip<'a> {
    env: &'a ShipEnv<'a>,
    log: TransferLog,
    // Per-SHIP-edge shipping traits 𝒮ₙ and checkpoint specs, both in
    // execution order (see [`SimShip::with_edges`]).
    audits: Vec<LocationSet>,
    specs: Vec<CheckpointSpec>,
    next_edge: usize,
}

impl<'a> SimShip<'a> {
    /// Create a handler adjudicating against `env`, with an empty
    /// transfer log.
    pub fn new(env: &'a ShipEnv<'a>) -> SimShip<'a> {
        SimShip {
            env,
            log: TransferLog::new(),
            audits: Vec::new(),
            specs: Vec::new(),
            next_edge: 0,
        }
    }

    /// Attach the per-edge shipping traits `𝒮ₙ` — each batch's
    /// Definition-1 audit set and the only sites a hedged relay may route
    /// through — and, when `env` carries a checkpoint store, the per-edge
    /// specs every delivered edge is retained under. Both in **execution
    /// order**: the order SHIPs complete in the sequential interpreter,
    /// left-to-right post-order.
    pub fn with_edges(
        mut self,
        audits: Vec<LocationSet>,
        specs: Vec<CheckpointSpec>,
    ) -> SimShip<'a> {
        self.audits = audits;
        self.specs = specs;
        self
    }

    /// Take the accumulated transfer log.
    pub fn into_log(self) -> TransferLog {
        self.log
    }

    /// Borrow the log.
    pub fn log(&self) -> &TransferLog {
        &self.log
    }

    /// The transfer shared by the row and columnar SHIP paths: one edge
    /// carrying `bytes` over `n_rows` rows. `delivered` lays the arrived
    /// rows out as a batch and runs only when the edge is retained (a
    /// checkpoint spec is attached) — the columnar path's is its own `Arc`.
    fn transfer(
        &mut self,
        from: &Location,
        to: &Location,
        bytes: u64,
        n_rows: u64,
        delivered: impl FnOnce() -> Arc<ColumnarBatch>,
    ) -> Result<()> {
        let edge = self.next_edge;
        self.next_edge += 1;
        let mut stream = self.env.open(
            ShipEdge {
                from,
                to,
                legal: self.audits.get(edge),
                // The clock ticks per attempt, so steps are already
                // globally ordered: one health lane serves every edge.
                lane: 0,
                // The churn clock is the edge index: one monolithic batch
                // per edge.
                churn_slot: edge as u64,
                churn_stride: 0,
                ready_ms: 0.0,
            },
            |faults, _| faults.tick(),
            // One monolithic transfer per edge: every leg pays its full
            // α + β·b — there is no stream to amortize headers over.
            |link, bytes| link.alpha_ms + link.beta_ms_per_byte * bytes,
            // The simulated clock is the transfer log: sites take turns,
            // so elapsed time is the sum of everything charged so far.
            |batch| batch.log.total_cost_ms() + batch.primary_ms,
        );
        stream.ship_batch(bytes, n_rows, &mut self.log)?;
        stream.finish(self.specs.get(edge).map(|spec| (spec, delivered())))
    }
}

impl ShipHandler for SimShip<'_> {
    /// The row oracle's SHIP: a real wire round trip, so the consumer
    /// sees decoded bytes.
    fn ship(
        &mut self,
        from: &Location,
        to: &Location,
        rows: Rows,
        schema: &Schema,
    ) -> Result<Rows> {
        let encoded = rows.encode();
        let decoded = Rows::decode(&encoded, schema.len())
            .ok_or_else(|| GeoError::Execution("wire corruption: batch failed to decode".into()))?;
        let bytes = encoded.len() as u64;
        self.transfer(from, to, bytes, rows.len() as u64, || {
            Arc::new(ColumnarBatch::from_rows(decoded.rows(), schema.len()))
        })?;
        Ok(decoded)
    }

    fn ship_columnar(
        &mut self,
        from: &Location,
        to: &Location,
        batch: Arc<ColumnarBatch>,
        _schema: &Schema,
    ) -> Result<Arc<ColumnarBatch>> {
        // Byte accounting comes from column metadata
        // ([`ColumnarBatch::encoded_size`] equals the wire encoding's
        // length exactly), so the simulator charges identical bytes to
        // the row path without ever materializing the encoding. The
        // delivered batch is the same `Arc` — zero-copy hand-off.
        let bytes = batch.encoded_size() as u64;
        self.transfer(from, to, bytes, batch.len() as u64, || Arc::clone(&batch))?;
        Ok(batch)
    }
}
