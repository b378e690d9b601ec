//! The hand-off slot between two plan fragments.
//!
//! One [`Exchange`] backs one SHIP edge. The producer's worker thread
//! evaluates its fragment, adjudicates the output batch by batch through
//! the edge's [`ShipStream`](crate::ship::ShipStream) — the batch is the
//! unit of audit, fault, cost and log, not of movement — and then hands
//! the *whole* output over once with [`Exchange::deliver`], together with
//! the stream's simulated arrival time. The consumer blocks in
//! [`Exchange::take`] until then; a wait there is the one pipeline stall
//! [`RuntimeMetrics`](crate::RuntimeMetrics) counts. No operator consumes
//! a partial stream, so nothing is queued and a producer never blocks.
//!
//! A failed run is torn down with [`Exchange::cancel`], which wakes a
//! waiting consumer for good and turns a later `deliver` into a no-op.

use geoqp_common::{ColumnarBatch, Rows};
use std::sync::{Arc, Condvar, Mutex};

/// One fragment's fully evaluated output, in whichever layout the
/// configured engine produced it. Row-engine fragments hand over
/// materialized [`Rows`]; columnar fragments hand over the producer's own
/// `Arc<ColumnarBatch>` — the consumer holds the same allocation, so an
/// edge is crossed without copying a single value. Byte accounting is
/// computed per batch from a row range either way (for a columnar output,
/// from column metadata), so the transfer log cannot tell the two apart.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Materialized rows (row engine).
    Rows(Rows),
    /// A shared columnar batch (columnar engine, zero-copy).
    Columnar(Arc<ColumnarBatch>),
}

impl Payload {
    /// Rows in the output.
    pub fn len(&self) -> usize {
        match self {
            Payload::Rows(r) => r.len(),
            Payload::Columnar(b) => b.len(),
        }
    }

    /// True when the output holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact wire size of rows `offset..offset + len` shipped as a batch
    /// of their own (8-byte header included), without building it.
    pub fn encoded_size(&self, offset: usize, len: usize) -> usize {
        match self {
            Payload::Rows(r) => r.encoded_size_of(offset, len),
            Payload::Columnar(b) => b.encoded_size_of(offset, len),
        }
    }

    /// The output as rows (columnar payloads defer the transpose until a
    /// consumer asks for row-major data).
    pub fn into_rows(self) -> Rows {
        match self {
            Payload::Rows(r) => r,
            Payload::Columnar(b) => Rows::from_batch(b),
        }
    }

    /// The output in columnar form (converts only for row payloads).
    pub fn into_columnar(self, arity: usize) -> Arc<ColumnarBatch> {
        match self {
            Payload::Rows(r) => Arc::new(ColumnarBatch::from_rows(r.rows(), arity)),
            Payload::Columnar(b) => b,
        }
    }
}

/// A one-shot single-producer single-consumer hand-off; `default()` is
/// the empty slot.
#[derive(Default)]
pub struct Exchange {
    state: Mutex<State>,
    settled: Condvar,
}

#[derive(Default)]
struct State {
    /// `Some` between `deliver` and `take`.
    output: Option<Payload>,
    /// Set by `deliver` and by `cancel`: `take` has nothing to wait for.
    settled: bool,
    arrival_ms: f64,
    stats: ExchangeStats,
}

/// [`Exchange::take`] found the edge torn down instead of an output.
#[derive(Debug, PartialEq)]
pub struct Cancelled;

/// Observability counters for one exchange edge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExchangeStats {
    /// Batches adjudicated and delivered.
    pub batches: u64,
    /// Serialized bytes delivered.
    pub bytes: u64,
    /// Consumer arrivals that had to wait for the producer (0 or 1).
    pub recv_stalls: u64,
}

impl Exchange {
    /// Hand the producer's whole output to the consumer: `batches`
    /// deliveries totalling `bytes` on the wire, the last of which lands
    /// at simulated time `arrival_ms`. Never blocks; a no-op once the
    /// edge is cancelled, so a producer whose consumer died still runs to
    /// its own verdict.
    pub fn deliver(&self, output: Payload, batches: u64, bytes: u64, arrival_ms: f64) {
        let mut st = self.state.lock().unwrap();
        if st.settled {
            return;
        }
        st.output = Some(output);
        st.settled = true;
        st.arrival_ms = arrival_ms;
        st.stats.batches = batches;
        st.stats.bytes = bytes;
        self.settled.notify_all();
    }

    /// Abort the edge: drop an untaken output and wake the consumer for
    /// good.
    pub fn cancel(&self) {
        let mut st = self.state.lock().unwrap();
        st.output = None;
        st.settled = true;
        self.settled.notify_all();
    }

    /// The producer's output and its simulated arrival time, blocking
    /// until it is delivered or the edge is cancelled.
    pub fn take(&self) -> Result<(Payload, f64), Cancelled> {
        let mut st = self.state.lock().unwrap();
        if !st.settled {
            st.stats.recv_stalls += 1;
        }
        while !st.settled {
            st = self.settled.wait(st).unwrap();
        }
        let arrival_ms = st.arrival_ms;
        st.output.take().map(|p| (p, arrival_ms)).ok_or(Cancelled)
    }

    /// The stream's simulated arrival time (valid after `deliver`).
    pub fn arrival_ms(&self) -> f64 {
        self.state.lock().unwrap().arrival_ms
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ExchangeStats {
        self.state.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::Value;

    fn rows(n: i64) -> Payload {
        Payload::Rows(Rows::from_rows(vec![vec![Value::Int64(n)]]))
    }

    #[test]
    fn deliver_take_roundtrip() {
        let ex = Exchange::default();
        ex.deliver(rows(1), 2, 30, 42.0);
        let (got, arrival) = ex.take().unwrap();
        assert_eq!(got.into_rows().rows()[0][0], Value::Int64(1));
        assert_eq!(arrival, 42.0);
        assert_eq!(ex.arrival_ms(), 42.0);
        let st = ex.stats();
        assert_eq!((st.batches, st.bytes, st.recv_stalls), (2, 30, 0));
        // The slot is one-shot: nothing is left, and nothing blocks.
        assert_eq!(ex.take().unwrap_err(), Cancelled);
    }

    #[test]
    fn cancel_wakes_a_blocked_take() {
        let ex = Exchange::default();
        std::thread::scope(|s| {
            let h = s.spawn(|| ex.take());
            // `take` counts its stall under the lock before it waits, so
            // once the counter reads 1 the cancel below cannot be the
            // thing that let it through unblocked.
            while ex.stats().recv_stalls == 0 {
                std::thread::yield_now();
            }
            ex.cancel();
            assert_eq!(h.join().unwrap().unwrap_err(), Cancelled);
        });
    }

    #[test]
    fn deliver_after_cancel_is_a_no_op() {
        let ex = Exchange::default();
        ex.cancel();
        // Returns at once and leaves nothing behind.
        ex.deliver(rows(1), 1, 10, 5.0);
        assert_eq!(ex.take().unwrap_err(), Cancelled);
        assert_eq!(ex.stats(), ExchangeStats::default());
        assert_eq!(ex.arrival_ms(), 0.0);
    }

    #[test]
    fn columnar_payload_crosses_zero_copy() {
        let ex = Exchange::default();
        let b = Arc::new(ColumnarBatch::from_rows(&[vec![Value::Int64(7)]], 1));
        ex.deliver(Payload::Columnar(Arc::clone(&b)), 1, 9, 0.0);
        match ex.take().unwrap() {
            // The consumer holds the producer's allocation, not a copy.
            (Payload::Columnar(got), _) => assert!(Arc::ptr_eq(&got, &b)),
            _ => panic!("expected columnar output"),
        }
    }
}
