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
//! What crosses is the producer's own `Arc<ColumnarBatch>`, whichever
//! engine produced it: the consumer holds the same allocation, so an edge
//! is crossed without copying a value. (A row-engine fragment — the test
//! oracle — lays its output out as columns once, at the producer.)
//!
//! A failed run is torn down with [`Exchange::cancel`], which wakes a
//! waiting consumer for good and turns a later `deliver` into a no-op.

use geoqp_common::ColumnarBatch;
use std::sync::{Arc, Condvar, Mutex};

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
    output: Option<Arc<ColumnarBatch>>,
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
    pub fn deliver(&self, output: Arc<ColumnarBatch>, batches: u64, bytes: u64, arrival_ms: f64) {
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
    pub fn take(&self) -> Result<(Arc<ColumnarBatch>, f64), Cancelled> {
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

    fn batch(n: i64) -> Arc<ColumnarBatch> {
        Arc::new(ColumnarBatch::from_rows(&[vec![Value::Int64(n)]], 1))
    }

    #[test]
    fn deliver_take_roundtrip() {
        let ex = Exchange::default();
        let b = batch(1);
        ex.deliver(Arc::clone(&b), 2, 30, 42.0);
        let (got, arrival) = ex.take().unwrap();
        // The consumer holds the producer's allocation, not a copy.
        assert!(Arc::ptr_eq(&got, &b));
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
        ex.deliver(batch(1), 1, 10, 5.0);
        assert_eq!(ex.take().unwrap_err(), Cancelled);
        assert_eq!(ex.stats(), ExchangeStats::default());
        assert_eq!(ex.arrival_ms(), 0.0);
    }
}
