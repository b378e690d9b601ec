//! The hand-off slot between two plan fragments.
//!
//! One [`Exchange`] backs one SHIP edge. The producer fragment is
//! evaluated, its output adjudicated batch by batch through the edge's
//! [`ShipStream`](crate::ship::ShipStream) — the batch is the unit of
//! audit, fault, cost and log, not of movement — and then handed over
//! *whole*, once, with [`Exchange::deliver`], together with the stream's
//! simulated arrival time. The runtime runs every producer before its
//! consumer, so [`Exchange::take`] finds the slot settled; a `take` on an
//! unsettled slot is a typed error, never a wait.
//!
//! What crosses is the producer's own `Arc<ColumnarBatch>`, whichever
//! engine produced it: the consumer holds the same allocation, so an edge
//! is crossed without copying a value. (A row-engine fragment — the test
//! oracle — lays its output out as columns once, at the producer.)
//!
//! A failed run is torn down with [`Exchange::cancel`], which makes a
//! later `take` fail and a later `deliver` a no-op.

use geoqp_common::{ColumnarBatch, GeoError, Result};
use std::cell::RefCell;
use std::sync::Arc;

/// Error message used to propagate a torn-down edge through a fragment's
/// interpreter. Never surfaced to callers: the originating failure wins.
pub(crate) const CANCELLED: &str = "runtime cancelled: another fragment failed";

/// A one-shot single-producer single-consumer hand-off; `default()` is
/// the empty slot.
#[derive(Default)]
pub struct Exchange {
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    /// `Some` between `deliver` and `take`.
    output: Option<Arc<ColumnarBatch>>,
    /// Set by `deliver` and by `cancel`.
    settled: bool,
    arrival_ms: f64,
    stats: ExchangeStats,
}

/// Observability counters for one exchange edge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExchangeStats {
    /// Batches adjudicated and delivered.
    pub batches: u64,
    /// Serialized bytes delivered.
    pub bytes: u64,
}

impl Exchange {
    /// Hand the producer's whole output to the consumer: `batches`
    /// deliveries totalling `bytes` on the wire, the last of which lands
    /// at simulated time `arrival_ms`. A no-op once the edge is
    /// cancelled.
    pub fn deliver(&self, output: Arc<ColumnarBatch>, batches: u64, bytes: u64, arrival_ms: f64) {
        let mut st = self.state.borrow_mut();
        if st.settled {
            return;
        }
        st.output = Some(output);
        st.settled = true;
        st.arrival_ms = arrival_ms;
        st.stats.batches = batches;
        st.stats.bytes = bytes;
    }

    /// Abort the edge: drop an untaken output for good.
    pub fn cancel(&self) {
        let mut st = self.state.borrow_mut();
        st.output = None;
        st.settled = true;
    }

    /// The producer's output and its simulated arrival time. A cancelled
    /// or already-taken edge fails with the propagated cancellation; an
    /// edge whose producer has not run is an ordering bug, typed as
    /// [`GeoError::Execution`].
    pub fn take(&self) -> Result<(Arc<ColumnarBatch>, f64)> {
        let mut st = self.state.borrow_mut();
        if !st.settled {
            return Err(GeoError::Execution(
                "exchange read before its producer ran: fragments must run producers first".into(),
            ));
        }
        let arrival_ms = st.arrival_ms;
        (st.output.take())
            .map(|p| (p, arrival_ms))
            .ok_or_else(|| GeoError::Execution(CANCELLED.into()))
    }

    /// The stream's simulated arrival time (valid after `deliver`).
    pub fn arrival_ms(&self) -> f64 {
        self.state.borrow().arrival_ms
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ExchangeStats {
        self.state.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::Value;

    fn batch(n: i64) -> Arc<ColumnarBatch> {
        Arc::new(ColumnarBatch::from_rows(&[vec![Value::Int64(n)]], 1))
    }

    fn is_cancelled(r: Result<(Arc<ColumnarBatch>, f64)>) -> bool {
        matches!(r, Err(GeoError::Execution(m)) if m == CANCELLED)
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
        assert_eq!((st.batches, st.bytes), (2, 30));
        // The slot is one-shot: nothing is left.
        assert!(is_cancelled(ex.take()));
    }

    #[test]
    fn take_before_deliver_is_a_typed_error_not_a_wait() {
        let ex = Exchange::default();
        let err = ex.take().unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(!is_cancelled(Err(err)), "an ordering bug is not a teardown");
        // The slot is still open for its producer.
        ex.deliver(batch(1), 1, 10, 5.0);
        assert!(ex.take().is_ok());
    }

    #[test]
    fn deliver_after_cancel_is_a_no_op() {
        let ex = Exchange::default();
        ex.cancel();
        // Leaves nothing behind.
        ex.deliver(batch(1), 1, 10, 5.0);
        assert!(is_cancelled(ex.take()));
        assert_eq!(ex.stats(), ExchangeStats::default());
        assert_eq!(ex.arrival_ms(), 0.0);
    }
}
