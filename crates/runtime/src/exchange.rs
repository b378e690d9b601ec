//! The bounded, metered exchange channel between two plan fragments.
//!
//! One [`Exchange`] backs one SHIP edge. The producer's worker thread
//! pushes row batches; when the queue is at capacity the producer blocks
//! (backpressure) until the consumer drains a batch. Every wait on either
//! side is counted as a pipeline stall, and the peak queue depth and bytes
//! in flight are tracked for [`RuntimeMetrics`](crate::RuntimeMetrics).
//!
//! Termination is explicit: the producer calls [`Exchange::close`] with
//! the edge's simulated arrival time once the last batch is queued, and
//! the consumer sees [`Received::Done`] after draining. A failed run is
//! torn down with [`Exchange::cancel`], which unblocks both sides so no
//! worker deadlocks on a channel whose peer has died.

use geoqp_common::{ColumnarBatch, Rows};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// One batch in flight on an exchange edge. Row-engine producers queue
/// materialized [`Rows`]; columnar producers queue a shared
/// `Arc<ColumnarBatch>` slice — the consumer clones the `Arc`, so a batch
/// crosses the fragment boundary without copying a single value. Byte
/// accounting is attached by the producer either way (for a columnar
/// batch, computed from column metadata), so the transfer log cannot tell
/// the two apart.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A materialized row batch (row engine).
    Rows(Rows),
    /// A shared columnar batch (columnar engine, zero-copy).
    Columnar(Arc<ColumnarBatch>),
}

impl Payload {
    /// Rows in the batch.
    pub fn len(&self) -> usize {
        match self {
            Payload::Rows(r) => r.len(),
            Payload::Columnar(b) => b.len(),
        }
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The batch as rows (columnar payloads defer the transpose until a
    /// consumer asks for row-major data).
    pub fn into_rows(self) -> Rows {
        match self {
            Payload::Rows(r) => r,
            Payload::Columnar(b) => Rows::from_batch(b),
        }
    }

    /// The batch in columnar form (converts only for row payloads).
    pub fn into_columnar(self, arity: usize) -> Arc<ColumnarBatch> {
        match self {
            Payload::Rows(r) => Arc::new(ColumnarBatch::from_rows(r.rows(), arity)),
            Payload::Columnar(b) => b,
        }
    }
}

/// A bounded single-producer single-consumer batch channel.
pub struct Exchange {
    capacity: usize,
    state: Mutex<State>,
    not_full: Condvar,
    not_empty: Condvar,
}

#[derive(Default)]
struct State {
    queue: VecDeque<(Payload, u64)>,
    bytes_in_flight: u64,
    closed: bool,
    cancelled: bool,
    arrival_ms: f64,
    stats: ExchangeStats,
}

/// What the consumer got from one [`Exchange::recv`].
pub enum Received {
    /// The next batch.
    Batch(Payload),
    /// Producer finished; the stream is fully consumed.
    Done,
    /// The run was aborted by a failure elsewhere.
    Cancelled,
}

/// Observability counters for one exchange edge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExchangeStats {
    /// Batches sent.
    pub batches: u64,
    /// Serialized bytes sent.
    pub bytes: u64,
    /// Highest queue occupancy observed.
    pub max_queue_depth: usize,
    /// Highest byte volume simultaneously in flight.
    pub peak_bytes_in_flight: u64,
    /// Producer waits on a full queue.
    pub send_stalls: u64,
    /// Consumer waits on an empty queue.
    pub recv_stalls: u64,
}

impl Exchange {
    /// A channel holding at most `capacity` batches (≥ 1).
    pub fn new(capacity: usize) -> Exchange {
        Exchange {
            capacity: capacity.max(1),
            state: Mutex::new(State::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Queue one row batch, blocking while the channel is full. Returns
    /// `false` when the run was cancelled (the batch is discarded and the
    /// producer should unwind quietly).
    pub fn send(&self, rows: Rows, bytes: u64) -> bool {
        self.send_payload(Payload::Rows(rows), bytes)
    }

    /// [`Exchange::send`] for an already-wrapped payload — the columnar
    /// producer's entry point.
    pub fn send_payload(&self, payload: Payload, bytes: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.queue.len() >= self.capacity && !st.cancelled {
            st.stats.send_stalls += 1;
            st = self.not_full.wait(st).unwrap();
        }
        if st.cancelled {
            return false;
        }
        st.queue.push_back((payload, bytes));
        st.bytes_in_flight += bytes;
        st.stats.batches += 1;
        st.stats.bytes += bytes;
        st.stats.max_queue_depth = st.stats.max_queue_depth.max(st.queue.len());
        st.stats.peak_bytes_in_flight = st.stats.peak_bytes_in_flight.max(st.bytes_in_flight);
        self.not_empty.notify_one();
        true
    }

    /// Producer is done; `arrival_ms` is the simulated time at which the
    /// stream's last byte reaches the consumer.
    pub fn close(&self, arrival_ms: f64) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.arrival_ms = arrival_ms;
        self.not_empty.notify_all();
    }

    /// Abort the run: unblock both sides permanently.
    pub fn cancel(&self) {
        let mut st = self.state.lock().unwrap();
        st.cancelled = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Take the next batch, blocking while the channel is empty and open.
    pub fn recv(&self) -> Received {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((rows, bytes)) = st.queue.pop_front() {
                st.bytes_in_flight -= bytes;
                self.not_full.notify_one();
                return Received::Batch(rows);
            }
            if st.cancelled {
                return Received::Cancelled;
            }
            if st.closed {
                return Received::Done;
            }
            st.stats.recv_stalls += 1;
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// The stream's simulated arrival time (valid after `close`).
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

    fn batch(n: i64) -> Rows {
        Rows::from_rows(vec![vec![Value::Int64(n)]])
    }

    #[test]
    fn send_recv_close_roundtrip() {
        let ex = Exchange::new(2);
        assert!(ex.send(batch(1), 10));
        assert!(ex.send(batch(2), 20));
        ex.close(42.0);
        match ex.recv() {
            Received::Batch(b) => assert_eq!(b.into_rows().rows()[0][0], Value::Int64(1)),
            _ => panic!("expected batch"),
        }
        match ex.recv() {
            Received::Batch(b) => assert_eq!(b.into_rows().rows()[0][0], Value::Int64(2)),
            _ => panic!("expected batch"),
        }
        assert!(matches!(ex.recv(), Received::Done));
        assert_eq!(ex.arrival_ms(), 42.0);
        let st = ex.stats();
        assert_eq!(st.batches, 2);
        assert_eq!(st.bytes, 30);
        assert_eq!(st.max_queue_depth, 2);
        assert_eq!(st.peak_bytes_in_flight, 30);
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let ex = Exchange::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(ex.send(batch(1), 1));
                // Second send must wait for the consumer.
                assert!(ex.send(batch(2), 1));
                ex.close(0.0);
            });
            let mut got = 0;
            loop {
                match ex.recv() {
                    Received::Batch(_) => got += 1,
                    Received::Done => break,
                    Received::Cancelled => panic!("not cancelled"),
                }
            }
            assert_eq!(got, 2);
        });
        assert_eq!(ex.stats().max_queue_depth, 1);
    }

    #[test]
    fn cancel_unblocks_a_full_sender() {
        let ex = Exchange::new(1);
        // Fill the queue before the sender thread exists: a cancel that
        // won the race against its first send would refuse that one too.
        assert!(ex.send(batch(1), 1));
        std::thread::scope(|s| {
            // Blocks on the full queue until cancel.
            let h = s.spawn(|| ex.send(batch(2), 1));
            // Give the sender a chance to block, then tear down.
            std::thread::yield_now();
            ex.cancel();
            assert!(!h.join().unwrap());
        });
        // The queued batch is still drained; then the cancellation shows.
        assert!(matches!(ex.recv(), Received::Batch(_)));
        assert!(matches!(ex.recv(), Received::Cancelled));
    }

    #[test]
    fn columnar_payload_crosses_zero_copy() {
        let ex = Exchange::new(1);
        let b = Arc::new(ColumnarBatch::from_rows(&[vec![Value::Int64(7)]], 1));
        assert!(ex.send_payload(Payload::Columnar(Arc::clone(&b)), 9));
        ex.close(0.0);
        match ex.recv() {
            Received::Batch(Payload::Columnar(got)) => {
                // The consumer holds the producer's allocation, not a copy.
                assert!(Arc::ptr_eq(&got, &b));
            }
            _ => panic!("expected columnar batch"),
        }
        assert!(matches!(ex.recv(), Received::Done));
    }
}
