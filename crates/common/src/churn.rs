//! Live policy-churn plumbing shared by the catalog service, the engine,
//! and the runtime.
//!
//! The versioned policy-catalog log lives in `geoqp-policy`; what the
//! *runtime* needs from it is deliberately tiny and dependency-free, so it
//! lives here. A catalog snapshot is named by its log **sequence number**,
//! a plain `u64` (0 = the base catalog): sequences are monotone, so "newer
//! than the pin" is a comparison.
//!
//! * [`ChurnSignal`] — how revocations reach in-flight queries: a set of
//!   pre-planned, step-triggered events (deterministic replay for the
//!   bench and chaos harnesses) plus a live published head (the server's
//!   `update_tenant_policies` path). Only a revocation aborts a query;
//!   the head it re-pins to holds every entry, of either kind, that the
//!   query could see at the abort.
//! * [`ChurnWatch`] — one attempt's pin and signal together.

use std::sync::atomic::{AtomicU64, Ordering};

/// One pre-planned churn event: at executor step `step`, log entry
/// `seq` becomes visible to in-flight queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Executor step (the runtime's deterministic per-batch clock) at
    /// which the entry lands.
    pub step: u64,
    /// Log sequence number of the entry.
    pub seq: u64,
    /// Whether the entry revokes a policy. Only revocations abort
    /// in-flight queries; grants wait for the next admission.
    pub revocation: bool,
}

/// The channel through which catalog changes reach in-flight queries.
///
/// Two sources feed it: *planned* events with deterministic trigger
/// steps (seeded experiments replay identically), and a *live* head
/// published by the service on every append. Executors poll
/// [`ChurnSignal::revoked_since`] at batch granularity; a hit aborts the
/// attempt with [`GeoError::PolicyChurn`] so the failover loop can re-pin.
///
/// [`GeoError::PolicyChurn`]: crate::GeoError::PolicyChurn
#[derive(Debug, Default)]
pub struct ChurnSignal {
    planned: Vec<ChurnEvent>,
    live_seq: AtomicU64,
    live_revocation: AtomicU64,
}

impl ChurnSignal {
    /// A signal with no planned events and no published head.
    pub fn new() -> ChurnSignal {
        ChurnSignal::default()
    }

    /// A signal carrying pre-planned, step-triggered events (sorted by
    /// trigger step internally; ties resolve by sequence).
    pub fn with_planned(mut events: Vec<ChurnEvent>) -> ChurnSignal {
        events.sort_by_key(|e| (e.step, e.seq));
        ChurnSignal {
            planned: events,
            ..ChurnSignal::default()
        }
    }

    /// Publish a new live head (the server path). `revocation` marks
    /// whether the entry revokes a policy; only those interrupt
    /// in-flight queries.
    pub fn publish(&self, seq: u64, revocation: bool) {
        // Publishers may race, so a revocation published after a newer
        // grant must still be recorded: each head only ever moves up.
        self.live_seq.fetch_max(seq, Ordering::AcqRel);
        if revocation {
            self.live_revocation.fetch_max(seq, Ordering::AcqRel);
        }
    }

    /// The catalog head a query pinned at `pin_seq` re-pins to when a
    /// revocation newer than its pin is visible at executor step `step`;
    /// `None` when no such revocation is (a grant alone never aborts).
    ///
    /// The head is everything the query can see at that step: the newest
    /// planned entry of either kind released by `step`, or the live head
    /// when that is newer. Live entries really happened, so they are
    /// always visible; a planned entry released after `step` is not.
    pub fn revoked_since(&self, pin_seq: u64, step: u64) -> Option<u64> {
        let released = (self.planned.iter()).filter(|e| e.step <= step && e.seq > pin_seq);
        let revoked = self.live_revocation.load(Ordering::Acquire) > pin_seq
            || released.clone().any(|e| e.revocation);
        revoked.then(|| {
            let planned = released.map(|e| e.seq).max().unwrap_or(0);
            planned.max(self.live_seq.load(Ordering::Acquire))
        })
    }
}

/// Everything an executor needs to enforce live churn on one attempt:
/// the pin the query was admitted under and the signal revocations
/// arrive on. Built by the catalog service, re-built by the failover
/// loop after each churn-driven re-pin.
#[derive(Debug, Clone)]
pub struct ChurnWatch {
    /// The catalog sequence this attempt executes under.
    pub pin: u64,
    /// Where revocations land (planned events and/or live publishes).
    pub signal: std::sync::Arc<ChurnSignal>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_revocations_trigger_by_step_and_seq() {
        let sig = ChurnSignal::with_planned(vec![
            ChurnEvent {
                step: 4,
                seq: 2,
                revocation: true,
            },
            ChurnEvent {
                step: 9,
                seq: 3,
                revocation: true,
            },
            ChurnEvent {
                step: 1,
                seq: 1,
                revocation: false, // a grant: never aborts anything
            },
        ]);
        assert_eq!(sig.revoked_since(0, 3), None);
        assert_eq!(sig.revoked_since(0, 4), Some(2));
        // A burst: the newest visible revocation wins.
        assert_eq!(sig.revoked_since(0, 100), Some(3));
        // A pin that already saw seq 3 is undisturbed.
        assert_eq!(sig.revoked_since(3, 100), None);
    }

    #[test]
    fn live_publish_reaches_pinned_queries() {
        let sig = ChurnSignal::new();
        sig.publish(5, false); // grants don't interrupt
        assert_eq!(sig.revoked_since(0, 0), None);
        sig.publish(6, true);
        assert_eq!(sig.revoked_since(5, 0), Some(6));
        assert_eq!(sig.revoked_since(6, 0), None);
        // A publish older than the head moves nothing.
        sig.publish(2, true);
        assert_eq!(sig.revoked_since(5, 0), Some(6));
    }

    /// Concurrent grant and revoke calls may publish out of order: a
    /// revocation published after a newer grant still reaches pins older
    /// than it.
    #[test]
    fn a_revocation_published_after_a_newer_grant_is_kept() {
        let sig = ChurnSignal::new();
        sig.publish(6, false);
        sig.publish(5, true);
        assert_eq!(sig.revoked_since(4, 0), Some(6), "re-pin to the full head");
        assert_eq!(sig.revoked_since(5, 0), None);
    }

    /// The head a revocation re-pins to is what the query can see at the
    /// abort step: `(pin, step) → head`.
    #[test]
    fn a_revocation_repins_to_the_head_visible_at_the_abort_step() {
        // Revocation at seq 1 from step 2, grant at seq 2 from step 4.
        let planned = ChurnSignal::with_planned(vec![
            ChurnEvent {
                step: 2,
                seq: 1,
                revocation: true,
            },
            ChurnEvent {
                step: 4,
                seq: 2,
                revocation: false,
            },
        ]);
        // A grant alone never aborts: revoke at seq 1, grant at seq 2,
        // both released at step 0; a pin that saw the revocation is
        // untouched by the grant.
        let grant_first = ChurnSignal::with_planned(vec![
            ChurnEvent {
                step: 0,
                seq: 1,
                revocation: true,
            },
            ChurnEvent {
                step: 0,
                seq: 2,
                revocation: false,
            },
        ]);
        // Live: a revocation at 5 and then a grant at 7.
        let live = ChurnSignal::new();
        live.publish(5, true);
        live.publish(7, false);
        let cases: [(&str, &ChurnSignal, u64, u64, Option<u64>); 9] = [
            ("nothing released yet", &planned, 0, 1, None),
            ("the revocation alone", &planned, 0, 3, Some(1)),
            (
                "a grant released by the abort step is inside",
                &planned,
                0,
                4,
                Some(2),
            ),
            (
                "a grant released after the abort step is not",
                &planned,
                0,
                2,
                Some(1),
            ),
            ("a grant alone never aborts", &planned, 1, 100, None),
            ("both released together", &grant_first, 0, 0, Some(2)),
            (
                "a grant alone never aborts (same step)",
                &grant_first,
                1,
                0,
                None,
            ),
            ("a live head is returned whole", &live, 4, 0, Some(7)),
            ("a live grant alone never aborts", &live, 5, 0, None),
        ];
        for (what, sig, pin, step, head) in cases {
            assert_eq!(sig.revoked_since(pin, step), head, "{what}");
        }
    }
}
