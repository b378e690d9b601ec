//! Link health scoring — the gray-failure detector behind hedging.
//!
//! Fail-stop faults surface as typed errors and trigger failover; *gray*
//! faults (a sustained slowdown, a loss burst) deliver every batch and
//! trip nothing. [`LinkHealth`] closes that gap: every transfer reports
//! its observed cost against the `α + β·b` model prediction, and the
//! table maintains, per link lane, an EWMA of that ratio. A lane whose
//! EWMA crosses [`HEDGE_RATIO`] races a hedged backup for its next batch.
//! A link that stops delivering altogether is not scored into anything
//! here: the failed transfer surfaces as a typed link failure and the
//! engine re-plans around the link.
//!
//! # Determinism
//!
//! Health state must be a pure function of the seeded fault grid and
//! the plan. Two mechanisms guarantee that:
//!
//! * observations are keyed by **lane** — the pre-order exchange-edge
//!   slot — so each lane's stream is produced by exactly one edge, in
//!   batch order;
//! * per lane, every batch attempt is one observation, grouped by its
//!   **logical step** (every batch of an edge shares its attempt's grid
//!   step) and kept in arrival order within a step. The EWMA is a fold
//!   over the observations in (step, arrival) order, and the runtime
//!   walks one edge's batches in order on one thread, so the fold is
//!   fixed by the seed.

use geoqp_common::Location;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Weight of the newest cost ratio in the EWMA.
pub const EWMA_ALPHA: f64 = 0.5;
/// Launch a hedged backup once the EWMA ratio reaches this.
pub const HEDGE_RATIO: f64 = 1.5;
/// The cost ratio a failed attempt folds into the EWMA, as a maximally
/// degraded delivery would.
pub const FAILED_RATIO: f64 = 2.5;

/// One transfer attempt's health evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Observation {
    /// Delivered, at `ratio ×` the modelled cost.
    Delivered { ratio: f64 },
    /// The attempt failed (drop, loss burst, crash window).
    Failed,
}

/// The folded health state of one link lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkState {
    /// EWMA of observed cost / predicted cost (1.0 = exactly on model).
    pub ewma_ratio: f64,
    /// Total observations folded.
    pub observations: u32,
}

impl Default for LinkState {
    fn default() -> LinkState {
        LinkState {
            ewma_ratio: 1.0,
            observations: 0,
        }
    }
}

/// One row of the health table snapshot (the shell's `\health` view).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// Source site.
    pub from: Location,
    /// Destination site.
    pub to: Location,
    /// Lane (pre-order exchange-edge slot).
    pub lane: u64,
    /// Folded state.
    pub state: LinkState,
}

/// A relay a hedged transfer took, for audit trails and property tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayEvent {
    /// Lane of the hedged edge.
    pub lane: u64,
    /// Original source site.
    pub from: Location,
    /// Original destination site.
    pub to: Location,
    /// The intermediate site the backup routed through.
    pub via: Location,
}

/// One lane of observations: a link direction on one exchange-edge slot.
type LaneKey = (Location, Location, u64);

/// A lane's deliveries and failures, grouped by fault-grid step, each
/// step's in arrival order.
type Stream = BTreeMap<u64, Vec<Observation>>;

/// The shared health table: per-(link, lane) observation streams, the
/// EWMA fold, and the hedge counters. Interior-mutable so one `&`
/// reference serves every fragment of a run.
#[derive(Debug, Default)]
pub struct LinkHealth {
    lanes: Mutex<BTreeMap<LaneKey, Stream>>,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    relays_used: AtomicU64,
    relay_events: Mutex<Vec<RelayEvent>>,
}

impl LinkHealth {
    /// An empty table.
    pub fn new() -> LinkHealth {
        LinkHealth::default()
    }

    /// Record a delivered transfer: `observed_ms` of actual cost against
    /// the model's `predicted_ms` for the same bytes.
    pub fn observe_delivery(
        &self,
        from: &Location,
        to: &Location,
        lane: u64,
        step: u64,
        predicted_ms: f64,
        observed_ms: f64,
    ) {
        let ratio = if predicted_ms > 0.0 {
            (observed_ms / predicted_ms).max(0.0)
        } else {
            1.0
        };
        self.insert(from, to, lane, step, Observation::Delivered { ratio });
    }

    /// Record a failed transfer attempt.
    pub fn observe_failure(&self, from: &Location, to: &Location, lane: u64, step: u64) {
        self.insert(from, to, lane, step, Observation::Failed);
    }

    fn insert(&self, from: &Location, to: &Location, lane: u64, step: u64, obs: Observation) {
        self.lanes
            .lock()
            .unwrap()
            .entry((from.clone(), to.clone(), lane))
            .or_default()
            .entry(step)
            .or_default()
            .push(obs);
    }

    /// The folded state of one link lane — a function of its
    /// observations in (step, arrival) order, independent of the order
    /// distinct steps were recorded in.
    pub fn state(&self, from: &Location, to: &Location, lane: u64) -> LinkState {
        let lanes = self.lanes.lock().unwrap();
        match lanes.get(&(from.clone(), to.clone(), lane)) {
            None => LinkState::default(),
            Some(stream) => fold(stream),
        }
    }

    /// Whether a transfer on this lane should launch a hedged backup:
    /// its EWMA cost ratio crossed the hedge threshold.
    pub fn should_hedge(&self, from: &Location, to: &Location, lane: u64) -> bool {
        self.state(from, to, lane).ewma_ratio >= HEDGE_RATIO
    }

    /// Count one hedge launch; `won` when the backup beat the primary,
    /// `relay` when the backup routed via an intermediate site.
    pub fn note_hedge(&self, won: bool, relay: Option<RelayEvent>) {
        self.hedges_launched.fetch_add(1, Ordering::SeqCst);
        if won {
            self.hedges_won.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(event) = relay {
            self.relays_used.fetch_add(1, Ordering::SeqCst);
            self.relay_events.lock().unwrap().push(event);
        }
    }

    /// Hedged backups launched.
    pub fn hedges_launched(&self) -> u64 {
        self.hedges_launched.load(Ordering::SeqCst)
    }

    /// Hedged backups that delivered before their primary.
    pub fn hedges_won(&self) -> u64 {
        self.hedges_won.load(Ordering::SeqCst)
    }

    /// Hedged backups that routed via an intermediate site.
    pub fn relays_used(&self) -> u64 {
        self.relays_used.load(Ordering::SeqCst)
    }

    /// Every relay taken, in canonical `(lane, from, to, via)` order —
    /// the runtime records relays in its fragment-walk order, and the
    /// list is sorted by lane the way `TransferLog` sorts its records,
    /// so it reads in edge order.
    pub fn relay_events(&self) -> Vec<RelayEvent> {
        let mut events = self.relay_events.lock().unwrap().clone();
        events.sort_by(|a, b| {
            (a.lane, &a.from, &a.to, &a.via).cmp(&(b.lane, &b.from, &b.to, &b.via))
        });
        events
    }

    /// The full table, one row per (link, lane), in canonical order —
    /// byte-identical across reruns of the same seeded schedule.
    pub fn snapshot(&self) -> Vec<LinkReport> {
        let lanes = self.lanes.lock().unwrap();
        lanes
            .iter()
            .map(|((from, to, lane), stream)| LinkReport {
                from: from.clone(),
                to: to.clone(),
                lane: *lane,
                state: fold(stream),
            })
            .collect()
    }
}

/// The EWMA fold: walk the lane's observations in (step, arrival) order.
fn fold(stream: &Stream) -> LinkState {
    let mut s = LinkState::default();
    for obs in stream.values().flatten() {
        s.observations += 1;
        let ratio = match obs {
            Observation::Delivered { ratio } => *ratio,
            // A failure is evidence of an unusable link: fold it into
            // the ratio as a maximally-degraded delivery would be.
            Observation::Failed => FAILED_RATIO,
        };
        s.ewma_ratio = EWMA_ALPHA * ratio + (1.0 - EWMA_ALPHA) * s.ewma_ratio;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    #[test]
    fn fresh_links_are_healthy_and_unhedged() {
        let h = LinkHealth::new();
        let s = h.state(&loc("L1"), &loc("L4"), 0);
        assert_eq!(s, LinkState::default());
        assert_eq!(s.ewma_ratio, 1.0);
        assert!(!h.should_hedge(&loc("L1"), &loc("L4"), 0));
    }

    #[test]
    fn sustained_degradation_hedges_its_own_lane() {
        let h = LinkHealth::new();
        let (a, b) = (loc("L1"), loc("L4"));
        h.observe_delivery(&a, &b, 0, 0, 100.0, 300.0); // 3x
        assert!(
            h.should_hedge(&a, &b, 0),
            "EWMA {} should cross the hedge threshold",
            h.state(&a, &b, 0).ewma_ratio
        );
        // Unrelated lanes and the reverse direction are untouched.
        assert!(!h.should_hedge(&b, &a, 0));
        assert!(!h.should_hedge(&a, &b, 1));
    }

    /// A failed attempt folds in as a delivery at [`FAILED_RATIO`]: one
    /// failure on a healthy lane (1 → 1.75) already hedges the next batch.
    #[test]
    fn a_failure_folds_as_a_maximally_degraded_delivery() {
        let h = LinkHealth::new();
        let (a, b) = (loc("L2"), loc("L3"));
        h.observe_failure(&a, &b, 0, 0);
        let s = h.state(&a, &b, 0);
        assert_eq!((s.observations, s.ewma_ratio), (1, 1.75));
        assert!(h.should_hedge(&a, &b, 0));
    }

    /// Observations at distinct steps fold in step order whatever order
    /// they were recorded in.
    #[test]
    fn fold_is_insertion_order_independent() {
        let obs: Vec<(u64, f64)> = (0..10u64).map(|s| (s, 1.0 + (s % 4) as f64)).collect();
        let forward = LinkHealth::new();
        let backward = LinkHealth::new();
        for &(step, ratio) in &obs {
            forward.observe_delivery(&loc("L1"), &loc("L4"), 3, step, 100.0, 100.0 * ratio);
        }
        for &(step, ratio) in obs.iter().rev() {
            backward.observe_delivery(&loc("L1"), &loc("L4"), 3, step, 100.0, 100.0 * ratio);
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
    }

    /// Every batch of a stream shares its attempt's grid step, and each
    /// is one observation: five deliveries at 1.2× fold to
    /// 1 → 1.1 → 1.15 → 1.175 → 1.1875 → 1.19375, not to the last alone.
    #[test]
    fn observations_at_one_step_all_fold_in_arrival_order() {
        let h = LinkHealth::new();
        let (a, b) = (loc("L1"), loc("L4"));
        for _ in 0..5 {
            h.observe_delivery(&a, &b, 0, 7, 100.0, 120.0);
        }
        let s = h.state(&a, &b, 0);
        assert_eq!(s.observations, 5);
        assert!((s.ewma_ratio - 1.19375).abs() < 1e-12, "{}", s.ewma_ratio);
        // Within a step the fold follows arrival: a failure then an
        // on-model delivery ends at 1.375, the reverse at 1.75.
        h.observe_failure(&a, &b, 1, 3);
        h.observe_delivery(&a, &b, 1, 3, 100.0, 100.0);
        h.observe_delivery(&a, &b, 2, 3, 100.0, 100.0);
        h.observe_failure(&a, &b, 2, 3);
        assert_eq!(h.state(&a, &b, 1).ewma_ratio, 1.375);
        assert_eq!(h.state(&a, &b, 2).ewma_ratio, 1.75);
    }

    #[test]
    fn hedge_counters_accumulate() {
        let h = LinkHealth::new();
        h.note_hedge(false, None);
        h.note_hedge(
            true,
            Some(RelayEvent {
                lane: 2,
                from: loc("L1"),
                to: loc("L4"),
                via: loc("L5"),
            }),
        );
        assert_eq!(h.hedges_launched(), 2);
        assert_eq!(h.hedges_won(), 1);
        assert_eq!(h.relays_used(), 1);
        assert_eq!(h.relay_events().len(), 1);
        assert_eq!(h.relay_events()[0].via, loc("L5"));
    }
}
