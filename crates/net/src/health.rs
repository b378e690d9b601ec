//! Link health scoring and per-link circuit breakers — the gray-failure
//! detector.
//!
//! Fail-stop faults surface as typed errors and trigger failover; *gray*
//! faults (a sustained slowdown, a loss burst) deliver every batch and
//! trip nothing. [`LinkHealth`] closes that gap: every transfer reports
//! its observed cost against the `α + β·b` model prediction, and the
//! table maintains, per link, an EWMA of that ratio plus a
//! consecutive-failure count. The derived per-link **circuit breaker**
//! walks the classic closed → open → half-open lifecycle; a breaker that
//! keeps re-opening past its budget condemns the link, which the engine
//! turns into a soft exclusion (re-running site selection with the
//! link's cost at ∞).
//!
//! # Determinism
//!
//! Breaker state must be a pure function of the seeded fault grid and
//! the plan. Two mechanisms guarantee that:
//!
//! * observations are keyed by **lane** — the pre-order exchange-edge
//!   slot — so each lane's stream is produced by exactly one edge, in
//!   batch order;
//! * per lane, every batch attempt is one observation, grouped by its
//!   **logical step** (every batch of an edge shares its attempt's grid
//!   step) and kept in arrival order within a step. Every derived
//!   quantity (EWMA, breaker state, trip count) is a fold over the
//!   observations in (step, arrival) order, and the runtime walks one
//!   edge's batches in order on one thread, so the fold is fixed by the
//!   seed.

use geoqp_common::Location;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tuning for the breakers; the scorer's thresholds are constants.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Logical steps an open breaker waits before probing (half-open).
    pub cooldown_steps: u64,
    /// Trips a lane's breaker may take before the link is condemned and
    /// reported to the re-planner as a soft exclusion.
    pub open_budget: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            cooldown_steps: 8,
            open_budget: 2,
        }
    }
}

impl HealthConfig {
    /// Weight of the newest cost ratio in the EWMA.
    pub const EWMA_ALPHA: f64 = 0.5;
    /// Launch a hedged backup once the EWMA ratio reaches this.
    pub const HEDGE_RATIO: f64 = 1.5;
    /// Trip the breaker once the EWMA ratio reaches this.
    pub const TRIP_RATIO: f64 = 2.5;
    /// Trip the breaker after this many consecutive failed attempts.
    pub const TRIP_FAILURES: u32 = 3;
    /// Observations required before ratio-based decisions fire.
    pub const MIN_OBSERVATIONS: u32 = 1;
}

/// Circuit-breaker lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerState {
    /// Healthy: transfers flow normally.
    Closed,
    /// Tripped: the link is sick; transfers hedge, and past the open
    /// budget the link is condemned.
    Open,
    /// Cooldown elapsed: the next transfer is a probe.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

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
    /// Consecutive failed attempts at the end of the sequence.
    pub consecutive_failures: u32,
    /// Breaker lifecycle state after the fold.
    pub breaker: BreakerState,
    /// Closed → open transitions taken.
    pub trips: u32,
    /// Step of the last observation folded.
    pub last_step: u64,
}

impl Default for LinkState {
    fn default() -> LinkState {
        LinkState {
            ewma_ratio: 1.0,
            observations: 0,
            consecutive_failures: 0,
            breaker: BreakerState::Closed,
            trips: 0,
            last_step: 0,
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
/// breaker fold, and the hedge counters. Interior-mutable so one `&`
/// reference serves every fragment of a run.
#[derive(Debug)]
pub struct LinkHealth {
    config: HealthConfig,
    lanes: Mutex<BTreeMap<LaneKey, Stream>>,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    relays_used: AtomicU64,
    relay_events: Mutex<Vec<RelayEvent>>,
    /// Links whose condemnation was waived: the re-planner found no
    /// compliant placement avoiding them, so the engine rides the gray
    /// link (still hedging) rather than rejecting a completing query.
    waived: Mutex<std::collections::BTreeSet<(Location, Location)>>,
}

impl LinkHealth {
    /// An empty table under `config`.
    pub fn new(config: HealthConfig) -> LinkHealth {
        LinkHealth {
            config,
            lanes: Mutex::new(BTreeMap::new()),
            hedges_launched: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            relays_used: AtomicU64::new(0),
            relay_events: Mutex::new(Vec::new()),
            waived: Mutex::new(std::collections::BTreeSet::new()),
        }
    }

    /// The table's tuning.
    pub fn config(&self) -> &HealthConfig {
        &self.config
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
            Some(stream) => fold(&self.config, stream),
        }
    }

    /// Whether a transfer on this lane should launch a hedged backup:
    /// the EWMA crossed the hedge threshold, or the breaker already left
    /// the closed state.
    pub fn should_hedge(&self, from: &Location, to: &Location, lane: u64) -> bool {
        let s = self.state(from, to, lane);
        s.breaker != BreakerState::Closed
            || (s.observations >= HealthConfig::MIN_OBSERVATIONS
                && s.ewma_ratio >= HealthConfig::HEDGE_RATIO)
    }

    /// Whether this lane's breaker has re-opened past its budget — the
    /// condemnation the engine converts into a soft link exclusion. A
    /// waived link never condemns: gray is not dead, and when no
    /// compliant placement avoids the link, riding it (still hedging)
    /// beats rejecting a query that was completing.
    pub fn breaker_exhausted(&self, from: &Location, to: &Location, lane: u64) -> bool {
        if self
            .waived
            .lock()
            .unwrap()
            .contains(&(from.clone(), to.clone()))
        {
            return false;
        }
        let s = self.state(from, to, lane);
        s.breaker == BreakerState::Open && s.trips >= self.config.open_budget
    }

    /// Waive a link's condemnation: its breakers keep scoring and
    /// hedging, but [`Self::breaker_exhausted`] no longer fires for it.
    /// The engine waives a link when Algorithm 2 finds no compliant
    /// placement that avoids it.
    pub fn waive(&self, from: &Location, to: &Location) {
        self.waived
            .lock()
            .unwrap()
            .insert((from.clone(), to.clone()));
    }

    /// Links whose condemnation has been waived, in canonical order.
    pub fn waived_links(&self) -> Vec<(Location, Location)> {
        self.waived.lock().unwrap().iter().cloned().collect()
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

    /// Total closed → open transitions across every lane.
    pub fn breaker_trips(&self) -> u64 {
        let lanes = self.lanes.lock().unwrap();
        lanes
            .values()
            .map(|stream| fold(&self.config, stream).trips as u64)
            .sum()
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
                state: fold(&self.config, stream),
            })
            .collect()
    }
}

/// The breaker fold: walk the lane's observations in (step, arrival)
/// order, updating the EWMA/failure counters and the lifecycle state
/// machine.
fn fold(config: &HealthConfig, stream: &Stream) -> LinkState {
    let mut s = LinkState::default();
    let mut opened_at = 0u64;
    let observations = stream
        .iter()
        .flat_map(|(&step, batch)| batch.iter().map(move |obs| (step, obs)));
    for (step, obs) in observations {
        s.last_step = step;
        s.observations += 1;
        // An open breaker whose cooldown elapsed probes on this attempt.
        if s.breaker == BreakerState::Open && step >= opened_at + config.cooldown_steps {
            s.breaker = BreakerState::HalfOpen;
        }
        match obs {
            Observation::Delivered { ratio } => {
                s.consecutive_failures = 0;
                s.ewma_ratio = HealthConfig::EWMA_ALPHA * ratio
                    + (1.0 - HealthConfig::EWMA_ALPHA) * s.ewma_ratio;
            }
            Observation::Failed => {
                s.consecutive_failures += 1;
                // A failure is evidence of an unusable link: fold it into
                // the ratio as a maximally-degraded delivery would be.
                s.ewma_ratio = HealthConfig::EWMA_ALPHA * HealthConfig::TRIP_RATIO
                    + (1.0 - HealthConfig::EWMA_ALPHA) * s.ewma_ratio;
            }
        }
        match s.breaker {
            BreakerState::Closed => {
                let sick_ratio = s.observations >= HealthConfig::MIN_OBSERVATIONS
                    && s.ewma_ratio >= HealthConfig::TRIP_RATIO;
                if s.consecutive_failures >= HealthConfig::TRIP_FAILURES || sick_ratio {
                    s.breaker = BreakerState::Open;
                    s.trips += 1;
                    opened_at = step;
                }
            }
            BreakerState::HalfOpen => {
                // The probe decides: a healthy delivery closes the
                // breaker, anything else re-opens it.
                let healthy = matches!(obs, Observation::Delivered { ratio }
                    if *ratio < HealthConfig::HEDGE_RATIO);
                if healthy {
                    s.breaker = BreakerState::Closed;
                    s.consecutive_failures = 0;
                } else {
                    s.breaker = BreakerState::Open;
                    s.trips += 1;
                    opened_at = step;
                }
            }
            BreakerState::Open => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    #[test]
    fn fresh_links_are_healthy_and_unhedged() {
        let h = LinkHealth::new(cfg());
        let s = h.state(&loc("L1"), &loc("L4"), 0);
        assert_eq!(s.breaker, BreakerState::Closed);
        assert_eq!(s.ewma_ratio, 1.0);
        assert!(!h.should_hedge(&loc("L1"), &loc("L4"), 0));
        assert!(!h.breaker_exhausted(&loc("L1"), &loc("L4"), 0));
    }

    #[test]
    fn sustained_degradation_hedges_then_trips_the_breaker() {
        let h = LinkHealth::new(cfg());
        let (a, b) = (loc("L1"), loc("L4"));
        h.observe_delivery(&a, &b, 0, 0, 100.0, 300.0); // 3x
        assert!(
            h.should_hedge(&a, &b, 0),
            "EWMA {} should cross the hedge threshold",
            h.state(&a, &b, 0).ewma_ratio
        );
        h.observe_delivery(&a, &b, 0, 1, 100.0, 300.0);
        h.observe_delivery(&a, &b, 0, 2, 100.0, 300.0);
        let s = h.state(&a, &b, 0);
        assert_eq!(s.breaker, BreakerState::Open, "ewma = {}", s.ewma_ratio);
        assert_eq!(s.trips, 1);
        // Unrelated lanes and the reverse direction are untouched.
        assert_eq!(h.state(&b, &a, 0).breaker, BreakerState::Closed);
        assert_eq!(h.state(&a, &b, 1).breaker, BreakerState::Closed);
    }

    #[test]
    fn consecutive_failures_trip_without_any_delivery() {
        let h = LinkHealth::new(cfg());
        let (a, b) = (loc("L2"), loc("L3"));
        for step in 0..3 {
            h.observe_failure(&a, &b, 0, step);
        }
        assert_eq!(h.state(&a, &b, 0).breaker, BreakerState::Open);
    }

    #[test]
    fn breaker_walks_open_half_open_closed_on_recovery() {
        let h = LinkHealth::new(cfg());
        let (a, b) = (loc("L1"), loc("L4"));
        for step in 0..3 {
            h.observe_failure(&a, &b, 0, step);
        }
        assert_eq!(h.state(&a, &b, 0).breaker, BreakerState::Open);
        // Before the cooldown elapses, evidence keeps the breaker open.
        h.observe_delivery(&a, &b, 0, 5, 100.0, 100.0);
        assert_eq!(h.state(&a, &b, 0).breaker, BreakerState::Open);
        // Past the cooldown a healthy probe closes it again.
        h.observe_delivery(&a, &b, 0, 2 + cfg().cooldown_steps, 100.0, 100.0);
        let s = h.state(&a, &b, 0);
        assert_eq!(s.breaker, BreakerState::Closed);
        assert_eq!(s.trips, 1);
    }

    #[test]
    fn failed_probe_reopens_until_the_budget_condemns_the_link() {
        let h = LinkHealth::new(cfg());
        let (a, b) = (loc("L1"), loc("L4"));
        let mut step = 0;
        for _ in 0..3 {
            h.observe_failure(&a, &b, 0, step);
            step += 1;
        }
        // Probe past cooldown fails -> reopen (trip 2 >= open_budget).
        step += cfg().cooldown_steps;
        h.observe_failure(&a, &b, 0, step);
        let s = h.state(&a, &b, 0);
        assert_eq!(s.breaker, BreakerState::Open);
        assert_eq!(s.trips, 2);
        assert!(h.breaker_exhausted(&a, &b, 0));
    }

    /// Observations at distinct steps fold in step order whatever order
    /// they were recorded in.
    #[test]
    fn fold_is_insertion_order_independent() {
        let obs: Vec<(u64, f64)> = (0..10u64).map(|s| (s, 1.0 + (s % 4) as f64)).collect();
        let forward = LinkHealth::new(cfg());
        let backward = LinkHealth::new(cfg());
        for &(step, ratio) in &obs {
            forward.observe_delivery(&loc("L1"), &loc("L4"), 3, step, 100.0, 100.0 * ratio);
        }
        for &(step, ratio) in obs.iter().rev() {
            backward.observe_delivery(&loc("L1"), &loc("L4"), 3, step, 100.0, 100.0 * ratio);
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
        assert_eq!(forward.breaker_trips(), backward.breaker_trips());
    }

    /// Every batch of a stream shares its attempt's grid step, and each
    /// is one observation: five deliveries at 1.2× fold to
    /// 1 → 1.1 → 1.15 → 1.175 → 1.1875 → 1.19375, not to the last alone.
    #[test]
    fn observations_at_one_step_all_fold_in_arrival_order() {
        let h = LinkHealth::new(cfg());
        let (a, b) = (loc("L1"), loc("L4"));
        for _ in 0..5 {
            h.observe_delivery(&a, &b, 0, 7, 100.0, 120.0);
        }
        let s = h.state(&a, &b, 0);
        assert_eq!((s.observations, s.last_step), (5, 7));
        assert!((s.ewma_ratio - 1.19375).abs() < 1e-12, "{}", s.ewma_ratio);
        // Within a step the fold follows arrival: a failure then a
        // delivery ends on zero consecutive failures, the reverse on one.
        h.observe_failure(&a, &b, 1, 3);
        h.observe_delivery(&a, &b, 1, 3, 100.0, 100.0);
        h.observe_delivery(&a, &b, 2, 3, 100.0, 100.0);
        h.observe_failure(&a, &b, 2, 3);
        assert_eq!(h.state(&a, &b, 1).consecutive_failures, 0);
        assert_eq!(h.state(&a, &b, 2).consecutive_failures, 1);
    }

    #[test]
    fn hedge_counters_accumulate() {
        let h = LinkHealth::new(cfg());
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
