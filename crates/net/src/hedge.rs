//! Compliant hedged transfers: the backup-request defense against gray
//! links.
//!
//! When a link's health crosses the hedge threshold, the transfer
//! launches a **backup** after a short delay — either a duplicate on the
//! same link (drawn on independent fault coins, so a loss burst that ate
//! the primary may spare the copy) or a **one-hop relay** through an
//! intermediate site. First delivery wins; the loser is cancelled via
//! the ordinary [`CancelToken`]; every transmitted leg is cost-charged.
//!
//! The compliance rule is absolute: a relay site is only eligible if it
//! is in the producing subtree's shipping trait `𝒮ₙ` — the set of sites
//! the subtree's output may legally visit (Definition 1, c2). An illegal
//! relay is a typed [`GeoError::NonCompliant`] refusal, never a silent
//! fallback: hedging must not widen the placement space the optimizer
//! proved compliant.
//!
//! # Determinism
//!
//! Backup legs take no step of their own. They consult the fault plan at
//! the primary's own base step — so windowed faults
//! (degrade, crash, partition) apply to the backup exactly as to the
//! primary — but draw probabilistic flips from per-leg salted coins, and
//! record under designed step numbers disjoint from the primary grid
//! ([`hedge_step`]). Identically-seeded runs therefore produce identical
//! hedge outcomes, and turning hedging *on* never perturbs the primary
//! fault sequence: hedged and unhedged runs see the same primary
//! verdicts.

use crate::fault::{FaultPlan, FaultVerdict};
use crate::health::HealthConfig;
use geoqp_common::{CancelToken, GeoError, Location, LocationSet, Result};

/// Base of the designed step space backup legs record under: far above
/// any step the primary grid can reach, so hedge records never collide
/// with primary records.
pub const HEDGE_STEP_BASE: u64 = 1 << 48;

/// Salt selecting the hedge coins (independent of flaky/loss coins).
const HEDGE_SALT: u64 = 0x6865_6467_6562_6B75; // "hedgebku"

/// The step a backup leg records under: disjoint per `(base_step, leg)`.
pub fn hedge_step(base_step: u64, leg: u64) -> u64 {
    HEDGE_STEP_BASE + base_step.wrapping_mul(4) + leg
}

/// Whether a delivered backup genuinely beat the primary: strictly
/// faster by more than float rounding. The two arrivals are computed by
/// different arithmetic (`base + surcharge` vs `factor × model`), so an
/// equal-cost duplicate can differ from its primary by an ulp — a "win"
/// within that noise is a tie, not a win.
pub fn backup_beats(backup_arrival_ms: f64, primary_arrival_ms: f64) -> bool {
    backup_arrival_ms < primary_arrival_ms * (1.0 - 1e-9)
}

fn leg_salt(leg: u64) -> u64 {
    HEDGE_SALT ^ leg.wrapping_mul(0x9E37_79B9)
}

/// Tuning for hedged transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeConfig {
    /// Simulated ms the backup waits before launching — long enough that
    /// a healthy primary wins outright, short enough to beat a gray one.
    pub delay_ms: f64,
    /// Health scoring and breaker thresholds.
    pub health: HealthConfig,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            delay_ms: 5.0,
            health: HealthConfig::default(),
        }
    }
}

/// One transmitted backup leg, for cost-charging to the transfer log.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeLeg {
    /// Leg source.
    pub from: Location,
    /// Leg destination.
    pub to: Location,
    /// Wire cost of the leg (model × degrade + injected delay), ms.
    pub cost_ms: f64,
    /// Designed step the leg records under.
    pub step: u64,
    /// Whether the leg arrived (a dropped leg still burned its bytes).
    pub delivered: bool,
}

/// The outcome of one backup attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeRun {
    /// When the backup delivered, its arrival relative to the primary's
    /// transfer start (hedge delay included); `None` when it was dropped
    /// or cancelled before completing.
    pub backup_arrival_ms: Option<f64>,
    /// Every leg that actually transmitted, in order.
    pub legs: Vec<HedgeLeg>,
    /// The relay site used, if the backup routed via one.
    pub relay: Option<Location>,
    /// True when the relay's second hop was cancelled because the
    /// primary had already won the race.
    pub relay_leg_cancelled: bool,
}

/// Decide the backup route for a hedged `from → to` transfer under a
/// caller-supplied leg cost model: the cheapest intermediate in `legal`
/// whose two-hop cost beats `degraded_direct_ms`, or `None` for a
/// delayed duplicate on the same link. Only sites in the producing
/// subtree's `𝒮ₙ` are ever considered, so the plan is compliant by
/// construction; [`run_hedge`] re-checks anyway.
///
/// The cost model is the caller's because amortization is the caller's:
/// the streaming runtime pays a link's header once per stream and
/// therefore compares **marginal** (β-only) leg costs — a relay route's
/// headers are a one-time investment amortized over the remaining
/// batches of the stream. The degraded direct estimate is the observed
/// cost ratio × the direct link's price.
pub fn plan_hedge_with<F>(
    model: F,
    from: &Location,
    to: &Location,
    legal: &LocationSet,
    degraded_direct_ms: f64,
) -> Option<Location>
where
    F: Fn(&Location, &Location) -> f64,
{
    let mut best: Option<(f64, &Location)> = None;
    for site in legal {
        if site == from || site == to {
            continue;
        }
        let two_hop = model(from, site) + model(site, to);
        if two_hop < degraded_direct_ms && best.is_none_or(|(c, _)| two_hop < c) {
            best = Some((two_hop, site));
        }
    }
    best.map(|(_, s)| s.clone())
}

/// Run the backup side of a hedge race, deterministically.
///
/// `model` prices one leg's fault-free wire time; faults scale or drop
/// on top of it. A streaming caller (the runtime) charges a leg's `α`
/// header only the first time that route opens.
///
/// `coin` selects an independent family of probabilistic-fault flips
/// for this race: a caller streaming many batches over one step slot
/// (the runtime) passes a per-batch coin so each batch's backup draws
/// its own flaky/loss flips instead of replaying the first batch's; a
/// single transfer passes `0`.
///
/// `primary_arrival_ms` is the primary's own delivery time relative to
/// transfer start (`None` when the primary failed outright): when a
/// relay's first hop lands *after* the primary already delivered, the
/// winner fires the [`CancelToken`] and the second hop never transmits —
/// only the first hop's bytes are charged.
///
/// Returns a typed [`GeoError::NonCompliant`] when `via` is outside
/// `legal` — an illegal relay must refuse, not silently fall back.
#[allow(clippy::too_many_arguments)]
pub fn run_hedge<F>(
    model: F,
    faults: Option<&FaultPlan>,
    config: &HedgeConfig,
    from: &Location,
    to: &Location,
    via: Option<&Location>,
    legal: &LocationSet,
    base_step: u64,
    coin: u64,
    primary_arrival_ms: Option<f64>,
) -> Result<HedgeRun>
where
    F: Fn(&Location, &Location) -> f64,
{
    let attempt = |leg_from: &Location, leg_to: &Location, leg: u64| -> HedgeLeg {
        let model = model(leg_from, leg_to);
        let verdict = match faults {
            None => FaultVerdict::Deliver {
                extra_delay_ms: 0.0,
            },
            // Windows are judged at the primary's base step; flips come
            // from the per-leg hedge coin, on the caller's batch coin.
            Some(f) => f.check_transfer_salted(leg_from, leg_to, base_step, leg_salt(leg) ^ coin),
        };
        let (cost_ms, delivered) = match verdict {
            FaultVerdict::Deliver { extra_delay_ms } => (model + extra_delay_ms, true),
            FaultVerdict::Degraded {
                factor,
                extra_delay_ms,
            } => (factor * model + extra_delay_ms, true),
            // The bytes went onto the wire and were lost: charge them.
            FaultVerdict::Drop { .. } => (model, false),
        };
        HedgeLeg {
            from: leg_from.clone(),
            to: leg_to.clone(),
            cost_ms,
            step: hedge_step(base_step, leg),
            delivered,
        }
    };
    let launch = config.delay_ms.max(0.0);
    match via {
        None => {
            // Delayed duplicate on the same link, single attempt.
            let leg = attempt(from, to, 0);
            let arrival = leg.delivered.then_some(launch + leg.cost_ms);
            Ok(HedgeRun {
                backup_arrival_ms: arrival,
                legs: vec![leg],
                relay: None,
                relay_leg_cancelled: false,
            })
        }
        Some(relay) => {
            if !legal.contains(relay) {
                return Err(GeoError::NonCompliant(format!(
                    "hedged relay for {from} -> {to} routes via {relay}, which is \
                     outside the producing subtree's shipping trait {legal}"
                )));
            }
            let first = attempt(from, relay, 1);
            if !first.delivered {
                return Ok(HedgeRun {
                    backup_arrival_ms: None,
                    legs: vec![first],
                    relay: Some(relay.clone()),
                    relay_leg_cancelled: false,
                });
            }
            let first_arrival = launch + first.cost_ms;
            // First delivery wins: if the primary landed before the relay
            // even finished its first hop, the race is over — the winner
            // fires the cancel token and the second hop never transmits.
            let loser = CancelToken::new();
            if primary_arrival_ms.is_some_and(|p| p <= first_arrival) {
                loser.cancel();
            }
            if loser.is_cancelled() {
                return Ok(HedgeRun {
                    backup_arrival_ms: None,
                    legs: vec![first],
                    relay: Some(relay.clone()),
                    relay_leg_cancelled: true,
                });
            }
            let second = attempt(relay, to, 2);
            let arrival = second.delivered.then_some(first_arrival + second.cost_ms);
            Ok(HedgeRun {
                backup_arrival_ms: arrival,
                legs: vec![first, second],
                relay: Some(relay.clone()),
                relay_leg_cancelled: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StepWindow;
    use crate::topology::NetworkTopology;

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    fn wan() -> NetworkTopology {
        NetworkTopology::paper_wan()
    }

    #[test]
    fn plan_hedge_only_considers_legal_intermediates() {
        let t = wan();
        // L1–L4 is the WAN's best link: no healthy two-hop detour beats
        // it, so a healthy ratio plans no relay...
        let (from, to) = (loc("L1"), loc("L4"));
        let all = LocationSet::from_iter(["L1", "L2", "L3", "L4", "L5"]);
        // Full `α + β·b` pricing of a monolithic 1 MB transfer, against
        // the direct link degraded by `ratio`.
        let plan_hedge = |legal: &LocationSet, ratio: f64| {
            plan_hedge_with(
                |a, b| t.ship_cost_ms(a, b, 1_000_000.0),
                &from,
                &to,
                legal,
                t.ship_cost_ms(&from, &to, 1_000_000.0) * ratio,
            )
        };
        assert_eq!(plan_hedge(&all, 1.0), None);
        // ...under a 4x slowdown a relay wins when the whole WAN is legal...
        let relay = plan_hedge(&all, 4.0);
        assert!(relay.is_some());
        let r = relay.unwrap();
        assert!(all.contains(&r));
        assert!(r != from && r != to);
        // ...but with 𝒮ₙ restricted to the endpoints, no relay exists.
        let endpoints = LocationSet::from_iter(["L1", "L4"]);
        assert_eq!(plan_hedge(&endpoints, 4.0), None);
    }

    #[test]
    fn illegal_relay_is_a_typed_non_compliant_refusal() {
        let t = wan();
        let legal = LocationSet::from_iter(["L2", "L3"]);
        let err = run_hedge(
            |a, b| t.ship_cost_ms(a, b, 1000.0),
            None,
            &HedgeConfig::default(),
            &loc("L2"),
            &loc("L3"),
            Some(&loc("L5")),
            &legal,
            0,
            0,
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "non-compliant");
        assert!(
            err.to_string().contains("L5"),
            "refusal names the relay: {err}"
        );
    }

    #[test]
    fn duplicate_on_a_degraded_link_is_degraded_too() {
        let t = wan();
        let faults = FaultPlan::new(9).with_degrade("L1", "L4", 3.0, StepWindow::ALWAYS);
        let cfg = HedgeConfig::default();
        let run = run_hedge(
            |a, b| t.ship_cost_ms(a, b, 10_000.0),
            Some(&faults),
            &cfg,
            &loc("L1"),
            &loc("L4"),
            None,
            &LocationSet::from_iter(["L1", "L4"]),
            5,
            0,
            Some(1e9),
        )
        .unwrap();
        let model = t.ship_cost_ms(&loc("L1"), &loc("L4"), 10_000.0);
        assert_eq!(run.backup_arrival_ms, Some(cfg.delay_ms + 3.0 * model));
        assert_eq!(run.legs.len(), 1);
        assert!(run.legs[0].step >= HEDGE_STEP_BASE);
    }

    #[test]
    fn relay_second_hop_is_cancelled_when_the_primary_already_won() {
        let t = wan();
        let legal = LocationSet::from_iter(["L1", "L4", "L5"]);
        let run = run_hedge(
            |a, b| t.ship_cost_ms(a, b, 10_000.0),
            None,
            &HedgeConfig::default(),
            &loc("L1"),
            &loc("L4"),
            Some(&loc("L5")),
            &legal,
            0,
            0,
            Some(0.1), // primary effectively instant
        )
        .unwrap();
        assert!(run.relay_leg_cancelled);
        assert_eq!(run.backup_arrival_ms, None);
        // Only the first hop's bytes were charged.
        assert_eq!(run.legs.len(), 1);
        assert_eq!(run.legs[0].to, loc("L5"));
    }

    #[test]
    fn relay_runs_both_hops_when_the_primary_is_slow() {
        let t = wan();
        let legal = LocationSet::from_iter(["L1", "L4", "L5"]);
        let run = run_hedge(
            |a, b| t.ship_cost_ms(a, b, 10_000.0),
            None,
            &HedgeConfig::default(),
            &loc("L1"),
            &loc("L4"),
            Some(&loc("L5")),
            &legal,
            0,
            0,
            Some(1e9),
        )
        .unwrap();
        assert!(!run.relay_leg_cancelled);
        assert_eq!(run.legs.len(), 2);
        let expect = HedgeConfig::default().delay_ms
            + t.ship_cost_ms(&loc("L1"), &loc("L5"), 10_000.0)
            + t.ship_cost_ms(&loc("L5"), &loc("L4"), 10_000.0);
        assert_eq!(run.backup_arrival_ms, Some(expect));
    }

    #[test]
    fn hedge_outcomes_are_deterministic() {
        let t = wan();
        let faults = FaultPlan::new(77).with_loss_burst("L1", "L4", 0.5, StepWindow::ALWAYS);
        let legal = LocationSet::from_iter(["L1", "L4"]);
        let a = run_hedge(
            |x, y| t.ship_cost_ms(x, y, 1000.0),
            Some(&faults),
            &HedgeConfig::default(),
            &loc("L1"),
            &loc("L4"),
            None,
            &legal,
            3,
            0,
            None,
        )
        .unwrap();
        let b = run_hedge(
            |x, y| t.ship_cost_ms(x, y, 1000.0),
            Some(&faults),
            &HedgeConfig::default(),
            &loc("L1"),
            &loc("L4"),
            None,
            &legal,
            3,
            0,
            None,
        )
        .unwrap();
        assert_eq!(a, b);
        // The backup coin is independent of the primary's: across many
        // base steps both survive-and-drop outcomes occur.
        let outcomes: Vec<bool> = (0..200)
            .map(|s| {
                run_hedge(
                    |x, y| t.ship_cost_ms(x, y, 1000.0),
                    Some(&faults),
                    &HedgeConfig::default(),
                    &loc("L1"),
                    &loc("L4"),
                    None,
                    &legal,
                    s,
                    0,
                    None,
                )
                .unwrap()
                .backup_arrival_ms
                .is_some()
            })
            .collect();
        assert!(outcomes.iter().any(|&d| d) && outcomes.iter().any(|&d| !d));
    }
}
