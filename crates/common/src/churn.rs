//! Live policy-churn plumbing shared by the catalog service, the engine,
//! and both executors.
//!
//! The versioned policy-catalog log lives in `geoqp-policy` and its
//! replication transport in `geoqp-net`; what the *executors* need from
//! them is deliberately tiny and dependency-free, so it lives here. A
//! catalog snapshot is named by its log **sequence number**, a plain
//! `u64` (0 = the base catalog): sequences are monotone, so freshness and
//! "newer than the pin" are comparisons. The chain hashes that make the
//! log tamper-evident stay inside the log and its replicas.
//!
//! * [`ChurnSignal`] — how revocations reach in-flight queries: a set of
//!   pre-planned, step-triggered events (deterministic replay for the
//!   bench and chaos harnesses) plus a live published head (the server's
//!   `update_tenant_policies` path). Grants never abort anything — they
//!   only take effect for queries admitted later, or for a refused query
//!   that re-pins forward onto them.
//! * [`StaleGuard`] — the fail-safe for replication lag: the set of sites
//!   whose catalog replica has *proven* it applied the pinned sequence.
//!   A site outside the set refuses to originate a transfer with
//!   [`GeoError::CatalogStale`] rather than audit against old policy.
//! * [`ChurnWatch`] — one attempt's pin, signal and guard together.

use crate::error::{GeoError, Result};
use crate::location::{Location, LocationSet};
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
/// published by the service when an administrator revokes a policy
/// mid-run. Executors poll [`ChurnSignal::revoked_since`] at batch
/// granularity; a hit aborts the attempt with
/// [`GeoError::PolicyChurn`] so the failover loop can re-pin.
#[derive(Debug, Default)]
pub struct ChurnSignal {
    planned: Vec<ChurnEvent>,
    live_seq: AtomicU64,
    live_revocation: AtomicU64,
    /// Sequence of the newest live-published *grant*, feeding
    /// [`ChurnSignal::granted_since`]: a refused in-flight query may
    /// re-pin forward onto it, because grants only grow the legal set.
    live_grant: AtomicU64,
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
    /// whether the update contained at least one revoke; only those
    /// interrupt in-flight queries.
    pub fn publish(&self, seq: u64, revocation: bool) {
        // Seq is monotone per log, so a plain max-update suffices.
        if seq > self.live_seq.load(Ordering::Acquire) {
            self.live_seq.store(seq, Ordering::Release);
            if revocation {
                self.live_revocation.store(seq, Ordering::Release);
            } else {
                self.live_grant.store(seq, Ordering::Release);
            }
        }
    }

    /// The newest *revocation* visible at executor step `step` that the
    /// pin at `pin_seq` has not seen, if any — the head the aborting
    /// query should re-pin to. Returns the highest-sequence candidate
    /// so one abort absorbs a burst of revocations.
    pub fn revoked_since(&self, pin_seq: u64, step: u64) -> Option<u64> {
        let live = self.live_revocation.load(Ordering::Acquire);
        self.newest(pin_seq, step, true, live)
    }

    /// The newest *grant* visible at executor step `step` that the pin at
    /// `pin_seq` has not seen, if any — the head a query refused
    /// `NonCompliant` under its pin may re-pin forward to. Sound because
    /// grants are additive: the legal set at the returned head is a
    /// superset of the one at `pin_seq` plus whatever revocations the
    /// re-pin already absorbed, and the retry re-runs the full compliant
    /// optimizer and Definition-1 audit under the new snapshot anyway.
    ///
    /// Planned grants are gated by their trigger step (deterministic
    /// replay); live-published grants really happened, so they are always
    /// visible.
    pub fn granted_since(&self, pin_seq: u64, step: u64) -> Option<u64> {
        let live = self.live_grant.load(Ordering::Acquire);
        self.newest(pin_seq, step, false, live)
    }

    /// The newest planned entry of the given kind released by `step`, or
    /// the live head when the newest live entry of that kind (`live`) is
    /// newer still — newer than the pin either way.
    fn newest(&self, pin_seq: u64, step: u64, revocation: bool, live: u64) -> Option<u64> {
        let planned = (self.planned.iter())
            .filter(|e| e.step <= step && e.revocation == revocation && e.seq > pin_seq)
            .map(|e| e.seq)
            .max();
        if live > pin_seq && planned.is_none_or(|h| live > h) {
            // Re-pin to the full live head: it is at least as new as the
            // entry, and newer entries in between must be absorbed, not
            // skipped.
            Some(self.live_seq.load(Ordering::Acquire).max(live))
        } else {
            planned
        }
    }

    /// Whether any planned event exists (used by executors to skip the
    /// per-batch scan entirely on churn-free runs).
    pub fn is_idle(&self) -> bool {
        self.planned.is_empty() && self.live_revocation.load(Ordering::Acquire) == 0
    }
}

/// Per-site catalog freshness proof for one pinned sequence: a site in
/// `fresh` has applied (and chain-verified) every log entry up to the
/// pin. Built by the catalog service from its replica states at
/// execution start; consulted by executors before a transfer leaves a
/// site.
#[derive(Debug, Clone)]
pub struct StaleGuard {
    fresh: LocationSet,
    /// Sites whose catalog-plane link to the coordinator is severed for
    /// good (open-ended crash or partition): their lag is unbounded, and
    /// refusals name them as permanently stale instead of merely behind.
    unbounded: LocationSet,
}

impl StaleGuard {
    /// A guard with the given proven-fresh sites.
    pub fn new(fresh: LocationSet) -> StaleGuard {
        StaleGuard {
            fresh,
            unbounded: LocationSet::new(),
        }
    }

    /// Mark the sites whose replication lag can never clear.
    pub fn with_unbounded(mut self, unbounded: LocationSet) -> StaleGuard {
        self.unbounded = unbounded;
        self
    }

    /// Whether `site`'s lag is unbounded (severed from the coordinator).
    pub fn is_unbounded(&self, site: &Location) -> bool {
        self.unbounded.contains(site)
    }

    /// Whether `site`'s replica has proven it applied the pinned
    /// sequence.
    pub fn sees(&self, site: &Location) -> bool {
        self.fresh.contains(site)
    }

    /// Fail-safe check before `site` originates a transfer under catalog
    /// seq `pin`: stale replicas refuse with [`GeoError::CatalogStale`]
    /// rather than audit the transfer against an old catalog.
    pub fn check_origin(&self, site: &Location, pin: u64) -> Result<()> {
        if self.sees(site) {
            Ok(())
        } else {
            let unbounded = self.is_unbounded(site);
            let cause = if unbounded {
                "its catalog-plane link to the coordinator is severed \
                 (unbounded lag)"
            } else {
                "its replica is behind"
            };
            Err(GeoError::catalog_stale(
                site.clone(),
                pin,
                unbounded,
                format!(
                    "site {site} cannot prove it has seen catalog seq {pin}: \
                     {cause}; refusing to originate the transfer"
                ),
            ))
        }
    }
}

/// Everything an executor needs to enforce live churn on one attempt:
/// the pin the query was admitted under, the signal revocations arrive
/// on, and (optionally) the per-site replica-freshness guard. Built by
/// the catalog service, re-built by the failover loop after each
/// churn-driven re-pin.
#[derive(Debug, Clone)]
pub struct ChurnWatch {
    /// The catalog sequence this attempt executes under.
    pub pin: u64,
    /// Where revocations land (planned events and/or live publishes).
    pub signal: std::sync::Arc<ChurnSignal>,
    /// Per-site freshness proof for `pin`; `None` skips the stale-origin
    /// check (single-site deployments, or the server path where every
    /// worker reads the coordinator's log directly).
    pub stale: Option<std::sync::Arc<StaleGuard>>,
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
        assert!(!sig.is_idle());
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
        assert!(sig.is_idle());
        sig.publish(5, false); // grants don't interrupt
        assert_eq!(sig.revoked_since(0, 0), None);
        sig.publish(6, true);
        assert_eq!(sig.revoked_since(5, 0), Some(6));
        assert_eq!(sig.revoked_since(6, 0), None);
        // Stale publishes (lower seq) are ignored.
        sig.publish(2, true);
        assert_eq!(sig.revoked_since(5, 0), Some(6));
    }

    #[test]
    fn stale_guard_refuses_unproven_origins() {
        let mut fresh = LocationSet::new();
        fresh.insert(Location::new("L1"));
        let mut severed = LocationSet::new();
        severed.insert(Location::new("L3"));
        let guard = StaleGuard::new(fresh).with_unbounded(severed);
        assert!(guard.check_origin(&Location::new("L1"), 2).is_ok());
        let err = guard.check_origin(&Location::new("L2"), 2).unwrap_err();
        assert_eq!(err.kind(), "catalog-stale");
        assert!(err.message().contains("seq 2"));
        // The refusal names the lagging site in the typed payload.
        assert_eq!(err.stale_site(), Some((&Location::new("L2"), false)));
        // A severed replica is named as unbounded lag.
        let err = guard.check_origin(&Location::new("L3"), 2).unwrap_err();
        assert_eq!(err.stale_site(), Some((&Location::new("L3"), true)));
        assert!(err.message().contains("unbounded lag"));
    }

    #[test]
    fn planned_grants_become_visible_by_step() {
        let sig = ChurnSignal::with_planned(vec![
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
            ChurnEvent {
                step: 9,
                seq: 3,
                revocation: false,
            },
        ]);
        assert_eq!(sig.granted_since(0, 3), None, "grant not yet released");
        assert_eq!(sig.granted_since(0, 4), Some(2));
        // A burst: the newest visible grant wins.
        assert_eq!(sig.granted_since(0, 100), Some(3));
        // A pin that already saw seq 3 gains nothing from retrying.
        assert_eq!(sig.granted_since(3, 100), None);
        // Revocations never count as grants.
        assert_eq!(sig.granted_since(0, 2), None);
    }

    #[test]
    fn live_grants_are_always_visible() {
        let sig = ChurnSignal::new();
        assert_eq!(sig.granted_since(0, 0), None);
        sig.publish(4, false);
        assert_eq!(sig.granted_since(0, 0), Some(4));
        // A newer revocation moves the head; the grant re-pin absorbs it.
        sig.publish(5, true);
        assert_eq!(sig.granted_since(0, 0), Some(5));
        assert_eq!(sig.granted_since(4, 0), None, "no grant after the pin");
    }
}
