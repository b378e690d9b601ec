//! Retry with simulated exponential backoff for SHIP and scan operations.
//!
//! Distributed operators fail in two ways the engine must distinguish: a
//! *transient* fault (a dropped packet, a healing partition) that a retry
//! can outlast, and a *permanent* one (a crashed site) that only
//! re-planning can route around. [`RetryPolicy`] drives the first kind: it
//! re-invokes the operation with exponentially growing backoff until the
//! attempt budget or timeout is exhausted, then surfaces the last typed
//! error — which carries the failing link — unchanged.
//!
//! Backoff here is *simulated*: no thread sleeps. The accumulated backoff
//! milliseconds are returned so the network simulator can charge them to
//! the transfer's cost, keeping test runs instant and deterministic.
//!
//! Concurrent retries of the *same* schedule synchronize: after a shared
//! outage, every fragment worker would re-attempt at exactly the same
//! simulated instant and hammer the healing link together. [`RetryPolicy`]
//! therefore supports **seeded deterministic jitter**: each caller salts
//! the schedule with its identity (the runtime uses the fragment slot), so
//! concurrent backoffs spread out — while identically-seeded runs stay
//! byte-identical, because the jitter is a pure hash of
//! `(seed, salt, attempt)`, never of wall-clock or thread timing.

use geoqp_common::Result;

/// Attempt budget and backoff schedule for retryable operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Simulated backoff before the second attempt, ms.
    pub base_backoff_ms: f64,
    /// Backoff growth factor per further attempt.
    pub multiplier: f64,
    /// Simulated time budget: once cumulative backoff would exceed this,
    /// the operation gives up even with attempts remaining.
    pub timeout_ms: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter/2, 1 + jitter/2)`. Zero (the
    /// default) reproduces the exact exponential schedule.
    pub jitter: f64,
    /// Seed for the jitter hash; same seed, same salts → byte-identical
    /// backoff schedules.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 10 ms → 20 ms → 40 ms backoff, no timeout, no jitter.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 10.0,
            multiplier: 2.0,
            timeout_ms: f64::INFINITY,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0.0,
            multiplier: 1.0,
            timeout_ms: f64::INFINITY,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }

    /// Enable seeded deterministic jitter (see the module docs).
    pub fn with_jitter(mut self, fraction: f64, seed: u64) -> RetryPolicy {
        self.jitter = fraction.clamp(0.0, 1.0);
        self.jitter_seed = seed;
        self
    }

    /// Simulated backoff taken *before* `attempt` (1-based; the first
    /// attempt waits nothing, the second waits the base, and so on),
    /// without jitter.
    pub fn backoff_before_ms(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            0.0
        } else {
            self.base_backoff_ms * self.multiplier.powi(attempt as i32 - 2)
        }
    }

    /// [`Self::backoff_before_ms`] scaled by the deterministic jitter
    /// factor for `salt` — a pure function of
    /// `(jitter_seed, salt, attempt)`, so every replay agrees.
    pub fn jittered_backoff_ms(&self, attempt: u32, salt: u64) -> f64 {
        let base = self.backoff_before_ms(attempt);
        if base == 0.0 || self.jitter == 0.0 {
            return base;
        }
        // splitmix64 over the seed/salt/attempt mix → uniform in [0, 1).
        let mut z = self
            .jitter_seed
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let uniform = (z >> 11) as f64 / (1u64 << 53) as f64;
        base * (1.0 + self.jitter * (uniform - 0.5))
    }

    /// Run `op` under this policy. `op` receives the 1-based attempt
    /// number. Transient errors ([`GeoError::is_transient`]) are retried
    /// until the budget or timeout runs out; every other error — and the
    /// final transient one — is returned as-is, typed link/site details
    /// intact.
    pub fn run<T>(&self, op: impl FnMut(u32) -> Result<T>) -> Result<Retried<T>> {
        self.run_salted(0, op)
    }

    /// [`Self::run`] with a caller-identity `salt` desynchronizing the
    /// jittered backoff schedule from other concurrent callers.
    pub fn run_salted<T>(
        &self,
        salt: u64,
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<Retried<T>> {
        assert!(
            self.max_attempts >= 1,
            "retry policy needs at least one attempt"
        );
        let mut backoff_ms = 0.0;
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(value) => {
                    return Ok(Retried {
                        value,
                        attempts: attempt,
                        backoff_ms,
                    })
                }
                Err(e) => {
                    let next_backoff = self.jittered_backoff_ms(attempt + 1, salt);
                    let budget_left =
                        attempt < self.max_attempts && backoff_ms + next_backoff <= self.timeout_ms;
                    if !e.is_transient() || !budget_left {
                        return Err(e);
                    }
                    backoff_ms += next_backoff;
                    attempt += 1;
                }
            }
        }
    }
}

/// A successful retried operation: the value plus what it cost to get.
#[derive(Debug, Clone, PartialEq)]
pub struct Retried<T> {
    /// The operation's result.
    pub value: T,
    /// Attempts taken (1 = first try).
    pub attempts: u32,
    /// Total simulated backoff spent, ms.
    pub backoff_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{GeoError, Location};

    fn transient(n: u32) -> GeoError {
        GeoError::link_down(
            Location::new("L1"),
            Location::new("L3"),
            true,
            format!("drop at attempt {n}"),
        )
    }

    #[test]
    fn backoff_grows_exponentially_from_the_second_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before_ms(1), 0.0);
        assert_eq!(p.backoff_before_ms(2), 10.0);
        assert_eq!(p.backoff_before_ms(3), 20.0);
        assert_eq!(p.backoff_before_ms(4), 40.0);
    }

    #[test]
    fn transient_failures_under_the_budget_succeed() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out = p
            .run(|attempt| {
                calls += 1;
                if attempt < 3 {
                    Err(transient(attempt))
                } else {
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.value, 3);
        assert_eq!(out.backoff_ms, 30.0); // 10 + 20
    }

    #[test]
    fn exhausted_budget_surfaces_the_typed_error_with_the_link() {
        let p = RetryPolicy::default();
        let err = p.run::<()>(|attempt| Err(transient(attempt))).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.is_transient());
        assert_eq!(
            err.failed_link(),
            Some((&Location::new("L1"), &Location::new("L3")))
        );
        // The error is the budget's last attempt.
        assert_eq!(err.message(), "drop at attempt 4");
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let err = p
            .run::<()>(|_| {
                calls += 1;
                Err(GeoError::site_down(Location::new("L2"), "crashed"))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert!(!err.is_transient());
        assert_eq!(err.failed_site(), Some(&Location::new("L2")));
    }

    #[test]
    fn non_availability_errors_pass_straight_through() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let err = p
            .run::<()>(|_| {
                calls += 1;
                Err(GeoError::Execution("logic bug".into()))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn timeout_caps_the_backoff_budget() {
        let p = RetryPolicy {
            max_attempts: 10,
            timeout_ms: 35.0, // room for 10 + 20, not for +40 more
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let err = p
            .run::<()>(|attempt| {
                calls += 1;
                Err(transient(attempt))
            })
            .unwrap_err();
        assert_eq!(calls, 3);
        assert!(err.is_transient());
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_desynchronizing() {
        let p = RetryPolicy::default().with_jitter(0.5, 2021);
        // Bounded: within ±jitter/2 of the base schedule; first attempt
        // still waits nothing.
        assert_eq!(p.jittered_backoff_ms(1, 3), 0.0);
        for attempt in 2..=4 {
            for salt in 0..16u64 {
                let base = p.backoff_before_ms(attempt);
                let j = p.jittered_backoff_ms(attempt, salt);
                assert!(
                    (0.75 * base..1.25 * base).contains(&j),
                    "attempt {attempt} salt {salt}: {j} outside ±25% of {base}"
                );
                // Deterministic: a pure function of (seed, salt, attempt).
                assert_eq!(j, p.jittered_backoff_ms(attempt, salt));
            }
        }
        // Desynchronizing: different salts spread the schedule out.
        let distinct: std::collections::BTreeSet<u64> = (0..16u64)
            .map(|salt| p.jittered_backoff_ms(2, salt).to_bits())
            .collect();
        assert!(distinct.len() > 8, "salts barely moved the backoff");
        // Seeded: a different seed is a different schedule, the same seed
        // replays byte-identically.
        let q = RetryPolicy::default().with_jitter(0.5, 2022);
        assert_ne!(
            p.jittered_backoff_ms(2, 3).to_bits(),
            q.jittered_backoff_ms(2, 3).to_bits()
        );
        let r = RetryPolicy::default().with_jitter(0.5, 2021);
        assert_eq!(
            p.jittered_backoff_ms(2, 3).to_bits(),
            r.jittered_backoff_ms(2, 3).to_bits()
        );
    }

    #[test]
    fn salted_runs_charge_the_jittered_backoff() {
        let p = RetryPolicy::default().with_jitter(0.5, 7);
        let run = |salt: u64| {
            p.run_salted(salt, |attempt| {
                if attempt < 3 {
                    Err(transient(attempt))
                } else {
                    Ok(())
                }
            })
            .unwrap()
        };
        let expected = |salt: u64| p.jittered_backoff_ms(2, salt) + p.jittered_backoff_ms(3, salt);
        assert_eq!(run(0).backoff_ms, expected(0));
        assert_eq!(run(1).backoff_ms, expected(1));
        assert_ne!(run(0).backoff_ms.to_bits(), run(1).backoff_ms.to_bits());
        // Zero jitter keeps the legacy schedule regardless of salt.
        let plain = RetryPolicy::default();
        assert_eq!(
            plain
                .run_salted(9, |a| if a < 3 { Err(transient(a)) } else { Ok(()) })
                .unwrap()
                .backoff_ms,
            30.0
        );
    }
}
