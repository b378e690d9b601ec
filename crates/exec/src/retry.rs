//! Retry with simulated exponential backoff for SHIP and scan operations.
//!
//! Distributed operators fail in two ways the engine must distinguish: a
//! *transient* fault (a dropped packet, a healing partition) that a retry
//! can outlast, and a *permanent* one (a crashed site) that only
//! re-planning can route around. [`RetryPolicy`] drives the first kind: it
//! re-invokes the operation with exponentially growing backoff until the
//! attempt budget is exhausted, then surfaces the last typed error —
//! which carries the failing link — unchanged.
//!
//! Backoff here is *simulated*: no thread sleeps. The accumulated backoff
//! milliseconds are returned so the network simulator can charge them to
//! the transfer's cost, keeping test runs instant and deterministic.

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
}

impl Default for RetryPolicy {
    /// Four attempts, 10 ms → 20 ms → 40 ms backoff.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 10.0,
            multiplier: 2.0,
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
        }
    }

    /// Simulated backoff taken *before* `attempt` (1-based; the first
    /// attempt waits nothing, the second waits the base, and so on).
    pub fn backoff_before_ms(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            0.0
        } else {
            self.base_backoff_ms * self.multiplier.powi(attempt as i32 - 2)
        }
    }

    /// Run `op` under this policy. `op` receives the 1-based attempt
    /// number. Transient errors ([`GeoError::is_transient`]) are retried
    /// until the budget runs out; every other error — and the final
    /// transient one — is returned as-is, typed link/site details intact.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> Result<T>) -> Result<Retried<T>> {
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
                    if !e.is_transient() || attempt >= self.max_attempts {
                        return Err(e);
                    }
                    attempt += 1;
                    backoff_ms += self.backoff_before_ms(attempt);
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
}
