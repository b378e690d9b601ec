//! Cooperative query control: cancellation tokens and simulated-clock
//! deadlines.
//!
//! The runtime consults a [`RunControl`] at **batch granularity**: before
//! every scan, every shipped batch, and every exchange fetch. A query
//! past its [`QueryDeadline`] budget — or one whose [`CancelToken`] was
//! fired — unwinds every fragment with a typed
//! [`GeoError::DeadlineExceeded`] / [`GeoError::Cancelled`] instead of
//! running on. Deadlines are measured against the *simulated* network
//! clock (the same `α + β·b` cost model the optimizer prices plans
//! with), so deadline verdicts are deterministic and replayable — they
//! never depend on wall-clock scheduling.

use crate::error::{GeoError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, cloneable abort flag. Cloning shares the flag: firing any
/// clone cancels every worker holding one. Workers poll it between
/// batches (`check`), so cancellation is cooperative — no thread is ever
/// killed, every worker joins cleanly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Re-arm the token so the next query can run. Only meaningful once
    /// the cancelled query has fully unwound.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Typed check: `Err(GeoError::Cancelled)` naming `what` if the token
    /// has fired.
    pub fn check(&self, what: &str) -> Result<()> {
        if self.is_cancelled() {
            Err(GeoError::Cancelled(format!(
                "query cancelled before {what}"
            )))
        } else {
            Ok(())
        }
    }
}

/// A completion-time budget in simulated milliseconds. The budget covers
/// the whole resilient execution — retries, backoff, and failover
/// re-plans all spend from the same clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDeadline {
    /// Total simulated milliseconds the query may spend.
    pub budget_ms: f64,
}

impl QueryDeadline {
    /// A deadline of `budget_ms` simulated milliseconds.
    pub fn new(budget_ms: f64) -> QueryDeadline {
        QueryDeadline { budget_ms }
    }

    /// Typed check: `Err(GeoError::DeadlineExceeded)` if `spent_ms` of
    /// simulated time has already run past the budget.
    pub fn check(&self, spent_ms: f64, what: &str) -> Result<()> {
        if spent_ms > self.budget_ms {
            Err(GeoError::DeadlineExceeded(format!(
                "{what} at {spent_ms:.1} ms exceeds the {:.1} ms query budget",
                self.budget_ms
            )))
        } else {
            Ok(())
        }
    }
}

/// The control surface threaded through an execution attempt: an
/// optional cancel token, an optional deadline, and the simulated
/// milliseconds already spent by *earlier* attempts of the same
/// resilient query (so a failover re-plan cannot reset the clock).
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative abort flag, if the caller wants one.
    pub cancel: Option<CancelToken>,
    /// Completion-time budget, if the caller set one.
    pub deadline: Option<QueryDeadline>,
    /// Simulated ms spent before this attempt started.
    pub base_ms: f64,
}

impl RunControl {
    /// A control surface with neither token nor deadline (never trips).
    pub fn unlimited() -> RunControl {
        RunControl::default()
    }

    /// Poll the cancel token, if any.
    pub fn check_cancel(&self, what: &str) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(what),
            None => Ok(()),
        }
    }

    /// Check `attempt_ms` of this attempt's simulated time (plus the
    /// base spent by earlier attempts) against the deadline, if any.
    pub fn check_deadline(&self, attempt_ms: f64, what: &str) -> Result<()> {
        match self.deadline {
            Some(d) => d.check(self.base_ms + attempt_ms, what),
            None => Ok(()),
        }
    }

    /// Both checks, cancellation first.
    pub fn check(&self, attempt_ms: f64, what: &str) -> Result<()> {
        self.check_cancel(what)?;
        self.check_deadline(attempt_ms, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(a.check("scan of t1").is_ok());
        b.cancel();
        assert!(a.is_cancelled());
        let err = a.check("scan of t1").unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(err.message().contains("scan of t1"));
        a.reset();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn deadline_trips_only_past_the_budget() {
        let d = QueryDeadline::new(100.0);
        assert!(d.check(100.0, "batch").is_ok(), "exactly on budget is fine");
        let err = d.check(100.1, "batch 3 of edge 1").unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert!(err.message().contains("batch 3 of edge 1"));
    }

    #[test]
    fn run_control_accumulates_base_time_across_attempts() {
        let ctl = RunControl {
            cancel: None,
            deadline: Some(QueryDeadline::new(50.0)),
            base_ms: 40.0,
        };
        assert!(ctl.check(10.0, "x").is_ok());
        assert_eq!(ctl.check(10.1, "x").unwrap_err().kind(), "deadline");
        assert!(RunControl::unlimited().check(1e18, "x").is_ok());
    }
}
