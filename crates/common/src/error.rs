//! Workspace-wide error type.
//!
//! All crates in the workspace surface failures through [`GeoError`]. The
//! variants mirror the pipeline stages of the paper's architecture (Figure 2):
//! parsing, planning, policy handling, optimization, site selection, and
//! execution. The [`GeoError::QueryRejected`] variant corresponds to the
//! optimizer's *reject* outcome — a query for which no compliant execution
//! plan exists in the explored search space.

use crate::location::Location;
use std::fmt;

/// Workspace-wide result alias.
pub type Result<T, E = GeoError> = std::result::Result<T, E>;

/// Details of a site/link availability failure — the typed payload of
/// [`GeoError::SiteUnavailable`]. Produced by the fault-injecting network
/// simulator and consumed by the engine's failover re-planner, which needs
/// to know *which* site to exclude from the execution traits and whether
/// retrying could help at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unavailable {
    /// The crashed site re-planning excludes from every execution trait.
    /// `None` for a link that failed between two live sites: re-planning
    /// avoids the link and keeps both endpoints.
    pub site: Option<Location>,
    /// The failing link, when the failure was observed on a transfer.
    pub link: Option<(Location, Location)>,
    /// Whether the failure is transient (a retry with backoff may
    /// succeed) or permanent (the site is down; re-plan around it).
    pub transient: bool,
    /// Human-readable description.
    pub message: String,
}

impl Unavailable {
    /// Availability failure of a whole site (crash window).
    pub fn site_down(site: Location, message: impl Into<String>) -> Unavailable {
        Unavailable {
            site: Some(site),
            link: None,
            transient: false,
            message: message.into(),
        }
    }

    /// Availability failure of one link between two live sites: it names
    /// the link and no site.
    pub fn link_down(
        from: Location,
        to: Location,
        transient: bool,
        message: impl Into<String>,
    ) -> Unavailable {
        Unavailable {
            site: None,
            link: Some((from, to)),
            transient,
            message: message.into(),
        }
    }
}

/// Details of a mid-flight policy-churn abort — the typed payload of
/// [`GeoError::PolicyChurn`]. Raised by an executor whose per-batch
/// revocation check saw a revocation newer than the query's pinned catalog
/// sequence; carries the head the executor observed so the failover
/// re-planner knows which snapshot to re-pin against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnAbort {
    /// The catalog head the query re-pins to: every log entry visible at
    /// the abort step, the revocation that fired among them.
    pub seq: u64,
    /// Human-readable description.
    pub message: String,
}

/// The error type shared by every `geoqp` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeoError {
    /// Lexing or parsing a SQL query or policy expression failed.
    Parse(String),
    /// Building or validating a logical plan failed (unknown column, type
    /// mismatch, ambiguous name, ...).
    Plan(String),
    /// A policy expression is malformed or references unknown schema objects.
    Policy(String),
    /// The optimizer failed internally (exhausted budget, broken invariant).
    Optimize(String),
    /// The optimizer proved that no compliant plan exists in its search space
    /// and rejected the query (Section 6.2: "otherwise, it rejects the
    /// query").
    QueryRejected(String),
    /// A storage-layer failure (unknown table/database, arity mismatch).
    Storage(String),
    /// A runtime failure while executing a physical plan.
    Execution(String),
    /// A compliance audit found a dataflow-policy violation in a plan
    /// (used by the Definition-1 checker, never by the compliant optimizer
    /// itself — see Theorem 1).
    NonCompliant(String),
    /// The feature is out of the supported dialect/algebra subset.
    Unsupported(String),
    /// A site or link was unavailable while executing a distributed plan
    /// (injected fault or outage). Carries the failed site/link and
    /// whether the failure is transient, so the engine's failover path
    /// can decide between retrying and compliant re-planning.
    SiteUnavailable(Unavailable),
    /// The query ran past its [`QueryDeadline`](crate::QueryDeadline)
    /// budget (simulated clock) and was unwound cooperatively. Not
    /// transient and carries no failed site: the failover re-planner
    /// must not treat an over-budget query as a crashed site.
    DeadlineExceeded(String),
    /// The query was aborted through a [`CancelToken`](crate::CancelToken)
    /// and every worker unwound cooperatively.
    Cancelled(String),
    /// The multi-tenant query service refused to enqueue the query: the
    /// tenant's admission budget (max in-flight plus bounded queue) is
    /// exhausted. Nothing about the query itself is wrong — resubmitting
    /// once the tenant's backlog drains may succeed.
    Admission(String),
    /// A policy revocation landed while the query was in flight and a
    /// runtime fragment's per-batch revocation check caught it before the
    /// next transfer left. The resilient loop re-pins to the carried head
    /// and re-plans; anything else must surface this typed, never ship
    /// under the revoked catalog.
    PolicyChurn(ChurnAbort),
}

impl GeoError {
    /// Short machine-readable category label, handy for test assertions and
    /// experiment summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            GeoError::Parse(_) => "parse",
            GeoError::Plan(_) => "plan",
            GeoError::Policy(_) => "policy",
            GeoError::Optimize(_) => "optimize",
            GeoError::QueryRejected(_) => "rejected",
            GeoError::Storage(_) => "storage",
            GeoError::Execution(_) => "execution",
            GeoError::NonCompliant(_) => "non-compliant",
            GeoError::Unsupported(_) => "unsupported",
            GeoError::SiteUnavailable(_) => "unavailable",
            GeoError::DeadlineExceeded(_) => "deadline",
            GeoError::Cancelled(_) => "cancelled",
            GeoError::Admission(_) => "admission",
            GeoError::PolicyChurn(_) => "churn",
        }
    }

    /// Convenience constructor for a mid-flight revocation abort that
    /// re-pins to catalog head `seq`.
    pub fn policy_churn(seq: u64, message: impl Into<String>) -> GeoError {
        GeoError::PolicyChurn(ChurnAbort {
            seq,
            message: message.into(),
        })
    }

    /// The catalog head a mid-flight revocation abort re-pins to, if this
    /// error is one: everything visible at the abort step.
    pub fn churn_head(&self) -> Option<u64> {
        match self {
            GeoError::PolicyChurn(c) => Some(c.seq),
            _ => None,
        }
    }

    /// Convenience constructor for a crashed-site error.
    pub fn site_down(site: Location, message: impl Into<String>) -> GeoError {
        GeoError::SiteUnavailable(Unavailable::site_down(site, message))
    }

    /// Convenience constructor for a failed-link error.
    pub fn link_down(
        from: Location,
        to: Location,
        transient: bool,
        message: impl Into<String>,
    ) -> GeoError {
        GeoError::SiteUnavailable(Unavailable::link_down(from, to, transient, message))
    }

    /// Whether retrying (with backoff) may clear this error.
    pub fn is_transient(&self) -> bool {
        matches!(self, GeoError::SiteUnavailable(u) if u.transient)
    }

    /// The site an availability failure points at, if any.
    pub fn failed_site(&self) -> Option<&Location> {
        match self {
            GeoError::SiteUnavailable(u) => u.site.as_ref(),
            _ => None,
        }
    }

    /// The link an availability failure was observed on, if any.
    pub fn failed_link(&self) -> Option<(&Location, &Location)> {
        match self {
            GeoError::SiteUnavailable(u) => u.link.as_ref().map(|(a, b)| (a, b)),
            _ => None,
        }
    }

    /// The human-readable message carried by the error.
    pub fn message(&self) -> &str {
        match self {
            GeoError::Parse(m)
            | GeoError::Plan(m)
            | GeoError::Policy(m)
            | GeoError::Optimize(m)
            | GeoError::QueryRejected(m)
            | GeoError::Storage(m)
            | GeoError::Execution(m)
            | GeoError::NonCompliant(m)
            | GeoError::Unsupported(m)
            | GeoError::DeadlineExceeded(m)
            | GeoError::Cancelled(m)
            | GeoError::Admission(m) => m,
            GeoError::SiteUnavailable(u) => &u.message,
            GeoError::PolicyChurn(c) => &c.message,
        }
    }
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind(), self.message())
    }
}

impl std::error::Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = GeoError::QueryRejected("no compliant plan for Q5".into());
        assert_eq!(e.to_string(), "rejected error: no compliant plan for Q5");
        assert_eq!(e.kind(), "rejected");
        assert_eq!(e.message(), "no compliant plan for Q5");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GeoError::Parse("x".into()), GeoError::Parse("x".into()));
        assert_ne!(GeoError::Parse("x".into()), GeoError::Plan("x".into()));
    }

    #[test]
    fn every_variant_has_a_distinct_kind() {
        let variants = [
            GeoError::Parse(String::new()),
            GeoError::Plan(String::new()),
            GeoError::Policy(String::new()),
            GeoError::Optimize(String::new()),
            GeoError::QueryRejected(String::new()),
            GeoError::Storage(String::new()),
            GeoError::Execution(String::new()),
            GeoError::NonCompliant(String::new()),
            GeoError::Unsupported(String::new()),
            GeoError::SiteUnavailable(Unavailable::site_down(Location::new("L1"), String::new())),
            GeoError::DeadlineExceeded(String::new()),
            GeoError::Cancelled(String::new()),
            GeoError::Admission(String::new()),
            GeoError::policy_churn(0, String::new()),
        ];
        let mut kinds: Vec<_> = variants.iter().map(|v| v.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len());
    }

    #[test]
    fn unavailable_carries_site_link_and_transience() {
        let crash = GeoError::site_down(Location::new("L2"), "L2 crashed");
        assert_eq!(crash.kind(), "unavailable");
        assert!(!crash.is_transient());
        assert_eq!(crash.failed_site(), Some(&Location::new("L2")));
        assert_eq!(crash.failed_link(), None);
        assert_eq!(crash.message(), "L2 crashed");

        let drop = GeoError::link_down(
            Location::new("L1"),
            Location::new("L3"),
            true,
            "L1->L3 dropped",
        );
        assert!(drop.is_transient());
        assert_eq!(
            drop.failed_link(),
            Some((&Location::new("L1"), &Location::new("L3")))
        );
        // A link failure names no site: both endpoints stay live.
        assert_eq!(drop.failed_site(), None);
    }

    #[test]
    fn non_availability_errors_have_no_fault_details() {
        let e = GeoError::Execution("boom".into());
        assert!(!e.is_transient());
        assert_eq!(e.failed_site(), None);
        assert_eq!(e.failed_link(), None);
    }

    /// A churn abort carries the catalog head the executor observed and
    /// names no failed site: the failover loop must re-pin and re-plan,
    /// never exclude a healthy site.
    #[test]
    fn policy_churn_carries_the_observed_head() {
        let e = GeoError::policy_churn(3, "revocation landed at seq 3");
        assert_eq!(e.kind(), "churn");
        assert_eq!(e.churn_head(), Some(3));
        assert_eq!(e.failed_site(), None);
        assert!(!e.is_transient());
        assert_eq!(e.message(), "revocation landed at seq 3");
    }

    /// Deadline and cancellation must never look like a crashed site:
    /// the failover re-planner keys on `failed_site`, and re-planning an
    /// over-budget query would just burn more budget.
    #[test]
    fn deadline_and_cancellation_do_not_trigger_failover() {
        for e in [
            GeoError::DeadlineExceeded("over budget".into()),
            GeoError::Cancelled("aborted".into()),
            GeoError::Admission("tenant backlog full".into()),
        ] {
            assert!(!e.is_transient());
            assert_eq!(e.failed_site(), None);
            assert_eq!(e.failed_link(), None);
        }
    }
}
