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
    /// The site that should be excluded from execution traits when
    /// re-planning (for link failures: the unreachable destination).
    pub site: Option<Location>,
    /// The failing link, when the failure was observed on a transfer.
    pub link: Option<(Location, Location)>,
    /// Whether the failure is transient (a retry with backoff may
    /// succeed) or permanent (the site is down; re-plan around it).
    pub transient: bool,
    /// Whether this is a *soft* exclusion raised by a circuit breaker
    /// that exhausted its open budget on a gray link: both endpoints are
    /// alive, so the re-planner must avoid the **link** (price it at ∞),
    /// not exclude a site.
    pub breaker: bool,
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
            breaker: false,
            message: message.into(),
        }
    }

    /// Availability failure of one link; the destination is what the
    /// re-planner excludes if the failure persists.
    pub fn link_down(
        from: Location,
        to: Location,
        transient: bool,
        message: impl Into<String>,
    ) -> Unavailable {
        Unavailable {
            site: Some(to.clone()),
            link: Some((from, to)),
            transient,
            breaker: false,
            message: message.into(),
        }
    }

    /// A circuit breaker condemned a gray link: both endpoints are up,
    /// so no site is named — the re-planner routes around the link by
    /// cost instead of excluding an execution site.
    pub fn breaker_open(from: Location, to: Location, message: impl Into<String>) -> Unavailable {
        Unavailable {
            site: None,
            link: Some((from, to)),
            transient: false,
            breaker: true,
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
    /// Catalog-log sequence number of the revocation that landed.
    pub seq: u64,
    /// The executor step at which the abort fired. The grant-retry path
    /// replays the churn signal at this step, so which planned grants are
    /// visible to a refused query is as deterministic as the abort itself.
    pub step: u64,
    /// Human-readable description.
    pub message: String,
}

/// Details of a stale-replica refusal — the typed payload of
/// [`GeoError::CatalogStale`]. Names the site whose catalog replica could
/// not prove freshness, so operators (and the `\catalog` health view) see
/// *which* replica is lagging, and whether the lag can ever clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleReplica {
    /// The site whose replica failed the freshness proof.
    pub site: Location,
    /// The pinned catalog sequence the replica could not prove.
    pub seq: u64,
    /// Whether the replica's lag is unbounded: the site is permanently
    /// partitioned or crashed on the catalog plane, so no amount of
    /// waiting or retrying will make it fresh — re-plan around it.
    pub unbounded: bool,
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
    /// A site's catalog replica could not prove it has applied the
    /// sequence the coordinator pinned for this query (replication lag, catalog
    /// partition, or a crashed replica). The site fails safe: it refuses
    /// to originate the transfer rather than audit against old policy.
    /// The payload names the lagging site and whether its lag is
    /// unbounded (permanent catalog-plane partition or crash).
    CatalogStale(StaleReplica),
    /// A catalog read named a log sequence older than the compaction
    /// floor: the prefix was snapshotted and truncated, so the exact
    /// state at that sequence is no longer reconstructible anywhere.
    /// Callers holding such a pin must re-pin forward, never guess.
    CatalogCompacted(String),
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
            GeoError::CatalogStale(_) => "catalog-stale",
            GeoError::CatalogCompacted(_) => "catalog-compacted",
        }
    }

    /// Convenience constructor for a mid-flight revocation abort at
    /// executor step `step`.
    pub fn policy_churn(seq: u64, step: u64, message: impl Into<String>) -> GeoError {
        GeoError::PolicyChurn(ChurnAbort {
            seq,
            step,
            message: message.into(),
        })
    }

    /// Convenience constructor for a stale-replica refusal.
    pub fn catalog_stale(
        site: Location,
        seq: u64,
        unbounded: bool,
        message: impl Into<String>,
    ) -> GeoError {
        GeoError::CatalogStale(StaleReplica {
            site,
            seq,
            unbounded,
            message: message.into(),
        })
    }

    /// The catalog head a mid-flight revocation abort observed, if this
    /// error is one: the sequence of the newest revocation entry.
    pub fn churn_head(&self) -> Option<u64> {
        match self {
            GeoError::PolicyChurn(c) => Some(c.seq),
            _ => None,
        }
    }

    /// The executor step a mid-flight revocation abort fired at, if this
    /// error is one.
    pub fn churn_step(&self) -> Option<u64> {
        match self {
            GeoError::PolicyChurn(c) => Some(c.step),
            _ => None,
        }
    }

    /// The lagging site a stale-replica refusal names, if this error is
    /// one, along with whether its lag is unbounded.
    pub fn stale_site(&self) -> Option<(&Location, bool)> {
        match self {
            GeoError::CatalogStale(s) => Some((&s.site, s.unbounded)),
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

    /// Convenience constructor for a breaker-condemned gray link.
    pub fn breaker_open(from: Location, to: Location, message: impl Into<String>) -> GeoError {
        GeoError::SiteUnavailable(Unavailable::breaker_open(from, to, message))
    }

    /// Whether retrying (with backoff) may clear this error.
    pub fn is_transient(&self) -> bool {
        matches!(self, GeoError::SiteUnavailable(u) if u.transient)
    }

    /// The gray link a circuit breaker condemned, if this error is a
    /// breaker-raised soft exclusion. `None` for every hard availability
    /// failure, so replan-by-site and replan-by-link never mix.
    pub fn breaker_link(&self) -> Option<(&Location, &Location)> {
        match self {
            GeoError::SiteUnavailable(u) if u.breaker => u.link.as_ref().map(|(a, b)| (a, b)),
            _ => None,
        }
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
            | GeoError::Admission(m)
            | GeoError::CatalogCompacted(m) => m,
            GeoError::SiteUnavailable(u) => &u.message,
            GeoError::PolicyChurn(c) => &c.message,
            GeoError::CatalogStale(s) => &s.message,
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
            GeoError::policy_churn(0, 0, String::new()),
            GeoError::catalog_stale(Location::new("L1"), 0, false, String::new()),
            GeoError::CatalogCompacted(String::new()),
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
        // For a link failure, the excluded site is the destination.
        assert_eq!(drop.failed_site(), Some(&Location::new("L3")));
    }

    #[test]
    fn non_availability_errors_have_no_fault_details() {
        let e = GeoError::Execution("boom".into());
        assert!(!e.is_transient());
        assert_eq!(e.failed_site(), None);
        assert_eq!(e.failed_link(), None);
    }

    /// A breaker condemnation names the gray link but no site — both
    /// endpoints are alive, so the re-planner must route around the link
    /// instead of excluding an execution site.
    #[test]
    fn breaker_open_names_the_link_but_no_site() {
        let e = GeoError::breaker_open(
            Location::new("L1"),
            Location::new("L4"),
            "breaker open past budget",
        );
        assert_eq!(e.kind(), "unavailable");
        assert!(!e.is_transient());
        assert_eq!(e.failed_site(), None);
        assert_eq!(
            e.breaker_link(),
            Some((&Location::new("L1"), &Location::new("L4")))
        );
        // Hard link failures are never breaker links.
        let hard = GeoError::link_down(Location::new("L1"), Location::new("L4"), true, "drop");
        assert_eq!(hard.breaker_link(), None);
    }

    /// A churn abort carries the catalog head the executor observed and
    /// names no failed site: the failover loop must re-pin and re-plan,
    /// never exclude a healthy site.
    #[test]
    fn policy_churn_carries_the_observed_head_and_step() {
        let e = GeoError::policy_churn(3, 7, "revocation landed at seq 3");
        assert_eq!(e.kind(), "churn");
        assert_eq!(e.churn_head(), Some(3));
        assert_eq!(e.churn_step(), Some(7));
        assert_eq!(e.failed_site(), None);
        assert!(!e.is_transient());
        assert_eq!(e.message(), "revocation landed at seq 3");
        let stale = GeoError::catalog_stale(Location::new("L2"), 1, false, String::new());
        assert_eq!(stale.churn_head(), None);
        assert_eq!(stale.churn_step(), None);
    }

    /// A stale-replica refusal names the lagging site and whether the lag
    /// can ever clear, so the failover layer can distinguish "wait for
    /// replication" from "route around a severed replica".
    #[test]
    fn catalog_stale_names_the_lagging_site() {
        let e = GeoError::catalog_stale(Location::new("L3"), 4, true, "L3 severed");
        assert_eq!(e.kind(), "catalog-stale");
        assert_eq!(e.stale_site(), Some((&Location::new("L3"), true)));
        assert_eq!(e.failed_site(), None, "stale is not a crashed site");
        assert_eq!(e.message(), "L3 severed");
        assert_eq!(GeoError::Execution("boom".into()).stale_site(), None);
    }

    /// A compacted-prefix read is typed, never a panic or a silent head
    /// answer — callers holding pre-floor pins must re-pin forward.
    #[test]
    fn compacted_reads_are_typed() {
        let e = GeoError::CatalogCompacted("seq 2 is below the floor at seq 5".into());
        assert_eq!(e.kind(), "catalog-compacted");
        assert!(!e.is_transient());
        assert_eq!(e.failed_site(), None);
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
            GeoError::catalog_stale(Location::new("L2"), 3, false, "replica behind pinned seq"),
        ] {
            assert!(!e.is_transient());
            assert_eq!(e.failed_site(), None);
            assert_eq!(e.failed_link(), None);
        }
    }
}
