//! `geoqp-server` — a multi-tenant query service on top of the compliant
//! geo-distributed engine.
//!
//! The library crates below this one run exactly one query at a time: the
//! shell and the bench harness call [`geoqp_core::Engine`] directly. This
//! crate turns the engine into a *service*:
//!
//! * [`QueryService`] accepts many concurrent sessions. Each session binds
//!   to a **tenant** — a named policy scope with its own
//!   [`PolicyCatalog`](geoqp_policy::PolicyCatalog) and therefore its own
//!   [`Engine`](geoqp_core::Engine) (and, by construction, its own
//!   `ImplicationMemo`: two tenants with conflicting policy sets can never
//!   observe each other's cached implication verdicts).
//! * A shared scheduler runs admitted queries on a bounded worker pool.
//!   **Admission control** is per tenant: at most `max_inflight` queries
//!   executing plus `max_queue` waiting; overflow is refused with the typed
//!   [`GeoError::Admission`](geoqp_common::GeoError::Admission) error.
//!   **Round-robin** scheduling guarantees a flooding tenant cannot starve
//!   a trickle tenant — each claim starts scanning at the tenant after
//!   the last one served.
//! * A private plan cache memoizes located plans, keyed by value: the SQL
//!   text, the requested result location, the tenant and the pids of its
//!   live expressions governing a table the query scans. A hit is
//!   therefore the plan the compliant optimizer returns for this input
//!   under the tenant's current catalog, so it runs without a second
//!   audit; a grant elsewhere keeps it, a revoke evicts the entries naming
//!   the revoked pid, and LRU eviction bounds the footprint under ad-hoc
//!   query diversity ([`CacheStats`] counts it).
//!
//! Per-query deadlines, cancellation, and fault plans ride through
//! unchanged ([`QueryRequest`]); the service aggregates their outcomes into
//! per-tenant [`TenantStats`] (admitted/rejected/completed, p50/p99
//! latency, cache hits, replans).

mod plan_cache;
pub mod service;

pub use plan_cache::CacheStats;
pub use service::{
    QueryReply, QueryRequest, QueryService, QueryTicket, ServiceConfig, TenantConfig, TenantId,
    TenantStats,
};
