//! # geoqp-core
//!
//! The paper's primary contribution: a **compliance-based query optimizer**
//! for geo-distributed query processing, plus the engine that executes its
//! plans over simulated sites.
//!
//! The optimizer follows Section 6's two-phase design:
//!
//! 1. **Plan annotator** (phase 1): a Volcano-style memo optimizer. Filter
//!    pushdown and column pruning always win, so [`normalize`] applies
//!    them once, before the memo exists; logical alternatives are then
//!    enumerated by the four rules of [`rules::default_rules`] (join
//!    re-association in both directions, projection through union,
//!    **aggregation pushdown past joins** — the rule Section 6.4 identifies
//!    as necessary for completeness). Physical candidates are derived
//!    bottom-up; each candidate carries the two new logical properties of
//!    Section 6.1 — the **execution trait** `ℰ_n` and **shipping trait**
//!    `𝒮_n` — derived by annotation rules AR1–AR4. The compliance-based
//!    cost function prices any operator with an empty execution trait at
//!    infinity, which here manifests as dropping the candidate. Per memo
//!    group a Pareto frontier over (cost, traits) is kept, treating
//!    geo-locations as *interesting properties*.
//! 2. **Site selector** (phase 2): Algorithm 2 — memoized dynamic
//!    programming over `(operator, location ∈ ℰ)` using the `α + β·b`
//!    message cost model, emitting explicit SHIP operators.
//!
//! [`compliance`] provides the independent Definition-1 checker used both to
//! validate Theorem 1 (the optimizer never emits a non-compliant plan) and
//! to audit the traditional baseline's plans in the experiments.
//!
//! [`engine::Engine::run`] is the one way to execute an optimized query;
//! [`engine::ExecOptions`] says how (which engine, fault injection,
//! failover budget, checkpoints, deadline, hedging, live churn). With a re-plan budget it adds fault tolerance on top: when a
//! site dies mid-query (simulated by a `geoqp-net` fault plan), the engine
//! re-runs phase 2 with the dead site excluded from every execution trait
//! and re-verifies the placement against Definition 1 before resuming —
//! failures degrade into typed errors, never into non-compliant
//! dataflows. Every attempt runs on the one `geoqp_runtime::Runtime`;
//! [`distributed`] holds the catalog-backed source its leaves read.

pub mod annotate;
pub mod churn;
pub mod compliance;
pub mod cost;
pub mod distributed;
pub mod engine;
pub mod explain;
pub mod memo;
pub mod normalize;
pub mod rules;
pub mod site_selector;

pub use annotate::{AnnotatedNode, Annotator};
pub use churn::{CatalogHealth, CatalogService, ChurnOpts, ReplicaHealth};
pub use compliance::{check_compliance, ship_audit_info, ship_traits, ShipAudit};
pub use engine::{
    Engine, ExecOptions, ExecutionResult, OptimizeStats, OptimizedQuery, OptimizerMode,
    OptimizerOptions, ParallelResult, QueryOutcome,
};
pub use site_selector::{select_sites, select_sites_with, Objective, SitedPlan};

// The runtime's knobs and metrics, re-exported so front ends can
// fill [`ExecOptions::runtime`] and render `\metrics` without depending on
// `geoqp-runtime` directly — plus the failover checkpoint store, so tests
// and tools can inspect what was retained where ([`ExecOptions::store`]).
pub use geoqp_runtime::{Checkpoint, CheckpointStore, RuntimeConfig, RuntimeMetrics};

// The gray-failure defense knobs and reports, re-exported so front ends
// can enable hedged transfers ([`ExecOptions::with_hedge`]) and render
// `\health` without depending on `geoqp-net` directly.
pub use geoqp_net::{BreakerState, HealthConfig, HedgeConfig, LinkReport, LinkState, RelayEvent};
