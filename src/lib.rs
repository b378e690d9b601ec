//! # geoqp — Compliant Geo-distributed Query Processing
//!
//! A from-scratch Rust implementation of *Compliant Geo-distributed Query
//! Processing* (Beedkar, Quiané-Ruiz, Markl — SIGMOD 2021): a distributed
//! SQL engine whose optimizer guarantees that query execution plans never
//! violate declarative **dataflow policies** restricting which data may
//! move across geographic or institutional borders.
//!
//! ## The pieces
//!
//! * [`policy`] — `SHIP … FROM … TO …` policy expressions, the policy
//!   catalog, and Algorithm 1 (the policy evaluator `𝒜`),
//! * [`core`] — the compliance-based Volcano optimizer: annotation rules
//!   AR1–AR4 deriving execution/shipping traits, Pareto frontiers over
//!   (cost, traits), the Algorithm 2 site selector, the Definition 1
//!   compliance checker, and the distributed engine,
//! * [`parser`] — SQL subset + policy-statement parsing,
//! * [`plan`], [`expr`], [`exec`], [`storage`], [`net`], [`common`] — the
//!   relational substrate (algebra, expressions + implication prover,
//!   executor, catalogs, simulated WAN),
//! * [`tpch`] — the evaluation substrate (schemas, dbgen-style generator,
//!   the six evaluated queries, workload and policy generators),
//! * [`server`] — the multi-tenant query service: per-tenant admission
//!   control, deficit-round-robin fair scheduling, and a cache of
//!   optimized located plans keyed by tenant, catalog sequence, query
//!   and result site.
//!
//! ## Quickstart
//!
//! ```
//! use geoqp::prelude::*;
//! use std::sync::Arc;
//!
//! // Two sites, one table each.
//! let mut catalog = Catalog::new();
//! catalog.add_database("db-eu", Location::new("EU")).unwrap();
//! catalog.add_database("db-us", Location::new("US")).unwrap();
//! catalog.add_table(
//!     "db-eu", "users",
//!     Schema::new(vec![
//!         Field::new("u_id", DataType::Int64),
//!         Field::new("u_name", DataType::Str),
//!         Field::new("u_email", DataType::Str),
//!     ]).unwrap(),
//!     TableStats::new(1000, 48.0),
//! ).unwrap();
//! catalog.add_table(
//!     "db-us", "events",
//!     Schema::new(vec![
//!         Field::new("e_user", DataType::Int64),
//!         Field::new("e_kind", DataType::Str),
//!     ]).unwrap(),
//!     TableStats::new(100_000, 16.0),
//! ).unwrap();
//!
//! // Policy: user ids and names may leave the EU; emails may not.
//! let mut policies = PolicyCatalog::new();
//! let expr = geoqp::parser::parse_policy("ship u_id, u_name from users to US").unwrap();
//! let entry = catalog.resolve_one(&TableRef::bare("users")).unwrap();
//! policies.register(expr, &entry.schema).unwrap();
//! // Events are unrestricted.
//! let expr = geoqp::parser::parse_policy("ship * from events to *").unwrap();
//! let entry = catalog.resolve_one(&TableRef::bare("events")).unwrap();
//! policies.register(expr, &entry.schema).unwrap();
//!
//! let engine = Engine::new(
//!     Arc::new(catalog),
//!     Arc::new(policies),
//!     NetworkTopology::uniform(LocationSet::from_iter(["EU", "US"]), 80.0, 200.0),
//! );
//!
//! // A join that only touches exportable columns is planned compliantly…
//! let ok = engine.optimize_sql(
//!     "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user",
//!     OptimizerMode::Compliant,
//!     None,
//! );
//! assert!(ok.is_ok());
//!
//! // …while demanding raw emails in the US is rejected.
//! let rejected = engine.optimize_sql(
//!     "SELECT u_email, e_kind FROM users, events WHERE u_id = e_user",
//!     OptimizerMode::Compliant,
//!     Some(Location::new("US")),
//! );
//! assert_eq!(rejected.unwrap_err().kind(), "rejected");
//! ```

pub use geoqp_common as common;
pub use geoqp_core as core;
pub use geoqp_exec as exec;
pub use geoqp_expr as expr;
pub use geoqp_net as net;
pub use geoqp_parser as parser;
pub use geoqp_plan as plan;
pub use geoqp_policy as policy;
pub use geoqp_runtime as runtime;
pub use geoqp_server as server;
pub use geoqp_storage as storage;
pub use geoqp_tpch as tpch;

/// The most commonly used items in one import.
pub mod prelude {
    pub use geoqp_common::{
        CancelToken, ChurnEvent, DataType, Field, GeoError, Location, LocationPattern, LocationSet,
        QueryDeadline, Result, Row, Rows, RunControl, Schema, TableRef, Value,
    };
    pub use geoqp_core::{
        CatalogService, CheckpointStore, ChurnOpts, Engine, ExecOptions, ExecutionResult,
        OptimizedQuery, OptimizerMode, ParallelResult, QueryOutcome, RuntimeConfig, RuntimeMetrics,
    };
    pub use geoqp_exec::RetryPolicy;
    pub use geoqp_expr::{AggCall, AggFunc, ScalarExpr};
    pub use geoqp_net::{
        FaultPlan, HealthConfig, HedgeConfig, NetworkTopology, StepWindow, TransferLog,
    };
    pub use geoqp_plan::{LogicalPlan, PlanBuilder};
    pub use geoqp_policy::{PolicyCatalog, PolicyEvaluator, PolicyExpression, ShipAttrs};
    pub use geoqp_server::{
        QueryReply, QueryRequest, QueryService, QueryTicket, ServiceConfig, TenantConfig, TenantId,
        TenantStats,
    };
    pub use geoqp_storage::{Catalog, Table, TableStats};
}
