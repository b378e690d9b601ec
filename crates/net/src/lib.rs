//! # geoqp-net
//!
//! The geo-distributed network substrate: a **message cost model** and a
//! transfer simulator.
//!
//! The paper (Section 7.4) simulates a WAN in which shipping `b` bytes from
//! site `i` to site `j` costs `α_ij + β_ij · b`, with `α` obtained from
//! ping round-trips and `β` from measured transfer throughput. This crate
//! reproduces that model with a configurable [`NetworkTopology`] (including
//! a built-in five-region WAN matching the paper's Europe / Africa / Asia /
//! North America / Middle East setup) and a [`TransferLog`] that records
//! every simulated SHIP with its real byte volume.

//!
//! The simulator can also inject faults: a deterministic, seedable
//! [`FaultPlan`] schedules per-link drops/delays/partitions and per-site
//! crash windows over logical steps, and the [`TransferLog`] records
//! both deliveries (with their attempt counts) and dropped attempts.
//!
//! Gray faults — sustained degradation and loss bursts rather than clean
//! failures — get their own defense layer: a [`LinkHealth`] table scores
//! observed transfer cost against the `α + β·b` prediction and drives
//! per-link circuit breakers, while [`hedge`] implements compliant hedged
//! backup transfers (duplicate or one-hop relay, restricted to the
//! producing subtree's shipping trait).

pub mod fault;
pub mod health;
pub mod hedge;
pub mod replication;
pub mod sim;
pub mod topology;

pub use fault::{FaultPlan, FaultVerdict, StepWindow};
pub use health::{BreakerState, HealthConfig, LinkHealth, LinkReport, LinkState, RelayEvent};
pub use hedge::{
    backup_beats, hedge_step, plan_hedge_with, run_hedge, HedgeConfig, HedgeLeg, HedgeRun,
};
pub use replication::{CatalogGossip, CATALOG_SYNC_SALT};
pub use sim::{FaultEvent, TransferLog, TransferRecord};
pub use topology::NetworkTopology;
