//! Experiment implementations, one module per paper artifact family.

pub mod ablation;
pub mod churn;
pub mod effectiveness;
pub mod failover;
pub mod grayfail;
pub mod optimizer;
pub mod overhead;
pub mod quality;
pub mod scalability;
pub mod setup;

pub use setup::engine_with_policies;
