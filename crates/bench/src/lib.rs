//! # geoqp-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (Section 7); see `src/bin/repro.rs` for the runner.
//! Wall-clock performance is measured by the repo benchmark under
//! `benchmark/`, not here.

pub mod experiments;

pub use experiments::setup;
