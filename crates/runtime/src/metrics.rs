//! Observability for one run.

use crate::exchange::ExchangeStats;
use geoqp_common::Location;
use std::collections::BTreeMap;
use std::fmt;

/// Per-site activity during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteMetrics {
    /// Plan fragments the site's workers executed.
    pub fragments: u32,
    /// Logical fault-clock steps the site consumed: one per scan attempt
    /// and one per batch-send attempt (retries included). Deterministic
    /// for a given plan and fault schedule.
    pub busy_steps: u64,
    /// Simulated time at which the site's last fragment finished
    /// producing, ms.
    pub busy_ms: f64,
    /// Morsel tasks the site's pool dispatched when intra-fragment
    /// parallelism is on (zero otherwise). Deterministic for a given
    /// plan and morsel size.
    pub morsels: u64,
}

/// Per-exchange-edge activity during one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeMetrics {
    /// Pre-order SHIP index.
    pub edge: usize,
    /// Producer site.
    pub from: Location,
    /// Consumer site.
    pub to: Location,
    /// Hand-off counters: batches and bytes.
    pub stats: ExchangeStats,
    /// Simulated time the stream's last byte arrived, ms.
    pub arrival_ms: f64,
}

/// The runtime's report for one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeMetrics {
    /// Simulated completion time of the whole query: the root fragment's
    /// critical path over exchange arrivals, ms: independent edges
    /// overlap instead of queueing.
    pub completion_ms: f64,
    /// Total simulated network time across all batches, ms — one α per
    /// edge, β per byte, header bytes charged once per stream.
    pub network_ms: f64,
    /// Batches exchanged.
    pub batches: u64,
    /// Serialized bytes exchanged.
    pub bytes: u64,
    /// Always 0: every producer runs before its consumer, so no consumer
    /// waits. Kept because the benchmark adapter reports it as
    /// `runtime.stalls`.
    pub stalls: u64,
    /// Per-site breakdown.
    pub sites: BTreeMap<Location, SiteMetrics>,
    /// Per-edge breakdown, in pre-order SHIP order.
    pub edges: Vec<EdgeMetrics>,
}

impl RuntimeMetrics {
    /// Speedup of the critical path over paying every transfer
    /// back to back (1.0 when there is nothing to overlap).
    pub fn overlap_speedup(&self) -> f64 {
        if self.completion_ms > 0.0 {
            self.network_ms / self.completion_ms
        } else {
            1.0
        }
    }
}

impl fmt::Display for RuntimeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "completion {:.3} ms  (network total {:.3} ms, overlap speedup {:.2}x)",
            self.completion_ms,
            self.network_ms,
            self.overlap_speedup()
        )?;
        writeln!(
            f,
            "exchanged {} batches / {} bytes",
            self.batches, self.bytes
        )?;
        for (site, m) in &self.sites {
            writeln!(
                f,
                "site {site}: {} fragment(s), {} busy step(s), done at {:.3} ms",
                m.fragments, m.busy_steps, m.busy_ms
            )?;
            if m.morsels > 0 {
                writeln!(f, "  morsel pool: {} morsel(s)", m.morsels)?;
            }
        }
        for e in &self.edges {
            writeln!(
                f,
                "edge #{} {} -> {}: {} batch(es), {} bytes, arrival {:.3} ms",
                e.edge, e.from, e.to, e.stats.batches, e.stats.bytes, e.arrival_ms
            )?;
        }
        Ok(())
    }
}
