//! Transfer accounting for simulated SHIP operators.

use crate::topology::NetworkTopology;
use geoqp_common::Location;

/// One recorded cross-site transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// Logical step at which the batch was delivered (0 when no fault
    /// plan was consulted): the key that makes log aggregation
    /// order-stable.
    pub step: u64,
    /// Source site.
    pub from: Location,
    /// Destination site.
    pub to: Location,
    /// Exact serialized bytes moved.
    pub bytes: u64,
    /// Rows moved.
    pub rows: u64,
    /// Simulated cost in ms under the message cost model, including any
    /// injected delay and retry backoff spent getting the batch through.
    pub cost_ms: f64,
    /// Attempts it took to deliver the batch (1 = first try).
    pub attempts: u32,
}

/// One dropped transfer attempt, recorded when fault injection is active.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Logical step of the failed attempt.
    pub step: u64,
    /// Source site of the attempt.
    pub from: Location,
    /// Destination site of the attempt.
    pub to: Location,
    /// Why the attempt failed.
    pub reason: String,
}

/// Accumulates every SHIP performed while executing a distributed plan.
/// The totals here are the "execution cost that arises from shipping
/// intermediate query data between geo-distributed sites" that the paper's
/// plan-quality experiment (Figures 6(g), 6(h)) reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TransferLog {
    records: Vec<TransferRecord>,
    faults: Vec<FaultEvent>,
}

impl TransferLog {
    /// Empty log.
    pub fn new() -> TransferLog {
        TransferLog::default()
    }

    /// Record a first-try transfer, computing its cost under `topology`.
    pub fn record(
        &mut self,
        topology: &NetworkTopology,
        from: &Location,
        to: &Location,
        bytes: u64,
        rows: u64,
    ) -> f64 {
        self.record_delivery(topology, from, to, bytes, rows, 1, 0.0, 0)
    }

    /// Record a delivered transfer that took `attempts` tries, adding
    /// `extra_ms` of injected delay plus retry backoff to its cost.
    /// `step` is the logical step of the delivering attempt (0 when no
    /// fault plan is consulted).
    #[allow(clippy::too_many_arguments)]
    pub fn record_delivery(
        &mut self,
        topology: &NetworkTopology,
        from: &Location,
        to: &Location,
        bytes: u64,
        rows: u64,
        attempts: u32,
        extra_ms: f64,
        step: u64,
    ) -> f64 {
        let cost_ms = topology.ship_cost_ms(from, to, bytes as f64) + extra_ms;
        self.records.push(TransferRecord {
            step,
            from: from.clone(),
            to: to.clone(),
            bytes,
            rows,
            cost_ms,
            attempts,
        });
        cost_ms
    }

    /// Append an already-costed record (the fragment runtime charges
    /// per-batch costs itself: the link's startup cost α is paid once per
    /// exchange stream, not once per batch).
    pub fn push(&mut self, record: TransferRecord) {
        self.records.push(record);
    }

    /// Record a dropped transfer attempt.
    pub fn record_fault(&mut self, step: u64, from: &Location, to: &Location, reason: String) {
        self.faults.push(FaultEvent {
            step,
            from: from.clone(),
            to: to.clone(),
            reason,
        });
    }

    /// All records, in execution order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Number of SHIPs performed.
    pub fn transfer_count(&self) -> usize {
        self.records.len()
    }

    /// Total bytes moved across sites.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Total rows moved across sites.
    pub fn total_rows(&self) -> u64 {
        self.records.iter().map(|r| r.rows).sum()
    }

    /// Total simulated shipping cost in ms.
    pub fn total_cost_ms(&self) -> f64 {
        // fold, not sum(): an empty f64 sum is -0.0, which would render
        // as "-0.0 ms" for transfer-free queries.
        self.records.iter().fold(0.0, |acc, r| acc + r.cost_ms)
    }

    /// All dropped attempts, in execution order.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Number of dropped attempts.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Append another log's records and fault events (used when a failed
    /// execution's transfers are folded into its failover's log).
    pub fn absorb(&mut self, other: TransferLog) {
        self.records.extend(other.records);
        self.faults.extend(other.faults);
    }

    /// Clear the log.
    pub fn reset(&mut self) {
        self.records.clear();
        self.faults.clear();
    }

    /// Sort records and fault events into the canonical reporting order:
    /// `(step, from, to, bytes, rows)` for deliveries and
    /// `(step, from, to, reason)` for drops.
    ///
    /// The fragment runtime appends records in its walk order (every
    /// producer before its consumer), which is not the grid-step order
    /// golden snapshots and failover matrices report in; and
    /// `total_cost_ms` sums the records in this order, so the sorted
    /// order also fixes the floating-point total. (The sort is stable:
    /// records that tie on the whole key keep their walk order.)
    pub fn normalize(&mut self) {
        self.records.sort_by(|a, b| {
            (a.step, &a.from, &a.to, a.bytes, a.rows)
                .cmp(&(b.step, &b.from, &b.to, b.bytes, b.rows))
        });
        self.faults.sort_by(|a, b| {
            (a.step, &a.from, &a.to, &a.reason).cmp(&(b.step, &b.from, &b.to, &b.reason))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_totals() {
        let topo = NetworkTopology::paper_wan();
        let mut log = TransferLog::new();
        let c1 = log.record(&topo, &Location::new("L1"), &Location::new("L3"), 1000, 10);
        let c2 = log.record(&topo, &Location::new("L4"), &Location::new("L1"), 2000, 20);
        assert_eq!(log.transfer_count(), 2);
        assert_eq!(log.total_bytes(), 3000);
        assert_eq!(log.total_rows(), 30);
        assert!((log.total_cost_ms() - (c1 + c2)).abs() < 1e-9);
        log.reset();
        assert_eq!(log.transfer_count(), 0);
        assert_eq!(log.total_cost_ms(), 0.0);
    }

    #[test]
    fn deliveries_carry_attempts_and_extra_cost() {
        let topo = NetworkTopology::paper_wan();
        let mut log = TransferLog::new();
        let base = log.record(&topo, &Location::new("L1"), &Location::new("L3"), 1000, 10);
        log.record_fault(5, &Location::new("L1"), &Location::new("L3"), "drop".into());
        let retried = log.record_delivery(
            &topo,
            &Location::new("L1"),
            &Location::new("L3"),
            1000,
            10,
            3,
            40.0,
            7,
        );
        assert_eq!(log.records()[0].attempts, 1);
        assert_eq!(log.records()[1].attempts, 3);
        assert_eq!(log.records()[1].step, 7);
        assert!((retried - (base + 40.0)).abs() < 1e-9);
        assert_eq!(log.fault_count(), 1);
        assert_eq!(log.fault_events()[0].step, 5);
        log.reset();
        assert_eq!(log.fault_count(), 0);
    }

    #[test]
    fn normalize_orders_by_step_then_endpoints() {
        let topo = NetworkTopology::paper_wan();
        // Two logs with the same deliveries in different thread-arrival
        // orders must normalize to the same byte-identical sequence.
        let mut a = TransferLog::new();
        let mut b = TransferLog::new();
        let l = |n: &str| Location::new(n);
        a.record_delivery(&topo, &l("L4"), &l("L1"), 2000, 20, 1, 0.0, 3);
        a.record_delivery(&topo, &l("L1"), &l("L3"), 1000, 10, 1, 0.0, 3);
        a.record_delivery(&topo, &l("L2"), &l("L1"), 500, 5, 1, 0.0, 1);
        a.record_fault(2, &l("L2"), &l("L1"), "drop".into());
        a.record_fault(0, &l("L1"), &l("L3"), "drop".into());
        b.record_delivery(&topo, &l("L2"), &l("L1"), 500, 5, 1, 0.0, 1);
        b.record_delivery(&topo, &l("L1"), &l("L3"), 1000, 10, 1, 0.0, 3);
        b.record_delivery(&topo, &l("L4"), &l("L1"), 2000, 20, 1, 0.0, 3);
        b.record_fault(0, &l("L1"), &l("L3"), "drop".into());
        b.record_fault(2, &l("L2"), &l("L1"), "drop".into());
        a.normalize();
        b.normalize();
        assert_eq!(a, b);
        assert_eq!(a.records()[0].step, 1);
        assert_eq!(a.records()[1].from, l("L1"));
        assert_eq!(a.fault_events()[0].step, 0);
    }

    #[test]
    fn intra_site_record_is_free() {
        let topo = NetworkTopology::paper_wan();
        let mut log = TransferLog::new();
        let c = log.record(&topo, &Location::new("L1"), &Location::new("L1"), 1000, 10);
        assert_eq!(c, 0.0);
    }
}
