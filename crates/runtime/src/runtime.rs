//! The runtime: a located plan cut into per-site fragments at its SHIP
//! edges, each fragment run on the caller's thread, one hand-off per
//! edge, deterministic fault charging, and a per-batch Definition-1
//! compliance audit.
//!
//! # Order and determinism
//!
//! Producer fragments run in [`Cut::walk`] order — left-to-right
//! post-order of their edges, the order a recursive evaluation of the
//! plan completes its SHIPs in — and then the root fragment, so every
//! producer has delivered before its consumer reads the edge. Fault
//! verdicts do not depend on that order: every fault-clock
//! consultation has a **pre-computed step** — slot `s` (the edge's or
//! scan's pre-order index) at attempt `a` consults step
//! `(a-1)·n_slots + s` — and [`FaultPlan::check_transfer`] is a pure
//! function of the step. Revocations are checked on the walk itself: the
//! edge shipped `p`-th checks churn step `p`, so a revocation released at
//! step `p` lets exactly the `p` edges before it drain. Either way
//! verdicts, results, errors, transfer logs and shipped bytes are
//! functions of the plan and the seed.
//!
//! # Cost model
//!
//! A fragment's output is adjudicated as a stream of `batch_rows`-row
//! batches and then handed to its consumer whole. Each stream pays its
//! link's startup cost `α` once (on the first batch) and `β` per
//! serialized byte; the 8-byte batch header is charged once per stream,
//! so a stream costs exactly what one monolithic transfer of its bytes
//! would. Completion time is the root fragment's critical path over
//! exchange arrivals.
//!
//! [`Cut::walk`]: crate::fragment::Cut::walk
//! [`FaultPlan::check_transfer`]: geoqp_net::FaultPlan::check_transfer

use crate::checkpoint::CheckpointSpec;
use crate::exchange::{Exchange, CANCELLED};
use crate::fragment::{cut, Cut, Edge};
use crate::metrics::{EdgeMetrics, RuntimeMetrics, SiteMetrics};
use crate::morsel::{MorselPool, PoolRunner};
use crate::ship::{ShipEdge, ShipEnv};
use geoqp_common::{ColumnarBatch, GeoError, Location, LocationSet, Result, Rows};
use geoqp_exec::{
    execute_fragment, execute_fragment_columnar, DataSource, ExchangeSource, LocalShip,
    MorselRunner, SERIAL,
};
use geoqp_net::TransferLog;
use geoqp_plan::{node_key, PhysOp, PhysicalPlan};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Knobs for the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Rows per adjudicated batch: the unit of audit, fault verdict, cost
    /// and transfer-log record on every SHIP edge.
    pub batch_rows: usize,
    /// Run every fragment on the vectorized columnar engine (the
    /// default; `false` is the row interpreter tests keep as their
    /// oracle). Either way an exchange hands over one `Arc`'d batch and
    /// bytes are charged from column metadata — provably equal to the row
    /// encoding's size — so transfer logs, audits, and fault replay are
    /// identical between the two.
    pub columnar: bool,
    /// Rows per morsel when columnar kernels split their work for the
    /// per-site worker pool.
    pub morsel_rows: usize,
    /// CPU workers per site for intra-fragment morsel parallelism: the
    /// caller's thread plus `workers_per_site - 1` pooled threads.
    /// `1` (the default) disables pooling — kernels run their morsels
    /// inline. Only the columnar engine dispatches morsels; results are
    /// bit-identical at every worker count (deterministic merge order),
    /// so this knob trades threads for latency, never answers.
    pub workers_per_site: usize,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            batch_rows: 256,
            columnar: true,
            morsel_rows: 2048,
            workers_per_site: 1,
        }
    }
}

/// The output of one execution.
#[derive(Debug)]
pub struct RunOutput {
    /// Result rows at the plan's root location.
    pub rows: Rows,
    /// Every batch delivery and dropped attempt, normalized to the
    /// canonical `(step, from, to)` order.
    pub transfers: TransferLog,
    /// Per-site and per-edge observability.
    pub metrics: RuntimeMetrics,
}

/// The executor of located plans.
pub struct Runtime<'a> {
    env: ShipEnv<'a>,
    config: RuntimeConfig,
    specs: Vec<CheckpointSpec>,
}

impl<'a> Runtime<'a> {
    /// A runtime adjudicating every transfer and leaf read against `env`
    /// (topology, faults, controls, checkpoint store, hedging, churn).
    /// Each edge's health lane is its pre-order slot, so the observation
    /// stream — and therefore breaker state — is a pure function of the
    /// seeded fault grid.
    pub fn new(env: ShipEnv<'a>) -> Runtime<'a> {
        Runtime {
            env,
            config: RuntimeConfig::default(),
            specs: Vec::new(),
        }
    }

    /// Override the exchange configuration.
    pub fn with_config(mut self, config: RuntimeConfig) -> Runtime<'a> {
        self.config = config;
        self
    }

    /// One [`CheckpointSpec`] per SHIP edge (pre-order, same order as the
    /// audit traits), required when `env` carries a checkpoint store:
    /// each fully drained edge's output is retained under its spec.
    pub fn with_specs(mut self, specs: Vec<CheckpointSpec>) -> Runtime<'a> {
        self.specs = specs;
        self
    }

    /// Execute `plan`, fragment by fragment, on the caller's thread.
    ///
    /// `audits`, when given, holds the shipping trait `𝒮` of each SHIP's
    /// input in pre-order; every batch is checked against its edge's set
    /// before leaving the producer site, and a violation aborts the run
    /// with [`GeoError::NonCompliant`] — the Definition-1 runtime audit.
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        source: &dyn DataSource,
        audits: Option<&[LocationSet]>,
    ) -> Result<RunOutput> {
        let (result, transfers) = self.try_run(plan, source, audits);
        let (rows, metrics) = result?;
        Ok(RunOutput {
            rows,
            transfers,
            metrics,
        })
    }

    /// [`Runtime::run`], but the normalized transfer log — including the
    /// dropped attempts of a failed run — is returned either way, so a
    /// failover path can fold it into its evidence.
    pub fn try_run(
        &self,
        plan: &PhysicalPlan,
        source: &dyn DataSource,
        audits: Option<&[LocationSet]>,
    ) -> (Result<(Rows, RuntimeMetrics)>, TransferLog) {
        let cut = match cut(plan) {
            Ok(c) => c,
            Err(e) => return (Err(e), TransferLog::new()),
        };
        if let Some(a) = audits {
            if a.len() != cut.edges.len() {
                return (
                    Err(GeoError::Execution(format!(
                        "runtime audit covers {} SHIP edges but the plan has {}",
                        a.len(),
                        cut.edges.len()
                    ))),
                    TransferLog::new(),
                );
            }
        }
        if self.env.store.is_some() && self.specs.len() != cut.edges.len() {
            return (
                Err(GeoError::Execution(format!(
                    "checkpoint specs cover {} SHIP edges but the plan has {}",
                    self.specs.len(),
                    cut.edges.len()
                ))),
                TransferLog::new(),
            );
        }
        let shared = Shared::new(&cut);

        // One shared morsel pool per fragment-hosting site, so every
        // fragment a site runs draws CPU workers from the same pool.
        // Pools live exactly as long as this run: dropping the map at
        // return joins every worker thread, so runs never leak threads.
        let pools: BTreeMap<Location, MorselPool> =
            if self.config.columnar && self.config.workers_per_site > 1 {
                let mut sites: BTreeSet<Location> = BTreeSet::new();
                sites.insert(plan.location.clone());
                for edge in &cut.edges {
                    sites.insert(edge.from.clone());
                }
                sites
                    .into_iter()
                    .map(|s| (s, MorselPool::new(self.config.workers_per_site)))
                    .collect()
            } else {
                BTreeMap::new()
            };
        let runner_for =
            |site: &Location| pools.get(site).map(|p| p.runner(self.config.morsel_rows));

        // Post-order: every edge inside a producer's subtree has been
        // delivered (or torn down) before the producer reads it.
        for &id in &cut.walk {
            let edge = &cut.edges[id];
            self.run_producer(edge, &shared, source, audits, runner_for(&edge.from));
        }
        let root = self.run_root(plan, &shared, source, runner_for(&plan.location));

        // Attribute pool activity to its site before the metrics freeze.
        for (site, pool) in &pools {
            let morsels = pool.morsels();
            if morsels > 0 {
                let mut sites = shared.sites.borrow_mut();
                sites.entry(site.clone()).or_default().morsels += morsels;
            }
        }

        let mut errors = shared.errors.into_inner();
        let mut log = shared.log.into_inner();
        log.normalize();
        if !errors.is_empty() {
            // Deterministic winner: the failure at the lowest pre-order
            // slot. Token cancellations rank last — when a real failure
            // and a cancellation both landed, the originating failure is
            // the answer.
            errors.sort_by_key(|(slot, e)| (matches!(e, GeoError::Cancelled(_)), *slot));
            return (Err(errors.remove(0).1), log);
        }
        let Some((rows, completion_ms)) = root else {
            let e = GeoError::Execution("root fragment finished without a result".into());
            return (Err(e), log);
        };

        let edges = cut
            .edges
            .iter()
            .zip(&shared.exchanges)
            .map(|(e, ex)| EdgeMetrics {
                edge: e.id,
                from: e.from.clone(),
                to: e.to.clone(),
                stats: ex.stats(),
                arrival_ms: ex.arrival_ms(),
            })
            .collect::<Vec<_>>();
        let metrics = RuntimeMetrics {
            completion_ms,
            network_ms: log.total_cost_ms(),
            batches: edges.iter().map(|e| e.stats.batches).sum(),
            bytes: log.total_bytes(),
            stalls: 0,
            sites: shared.sites.into_inner(),
            edges,
        };
        (Ok((rows, metrics)), log)
    }

    /// The root fragment: evaluate it over its delivered edges and check
    /// its completion against the deadline. `None` when it failed (the
    /// failure is recorded in `shared`).
    fn run_root(
        &self,
        plan: &PhysicalPlan,
        shared: &Shared<'_, '_>,
        source: &dyn DataSource,
        runner: Option<PoolRunner>,
    ) -> Option<(Rows, f64)> {
        let view = FragmentView::new(self, shared, source, runner);
        let result = if self.config.columnar {
            execute_fragment_columnar(plan, source, &mut LocalShip, &view).map(|b| b.to_rows())
        } else {
            execute_fragment(plan, source, &mut LocalShip, &view)
        };
        let done = result.and_then(|rows| {
            let done_ms = view.ready_ms();
            self.env
                .control
                .check(done_ms, "root fragment completion")?;
            Ok((rows, done_ms))
        });
        match done {
            Ok((rows, done_ms)) => {
                shared.note_site(&plan.location, view.attempts.get(), done_ms);
                Some((rows, done_ms))
            }
            Err(e) => {
                shared.fail(shared.exchanges.len(), e);
                None
            }
        }
    }

    /// One producer fragment: evaluate the edge's subtree, adjudicate the
    /// output as a stream, then hand it over.
    fn run_producer(
        &self,
        edge: &Edge<'_>,
        shared: &Shared<'_, '_>,
        source: &dyn DataSource,
        audits: Option<&[LocationSet]>,
        runner: Option<PoolRunner>,
    ) {
        let view = FragmentView::new(self, shared, source, runner);
        let result = if self.config.columnar {
            execute_fragment_columnar(edge.subtree(), source, &mut LocalShip, &view)
                .map(|b| b.materialize_all(view.runner()))
        } else {
            // The row oracle's output is laid out as columns once, here.
            let arity = edge.ship.schema.len();
            execute_fragment(edge.subtree(), source, &mut LocalShip, &view)
                .map(|rows| Arc::new(ColumnarBatch::from_rows(rows.rows(), arity)))
        };
        let ready_ms = view.ready_ms();
        // The stream logs locally and publishes once, success or failure:
        // dropped attempts are evidence the failover path reports.
        let mut log = TransferLog::new();
        let outcome = result.and_then(|output| {
            self.stream(
                edge,
                output,
                ready_ms,
                view.attempts.get(),
                shared,
                audits,
                &mut log,
            )
        });
        shared.log.borrow_mut().absorb(log);
        if let Err(e) = outcome {
            shared.fail(edge.id, e);
        }
    }

    /// Walk `output` in batches of `batch_rows`, adjudicate each through
    /// the edge's [`ShipStream`](crate::ship::ShipStream) — priced from
    /// its row range, nothing is copied — and, once every batch has been
    /// delivered on the simulated wire, hand the producer's own
    /// allocation to the consumer.
    #[allow(clippy::too_many_arguments)]
    fn stream(
        &self,
        edge: &Edge<'_>,
        output: Arc<ColumnarBatch>,
        ready_ms: f64,
        fragment_attempts: u64,
        shared: &Shared<'_, '_>,
        audits: Option<&[LocationSet]>,
        log: &mut TransferLog,
    ) -> Result<()> {
        let total = output.len();
        let batch_rows = self.config.batch_rows.max(1);
        // An empty result still ships one (empty) batch: every edge
        // pays its header and is one record at least.
        let n_batches = total.div_ceil(batch_rows).max(1);
        let mut ship = self.env.open(ShipEdge {
            from: &edge.from,
            to: &edge.to,
            legal: audits.map(|a| &a[edge.id]),
            slot: edge.id as u64,
            n_slots: shared.cut.n_slots(),
            order: edge.order as u64,
            ready_ms,
        });

        let mut shipped = 0;
        for i in 0..n_batches {
            let lo = (i * batch_rows).min(total);
            let hi = ((i + 1) * batch_rows).min(total);
            // `encoded_size_of` is exactly what the row encoding of these
            // rows costs; the stream pays its 8-byte header only once.
            let sz = output.encoded_size_of(lo, hi - lo) as u64;
            let bytes = if i == 0 { sz } else { sz - 8 };
            ship.ship_batch(bytes, (hi - lo) as u64, log)?;
            shipped += bytes;
        }
        // Every producer adjudicates to its own verdict, log, and
        // checkpoint, so what a failed attempt leaves behind is a function
        // of the seed.
        let arrival_ms = ship.arrival_ms();
        shared.exchanges[edge.id].deliver(
            Arc::clone(&output),
            n_batches as u64,
            shipped,
            arrival_ms,
        );
        shared.note_site(&edge.from, fragment_attempts + ship.attempts(), arrival_ms);
        ship.finish(self.specs.get(edge.id).map(|spec| (spec, output)))
    }
}

/// State shared by every fragment of one run.
struct Shared<'c, 'p> {
    cut: &'c Cut<'p>,
    exchanges: Vec<Exchange>,
    log: RefCell<TransferLog>,
    /// `(pre-order slot, error)` per failed fragment; the root fragment
    /// uses slot `edges.len()`.
    errors: RefCell<Vec<(usize, GeoError)>>,
    sites: RefCell<BTreeMap<Location, SiteMetrics>>,
}

impl<'c, 'p> Shared<'c, 'p> {
    fn new(cut: &'c Cut<'p>) -> Shared<'c, 'p> {
        Shared {
            cut,
            exchanges: cut.edges.iter().map(|_| Exchange::default()).collect(),
            log: RefCell::new(TransferLog::new()),
            errors: RefCell::new(Vec::new()),
            sites: RefCell::new(BTreeMap::new()),
        }
    }

    /// Record the failure of the fragment at `slot` (unless it is
    /// cancellation fallout) and tear down only that fragment's own
    /// edges: its output edge, so the failure propagates downstream, and
    /// its input edges, so their outputs are dropped. Every other
    /// fragment runs to its own verdict, which makes the recorded error
    /// set — and the lowest-slot winner — a function of the seed.
    fn fail(&self, slot: usize, e: GeoError) {
        let is_propagated = matches!(&e, GeoError::Execution(m) if m == CANCELLED);
        if !is_propagated {
            self.errors.borrow_mut().push((slot, e));
        }
        // The root fragment's slot is one past the last edge.
        let fragment = (slot < self.exchanges.len()).then_some(slot);
        for (edge, ex) in self.cut.edges.iter().zip(&self.exchanges) {
            if Some(edge.id) == fragment || edge.consumer == fragment {
                ex.cancel();
            }
        }
    }

    fn note_site(&self, site: &Location, busy_steps: u64, busy_ms: f64) {
        let mut sites = self.sites.borrow_mut();
        let m = sites.entry(site.clone()).or_default();
        m.fragments += 1;
        m.busy_steps += busy_steps;
        m.busy_ms = m.busy_ms.max(busy_ms);
    }
}

/// One fragment's view of the exchange plane: intercepts boundary Ship
/// nodes (taking their producers' outputs) and scan nodes (counting
/// attempts and, under faults, consulting the crash schedule at
/// deterministic steps).
struct FragmentView<'r, 's> {
    runtime: &'r Runtime<'r>,
    shared: &'s Shared<'s, 's>,
    source: &'s dyn DataSource,
    /// Max arrival time over the streams this fragment consumed.
    max_arrival_ms: Cell<f64>,
    /// Simulated local delay (scan retry backoff) accumulated here.
    local_extra_ms: Cell<f64>,
    /// Logical steps consumed by this fragment's scans.
    attempts: Cell<u64>,
    /// The site's shared morsel pool, when intra-fragment parallelism is
    /// on. `None` keeps the inline serial runner.
    runner: Option<PoolRunner>,
}

impl<'r, 's> FragmentView<'r, 's> {
    fn new(
        runtime: &'r Runtime<'r>,
        shared: &'s Shared<'s, 's>,
        source: &'s dyn DataSource,
        runner: Option<PoolRunner>,
    ) -> FragmentView<'r, 's> {
        FragmentView {
            runtime,
            shared,
            source,
            max_arrival_ms: Cell::new(0.0),
            local_extra_ms: Cell::new(0.0),
            attempts: Cell::new(0),
            runner,
        }
    }

    /// When this fragment's output is fully produced, in simulated ms.
    fn ready_ms(&self) -> f64 {
        self.max_arrival_ms.get() + self.local_extra_ms.get()
    }

    /// Take one boundary edge's delivered output.
    fn take_edge(&self, id: usize) -> Result<Arc<ColumnarBatch>> {
        let (output, arrival_ms) = self.shared.exchanges[id].take()?;
        self.max_arrival_ms
            .set(self.max_arrival_ms.get().max(arrival_ms));
        Ok(output)
    }

    /// Gate a leaf read on its site's availability at the leaf's scan
    /// slot of the deterministic step grid, charging retry backoff to
    /// this fragment's local simulated time.
    fn site_gate(&self, node: &PhysicalPlan, what: &str) -> Result<()> {
        let cut = self.shared.cut;
        let slot = (cut.edges.len() + cut.scan_slot[&node_key(node)]) as u64;
        let gated = (self.runtime.env).leaf_gate(&node.location, what, slot, cut.n_slots())?;
        self.attempts
            .set(self.attempts.get() + gated.attempts as u64);
        self.local_extra_ms
            .set(self.local_extra_ms.get() + gated.backoff_ms);
        Ok(())
    }

    /// A resume leaf: read a retained checkpoint homed at this node's
    /// site, gated on that site's crash windows like any other leaf.
    fn resume(&self, node: &PhysicalPlan, fingerprint: u64) -> Result<Arc<ColumnarBatch>> {
        self.site_gate(node, &format!("resume of checkpoint {fingerprint:016x}"))?;
        self.runtime.env.resume(fingerprint, &node.location)
    }
}

impl ExchangeSource for FragmentView<'_, '_> {
    /// What `node` evaluates to when it is supplied from outside this
    /// fragment's interpreter, for both engines: cancel poll → boundary
    /// edge → gated scan → resume.
    fn fetch(&self, node: &PhysicalPlan) -> Option<Result<Arc<ColumnarBatch>>> {
        // Cooperative cancellation, polled per plan node: even a fragment
        // doing pure local compute notices an abort between operators.
        if let Err(e) = self.runtime.env.control.check_cancel(&format!(
            "{} at {}",
            node.op.name(),
            node.location
        )) {
            return Some(Err(e));
        }
        if let Some(&id) = self.shared.cut.edge_of.get(&node_key(node)) {
            return Some(self.take_edge(id));
        }
        match &node.op {
            PhysOp::Scan { table } => Some(
                self.site_gate(node, &format!("scan of {table}"))
                    .and_then(|()| self.source.scan(table, &node.location)),
            ),
            PhysOp::ResumeScan { fingerprint, .. } => Some(self.resume(node, *fingerprint)),
            _ => None,
        }
    }

    fn runner(&self) -> &dyn MorselRunner {
        match &self.runner {
            Some(r) => r,
            None => &SERIAL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, Row, Schema, TableRef, Value};
    use geoqp_exec::MapSource;
    use geoqp_net::NetworkTopology;

    #[test]
    fn a_join_crossing_an_edge_arrives_gathered_at_the_row_engines_bytes() {
        let int = |i: i64| {
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int64(i % 40)
            }
        };
        let build: Vec<Row> = (0..60)
            .map(|i| {
                vec![
                    int(i),
                    Value::str(format!("b{}", i % 7)),
                    Value::Float64(i as f64),
                ]
            })
            .collect();
        let probe: Vec<Row> = (0..500)
            .map(|i| {
                vec![
                    int(i),
                    Value::Date(i as i32),
                    Value::str(format!("p{}", i % 3)),
                ]
            })
            .collect();
        let mut source = MapSource::new();
        source.insert(
            TableRef::bare("build"),
            Location::new("L1"),
            Rows::from_rows(build),
        );
        source.insert(
            TableRef::bare("probe"),
            Location::new("L1"),
            Rows::from_rows(probe),
        );
        let scan = |table: &str, fields: [(&str, DataType); 3]| {
            let fields = fields.map(|(n, t)| Field::new(n, t)).to_vec();
            let op = PhysOp::Scan {
                table: TableRef::bare(table),
            };
            let schema = Arc::new(Schema::new(fields).unwrap());
            Arc::new(PhysicalPlan::new(op, schema, Location::new("L1"), vec![]).unwrap())
        };
        let (b, p) = (
            scan(
                "build",
                [
                    ("bk", DataType::Int64),
                    ("bs", DataType::Str),
                    ("bx", DataType::Float64),
                ],
            ),
            scan(
                "probe",
                [
                    ("pk", DataType::Int64),
                    ("pd", DataType::Date),
                    ("ps", DataType::Str),
                ],
            ),
        );
        let join = PhysicalPlan::new(
            PhysOp::HashJoin {
                left_keys: vec!["bk".into()],
                right_keys: vec!["pk".into()],
                filter: None,
            },
            Arc::new(b.schema.join(&p.schema).unwrap()),
            Location::new("L1"),
            vec![b, p],
        );
        let plan = PhysicalPlan::ship(Arc::new(join.unwrap()), Location::new("L4"));
        let topology = NetworkTopology::paper_wan();

        let run = |columnar: bool, pool: Option<&MorselPool>| {
            let runtime = Runtime::new(ShipEnv::new(&topology)).with_config(RuntimeConfig {
                batch_rows: 64,
                columnar,
                ..RuntimeConfig::default()
            });
            let cut = cut(&plan).unwrap();
            let shared = Shared::new(&cut);
            let runner = pool.map(|p| p.runner(128));
            runtime.run_producer(&cut.edges[0], &shared, &source, None, runner);
            let view = FragmentView::new(&runtime, &shared, &source, None);
            let got = view.fetch(&plan).unwrap().unwrap();
            assert!(shared.errors.borrow().is_empty());
            (got, shared.log.into_inner())
        };

        let (rows, row_log) = run(false, None);
        assert!(rows.len() > 500, "duplicate keys fan out: {}", rows.len());
        let pool = MorselPool::new(2);
        for pool in [None, Some(&pool)] {
            let (got, log) = run(true, pool);
            assert!(
                (0..got.arity()).all(|j| got.is_materialized(j)),
                "sizing the stream read every column: nothing pending crosses an edge"
            );
            assert_eq!(got.to_rows(), rows.to_rows());
            assert_eq!(log.total_bytes(), row_log.total_bytes());
            assert_eq!(log.transfer_count(), row_log.transfer_count());
            assert_eq!(log.total_rows(), row_log.total_rows());
        }
    }

    #[test]
    fn a_columnar_edge_hands_over_the_producers_allocation() {
        let rows: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Int64(i), Value::str(format!("s{}", i % 13))])
            .collect();
        let mut source = MapSource::new();
        source.insert(
            TableRef::bare("t"),
            Location::new("L1"),
            Rows::from_rows(rows),
        );
        let table = source
            .scan(&TableRef::bare("t"), &Location::new("L1"))
            .unwrap();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Str),
        ]);
        let scan = PhysicalPlan::new(
            PhysOp::Scan {
                table: TableRef::bare("t"),
            },
            Arc::new(schema.unwrap()),
            Location::new("L1"),
            vec![],
        );
        let plan = PhysicalPlan::ship(Arc::new(scan.unwrap()), Location::new("L4"));
        let topology = NetworkTopology::paper_wan();

        // One producer, then its consumer, on this thread: a producer
        // that could block on its consumer would hang right here.
        let run = |batch_rows: usize| {
            let runtime = Runtime::new(ShipEnv::new(&topology)).with_config(RuntimeConfig {
                batch_rows,
                columnar: true,
                ..RuntimeConfig::default()
            });
            let cut = cut(&plan).unwrap();
            let shared = Shared::new(&cut);
            runtime.run_producer(&cut.edges[0], &shared, &source, None, None);
            let view = FragmentView::new(&runtime, &shared, &source, None);
            let got = view.fetch(&plan).unwrap().unwrap();
            assert!(shared.errors.borrow().is_empty());
            (got, shared.log.into_inner())
        };

        let (got, batched) = run(7);
        assert!(
            Arc::ptr_eq(&got, &table),
            "the consumer must hold the producer's allocation, not a re-assembled copy"
        );
        // The batch is still the unit of adjudication: ⌈1000/7⌉ records,
        // which together cost exactly what one monolithic SHIP costs.
        let (_, whole) = run(usize::MAX);
        assert_eq!(batched.transfer_count(), 143);
        assert_eq!(whole.transfer_count(), 1);
        assert_eq!(batched.total_rows(), 1000);
        assert_eq!(batched.total_bytes(), whole.total_bytes());
        assert_eq!(whole.total_bytes(), table.encoded_size() as u64);
        assert!((batched.total_cost_ms() - whole.total_cost_ms()).abs() < 1e-9);
    }
}
