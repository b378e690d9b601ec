//! # geoqp-runtime
//!
//! The one execution runtime for located plans.
//!
//! * the plan is [cut](fragment::cut) into per-site **fragments** at SHIP
//!   boundaries, and the fragments run on the caller's thread in
//!   dependency order (every producer before its consumer);
//! * SHIP becomes a **hand-off exchange**: the producer's output is
//!   adjudicated as a stream of bounded batches and then handed to the
//!   consumer whole, once ([`exchange::Exchange`]);
//! * every batch is charged through the
//!   [`NetworkTopology`](geoqp_net::NetworkTopology) cost model and the
//!   [`FaultPlan`](geoqp_net::FaultPlan) at **deterministic** logical
//!   steps of a per-plan slot grid, so results, bytes, and fault verdicts
//!   are functions of the plan and the seed;
//! * the Definition-1 **runtime compliance audit** is enforced per batch
//!   when the caller supplies the shipping traits: no batch leaves a site
//!   for a destination outside the operator's shipping trait `𝒮`;
//! * simulated completion is the critical path over exchange arrivals,
//!   and a [`RuntimeMetrics`] report exposes per-site busy steps and
//!   per-edge batches, bytes and arrival times.
//!
//! [`ship`] holds the one SHIP adjudicator (fault verdicts, retries,
//! hedging, breakers, churn, deadline, log, checkpoint capture) and the
//! one leaf gate.

pub mod checkpoint;
pub mod exchange;
pub mod fragment;
pub mod metrics;
pub mod morsel;
pub mod runtime;
pub mod ship;

pub use checkpoint::{
    fingerprint, stitch, Checkpoint, CheckpointSpec, CheckpointStore, StitchOutcome,
};
pub use exchange::{Exchange, ExchangeStats};
pub use fragment::{cut, Cut, Edge};
pub use metrics::{EdgeMetrics, RuntimeMetrics, SiteMetrics};
pub use morsel::{MorselPool, PoolRunner};
pub use runtime::{RunOutput, Runtime, RuntimeConfig};
pub use ship::{ShipEdge, ShipEnv, ShipStream};

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, Location, LocationSet, Rows, Schema, TableRef, Value};
    use geoqp_exec::{execute, MapSource, RetryPolicy, ShipHandler};
    use geoqp_expr::ScalarExpr;
    use geoqp_net::{FaultPlan, NetworkTopology, TransferLog};
    use geoqp_plan::{PhysOp, PhysicalPlan};
    use std::sync::Arc;

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    /// A whole-plan ship handler for the plain row interpreter (no
    /// faults): encode, charge one monolithic transfer, decode.
    struct CountingShip<'a> {
        topology: &'a NetworkTopology,
        log: TransferLog,
    }

    impl ShipHandler for CountingShip<'_> {
        fn ship(
            &mut self,
            from: &Location,
            to: &Location,
            rows: Rows,
            schema: &Schema,
        ) -> geoqp_common::Result<Rows> {
            let encoded = rows.encode();
            self.log.record(
                self.topology,
                from,
                to,
                encoded.len() as u64,
                rows.len() as u64,
            );
            Ok(Rows::decode(&encoded, schema.len()).unwrap())
        }
    }

    fn scan_node(table: &str, location: &str, n_cols: usize) -> Arc<PhysicalPlan> {
        let fields = (0..n_cols)
            .map(|i| Field::new(format!("c{i}"), DataType::Int64))
            .collect();
        Arc::new(
            PhysicalPlan::new(
                PhysOp::Scan {
                    table: TableRef::bare(table),
                },
                Arc::new(Schema::new(fields).unwrap()),
                loc(location),
                vec![],
            )
            .unwrap(),
        )
    }

    fn rows_i64(values: &[i64]) -> Rows {
        Rows::from_rows(values.iter().map(|v| vec![Value::Int64(*v)]).collect())
    }

    /// union(ship(t1@L1 -> L4), ship(t3@L3 -> L4)) — two independent
    /// exchange edges feeding one consumer.
    fn two_edge_plan() -> (Arc<PhysicalPlan>, MapSource) {
        let t1 = scan_node("t1", "L1", 1);
        let t3 = scan_node("t3", "L3", 1);
        let schema = Arc::clone(&t1.schema);
        let u = Arc::new(
            PhysicalPlan::new(
                PhysOp::Union,
                schema,
                loc("L4"),
                vec![
                    PhysicalPlan::ship(t1, loc("L4")),
                    PhysicalPlan::ship(t3, loc("L4")),
                ],
            )
            .unwrap(),
        );
        let mut source = MapSource::new();
        source.insert(
            TableRef::bare("t1"),
            loc("L1"),
            rows_i64(&(0..40).collect::<Vec<_>>()),
        );
        source.insert(
            TableRef::bare("t3"),
            loc("L3"),
            rows_i64(&(100..130).collect::<Vec<_>>()),
        );
        (u, source)
    }

    fn multiset(rows: &Rows) -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = rows.rows().to_vec();
        v.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    }

    #[test]
    fn matches_sequential_rows_bytes_and_cost() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();

        let mut seq_ship = CountingShip {
            topology: &topology,
            log: TransferLog::new(),
        };
        let seq_rows = execute(&plan, &source, &mut seq_ship).unwrap();

        // Small batches force multi-batch streams.
        let out = Runtime::new(ShipEnv::new(&topology))
            .with_config(RuntimeConfig {
                batch_rows: 7,
                columnar: false,
                ..RuntimeConfig::default()
            })
            .run(&plan, &source, None)
            .unwrap();

        assert_eq!(multiset(&out.rows), multiset(&seq_rows));
        assert_eq!(out.transfers.total_bytes(), seq_ship.log.total_bytes());
        assert_eq!(out.transfers.total_rows(), seq_ship.log.total_rows());
        assert!(
            (out.transfers.total_cost_ms() - seq_ship.log.total_cost_ms()).abs() < 1e-9,
            "streaming must cost exactly what one monolithic SHIP costs"
        );
        // 40 rows / 7 per batch = 6 batches + 30/7 = 5 batches.
        assert_eq!(out.metrics.batches, 11);
        // Pipelining: the two edges overlap, so completion (critical
        // path) is strictly below the back-to-back total.
        assert!(out.metrics.completion_ms < out.metrics.network_ms);
        assert!(out.metrics.overlap_speedup() > 1.0);
        assert_eq!(out.metrics.sites.len(), 3);
    }

    #[test]
    fn columnar_exchange_matches_row_exchange_exactly() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();
        let run = |columnar: bool| {
            Runtime::new(ShipEnv::new(&topology))
                .with_config(RuntimeConfig {
                    batch_rows: 7,
                    columnar,
                    ..RuntimeConfig::default()
                })
                .run(&plan, &source, None)
                .unwrap()
        };
        let row = run(false);
        let col = run(true);
        // Not just equal multisets: identical row order, identical
        // normalized transfer logs (bytes, rows, costs, steps), identical
        // batch counts and completion time.
        assert_eq!(col.rows, row.rows);
        assert_eq!(col.transfers, row.transfers);
        assert_eq!(col.metrics.batches, row.metrics.batches);
        assert_eq!(col.metrics.bytes, row.metrics.bytes);
        assert_eq!(col.metrics.completion_ms, row.metrics.completion_ms);
    }

    #[test]
    fn columnar_exchange_replays_faults_identically() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();
        let faults = FaultPlan::parse("drop:L1-L4@0..1", 1).unwrap();
        let run = |columnar: bool| {
            Runtime::new(ShipEnv::new(&topology).with_faults(&faults, RetryPolicy::default()))
                .with_config(RuntimeConfig {
                    batch_rows: 7,
                    columnar,
                    ..RuntimeConfig::default()
                })
                .run(&plan, &source, None)
                .unwrap()
        };
        let row = run(false);
        let col = run(true);
        assert_eq!(col.rows, row.rows);
        assert_eq!(
            col.transfers, row.transfers,
            "fault replay must be bit-identical"
        );
        assert!(col.transfers.fault_count() >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();
        let runs: Vec<_> = (0..4)
            .map(|_| {
                Runtime::new(ShipEnv::new(&topology))
                    .with_config(RuntimeConfig {
                        batch_rows: 3,
                        columnar: false,
                        ..RuntimeConfig::default()
                    })
                    .run(&plan, &source, None)
                    .unwrap()
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.rows, runs[0].rows);
            assert_eq!(r.transfers, runs[0].transfers, "normalized logs must agree");
            assert_eq!(r.metrics.completion_ms, runs[0].metrics.completion_ms);
            assert_eq!(r.metrics.bytes, runs[0].metrics.bytes);
        }
    }

    #[test]
    fn per_batch_audit_blocks_illegal_destination() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();
        // Edge 0 may only ship to L5 — the plan ships to L4, so the very
        // first batch must be refused at the source site.
        let audits = vec![
            LocationSet::from_iter(["L1", "L5"]),
            LocationSet::from_iter(["L3", "L4"]),
        ];
        let err = Runtime::new(ShipEnv::new(&topology))
            .run(&plan, &source, Some(&audits))
            .unwrap_err();
        assert_eq!(err.kind(), "non-compliant");

        // With the true traits the run goes through.
        let audits = vec![
            LocationSet::from_iter(["L1", "L4"]),
            LocationSet::from_iter(["L3", "L4"]),
        ];
        Runtime::new(ShipEnv::new(&topology))
            .run(&plan, &source, Some(&audits))
            .unwrap();
    }

    #[test]
    fn transient_faults_heal_and_permanent_site_crash_surfaces() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();

        // Steps 0 and 1 drop everything on L1->L4 (edge slot 0 attempts 1
        // and... attempt grid: slot 0, n_slots=4 -> steps 0,4,8). Drop
        // window 0..1 kills only attempt 1; attempt 2 (step 4) delivers.
        let faults = FaultPlan::parse("drop:L1-L4@0..1", 1).unwrap();
        let out =
            Runtime::new(ShipEnv::new(&topology).with_faults(&faults, RetryPolicy::default()))
                .run(&plan, &source, None)
                .unwrap();
        assert!(out.transfers.fault_count() >= 1);
        assert!(out
            .transfers
            .records()
            .iter()
            .any(|r| r.attempts == 2 && r.from == loc("L1")));

        // A permanent crash of L3 exhausts the budget with a typed error
        // naming the site.
        let faults = FaultPlan::parse("crash:L3", 1).unwrap();
        let err =
            Runtime::new(ShipEnv::new(&topology).with_faults(&faults, RetryPolicy::default()))
                .run(&plan, &source, None)
                .unwrap_err();
        assert_eq!(err.failed_site(), Some(&loc("L3")));
    }

    /// The columnar engine on tiny batches and morsels, so even these
    /// fixtures split into several of each.
    fn pooled(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            batch_rows: 7,
            columnar: true,
            morsel_rows: 8,
            workers_per_site: workers,
        }
    }

    #[test]
    fn worker_count_never_changes_results_or_transfers() {
        // A filter above the union gives the root fragment a CPU kernel
        // that actually splits into morsels (70 rows / 8-row morsels).
        let (union_plan, source) = two_edge_plan();
        let schema = Arc::clone(&union_plan.schema);
        let plan = Arc::new(
            PhysicalPlan::new(
                PhysOp::Filter {
                    predicate: ScalarExpr::col("c0").gt(ScalarExpr::lit(3.0)),
                },
                schema,
                loc("L4"),
                vec![union_plan],
            )
            .unwrap(),
        );
        let topology = NetworkTopology::paper_wan();
        let run = |workers: usize| {
            Runtime::new(ShipEnv::new(&topology))
                .with_config(pooled(workers))
                .run(&plan, &source, None)
                .unwrap()
        };
        let base = run(1);
        for workers in [2, 4] {
            let out = run(workers);
            assert_eq!(out.rows, base.rows, "rows must be worker-invariant");
            assert_eq!(out.transfers, base.transfers, "logs must be identical");
            assert_eq!(out.metrics.bytes, base.metrics.bytes);
            assert_eq!(out.metrics.completion_ms, base.metrics.completion_ms);
            // The pool saw work, and the deterministic counters agree
            // with the morsel split (8-row morsels over tiny fragments).
            let pooled: u64 = out.metrics.sites.values().map(|m| m.morsels).sum();
            assert!(pooled > 0, "workers={workers} should dispatch morsels");
        }
    }

    /// The keyed kernels under a real pool: rows *and row order* equal
    /// the row engine's at 1, 2 and 4 workers, for the inputs where a
    /// schedule could show — a duplicate-heavy Int64 key whose build
    /// side spans five morsels, NULL keys on both sides, an Int64 ⋈
    /// Float64 key, and NULL/string group keys under an order-insensitive
    /// (COUNT, MIN: morsel partials merged) and an order-sensitive
    /// (float SUM: serial) aggregate.
    #[test]
    fn keyed_kernels_match_the_row_engine_at_every_worker_count() {
        use geoqp_expr::{AggCall, AggFunc};
        let typed_scan = |table: &str, fields: &[(&str, DataType)]| {
            let fields = fields.iter().map(|(n, t)| Field::new(*n, *t)).collect();
            let schema = Arc::new(Schema::new(fields).unwrap());
            let op = PhysOp::Scan {
                table: TableRef::bare(table),
            };
            Arc::new(PhysicalPlan::new(op, schema, loc("L1"), vec![]).unwrap())
        };
        let nullable = |i: i64, m: i64| {
            if i % 6 == 5 {
                Value::Null
            } else {
                Value::Int64(i % m)
            }
        };
        let mut source = MapSource::new();
        let build = (0..40).map(|i| {
            let tag = [Value::str("a"), Value::str("b"), Value::Null][i as usize % 3].clone();
            vec![nullable(i, 4), tag, Value::Float64(i as f64 * 0.1 + 1e15)]
        });
        source.insert(TableRef::bare("build"), loc("L1"), build.collect());
        let probe = (0..30).map(|i| vec![nullable(i, 7), Value::Float64((i % 5) as f64 * 0.5)]);
        source.insert(TableRef::bare("probe"), loc("L1"), probe.collect());

        let build = typed_scan(
            "build",
            &[
                ("bk", DataType::Int64),
                ("tag", DataType::Str),
                ("x", DataType::Float64),
            ],
        );
        let probe = typed_scan(
            "probe",
            &[("pk", DataType::Int64), ("pf", DataType::Float64)],
        );
        let join = |right_key: &str| {
            let schema = Arc::new(build.schema.join(&probe.schema).unwrap());
            let op = PhysOp::HashJoin {
                left_keys: vec!["bk".into()],
                right_keys: vec![right_key.into()],
                filter: None,
            };
            let inputs = vec![Arc::clone(&build), Arc::clone(&probe)];
            PhysicalPlan::new(op, schema, loc("L1"), inputs).unwrap()
        };
        let aggregate = |aggs: Vec<AggCall>, outputs: &[(&str, DataType)]| {
            let keys = [("bk", DataType::Int64), ("tag", DataType::Str)];
            let fields = keys.iter().chain(outputs);
            let fields = fields.map(|(n, t)| Field::new(*n, *t)).collect();
            let op = PhysOp::HashAggregate {
                group_by: vec!["bk".into(), "tag".into()],
                aggs,
            };
            let schema = Arc::new(Schema::new(fields).unwrap());
            PhysicalPlan::new(op, schema, loc("L1"), vec![Arc::clone(&build)]).unwrap()
        };
        let x = || ScalarExpr::col("x");
        let plans = [
            join("pk"),
            join("pf"),
            aggregate(
                vec![
                    AggCall::count_star("n"),
                    AggCall::new(AggFunc::Min, x(), "lo"),
                ],
                &[("n", DataType::Int64), ("lo", DataType::Float64)],
            ),
            aggregate(
                vec![AggCall::new(AggFunc::Sum, x(), "total")],
                &[("total", DataType::Float64)],
            ),
        ];
        let topology = NetworkTopology::paper_wan();
        for plan in &plans {
            let want = execute(plan, &source, &mut geoqp_exec::LocalShip).unwrap();
            assert!(
                want.len() > 3,
                "a fixture that matches nothing pins nothing"
            );
            for workers in [1, 2, 4] {
                let out = Runtime::new(ShipEnv::new(&topology))
                    .with_config(pooled(workers))
                    .run(plan, &source, None)
                    .unwrap();
                assert_eq!(out.rows, want, "workers={workers}: {:?}", plan.op);
            }
        }
    }

    #[test]
    fn single_site_plan_has_no_edges() {
        let t1 = scan_node("t1", "L1", 1);
        let mut source = MapSource::new();
        source.insert(TableRef::bare("t1"), loc("L1"), rows_i64(&[1, 2, 3]));
        let topology = NetworkTopology::paper_wan();
        let out = Runtime::new(ShipEnv::new(&topology))
            .run(&t1, &source, None)
            .unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.metrics.batches, 0);
        assert_eq!(out.metrics.completion_ms, 0.0);
        assert!(out.metrics.edges.is_empty());
    }
}
