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
//! hedging, churn, deadline, log, checkpoint capture) and the
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
    use geoqp_common::{
        ColumnarBatch, DataType, Field, Location, LocationSet, Rows, Schema, TableRef, Value,
    };
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

    /// A fired token stops the walk at the first plan node it reaches,
    /// named as it always was: the first producer's scan.
    #[test]
    fn a_cancelled_run_names_the_node_it_stopped_before() {
        let (plan, source) = two_edge_plan();
        let topology = NetworkTopology::paper_wan();
        let cancel = geoqp_common::CancelToken::new();
        cancel.cancel();
        let control = geoqp_common::RunControl {
            cancel: Some(cancel),
            ..geoqp_common::RunControl::unlimited()
        };
        let err = Runtime::new(ShipEnv::new(&topology).with_control(control))
            .run(&plan, &source, None)
            .unwrap_err();
        assert_eq!(err.message(), "query cancelled before Scan at L1");
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
    /// side spans five morsels, NULL keys on both sides, negative keys,
    /// a two-pair Int64 + Date key, filtered (selected) inputs on both
    /// sides, an Int64 ⋈ Float64 key — and for the aggregate's grouping
    /// shapes: positioned Int64, Date and dictionary-coded string keys,
    /// NULL group keys, a positioned first key beside an independent
    /// second one (two groups in one slot), spans at and one past the
    /// bound, an all-NULL SUM, COUNT(*) over no rows with and without
    /// GROUP BY, and `Any` arguments (one that errors). Every join but the
    /// Int64 ⋈ Float64 one positions its build rows by `key − min`; an
    /// aggregate's error is the row engine's first, and its output columns
    /// have the types the row engine's rows would be laid out as.
    #[test]
    fn keyed_kernels_match_the_row_engine_at_every_worker_count() {
        use geoqp_exec::{
            execute_fragment_columnar, positioned_group_key, positioned_key, ExchangeSource,
            LocalShip, MorselRunner, NoExchange,
        };
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
            // Integers, with a string every seventh row: an `Any` column.
            let mixed = match i % 7 {
                3 => Value::str("s"),
                _ => Value::Int64(i % 5),
            };
            vec![
                nullable(i, 4),
                tag,
                Value::Float64(i as f64 * 0.1 + 1e15),
                Value::Int64(i % 9 - 4),
                Value::Date((i % 5) as i32),
                // Spans 4 · 40 and 4 · 40 + 1 values over 40 rows.
                Value::Int64(if i == 39 { 159 } else { i % 3 }),
                Value::Int64(if i == 39 { 160 } else { i % 3 }),
                Value::Null,
                mixed,
            ]
        });
        source.insert(TableRef::bare("build"), loc("L1"), build.collect());
        let probe = (0..30).map(|i| {
            vec![
                nullable(i, 7),
                Value::Float64((i % 5) as f64 * 0.5),
                Value::Int64(i % 11 - 5),
                Value::Date((i % 3) as i32),
            ]
        });
        source.insert(TableRef::bare("probe"), loc("L1"), probe.collect());

        let build_fields = [
            ("bk", DataType::Int64),
            ("tag", DataType::Str),
            ("x", DataType::Float64),
            ("bn", DataType::Int64),
            ("bd", DataType::Date),
            ("at_bound", DataType::Int64),
            ("past_bound", DataType::Int64),
            ("nothing", DataType::Float64),
            ("mixed", DataType::Int64),
        ];
        let build = typed_scan("build", &build_fields);
        let probe = typed_scan(
            "probe",
            &[
                ("pk", DataType::Int64),
                ("pf", DataType::Float64),
                ("pn", DataType::Int64),
                ("pd", DataType::Date),
            ],
        );
        let filtered = |input: &Arc<PhysicalPlan>, predicate: ScalarExpr| {
            let op = PhysOp::Filter { predicate };
            let schema = Arc::clone(&input.schema);
            let inputs = vec![Arc::clone(input)];
            Arc::new(PhysicalPlan::new(op, schema, loc("L1"), inputs).unwrap())
        };
        let join = |left: &Arc<PhysicalPlan>,
                    right: &Arc<PhysicalPlan>,
                    left_keys: &[&str],
                    right_keys: &[&str]| {
            let schema = Arc::new(left.schema.join(&right.schema).unwrap());
            let op = PhysOp::HashJoin {
                left_keys: left_keys.iter().map(|k| k.to_string()).collect(),
                right_keys: right_keys.iter().map(|k| k.to_string()).collect(),
                filter: None,
            };
            let inputs = vec![Arc::clone(left), Arc::clone(right)];
            PhysicalPlan::new(op, schema, loc("L1"), inputs).unwrap()
        };
        // `aggs` over `input` grouped by `keys`; the output schema's types
        // are what the plan declares, not what the kernel checks.
        let aggregate = |input: &Arc<PhysicalPlan>, keys: &[&str], aggs: Vec<AggCall>| {
            let key_fields = keys.iter().map(|k| {
                let (_, t) = build_fields.iter().find(|(n, _)| n == k).unwrap();
                Field::new(*k, *t)
            });
            let out_fields = aggs.iter().map(|a| Field::new(&a.alias, DataType::Float64));
            let schema = Arc::new(Schema::new(key_fields.chain(out_fields).collect()).unwrap());
            let op = PhysOp::HashAggregate {
                group_by: keys.iter().map(|k| k.to_string()).collect(),
                aggs,
            };
            PhysicalPlan::new(op, schema, loc("L1"), vec![Arc::clone(input)]).unwrap()
        };
        let call = |func: AggFunc, column: &str| {
            AggCall::new(func, ScalarExpr::col(column), format!("{func}_{column}"))
        };
        let (build_kept, probe_kept) = (
            filtered(&build, ScalarExpr::col("bn").gt(ScalarExpr::lit(-3i64))),
            filtered(&probe, ScalarExpr::col("pn").lt(ScalarExpr::lit(4i64))),
        );
        let nothing_kept = filtered(&build, ScalarExpr::col("bn").gt(ScalarExpr::lit(100i64)));
        let joins = [
            (join(&build, &probe, &["bk"], &["pk"]), Some(0)),
            (join(&build, &probe, &["bk"], &["pf"]), None),
            (join(&build, &probe, &["bn"], &["pn"]), Some(0)),
            (join(&build, &probe, &["bd", "bk"], &["pd", "pk"]), Some(0)),
            (join(&build_kept, &probe_kept, &["bn"], &["pn"]), Some(0)),
        ];
        // (plan, the group key it positions by)
        let aggregates = [
            // NULL keys; bk (span 4) positions and tag chains in its slots.
            (
                aggregate(
                    &build,
                    &["bk", "tag"],
                    vec![
                        AggCall::count_star("n"),
                        call(AggFunc::Min, "x"),
                        call(AggFunc::Sum, "x"),
                    ],
                ),
                Some(0),
            ),
            // Negative Int64 keys, over a selection.
            (
                aggregate(
                    &build_kept,
                    &["bn"],
                    vec![
                        call(AggFunc::Sum, "bk"),
                        call(AggFunc::Avg, "x"),
                        call(AggFunc::Max, "tag"),
                        call(AggFunc::Count, "tag"),
                    ],
                ),
                Some(0),
            ),
            (
                aggregate(
                    &build,
                    &["bd"],
                    vec![call(AggFunc::Min, "bd"), call(AggFunc::Avg, "bn")],
                ),
                Some(0),
            ),
            (
                aggregate(
                    &build,
                    &["tag"],
                    vec![call(AggFunc::Max, "bn"), call(AggFunc::Sum, "bn")],
                ),
                Some(0),
            ),
            (
                aggregate(&build, &["at_bound"], vec![call(AggFunc::Sum, "bn")]),
                Some(0),
            ),
            (
                aggregate(&build, &["past_bound"], vec![call(AggFunc::Sum, "bn")]),
                None,
            ),
            (
                aggregate(
                    &build,
                    &["bk"],
                    vec![call(AggFunc::Sum, "nothing"), call(AggFunc::Max, "nothing")],
                ),
                Some(0),
            ),
            (
                aggregate(
                    &nothing_kept,
                    &["bk"],
                    vec![AggCall::count_star("n"), call(AggFunc::Sum, "x")],
                ),
                Some(0),
            ),
            (
                aggregate(
                    &nothing_kept,
                    &[],
                    vec![
                        AggCall::count_star("n"),
                        call(AggFunc::Sum, "x"),
                        call(AggFunc::Min, "tag"),
                    ],
                ),
                None,
            ),
            // `Any` arguments: MIN/MAX order mixed cells, SUM(int) fails
            // on the first string (row 3) — unless AVG(tag) fails first,
            // on row 0.
            (
                aggregate(
                    &build,
                    &["bd"],
                    vec![call(AggFunc::Min, "mixed"), call(AggFunc::Max, "mixed")],
                ),
                Some(0),
            ),
            (
                aggregate(&build, &["bd"], vec![call(AggFunc::Sum, "mixed")]),
                Some(0),
            ),
            (
                aggregate(
                    &build,
                    &["bd"],
                    vec![call(AggFunc::Sum, "mixed"), call(AggFunc::Avg, "tag")],
                ),
                Some(0),
            ),
        ];

        let topology = NetworkTopology::paper_wan();
        let on_pool = |plan: &PhysicalPlan, workers: usize| {
            Runtime::new(ShipEnv::new(&topology))
                .with_config(pooled(workers))
                .run(plan, &source, None)
                .map(|out| out.rows)
        };
        let input = |plan: &PhysicalPlan, k: usize, keys: &[String]| {
            let input = &plan.inputs[k];
            let batch = execute_fragment_columnar(input, &source, &mut LocalShip, &NoExchange);
            let idx = keys.iter().map(|c| input.schema.require_index(c).unwrap());
            (batch.unwrap(), idx.collect::<Vec<_>>())
        };
        for (plan, positioned) in &joins {
            let PhysOp::HashJoin {
                left_keys,
                right_keys,
                ..
            } = &plan.op
            else {
                unreachable!()
            };
            let ((l, lk), (r, rk)) = (input(plan, 0, left_keys), input(plan, 1, right_keys));
            let at = positioned_key(&l, &lk, &r, &rk);
            assert_eq!(at, *positioned, "{left_keys:?}");
            let want = execute(plan, &source, &mut geoqp_exec::LocalShip).unwrap();
            assert!(
                want.len() > 3,
                "a fixture that matches nothing pins nothing"
            );
            for workers in [1, 2, 4] {
                let out = on_pool(plan, workers).unwrap();
                assert_eq!(out, want, "workers={workers}: {:?}", plan.op);
            }
        }

        /// The fragment runtime's kernels on a pool, nothing exchanged.
        struct Pooled(morsel::PoolRunner);
        impl ExchangeSource for Pooled {
            fn fetch(&self, _: &PhysicalPlan) -> Option<geoqp_common::Result<Arc<ColumnarBatch>>> {
                None
            }
            fn runner(&self) -> &dyn MorselRunner {
                &self.0
            }
        }
        let mut failed = 0;
        for (plan, positioned) in &aggregates {
            let PhysOp::HashAggregate { group_by, .. } = &plan.op else {
                unreachable!()
            };
            let (batch, keys) = input(plan, 0, group_by);
            assert_eq!(
                positioned_group_key(&batch, &keys),
                *positioned,
                "{:?}",
                plan.op
            );
            let want = execute(plan, &source, &mut geoqp_exec::LocalShip);
            failed += usize::from(want.is_err());
            for workers in [1, 2, 4] {
                let (out, want) = (on_pool(plan, workers), want.as_ref());
                match (out, want) {
                    (Ok(out), Ok(want)) => {
                        assert_eq!(&out, want, "workers={workers}: {:?}", plan.op)
                    }
                    (Err(out), Err(want)) => {
                        assert_eq!(out.to_string(), want.to_string(), "workers={workers}")
                    }
                    (out, want) => panic!("workers={workers}: {out:?} vs {want:?}"),
                }
                let pool = morsel::MorselPool::new(workers);
                let exchange = Pooled(pool.runner(8));
                let out = execute_fragment_columnar(plan, &source, &mut LocalShip, &exchange);
                let (Ok(out), Ok(want)) = (out, want) else {
                    continue;
                };
                let laid_out = ColumnarBatch::from_rows(want.rows(), plan.schema.len());
                for j in 0..plan.schema.len() {
                    assert_eq!(
                        out.materialize().column(j).data_type(),
                        laid_out.column(j).data_type(),
                        "column {j} of {:?}",
                        plan.op
                    );
                }
            }
        }
        assert_eq!(failed, 2, "the two SUM(mixed) plans fail");
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
