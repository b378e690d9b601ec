//! The recursive physical-plan interpreter.

use crate::aggregate::BoundAgg;
use geoqp_common::{ColumnarBatch, GeoError, Location, Result, Row, Rows, Schema, TableRef, Value};
use geoqp_expr::{bind, BoundExpr};
use geoqp_plan::{PhysOp, PhysicalPlan, SortKey};
use std::collections::HashMap;
use std::sync::Arc;

/// Supplies the data a plan's leaves read — base-table scans and
/// checkpointed intermediate results — as the shared columnar batch
/// either interpreter is handed; the row interpreter transposes it at its
/// own leaves ([`Rows::from_batch`]). Implemented by the distributed
/// engine over its per-site databases.
pub trait DataSource {
    /// The columns of `table` stored at `location`.
    fn scan(&self, table: &TableRef, location: &Location) -> Result<Arc<ColumnarBatch>>;

    /// The retained output behind a [`PhysOp::ResumeScan`] leaf:
    /// checkpoint `fingerprint`, homed at `location`.
    fn resume(&self, fingerprint: u64, location: &Location) -> Result<Arc<ColumnarBatch>>;
}

/// Observes every SHIP operator. The distributed engine uses this hook to
/// serialize rows, account bytes against the network simulator, and audit
/// runtime compliance.
pub trait ShipHandler {
    /// Transfer `rows` (with `schema`) from `from` to `to`, returning the
    /// rows as they arrive at the destination.
    fn ship(&mut self, from: &Location, to: &Location, rows: Rows, schema: &Schema)
        -> Result<Rows>;

    /// Columnar twin of [`ShipHandler::ship`]: transfer a batch, charging
    /// exactly the bytes the row encoding of the same rows would cost.
    /// Handlers that account bytes from column metadata override this to
    /// skip the encode/decode round trip; the default converts through
    /// rows so every existing handler stays correct.
    fn ship_columnar(
        &mut self,
        from: &Location,
        to: &Location,
        batch: Arc<ColumnarBatch>,
        schema: &Schema,
    ) -> Result<Arc<ColumnarBatch>> {
        let arity = batch.arity();
        let shipped = self.ship(from, to, batch.to_rows(), schema)?;
        Ok(Arc::new(ColumnarBatch::from_rows(shipped.rows(), arity)))
    }
}

/// A ship handler that moves rows without cost accounting — useful for
/// single-site tests.
#[derive(Debug, Default)]
pub struct LocalShip;

impl ShipHandler for LocalShip {
    fn ship(
        &mut self,
        _from: &Location,
        _to: &Location,
        rows: Rows,
        _schema: &Schema,
    ) -> Result<Rows> {
        Ok(rows)
    }

    /// Moving nothing costs nothing: the batch arrives as the same
    /// allocation, not a row transpose and back.
    fn ship_columnar(
        &mut self,
        _from: &Location,
        _to: &Location,
        batch: Arc<ColumnarBatch>,
        _schema: &Schema,
    ) -> Result<Arc<ColumnarBatch>> {
        Ok(batch)
    }
}

/// Intercepts plan nodes that are evaluated *outside* the current
/// interpreter — the fragment runtime's boundaries. Before recursing
/// into any node, the interpreter asks the exchange whether the node's
/// output is supplied externally (a SHIP whose producer fragment the
/// runtime already ran, earlier in its walk); if so, the returned batch
/// is used and the subtree below is never visited here.
pub trait ExchangeSource {
    /// The externally produced output of `node`, or `None` when the node
    /// is local to this interpreter.
    fn fetch(&self, node: &PhysicalPlan) -> Option<Result<Arc<ColumnarBatch>>>;

    /// The morsel runner that CPU-bound columnar kernels dispatch on. The
    /// default is the inline serial runner; the fragment runtime
    /// overrides this with the run's worker pool.
    fn runner(&self) -> &dyn crate::parallel::MorselRunner {
        &crate::parallel::SERIAL
    }
}

/// The trivial exchange: every node is local.
#[derive(Debug, Default)]
pub struct NoExchange;

impl ExchangeSource for NoExchange {
    fn fetch(&self, _node: &PhysicalPlan) -> Option<Result<Arc<ColumnarBatch>>> {
        None
    }
}

/// Execute a located physical plan, returning the result rows at the root
/// operator's location.
pub fn execute(
    plan: &PhysicalPlan,
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
) -> Result<Rows> {
    execute_fragment(plan, source, ship, &NoExchange)
}

/// [`execute`] with fragment boundaries: nodes claimed by `exchange` are
/// not interpreted here — their output comes from the exchange (produced
/// by an earlier fragment of the runtime's walk).
pub fn execute_fragment(
    plan: &PhysicalPlan,
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
    exchange: &dyn ExchangeSource,
) -> Result<Rows> {
    if let Some(batch) = exchange.fetch(plan) {
        return batch.map(Rows::from_batch);
    }
    match &plan.op {
        PhysOp::Scan { table } => source.scan(table, &plan.location).map(Rows::from_batch),
        PhysOp::Filter { predicate } => {
            let input = &plan.inputs[0];
            let rows = execute_fragment(input, source, ship, exchange)?;
            let bound = bind(predicate, &input.schema)?;
            let mut out = Rows::new();
            for row in rows {
                if bound.eval(&row)?.is_true() {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysOp::Project { exprs } => {
            let input = &plan.inputs[0];
            let rows = execute_fragment(input, source, ship, exchange)?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| bind(e, &input.schema))
                .collect::<Result<_>>()?;
            let mut out = Rows::new();
            for row in rows {
                let mut new_row = Vec::with_capacity(bound.len());
                for b in &bound {
                    new_row.push(b.eval(&row)?);
                }
                out.push(new_row);
            }
            Ok(out)
        }
        PhysOp::HashJoin {
            left_keys,
            right_keys,
            filter,
        } => execute_hash_join(
            plan,
            left_keys,
            right_keys,
            filter.as_ref(),
            source,
            ship,
            exchange,
        ),
        PhysOp::HashAggregate { group_by, aggs } => {
            execute_hash_aggregate(plan, group_by, aggs, source, ship, exchange)
        }
        PhysOp::Sort { keys } => {
            let input = &plan.inputs[0];
            let rows = execute_fragment(input, source, ship, exchange)?;
            let mut rows = rows.into_rows();
            let indices: Vec<(usize, bool)> = keys
                .iter()
                .map(|k: &SortKey| Ok((input.schema.require_index(&k.column)?, k.descending)))
                .collect::<Result<_>>()?;
            rows.sort_by(|a, b| {
                for (i, desc) in &indices {
                    let ord = a[*i].total_cmp(&b[*i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(Rows::from_rows(rows))
        }
        PhysOp::Limit { fetch } => {
            let rows = execute_fragment(&plan.inputs[0], source, ship, exchange)?;
            let mut rows = rows.into_rows();
            rows.truncate(*fetch);
            Ok(Rows::from_rows(rows))
        }
        PhysOp::Union => {
            let mut out = Rows::new();
            for input in &plan.inputs {
                for row in execute_fragment(input, source, ship, exchange)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysOp::Ship => {
            let input = &plan.inputs[0];
            let rows = execute_fragment(input, source, ship, exchange)?;
            ship.ship(&input.location, &plan.location, rows, &input.schema)
        }
        PhysOp::ResumeScan { fingerprint, .. } => source
            .resume(*fingerprint, &plan.location)
            .map(Rows::from_batch),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_hash_join(
    plan: &PhysicalPlan,
    left_keys: &[String],
    right_keys: &[String],
    filter: Option<&geoqp_expr::ScalarExpr>,
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
    exchange: &dyn ExchangeSource,
) -> Result<Rows> {
    let (left, right) = (&plan.inputs[0], &plan.inputs[1]);
    let left_rows = execute_fragment(left, source, ship, exchange)?;
    let right_rows = execute_fragment(right, source, ship, exchange)?;

    let lidx: Vec<usize> = left_keys
        .iter()
        .map(|k| left.schema.require_index(k))
        .collect::<Result<_>>()?;
    let ridx: Vec<usize> = right_keys
        .iter()
        .map(|k| right.schema.require_index(k))
        .collect::<Result<_>>()?;
    let bound_filter = filter.map(|f| bind(f, &plan.schema)).transpose()?;

    // Build on the left input.
    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for row in left_rows.rows() {
        let key: Vec<Value> = lidx.iter().map(|i| row[*i].clone()).collect();
        // SQL semantics: NULL keys never join.
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(row);
    }

    let mut out = Rows::new();
    for rrow in right_rows.rows() {
        let key: Vec<Value> = ridx.iter().map(|i| rrow[*i].clone()).collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        // Cross-type numeric keys hash identically (Value's numeric-merged
        // Hash/Eq), so Int64 joins Float64 as SQL requires.
        if let Some(matches) = table.get(&key) {
            for lrow in matches {
                let mut joined: Row = Vec::with_capacity(lrow.len() + rrow.len());
                joined.extend_from_slice(lrow);
                joined.extend_from_slice(rrow);
                if let Some(f) = &bound_filter {
                    if !f.eval(&joined)?.is_true() {
                        continue;
                    }
                }
                out.push(joined);
            }
        }
    }
    Ok(out)
}

fn execute_hash_aggregate(
    plan: &PhysicalPlan,
    group_by: &[String],
    aggs: &[geoqp_expr::AggCall],
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
    exchange: &dyn ExchangeSource,
) -> Result<Rows> {
    let input = &plan.inputs[0];
    let rows = execute_fragment(input, source, ship, exchange)?;
    let gidx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.require_index(g))
        .collect::<Result<_>>()?;

    let bound: Vec<BoundAgg> = aggs
        .iter()
        .map(|a| BoundAgg::bind(a, &input.schema))
        .collect::<Result<_>>()?;

    let mut groups: HashMap<Vec<Value>, Vec<crate::aggregate::Accumulator>> = HashMap::new();
    for row in rows.rows() {
        let key: Vec<Value> = gidx.iter().map(|i| row[*i].clone()).collect();
        let accs = groups
            .entry(key)
            .or_insert_with(|| bound.iter().map(BoundAgg::new_acc).collect());
        for (agg, acc) in bound.iter().zip(accs.iter_mut()) {
            agg.update(acc, row)?;
        }
    }

    // SQL: a global aggregate (no GROUP BY) over empty input yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(vec![], bound.iter().map(BoundAgg::new_acc).collect());
    }

    // Output ordering comes from one explicit final sort over the group
    // keys (Value's total order, NULL first) — never from map iteration
    // order, which a hashmap does not define.
    let mut entries: Vec<(Vec<Value>, Vec<crate::aggregate::Accumulator>)> =
        groups.into_iter().collect();
    sort_group_keys(&mut entries);

    let mut out = Rows::new();
    for (key, accs) in entries {
        let mut row: Row = key;
        for acc in &accs {
            row.push(acc.finish());
        }
        out.push(row);
    }
    Ok(out)
}

/// The single deterministic sort that fixes aggregate output order:
/// lexicographic over the group key under [`Value::total_cmp`]. Group
/// keys are distinct, so the order is total.
pub fn sort_group_keys<T>(entries: &mut [(Vec<Value>, T)]) {
    entries.sort_unstable_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// A [`DataSource`] backed by an in-memory map — the workhorse for tests.
/// It holds base tables only: a resume leaf finds nothing to read.
#[derive(Debug, Default)]
pub struct MapSource {
    tables: HashMap<(TableRef, Location), Arc<ColumnarBatch>>,
}

impl MapSource {
    /// Empty source.
    pub fn new() -> MapSource {
        MapSource::default()
    }

    /// Register a table's rows at a location, laid out as columns once so
    /// that every scan shares the one batch. The first row fixes the
    /// column count.
    pub fn insert(&mut self, table: TableRef, location: Location, rows: Rows) {
        let arity = rows.rows().first().map_or(0, Vec::len);
        let batch = ColumnarBatch::from_rows(rows.rows(), arity);
        self.tables.insert((table, location), Arc::new(batch));
    }
}

impl DataSource for MapSource {
    fn scan(&self, table: &TableRef, location: &Location) -> Result<Arc<ColumnarBatch>> {
        self.tables
            .get(&(table.clone(), location.clone()))
            .cloned()
            .ok_or_else(|| GeoError::Execution(format!("no data for {table} at {location}")))
    }

    fn resume(&self, fingerprint: u64, location: &Location) -> Result<Arc<ColumnarBatch>> {
        Err(GeoError::Execution(format!(
            "a MapSource holds no checkpoint {fingerprint:016x} at {location}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field};
    use geoqp_expr::{AggCall, AggFunc, ScalarExpr};

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    fn scan_node(table: &str, location: &str, fields: Vec<Field>) -> Arc<PhysicalPlan> {
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

    fn source() -> MapSource {
        let mut s = MapSource::new();
        s.insert(
            TableRef::bare("customer"),
            loc("N"),
            Rows::from_rows(vec![
                vec![Value::Int64(1), Value::str("alice"), Value::Float64(100.0)],
                vec![Value::Int64(2), Value::str("bob"), Value::Float64(200.0)],
                vec![Value::Int64(3), Value::str("carol"), Value::Float64(300.0)],
            ]),
        );
        s.insert(
            TableRef::bare("orders"),
            loc("E"),
            Rows::from_rows(vec![
                vec![Value::Int64(1), Value::Float64(10.0)],
                vec![Value::Int64(1), Value::Float64(20.0)],
                vec![Value::Int64(2), Value::Float64(5.0)],
                vec![Value::Null, Value::Float64(99.0)],
            ]),
        );
        s
    }

    fn customer_scan() -> Arc<PhysicalPlan> {
        scan_node(
            "customer",
            "N",
            vec![
                Field::new("custkey", DataType::Int64),
                Field::new("name", DataType::Str),
                Field::new("acctbal", DataType::Float64),
            ],
        )
    }

    fn orders_scan() -> Arc<PhysicalPlan> {
        scan_node(
            "orders",
            "E",
            vec![
                Field::new("o_custkey", DataType::Int64),
                Field::new("o_price", DataType::Float64),
            ],
        )
    }

    #[test]
    fn filter_project_pipeline() {
        let scan = customer_scan();
        let schema = Arc::clone(&scan.schema);
        let filter = Arc::new(
            PhysicalPlan::new(
                PhysOp::Filter {
                    predicate: ScalarExpr::col("acctbal").gt(ScalarExpr::lit(150.0)),
                },
                schema,
                loc("N"),
                vec![scan],
            )
            .unwrap(),
        );
        let project = PhysicalPlan::new(
            PhysOp::Project {
                exprs: vec![(ScalarExpr::col("name"), "name".into())],
            },
            Arc::new(Schema::new(vec![Field::new("name", DataType::Str)]).unwrap()),
            loc("N"),
            vec![filter],
        )
        .unwrap();
        let rows = execute(&project, &source(), &mut LocalShip).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows()[0][0], Value::str("bob"));
    }

    #[test]
    fn hash_join_with_ship_skips_null_keys() {
        let c = customer_scan();
        let o = orders_scan();
        let o_at_n = PhysicalPlan::ship(o, loc("N"));
        let schema = Arc::new(c.schema.join(&o_at_n.schema).unwrap());
        let join = PhysicalPlan::new(
            PhysOp::HashJoin {
                left_keys: vec!["custkey".into()],
                right_keys: vec!["o_custkey".into()],
                filter: None,
            },
            schema,
            loc("N"),
            vec![c, o_at_n],
        )
        .unwrap();
        let rows = execute(&join, &source(), &mut LocalShip).unwrap();
        // alice×2 + bob×1; the NULL-keyed order joins nothing.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn join_residual_filter() {
        let c = customer_scan();
        let o = PhysicalPlan::ship(orders_scan(), loc("N"));
        let schema = Arc::new(c.schema.join(&o.schema).unwrap());
        let join = PhysicalPlan::new(
            PhysOp::HashJoin {
                left_keys: vec!["custkey".into()],
                right_keys: vec!["o_custkey".into()],
                filter: Some(ScalarExpr::col("o_price").gt(ScalarExpr::lit(15.0))),
            },
            schema,
            loc("N"),
            vec![c, o],
        )
        .unwrap();
        let rows = execute(&join, &source(), &mut LocalShip).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows()[0][1], Value::str("alice"));
    }

    #[test]
    fn grouped_aggregate() {
        let o = orders_scan();
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("o_custkey", DataType::Int64),
                Field::new("total", DataType::Float64),
                Field::new("n", DataType::Int64),
            ])
            .unwrap(),
        );
        let agg = PhysicalPlan::new(
            PhysOp::HashAggregate {
                group_by: vec!["o_custkey".into()],
                aggs: vec![
                    AggCall::new(AggFunc::Sum, ScalarExpr::col("o_price"), "total"),
                    AggCall::count_star("n"),
                ],
            },
            schema,
            loc("E"),
            vec![o],
        )
        .unwrap();
        let rows = execute(&agg, &source(), &mut LocalShip).unwrap();
        assert_eq!(rows.len(), 3); // keys: NULL, 1, 2 (NULL groups together)
                                   // Deterministic order: Null first.
        assert_eq!(rows.rows()[0][0], Value::Null);
        assert_eq!(rows.rows()[1][1], Value::Float64(30.0));
        assert_eq!(rows.rows()[1][2], Value::Int64(2));
    }

    /// The aggregate's output order must come from the one explicit final
    /// sort, not from any hash/insertion accident: every permutation of
    /// the input produces byte-identical output, already sorted by the
    /// group keys under `Value::total_cmp` (Null first).
    #[test]
    fn aggregate_order_is_explicit_sort_not_insertion_order() {
        let base: Vec<Row> = vec![
            vec![Value::Int64(2), Value::Float64(5.0)],
            vec![Value::Null, Value::Float64(99.0)],
            vec![Value::Int64(1), Value::Float64(10.0)],
            vec![Value::Int64(3), Value::Float64(7.0)],
            vec![Value::Int64(1), Value::Float64(20.0)],
        ];
        // A few distinct insertion orders (rotations) — group discovery
        // order differs, output order must not.
        let mut outputs = Vec::new();
        for rot in 0..base.len() {
            let mut rows = base.clone();
            rows.rotate_left(rot);
            let mut s = MapSource::new();
            s.insert(TableRef::bare("orders"), loc("E"), Rows::from_rows(rows));
            let agg = PhysicalPlan::new(
                PhysOp::HashAggregate {
                    group_by: vec!["o_custkey".into()],
                    aggs: vec![AggCall::count_star("n")],
                },
                Arc::new(
                    Schema::new(vec![
                        Field::new("o_custkey", DataType::Int64),
                        Field::new("n", DataType::Int64),
                    ])
                    .unwrap(),
                ),
                loc("E"),
                vec![orders_scan()],
            )
            .unwrap();
            outputs.push(execute(&agg, &s, &mut LocalShip).unwrap());
        }
        let first = &outputs[0];
        for out in &outputs[1..] {
            assert_eq!(first, out, "output order depends on insertion order");
        }
        // And that order is exactly the explicit sort's order.
        let mut entries: Vec<(Vec<Value>, ())> = first
            .rows()
            .iter()
            .map(|r| (vec![r[0].clone()], ()))
            .collect();
        let as_emitted = entries.clone();
        sort_group_keys(&mut entries);
        assert_eq!(entries, as_emitted, "output not sorted by group keys");
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let c = customer_scan();
        let schema = Arc::clone(&c.schema);
        let none = Arc::new(
            PhysicalPlan::new(
                PhysOp::Filter {
                    predicate: ScalarExpr::col("acctbal").lt(ScalarExpr::lit(0.0)),
                },
                schema,
                loc("N"),
                vec![c],
            )
            .unwrap(),
        );
        let agg = PhysicalPlan::new(
            PhysOp::HashAggregate {
                group_by: vec![],
                aggs: vec![
                    AggCall::new(AggFunc::Sum, ScalarExpr::col("acctbal"), "s"),
                    AggCall::count_star("n"),
                ],
            },
            Arc::new(
                Schema::new(vec![
                    Field::new("s", DataType::Float64),
                    Field::new("n", DataType::Int64),
                ])
                .unwrap(),
            ),
            loc("N"),
            vec![none],
        )
        .unwrap();
        let rows = execute(&agg, &source(), &mut LocalShip).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows()[0][0], Value::Null);
        assert_eq!(rows.rows()[0][1], Value::Int64(0));
    }

    #[test]
    fn sort_and_limit() {
        let c = customer_scan();
        let schema = Arc::clone(&c.schema);
        let sort = Arc::new(
            PhysicalPlan::new(
                PhysOp::Sort {
                    keys: vec![SortKey::desc("acctbal")],
                },
                Arc::clone(&schema),
                loc("N"),
                vec![c],
            )
            .unwrap(),
        );
        let limit =
            PhysicalPlan::new(PhysOp::Limit { fetch: 2 }, schema, loc("N"), vec![sort]).unwrap();
        let rows = execute(&limit, &source(), &mut LocalShip).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows()[0][1], Value::str("carol"));
        assert_eq!(rows.rows()[1][1], Value::str("bob"));
    }

    #[test]
    fn union_concatenates() {
        let a = customer_scan();
        let b = customer_scan();
        let schema = Arc::clone(&a.schema);
        let u = PhysicalPlan::new(PhysOp::Union, schema, loc("N"), vec![a, b]).unwrap();
        let rows = execute(&u, &source(), &mut LocalShip).unwrap();
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn missing_table_is_an_execution_error() {
        let ghost = scan_node("ghost", "N", vec![Field::new("x", DataType::Int64)]);
        let err = execute(&ghost, &source(), &mut LocalShip).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }
}
