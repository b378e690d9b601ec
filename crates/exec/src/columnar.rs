//! The vectorized columnar interpreter.
//!
//! A drop-in twin of [`crate::executor::execute_fragment`] that runs the
//! same located physical plans over [`ColumnarBatch`]es instead of
//! row-major [`Rows`]. Three rules keep it observably identical to the
//! row engine:
//!
//! * **Same recursion, same order** — operators recurse into their
//!   inputs left to right exactly like the row interpreter, so the
//!   sequence of scan/ship side effects (fault-clock ticks, byte
//!   accounting, audits) is bit-identical.
//! * **Same semantics, vectorized where safe** — filters compile to
//!   selection vectors via typed column kernels for predicate shapes
//!   that provably cannot raise errors (comparisons of compatible typed
//!   columns/literals, `IN`, `BETWEEN`, `LIKE` on string columns,
//!   Kleene `AND`/`OR` over such masks); anything that may error falls
//!   back to a per-row scalar mirror of `BoundExpr::eval`, evaluated in
//!   row order so the first error matches the row engine's.
//! * **Same rows, same order** — joins probe in input order and emit
//!   matches in build-insertion order; aggregation feeds accumulators in
//!   row order (float sums are order-sensitive) and sorts its output
//!   with the row engine's one explicit final sort. Every operator is
//!   order-preserving, so SHIP payloads batch identically and shipped
//!   bytes match to the byte.
//!
//! Filters do not materialize: they return the input batch plus a
//! selection vector, which downstream kernels (project, join, aggregate)
//! consume positionally. Materialization happens only where physical
//! row identity matters — SHIP boundaries and the plan root.

use crate::aggregate::{Accumulator, BoundAgg};
use crate::executor::{sort_group_keys, DataSource, ExchangeSource, NoExchange, ShipHandler};
use crate::keyed::{KeyEq, KeyIndex};
use crate::parallel::{first_error, morsel_bounds, parallel_map, MorselRunner};
use geoqp_common::{Column, ColumnarBatch, DataType, Result, Rows, Value};
use geoqp_expr::{apply_cmp, as_tv, bind, like_match, BinaryOp, BoundExpr, UnaryOp};
use geoqp_plan::{PhysOp, PhysicalPlan, SortKey};
use std::cmp::Ordering;
use std::sync::Arc;

/// A batch with an optional selection vector: the unit flowing between
/// columnar operators. `sel` lists the surviving physical row indices in
/// order; `None` means all rows.
#[derive(Debug, Clone)]
pub struct ColBatch {
    /// The (shared, immutable) data.
    pub batch: Arc<ColumnarBatch>,
    /// Selected physical rows, in order; `None` = every row.
    pub sel: Option<Arc<Vec<u32>>>,
}

impl ColBatch {
    /// Wrap a batch with no selection.
    pub fn all(batch: Arc<ColumnarBatch>) -> ColBatch {
        ColBatch { batch, sel: None }
    }

    /// Number of logical (selected) rows.
    pub fn n_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.batch.len(),
        }
    }

    /// Physical index of logical row `i`.
    #[inline]
    pub fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// The selected physical rows as a slice; `None` = every row.
    fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(Vec::as_slice)
    }

    /// The logical row indices as an explicit vector (identity when no
    /// selection is attached).
    fn indices(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.as_ref().clone(),
            None => (0..self.batch.len() as u32).collect(),
        }
    }

    /// Materialize the selection into a standalone batch (a cheap `Arc`
    /// clone when nothing is filtered out).
    pub fn materialize(&self) -> Arc<ColumnarBatch> {
        match &self.sel {
            None => Arc::clone(&self.batch),
            Some(s) => Arc::new(self.batch.gather(s)),
        }
    }

    /// Convert to row-major form. The transpose is deferred
    /// ([`Rows::from_batch`]): a selection gathers into a standalone
    /// columnar batch here, but per-row materialization happens only if
    /// a consumer asks for rows.
    pub fn to_rows(&self) -> Rows {
        Rows::from_batch(self.materialize())
    }

    /// [`ColBatch::materialize`] with the column gathers fanned out over
    /// `runner` — column values are independent, so the result is the
    /// same batch regardless of schedule.
    fn materialize_par(&self, runner: &dyn MorselRunner) -> Arc<ColumnarBatch> {
        match &self.sel {
            None => Arc::clone(&self.batch),
            Some(s) => Arc::new(gather_parallel(runner, &self.batch, s)),
        }
    }
}

/// Gather `indices` out of every column of `b`, one morsel task per
/// column. Identical output to [`ColumnarBatch::gather`].
fn gather_parallel(runner: &dyn MorselRunner, b: &ColumnarBatch, indices: &[u32]) -> ColumnarBatch {
    if runner.workers() <= 1 || b.arity() <= 1 {
        return b.gather(indices);
    }
    let columns = parallel_map(runner, b.arity(), |j| b.column(j).gather(indices));
    ColumnarBatch::from_columns(columns)
}

/// Morsel-parallel [`filter_indices`]: split the index window into
/// morsels, filter each independently, and concatenate the survivors in
/// morsel order — the same indices, in the same order, as one sequential
/// pass. Errors report from the lowest morsel, which holds the earliest
/// failing row.
fn filter_indices_morsel(
    runner: &dyn MorselRunner,
    predicate: &BoundExpr,
    b: &ColumnarBatch,
    idx: &[u32],
) -> Result<Vec<u32>> {
    let bounds = morsel_bounds(idx.len(), runner.morsel_rows());
    if runner.workers() <= 1 || bounds.len() <= 1 {
        return filter_indices(predicate, b, idx);
    }
    let parts = parallel_map(runner, bounds.len(), |m| {
        let (lo, hi) = bounds[m];
        filter_indices(predicate, b, &idx[lo..hi])
    });
    Ok(first_error(parts)?.concat())
}

/// Morsel-parallel [`eval_column`] for computed expressions: each morsel
/// evaluates its rows through the scalar mirror, and the chunks are
/// joined in morsel order before the one type-sniffing
/// [`Column::from_values`] pass — so the output column (layout included)
/// is identical to the sequential evaluation. Plain column references
/// and literals are already vectorized and skip the split.
fn eval_column_morsel(
    runner: &dyn MorselRunner,
    e: &BoundExpr,
    b: &ColumnarBatch,
    idx: &[u32],
) -> Result<Column> {
    if matches!(e, BoundExpr::Column(_) | BoundExpr::Literal(_)) || runner.workers() <= 1 {
        return eval_column(e, b, idx);
    }
    let bounds = morsel_bounds(idx.len(), runner.morsel_rows());
    if bounds.len() <= 1 {
        return eval_column(e, b, idx);
    }
    let parts = parallel_map(runner, bounds.len(), |m| {
        let (lo, hi) = bounds[m];
        let mut values = Vec::with_capacity(hi - lo);
        for &i in &idx[lo..hi] {
            values.push(eval_scalar(e, b, i as usize)?);
        }
        Ok(values)
    });
    Ok(Column::from_values(first_error(parts)?.concat()))
}

/// Execute a located physical plan on the columnar engine, returning the
/// result rows at the root operator's location. The row-major conversion
/// happens once, at the root.
pub fn execute_columnar(
    plan: &PhysicalPlan,
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
) -> Result<Rows> {
    Ok(execute_fragment_columnar(plan, source, ship, &NoExchange)?.to_rows())
}

/// [`execute_columnar`] with fragment boundaries, mirroring
/// [`crate::executor::execute_fragment`]'s contract: nodes claimed by
/// `exchange` are not interpreted here.
pub fn execute_fragment_columnar(
    plan: &PhysicalPlan,
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
    exchange: &dyn ExchangeSource,
) -> Result<ColBatch> {
    if let Some(batch) = exchange.fetch_columnar(plan) {
        return Ok(ColBatch::all(batch?));
    }
    match &plan.op {
        PhysOp::Scan { table } => Ok(ColBatch::all(source.scan_columnar(
            table,
            &plan.location,
            plan.schema.len(),
        )?)),
        PhysOp::Filter { predicate } => {
            let input = &plan.inputs[0];
            let in_batch = execute_fragment_columnar(input, source, ship, exchange)?;
            let bound = bind(predicate, &input.schema)?;
            let idx = in_batch.indices();
            let kept = filter_indices_morsel(exchange.runner(), &bound, &in_batch.batch, &idx)?;
            Ok(ColBatch {
                batch: in_batch.batch,
                sel: Some(Arc::new(kept)),
            })
        }
        PhysOp::Project { exprs } => {
            let input = &plan.inputs[0];
            let in_batch = execute_fragment_columnar(input, source, ship, exchange)?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| bind(e, &input.schema))
                .collect::<Result<_>>()?;
            let idx = in_batch.indices();
            let columns: Vec<Column> = bound
                .iter()
                .map(|b| eval_column_morsel(exchange.runner(), b, &in_batch.batch, &idx))
                .collect::<Result<_>>()?;
            let out = if columns.is_empty() {
                ColumnarBatch::from_rows(&vec![Vec::new(); idx.len()], 0)
            } else {
                ColumnarBatch::from_columns(columns)
            };
            Ok(ColBatch::all(Arc::new(out)))
        }
        PhysOp::HashJoin {
            left_keys,
            right_keys,
            filter,
        } => execute_hash_join_columnar(
            plan,
            left_keys,
            right_keys,
            filter.as_ref(),
            source,
            ship,
            exchange,
        ),
        PhysOp::HashAggregate { group_by, aggs } => {
            execute_hash_aggregate_columnar(plan, group_by, aggs, source, ship, exchange)
        }
        PhysOp::Sort { keys } => {
            let input = &plan.inputs[0];
            let in_batch = execute_fragment_columnar(input, source, ship, exchange)?;
            let cols: Vec<(usize, bool)> = keys
                .iter()
                .map(|k: &SortKey| Ok((input.schema.require_index(&k.column)?, k.descending)))
                .collect::<Result<_>>()?;
            let mut idx = in_batch.indices();
            // Stable, like the row engine's `sort_by`: ties keep input order.
            idx.sort_by(|&a, &b| {
                for (c, desc) in &cols {
                    let col = in_batch.batch.column(*c);
                    let ord = col.get(a as usize).total_cmp(&col.get(b as usize));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            Ok(ColBatch {
                batch: in_batch.batch,
                sel: Some(Arc::new(idx)),
            })
        }
        PhysOp::Limit { fetch } => {
            let in_batch = execute_fragment_columnar(&plan.inputs[0], source, ship, exchange)?;
            let mut idx = in_batch.indices();
            idx.truncate(*fetch);
            Ok(ColBatch {
                batch: in_batch.batch,
                sel: Some(Arc::new(idx)),
            })
        }
        PhysOp::Union => {
            let mut parts = Vec::with_capacity(plan.inputs.len());
            for input in &plan.inputs {
                parts.push(execute_fragment_columnar(input, source, ship, exchange)?.materialize());
            }
            Ok(ColBatch::all(Arc::new(ColumnarBatch::concat(
                &parts,
                plan.schema.len(),
            ))))
        }
        PhysOp::Ship => {
            let input = &plan.inputs[0];
            let in_batch = execute_fragment_columnar(input, source, ship, exchange)?;
            let payload = in_batch.materialize_par(exchange.runner());
            Ok(ColBatch::all(ship.ship_columnar(
                &input.location,
                &plan.location,
                payload,
                &input.schema,
            )?))
        }
        PhysOp::ResumeScan { fingerprint, .. } => {
            let rows = source.resume(*fingerprint, &plan.location, plan.schema.len())?;
            Ok(ColBatch::all(Arc::new(ColumnarBatch::from_rows(
                rows.rows(),
                plan.schema.len(),
            ))))
        }
    }
}

/// Evaluate `e` at physical row `i` of `b`: [`BoundExpr::eval`] reading
/// its column values straight from the batch instead of a materialized
/// row.
fn eval_scalar(e: &BoundExpr, b: &ColumnarBatch, i: usize) -> Result<Value> {
    e.eval_with(&|c| (c < b.arity()).then(|| b.get(i, c)))
}

// ---------------------------------------------------------------------
// Vectorized predicate masks.
// ---------------------------------------------------------------------

/// Three-valued mask over a row-index window: `Some(bool)` or `None`
/// (NULL), one entry per index.
type Mask = Vec<Option<bool>>;

/// Broad type class used to prove a comparison cannot error: `sql_cmp`
/// only returns `None` (→ "incomparable" error) across classes.
#[derive(PartialEq, Clone, Copy)]
enum Class {
    Num,
    Date,
    Str,
    Bool,
}

fn column_class(c: &Column) -> Option<Class> {
    match c {
        Column::Int64 { .. } | Column::Float64 { .. } => Some(Class::Num),
        Column::Date { .. } => Some(Class::Date),
        Column::Str { .. } => Some(Class::Str),
        Column::Bool { .. } => Some(Class::Bool),
        Column::Any { .. } => None,
    }
}

fn value_class(v: &Value) -> Option<Class> {
    match v {
        Value::Int64(_) | Value::Float64(_) => Some(Class::Num),
        Value::Date(_) => Some(Class::Date),
        Value::Str(_) => Some(Class::Str),
        Value::Bool(_) => Some(Class::Bool),
        Value::Null => None,
    }
}

/// One comparison operand: a typed column or a literal.
enum Operand<'a> {
    Col(&'a Column),
    Lit(&'a Value),
}

fn operand<'a>(e: &'a BoundExpr, b: &'a ColumnarBatch) -> Option<Operand<'a>> {
    match e {
        BoundExpr::Column(c) if *c < b.arity() => Some(Operand::Col(b.column(*c))),
        BoundExpr::Literal(v) => Some(Operand::Lit(v)),
        _ => None,
    }
}

/// Try to evaluate `e` as an error-free vectorized mask over the rows
/// `idx` of `b`. Returns `None` when `e` is not a shape this kernel can
/// prove error-free; the caller then falls back to the scalar mirror.
fn fast_mask(e: &BoundExpr, b: &ColumnarBatch, idx: &[u32]) -> Option<Mask> {
    match e {
        BoundExpr::Literal(Value::Bool(x)) => Some(vec![Some(*x); idx.len()]),
        BoundExpr::Literal(Value::Null) => Some(vec![None; idx.len()]),
        BoundExpr::Binary { op, lhs, rhs } if *op == BinaryOp::And || *op == BinaryOp::Or => {
            // Both sides error-free ⇒ full evaluation matches Kleene
            // logic with or without short-circuiting.
            let l = fast_mask(lhs, b, idx)?;
            let r = fast_mask(rhs, b, idx)?;
            Some(merge_kleene(*op, &l, &r))
        }
        BoundExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
            cmp_mask(*op, operand(lhs, b)?, operand(rhs, b)?, idx)
        }
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            let m = fast_mask(expr, b, idx)?;
            Some(m.into_iter().map(|t| t.map(|x| !x)).collect())
        }
        BoundExpr::IsNull { expr, negated } => {
            if let BoundExpr::Column(c) = expr.as_ref() {
                if *c < b.arity() {
                    let col = b.column(*c);
                    return Some(
                        idx.iter()
                            .map(|&i| Some(col.is_null(i as usize) != *negated))
                            .collect(),
                    );
                }
            }
            None
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            // `IN` over constants never errors (incomparable candidates
            // simply don't match), so any column shape is fair game.
            if let BoundExpr::Column(c) = expr.as_ref() {
                if *c < b.arity() {
                    let col = b.column(*c);
                    return Some(in_list_mask(col, list, *negated, idx));
                }
            }
            None
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // BETWEEN never errors either: bounds that don't compare
            // yield `false` legs, not errors.
            match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (BoundExpr::Column(c), BoundExpr::Literal(lo), BoundExpr::Literal(hi))
                    if *c < b.arity() =>
                {
                    let col = b.column(*c);
                    Some(
                        idx.iter()
                            .map(|&i| {
                                let v = col.get(i as usize);
                                if v.is_null() || lo.is_null() || hi.is_null() {
                                    return None;
                                }
                                let ge_lo = matches!(
                                    v.sql_cmp(lo),
                                    Some(Ordering::Greater) | Some(Ordering::Equal)
                                );
                                let le_hi = matches!(
                                    v.sql_cmp(hi),
                                    Some(Ordering::Less) | Some(Ordering::Equal)
                                );
                                Some((ge_lo && le_hi) != *negated)
                            })
                            .collect(),
                    )
                }
                _ => None,
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            // Only string-typed columns are provably error-free (LIKE on
            // a non-string value is a runtime error in the row engine).
            if let BoundExpr::Column(c) = expr.as_ref() {
                if *c < b.arity() {
                    if let Column::Str {
                        dict, codes, valid, ..
                    } = b.column(*c)
                    {
                        // Match each distinct dictionary entry once.
                        let hits: Vec<bool> = dict
                            .iter()
                            .map(|s| like_match(pattern, s) != *negated)
                            .collect();
                        return Some(
                            idx.iter()
                                .map(|&i| {
                                    let i = i as usize;
                                    if valid[i] {
                                        Some(hits[codes[i] as usize])
                                    } else {
                                        None
                                    }
                                })
                                .collect(),
                        );
                    }
                }
            }
            None
        }
        _ => None,
    }
}

fn merge_kleene(op: BinaryOp, l: &Mask, r: &Mask) -> Mask {
    l.iter()
        .zip(r)
        .map(|(a, c)| match op {
            BinaryOp::And => match (a, c) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinaryOp::Or => match (a, c) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!(),
        })
        .collect()
}

fn in_list_mask(col: &Column, list: &[Value], negated: bool, idx: &[u32]) -> Mask {
    if let Column::Str {
        dict, codes, valid, ..
    } = col
    {
        // Evaluate membership once per distinct dictionary entry.
        let hits: Vec<bool> = dict
            .iter()
            .map(|s| {
                let v = Value::Str(Arc::clone(s));
                let found = list.iter().any(|c| v.sql_cmp(c) == Some(Ordering::Equal));
                found != negated
            })
            .collect();
        return idx
            .iter()
            .map(|&i| {
                let i = i as usize;
                if valid[i] {
                    Some(hits[codes[i] as usize])
                } else {
                    None
                }
            })
            .collect();
    }
    idx.iter()
        .map(|&i| {
            let v = col.get(i as usize);
            if v.is_null() {
                return None;
            }
            let found = list.iter().any(|c| v.sql_cmp(c) == Some(Ordering::Equal));
            Some(found != negated)
        })
        .collect()
}

/// Vectorized comparison of two operands, or `None` when the pair cannot
/// be proven error-free (mismatched classes, `Any` columns).
fn cmp_mask(op: BinaryOp, lhs: Operand<'_>, rhs: Operand<'_>, idx: &[u32]) -> Option<Mask> {
    // A NULL literal anywhere makes the whole comparison NULL — the row
    // engine checks nullness before comparability.
    if matches!(lhs, Operand::Lit(Value::Null)) || matches!(rhs, Operand::Lit(Value::Null)) {
        return Some(vec![None; idx.len()]);
    }
    match (&lhs, &rhs) {
        (Operand::Lit(a), Operand::Lit(b)) => {
            let class_a = value_class(a)?;
            if class_a != value_class(b)? {
                return None;
            }
            let ord = a.sql_cmp(b)?;
            Some(vec![Some(apply_cmp(op, ord)); idx.len()])
        }
        (Operand::Col(c), Operand::Lit(v)) => {
            if column_class(c)? != value_class(v)? {
                return None;
            }
            Some(col_lit_mask(op, c, v, idx, false))
        }
        (Operand::Lit(v), Operand::Col(c)) => {
            if column_class(c)? != value_class(v)? {
                return None;
            }
            Some(col_lit_mask(op, c, v, idx, true))
        }
        (Operand::Col(a), Operand::Col(b)) => {
            if column_class(a)? != column_class(b)? {
                return None;
            }
            Some(
                idx.iter()
                    .map(|&i| {
                        let i = i as usize;
                        if a.is_null(i) || b.is_null(i) {
                            return None;
                        }
                        let ord = a.get(i).sql_cmp(&b.get(i)).expect("same class compares");
                        Some(apply_cmp(op, ord))
                    })
                    .collect(),
            )
        }
    }
}

/// Column-vs-literal comparison with typed fast paths. `flipped` means
/// the literal is on the left (`lit OP col`), so the ordering reverses.
fn col_lit_mask(op: BinaryOp, col: &Column, lit: &Value, idx: &[u32], flipped: bool) -> Mask {
    let orient = |ord: Ordering| if flipped { ord.reverse() } else { ord };
    match (col, lit) {
        // Numeric columns vs numeric literal: sql_cmp merges the numeric
        // domain through f64 total_cmp — mirror that exactly.
        (Column::Int64 { values, valid }, _) => {
            let litf = lit.as_f64().expect("numeric class");
            idx.iter()
                .map(|&i| {
                    let i = i as usize;
                    if !valid[i] {
                        return None;
                    }
                    Some(apply_cmp(op, orient((values[i] as f64).total_cmp(&litf))))
                })
                .collect()
        }
        (Column::Float64 { values, valid }, _) => {
            let litf = lit.as_f64().expect("numeric class");
            idx.iter()
                .map(|&i| {
                    let i = i as usize;
                    if !valid[i] {
                        return None;
                    }
                    Some(apply_cmp(op, orient(values[i].total_cmp(&litf))))
                })
                .collect()
        }
        (Column::Date { values, valid }, Value::Date(d)) => idx
            .iter()
            .map(|&i| {
                let i = i as usize;
                if !valid[i] {
                    return None;
                }
                Some(apply_cmp(op, orient(values[i].cmp(d))))
            })
            .collect(),
        (
            Column::Str {
                dict, codes, valid, ..
            },
            Value::Str(s),
        ) => {
            // One comparison per distinct dictionary entry.
            let hits: Vec<bool> = dict
                .iter()
                .map(|e| apply_cmp(op, orient(e.as_ref().cmp(s.as_ref()))))
                .collect();
            idx.iter()
                .map(|&i| {
                    let i = i as usize;
                    if valid[i] {
                        Some(hits[codes[i] as usize])
                    } else {
                        None
                    }
                })
                .collect()
        }
        (Column::Bool { values, valid }, Value::Bool(x)) => idx
            .iter()
            .map(|&i| {
                let i = i as usize;
                if !valid[i] {
                    return None;
                }
                Some(apply_cmp(op, orient(values[i].cmp(x))))
            })
            .collect(),
        // Class check upstream makes this unreachable, but fall back to
        // the generic scalar comparison rather than panic.
        _ => idx
            .iter()
            .map(|&i| {
                let v = col.get(i as usize);
                if v.is_null() {
                    return None;
                }
                let ord = v.sql_cmp(lit).expect("same class compares");
                Some(apply_cmp(op, orient(ord)))
            })
            .collect(),
    }
}

/// Compute the surviving physical row indices for `predicate` over the
/// window `idx`, with error behavior matching the row engine's
/// row-by-row evaluation order.
pub(crate) fn filter_indices(
    predicate: &BoundExpr,
    b: &ColumnarBatch,
    idx: &[u32],
) -> Result<Vec<u32>> {
    if let Some(mask) = fast_mask(predicate, b, idx) {
        return Ok(idx
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m == Some(true))
            .map(|(&i, _)| i)
            .collect());
    }
    // Hybrid AND/OR: vectorize the error-free side, run the other side's
    // scalar mirror only on the rows where the row engine would have
    // evaluated it (Kleene short-circuit), preserving error order.
    if let BoundExpr::Binary { op, lhs, rhs } = predicate {
        if *op == BinaryOp::And || *op == BinaryOp::Or {
            if let Some(lmask) = fast_mask(lhs, b, idx) {
                return hybrid_filter(*op, &lmask, rhs, b, idx, true);
            }
            if let Some(rmask) = fast_mask(rhs, b, idx) {
                return hybrid_filter(*op, &rmask, lhs, b, idx, false);
            }
        }
    }
    let mut out = Vec::new();
    for &i in idx {
        if eval_scalar(predicate, b, i as usize)?.is_true() {
            out.push(i);
        }
    }
    Ok(out)
}

/// One side of an AND/OR is a precomputed error-free mask, the other is
/// evaluated row-at-a-time. `mask_is_lhs` tells which operand the mask
/// came from, which determines the short-circuit direction.
#[allow(clippy::needless_range_loop)]
fn hybrid_filter(
    op: BinaryOp,
    mask: &Mask,
    slow: &BoundExpr,
    b: &ColumnarBatch,
    idx: &[u32],
    mask_is_lhs: bool,
) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    for k in 0..idx.len() {
        let i = idx[k] as usize;
        let m = mask[k];
        match (op, mask_is_lhs) {
            (BinaryOp::And, true) => {
                // Row engine: lhs false short-circuits; otherwise rhs is
                // evaluated (even under a NULL lhs) and may error.
                if m == Some(false) {
                    continue;
                }
                let r = eval_scalar(slow, b, i)?;
                let rb = as_tv(&r)?;
                if m == Some(true) && rb == Some(true) {
                    out.push(idx[k]);
                }
            }
            (BinaryOp::And, false) => {
                // Row engine evaluates lhs first; false short-circuits
                // before the (error-free) rhs would run.
                let l = eval_scalar(slow, b, i)?;
                if l == Value::Bool(false) {
                    continue;
                }
                let lb = as_tv(&l)?;
                if lb == Some(true) && m == Some(true) {
                    out.push(idx[k]);
                }
            }
            (BinaryOp::Or, true) => {
                // lhs true short-circuits; otherwise rhs decides.
                if m == Some(true) {
                    out.push(idx[k]);
                    continue;
                }
                let r = eval_scalar(slow, b, i)?;
                if as_tv(&r)? == Some(true) {
                    out.push(idx[k]);
                }
            }
            (BinaryOp::Or, false) => {
                let l = eval_scalar(slow, b, i)?;
                if l == Value::Bool(true) {
                    out.push(idx[k]);
                    continue;
                }
                let lb = as_tv(&l)?;
                if lb == Some(true) || m == Some(true) {
                    out.push(idx[k]);
                }
            }
            _ => unreachable!("hybrid_filter only handles AND/OR"),
        }
    }
    Ok(out)
}

/// Evaluate a projection expression into a column over the rows `idx`.
/// Plain column references gather (or share) the input column; anything
/// else goes through the scalar mirror and re-sniffs a typed layout.
fn eval_column(e: &BoundExpr, b: &ColumnarBatch, idx: &[u32]) -> Result<Column> {
    match e {
        BoundExpr::Column(c) if *c < b.arity() => {
            if idx.len() == b.len() && idx.iter().enumerate().all(|(k, &i)| k == i as usize) {
                Ok(b.column(*c).clone())
            } else {
                Ok(b.column(*c).gather(idx))
            }
        }
        BoundExpr::Literal(v) => Ok(Column::from_values(vec![v.clone(); idx.len()])),
        _ => {
            let mut values = Vec::with_capacity(idx.len());
            for &i in idx {
                values.push(eval_scalar(e, b, i as usize)?);
            }
            Ok(Column::from_values(values))
        }
    }
}

// ---------------------------------------------------------------------
// Join and aggregate kernels.
// ---------------------------------------------------------------------

/// Hash join, output bit-identical to the row engine's build/probe:
///
/// * **Build** — the left input's selected rows are fingerprinted in one
///   typed pass per key column ([`ColumnarBatch::key_fingerprints`]) and
///   inserted into one [`KeyIndex`] in input order, NULL keys skipped
///   (they never join: SQL semantics). The index hands candidates back
///   in insertion order, so every probe sees its matches in build-input
///   order — the row engine's match order — with no schedule to depend
///   on.
/// * **Probe** — probe-side morsels scan their rows in order against the
///   shared index (candidates verified by [`KeyEq`], so collisions cost
///   time, never correctness), and the per-morsel match lists
///   concatenate in morsel sequence order. The resulting `(left, right)`
///   pair list is exactly the sequential probe's.
/// * **Materialize** — output columns gather in parallel (one task per
///   column), and the residual filter runs morsel-parallel with
///   first-error-wins ordering.
#[allow(clippy::too_many_arguments)]
fn execute_hash_join_columnar(
    plan: &PhysicalPlan,
    left_keys: &[String],
    right_keys: &[String],
    filter: Option<&geoqp_expr::ScalarExpr>,
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
    exchange: &dyn ExchangeSource,
) -> Result<ColBatch> {
    let (left, right) = (&plan.inputs[0], &plan.inputs[1]);
    let lbatch = execute_fragment_columnar(left, source, ship, exchange)?;
    let rbatch = execute_fragment_columnar(right, source, ship, exchange)?;
    let runner = exchange.runner();

    let lidx: Vec<usize> = left_keys
        .iter()
        .map(|k| left.schema.require_index(k))
        .collect::<Result<_>>()?;
    let ridx: Vec<usize> = right_keys
        .iter()
        .map(|k| right.schema.require_index(k))
        .collect::<Result<_>>()?;
    let bound_filter = filter.map(|f| bind(f, &plan.schema)).transpose()?;

    let lb = &lbatch.batch;
    let rb = &rbatch.batch;
    let (lfps, llive) = lb.key_fingerprints(&lidx, lbatch.selection());
    let (rfps, rlive) = rb.key_fingerprints(&ridx, rbatch.selection());
    // NULL keys are skipped on both sides before any comparison.
    let keq = KeyEq::new(lb, &lidx, rb, &ridx, true);

    let mut index = KeyIndex::with_capacity(lfps.len());
    for (k, &fp) in lfps.iter().enumerate() {
        if llive[k] {
            index.insert(fp, lbatch.phys(k) as u32);
        }
    }

    let pbounds = morsel_bounds(rbatch.n_rows(), runner.morsel_rows());
    let matches: Vec<(Vec<u32>, Vec<u32>)> = parallel_map(runner, pbounds.len(), |m| {
        let (lo, hi) = pbounds[m];
        let mut out_l: Vec<u32> = Vec::new();
        let mut out_r: Vec<u32> = Vec::new();
        for k in lo..hi {
            if !rlive[k] {
                continue;
            }
            let i = rbatch.phys(k);
            for li in index.candidates(rfps[k]) {
                if keq.eq(li as usize, i) {
                    out_l.push(li);
                    out_r.push(i as u32);
                }
            }
        }
        (out_l, out_r)
    });
    let (out_left, out_right): (Vec<_>, Vec<_>) = matches.into_iter().unzip();
    let (out_left, out_right) = (out_left.concat(), out_right.concat());

    // Materialize the joined batch: left columns then right columns,
    // gathered in parallel (one task per output column).
    let arity = lb.arity() + rb.arity();
    let joined = if arity == 0 {
        ColumnarBatch::from_rows(&vec![Vec::new(); out_left.len()], 0)
    } else {
        let columns = parallel_map(runner, arity, |j| {
            if j < lb.arity() {
                lb.column(j).gather(&out_left)
            } else {
                rb.column(j - lb.arity()).gather(&out_right)
            }
        });
        ColumnarBatch::from_columns(columns)
    };

    // Residual filter runs over the joined schema, like the row engine.
    let sel = match &bound_filter {
        None => None,
        Some(f) => {
            let idx: Vec<u32> = (0..joined.len() as u32).collect();
            Some(Arc::new(filter_indices_morsel(runner, f, &joined, &idx)?))
        }
    };
    Ok(ColBatch {
        batch: Arc::new(joined),
        sel,
    })
}

/// One group of a hash aggregate: its key is the key of input row `rep`
/// (the first row that carried it), compared through [`KeyEq`] rather
/// than materialized per candidate.
struct Group {
    fp: u64,
    rep: u32,
    accs: Vec<Accumulator>,
}

/// The groups of one input range in first-appearance order, indexed by
/// key fingerprint.
struct Groups {
    index: KeyIndex,
    list: Vec<Group>,
}

impl Groups {
    fn new() -> Groups {
        Groups {
            index: KeyIndex::with_capacity(0),
            list: Vec::new(),
        }
    }

    /// The group whose key equals physical row `row`'s, if any.
    fn find(&self, keq: &KeyEq<'_>, fp: u64, row: u32) -> Option<usize> {
        let same_key = |&g: &u32| keq.eq(self.list[g as usize].rep as usize, row as usize);
        self.index.candidates(fp).find(same_key).map(|g| g as usize)
    }

    /// Append a group whose key is physical row `rep`'s; returns its
    /// position.
    fn add(&mut self, fp: u64, rep: u32, accs: Vec<Accumulator>) -> usize {
        self.index.insert(fp, self.list.len() as u32);
        self.list.push(Group { fp, rep, accs });
        self.list.len() - 1
    }
}

fn execute_hash_aggregate_columnar(
    plan: &PhysicalPlan,
    group_by: &[String],
    aggs: &[geoqp_expr::AggCall],
    source: &dyn DataSource,
    ship: &mut dyn ShipHandler,
    exchange: &dyn ExchangeSource,
) -> Result<ColBatch> {
    let input = &plan.inputs[0];
    let in_batch = execute_fragment_columnar(input, source, ship, exchange)?;
    let gidx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.require_index(g))
        .collect::<Result<_>>()?;

    let bound: Vec<BoundAgg> = aggs
        .iter()
        .map(|a| {
            let arg = a.arg.as_ref().map(|e| bind(e, &input.schema)).transpose()?;
            let int_sum = match &a.arg {
                Some(e) => e.data_type(&input.schema)? == DataType::Int64,
                None => false,
            };
            Ok(BoundAgg {
                func: a.func,
                arg,
                int_sum,
            })
        })
        .collect::<Result<_>>()?;

    // Evaluate every aggregate argument column-at-a-time up front
    // (computed expressions split into morsels; the chunks rejoin before
    // type sniffing, so the columns match sequential evaluation exactly).
    let runner = exchange.runner();
    let idx = in_batch.indices();
    let b = &in_batch.batch;
    let args: Vec<Option<Column>> = bound
        .iter()
        .map(|agg| {
            agg.arg
                .as_ref()
                .map(|e| eval_column_morsel(runner, e, b, &idx))
                .transpose()
        })
        .collect::<Result<_>>()?;

    // NULL is a key value when grouping, so `live` only tells the
    // comparator whether it may skip the validity checks.
    let (fps, live) = b.key_fingerprints(&gidx, Some(&idx));
    let keq = KeyEq::new(b, &gidx, b, &gidx, live.iter().all(|&l| l));

    // Rows `lo..hi` of the selection, grouped: each row joins the group
    // whose representative row carries its key, or starts one, then
    // feeds that group's accumulators — in row order.
    let fresh = || bound.iter().map(BoundAgg::new_acc).collect::<Vec<_>>();
    let accumulate = |(lo, hi): (usize, usize)| -> Result<Groups> {
        let mut groups = Groups::new();
        for k in lo..hi {
            let g = groups
                .find(&keq, fps[k], idx[k])
                .unwrap_or_else(|| groups.add(fps[k], idx[k], fresh()));
            for (a, agg) in bound.iter().enumerate() {
                let value = args[a].as_ref().map(|col| col.get(k));
                agg.apply(&mut groups.list[g].accs[a], value)?;
            }
        }
        Ok(groups)
    };

    // When any aggregate is order-sensitive (float SUM/AVG accumulate in
    // non-associative f64 adds), rows feed the accumulators sequentially
    // in input order, exactly like the row engine. When every aggregate
    // is order-insensitive, morsels accumulate partial groups in parallel
    // and later morsels fold into the first in morsel order — provably
    // the same result (see `Accumulator::merge`), with groups in global
    // first-appearance order either way.
    let parallel_groups =
        runner.workers() > 1 && bound.iter().all(BoundAgg::order_insensitive) && !bound.is_empty();
    let bounds = if parallel_groups {
        morsel_bounds(idx.len(), runner.morsel_rows())
    } else {
        vec![(0, idx.len())]
    };
    let partials = parallel_map(runner, bounds.len(), |m| accumulate(bounds[m]));
    let mut partials = first_error(partials)?.into_iter();
    let mut groups = partials.next().expect("at least one morsel");
    for later in partials {
        for group in later.list {
            match groups.find(&keq, group.fp, group.rep) {
                Some(g) => {
                    for (dst, src) in groups.list[g].accs.iter_mut().zip(group.accs) {
                        dst.merge(src);
                    }
                }
                None => {
                    groups.add(group.fp, group.rep, group.accs);
                }
            }
        }
    }
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = groups
        .list
        .into_iter()
        .map(|g| {
            let key = gidx.iter().map(|&c| b.get(g.rep as usize, c)).collect();
            (key, g.accs)
        })
        .collect();

    // SQL: a global aggregate over empty input yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.push((vec![], fresh()));
    }

    // The same single explicit final sort as the row engine.
    sort_group_keys(&mut groups);

    let rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.iter().map(Accumulator::finish));
            key
        })
        .collect();
    Ok(ColBatch::all(Arc::new(ColumnarBatch::from_rows(
        &rows,
        plan.schema.len(),
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, LocalShip, MapSource};
    use geoqp_common::{Field, Location, Schema, TableRef};
    use geoqp_expr::ScalarExpr;

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
                vec![Value::Null, Value::str("nobody"), Value::Null],
            ]),
        );
        s.insert(
            TableRef::bare("orders"),
            loc("N"),
            Rows::from_rows(vec![
                vec![Value::Int64(1), Value::Float64(10.0)],
                vec![Value::Int64(1), Value::Float64(20.0)],
                vec![Value::Int64(2), Value::Float64(5.0)],
                vec![Value::Null, Value::Float64(99.0)],
            ]),
        );
        // NULL and string group keys, duplicate-heavy, with float values
        // whose sum depends on the order they are added in.
        let ev = |k: Option<i64>, tag: Option<&str>, x: f64| {
            vec![
                k.map_or(Value::Null, Value::Int64),
                tag.map_or(Value::Null, Value::str),
                Value::Float64(x),
            ]
        };
        s.insert(
            TableRef::bare("events"),
            loc("N"),
            Rows::from_rows(vec![
                ev(Some(1), Some("a"), 0.1),
                ev(None, Some("a"), 0.2),
                ev(Some(1), None, 0.3),
                ev(Some(1), Some("a"), 0.7),
                ev(None, None, 1.1),
                ev(Some(2), Some("b"), 2.0),
                ev(None, Some("a"), 0.4),
                ev(None, None, 0.6),
                ev(Some(2), Some("b"), 1.0),
                ev(Some(3), Some("a"), 3.0),
                ev(Some(1), Some("a"), 1e16),
                ev(Some(1), Some("a"), -1e16),
                ev(Some(0), None, 5.5),
            ]),
        );
        s
    }

    fn events_scan() -> Arc<PhysicalPlan> {
        scan_node(
            "events",
            "N",
            vec![
                Field::new("k", DataType::Int64),
                Field::new("tag", DataType::Str),
                Field::new("x", DataType::Float64),
            ],
        )
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
            "N",
            vec![
                Field::new("o_custkey", DataType::Int64),
                Field::new("o_price", DataType::Float64),
            ],
        )
    }

    /// Row engine and columnar engine must agree row-for-row (order
    /// included) on every plan in these tests.
    fn assert_engines_agree(plan: &PhysicalPlan) {
        let row = execute(plan, &source(), &mut LocalShip).unwrap();
        let col = execute_columnar(plan, &source(), &mut LocalShip).unwrap();
        assert_eq!(row, col);
    }

    #[test]
    fn filter_produces_selection_not_materialization() {
        let scan = customer_scan();
        let schema = Arc::clone(&scan.schema);
        let plan = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: ScalarExpr::col("acctbal").gt(ScalarExpr::lit(150.0)),
            },
            schema,
            loc("N"),
            vec![scan],
        )
        .unwrap();
        let out = execute_fragment_columnar(&plan, &source(), &mut LocalShip, &NoExchange).unwrap();
        assert!(out.sel.is_some(), "filter must return a selection vector");
        assert_eq!(out.n_rows(), 2);
        assert_engines_agree(&plan);
    }

    /// A source that hands out one held allocation, so a test can tell
    /// whether an operator passed the batch through or rebuilt it.
    struct Held(Arc<ColumnarBatch>);

    impl DataSource for Held {
        fn scan(&self, _table: &TableRef, _location: &Location) -> Result<Rows> {
            Ok(self.0.to_rows())
        }
        fn scan_columnar(
            &self,
            _table: &TableRef,
            _location: &Location,
            _arity: usize,
        ) -> Result<Arc<ColumnarBatch>> {
            Ok(Arc::clone(&self.0))
        }
    }

    #[test]
    fn ship_through_local_ship_is_the_same_allocation() {
        let held = Held(
            source()
                .scan_columnar(&TableRef::bare("customer"), &loc("N"), 3)
                .unwrap(),
        );
        let plan = PhysicalPlan::ship(customer_scan(), loc("E"));
        let out = execute_fragment_columnar(&plan, &held, &mut LocalShip, &NoExchange).unwrap();
        assert!(out.sel.is_none());
        assert!(
            Arc::ptr_eq(&out.batch, &held.0),
            "LocalShip must not transpose the batch through rows and back"
        );
    }

    #[test]
    fn join_and_residual_filter_agree_with_row_engine() {
        let c = customer_scan();
        let o = orders_scan();
        let schema = Arc::new(c.schema.join(&o.schema).unwrap());
        let join = PhysicalPlan::new(
            PhysOp::HashJoin {
                left_keys: vec!["custkey".into()],
                right_keys: vec!["o_custkey".into()],
                filter: Some(ScalarExpr::col("o_price").gt(ScalarExpr::lit(9.0))),
            },
            schema,
            loc("N"),
            vec![c, o],
        )
        .unwrap();
        assert_engines_agree(&join);

        // Float64 ⋈ Int64: the numeric domain is merged, so 1.0 = 1, and
        // the comparator takes its general arm. The same plan built on
        // `k` has a duplicate-heavy Int64 key — where match order shows —
        // with NULLs on both sides.
        for build_key in ["x", "k"] {
            let (e, c) = (events_scan(), customer_scan());
            let schema = Arc::new(e.schema.join(&c.schema).unwrap());
            let op = PhysOp::HashJoin {
                left_keys: vec![build_key.into()],
                right_keys: vec!["custkey".into()],
                filter: None,
            };
            let join = PhysicalPlan::new(op, schema, loc("N"), vec![e, c]).unwrap();
            let out = execute_columnar(&join, &source(), &mut LocalShip).unwrap();
            assert_eq!(out.len(), if build_key == "x" { 3 } else { 8 });
            assert_engines_agree(&join);
        }
    }

    #[test]
    fn null_and_string_group_keys_agree_with_row_engine() {
        use geoqp_expr::{AggCall, AggFunc};
        let x = || ScalarExpr::col("x");
        let cases = [
            // Order-insensitive.
            (
                vec![
                    AggCall::count_star("n"),
                    AggCall::new(AggFunc::Min, x(), "lo"),
                ],
                vec![
                    Field::new("n", DataType::Int64),
                    Field::new("lo", DataType::Float64),
                ],
            ),
            // Order-sensitive: a float SUM must add in input order.
            (
                vec![AggCall::new(AggFunc::Sum, x(), "total")],
                vec![Field::new("total", DataType::Float64)],
            ),
        ];
        for (aggs, outputs) in cases {
            let mut fields = vec![
                Field::new("k", DataType::Int64),
                Field::new("tag", DataType::Str),
            ];
            fields.extend(outputs);
            let op = PhysOp::HashAggregate {
                group_by: vec!["k".into(), "tag".into()],
                aggs,
            };
            let schema = Arc::new(Schema::new(fields).unwrap());
            let agg = PhysicalPlan::new(op, schema, loc("N"), vec![events_scan()]).unwrap();
            let out = execute_columnar(&agg, &source(), &mut LocalShip).unwrap();
            assert_eq!(
                out.len(),
                7,
                "(NULL, NULL), (NULL, a) and (1, NULL) are groups"
            );
            assert_engines_agree(&agg);
        }
    }

    #[test]
    fn aggregate_ordering_matches_row_engine_sort() {
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
                    geoqp_expr::AggCall::new(
                        geoqp_expr::AggFunc::Sum,
                        ScalarExpr::col("o_price"),
                        "total",
                    ),
                    geoqp_expr::AggCall::count_star("n"),
                ],
            },
            schema,
            loc("N"),
            vec![o],
        )
        .unwrap();
        assert_engines_agree(&agg);
    }

    #[test]
    fn sort_limit_union_project_agree() {
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
        let limit = Arc::new(
            PhysicalPlan::new(
                PhysOp::Limit { fetch: 2 },
                Arc::clone(&schema),
                loc("N"),
                vec![sort],
            )
            .unwrap(),
        );
        let union = Arc::new(
            PhysicalPlan::new(
                PhysOp::Union,
                Arc::clone(&schema),
                loc("N"),
                vec![Arc::clone(&limit), customer_scan()],
            )
            .unwrap(),
        );
        let project = PhysicalPlan::new(
            PhysOp::Project {
                exprs: vec![
                    (ScalarExpr::col("name"), "name".into()),
                    (
                        ScalarExpr::col("acctbal").mul(ScalarExpr::lit(2.0)),
                        "dbl".into(),
                    ),
                ],
            },
            Arc::new(
                Schema::new(vec![
                    Field::new("name", DataType::Str),
                    Field::new("dbl", DataType::Float64),
                ])
                .unwrap(),
            ),
            loc("N"),
            vec![union],
        )
        .unwrap();
        assert_engines_agree(&project);
    }

    #[test]
    fn complex_predicates_agree_including_nulls() {
        // Exercises fast masks (cmp, IN, BETWEEN, LIKE, IS NULL, AND/OR)
        // and the hybrid fallback, over a table with NULL keys.
        let preds = vec![
            ScalarExpr::col("acctbal")
                .gt(ScalarExpr::lit(50.0))
                .and(ScalarExpr::col("custkey").lt(ScalarExpr::lit(3i64))),
            ScalarExpr::col("name").like("%o%"),
            ScalarExpr::col("custkey").in_list(vec![Value::Int64(1), Value::Int64(3)]),
            ScalarExpr::col("acctbal").between(ScalarExpr::lit(150.0), ScalarExpr::lit(350.0)),
            ScalarExpr::col("acctbal").is_null(),
            ScalarExpr::col("acctbal")
                .is_null()
                .or(ScalarExpr::col("name").eq(ScalarExpr::lit(Value::str("bob")))),
            // Arithmetic forces the scalar fallback path.
            ScalarExpr::col("acctbal")
                .add(ScalarExpr::lit(1.0))
                .gt(ScalarExpr::lit(200.0)),
            // Hybrid: fast lhs, slow rhs.
            ScalarExpr::col("custkey").gt(ScalarExpr::lit(0i64)).and(
                ScalarExpr::col("acctbal")
                    .mul(ScalarExpr::lit(2.0))
                    .lt(ScalarExpr::lit(500.0)),
            ),
        ];
        for p in preds {
            let scan = customer_scan();
            let schema = Arc::clone(&scan.schema);
            let plan = PhysicalPlan::new(
                PhysOp::Filter {
                    predicate: p.clone(),
                },
                schema,
                loc("N"),
                vec![scan],
            )
            .unwrap();
            let row = execute(&plan, &source(), &mut LocalShip).unwrap();
            let col = execute_columnar(&plan, &source(), &mut LocalShip).unwrap();
            assert_eq!(row, col, "predicate {p:?} diverged");
        }
    }

    #[test]
    fn division_by_zero_errors_in_both_engines() {
        let scan = customer_scan();
        let schema = Arc::clone(&scan.schema);
        let plan = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: ScalarExpr::col("custkey")
                    .div(ScalarExpr::lit(0i64))
                    .gt(ScalarExpr::lit(0i64)),
            },
            schema,
            loc("N"),
            vec![scan],
        )
        .unwrap();
        let row = execute(&plan, &source(), &mut LocalShip).unwrap_err();
        let col = execute_columnar(&plan, &source(), &mut LocalShip).unwrap_err();
        assert_eq!(row.to_string(), col.to_string());
    }
}
