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
//!   Kleene `AND`/`OR`/`NOT` over such masks); anything that may error
//!   falls back to a per-row scalar mirror of `BoundExpr::eval`,
//!   evaluated in row order so the first error matches the row engine's.
//!   A mask is a *truth pair* — one TRUE byte and one FALSE byte per row,
//!   neither meaning NULL — so Kleene logic is bytewise, each comparison
//!   picks its operator once per column (an interval test for integers
//!   and dates, one loop per operator for floats, one test per dictionary
//!   entry for strings), and the selection is written without a branch on
//!   the data, over the input's own rows or selection.
//! * **Same rows, same order** — joins probe in input order and emit
//!   matches in build-insertion order; aggregation folds every argument
//!   in row order (float sums are order-sensitive) into per-group typed
//!   vectors and orders its groups as the row engine's one explicit
//!   final sort does. Every operator is
//!   order-preserving, so SHIP payloads batch identically and shipped
//!   bytes match to the byte.
//!
//! **A cell is copied when an operator first reads it, and never
//! otherwise.** Filters return the input batch plus a selection vector,
//! which downstream kernels consume positionally. A projection of plain
//! column references is pointer copies of its input's columns, whatever
//! their size; only computed expressions make new cells. A join emits two
//! position lists, and its output columns stay *pending* on them (see
//! [`geoqp_common::columnar`]) until a kernel's own read set — a key, a
//! predicate column, an aggregate argument — asks for one, so a column
//! that rides through three joins to be read by nobody is never
//! gathered, and one that is read is gathered once, from its original
//! source. Everything is forced where rows leave the interpreter: SHIP
//! (whose byte accounting sizes every column, one task per column on the
//! morsel pool), the plan root, and `Union` (which concatenates).

use crate::aggregate::BoundAgg;
use crate::executor::{DataSource, ExchangeSource, NoExchange, ShipHandler};
use crate::keyed::{group_positioning, positioning, Grouping, JoinIndex, Keyed};
use crate::parallel::{first_error, morsels, parallel_map, MorselRunner, SERIAL};
use geoqp_common::{
    Cells, Column, ColumnarBatch, DataType, GeoError, Result, Rows, SharedColumn, Value,
};
use geoqp_expr::{apply_cmp, as_tv, bind, AggFunc, BinaryOp, BoundExpr, UnaryOp};
use geoqp_plan::{PhysOp, PhysicalPlan, SortKey};
use std::borrow::Cow;
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
    /// selection is attached): what a sort permutes.
    fn indices(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.as_ref().clone(),
            None => (0..self.batch.len() as u32).collect(),
        }
    }

    /// The selected rows as a standalone batch, without copying a cell:
    /// an `Arc` clone when nothing is filtered out, otherwise columns
    /// pending on the selection until something reads them.
    pub fn materialize(&self) -> Arc<ColumnarBatch> {
        match &self.sel {
            None => Arc::clone(&self.batch),
            Some(s) => Arc::new(self.batch.gather(Arc::clone(s))),
        }
    }

    /// [`ColBatch::materialize`] for rows that leave the interpreter — a
    /// SHIP payload, the plan root: every column still pending is
    /// gathered now, one task per column on `runner` (columns are
    /// independent, so the batch is the same on any schedule).
    pub fn materialize_all(&self, runner: &dyn MorselRunner) -> Arc<ColumnarBatch> {
        let out = self.materialize();
        parallel_map(runner, out.arity(), |j| {
            out.column(j);
        });
        out
    }

    /// Convert to row-major form. The columns are gathered here; the
    /// transpose is deferred ([`Rows::from_batch`]) and happens only if a
    /// consumer asks for rows.
    pub fn to_rows(&self) -> Rows {
        Rows::from_batch(self.materialize_all(&SERIAL))
    }
}

/// Morsel-parallel [`filter_indices`] over the rows `sel` of `b` (`None`
/// = every row): split the rows into morsels, filter each independently,
/// and concatenate the survivors in morsel order — the same rows, in the
/// same order, as one sequential pass. Errors report from the lowest
/// morsel, which holds the earliest failing row.
fn filter_indices_morsel(
    runner: &dyn MorselRunner,
    predicate: &BoundExpr,
    b: &ColumnarBatch,
    sel: Option<&[u32]>,
) -> Result<Vec<u32>> {
    let rows = Window::of(b, sel);
    let bounds = morsels(runner, rows.len());
    if bounds.len() <= 1 {
        return filter_indices(predicate, b, rows);
    }
    let parts = parallel_map(runner, bounds.len(), |m| {
        filter_indices(predicate, b, rows.part(bounds[m]))
    });
    Ok(first_error(parts)?.concat())
}

/// The column `e` evaluates to over the selected rows of `input`, whose
/// pending materialization is `base`. A plain column reference *is*
/// `base`'s column — a pointer copy, gathered if and when somebody reads
/// it; anything else is computed now.
fn eval_shared(
    runner: &dyn MorselRunner,
    e: &BoundExpr,
    input: &ColBatch,
    base: &ColumnarBatch,
) -> Result<SharedColumn> {
    match e {
        BoundExpr::Column(c) if *c < base.arity() => Ok(base.shared_columns()[*c].clone()),
        _ => eval_column_morsel(runner, e, &input.batch, input.selection()).map(Into::into),
    }
}

/// Morsel-parallel [`eval_column`] for expressions only the scalar mirror
/// can evaluate: each morsel evaluates its rows through it, and the
/// chunks are joined in morsel order before the one type-sniffing
/// [`Column::from_values`] pass — so the output column (layout included)
/// is identical to the sequential evaluation. Literals and typed
/// arithmetic are already column-at-a-time and skip the split.
fn eval_column_morsel(
    runner: &dyn MorselRunner,
    e: &BoundExpr,
    b: &ColumnarBatch,
    sel: Option<&[u32]>,
) -> Result<Column> {
    let bounds = morsels(runner, n_selected(b, sel));
    if bounds.len() <= 1 || matches!(e, BoundExpr::Literal(_)) {
        return eval_column(e, b, sel);
    }
    if let Some(column) = arith_column(e, b, sel) {
        return Ok(column);
    }
    let parts = parallel_map(runner, bounds.len(), |m| {
        eval_scalar_rows(e, b, sel, bounds[m])
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
    if let Some(batch) = exchange.fetch(plan) {
        return Ok(ColBatch::all(batch?));
    }
    match &plan.op {
        PhysOp::Scan { table } => Ok(ColBatch::all(source.scan(table, &plan.location)?)),
        PhysOp::Filter { predicate } => {
            let input = &plan.inputs[0];
            let in_batch = execute_fragment_columnar(input, source, ship, exchange)?;
            let bound = bind(predicate, &input.schema)?;
            let runner = exchange.runner();
            let kept =
                filter_indices_morsel(runner, &bound, &in_batch.batch, in_batch.selection())?;
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
            let base = in_batch.materialize();
            let columns: Vec<SharedColumn> = bound
                .iter()
                .map(|e| eval_shared(exchange.runner(), e, &in_batch, &base))
                .collect::<Result<_>>()?;
            let out = ColumnarBatch::from_shared(in_batch.n_rows(), columns);
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
            let cols: Vec<(&Column, bool)> = keys
                .iter()
                .map(|k: &SortKey| {
                    let c = input.schema.require_index(&k.column)?;
                    Ok((in_batch.batch.column(c), k.descending))
                })
                .collect::<Result<_>>()?;
            let mut idx = in_batch.indices();
            // Stable, like the row engine's `sort_by`: ties keep input
            // order. `cmp_at` orders two cells as `total_cmp` orders their
            // values, without building either.
            idx.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let mut ord = cols.iter().map(|(col, desc)| {
                    let ord = col.cmp_at(a, b);
                    if *desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                ord.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
            });
            Ok(ColBatch {
                batch: in_batch.batch,
                sel: Some(Arc::new(idx)),
            })
        }
        PhysOp::Limit { fetch } => {
            let in_batch = execute_fragment_columnar(&plan.inputs[0], source, ship, exchange)?;
            if in_batch.n_rows() <= *fetch {
                return Ok(in_batch);
            }
            let first = match in_batch.selection() {
                Some(s) => s[..*fetch].to_vec(),
                None => (0..*fetch as u32).collect(),
            };
            Ok(ColBatch {
                batch: in_batch.batch,
                sel: Some(Arc::new(first)),
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
            let payload = in_batch.materialize_all(exchange.runner());
            Ok(ColBatch::all(ship.ship_columnar(
                &input.location,
                &plan.location,
                payload,
                &input.schema,
            )?))
        }
        PhysOp::ResumeScan { fingerprint, .. } => {
            Ok(ColBatch::all(source.resume(*fingerprint, &plan.location)?))
        }
    }
}

/// Evaluate `e` at physical row `i` of `b`: [`BoundExpr::eval`] reading
/// its column values straight from the batch instead of a materialized
/// row.
fn eval_scalar(e: &BoundExpr, b: &ColumnarBatch, i: usize) -> Result<Value> {
    e.eval_with(&|c| (c < b.arity()).then(|| b.get(i, c)))
}

/// How many rows `sel` selects of `b` (`None` = every row).
fn n_selected(b: &ColumnarBatch, sel: Option<&[u32]>) -> usize {
    sel.map_or(b.len(), <[u32]>::len)
}

/// [`eval_scalar`] over rows `lo..hi` of the selection, in row order,
/// stopping at the first error.
fn eval_scalar_rows(
    e: &BoundExpr,
    b: &ColumnarBatch,
    sel: Option<&[u32]>,
    (lo, hi): (usize, usize),
) -> Result<Vec<Value>> {
    (lo..hi)
        .map(|k| eval_scalar(e, b, sel.map_or(k, |s| s[k] as usize)))
        .collect()
}

// ---------------------------------------------------------------------
// Vectorized predicates: truth pairs.
// ---------------------------------------------------------------------

/// The rows a predicate kernel reads, in order: a run of physical rows
/// (an input with no selection, or one morsel of it), or a stretch of a
/// selection. No identity index is ever built for the first.
#[derive(Clone, Copy)]
enum Window<'a> {
    Range(usize, usize),
    Sel(&'a [u32]),
}

impl<'a> Window<'a> {
    /// Every selected row of `b` (`None` = every row).
    fn of(b: &ColumnarBatch, sel: Option<&'a [u32]>) -> Window<'a> {
        sel.map_or(Window::Range(0, b.len()), Window::Sel)
    }

    fn len(&self) -> usize {
        match *self {
            Window::Range(lo, hi) => hi - lo,
            Window::Sel(s) => s.len(),
        }
    }

    /// Rows `lo..hi` of this window.
    fn part(&self, (lo, hi): (usize, usize)) -> Window<'a> {
        match *self {
            Window::Range(start, _) => Window::Range(start + lo, start + hi),
            Window::Sel(s) => Window::Sel(&s[lo..hi]),
        }
    }

    /// Physical index of row `k` of the window.
    #[inline]
    fn phys(&self, k: usize) -> usize {
        match *self {
            Window::Range(lo, _) => lo + k,
            Window::Sel(s) => s[k] as usize,
        }
    }

    /// `f` of each row's cell and validity, in row order: a plain walk of
    /// the column's slices when the window is a range.
    fn map<T: Copy>(&self, cells: &Cells<T>, f: impl Fn(T, bool) -> u8) -> Vec<u8> {
        match *self {
            Window::Range(lo, hi) => {
                let rows = cells.values[lo..hi].iter().zip(&cells.valid[lo..hi]);
                rows.map(|(&x, &valid)| f(x, valid)).collect()
            }
            Window::Sel(s) => {
                let row = |&i: &u32| f(cells.values[i as usize], cells.valid[i as usize]);
                s.iter().map(row).collect()
            }
        }
    }

    /// The physical rows whose `keep` byte is 1, in order. Every row is
    /// written and the end advances by its byte, so the loop has no
    /// branch on the data; a list under half full is shrunk.
    fn select(&self, keep: &[u8]) -> Vec<u32> {
        let mut out = vec![0u32; keep.len()];
        let mut n = 0;
        match *self {
            Window::Range(lo, _) => {
                for (k, &b) in keep.iter().enumerate() {
                    out[n] = (lo + k) as u32;
                    n += b as usize;
                }
            }
            Window::Sel(s) => {
                for (&i, &b) in s.iter().zip(keep) {
                    out[n] = i;
                    n += b as usize;
                }
            }
        }
        out.truncate(n);
        if n < out.capacity() / 2 {
            out.shrink_to_fit();
        }
        out
    }
}

/// A three-valued mask over a window: per row one TRUE byte and one
/// FALSE byte, each 0 or 1; a row with neither is NULL. Kleene logic is
/// bytewise — AND is `&` of the TRUE bytes and `|` of the FALSE bytes, OR
/// the other way round, and NOT swaps the two.
struct Truth {
    t: Vec<u8>,
    f: Vec<u8>,
}

impl Truth {
    /// `v` in each of `n` rows.
    fn constant(v: Option<bool>, n: usize) -> Truth {
        Truth {
            t: vec![u8::from(v == Some(true)); n],
            f: vec![u8::from(v == Some(false)); n],
        }
    }

    fn and(self, r: Truth) -> Truth {
        Truth {
            t: bytewise(self.t, &r.t, |a, b| a & b),
            f: bytewise(self.f, &r.f, |a, b| a | b),
        }
    }

    fn or(self, r: Truth) -> Truth {
        Truth {
            t: bytewise(self.t, &r.t, |a, b| a | b),
            f: bytewise(self.f, &r.f, |a, b| a & b),
        }
    }

    fn not(self) -> Truth {
        Truth {
            t: self.f,
            f: self.t,
        }
    }
}

/// `a[k] = op(a[k], b[k])`, in place.
fn bytewise(mut a: Vec<u8>, b: &[u8], op: impl Fn(u8, u8) -> u8) -> Vec<u8> {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = op(*x, y);
    }
    a
}

/// TRUE where a valid cell passes `hit`, FALSE where it fails, NULL
/// where the cell is NULL: two branch-free passes, `hit` inlined into
/// each.
fn cells_truth<T: Copy>(cells: &Cells<T>, w: Window<'_>, hit: impl Fn(T) -> bool) -> Truth {
    Truth {
        t: w.map(cells, |x, valid| u8::from(valid & hit(x))),
        f: w.map(cells, |x, valid| u8::from(valid & !hit(x))),
    }
}

/// A truth pair from one [`Value`]-level verdict per row, for the shapes
/// no typed loop covers (a mixed column, two columns compared, `IN` over
/// numbers).
fn values_truth(w: Window<'_>, verdict: impl Fn(usize) -> Option<bool>) -> Truth {
    let mut truth = Truth::constant(None, w.len());
    for k in 0..w.len() {
        let v = verdict(w.phys(k));
        truth.t[k] = u8::from(v == Some(true));
        truth.f[k] = u8::from(v == Some(false));
    }
    truth
}

/// Can `sql_cmp` order values of these two types? It only returns
/// `None` (→ "incomparable" error) when it cannot; a mixed column or a
/// NULL literal (no type) proves nothing.
fn comparable(a: Option<DataType>, b: Option<DataType>) -> bool {
    matches!((a, b), (Some(a), Some(b)) if a.comparable_with(b))
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

/// Try to evaluate `e` as an error-free truth pair over the window `w`
/// of `b`. Returns `None` when `e` is not a shape this kernel can prove
/// error-free; the caller then falls back to the scalar mirror.
fn fast_mask(e: &BoundExpr, b: &ColumnarBatch, w: Window<'_>) -> Option<Truth> {
    match e {
        BoundExpr::Literal(Value::Bool(x)) => Some(Truth::constant(Some(*x), w.len())),
        BoundExpr::Literal(Value::Null) => Some(Truth::constant(None, w.len())),
        BoundExpr::Binary { op, lhs, rhs } if *op == BinaryOp::And || *op == BinaryOp::Or => {
            // Both sides error-free ⇒ full evaluation matches Kleene
            // logic with or without short-circuiting.
            let l = fast_mask(lhs, b, w)?;
            let r = fast_mask(rhs, b, w)?;
            Some(if *op == BinaryOp::And {
                l.and(r)
            } else {
                l.or(r)
            })
        }
        BoundExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
            cmp_mask(*op, operand(lhs, b)?, operand(rhs, b)?, w)
        }
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Some(fast_mask(expr, b, w)?.not()),
        BoundExpr::IsNull { expr, negated } => match operand(expr, b)? {
            Operand::Col(col) => Some(values_truth(w, |i| Some(col.is_null(i) != *negated))),
            Operand::Lit(_) => None,
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => match operand(expr, b)? {
            // `IN` over constants never errors (incomparable candidates
            // simply don't match), so any column shape is fair game.
            Operand::Col(col) => Some(in_list_mask(col, list, *negated, w)),
            Operand::Lit(_) => None,
        },
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => match (expr.as_ref(), low.as_ref(), high.as_ref()) {
            // BETWEEN never errors either: bounds that don't compare
            // yield `false` legs, not errors.
            (BoundExpr::Column(c), BoundExpr::Literal(lo), BoundExpr::Literal(hi))
                if *c < b.arity() =>
            {
                Some(between_mask(b.column(*c), lo, hi, *negated, w))
            }
            _ => None,
        },
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => match operand(expr, b)? {
            // Only string-typed columns are provably error-free (LIKE on
            // a non-string value is a runtime error in the row engine).
            Operand::Col(Column::Str { dict, codes, .. }) => Some(dict_mask(dict, codes, w, |s| {
                pattern.matches(s) != *negated
            })),
            _ => None,
        },
        _ => None,
    }
}

/// A truth pair over a string column from one test per dictionary
/// entry; a NULL row is NULL.
fn dict_mask(
    dict: &[Arc<str>],
    codes: &Cells<u32>,
    w: Window<'_>,
    hit: impl Fn(&Arc<str>) -> bool,
) -> Truth {
    let mut hits: Vec<bool> = dict.iter().map(hit).collect();
    // A NULL row's code is a placeholder 0, read and then masked.
    hits.resize(dict.len().max(1), false);
    cells_truth(codes, w, |code| hits[code as usize])
}

fn in_list_mask(col: &Column, list: &[Value], negated: bool, w: Window<'_>) -> Truth {
    let listed = |v: &Value| list.iter().any(|c| v.sql_cmp(c) == Some(Ordering::Equal)) != negated;
    if let Column::Str { dict, codes, .. } = col {
        return dict_mask(dict, codes, w, |s| listed(&Value::Str(Arc::clone(s))));
    }
    values_truth(w, |i| {
        let v = col.get(i);
        (!v.is_null()).then(|| listed(&v))
    })
}

/// `col BETWEEN lo AND hi`: one interval test per cell for an `Int64` or
/// `Date` column between two bounds of its own type, the row engine's two
/// `sql_cmp` legs per row otherwise. A NULL cell or bound is NULL.
fn between_mask(col: &Column, lo: &Value, hi: &Value, negated: bool, w: Window<'_>) -> Truth {
    match (col, lo, hi) {
        (_, Value::Null, _) | (_, _, Value::Null) => Truth::constant(None, w.len()),
        (Column::Int64(cells), Value::Int64(lo), Value::Int64(hi)) => {
            interval_mask(cells, (*lo, *hi), negated, w)
        }
        (Column::Date(cells), Value::Date(lo), Value::Date(hi)) => {
            interval_mask(cells, ((*lo).into(), (*hi).into()), negated, w)
        }
        _ => values_truth(w, |i| {
            let v = col.get(i);
            if v.is_null() {
                return None;
            }
            let ge_lo = matches!(v.sql_cmp(lo), Some(Ordering::Greater | Ordering::Equal));
            let le_hi = matches!(v.sql_cmp(hi), Some(Ordering::Less | Ordering::Equal));
            Some((ge_lo && le_hi) != negated)
        }),
    }
}

/// `lo ≤ x ≤ hi` (empty when `lo > hi`), negated when asked, as one
/// branch-free test per cell.
fn interval_mask<T: Copy + Into<i64>>(
    cells: &Cells<T>,
    (lo, hi): (i64, i64),
    negated: bool,
    w: Window<'_>,
) -> Truth {
    cells_truth(cells, w, |x| {
        let x = x.into();
        ((lo <= x) & (x <= hi)) != negated
    })
}

/// The integers `x` with `x op y`, as one closed interval and whether to
/// negate it (`<>` is `=` negated). A bound past the `i64` range is an
/// empty interval: no `x` is below `i64::MIN`.
fn interval(op: BinaryOp, y: i64) -> ((i64, i64), bool) {
    const EMPTY: (i64, i64) = (1, 0);
    let bounds = match op {
        BinaryOp::Eq | BinaryOp::NotEq => (y, y),
        BinaryOp::Lt => y.checked_sub(1).map_or(EMPTY, |y| (i64::MIN, y)),
        BinaryOp::LtEq => (i64::MIN, y),
        BinaryOp::Gt => y.checked_add(1).map_or(EMPTY, |y| (y, i64::MAX)),
        BinaryOp::GtEq => (y, i64::MAX),
        _ => unreachable!("not a comparison"),
    };
    (bounds, op == BinaryOp::NotEq)
}

/// `a op b` as `b op' a`: the operator with its operands swapped.
fn mirrored(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        op => op,
    }
}

/// `order(cell) op Equal` over the window, one loop per operator.
fn ordered_mask<T: Copy>(
    cells: &Cells<T>,
    op: BinaryOp,
    w: Window<'_>,
    order: impl Fn(T) -> Ordering,
) -> Truth {
    match op {
        BinaryOp::Eq => cells_truth(cells, w, |x| order(x).is_eq()),
        BinaryOp::NotEq => cells_truth(cells, w, |x| order(x).is_ne()),
        BinaryOp::Lt => cells_truth(cells, w, |x| order(x).is_lt()),
        BinaryOp::LtEq => cells_truth(cells, w, |x| order(x).is_le()),
        BinaryOp::Gt => cells_truth(cells, w, |x| order(x).is_gt()),
        BinaryOp::GtEq => cells_truth(cells, w, |x| order(x).is_ge()),
        _ => unreachable!("not a comparison"),
    }
}

/// Vectorized comparison of two operands, or `None` when the pair cannot
/// be proven error-free (mismatched classes, `Any` columns).
fn cmp_mask(op: BinaryOp, lhs: Operand<'_>, rhs: Operand<'_>, w: Window<'_>) -> Option<Truth> {
    // A NULL literal anywhere makes the whole comparison NULL — the row
    // engine checks nullness before comparability.
    if matches!(lhs, Operand::Lit(Value::Null)) || matches!(rhs, Operand::Lit(Value::Null)) {
        return Some(Truth::constant(None, w.len()));
    }
    match (&lhs, &rhs) {
        (Operand::Lit(a), Operand::Lit(b)) => {
            if !comparable(a.data_type(), b.data_type()) {
                return None;
            }
            let ord = a.sql_cmp(b)?;
            Some(Truth::constant(Some(apply_cmp(op, ord)), w.len()))
        }
        (Operand::Col(c), Operand::Lit(v)) => col_lit_mask(op, c, v, w),
        (Operand::Lit(v), Operand::Col(c)) => col_lit_mask(mirrored(op), c, v, w),
        (Operand::Col(a), Operand::Col(b)) => {
            if !comparable(a.data_type(), b.data_type()) {
                return None;
            }
            Some(values_truth(w, |i| {
                if a.is_null(i) || b.is_null(i) {
                    return None;
                }
                let ord = a.get(i).sql_cmp(&b.get(i)).expect("same class compares");
                Some(apply_cmp(op, ord))
            }))
        }
    }
}

/// `col op lit`, one typed loop per layout with the operator picked
/// once: an interval test for an `Int64` or `Date` column against its
/// own type, `total_cmp` against any other number, one test per
/// dictionary entry for a string. `None` when the two are not
/// comparable.
fn col_lit_mask(op: BinaryOp, col: &Column, lit: &Value, w: Window<'_>) -> Option<Truth> {
    // sql_cmp compares two integers exactly and merges any other pair of
    // numbers through f64 total_cmp.
    let number = lit.data_type().filter(|t| t.is_numeric()).and(lit.as_f64());
    Some(match (col, lit, number) {
        (Column::Int64(cells), Value::Int64(y), _) => {
            let (bounds, negated) = interval(op, *y);
            interval_mask(cells, bounds, negated, w)
        }
        (Column::Date(cells), Value::Date(d), _) => {
            let (bounds, negated) = interval(op, (*d).into());
            interval_mask(cells, bounds, negated, w)
        }
        (Column::Int64(cells), _, Some(y)) => {
            ordered_mask(cells, op, w, |x| (x as f64).total_cmp(&y))
        }
        (Column::Float64(cells), _, Some(y)) => ordered_mask(cells, op, w, |x| x.total_cmp(&y)),
        (Column::Bool(cells), Value::Bool(b), _) => ordered_mask(cells, op, w, |x| x.cmp(b)),
        (Column::Str { dict, codes, .. }, Value::Str(lit), _) => dict_mask(dict, codes, w, |s| {
            apply_cmp(op, s.as_ref().cmp(lit.as_ref()))
        }),
        _ => return None,
    })
}

/// Compute the surviving physical rows of the window `w` for
/// `predicate`, with error behavior matching the row engine's
/// row-by-row evaluation order.
fn filter_indices(predicate: &BoundExpr, b: &ColumnarBatch, w: Window<'_>) -> Result<Vec<u32>> {
    if let Some(mask) = fast_mask(predicate, b, w) {
        return Ok(w.select(&mask.t));
    }
    // Hybrid AND/OR: vectorize the error-free side, run the other side's
    // scalar mirror only on the rows where the row engine would have
    // evaluated it (Kleene short-circuit), preserving error order.
    if let BoundExpr::Binary { op, lhs, rhs } = predicate {
        if *op == BinaryOp::And || *op == BinaryOp::Or {
            if let Some(lmask) = fast_mask(lhs, b, w) {
                return hybrid_filter(*op, &lmask, rhs, b, w, true);
            }
            if let Some(rmask) = fast_mask(rhs, b, w) {
                return hybrid_filter(*op, &rmask, lhs, b, w, false);
            }
        }
    }
    let mut out = Vec::new();
    for k in 0..w.len() {
        let i = w.phys(k);
        if eval_scalar(predicate, b, i)?.is_true() {
            out.push(i as u32);
        }
    }
    Ok(out)
}

/// One side of an AND/OR is a precomputed error-free truth pair, the
/// other is evaluated row-at-a-time. `mask_is_lhs` tells which operand
/// the pair came from, which determines the short-circuit direction.
fn hybrid_filter(
    op: BinaryOp,
    mask: &Truth,
    slow: &BoundExpr,
    b: &ColumnarBatch,
    w: Window<'_>,
    mask_is_lhs: bool,
) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    for k in 0..w.len() {
        let i = w.phys(k);
        let (is_true, is_false) = (mask.t[k] == 1, mask.f[k] == 1);
        let keep = match (op, mask_is_lhs) {
            (BinaryOp::And, true) => {
                // Row engine: lhs false short-circuits; otherwise rhs is
                // evaluated (even under a NULL lhs) and may error.
                if is_false {
                    continue;
                }
                let r = as_tv(&eval_scalar(slow, b, i)?)?;
                is_true && r == Some(true)
            }
            (BinaryOp::And, false) => {
                // Row engine evaluates lhs first; false short-circuits
                // before the (error-free) rhs would run.
                let l = eval_scalar(slow, b, i)?;
                if l == Value::Bool(false) {
                    continue;
                }
                as_tv(&l)? == Some(true) && is_true
            }
            // lhs true short-circuits; otherwise rhs decides.
            (BinaryOp::Or, true) => is_true || as_tv(&eval_scalar(slow, b, i)?)? == Some(true),
            (BinaryOp::Or, false) => {
                let l = eval_scalar(slow, b, i)?;
                l == Value::Bool(true) || as_tv(&l)? == Some(true) || is_true
            }
            _ => unreachable!("hybrid_filter only handles AND/OR"),
        };
        if keep {
            out.push(i as u32);
        }
    }
    Ok(out)
}

/// Evaluate a computed expression into a column over the rows `sel` of
/// `b` (`None` = every row). Literals broadcast and error-free numeric
/// arithmetic runs column-at-a-time ([`arith_column`]); anything else
/// goes through the scalar mirror, in row order, and re-sniffs a typed
/// layout.
fn eval_column(e: &BoundExpr, b: &ColumnarBatch, sel: Option<&[u32]>) -> Result<Column> {
    let n = n_selected(b, sel);
    if let BoundExpr::Literal(v) = e {
        return Ok(Column::from_values(vec![v.clone(); n]));
    }
    if let Some(column) = arith_column(e, b, sel) {
        return Ok(column);
    }
    Ok(Column::from_values(eval_scalar_rows(e, b, sel, (0, n))?))
}

// ---------------------------------------------------------------------
// Typed arithmetic.
// ---------------------------------------------------------------------

/// A numeric operand over the selected rows: a typed vector with its
/// validity, or a literal standing for the same value in every row.
enum Num<'a> {
    Ints(Cow<'a, Cells<i64>>),
    Floats(Cow<'a, Cells<f64>>),
    Int(i64),
    Float(f64),
}

/// One side of a typed kernel, its layout picked once per column: a
/// cell per row with its validity, or one value for every row.
enum Side<'a, T: Clone> {
    Cells(Cow<'a, [T]>, &'a [bool]),
    Lit(T),
}

impl<'a> Num<'a> {
    /// The operand as integers, when it is one.
    fn ints(&'a self) -> Option<Side<'a, i64>> {
        match self {
            Num::Ints(cells) => Some(Side::Cells(Cow::Borrowed(&cells.values), &cells.valid)),
            Num::Int(x) => Some(Side::Lit(*x)),
            Num::Floats(_) | Num::Float(_) => None,
        }
    }

    /// The operand as `Value::as_f64` reads it: an integer column is
    /// widened once, here.
    fn floats(&'a self) -> Side<'a, f64> {
        match self {
            Num::Ints(cells) => {
                let widened = cells.values.iter().map(|&x| x as f64).collect();
                Side::Cells(Cow::Owned(widened), &cells.valid)
            }
            Num::Floats(cells) => Side::Cells(Cow::Borrowed(&cells.values), &cells.valid),
            Num::Int(x) => Side::Lit(*x as f64),
            Num::Float(x) => Side::Lit(*x),
        }
    }
}

/// `f` over `n` rows of `l` and `r`: NULL where either side is (a
/// `T::default()` placeholder under a cleared validity bit, as
/// [`Column::from_values`] lays it out), in one loop per pairing of
/// layouts.
fn zip<T: Copy + Default>(
    l: Side<'_, T>,
    r: Side<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> T,
) -> Cells<T> {
    let cell = |ok: bool, x: T, y: T| if ok { f(x, y) } else { T::default() };
    match (l, r) {
        (Side::Cells(a, av), Side::Cells(b, bv)) => {
            let valid: Vec<bool> = av.iter().zip(bv).map(|(&x, &y)| x && y).collect();
            let cells = a.iter().zip(b.iter()).zip(&valid);
            let values = cells.map(|((&x, &y), &ok)| cell(ok, x, y)).collect();
            Cells { values, valid }
        }
        (Side::Cells(a, valid), Side::Lit(y)) => Cells {
            values: a
                .iter()
                .zip(valid)
                .map(|(&x, &ok)| cell(ok, x, y))
                .collect(),
            valid: valid.to_vec(),
        },
        (Side::Lit(x), Side::Cells(b, valid)) => Cells {
            values: b
                .iter()
                .zip(valid)
                .map(|(&y, &ok)| cell(ok, x, y))
                .collect(),
            valid: valid.to_vec(),
        },
        (Side::Lit(x), Side::Lit(y)) => Cells {
            values: vec![f(x, y); n],
            valid: vec![true; n],
        },
    }
}

/// The cells of a column at the selected rows: borrowed when every row
/// is selected, copied through the selection otherwise.
fn selected<'a, T: Copy + Default>(cells: &'a Cells<T>, sel: Option<&[u32]>) -> Cow<'a, Cells<T>> {
    match sel {
        None => Cow::Borrowed(cells),
        Some(s) => Cow::Owned(cells.gather(s)),
    }
}

/// `e` as a numeric operand, when it is built only from `Int64`/`Float64`
/// columns, numeric literals and the arithmetic [`arith`] accepts — the
/// shapes that cannot raise an error on any row. `None` otherwise.
fn num_expr<'a>(e: &'a BoundExpr, b: &'a ColumnarBatch, sel: Option<&[u32]>) -> Option<Num<'a>> {
    match e {
        BoundExpr::Literal(Value::Int64(x)) => Some(Num::Int(*x)),
        BoundExpr::Literal(Value::Float64(x)) => Some(Num::Float(*x)),
        BoundExpr::Column(c) if *c < b.arity() => match b.column(*c) {
            Column::Int64(cells) => Some(Num::Ints(selected(cells, sel))),
            Column::Float64(cells) => Some(Num::Floats(selected(cells, sel))),
            _ => None,
        },
        BoundExpr::Binary { op, lhs, rhs } => {
            let (l, r) = (num_expr(lhs, b, sel)?, num_expr(rhs, b, sel)?);
            arith(*op, &l, &r, n_selected(b, sel))
        }
        _ => None,
    }
}

/// `l op r` over `n` rows, exactly as `eval_arith` computes it row by
/// row: two integers stay in wrapping integer arithmetic, any other pair
/// widens both sides to `f64` first, and a NULL on either side is a NULL.
/// `None` for what is not arithmetic or can fail: integer division
/// raises on a zero divisor, so it stays with the scalar mirror and its
/// row-order errors.
fn arith(op: BinaryOp, l: &Num<'_>, r: &Num<'_>, n: usize) -> Option<Num<'static>> {
    use BinaryOp::{Add, Div, Mul, Sub};
    if !matches!(op, Add | Sub | Mul | Div) {
        return None;
    }
    if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
        let cells = match op {
            Add => zip(a, b, n, i64::wrapping_add),
            Sub => zip(a, b, n, i64::wrapping_sub),
            Mul => zip(a, b, n, i64::wrapping_mul),
            _ => return None,
        };
        return Some(Num::Ints(Cow::Owned(cells)));
    }
    let (a, b) = (l.floats(), r.floats());
    let cells = match op {
        Add => zip(a, b, n, |x, y| x + y),
        Sub => zip(a, b, n, |x, y| x - y),
        Mul => zip(a, b, n, |x, y| x * y),
        _ => zip(a, b, n, |x, y| x / y),
    };
    Some(Num::Floats(Cow::Owned(cells)))
}

/// The typed arm of [`eval_column`]: arithmetic over numeric columns and
/// literals, computed column-at-a-time instead of boxing every cell into
/// a [`Value`]. The result is the column [`Column::from_values`] would
/// have sniffed from the scalar mirror's values, layout included — in
/// particular a result with no non-NULL row (empty input, all-NULL
/// operand) takes the `Int64` layout whatever its type.
fn arith_column(e: &BoundExpr, b: &ColumnarBatch, sel: Option<&[u32]>) -> Option<Column> {
    Some(match num_expr(e, b, sel)? {
        Num::Ints(cells) => Column::Int64(cells.into_owned()),
        Num::Floats(cells) if cells.valid.contains(&true) => Column::Float64(cells.into_owned()),
        Num::Floats(cells) => Column::Int64(Cells {
            values: vec![0; cells.valid.len()],
            valid: cells.into_owned().valid,
        }),
        // A bare literal is the caller's to broadcast.
        Num::Int(_) | Num::Float(_) => return None,
    })
}

// ---------------------------------------------------------------------
// Join and aggregate kernels.
// ---------------------------------------------------------------------

/// Hash join, output bit-identical to the row engine's build/probe:
///
/// * **Build** — the left input's selected rows go into one `JoinIndex`
///   in input order, NULL keys skipped (they never join: SQL
///   semantics). It positions them by `key − min` when an integer key
///   pair spans few enough values ([`positioned_key`]) and by key
///   fingerprint otherwise; either way it hands candidates back in
///   insertion order, so every probe sees its matches in build-input
///   order — the row engine's match order — with no schedule to depend
///   on.
/// * **Probe** — probe-side morsels look their rows up in order in the
///   shared index (candidates verified by `KeyEq`, so collisions cost
///   time, never correctness), and the per-morsel match lists
///   concatenate in morsel sequence order. The resulting `(left, right)`
///   pair list is exactly the sequential probe's.
/// * **Emit** — the output is the two match lists: every left column
///   pends on one, every right column on the other, and an input column
///   that was itself still pending has the lists composed (once per
///   distinct list) rather than being read. The left key of an `Int64 =
///   Int64` or `Date = Date` pair is the probe's key column instead
///   ([`shared_key_pairs`]): when every probe row matched once, in
///   order, that is the probe's own column, so no key of such a join is
///   ever gathered. No cell is copied here; the residual filter, which
///   runs morsel-parallel with first-error-wins ordering, gathers the
///   columns its predicate reads.
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

    let (lb, rb) = (&lbatch.batch, &rbatch.batch);
    let index = JoinIndex::build(side(&lbatch, &lidx), side(&rbatch, &ridx));
    let pbounds = morsels(runner, rbatch.n_rows());
    let mut matches = parallel_map(runner, pbounds.len(), |m| index.matches(pbounds[m]));
    let (out_left, out_right) = if matches.len() == 1 {
        matches.pop().expect("one morsel")
    } else {
        let (left, right): (Vec<_>, Vec<_>) = matches.into_iter().unzip();
        (left.concat(), right.concat())
    };

    // The joined batch: left columns then right columns, pending. The
    // left key of a shared pair is the probe's key column instead, unless
    // its own costs nothing (every build row matched once, in order).
    let n = out_left.len();
    let (l, r) = (
        lb.gather(Arc::new(out_left)),
        rb.gather(Arc::new(out_right)),
    );
    let mut columns = [l.shared_columns(), r.shared_columns()].concat();
    for k in shared_keys(lb, &lidx, rb, &ridx) {
        if !l.is_materialized(lidx[k]) {
            columns[lidx[k]] = r.shared_columns()[ridx[k]].clone();
        }
    }
    let joined = ColumnarBatch::from_shared(n, columns);

    // Residual filter runs over the joined schema, like the row engine.
    let sel = match &bound_filter {
        None => None,
        Some(f) => Some(Arc::new(filter_indices_morsel(runner, f, &joined, None)?)),
    };
    Ok(ColBatch {
        batch: Arc::new(joined),
        sel,
    })
}

/// `batch`'s selected rows, keyed by `keys`, as a keyed kernel reads
/// them.
fn side<'a>(batch: &'a ColBatch, keys: &'a [usize]) -> Keyed<'a> {
    Keyed {
        batch: &batch.batch,
        sel: batch.selection(),
        keys,
    }
}

/// Which key pair — an index into `left_keys` / `right_keys` — a hash
/// join of these inputs positions its build (left) rows by, `None` when
/// it hashes them: the rule the join kernel applies, for a caller that
/// wants to see it. Only an `Int64 = Int64` or `Date = Date` pair whose
/// build-side values span at most four slots per row of the two inputs
/// qualifies, and the widest such span wins.
pub fn positioned_key(
    left: &ColBatch,
    left_keys: &[usize],
    right: &ColBatch,
    right_keys: &[usize],
) -> Option<usize> {
    positioning(&side(left, left_keys), &side(right, right_keys)).map(|p| p.key)
}

/// Which key pairs — indices into `left_keys` / `right_keys` — a hash
/// join of these inputs emits the probe's (right) key column for, in
/// place of the build's: the `Int64 = Int64` and `Date = Date` pairs.
/// Every output row is a match, and a match's two keys are equal and
/// not NULL, so such a pair's two output columns hold the same cells in
/// the same layout, and one column serves both. Every other pairing
/// keeps its own column: `Int64 = Float64` holds two layouts, and two
/// string columns two dictionaries.
pub fn shared_key_pairs(
    left: &ColBatch,
    left_keys: &[usize],
    right: &ColBatch,
    right_keys: &[usize],
) -> Vec<usize> {
    shared_keys(&left.batch, left_keys, &right.batch, right_keys).collect()
}

/// [`shared_key_pairs`] over the two batches.
fn shared_keys<'a>(
    left: &'a ColumnarBatch,
    left_keys: &'a [usize],
    right: &'a ColumnarBatch,
    right_keys: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    let pairs = left_keys.iter().zip(right_keys).enumerate();
    pairs
        .filter(|(_, (&l, &r))| {
            matches!(
                (left.column(l), right.column(r)),
                (Column::Int64(_), Column::Int64(_)) | (Column::Date(_), Column::Date(_))
            )
        })
        .map(|(k, _)| k)
}

/// Which grouping column — an index into `keys` — a hash aggregate
/// over `input` positions its rows by, `None` when it hashes them: the
/// rule the aggregate kernel applies, for a caller that wants to see it.
/// An `Int64` or `Date` column whose selected values span at most four
/// slots per selected row qualifies, and so does a string column whose
/// dictionary is no longer; the one with the most distinct values among
/// the selected rows wins.
pub fn positioned_group_key(input: &ColBatch, keys: &[usize]) -> Option<usize> {
    group_positioning(&side(input, keys)).map(|p| p.key)
}

/// Hash aggregate, output bit-identical to the row engine's, in three
/// column-at-a-time steps:
///
/// * **Group ids** — one serial pass gives every selected row a dense
///   group id in first-appearance order ([`Grouping`]): by slot when a
///   key column positions, by fingerprint otherwise, candidates verified
///   by `KeyEq` either way.
/// * **Accumulate** — each aggregate folds its argument column, in row
///   order, into per-group typed vectors ([`Acc`]); a cell outside its
///   typed layout goes through [`Column::get`] and `BoundAgg`'s addend
///   rules, so NULLs and errors are the row engine's. The first error in
///   row order (then aggregate order) wins, as it would row by row.
/// * **Emit** — groups are ordered by their keys as the row engine's one
///   final sort orders them (read off the slots when the first key
///   positions without a chain), and the output is the key columns
///   gathered at each group's first row beside the accumulators, laid out
///   as [`Column::from_values`] would lay their values out.
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
        .map(|a| BoundAgg::bind(a, &input.schema))
        .collect::<Result<_>>()?;

    // Every aggregate argument column-at-a-time, over the selected rows:
    // a plain column reference is the input's own column, read in place
    // (computed expressions the scalar mirror must evaluate split into
    // morsels; the chunks rejoin before type sniffing, so the columns
    // match sequential evaluation exactly).
    let runner = exchange.runner();
    let base = in_batch.materialize();
    let args: Vec<Option<SharedColumn>> = bound
        .iter()
        .map(|agg| {
            agg.arg
                .as_ref()
                .map(|e| eval_shared(runner, e, &in_batch, &base))
                .transpose()
        })
        .collect::<Result<_>>()?;
    let args: Vec<Option<&Column>> = args
        .iter()
        .map(|arg| arg.as_ref().map(SharedColumn::get))
        .collect();

    let grouping = Grouping::of(side(&in_batch, &gidx));
    // SQL: a global aggregate over empty input yields one row.
    let n_groups = match grouping.reps.len() {
        0 if gidx.is_empty() => 1,
        n => n,
    };
    // The error of the first failing row (of the first aggregate that
    // fails there): the one the row engine meets first.
    let mut accs = Vec::with_capacity(bound.len());
    let mut first_error: Option<(usize, GeoError)> = None;
    for (agg, arg) in bound.iter().zip(&args) {
        match Acc::accumulate(agg, *arg, &grouping.ids, n_groups) {
            Ok(acc) => accs.push(acc),
            Err((k, e)) if first_error.as_ref().is_none_or(|(at, _)| k < *at) => {
                first_error = Some((k, e))
            }
            Err(_) => {}
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    let b = &in_batch.batch;
    let order = grouping.sorted.unwrap_or_else(|| {
        // The row engine's `sort_group_keys`, over group ids in
        // first-appearance order with the same comparisons: the same
        // permutation, ties included.
        let mut order: Vec<u32> = (0..n_groups as u32).collect();
        let keys: Vec<&Column> = gidx.iter().map(|&c| b.column(c)).collect();
        let reps = &grouping.reps;
        order.sort_unstable_by(|&x, &y| {
            let (x, y) = (reps[x as usize] as usize, reps[y as usize] as usize);
            let mut ord = keys.iter().map(|key| key.cmp_at(x, y));
            ord.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
        order
    });
    // (A global aggregate over no rows has one group and no row: it has
    // no key column to read either.)
    let reps: Vec<u32> = order
        .iter()
        .filter_map(|&g| grouping.reps.get(g as usize).copied())
        .collect();
    let keys = gidx.iter().map(|&c| b.column(c).gather(&reps));
    let values = accs
        .into_iter()
        .zip(&bound)
        .zip(&args)
        .map(|((acc, agg), arg)| acc.finish(agg.func, *arg).gather(&order));
    let columns: Vec<Column> = keys.chain(values).map(sniffed).collect();
    debug_assert_eq!(columns.len(), plan.schema.len());
    Ok(ColBatch::all(Arc::new(ColumnarBatch::from_shared(
        order.len(),
        columns.into_iter().map(Into::into).collect(),
    ))))
}

/// One aggregate's state for every group: typed vectors indexed by group
/// id.
enum Acc {
    /// COUNT: the rows counted.
    Count(Vec<i64>),
    /// Integer SUM: the wrapping totals, and which groups saw a non-NULL
    /// row.
    IntSum(Vec<i64>, Vec<bool>),
    /// Float SUM and AVG: the totals and the non-NULL rows added.
    FloatSum(Vec<f64>, Vec<i64>),
    /// MIN and MAX: the argument row holding each group's extreme — its
    /// first row until a non-NULL one arrives, then the first of the
    /// strictly best under `Value::total_cmp` (`NONE` for a group with no
    /// row at all).
    Extreme(Vec<u32>),
}

/// A group with no row yet.
const NONE: u32 = u32::MAX;

impl Acc {
    /// Fold `arg` (`None` = COUNT(*)'s), one cell per selected row, into
    /// the `n_groups` groups `ids` assigns. On error: the first failing
    /// row and the error.
    fn accumulate(
        agg: &BoundAgg,
        arg: Option<&Column>,
        ids: &[u32],
        n_groups: usize,
    ) -> std::result::Result<Acc, (usize, GeoError)> {
        let rows = ids.iter().map(|&g| g as usize).enumerate();
        Ok(match (agg.func, arg) {
            (AggFunc::Count, arg) => {
                let mut n = vec![0; n_groups];
                for (k, g) in rows {
                    n[g] += i64::from(arg.is_none_or(|c| !c.is_null(k)));
                }
                Acc::Count(n)
            }
            (AggFunc::Sum, arg) if agg.int_sum => {
                let (mut sum, mut seen) = (vec![0i64; n_groups], vec![false; n_groups]);
                let mut add = |g: usize, x: i64| {
                    sum[g] = sum[g].wrapping_add(x);
                    seen[g] = true;
                };
                match arg {
                    Some(Column::Int64(cells)) => numbers(cells, ids, |x| x, &mut add),
                    Some(col) => {
                        for (k, g) in rows {
                            let x = BoundAgg::int_addend(col.get(k)).map_err(|e| (k, e))?;
                            x.into_iter().for_each(|x| add(g, x));
                        }
                    }
                    None => {}
                }
                Acc::IntSum(sum, seen)
            }
            (AggFunc::Sum | AggFunc::Avg, arg) => {
                let (mut sum, mut n) = (vec![0.0; n_groups], vec![0; n_groups]);
                let mut add = |g: usize, x: f64| {
                    sum[g] += x;
                    n[g] += 1;
                };
                match arg {
                    Some(Column::Int64(cells)) => numbers(cells, ids, |x| x as f64, &mut add),
                    Some(Column::Float64(cells)) => numbers(cells, ids, |x| x, &mut add),
                    Some(Column::Date(cells)) => numbers(cells, ids, f64::from, &mut add),
                    Some(col) => {
                        for (k, g) in rows {
                            let x = agg.float_addend(col.get(k)).map_err(|e| (k, e))?;
                            x.into_iter().for_each(|x| add(g, x));
                        }
                    }
                    None => {}
                }
                Acc::FloatSum(sum, n)
            }
            (AggFunc::Min | AggFunc::Max, arg) => {
                let better = match agg.func {
                    AggFunc::Min => Ordering::Less,
                    _ => Ordering::Greater,
                };
                let mut at = vec![NONE; n_groups];
                if let Some(col) = arg {
                    for (k, g) in rows {
                        let cur = at[g] as usize;
                        let replace = at[g] == NONE
                            || !col.is_null(k)
                                && (col.is_null(cur) || col.cmp_at(k, cur) == better);
                        if replace {
                            at[g] = k as u32;
                        }
                    }
                }
                Acc::Extreme(at)
            }
        })
    }

    /// The aggregate's output column, one cell per group id: NULL where
    /// a SUM, AVG, MIN or MAX saw no non-NULL row.
    fn finish(self, func: AggFunc, arg: Option<&Column>) -> Column {
        match self {
            Acc::Count(n) => Column::Int64(Cells {
                valid: vec![true; n.len()],
                values: n,
            }),
            Acc::IntSum(values, valid) => Column::Int64(Cells { values, valid }),
            Acc::FloatSum(sum, n) => {
                let avg = |(s, &n): (f64, &i64)| match func {
                    AggFunc::Avg if n > 0 => s / n as f64,
                    _ => s,
                };
                Column::Float64(Cells {
                    valid: n.iter().map(|&n| n > 0).collect(),
                    values: sum.into_iter().zip(&n).map(avg).collect(),
                })
            }
            Acc::Extreme(at) => match arg {
                Some(col) if !at.contains(&NONE) => col.gather(&at),
                // Only a global aggregate over no rows has a group with
                // no row: its one value is NULL.
                _ => Column::from_values(vec![Value::Null; at.len()]),
            },
        }
    }
}

/// Feed `add(group, x)` the value `to` reads from each valid cell, in
/// row order.
fn numbers<T: Copy + Default, X>(
    cells: &Cells<T>,
    ids: &[u32],
    to: impl Fn(T) -> X,
    add: &mut impl FnMut(usize, X),
) {
    for (k, &g) in ids.iter().enumerate() {
        if cells.valid[k] {
            add(g as usize, to(cells.values[k]));
        }
    }
}

/// `column` laid out as [`Column::from_values`] lays out its values: a
/// mixed column whose rows turn out to share one type is that type, and
/// a column with no non-NULL row is an `Int64` one.
fn sniffed(column: Column) -> Column {
    match column {
        Column::Any { values } => Column::from_values(values),
        c if (0..c.len()).all(|i| c.is_null(i)) => Column::from_values(vec![Value::Null; c.len()]),
        c => c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, LocalShip, MapSource};
    use geoqp_common::{Field, Location, Schema, TableRef};
    use geoqp_expr::ScalarExpr;
    use proptest::test_runner::TestRng;

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
        // One column per typed layout BETWEEN compares, NULL in each, and
        // integers past f64's 53-bit mantissa.
        let big = 1i64 << 53;
        let typed = |i: i64, d: i32, t: &str| vec![Value::Int64(i), Value::Date(d), Value::str(t)];
        s.insert(
            TableRef::bare("typed"),
            loc("N"),
            Rows::from_rows(vec![
                typed(1, 10, "apple"),
                typed(big, -3, "kiwi"),
                vec![Value::Null, Value::Null, Value::Null],
                typed(big + 1, 12, "fig"),
                typed(3, 11, "banana"),
                typed(-2, 20, "cherry"),
            ]),
        );
        s
    }

    fn typed_scan() -> Arc<PhysicalPlan> {
        scan_node(
            "typed",
            "N",
            vec![
                Field::new("i", DataType::Int64),
                Field::new("d", DataType::Date),
                Field::new("t", DataType::Str),
            ],
        )
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

    /// The customer table's one batch: every scan of `source` hands out
    /// this allocation, so a test can tell whether an operator passed it
    /// through or rebuilt it.
    fn customer_batch(source: &MapSource) -> Arc<ColumnarBatch> {
        source.scan(&TableRef::bare("customer"), &loc("N")).unwrap()
    }

    #[test]
    fn ship_through_local_ship_is_the_same_allocation() {
        let held = source();
        let plan = PhysicalPlan::ship(customer_scan(), loc("E"));
        let out = execute_fragment_columnar(&plan, &held, &mut LocalShip, &NoExchange).unwrap();
        assert!(out.sel.is_none());
        assert!(
            Arc::ptr_eq(&out.batch, &customer_batch(&held)),
            "LocalShip must not transpose the batch through rows and back"
        );
    }

    fn hash_join(
        left: Arc<PhysicalPlan>,
        right: Arc<PhysicalPlan>,
        keys: &[(&str, &str)],
    ) -> Arc<PhysicalPlan> {
        let schema = Arc::new(left.schema.join(&right.schema).unwrap());
        let op = PhysOp::HashJoin {
            left_keys: keys.iter().map(|(l, _)| l.to_string()).collect(),
            right_keys: keys.iter().map(|(_, r)| r.to_string()).collect(),
            filter: None,
        };
        Arc::new(PhysicalPlan::new(op, schema, loc("N"), vec![left, right]).unwrap())
    }

    fn project(input: Arc<PhysicalPlan>, exprs: Vec<(ScalarExpr, &str, DataType)>) -> PhysicalPlan {
        let fields = exprs.iter().map(|(_, n, t)| Field::new(*n, *t)).collect();
        let exprs = exprs
            .into_iter()
            .map(|(e, n, _)| (e, n.to_string()))
            .collect();
        PhysicalPlan::new(
            PhysOp::Project { exprs },
            Arc::new(Schema::new(fields).unwrap()),
            input.location.clone(),
            vec![input],
        )
        .unwrap()
    }

    #[test]
    fn project_of_plain_columns_is_the_sources_own_allocations() {
        let held = source();
        let customer = customer_batch(&held);
        let exprs = || {
            vec![
                (ScalarExpr::col("name"), "name", DataType::Str),
                (
                    ScalarExpr::col("acctbal").mul(ScalarExpr::lit(2.0)),
                    "dbl",
                    DataType::Float64,
                ),
                (ScalarExpr::col("custkey"), "custkey", DataType::Int64),
                (ScalarExpr::col("name"), "again", DataType::Str),
            ]
        };
        let plan = project(customer_scan(), exprs());
        let out = execute_fragment_columnar(&plan, &held, &mut LocalShip, &NoExchange).unwrap();
        assert!(out.sel.is_none());
        for (j, from) in [(0, 1), (2, 0), (3, 1)] {
            assert!(
                std::ptr::eq(out.batch.column(j), customer.column(from)),
                "output column {j} must be the scan's column {from}, not a copy"
            );
        }
        assert_engines_agree(&plan);

        // Over a filter the plain references stay pending on the
        // selection — still no cell copied — and only the computed
        // column exists.
        let filter = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: ScalarExpr::col("acctbal").gt(ScalarExpr::lit(150.0)),
            },
            Arc::clone(&customer_scan().schema),
            loc("N"),
            vec![customer_scan()],
        );
        let plan = project(Arc::new(filter.unwrap()), exprs());
        let out = execute_fragment_columnar(&plan, &held, &mut LocalShip, &NoExchange).unwrap();
        assert_eq!((out.n_rows(), out.batch.len()), (2, 2));
        let read: Vec<bool> = (0..4).map(|j| out.batch.is_materialized(j)).collect();
        assert_eq!(read, [false, true, false, false]);
        // The same column projected twice is gathered once.
        assert!(std::ptr::eq(out.batch.column(0), out.batch.column(3)));
        assert_engines_agree(&plan);
    }

    /// An exchange that supplies one node's output from outside, the way
    /// a fragment boundary does — here so a test can keep hold of the
    /// batch an operator reads.
    struct Supplied<'p>(&'p PhysicalPlan, Arc<ColumnarBatch>);

    impl ExchangeSource for Supplied<'_> {
        fn fetch(&self, node: &PhysicalPlan) -> Option<Result<Arc<ColumnarBatch>>> {
            std::ptr::eq(node, self.0).then(|| Ok(Arc::clone(&self.1)))
        }
    }

    #[test]
    fn a_join_copies_the_columns_somebody_reads_and_no_others() {
        use geoqp_expr::{AggCall, AggFunc};
        // (events ⋈ customer) ⋈ orders ⋈ events again: 11 columns, of
        // which the aggregate on top reads two.
        let again = scan_node(
            "events",
            "N",
            vec![
                Field::new("k2", DataType::Int64),
                Field::new("tag2", DataType::Str),
                Field::new("x2", DataType::Float64),
            ],
        );
        let join = hash_join(events_scan(), customer_scan(), &[("k", "custkey")]);
        let join = hash_join(join, orders_scan(), &[("custkey", "o_custkey")]);
        let join = hash_join(join, again, &[("k", "k2"), ("tag", "tag2")]);
        let agg = PhysicalPlan::new(
            PhysOp::HashAggregate {
                group_by: vec!["name".into()],
                aggs: vec![
                    AggCall::new(AggFunc::Sum, ScalarExpr::col("x2"), "total"),
                    AggCall::count_star("n"),
                ],
            },
            Arc::new(
                Schema::new(vec![
                    Field::new("name", DataType::Str),
                    Field::new("total", DataType::Float64),
                    Field::new("n", DataType::Int64),
                ])
                .unwrap(),
            ),
            loc("N"),
            vec![Arc::clone(&join)],
        )
        .unwrap();

        let joined =
            execute_fragment_columnar(&join, &source(), &mut LocalShip, &NoExchange).unwrap();
        assert!(joined.sel.is_none() && joined.n_rows() > 0);
        let read = |b: &ColumnarBatch| -> Vec<usize> {
            (0..b.arity()).filter(|&j| b.is_materialized(j)).collect()
        };
        assert_eq!(joined.batch.arity(), 11);
        assert_eq!(
            read(&joined.batch),
            Vec::<usize>::new(),
            "three joins read their keys on their inputs; the output is two position lists"
        );

        // The aggregate, fed that very batch, gathers `name` and `x2`.
        let supplied = Supplied(&join, Arc::clone(&joined.batch));
        let out = execute_fragment_columnar(&agg, &source(), &mut LocalShip, &supplied).unwrap();
        let (name, x2) = (
            join.schema.require_index("name").unwrap(),
            join.schema.require_index("x2").unwrap(),
        );
        assert_eq!(read(&joined.batch), vec![name, x2]);
        assert_eq!(
            out.to_rows(),
            execute(&agg, &source(), &mut LocalShip).unwrap()
        );
        assert_engines_agree(&agg);
    }

    #[test]
    fn a_typed_equal_key_pair_emits_one_column_for_both_keys() {
        // dim ⋈ probe on four pairs — Int64 = Int64, Date = Date, Int64 =
        // Float64, Str = Str — plus a payload column each. dim holds one
        // row per key `k`; `fact` matches each of its rows once, in
        // order, and `sparse` has rows that match nothing, NULL keys
        // among them (every ninth row).
        let row = |k: Option<i64>, x: Value, payload: Value| {
            let k32 = k.map_or(0, |k| k as i32);
            vec![
                k.map_or(Value::Null, Value::Int64),
                k.map_or(Value::Null, |_| Value::Date(100 + k32)),
                x,
                k.map_or(Value::Null, |k| Value::str(format!("s{k}"))),
                payload,
            ]
        };
        let dim = |k: i64| {
            row(
                Some(k),
                Value::Int64(k * 10),
                Value::Float64(k as f64 / 2.0),
            )
        };
        let probe = |k: Option<i64>, i: i64| {
            let x = k.map_or(Value::Null, |k| Value::Float64((k * 10) as f64));
            row(k, x, Value::Int64(i))
        };
        let fact = (0..20).map(|i| probe(Some(i % 6), i));
        let sparse = (0..30).map(|i| probe((i % 9 != 8).then_some(i % 8), i));
        let mut held = MapSource::new();
        let mut insert = |table: &str, rows: Vec<Vec<Value>>| {
            held.insert(TableRef::bare(table), loc("N"), Rows::from_rows(rows))
        };
        insert("dim", (0..6).map(dim).collect());
        insert("fact", fact.collect());
        insert("sparse", sparse.collect());

        let scan = |table: &str, prefix: &str, x: DataType, payload: DataType| {
            let types = [DataType::Int64, DataType::Date, x, DataType::Str, payload];
            let names = ["k", "d", "x", "s", "p"].map(|n| format!("{prefix}{n}"));
            let fields = names.iter().zip(types).map(|(n, t)| Field::new(n, t));
            scan_node(table, "N", fields.collect())
        };
        let keys = [("dk", "fk"), ("dd", "fd"), ("dx", "fx"), ("ds", "fs")];
        let run = |plan: &PhysicalPlan| {
            execute_fragment_columnar(plan, &held, &mut LocalShip, &NoExchange).unwrap()
        };
        for (table, every_row_once) in [("fact", true), ("sparse", false)] {
            let build = scan("dim", "d", DataType::Int64, DataType::Float64);
            let probe = scan(table, "f", DataType::Float64, DataType::Int64);
            let join = hash_join(Arc::clone(&build), Arc::clone(&probe), &keys);
            let k = [0, 1, 2, 3];
            assert_eq!(shared_key_pairs(&run(&build), &k, &run(&probe), &k), [0, 1]);

            // Left columns 0..5, right 5..10. The Int64 and Date left
            // keys are the right keys' columns; the other two pairs and
            // the payload are pending, as a join leaves every column.
            let out = run(&join);
            for j in [2, 3, 4] {
                assert!(
                    !out.batch.is_materialized(j),
                    "{table}: column {j} gathered"
                );
            }
            for (l, r) in [(0, 5), (1, 6)] {
                assert!(
                    std::ptr::eq(out.batch.column(l), out.batch.column(r)),
                    "{table}: {l}"
                );
            }
            if every_row_once {
                // The right side is the probe's own batch: sharing its
                // keys gathered nothing.
                let own = held.scan(&TableRef::bare(table), &loc("N")).unwrap();
                assert!(std::ptr::eq(out.batch.column(0), own.column(0)));
                assert!(std::ptr::eq(out.batch.column(1), own.column(1)));
            }
            assert!(
                matches!(out.batch.column(2), Column::Int64(_)),
                "{table}: Int64 = Float64"
            );
            assert!(
                !std::ptr::eq(out.batch.column(3), out.batch.column(8)),
                "{table}: Str = Str"
            );

            let want = execute(&join, &held, &mut LocalShip).unwrap();
            assert!(!want.is_empty());
            assert_eq!(
                execute_columnar(&join, &held, &mut LocalShip).unwrap(),
                want
            );
        }
    }

    /// Records what each SHIP was handed, on either path.
    #[derive(Default)]
    struct Recording {
        bytes: Vec<usize>,
        unread: usize,
    }

    impl ShipHandler for Recording {
        fn ship(&mut self, _: &Location, _: &Location, rows: Rows, _: &Schema) -> Result<Rows> {
            self.bytes.push(rows.encoded_size());
            Ok(rows)
        }
        fn ship_columnar(
            &mut self,
            _: &Location,
            _: &Location,
            batch: Arc<ColumnarBatch>,
            _: &Schema,
        ) -> Result<Arc<ColumnarBatch>> {
            self.unread += (0..batch.arity())
                .filter(|&j| !batch.is_materialized(j))
                .count();
            self.bytes.push(batch.encoded_size());
            Ok(batch)
        }
    }

    #[test]
    fn a_join_that_crosses_a_ship_arrives_gathered_at_the_row_engines_bytes() {
        let join = hash_join(events_scan(), customer_scan(), &[("k", "custkey")]);
        // Once as the join emits it, once behind a filter's selection.
        let filtered = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: ScalarExpr::col("x").gt(ScalarExpr::lit(0.25)),
            },
            Arc::clone(&join.schema),
            loc("N"),
            vec![Arc::clone(&join)],
        );
        for input in [join, Arc::new(filtered.unwrap())] {
            let plan = PhysicalPlan::ship(input, loc("E"));
            let (mut row, mut col) = (Recording::default(), Recording::default());
            let want = execute(&plan, &source(), &mut row).unwrap();
            let got = execute_columnar(&plan, &source(), &mut col).unwrap();
            assert_eq!(got, want);
            assert_eq!(col.bytes, row.bytes);
            assert_eq!(col.bytes.len(), 1);
            assert_eq!(col.unread, 0, "a SHIP payload has no pending column");
        }
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

        // Two-column keys. `(k, tag)` has NULLs in both columns and
        // `(k2, tag2)` only in the second, so every row the comparator
        // is asked about is whole and both pairs compare raw; in the
        // mixed key the `Int64 = Float64` pair must stay on the general
        // arm (1 = 1.0) beside a raw `Int64` pair.
        let keyed = |name: &str| {
            let fields = ["k", "tag", "x"].map(|f| format!("{name}_{f}"));
            scan_node(
                "events",
                "N",
                vec![
                    Field::new(&fields[0], DataType::Int64),
                    Field::new(&fields[1], DataType::Str),
                    Field::new(&fields[2], DataType::Float64),
                ],
            )
        };
        let second_only = {
            let mut s = source();
            let key =
                |k: i64, o: Option<i64>| vec![Value::Int64(k), o.map_or(Value::Null, Value::Int64)];
            let rows = vec![
                key(1, Some(1)),
                key(1, None),
                key(2, Some(1)),
                key(1, Some(1)),
                key(2, None),
            ];
            s.insert(TableRef::bare("pairs"), loc("N"), Rows::from_rows(rows));
            s
        };
        let pairs = |name: &str| {
            scan_node(
                "pairs",
                "N",
                vec![
                    Field::new(format!("{name}_a"), DataType::Int64),
                    Field::new(format!("{name}_b"), DataType::Int64),
                ],
            )
        };
        let cases = [
            (
                keyed("l"),
                keyed("r"),
                vec![("l_k", "r_k"), ("l_tag", "r_tag")],
                21,
            ),
            (
                pairs("l"),
                pairs("r"),
                vec![("l_a", "r_a"), ("l_b", "r_b")],
                5,
            ),
            // (2, 1) = (2, 1.0), once.
            (
                pairs("l"),
                keyed("r"),
                vec![("l_a", "r_k"), ("l_b", "r_x")],
                1,
            ),
        ];
        for (left, right, keys, rows) in cases {
            let join = hash_join(left, right, &keys);
            let row = execute(&join, &second_only, &mut LocalShip).unwrap();
            let col = execute_columnar(&join, &second_only, &mut LocalShip).unwrap();
            assert_eq!(row, col, "{keys:?}");
            assert_eq!(col.len(), rows, "{keys:?}");
        }
    }

    #[test]
    fn join_filter_join_aggregate_with_null_keys_agrees_with_row_engine() {
        use geoqp_expr::{AggCall, AggFunc};
        // NULL join keys on both sides of both joins, a selection over a
        // pending batch between them, NULL group keys on top.
        let join = hash_join(events_scan(), customer_scan(), &[("k", "custkey")]);
        let filter = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: ScalarExpr::col("x")
                    .gt(ScalarExpr::lit(0.25))
                    .and(ScalarExpr::col("acctbal").lt(ScalarExpr::lit(250.0))),
            },
            Arc::clone(&join.schema),
            loc("N"),
            vec![join],
        );
        let join = hash_join(
            Arc::new(filter.unwrap()),
            orders_scan(),
            &[("custkey", "o_custkey")],
        );
        let agg = PhysicalPlan::new(
            PhysOp::HashAggregate {
                group_by: vec!["tag".into(), "name".into()],
                aggs: vec![
                    AggCall::new(
                        AggFunc::Sum,
                        ScalarExpr::col("o_price").mul(ScalarExpr::col("x")),
                        "weighted",
                    ),
                    AggCall::new(AggFunc::Max, ScalarExpr::col("acctbal"), "top"),
                    AggCall::count_star("n"),
                ],
            },
            Arc::new(
                Schema::new(vec![
                    Field::new("tag", DataType::Str),
                    Field::new("name", DataType::Str),
                    Field::new("weighted", DataType::Float64),
                    Field::new("top", DataType::Float64),
                    Field::new("n", DataType::Int64),
                ])
                .unwrap(),
            ),
            loc("N"),
            vec![join],
        )
        .unwrap();
        let out = execute_columnar(&agg, &source(), &mut LocalShip).unwrap();
        assert!(out.len() >= 3, "NULL-tagged and tagged groups: {out:?}");
        assert_engines_agree(&agg);
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
        // BETWEEN with literal bounds over each typed layout, and integer
        // comparisons past f64's 53-bit mantissa.
        fn lit(v: impl Into<Value>) -> ScalarExpr {
            ScalarExpr::lit(v)
        }
        let col = ScalarExpr::col;
        let big = 1i64 << 53;
        let typed = vec![
            col("i").between(lit(1i64), lit(3i64)),
            col("i").between(lit(Value::Null), lit(3i64)),
            col("i").between(lit(0i64), lit(Value::Null)),
            col("i").between(lit(1i64), lit(3i64)).not(),
            ScalarExpr::Between {
                expr: Box::new(col("i")),
                low: Box::new(lit(1i64)),
                high: Box::new(lit(3i64)),
                negated: true,
            },
            col("i").between(lit(0.5), lit(3.0)),
            col("i").between(lit(-2.5), lit(1i64)),
            // Exact past 2^53, where an f64 would call big and big + 1 equal.
            col("i").between(lit(big + 1), lit(big + 1)),
            col("i").gt(lit(big)),
            col("d").between(lit(Value::Date(10)), lit(Value::Date(12))),
            col("d").between(lit(Value::Date(11)), lit(Value::Date(10))),
            col("t").between(lit(Value::str("b")), lit(Value::str("g"))),
            // Incomparable bounds: false legs, never an error.
            col("d").between(lit(1i64), lit(20i64)),
            col("t").between(lit(Value::str("a")), lit(5i64)),
        ];
        let scans = preds.into_iter().map(|p| (customer_scan(), p));
        for (scan, p) in scans.chain(typed.into_iter().map(|p| (typed_scan(), p))) {
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
            let columnar = execute_columnar(&plan, &source(), &mut LocalShip).unwrap();
            assert_eq!(row, columnar, "predicate {p:?} diverged");
        }
    }

    #[test]
    fn typed_arithmetic_is_the_column_the_scalar_mirror_would_build() {
        let v = |x: Option<i64>| x.map_or(Value::Null, Value::Int64);
        let f = |x: Option<f64>| x.map_or(Value::Null, Value::Float64);
        let rows: Vec<Vec<Value>> = vec![
            vec![v(Some(i64::MAX)), v(Some(1)), f(Some(0.5)), f(Some(0.0))],
            vec![
                v(Some(i64::MIN)),
                v(Some(-1)),
                f(Some(f64::NAN)),
                f(Some(2.0)),
            ],
            vec![v(None), v(Some(7)), f(Some(-0.0)), f(Some(-0.0))],
            vec![v(Some(-3)), v(None), f(None), f(Some(f64::INFINITY))],
            vec![v(Some(0)), v(Some(0)), f(Some(1e300)), f(None)],
            vec![v(Some(12)), v(Some(5)), f(Some(-7.25)), f(Some(1e-300))],
        ];
        let extra = [
            Value::Int64(1),
            Value::str("x"),
            Value::Null,
            Value::Float64(1.0),
            Value::Int64(2),
            Value::Null,
        ];
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .zip(extra)
            .map(|(mut r, any)| {
                r.extend([Value::Null, Value::Date(10), Value::str("s"), any]);
                r
            })
            .collect();
        let names = ["i", "j", "f", "g", "nulls", "d", "s", "any"];
        let types = [
            DataType::Int64,
            DataType::Int64,
            DataType::Float64,
            DataType::Float64,
            DataType::Float64,
            DataType::Date,
            DataType::Str,
            DataType::Str,
        ];
        let fields = names.iter().zip(types).map(|(n, t)| Field::new(*n, t));
        let schema = Schema::new(fields.collect()).unwrap();
        let batch = ColumnarBatch::from_rows(&rows, 8);
        let empty = ColumnarBatch::from_rows(&[], 8);
        let c = ScalarExpr::col;
        let l = |x: f64| ScalarExpr::lit(x);
        let n = |x: i64| ScalarExpr::lit(x);

        // Shapes the typed arm takes: it must build, cell for cell and
        // placeholder for placeholder, what sniffing the scalar mirror's
        // values builds.
        let typed = vec![
            c("i").add(c("j")), // MAX + 1 and MIN + -1 wrap
            c("i").sub(c("j")),
            c("i").mul(c("j")), // MIN * -1 wraps
            c("i").mul(c("f")),
            c("f").sub(c("i")),
            c("i").div(c("f")), // Int64 / Float64 is float division
            c("f").div(c("g")), // 0.5 / 0.0, -0.0 / -0.0, x / inf
            c("i").div(l(0.0)),
            c("i").add(n(1)),
            n(3).mul(c("j")),
            n(1).sub(c("f")),
            l(1.5).mul(n(2)), // literal only
            n(i64::MAX).add(n(1)),
            n(1).div(l(4.0)),
            // The TPC-H shape: price * (1 - discount) - cost * quantity.
            c("f").mul(n(1).sub(c("g"))).sub(c("g").mul(c("i"))),
            c("nulls").mul(c("f")), // all NULL: the Int64 layout
            c("nulls").add(c("i")),
            l(2.0).mul(c("nulls")),
            c("nulls").div(l(0.0)),
        ];
        let selections: [Option<&[u32]>; 4] = [None, Some(&[4, 0, 0, 2, 5]), Some(&[3]), Some(&[])];
        for e in &typed {
            let bound = bind(e, &schema).unwrap();
            for (b, sels) in [
                (&batch, &selections[..]),
                (&empty, &[None, Some(&[][..])][..]),
            ] {
                for &sel in sels {
                    let rows = sel.map_or(b.len(), <[u32]>::len);
                    let at = |k: usize| sel.map_or(k, |s| s[k] as usize);
                    let mirror = (0..rows).map(|k| eval_scalar(&bound, b, at(k)).unwrap());
                    let want = format!("{:?}", Column::from_values(mirror.collect()));
                    // (An empty batch's columns all have the `Int64`
                    // layout, so there a `/` is integer division's.)
                    let arm = arith_column(&bound, b, sel);
                    assert!(arm.is_some() || b.is_empty(), "{e:?}: not column-at-a-time");
                    if let Some(arm) = arm {
                        assert_eq!(format!("{arm:?}"), want, "{e:?} over {sel:?}");
                    }
                    let whole = eval_column(&bound, b, sel).unwrap();
                    assert_eq!(format!("{whole:?}"), want, "{e:?} over {sel:?}");
                }
            }
        }

        // Shapes that can raise stay on the scalar mirror, whole: integer
        // division, dates, strings, `Any`, negation, a NULL literal.
        let scalar = vec![
            c("i").div(c("j")),
            c("i").div(n(2)),
            c("f").add(c("i").div(c("j"))),
            c("d").add(n(1)),
            c("s").add(c("i")),
            c("any").mul(c("i")),
            ScalarExpr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(c("j")),
            }
            .add(n(1)),
            ScalarExpr::lit(Value::Null).add(c("i")),
            c("i").gt(c("j")),
        ];
        for e in &scalar {
            let bound = bind(e, &schema).unwrap();
            assert!(arith_column(&bound, &batch, None).is_none(), "{e:?}");
            // Same verdict as the mirror, row order and all.
            let mirror: Result<Vec<Value>> = (0..batch.len())
                .map(|k| eval_scalar(&bound, &batch, k))
                .collect();
            match (eval_column(&bound, &batch, None), mirror) {
                (Ok(col), Ok(values)) => {
                    assert_eq!(
                        format!("{col:?}"),
                        format!("{:?}", Column::from_values(values))
                    )
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{e:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn the_first_error_is_the_row_engines_beside_typed_arithmetic() {
        // Row 1 fails in the addition, row 2 in the division: an engine
        // that ran `a / b` down the column first would report row 2.
        let mut s = MapSource::new();
        let row = |b: i64, c: Value| vec![Value::Int64(6), Value::Int64(b), c];
        s.insert(
            TableRef::bare("t"),
            loc("N"),
            Rows::from_rows(vec![
                row(3, Value::Int64(1)),
                row(2, Value::str("oops")),
                row(0, Value::Int64(1)),
            ]),
        );
        let scan = || {
            scan_node(
                "t",
                "N",
                vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                    Field::new("c", DataType::Int64),
                ],
            )
        };
        let c = ScalarExpr::col;
        let cases = [
            (c("a").div(c("b")).add(c("c")), "oops"),
            // A typed-evaluable half does not pull the other half off
            // the mirror: `a / 0` still raises, as the row engine's.
            (
                c("a").mul(ScalarExpr::lit(2i64)).add(c("a").div(c("b"))),
                "division by zero",
            ),
        ];
        for (e, what) in cases {
            let plan = project(scan(), vec![(e, "out", DataType::Int64)]);
            let row = execute(&plan, &s, &mut LocalShip).unwrap_err();
            let col = execute_columnar(&plan, &s, &mut LocalShip).unwrap_err();
            assert_eq!(row.to_string(), col.to_string());
            assert!(row.to_string().contains(what), "{row}");
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

    /// A runner with `workers` workers and 3-row morsels that runs its
    /// tasks in order: every test batch splits, so the per-morsel masks
    /// and their merge are what is checked.
    struct Morsels(usize);

    impl MorselRunner for Morsels {
        fn workers(&self) -> usize {
            self.0
        }
        fn morsel_rows(&self) -> usize {
            3
        }
        fn dispatch(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
            (0..n_tasks).for_each(task);
        }
    }

    /// Row `k` of a truth pair, checking that no row is both TRUE and
    /// FALSE.
    fn truth_at(mask: &Truth, k: usize) -> Option<bool> {
        assert!(mask.t[k] <= 1 && mask.f[k] <= 1 && mask.t[k] & mask.f[k] == 0);
        (mask.t[k] | mask.f[k] == 1).then_some(mask.t[k] == 1)
    }

    /// Columns `i` (`Int64`), `d` (`Date`), `x` (`Float64`), `s` (string),
    /// `b` (`Bool`) and `m` (mixed: the `Any` layout), each NULL in about
    /// one row in five, drawn from pools that hold the `i64` extremes,
    /// NaN and both zeros.
    fn truth_rows(rng: &mut TestRng, n: usize) -> Vec<Vec<Value>> {
        let mut pick = |pool: &[Value]| match rng.below(5) {
            0 => Value::Null,
            _ => pool[rng.below(pool.len() as u64) as usize].clone(),
        };
        (0..n)
            .map(|_| {
                vec![
                    pick(&truth_ints()),
                    pick(&truth_dates()),
                    pick(&truth_floats()),
                    pick(&truth_strs()),
                    pick(&[Value::Bool(false), Value::Bool(true)]),
                    pick(&[Value::Int64(1), Value::str("apple"), Value::Float64(0.5)]),
                ]
            })
            .collect()
    }

    fn truth_ints() -> Vec<Value> {
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            -3,
            -1,
            0,
            1,
            2,
            7,
            i64::MAX - 1,
            i64::MAX,
        ];
        ints.map(Value::Int64).to_vec()
    }

    fn truth_dates() -> Vec<Value> {
        (-3..6).map(Value::Date).collect()
    }

    fn truth_floats() -> Vec<Value> {
        let floats = [-1.5, -0.0, 0.0, 1.0, 2.0, 7.0, f64::NAN, f64::INFINITY];
        floats.map(Value::Float64).to_vec()
    }

    fn truth_strs() -> Vec<Value> {
        ["", "apple", "banana", "cherry", "fig"]
            .map(Value::str)
            .to_vec()
    }

    fn truth_schema() -> Schema {
        let types = [
            DataType::Int64,
            DataType::Date,
            DataType::Float64,
            DataType::Str,
            DataType::Bool,
            DataType::Int64,
        ];
        let fields = ["i", "d", "x", "s", "b", "m"].into_iter().zip(types);
        Schema::new(fields.map(|(n, t)| Field::new(n, t)).collect()).unwrap()
    }

    /// A random literal: mostly one of the column's own type, sometimes
    /// any type (comparable or not), sometimes NULL.
    fn truth_literal(rng: &mut TestRng, column: usize) -> Value {
        let pools = [
            truth_ints(),
            truth_dates(),
            truth_floats(),
            truth_strs(),
            vec![Value::Bool(false), Value::Bool(true)],
        ];
        let pool = match rng.below(6) {
            0 => return Value::Null,
            1 => &pools[rng.below(5) as usize],
            _ => &pools[column.min(4)],
        };
        pool[rng.below(pool.len() as u64) as usize].clone()
    }

    /// A random predicate over [`truth_schema`], at most `depth` levels
    /// of NOT / AND / OR above its leaves.
    fn truth_predicate(rng: &mut TestRng, depth: u32) -> ScalarExpr {
        use BinaryOp::{Eq, Gt, GtEq, Lt, LtEq, NotEq};
        let names = ["i", "d", "x", "s", "b", "m"];
        if depth > 0 && rng.below(2) == 0 {
            let l = truth_predicate(rng, depth - 1);
            return match rng.below(3) {
                0 => l.not(),
                1 => l.and(truth_predicate(rng, depth - 1)),
                _ => l.or(truth_predicate(rng, depth - 1)),
            };
        }
        let c = rng.below(6) as usize;
        let col = ScalarExpr::col(names[c]);
        let negated = rng.below(2) == 0;
        let lit = |rng: &mut TestRng| ScalarExpr::lit(truth_literal(rng, c));
        match rng.below(9) {
            0..=3 => {
                let op = [Eq, NotEq, Lt, LtEq, Gt, GtEq][rng.below(6) as usize];
                let other = match rng.below(5) {
                    0 => ScalarExpr::col(names[rng.below(6) as usize]),
                    _ => lit(rng),
                };
                match rng.below(2) {
                    0 => ScalarExpr::binary(op, col, other),
                    _ => ScalarExpr::binary(op, other, col),
                }
            }
            // Bounds either way round, so `lo > hi` comes up.
            4 => ScalarExpr::Between {
                expr: Box::new(col),
                low: Box::new(lit(rng)),
                high: Box::new(lit(rng)),
                negated,
            },
            5 => ScalarExpr::InList {
                expr: Box::new(col),
                list: (0..rng.below(4)).map(|_| truth_literal(rng, c)).collect(),
                negated,
            },
            6 => ScalarExpr::Like {
                expr: Box::new(col),
                pattern: ["%a%", "b%", "%", "fig", "_i_", "%an%"][rng.below(6) as usize].into(),
                negated,
            },
            7 => ScalarExpr::IsNull {
                expr: Box::new(col),
                negated,
            },
            _ => ScalarExpr::lit(
                [Value::Bool(true), Value::Bool(false), Value::Null][rng.below(3) as usize].clone(),
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Every truth pair equals `BoundExpr::eval` row by row, and a
        /// filter keeps exactly the rows `eval` calls TRUE — or fails
        /// with the error of the first row `eval` fails on — over no
        /// selection and a selection (in any order, as a sort leaves
        /// it), on 1, 2 and 4 morsel workers.
        #[test]
        fn truth_pairs_equal_eval_row_by_row(seed in proptest::prelude::any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let n = rng.below(24) as usize;
            let rows = truth_rows(&mut rng, n);
            let batch = ColumnarBatch::from_rows(&rows, 6);
            let predicate = truth_predicate(&mut rng, 3);
            let bound = bind(&predicate, &truth_schema()).unwrap();
            let mut sel: Vec<u32> = (0..n as u32).filter(|_| rng.below(3) != 0).collect();
            if rng.below(2) == 0 {
                sel.reverse();
            }
            for sel in [None, Some(&sel[..])] {
                let w = Window::of(&batch, sel);
                let eval = |k: usize| bound.eval(&rows[w.phys(k)]);
                if let Some(mask) = fast_mask(&bound, &batch, w) {
                    for k in 0..w.len() {
                        let want = as_tv(&eval(k).expect("a vectorized shape never errors"));
                        proptest::prop_assert_eq!(truth_at(&mask, k), want.unwrap(), "{:?} row {}", predicate, w.phys(k));
                    }
                }
                let want: Result<Vec<u32>> = (0..w.len())
                    .filter_map(|k| match eval(k) {
                        Ok(v) => v.is_true().then_some(Ok(w.phys(k) as u32)),
                        Err(e) => Some(Err(e)),
                    })
                    .collect();
                for workers in [1, 2, 4] {
                    let got = filter_indices_morsel(&Morsels(workers), &bound, &batch, sel);
                    match (&got, &want) {
                        (Ok(a), Ok(b)) => proptest::prop_assert_eq!(a, b, "{:?}", predicate),
                        (Err(a), Err(b)) => proptest::prop_assert_eq!(a.to_string(), b.to_string()),
                        _ => panic!("{predicate:?} on {workers} workers: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn the_shapes_the_six_filter_on_stay_vectorized() {
        use BinaryOp::{Eq, Gt, GtEq, Lt, LtEq, NotEq};
        let rows = truth_rows(&mut TestRng::from_seed(7), 40);
        let batch = ColumnarBatch::from_rows(&rows, 6);
        let col = ScalarExpr::col;
        fn lit(v: impl Into<Value>) -> ScalarExpr {
            ScalarExpr::lit(v)
        }
        let mut shapes = Vec::new();
        for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
            for (c, v) in [
                ("i", Value::Int64(i64::MIN)),
                ("i", Value::Int64(i64::MAX)),
                ("i", Value::Float64(0.5)),
                ("d", Value::Date(3)),
                ("x", Value::Float64(1.0)),
                ("x", Value::Int64(1)),
                ("s", Value::str("banana")),
                ("b", Value::Bool(true)),
                ("i", Value::Null),
            ] {
                shapes.push(ScalarExpr::binary(op, col(c), lit(v.clone())));
                shapes.push(ScalarExpr::binary(op, lit(v), col(c)));
            }
        }
        shapes.extend([
            col("d").between(lit(Value::Date(1)), lit(Value::Date(4))),
            col("d")
                .between(lit(Value::Date(4)), lit(Value::Date(1)))
                .not(),
            col("i").between(lit(i64::MIN), lit(0i64)),
            col("x").between(lit(0i64), lit(Value::str("z"))),
            col("m").between(lit(0i64), lit(2i64)),
            col("s").like("%an%"),
            col("s").in_list(vec![Value::str("fig"), Value::Int64(1)]),
            col("m").in_list(vec![Value::Int64(1)]),
            col("m").is_null(),
            col("i").eq(col("i")),
            col("s").eq(lit(Value::str("apple"))).or(col("d")
                .lt(lit(Value::Date(2)))
                .and(col("x").is_null().not())),
        ]);
        let schema = truth_schema();
        for w in [Window::Range(0, 40), Window::Sel(&[39, 2, 2, 17])] {
            for shape in &shapes {
                let bound = bind(shape, &schema).unwrap();
                assert!(fast_mask(&bound, &batch, w).is_some(), "{shape:?}");
            }
        }
    }
}
