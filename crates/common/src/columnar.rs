//! Columnar batches: the vectorized execution engine's data layout.
//!
//! A [`ColumnarBatch`] stores a row batch column-major in typed vectors —
//! `Int64`/`Float64`/`Date`/`Bool` as fixed-width buffers with a validity
//! vector, strings dictionary-encoded (`u32` codes into a shared
//! [`Arc`]'d dictionary of [`Arc<str>`] entries) — plus an [`Any`]
//! fallback column for mixed-typed outputs (e.g. unions of differently
//! typed branches). Batches are immutable once built and flow through the
//! engine as `Arc<ColumnarBatch>`, so fragment hand-off and scan caching
//! are zero-copy.
//!
//! **A cell is copied when something first reads it, and never
//! otherwise.** A batch holds its columns as [`SharedColumn`]s, so
//! carrying a column into another batch (a projection of plain column
//! references) is a pointer copy, and [`ColumnarBatch::gather`] copies
//! nothing at all: each column of its result is *pending* — a source
//! column plus a position list the whole result shares — until a reader
//! asks for it ([`ColumnarBatch::column`] and everything built on it:
//! `get`, `encoded_size_of`, `key_fingerprints`, `to_row_vec`). That
//! first read gathers the column once, into a [`OnceLock`] every batch
//! sharing the column sees; gathering a still-pending column composes
//! the two position lists instead, once per distinct list. A join's
//! output therefore costs index work per *source*, and only the columns
//! somebody reads are ever copied. None of this is visible from outside:
//! a pending column reads exactly as its eager [`Column::gather`] would.
//!
//! Two invariants tie the columnar engine to the row engine:
//!
//! * **Round-trip exactness** — [`ColumnarBatch::to_rows`] reproduces the
//!   source rows value-for-value (float bit patterns included), so row
//!   multisets are preserved by construction.
//! * **Byte accounting** — [`ColumnarBatch::encoded_size`] equals
//!   [`Rows::encoded_size`] (and therefore `Rows::encode().len()`) for
//!   the same rows, computed from column metadata without materializing
//!   the wire encoding. The network simulator charges identical bytes
//!   whether a SHIP carries rows or a columnar batch. Sizing reads every
//!   column, so whatever is shipped has been gathered.
//!
//! [`Any`]: Column::Any

use crate::builder::{ColumnBuilder, ColumnarBuilder, Dictionary};
use crate::row::{Row, Rows};
use crate::types::DataType;
use crate::value::Value;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A selection vector: physical row indices (in order) that survive a
/// filter, or that a join matched. Kernels compose selections instead of
/// copying filtered batches, and [`ColumnarBatch::gather`] keeps the
/// vector, shared, as its result's position list.
pub type SelectionVector = Vec<u32>;

/// FNV-1a offset basis / prime, used for string and key fingerprints.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a byte string.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Mix one value fingerprint into a running key fingerprint. The rotate
/// keeps column order significant; the multiply diffuses upward only —
/// low result bits depend on low input bits alone — so a consumer that
/// needs table positions must finalize the fingerprint itself.
fn mix_fingerprint(h: u64, v: u64) -> u64 {
    (h.rotate_left(23) ^ v).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The one fixed-width layout: a cell per row and a parallel validity
/// vector. `valid[i] == false` means NULL, and the slot in `values` is
/// then `T::default()`, a placeholder nothing reads.
#[derive(Debug, Clone, Default)]
pub struct Cells<T> {
    /// Fixed-width buffer (`T::default()` on NULL slots).
    pub values: Vec<T>,
    /// Validity: false = NULL.
    pub valid: Vec<bool>,
}

impl<T: Copy + Default> Cells<T> {
    /// The cell at row `i`; `None` is a NULL.
    pub fn get(&self, i: usize) -> Option<T> {
        self.valid[i].then(|| self.values[i])
    }

    /// The cells of `rows`, in order.
    fn range(&self, rows: Range<usize>) -> impl Iterator<Item = Option<T>> + '_ {
        let cells = self.values[rows.clone()].iter().zip(&self.valid[rows]);
        cells.map(|(&cell, &ok)| ok.then_some(cell))
    }

    /// The rows at `indices`, in order.
    pub fn gather(&self, indices: &[u32]) -> Cells<T> {
        Cells {
            values: indices.iter().map(|&i| self.values[i as usize]).collect(),
            valid: indices.iter().map(|&i| self.valid[i as usize]).collect(),
        }
    }
}

/// One typed column vector: the four fixed-width types as [`Cells`] of
/// themselves, strings dictionary-encoded — [`Cells`] of `u32` codes,
/// with per-entry fingerprints precomputed so join/group keys never
/// rehash string bytes per row — and a mixed-typed fallback.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64(Cells<i64>),
    /// 64-bit floats.
    Float64(Cells<f64>),
    /// Days since 1970-01-01.
    Date(Cells<i32>),
    /// Booleans.
    Bool(Cells<bool>),
    /// Dictionary-encoded strings.
    Str {
        /// Distinct entries, shared across gathers.
        dict: Arc<Vec<Arc<str>>>,
        /// Precomputed per-entry byte fingerprints (parallel to `dict`).
        hashes: Arc<Vec<u64>>,
        /// Per-row dictionary codes.
        codes: Cells<u32>,
    },
    /// Mixed-typed fallback: one [`Value`] per row.
    Any {
        /// The row values.
        values: Vec<Value>,
    },
}

/// Value-level fingerprint tags. Int64 and Float64 share a tag (and a
/// payload: the value as `f64` bits) because [`Value`]'s equality merges
/// the numeric domain; dates keep their own tag because `Date(3) !=
/// Int64(3)`.
const FP_NULL: u64 = 0x9ae1_6a3b_2f90_404f;
const FP_BOOL: u64 = 0x3c79_ac49_2ba7_b653;
const FP_NUM: u64 = 0x1b87_3593_21e4_9d09;
const FP_DATE: u64 = 0x60be_e2be_e120_fc15;
const FP_STR: u64 = 0xa0b4_28db_8a4b_cc69;

/// Wire width of a NULL: its tag byte.
pub(crate) const NULL_WIDTH: usize = 1;

/// Wire width of a string: tag byte, `u32` length, bytes.
pub(crate) fn str_width(s: &str) -> usize {
    5 + s.len()
}

/// What the rest of the crate knows about a cell type, beside its NULL
/// placeholder (`Self::default()`): which [`Column`] variant lays it out,
/// the [`Value`] a cell stands for, that value's fingerprint (consistent
/// with [`Value`]'s `Eq`/`Hash` classes: equal values, equal
/// fingerprints), its exact width under the wire encoding (tag byte
/// included), and when two cells hold equal values.
pub(crate) trait Cell: Copy + Default {
    /// What reading a cell takes beside the cell: nothing when the cell
    /// is its own value, the dictionary when it is a code.
    type With<'a>: Copy;
    const TYPE: DataType;
    fn column(cells: Cells<Self>, with: Self::With<'_>) -> Column;
    /// The cells of `column`, when it is of this layout.
    fn of(column: &Column) -> Option<(&Cells<Self>, Self::With<'_>)>;
    /// The same cells, for the builder to push onto.
    fn cells_mut(column: &mut Column) -> Option<&mut Cells<Self>>;
    fn value(self, with: Self::With<'_>) -> Value;
    fn fingerprint(self, with: Self::With<'_>) -> u64;
    /// The width of every cell, when the type has just one.
    const WIDTH: Option<usize>;
    fn width(self, _with: Self::With<'_>) -> usize {
        Self::WIDTH.expect("a type of many widths gives each cell's")
    }
    /// Under [`Value`]'s equality (`total_cmp == Equal`).
    fn same(self, with: Self::With<'_>, other: Self, other_with: Self::With<'_>) -> bool;

    /// `first` and then `rest` end to end, when all are of this layout.
    fn concat(first: &Cells<Self>, with: Self::With<'_>, rest: &[&Column]) -> Option<Column> {
        let mut all = first.clone();
        for column in rest {
            let (cells, _) = Self::of(column)?;
            all.values.extend_from_slice(&cells.values);
            all.valid.extend_from_slice(&cells.valid);
        }
        Some(Self::column(all, with))
    }
}

/// The cell table — type, variant (of [`Column`], [`Value`] and
/// [`DataType`] alike), wire width, fingerprint, equality — for the
/// types whose cells are their own value.
macro_rules! fixed_width {
    ($($t:ty => $variant:ident, $width:literal, |$x:ident| $fingerprint:expr,
       |$a:ident, $b:ident| $same:expr;)*) => {$(
        impl Cell for $t {
            type With<'a> = ();
            const TYPE: DataType = DataType::$variant;
            fn column(cells: Cells<$t>, _: ()) -> Column {
                Column::$variant(cells)
            }
            fn of(column: &Column) -> Option<(&Cells<$t>, ())> {
                match column {
                    Column::$variant(cells) => Some((cells, ())),
                    _ => None,
                }
            }
            fn cells_mut(column: &mut Column) -> Option<&mut Cells<$t>> {
                match column {
                    Column::$variant(cells) => Some(cells),
                    _ => None,
                }
            }
            fn value(self, _: ()) -> Value {
                Value::$variant(self)
            }
            fn fingerprint(self, _: ()) -> u64 {
                let $x = self;
                $fingerprint
            }
            const WIDTH: Option<usize> = Some($width);
            fn same(self, _: (), other: $t, _: ()) -> bool {
                let ($a, $b) = (self, other);
                $same
            }
        }
    )*};
}

fixed_width! {
    i64 => Int64, 9, |x| FP_NUM ^ (x as f64).to_bits(), |a, b| a == b;
    f64 => Float64, 9, |x| FP_NUM ^ x.to_bits(), |a, b| a.total_cmp(&b).is_eq();
    i32 => Date, 5, |x| FP_DATE ^ (x as i64 as u64), |a, b| a == b;
    bool => Bool, 2, |x| FP_BOOL ^ (x as u64), |a, b| a == b;
}

/// What reads the codes of a string column: its dictionary.
#[derive(Clone, Copy)]
pub(crate) struct Coded<'a> {
    pub(crate) dict: &'a Arc<Vec<Arc<str>>>,
    pub(crate) hashes: &'a Arc<Vec<u64>>,
}

/// A dictionary code.
impl Cell for u32 {
    type With<'a> = Coded<'a>;
    const TYPE: DataType = DataType::Str;
    fn column(codes: Cells<u32>, with: Coded<'_>) -> Column {
        Column::Str {
            dict: Arc::clone(with.dict),
            hashes: Arc::clone(with.hashes),
            codes,
        }
    }
    fn of(column: &Column) -> Option<(&Cells<u32>, Coded<'_>)> {
        match column {
            Column::Str {
                dict,
                hashes,
                codes,
            } => Some((codes, Coded { dict, hashes })),
            _ => None,
        }
    }
    fn cells_mut(column: &mut Column) -> Option<&mut Cells<u32>> {
        match column {
            Column::Str { codes, .. } => Some(codes),
            _ => None,
        }
    }
    fn value(self, with: Coded<'_>) -> Value {
        Value::Str(Arc::clone(&with.dict[self as usize]))
    }
    fn fingerprint(self, with: Coded<'_>) -> u64 {
        FP_STR ^ with.hashes[self as usize]
    }
    const WIDTH: Option<usize> = None;
    fn width(self, with: Coded<'_>) -> usize {
        str_width(&with.dict[self as usize])
    }
    fn same(self, with: Coded<'_>, other: u32, other_with: Coded<'_>) -> bool {
        let (a, b) = (self as usize, other as usize);
        if Arc::ptr_eq(with.dict, other_with.dict) {
            // Interned dictionary: same code ⇔ same string.
            a == b
        } else {
            with.hashes[a] == other_with.hashes[b] && with.dict[a] == other_with.dict[b]
        }
    }

    /// The dictionaries are merged and every part's codes remapped.
    fn concat(first: &Cells<u32>, with: Coded<'_>, rest: &[&Column]) -> Option<Column> {
        let mut merged = Dictionary::default();
        let mut codes = Cells::default();
        let rest = rest.iter().map(|c| Self::of(c));
        for part in std::iter::once(Some((first, with))).chain(rest) {
            let (from, with) = part?;
            let entries = with.dict.iter().zip(with.hashes.iter());
            let remap: Vec<u32> = entries
                .map(|(s, &hash)| merged.code_of(hash, s, || Arc::clone(s)))
                .collect();
            let remapped = from.values.iter().map(|&code| remap[code as usize]);
            codes.values.extend(remapped);
            codes.valid.extend_from_slice(&from.valid);
        }
        let (dict, hashes) = merged.finish();
        Some(Column::Str {
            dict,
            hashes,
            codes,
        })
    }
}

/// Evaluate `$typed` with `$cells` bound to the column's [`Cells`] and
/// `$with` to what their [`Cell`] type is read with — written once,
/// compiled once per fixed-width type and once for dictionary codes — or
/// `$mixed` with `$values` bound to a [`Column::Any`]'s values. The
/// variant dispatch therefore runs once per call, never once per cell.
macro_rules! by_layout {
    ($column:expr, ($cells:ident, $with:ident) => $typed:expr, $values:ident => $mixed:expr) => {
        match $column {
            Column::Int64($cells) => by_layout!(@fixed $with, $typed),
            Column::Float64($cells) => by_layout!(@fixed $with, $typed),
            Column::Date($cells) => by_layout!(@fixed $with, $typed),
            Column::Bool($cells) => by_layout!(@fixed $with, $typed),
            Column::Str {
                dict,
                hashes,
                codes: $cells,
            } => {
                let $with = $crate::columnar::Coded { dict, hashes };
                $typed
            }
            Column::Any { values: $values } => $mixed,
        }
    };
    (@fixed $with:ident, $typed:expr) => {{
        let $with = ();
        $typed
    }};
}

pub(crate) use by_layout;

/// Fingerprint of one scalar [`Value`]: its [`Cell`]'s.
pub fn value_fingerprint(v: &Value) -> u64 {
    match v {
        Value::Null => FP_NULL,
        Value::Bool(b) => b.fingerprint(()),
        Value::Int64(i) => i.fingerprint(()),
        Value::Float64(f) => f.fingerprint(()),
        Value::Date(d) => d.fingerprint(()),
        Value::Str(s) => FP_STR ^ fnv1a(s.as_bytes()),
    }
}

impl Column {
    /// Build a column from row values, sniffing the narrowest typed
    /// representation: a column whose non-null values are all one
    /// variant becomes that typed vector, anything mixed falls back to
    /// [`Column::Any`]. One pass, through the same builder a
    /// [`ColumnarBuilder`](crate::ColumnarBuilder) fills.
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut column = ColumnBuilder::with_capacity(values.len());
        for v in &values {
            column.push_value(v);
        }
        column.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        by_layout!(self, (cells, _with) => cells.valid.len(), values => values.len())
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The type of the column's non-NULL cells; `None` when mixed.
    pub fn data_type(&self) -> Option<DataType> {
        fn type_of<T: Cell>(_: &Cells<T>) -> DataType {
            T::TYPE
        }
        by_layout!(self, (cells, _with) => Some(type_of(cells)), _values => None)
    }

    /// The value at row `i` (clones are cheap: strings share their
    /// dictionary entry's `Arc`).
    pub fn get(&self, i: usize) -> Value {
        by_layout!(self,
            (cells, with) => cells.get(i).map_or(Value::Null, |c| c.value(with)),
            values => values[i].clone())
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        by_layout!(self, (cells, _with) => !cells.valid[i], values => values[i].is_null())
    }

    /// Fold this column into the running key fingerprints `h` of the rows
    /// `sel` (physical indices, in order; `None` = every row): `h[k]`
    /// takes the fingerprint of row `sel[k]`, consistent with
    /// [`value_fingerprint`] on [`Column::get`]'s result. A NULL mixes
    /// `FP_NULL` — grouping counts NULL as a key value — and clears
    /// `live[k]`, which is how a join learns to skip the row.
    fn fold_key_fingerprints(&self, sel: Option<&[u32]>, h: &mut [u64], live: &mut [bool]) {
        // `value_at(i)`: the fingerprint of physical row `i`, `None` on NULL.
        fn fold(
            sel: Option<&[u32]>,
            h: &mut [u64],
            live: &mut [bool],
            value_at: impl Fn(usize) -> Option<u64>,
        ) {
            for k in 0..h.len() {
                let v = value_at(sel.map_or(k, |s| s[k] as usize));
                live[k] &= v.is_some();
                h[k] = mix_fingerprint(h[k], v.unwrap_or(FP_NULL));
            }
        }
        by_layout!(self,
        (cells, with) => fold(sel, h, live, |i| cells.get(i).map(|c| c.fingerprint(with))),
        values => fold(sel, h, live, |i| {
            (!values[i].is_null()).then(|| value_fingerprint(&values[i]))
        }))
    }

    /// Push the values of rows `offset..offset + rows.len()` onto `rows`
    /// (one value per row, in row order) — the column-wise leg of
    /// [`ColumnarBatch::to_row_vec`].
    pub fn append_rows(&self, offset: usize, rows: &mut [Row]) {
        let range = offset..offset + rows.len();
        by_layout!(self,
        (cells, with) => for (row, cell) in rows.iter_mut().zip(cells.range(range)) {
            row.push(cell.map_or(Value::Null, |c| c.value(with)));
        },
        values => for (row, v) in rows.iter_mut().zip(&values[range]) {
            row.push(v.clone());
        })
    }

    /// Exact wire size of rows `offset..offset + len` — the sum of their
    /// values' [`Value::estimated_exact_width`] — computed from column
    /// metadata (validity and dictionary lengths) without visiting a wire
    /// encoding or copying the range.
    pub fn encoded_size(&self, offset: usize, len: usize) -> usize {
        fn size<T: Cell>(cells: &Cells<T>, rows: Range<usize>, with: T::With<'_>) -> usize {
            let Some(width) = T::WIDTH else {
                let width = |cell: Option<T>| cell.map_or(NULL_WIDTH, |c| c.width(with));
                return cells.range(rows).map(width).sum();
            };
            // One width: count the NULLs and read no cell.
            let nulls = cells.valid[rows.clone()].iter().filter(|ok| !**ok).count();
            (rows.len() - nulls) * width + nulls * NULL_WIDTH
        }
        let rows = offset..offset + len;
        by_layout!(self,
            (cells, with) => size(cells, rows, with),
            values => values[rows].iter().map(Value::estimated_exact_width).sum())
    }

    /// Typed equality between row `i` of this column and row `j` of
    /// `other`, exactly matching `self.get(i) == other.get(j)` under
    /// [`Value`]'s equality (`total_cmp == Equal`: NULL equals NULL, the
    /// numeric domain is merged via `f64::total_cmp`, dates never equal
    /// numbers) — but without materializing `Value`s, so join/group key
    /// verification stays allocation-free on typed columns.
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        /// Two cells of one type; a NULL equals a NULL only.
        fn same<T: Cell>(a: Option<T>, wa: T::With<'_>, b: Option<T>, wb: T::With<'_>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x.same(wa, y, wb),
                (x, y) => x.is_none() && y.is_none(),
            }
        }
        // Two layouts (`Any` on either side, or types whose values can
        // never be equal, though their NULLs are): Value equality itself.
        let mixed = || self.get(i) == other.get(j);
        let float = |x: i64| x as f64;
        match (self, other) {
            // The one rule that crosses types: an integer is the float it
            // converts to.
            (Column::Int64(a), Column::Float64(b)) => same(a.get(i).map(float), (), b.get(j), ()),
            (Column::Float64(a), Column::Int64(b)) => same(a.get(i), (), b.get(j).map(float), ()),
            _ => by_layout!(self,
                (a, with) => match Cell::of(other) {
                    Some((b, other_with)) => same(a.get(i), with, b.get(j), other_with),
                    None => mixed(),
                },
                _values => mixed()),
        }
    }

    /// Gather the rows at `indices` (in order) into a new column.
    pub fn gather(&self, indices: &[u32]) -> Column {
        by_layout!(self,
        (cells, with) => Cell::column(cells.gather(indices), with),
        values => Column::Any {
            values: indices.iter().map(|&i| values[i as usize].clone()).collect(),
        })
    }

    /// Concatenate columns end to end. Homogeneous typed inputs stay
    /// typed (string dictionaries are merged with code remapping); mixed
    /// inputs fall back to [`Column::Any`].
    pub fn concat(parts: &[&Column]) -> Column {
        let typed = parts.split_first().and_then(|(first, rest)| {
            by_layout!(first, (cells, with) => Cell::concat(cells, with, rest), _values => None)
        });
        typed.unwrap_or_else(|| Column::Any {
            values: parts
                .iter()
                .flat_map(|c| (0..c.len()).map(|i| c.get(i)))
                .collect(),
        })
    }
}

/// The position list of a pending column, shared by every column gathered
/// through it.
type Positions = Arc<SelectionVector>;

// How many position lists `ColumnarBatch::gather` has composed on this
// thread: what the tests count to show a list shared by *k* columns is
// composed once.
#[cfg(test)]
thread_local! {
    static COMPOSITIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One column of a batch, shared: every batch that carries the column
/// holds the same allocation. It is either *materialized* — its cells
/// exist — or *pending*: a materialized source column and the positions
/// to gather out of it, which the first [`SharedColumn::get`] does,
/// exactly once, for every holder.
#[derive(Debug, Clone)]
pub struct SharedColumn(Arc<Slot>);

#[derive(Debug)]
struct Slot {
    /// The cells: set at construction, or by the first read of a
    /// pending column (racing readers block, then see the one result).
    cells: OnceLock<Column>,
    /// What a pending column's first read gathers. The source is always
    /// materialized: gathering a pending column composes positions down
    /// to *its* source instead of stacking.
    pending: Option<(SharedColumn, Positions)>,
}

impl From<Column> for SharedColumn {
    fn from(column: Column) -> SharedColumn {
        SharedColumn(Arc::new(Slot {
            cells: OnceLock::from(column),
            pending: None,
        }))
    }
}

impl SharedColumn {
    /// The column, gathering it first if nobody has read it yet.
    pub fn get(&self) -> &Column {
        self.0.cells.get_or_init(|| {
            let (source, positions) = self
                .0
                .pending
                .as_ref()
                .expect("a column is materialized or pending");
            source.get().gather(positions)
        })
    }

    /// True once the column's cells exist — from construction, or
    /// because something read it.
    fn is_materialized(&self) -> bool {
        self.0.cells.get().is_some()
    }

    /// Number of rows, without materializing.
    fn len(&self) -> usize {
        match (self.0.cells.get(), &self.0.pending) {
            (Some(column), _) => column.len(),
            (None, Some((_, positions))) => positions.len(),
            (None, None) => unreachable!("a column is materialized or pending"),
        }
    }
}

/// An immutable column-major row batch of [`SharedColumn`]s.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    len: usize,
    columns: Vec<SharedColumn>,
}

impl ColumnarBatch {
    /// Build from row-major data. `arity` fixes the column count (needed
    /// for empty inputs, whose rows cannot be inspected).
    pub fn from_rows(rows: &[Row], arity: usize) -> ColumnarBatch {
        let mut batch = ColumnarBuilder::with_capacity(arity, rows.len());
        for row in rows {
            batch.push_row(row);
        }
        batch.finish()
    }

    /// Build from pre-constructed columns (all the same length).
    pub fn from_columns(columns: Vec<Column>) -> ColumnarBatch {
        let len = columns.first().map_or(0, Column::len);
        ColumnarBatch::from_shared(len, columns.into_iter().map(Into::into).collect())
    }

    /// Build from columns other batches may also hold, each `len` rows
    /// long (`len` is what an arity-0 batch still knows): pointer copies,
    /// pending columns stay pending.
    pub fn from_shared(len: usize, columns: Vec<SharedColumn>) -> ColumnarBatch {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColumnarBatch { len, columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One column — the read that materializes a pending one.
    pub fn column(&self, j: usize) -> &Column {
        self.columns[j].get()
    }

    /// The columns as other batches can carry them, pending or not.
    pub fn shared_columns(&self) -> &[SharedColumn] {
        &self.columns
    }

    /// Has anything read column `j` yet (or was it built materialized)?
    pub fn is_materialized(&self, j: usize) -> bool {
        self.columns[j].is_materialized()
    }

    /// The value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.column(col).get(row)
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get().get(i)).collect()
    }

    /// Round-trip back to row-major form (materialized eagerly; the
    /// engines defer this via [`Rows::from_batch`] instead).
    pub fn to_rows(&self) -> Rows {
        Rows::from_rows(self.to_row_vec())
    }

    /// The row-major transpose itself, in blocks of rows: every column
    /// appends its values to one block's rows in a typed pass of its own
    /// (the variant dispatch runs once per column and block, not once per
    /// cell) before the next block is touched, so the rows being filled
    /// stay in cache across the columns. Each row is allocated once, at
    /// its final capacity. Output is identical to materializing
    /// [`ColumnarBatch::row`] per row.
    pub fn to_row_vec(&self) -> Vec<Row> {
        // Measured flat from 32 to 1 024 rows on a 16-column table and
        // a third slower at 4 096, where a block's rows (1.6 MB) no
        // longer stay cached across the columns.
        const BLOCK_ROWS: usize = 256;
        let columns: Vec<&Column> = self.columns.iter().map(SharedColumn::get).collect();
        let mut rows: Vec<Row> = Vec::with_capacity(self.len);
        for offset in (0..self.len).step_by(BLOCK_ROWS) {
            let block = BLOCK_ROWS.min(self.len - offset);
            rows.extend((0..block).map(|_| Row::with_capacity(columns.len())));
            for column in &columns {
                column.append_rows(offset, &mut rows[offset..]);
            }
        }
        rows
    }

    /// Exact wire size of this batch under the row encoding: equals
    /// `self.to_rows().encode().len()` (8-byte header plus every value's
    /// exact width) but is computed from column metadata alone.
    pub fn encoded_size(&self) -> usize {
        self.encoded_size_of(0, self.len)
    }

    /// [`ColumnarBatch::encoded_size`] of rows `offset..offset + len` as
    /// a batch of their own — what shipping that range costs, header
    /// included, without copying it out.
    pub fn encoded_size_of(&self, offset: usize, len: usize) -> usize {
        let width = |c: &SharedColumn| c.get().encoded_size(offset, len);
        8 + self.columns.iter().map(width).sum::<usize>()
    }

    /// The rows at `positions` (in order) as a batch of their own —
    /// without copying a cell: every column of the result is pending on
    /// `positions` until something reads it. A column that is itself
    /// still pending is not read for this: its positions are composed
    /// with the new ones, once per distinct list however many columns
    /// share it, and the result gathers straight from the original
    /// source. Every row in order — a foreign-key join whose probe side
    /// all matched — is the batch itself: the same columns, even when read.
    pub fn gather(&self, positions: Positions) -> ColumnarBatch {
        let in_place = |(k, &p): (usize, &u32)| k == p as usize;
        if positions.len() == self.len && positions.iter().enumerate().all(in_place) {
            return self.clone();
        }
        // (a pending input list, its composition with `positions`)
        let mut composed: Vec<(&Positions, Positions)> = Vec::new();
        let mut through = |inner| {
            if let Some((_, done)) = composed.iter().find(|(of, _)| Arc::ptr_eq(of, inner)) {
                return Arc::clone(done);
            }
            #[cfg(test)]
            COMPOSITIONS.with(|n| n.set(n.get() + 1));
            let done: Positions = Arc::new(positions.iter().map(|&k| inner[k as usize]).collect());
            composed.push((inner, Arc::clone(&done)));
            done
        };
        let columns = self
            .columns
            .iter()
            .map(|column| {
                let pending = match &column.0.pending {
                    Some((source, inner)) if !column.is_materialized() => {
                        (source.clone(), through(inner))
                    }
                    _ => (column.clone(), Arc::clone(&positions)),
                };
                SharedColumn(Arc::new(Slot {
                    cells: OnceLock::new(),
                    pending: Some(pending),
                }))
            })
            .collect();
        ColumnarBatch {
            len: positions.len(),
            columns,
        }
    }

    /// Concatenate batches end to end. `arity` fixes the column count
    /// when `parts` is empty.
    pub fn concat(parts: &[Arc<ColumnarBatch>], arity: usize) -> ColumnarBatch {
        if parts.is_empty() {
            return ColumnarBatch::from_rows(&[], arity);
        }
        let len = parts.iter().map(|p| p.len).sum();
        let columns = (0..parts[0].arity())
            .map(|j| {
                let cols: Vec<&Column> = parts.iter().map(|p| p.column(j)).collect();
                Column::concat(&cols).into()
            })
            .collect();
        ColumnarBatch { len, columns }
    }

    /// Key fingerprints of the rows `sel` (physical indices, in order;
    /// `None` = every row) over the key columns `key_cols`, plus a
    /// liveness mask, both indexed by position in `sel`. Equal key
    /// tuples (under [`Value`] equality, NULL equal to NULL) always
    /// produce equal fingerprints; kernels verify candidate matches with
    /// real value comparisons, so collisions cost time, never
    /// correctness. `live[k]` is false iff any key column is NULL at
    /// that row: grouping keeps such rows, a join skips them.
    pub fn key_fingerprints(
        &self,
        key_cols: &[usize],
        sel: Option<&[u32]>,
    ) -> (Vec<u64>, Vec<bool>) {
        let n = sel.map_or(self.len, <[u32]>::len);
        let mut fps = vec![FNV_OFFSET; n];
        let mut live = vec![true; n];
        for &c in key_cols {
            self.column(c)
                .fold_key_fingerprints(sel, &mut fps, &mut live);
        }
        (fps, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_rows() -> Vec<Row> {
        vec![
            vec![
                Value::Int64(1),
                Value::str("alpha"),
                Value::Float64(1.5),
                Value::Date(9000),
                Value::Bool(true),
            ],
            vec![
                Value::Int64(2),
                Value::Null,
                Value::Float64(f64::NAN),
                Value::Null,
                Value::Bool(false),
            ],
            vec![
                Value::Null,
                Value::str("alpha"),
                Value::Float64(-0.0),
                Value::Date(-12),
                Value::Null,
            ],
            vec![
                Value::Int64(-7),
                Value::str("émoji ✓"),
                Value::Float64(2.0),
                Value::Date(0),
                Value::Bool(true),
            ],
        ]
    }

    #[test]
    fn round_trip_preserves_values_exactly() {
        let rows = mixed_rows();
        let batch = ColumnarBatch::from_rows(&rows, 5);
        let back = batch.to_rows();
        assert_eq!(back.len(), rows.len());
        for (a, b) in back.iter().zip(&rows) {
            for (x, y) in a.iter().zip(b) {
                // Bit-exact floats: compare via encoding, not PartialEq
                // (NaN != NaN under SQL equality but must round-trip).
                let mut ex = Vec::new();
                let mut ey = Vec::new();
                x.encode_into(&mut ex);
                y.encode_into(&mut ey);
                assert_eq!(ex, ey, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn encoded_size_matches_row_encoding_exactly() {
        let rows = Rows::from_rows(mixed_rows());
        let batch = ColumnarBatch::from_rows(rows.rows(), 5);
        assert_eq!(batch.encoded_size(), rows.encode().len());
        assert_eq!(batch.encoded_size(), rows.encoded_size());
        // Every row range costs exactly what encoding those rows as a
        // batch of their own would: the stream charges per batch from
        // this, without slicing.
        for offset in 0..=rows.len() {
            for len in 0..=rows.len() - offset {
                let part = Rows::from_rows(rows.rows()[offset..offset + len].to_vec());
                assert_eq!(
                    batch.encoded_size_of(offset, len),
                    part.encode().len(),
                    "rows {offset}..{}",
                    offset + len
                );
                assert_eq!(rows.encoded_size_of(offset, len), part.encode().len());
            }
        }
        // Empty batches are header-only, like `Rows`.
        let empty = ColumnarBatch::from_rows(&[], 3);
        assert_eq!(empty.encoded_size(), 8);
        assert_eq!(empty.arity(), 3);
    }

    #[test]
    fn gather_matches_row_indexing() {
        let rows = mixed_rows();
        let batch = ColumnarBatch::from_rows(&rows, 5);
        let g = batch.gather(Arc::new(vec![3, 0, 3]));
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), rows[3]);
        assert_eq!(g.row(1), rows[0]);
        assert_eq!(g.row(2), rows[3]);
    }

    /// Every layout in one batch: the five typed ones with NULLs (float
    /// NaN and -0.0 included), an `Any` column, and an all-NULL column.
    fn every_layout() -> ColumnarBatch {
        let batch = ColumnarBatch::from_rows(&every_layout_rows(), 7);
        assert!(matches!(batch.column(5), Column::Any { .. }));
        batch
    }

    fn every_layout_rows() -> Vec<Row> {
        let mut rows = mixed_rows();
        rows.push(vec![
            Value::Int64(1),
            Value::str("beta"),
            Value::Null,
            Value::Date(9000),
            Value::Bool(false),
        ]);
        rows.push(vec![
            Value::Int64(i64::MIN),
            Value::str("alpha"),
            Value::Float64(0.0),
            Value::Date(1),
            Value::Null,
        ]);
        let any = [
            Value::Int64(1),
            Value::str("x"),
            Value::Null,
            Value::Float64(1.0),
            Value::Date(1),
            Value::Bool(true),
        ];
        for (row, v) in rows.iter_mut().zip(any) {
            row.push(v);
            row.push(Value::Null);
        }
        rows
    }

    /// [`every_layout`]'s columns beside the values they were built from,
    /// plus its strings twice more: gathered (the source's dictionary,
    /// shared) and rebuilt back to front (an equal dictionary of its own,
    /// in another order).
    fn every_layout_columns() -> Vec<(Column, Vec<Value>)> {
        let (batch, rows) = (every_layout(), every_layout_rows());
        let values = |j: usize| rows.iter().map(|r| r[j].clone()).collect::<Vec<_>>();
        let mut columns: Vec<(Column, Vec<Value>)> = (0..batch.arity())
            .map(|j| (batch.column(j).clone(), values(j)))
            .collect();
        let back_to_front: Vec<u32> = (0..rows.len() as u32).rev().collect();
        let reversed: Vec<Value> = values(1).into_iter().rev().collect();
        columns.push((batch.column(1).gather(&back_to_front), reversed.clone()));
        columns.push((Column::from_values(reversed.clone()), reversed));
        columns
    }

    /// The per-row reference for [`ColumnarBatch::key_fingerprints`]: the
    /// fold of [`value_fingerprint`] over the key columns' values.
    fn key_fingerprint(batch: &ColumnarBatch, key_cols: &[usize], i: usize) -> u64 {
        let values = key_cols.iter().map(|&c| batch.get(i, c));
        values.fold(FNV_OFFSET, |h, v| mix_fingerprint(h, value_fingerprint(&v)))
    }

    #[test]
    fn every_layout_reads_as_the_values_it_was_built_from() {
        fn layout(column: &Column) -> &'static str {
            match column {
                Column::Int64(_) => "Int64",
                Column::Float64(_) => "Float64",
                Column::Date(_) => "Date",
                Column::Bool(_) => "Bool",
                Column::Str { .. } => "Str",
                Column::Any { .. } => "Any",
            }
        }
        // Bit-exact, NaN included: values, and a column's cells, on the wire.
        let wire = |values: &[Value]| encoded(values.iter().map(|v| vec![v.clone()]).collect());
        let read = |c: &Column| wire(&(0..c.len()).map(|i| c.get(i)).collect::<Vec<_>>());
        let columns = every_layout_columns();
        let layouts: Vec<&str> = columns.iter().map(|(c, _)| layout(c)).collect();
        let expected = [
            "Int64", "Str", "Float64", "Date", "Bool", "Any", "Int64", "Str", "Str",
        ];
        assert_eq!(layouts, expected);
        for (column, values) in &columns {
            let n = values.len();
            assert_eq!(read(column), wire(values), "{column:?}");
            assert!(
                (0..n).all(|i| column.is_null(i) == values[i].is_null()),
                "{column:?}"
            );
            // All NULL is laid out as integers; mixed has no type.
            let sniffed = values.iter().find_map(Value::data_type);
            let typed = (layout(column) != "Any").then(|| sniffed.unwrap_or(DataType::Int64));
            assert_eq!(column.data_type(), typed);

            for positions in position_lists() {
                let gathered = column.gather(&positions);
                let want: Vec<Value> = positions
                    .iter()
                    .map(|&p| values[p as usize].clone())
                    .collect();
                assert_eq!(
                    read(&gathered),
                    wire(&want),
                    "gather {positions:?} of {column:?}"
                );
                assert_eq!(layout(&gathered), layout(column));
            }

            for offset in 0..=n {
                for len in 0..=n - offset {
                    // The column's share of the encoding: all but the header.
                    let want = wire(&values[offset..offset + len]);
                    let size = column.encoded_size(offset, len);
                    assert_eq!(size + 8, want.len(), "{offset}.. {len} of {column:?}");
                    let mut rows = vec![Row::new(); len];
                    column.append_rows(offset, &mut rows);
                    assert_eq!(encoded(rows), want, "{offset}.. {len} of {column:?}");
                }
            }

            // End to end with a column of its own layout, and of another.
            for (other, other_values) in &columns {
                let joined = Column::concat(&[column, other, column]);
                let want = [&values[..], other_values, values].concat();
                assert_eq!(read(&joined), wire(&want), "{column:?} ++ {other:?}");
                let kept = layout(column) == layout(other);
                let want = if kept { layout(column) } else { "Any" };
                assert_eq!(layout(&joined), want, "{column:?} ++ {other:?}");
            }
        }
    }

    /// Bit-exact row comparison (NaN included): through the wire encoding.
    fn encoded(rows: Vec<Row>) -> Vec<u8> {
        Rows::from_rows(rows).encode()
    }

    /// Repeated, empty, out-of-order, identity and single-row lists over
    /// [`every_layout`]'s six rows.
    fn position_lists() -> Vec<Vec<u32>> {
        vec![
            vec![3, 0, 3, 3, 5],
            vec![],
            vec![5, 2, 4, 0, 1, 3],
            vec![0, 1, 2, 3, 4, 5],
            vec![4],
        ]
    }

    #[test]
    fn a_pending_batch_reads_exactly_as_its_eager_gather() {
        let source = every_layout();
        for positions in position_lists() {
            let eager_columns: Vec<Column> = (0..source.arity())
                .map(|j| source.column(j).gather(&positions))
                .collect();
            let eager = ColumnarBatch::from_columns(eager_columns);
            // A fresh pending batch per accessor, so each is a first read.
            let identity = positions.iter().map(|&p| p as usize).eq(0..source.len());
            let pending = || {
                let p = source.gather(Arc::new(positions.clone()));
                assert_eq!((p.len(), p.arity()), (positions.len(), source.arity()));
                for j in 0..p.arity() {
                    // Never a copy: pending, or — every row in order —
                    // the source's own column.
                    assert_eq!(p.is_materialized(j), identity);
                    assert!(!identity || std::ptr::eq(p.column(j), source.column(j)));
                }
                p
            };
            let n = positions.len();

            let p = pending();
            for i in 0..n {
                assert_eq!(encoded(vec![p.row(i)]), encoded(vec![eager.row(i)]));
                for j in 0..p.arity() {
                    assert_eq!(
                        encoded(vec![vec![p.get(i, j)]]),
                        encoded(vec![vec![eager.get(i, j)]])
                    );
                }
            }
            assert_eq!(encoded(pending().to_row_vec()), encoded(eager.to_row_vec()));

            for offset in 0..=n {
                for len in 0..=n - offset {
                    assert_eq!(
                        pending().encoded_size_of(offset, len),
                        eager.encoded_size_of(offset, len),
                        "rows {offset}..{} of {positions:?}",
                        offset + len
                    );
                }
            }

            let all: Vec<usize> = (0..source.arity()).collect();
            let some: Vec<u32> = (0..n as u32).rev().step_by(2).collect();
            for key in [&all[..], &[1], &[5, 0], &[]] {
                for sel in [None, Some(&some[..])] {
                    assert_eq!(
                        pending().key_fingerprints(key, sel),
                        eager.key_fingerprints(key, sel)
                    );
                }
            }

            let p = pending();
            for j in 0..p.arity() {
                for i in 0..n {
                    for (k, &at) in positions.iter().enumerate() {
                        let want = eager.column(j).eq_at(i, eager.column(j), k);
                        assert_eq!(p.column(j).eq_at(i, eager.column(j), k), want);
                        assert_eq!(p.column(j).eq_at(i, p.column(j), k), want);
                        // Against the ungathered source, too.
                        let in_source = p.column(j).eq_at(i, source.column(j), at as usize);
                        assert_eq!(in_source, want);
                    }
                }
            }
            // A gathered string column still shares its source's dictionary.
            match (p.column(1), source.column(1)) {
                (Column::Str { dict: a, .. }, Column::Str { dict: b, .. }) => {
                    assert!(Arc::ptr_eq(a, b))
                }
                other => panic!("expected dictionary columns, got {other:?}"),
            }
        }
    }

    #[test]
    fn gather_of_gather_of_gather_composes() {
        let source = every_layout();
        let lists = [
            vec![5u32, 5, 0, 2, 3, 1, 4, 0],
            vec![7, 0, 0, 3, 6, 2],
            vec![2, 5, 5, 0],
        ];
        let eager = |j: usize| {
            let through = |c: Column, l: &Vec<u32>| c.gather(l);
            lists.iter().fold(source.column(j).clone(), through)
        };
        let want = ColumnarBatch::from_columns((0..source.arity()).map(eager).collect());

        // Nothing read on the way: the lists compose, the intermediates
        // are never gathered, and the one read goes to the source.
        let g1 = source.gather(Arc::new(lists[0].clone()));
        let g2 = g1.gather(Arc::new(lists[1].clone()));
        let g3 = g2.gather(Arc::new(lists[2].clone()));
        assert_eq!(encoded(g3.to_row_vec()), encoded(want.to_row_vec()));
        for g in [&g1, &g2] {
            assert!((0..g.arity()).all(|j| !g.is_materialized(j)));
        }

        // Some columns read on the way (a join key, say): those gather
        // from the copy that exists, the rest still compose.
        let g1 = source.gather(Arc::new(lists[0].clone()));
        g1.column(0);
        g1.column(5);
        let g2 = g1.gather(Arc::new(lists[1].clone()));
        g2.column(1);
        let g3 = g2.gather(Arc::new(lists[2].clone()));
        assert_eq!(encoded(g3.to_row_vec()), encoded(want.to_row_vec()));
        assert!(!g1.is_materialized(2) && !g2.is_materialized(2));

        // An empty list anywhere in the chain is an empty batch.
        let none = g2.gather(Arc::new(vec![])).gather(Arc::new(vec![]));
        assert_eq!((none.len(), none.to_row_vec().len()), (0, 0));
        assert_eq!(none.encoded_size(), 8);
    }

    #[test]
    fn a_position_list_shared_by_k_columns_is_composed_once() {
        let composed = |f: &dyn Fn() -> ColumnarBatch| {
            let before = COMPOSITIONS.with(|n| n.get());
            let out = f();
            (out, COMPOSITIONS.with(|n| n.get()) - before)
        };
        let source = every_layout();
        let first = Arc::new(vec![4u32, 4, 1, 0]);
        let then = Arc::new(vec![3u32, 0, 0]);

        // Materialized columns have no list to compose.
        let (g1, n) = composed(&|| source.gather(Arc::clone(&first)));
        assert_eq!(n, 0);
        // Seven pending columns on one list: one composition.
        let (g2, n) = composed(&|| g1.gather(Arc::clone(&then)));
        assert_eq!(n, 1);

        // A join's shape — columns pending on two different lists — is
        // two compositions, however the columns interleave.
        let other = source.gather(Arc::new(vec![2u32, 2, 5, 1]));
        let columns = (0..7)
            .flat_map(|j| {
                [
                    g1.shared_columns()[j].clone(),
                    other.shared_columns()[j].clone(),
                ]
            })
            .collect();
        let joined = ColumnarBatch::from_shared(4, columns);
        let (g3, n) = composed(&|| joined.gather(Arc::clone(&then)));
        assert_eq!(n, 2);
        for j in 0..7 {
            assert_eq!(
                encoded(vec![vec![g3.get(1, 2 * j)]]),
                encoded(vec![vec![g2.get(1, j)]])
            );
            assert_eq!(
                encoded(vec![vec![g3.get(0, 2 * j + 1)]]),
                encoded(vec![vec![source.get(1, j)]])
            );
        }

        // Columns that have been read gather from their copy: nothing
        // left to compose.
        let (_, n) = composed(&|| g2.gather(Arc::new(vec![0])));
        assert_eq!(n, 0, "g2 was read above");
    }

    #[test]
    fn racing_first_reads_end_with_one_allocation() {
        let rows: Vec<Row> = (0..50_000)
            .map(|i| vec![Value::Int64(i), Value::str(format!("s{}", i % 97))])
            .collect();
        let source = ColumnarBatch::from_rows(&rows, 2);
        let pending = source.gather(Arc::new((0..50_000u32).rev().collect()));
        // A second batch carrying the same columns (a projection).
        let carried = ColumnarBatch::from_shared(pending.len(), pending.shared_columns().to_vec());

        let start = std::sync::Barrier::new(2);
        let read = |b: &ColumnarBatch| {
            start.wait();
            (
                b.column(0) as *const Column as usize,
                b.column(1) as *const Column as usize,
            )
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| read(&pending));
            let b = s.spawn(|| read(&carried));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "both readers hold the one gathered column");
        assert!(carried.is_materialized(0) && pending.is_materialized(1));
        assert_eq!(pending.get(0, 0), Value::Int64(49_999));
        assert_eq!(carried.get(49_999, 1), Value::str("s0"));
    }

    #[test]
    fn concat_merges_dictionaries_and_preserves_bytes() {
        let rows = mixed_rows();
        let a = Arc::new(ColumnarBatch::from_rows(&rows[..2], 5));
        let b = Arc::new(ColumnarBatch::from_rows(&rows[2..], 5));
        let joined = ColumnarBatch::concat(&[a, b], 5);
        assert_eq!(joined.to_rows().rows(), &rows[..]);
        let all = ColumnarBatch::from_rows(&rows, 5);
        assert_eq!(joined.encoded_size(), all.encoded_size());
    }

    #[test]
    fn concat_of_mismatched_column_types_falls_back_to_any() {
        let a = Arc::new(ColumnarBatch::from_rows(&[vec![Value::Int64(1)]], 1));
        let b = Arc::new(ColumnarBatch::from_rows(&[vec![Value::str("x")]], 1));
        let j = ColumnarBatch::concat(&[a, b], 1);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(0, 0), Value::Int64(1));
        assert_eq!(j.get(1, 0), Value::str("x"));
    }

    #[test]
    fn mixed_typed_column_falls_back_to_any() {
        let col = Column::from_values(vec![Value::Int64(1), Value::str("x")]);
        assert!(matches!(col, Column::Any { .. }));
        assert_eq!(col.get(0), Value::Int64(1));
        assert_eq!(col.encoded_size(0, 2), 9 + 6);
        assert_eq!(col.encoded_size(1, 1), 6);
    }

    #[test]
    fn fingerprints_respect_value_equality_classes() {
        // Int64 and Float64 merge numerically.
        assert_eq!(
            value_fingerprint(&Value::Int64(3)),
            value_fingerprint(&Value::Float64(3.0))
        );
        // Dates are NOT numbers.
        assert_ne!(
            value_fingerprint(&Value::Date(3)),
            value_fingerprint(&Value::Int64(3))
        );
        assert_eq!(
            value_fingerprint(&Value::str("abc")),
            value_fingerprint(&Value::str("abc"))
        );
        assert_ne!(
            value_fingerprint(&Value::str("abc")),
            value_fingerprint(&Value::str("abd"))
        );

        // Column fingerprints agree with the scalar scheme, across both
        // typed and Any layouts.
        let vals = vec![
            Value::Null,
            Value::Int64(42),
            Value::str("k"),
            Value::Float64(42.0),
            Value::Bool(true),
            Value::Date(42),
        ];
        let folded = |column: Column| {
            ColumnarBatch::from_columns(vec![column])
                .key_fingerprints(&[0], None)
                .0
        };
        let scalar = |v: &Value| mix_fingerprint(FNV_OFFSET, value_fingerprint(v));
        let any = folded(Column::Any {
            values: vals.clone(),
        });
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(any[i], scalar(v));
        }
        let ints = folded(Column::from_values(vec![Value::Int64(42), Value::Null]));
        assert_eq!(ints[0], scalar(&Value::Int64(42)));
        assert_eq!(ints[1], scalar(&Value::Null));
        let strs = folded(Column::from_values(vec![Value::str("k"), Value::str("k")]));
        assert_eq!(strs[0], scalar(&Value::str("k")));
        assert_eq!(strs[0], strs[1]);
    }

    #[test]
    fn key_fingerprint_is_order_sensitive() {
        let rows = vec![
            vec![Value::Int64(1), Value::Int64(2)],
            vec![Value::Int64(2), Value::Int64(1)],
            vec![Value::Int64(1), Value::Int64(2)],
        ];
        let (fps, _) = ColumnarBatch::from_rows(&rows, 2).key_fingerprints(&[0, 1], None);
        assert_eq!(fps[0], fps[2]);
        assert_ne!(fps[0], fps[1]);
    }

    #[test]
    fn vectorized_fold_matches_the_per_row_reference() {
        let typed = ColumnarBatch::from_rows(&mixed_rows(), 5);
        let any = ColumnarBatch::from_columns(
            (0..5)
                .map(|c| Column::Any {
                    values: mixed_rows().iter().map(|r| r[c].clone()).collect(),
                })
                .collect(),
        );
        let columns = every_layout_columns().into_iter().map(|(c, _)| c);
        let every = ColumnarBatch::from_columns(columns.collect());
        let selections: [Option<&[u32]>; 3] = [None, Some(&[3, 0, 3, 2]), Some(&[])];
        for batch in [&typed, &any, &every] {
            for key in [&[0usize][..], &[1, 3], &[4, 2, 0], &[], &[8, 5, 6, 7]] {
                if key.iter().any(|&c| c >= batch.arity()) {
                    continue;
                }
                for sel in selections {
                    let (fps, live) = batch.key_fingerprints(key, sel);
                    let rows: Vec<usize> = match sel {
                        Some(s) => s.iter().map(|&i| i as usize).collect(),
                        None => (0..batch.len()).collect(),
                    };
                    assert_eq!((fps.len(), live.len()), (rows.len(), rows.len()));
                    for (k, &i) in rows.iter().enumerate() {
                        // NULL rows too: grouping keys on them.
                        assert_eq!(fps[k], key_fingerprint(batch, key, i), "{key:?} row {i}");
                        let null = key.iter().any(|&c| batch.column(c).is_null(i));
                        assert_eq!(live[k], !null, "{key:?} row {i}");
                    }
                }
            }
        }
        // Layout never shows: the typed and `Any` folds agree.
        assert_eq!(
            typed.key_fingerprints(&[0, 1, 2, 3, 4], None),
            any.key_fingerprints(&[0, 1, 2, 3, 4], None)
        );
    }

    #[test]
    fn eq_at_agrees_with_value_equality_across_layouts() {
        let vals = vec![
            Value::Null,
            Value::Int64(42),
            Value::Float64(42.0),
            Value::Float64(-0.0),
            Value::Float64(0.0),
            Value::Float64(f64::NAN),
            Value::Int64(0),
            Value::Date(42),
            Value::Bool(true),
            Value::str("k"),
            Value::str("m"),
        ];
        // Layouts to cross-compare: the Any fallback, plus each
        // homogeneous typed projection of the same values.
        let any = Column::Any {
            values: vals.clone(),
        };
        let typed: Vec<Column> = vec![
            Column::from_values(vec![Value::Int64(42), Value::Int64(0), Value::Null]),
            Column::from_values(vec![
                Value::Float64(42.0),
                Value::Float64(-0.0),
                Value::Float64(0.0),
                Value::Float64(f64::NAN),
                Value::Null,
            ]),
            Column::from_values(vec![Value::Date(42), Value::Null]),
            Column::from_values(vec![Value::Bool(true), Value::Bool(false), Value::Null]),
            Column::from_values(vec![Value::str("k"), Value::str("m"), Value::Null]),
        ];
        let every = every_layout_columns();
        let mut cols: Vec<&Column> = vec![&any];
        cols.extend(typed.iter());
        cols.extend(every.iter().map(|(c, _)| c));
        for a in &cols {
            for b in &cols {
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        assert_eq!(
                            a.eq_at(i, b, j),
                            a.get(i) == b.get(j),
                            "layouts {a:?}[{i}] vs {b:?}[{j}]"
                        );
                    }
                }
            }
        }
        // Distinct dictionaries with equal content still compare equal.
        let s1 = Column::from_values(vec![Value::str("dup")]);
        let s2 = Column::from_values(vec![Value::str("dup"), Value::str("no")]);
        assert!(s1.eq_at(0, &s2, 0));
        assert!(!s1.eq_at(0, &s2, 1));
    }

    #[test]
    fn dictionary_interning_dedupes_repeated_strings() {
        let col = Column::from_values(vec![
            Value::str("dup"),
            Value::str("dup"),
            Value::str("other"),
        ]);
        if let Column::Str { dict, .. } = &col {
            assert_eq!(dict.len(), 2);
        } else {
            panic!("expected dictionary column");
        }
    }
}
