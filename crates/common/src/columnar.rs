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
use crate::value::Value;
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

/// One typed column vector. Fixed-width variants carry a parallel
/// validity vector (`valid[i] == false` means NULL; the slot in `values`
/// is then a zero placeholder). Strings are dictionary-encoded with
/// per-entry fingerprints precomputed so join/group keys never rehash
/// string bytes per row.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Fixed-width buffer (0 on NULL slots).
        values: Vec<i64>,
        /// Validity: false = NULL.
        valid: Vec<bool>,
    },
    /// 64-bit floats.
    Float64 {
        /// Fixed-width buffer (0.0 on NULL slots).
        values: Vec<f64>,
        /// Validity: false = NULL.
        valid: Vec<bool>,
    },
    /// Days since the Unix epoch.
    Date {
        /// Fixed-width buffer (0 on NULL slots).
        values: Vec<i32>,
        /// Validity: false = NULL.
        valid: Vec<bool>,
    },
    /// Booleans.
    Bool {
        /// Fixed-width buffer (false on NULL slots).
        values: Vec<bool>,
        /// Validity: false = NULL.
        valid: Vec<bool>,
    },
    /// Dictionary-encoded strings.
    Str {
        /// Distinct entries, shared across gathers.
        dict: Arc<Vec<Arc<str>>>,
        /// Precomputed per-entry byte fingerprints (parallel to `dict`).
        hashes: Arc<Vec<u64>>,
        /// Per-row dictionary codes (0 on NULL slots).
        codes: Vec<u32>,
        /// Validity: false = NULL.
        valid: Vec<bool>,
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

/// Fingerprint of one scalar [`Value`], consistent with [`Value`]'s
/// `Eq`/`Hash` classes: equal values always produce equal fingerprints.
pub fn value_fingerprint(v: &Value) -> u64 {
    match v {
        Value::Null => FP_NULL,
        Value::Bool(b) => FP_BOOL ^ (*b as u64),
        Value::Int64(i) => FP_NUM ^ (*i as f64).to_bits(),
        Value::Float64(f) => FP_NUM ^ f.to_bits(),
        Value::Date(d) => FP_DATE ^ (*d as i64 as u64),
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
        match self {
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Date { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Any { values } => values.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i` (clones are cheap: strings share their
    /// dictionary entry's `Arc`).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int64 { values, valid } => {
                if valid[i] {
                    Value::Int64(values[i])
                } else {
                    Value::Null
                }
            }
            Column::Float64 { values, valid } => {
                if valid[i] {
                    Value::Float64(values[i])
                } else {
                    Value::Null
                }
            }
            Column::Date { values, valid } => {
                if valid[i] {
                    Value::Date(values[i])
                } else {
                    Value::Null
                }
            }
            Column::Bool { values, valid } => {
                if valid[i] {
                    Value::Bool(values[i])
                } else {
                    Value::Null
                }
            }
            Column::Str {
                dict, codes, valid, ..
            } => {
                if valid[i] {
                    Value::Str(Arc::clone(&dict[codes[i] as usize]))
                } else {
                    Value::Null
                }
            }
            Column::Any { values } => values[i].clone(),
        }
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int64 { valid, .. }
            | Column::Float64 { valid, .. }
            | Column::Date { valid, .. }
            | Column::Bool { valid, .. }
            | Column::Str { valid, .. } => !valid[i],
            Column::Any { values } => values[i].is_null(),
        }
    }

    /// Fingerprint of row `i`, consistent with [`value_fingerprint`] on
    /// [`Column::get`]'s result (string hashes come precomputed from the
    /// dictionary). The per-row reference the tests hold the vectorized
    /// fold to.
    #[cfg(test)]
    fn fingerprint_at(&self, i: usize) -> u64 {
        match self {
            Column::Int64 { values, valid } => {
                if valid[i] {
                    FP_NUM ^ (values[i] as f64).to_bits()
                } else {
                    FP_NULL
                }
            }
            Column::Float64 { values, valid } => {
                if valid[i] {
                    FP_NUM ^ values[i].to_bits()
                } else {
                    FP_NULL
                }
            }
            Column::Date { values, valid } => {
                if valid[i] {
                    FP_DATE ^ (values[i] as i64 as u64)
                } else {
                    FP_NULL
                }
            }
            Column::Bool { values, valid } => {
                if valid[i] {
                    FP_BOOL ^ (values[i] as u64)
                } else {
                    FP_NULL
                }
            }
            Column::Str {
                hashes,
                codes,
                valid,
                ..
            } => {
                if valid[i] {
                    FP_STR ^ hashes[codes[i] as usize]
                } else {
                    FP_NULL
                }
            }
            Column::Any { values } => value_fingerprint(&values[i]),
        }
    }

    /// Fold this column into the running key fingerprints `h` of the rows
    /// `sel` (physical indices, in order; `None` = every row): `h[k]`
    /// takes the fingerprint of row `sel[k]`. A NULL mixes `FP_NULL` —
    /// grouping counts NULL as a key value — and clears `live[k]`, which
    /// is how a join learns to skip the row. The variant dispatch runs
    /// once per column, not once per cell.
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
        match self {
            Column::Int64 { values, valid } => fold(sel, h, live, |i| {
                valid[i].then(|| FP_NUM ^ (values[i] as f64).to_bits())
            }),
            Column::Float64 { values, valid } => fold(sel, h, live, |i| {
                valid[i].then(|| FP_NUM ^ values[i].to_bits())
            }),
            Column::Date { values, valid } => fold(sel, h, live, |i| {
                valid[i].then(|| FP_DATE ^ (values[i] as i64 as u64))
            }),
            Column::Bool { values, valid } => fold(sel, h, live, |i| {
                valid[i].then(|| FP_BOOL ^ (values[i] as u64))
            }),
            Column::Str {
                hashes,
                codes,
                valid,
                ..
            } => fold(sel, h, live, |i| {
                valid[i].then(|| FP_STR ^ hashes[codes[i] as usize])
            }),
            Column::Any { values } => fold(sel, h, live, |i| {
                (!values[i].is_null()).then(|| value_fingerprint(&values[i]))
            }),
        }
    }

    /// Push the values of rows `offset..offset + rows.len()` onto `rows`
    /// (one value per row, in row order) — the column-wise leg of
    /// [`ColumnarBatch::to_row_vec`], with the variant dispatch hoisted
    /// out of the per-cell loop.
    pub fn append_rows(&self, offset: usize, rows: &mut [Row]) {
        // One typed pass: `value` wraps a non-NULL cell.
        fn fill<T: Copy>(
            rows: &mut [Row],
            cells: &[T],
            valid: &[bool],
            value: impl Fn(T) -> Value,
        ) {
            for ((row, &cell), &ok) in rows.iter_mut().zip(cells).zip(valid) {
                row.push(if ok { value(cell) } else { Value::Null });
            }
        }
        let range = offset..offset + rows.len();
        match self {
            Column::Int64 { values, valid } => {
                fill(rows, &values[range.clone()], &valid[range], Value::Int64)
            }
            Column::Float64 { values, valid } => {
                fill(rows, &values[range.clone()], &valid[range], Value::Float64)
            }
            Column::Date { values, valid } => {
                fill(rows, &values[range.clone()], &valid[range], Value::Date)
            }
            Column::Bool { values, valid } => {
                fill(rows, &values[range.clone()], &valid[range], Value::Bool)
            }
            Column::Str {
                dict, codes, valid, ..
            } => fill(rows, &codes[range.clone()], &valid[range], |code| {
                Value::Str(Arc::clone(&dict[code as usize]))
            }),
            Column::Any { values } => {
                for (row, v) in rows.iter_mut().zip(&values[range]) {
                    row.push(v.clone());
                }
            }
        }
    }

    /// Exact wire width of row `i` under [`Value::estimated_exact_width`].
    pub fn encoded_width(&self, i: usize) -> usize {
        match self {
            Column::Int64 { valid, .. } | Column::Float64 { valid, .. } => {
                if valid[i] {
                    9
                } else {
                    1
                }
            }
            Column::Date { valid, .. } => {
                if valid[i] {
                    5
                } else {
                    1
                }
            }
            Column::Bool { valid, .. } => {
                if valid[i] {
                    2
                } else {
                    1
                }
            }
            Column::Str {
                dict, codes, valid, ..
            } => {
                if valid[i] {
                    5 + dict[codes[i] as usize].len()
                } else {
                    1
                }
            }
            Column::Any { values } => values[i].estimated_exact_width(),
        }
    }

    /// Sum of [`Column::encoded_width`] over rows `offset..offset + len`,
    /// computed from column metadata (validity counts and dictionary
    /// lengths) without visiting a wire encoding or copying the range.
    pub fn encoded_size(&self, offset: usize, len: usize) -> usize {
        fn fixed(valid: &[bool], width: usize) -> usize {
            let non_null = valid.iter().filter(|v| **v).count();
            non_null * width + (valid.len() - non_null)
        }
        let rows = offset..offset + len;
        match self {
            Column::Int64 { valid, .. } | Column::Float64 { valid, .. } => fixed(&valid[rows], 9),
            Column::Date { valid, .. } => fixed(&valid[rows], 5),
            Column::Bool { valid, .. } => fixed(&valid[rows], 2),
            Column::Str {
                dict, codes, valid, ..
            } => codes[rows.clone()]
                .iter()
                .zip(&valid[rows])
                .map(|(c, ok)| if *ok { 5 + dict[*c as usize].len() } else { 1 })
                .sum(),
            Column::Any { values } => values[rows].iter().map(Value::estimated_exact_width).sum(),
        }
    }

    /// Typed equality between row `i` of this column and row `j` of
    /// `other`, exactly matching `self.get(i) == other.get(j)` under
    /// [`Value`]'s equality (`total_cmp == Equal`: NULL equals NULL, the
    /// numeric domain is merged via `f64::total_cmp`, dates never equal
    /// numbers) — but without materializing `Value`s, so join/group key
    /// verification stays allocation-free on typed columns.
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        use std::cmp::Ordering;
        match (self, other) {
            (
                Column::Int64 {
                    values: a,
                    valid: va,
                },
                Column::Int64 {
                    values: b,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    a[i] == b[j]
                } else {
                    va[i] == vb[j]
                }
            }
            (
                Column::Float64 {
                    values: a,
                    valid: va,
                },
                Column::Float64 {
                    values: b,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    a[i].total_cmp(&b[j]) == Ordering::Equal
                } else {
                    va[i] == vb[j]
                }
            }
            (
                Column::Int64 {
                    values: a,
                    valid: va,
                },
                Column::Float64 {
                    values: b,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    (a[i] as f64).total_cmp(&b[j]) == Ordering::Equal
                } else {
                    va[i] == vb[j]
                }
            }
            (
                Column::Float64 {
                    values: a,
                    valid: va,
                },
                Column::Int64 {
                    values: b,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    a[i].total_cmp(&(b[j] as f64)) == Ordering::Equal
                } else {
                    va[i] == vb[j]
                }
            }
            (
                Column::Date {
                    values: a,
                    valid: va,
                },
                Column::Date {
                    values: b,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    a[i] == b[j]
                } else {
                    va[i] == vb[j]
                }
            }
            (
                Column::Bool {
                    values: a,
                    valid: va,
                },
                Column::Bool {
                    values: b,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    a[i] == b[j]
                } else {
                    va[i] == vb[j]
                }
            }
            (
                Column::Str {
                    dict: da,
                    hashes: ha,
                    codes: ca,
                    valid: va,
                },
                Column::Str {
                    dict: db,
                    hashes: hb,
                    codes: cb,
                    valid: vb,
                },
            ) => {
                if va[i] && vb[j] {
                    let (x, y) = (ca[i] as usize, cb[j] as usize);
                    if Arc::ptr_eq(da, db) {
                        // Interned dictionary: same code ⇔ same string.
                        x == y
                    } else {
                        ha[x] == hb[y] && da[x] == db[y]
                    }
                } else {
                    va[i] == vb[j]
                }
            }
            // Mixed layouts (Any on either side, or typed kinds whose
            // non-null values can never be equal): NULLs still compare
            // equal to each other; otherwise defer to Value equality.
            (a, b) => {
                let (na, nb) = (a.is_null(i), b.is_null(j));
                if na || nb {
                    na && nb
                } else {
                    a.get(i) == b.get(j)
                }
            }
        }
    }

    /// Gather the rows at `indices` (in order) into a new column.
    pub fn gather(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int64 { values, valid } => Column::Int64 {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                valid: indices.iter().map(|&i| valid[i as usize]).collect(),
            },
            Column::Float64 { values, valid } => Column::Float64 {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                valid: indices.iter().map(|&i| valid[i as usize]).collect(),
            },
            Column::Date { values, valid } => Column::Date {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                valid: indices.iter().map(|&i| valid[i as usize]).collect(),
            },
            Column::Bool { values, valid } => Column::Bool {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                valid: indices.iter().map(|&i| valid[i as usize]).collect(),
            },
            Column::Str {
                dict,
                hashes,
                codes,
                valid,
            } => Column::Str {
                dict: Arc::clone(dict),
                hashes: Arc::clone(hashes),
                codes: indices.iter().map(|&i| codes[i as usize]).collect(),
                valid: indices.iter().map(|&i| valid[i as usize]).collect(),
            },
            Column::Any { values } => Column::Any {
                values: indices
                    .iter()
                    .map(|&i| values[i as usize].clone())
                    .collect(),
            },
        }
    }

    /// Concatenate columns end to end. Homogeneous typed inputs stay
    /// typed (string dictionaries are merged with code remapping); mixed
    /// inputs fall back to [`Column::Any`].
    pub fn concat(parts: &[&Column]) -> Column {
        use std::mem::discriminant;
        if parts.is_empty() {
            return Column::Any { values: Vec::new() };
        }
        let homogeneous = parts
            .iter()
            .all(|c| discriminant(*c) == discriminant(parts[0]));
        if !homogeneous {
            let values = parts
                .iter()
                .flat_map(|c| (0..c.len()).map(|i| c.get(i)))
                .collect();
            return Column::Any { values };
        }
        match parts[0] {
            Column::Int64 { .. } => {
                let (mut values, mut valid) = (Vec::new(), Vec::new());
                for p in parts {
                    if let Column::Int64 {
                        values: v,
                        valid: k,
                    } = p
                    {
                        values.extend_from_slice(v);
                        valid.extend_from_slice(k);
                    }
                }
                Column::Int64 { values, valid }
            }
            Column::Float64 { .. } => {
                let (mut values, mut valid) = (Vec::new(), Vec::new());
                for p in parts {
                    if let Column::Float64 {
                        values: v,
                        valid: k,
                    } = p
                    {
                        values.extend_from_slice(v);
                        valid.extend_from_slice(k);
                    }
                }
                Column::Float64 { values, valid }
            }
            Column::Date { .. } => {
                let (mut values, mut valid) = (Vec::new(), Vec::new());
                for p in parts {
                    if let Column::Date {
                        values: v,
                        valid: k,
                    } = p
                    {
                        values.extend_from_slice(v);
                        valid.extend_from_slice(k);
                    }
                }
                Column::Date { values, valid }
            }
            Column::Bool { .. } => {
                let (mut values, mut valid) = (Vec::new(), Vec::new());
                for p in parts {
                    if let Column::Bool {
                        values: v,
                        valid: k,
                    } = p
                    {
                        values.extend_from_slice(v);
                        valid.extend_from_slice(k);
                    }
                }
                Column::Bool { values, valid }
            }
            Column::Str { .. } => {
                let mut merged = Dictionary::default();
                let (mut codes, mut valid) = (Vec::new(), Vec::new());
                for p in parts {
                    if let Column::Str {
                        dict: d,
                        hashes: h,
                        codes: c,
                        valid: k,
                    } = p
                    {
                        // Remap this part's codes into the merged dictionary.
                        let remap: Vec<u32> = d
                            .iter()
                            .zip(h.iter())
                            .map(|(s, &hash)| merged.code_of(hash, s, || Arc::clone(s)))
                            .collect();
                        codes.extend(c.iter().map(|&code| remap[code as usize]));
                        valid.extend_from_slice(k);
                    }
                }
                let (dict, hashes) = merged.finish();
                Column::Str {
                    dict,
                    hashes,
                    codes,
                    valid,
                }
            }
            Column::Any { .. } => {
                let mut values = Vec::new();
                for p in parts {
                    if let Column::Any { values: v } = p {
                        values.extend(v.iter().cloned());
                    }
                }
                Column::Any { values }
            }
        }
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

    /// Combined fingerprint of the key columns `key_cols` at row `i`:
    /// the per-row reference for [`ColumnarBatch::key_fingerprints`].
    #[cfg(test)]
    fn key_fingerprint(&self, key_cols: &[usize], i: usize) -> u64 {
        let mut h = FNV_OFFSET;
        for &c in key_cols {
            h = mix_fingerprint(h, self.column(c).fingerprint_at(i));
        }
        h
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
        let batch = ColumnarBatch::from_rows(&rows, 7);
        assert!(matches!(batch.column(5), Column::Any { .. }));
        batch
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
        let any = Column::Any {
            values: vals.clone(),
        };
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(any.fingerprint_at(i), value_fingerprint(v));
        }
        let ints = Column::from_values(vec![Value::Int64(42), Value::Null]);
        assert_eq!(ints.fingerprint_at(0), value_fingerprint(&Value::Int64(42)));
        assert_eq!(ints.fingerprint_at(1), value_fingerprint(&Value::Null));
        let strs = Column::from_values(vec![Value::str("k"), Value::str("k")]);
        assert_eq!(strs.fingerprint_at(0), value_fingerprint(&Value::str("k")));
        assert_eq!(strs.fingerprint_at(0), strs.fingerprint_at(1));
    }

    #[test]
    fn key_fingerprint_is_order_sensitive() {
        let rows = vec![
            vec![Value::Int64(1), Value::Int64(2)],
            vec![Value::Int64(2), Value::Int64(1)],
            vec![Value::Int64(1), Value::Int64(2)],
        ];
        let b = ColumnarBatch::from_rows(&rows, 2);
        assert_eq!(b.key_fingerprint(&[0, 1], 0), b.key_fingerprint(&[0, 1], 2));
        assert_ne!(b.key_fingerprint(&[0, 1], 0), b.key_fingerprint(&[0, 1], 1));
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
        let selections: [Option<&[u32]>; 3] = [None, Some(&[3, 0, 3, 2]), Some(&[])];
        for batch in [&typed, &any] {
            for key in [&[0usize][..], &[1, 3], &[4, 2, 0], &[]] {
                for sel in selections {
                    let (fps, live) = batch.key_fingerprints(key, sel);
                    let rows: Vec<usize> = match sel {
                        Some(s) => s.iter().map(|&i| i as usize).collect(),
                        None => (0..batch.len()).collect(),
                    };
                    assert_eq!((fps.len(), live.len()), (rows.len(), rows.len()));
                    for (k, &i) in rows.iter().enumerate() {
                        // NULL rows too: grouping keys on them.
                        assert_eq!(fps[k], batch.key_fingerprint(key, i), "{key:?} row {i}");
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
        let mut cols: Vec<&Column> = vec![&any];
        cols.extend(typed.iter());
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
