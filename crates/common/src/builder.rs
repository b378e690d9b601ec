//! Building columns cell by cell: the one place a [`Column`]'s layout is
//! decided.
//!
//! A [`ColumnarBuilder`] is an append-only batch under construction. Cells
//! arrive in row-major order — every column of row 0, then row 1 — either
//! typed (`push_i64`, `push_str`, …: what a generator that knows its
//! schema calls) or as [`Value`]s (`push_value`: what a row source
//! calls); both land in the same typed vectors, and a column's layout
//! follows one contract however its cells arrived: the first non-NULL
//! cell fixes the type, a later cell of another type demotes the column
//! to [`Column::Any`], and a column that never saw a non-NULL cell takes
//! the `Int64` layout. Strings are interned by the FNV fingerprint their
//! dictionary keeps anyway: each cell's bytes are hashed once, and an
//! `Arc<str>` is allocated once per *distinct* string.

use crate::columnar::{by_layout, fnv1a, Cell, Cells, Column, ColumnarBatch};
use crate::value::Value;
use std::sync::Arc;

/// A string dictionary under construction: entries in first-occurrence
/// order, their byte fingerprints, and an open-addressed index from
/// fingerprint to code. Equal fingerprints are told apart by comparing
/// bytes, so a collision costs a probe, never a wrong code.
#[derive(Debug, Default)]
pub(crate) struct Dictionary {
    entries: Vec<Arc<str>>,
    hashes: Vec<u64>,
    /// `code + 1` per occupied slot, 0 when empty; a power of two long.
    slots: Vec<u32>,
}

impl Dictionary {
    /// The code of `s`, whose byte fingerprint is `hash`; `entry` makes
    /// the dictionary's own copy the first time `s` is seen.
    pub(crate) fn code_of(&mut self, hash: u64, s: &str, entry: impl FnOnce() -> Arc<str>) -> u32 {
        if self.entries.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = Dictionary::position(hash) & mask;
        loop {
            match self.slots[at] {
                0 => break,
                taken => {
                    let code = (taken - 1) as usize;
                    if self.hashes[code] == hash && *self.entries[code] == *s {
                        return code as u32;
                    }
                }
            }
            at = (at + 1) & mask;
        }
        self.entries.push(entry());
        self.hashes.push(hash);
        let code = u32::try_from(self.entries.len()).expect("a dictionary holds < 2^32 strings");
        self.slots[at] = code;
        code - 1
    }

    /// FNV-1a's low bits depend on every byte but mix poorly; fold the
    /// high half in before masking.
    fn position(hash: u64) -> usize {
        (hash ^ (hash >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize >> 20
    }

    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.slots = vec![0; len];
        for (code, &hash) in self.hashes.iter().enumerate() {
            let mut at = Dictionary::position(hash) & (len - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = code as u32 + 1;
        }
    }

    /// The finished `dict` / `hashes` pair of a [`Column::Str`], without
    /// the spare capacity growing by doubling left behind (the builder
    /// cannot know the number of distinct strings up front).
    pub(crate) fn finish(mut self) -> (Arc<Vec<Arc<str>>>, Arc<Vec<u64>>) {
        self.entries.shrink_to_fit();
        self.hashes.shrink_to_fit();
        (Arc::new(self.entries), Arc::new(self.hashes))
    }
}

impl<T: Copy + Default> Cells<T> {
    /// `nulls` NULL rows, with room for `capacity` rows.
    fn nulls(nulls: usize, capacity: usize) -> Cells<T> {
        let mut cells = Cells {
            values: Vec::with_capacity(capacity.max(nulls)),
            valid: Vec::with_capacity(capacity.max(nulls)),
        };
        cells.values.resize(nulls, T::default());
        cells.valid.resize(nulls, false);
        cells
    }

    /// Append a cell; `None` is a NULL.
    fn push(&mut self, cell: Option<T>) {
        self.values.push(cell.unwrap_or_default());
        self.valid.push(cell.is_some());
    }
}

/// The cells of one column so far.
#[derive(Debug)]
enum Open {
    /// Nothing but NULLs yet, this many: the type is still open.
    Nulls(usize),
    /// A fixed-width layout — or `Any`, once two types met.
    Cells(Column),
    /// Strings: the dictionary so far and a code per row.
    Str(Dictionary, Cells<u32>),
}

/// One column under construction.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    open: Open,
    /// Rows announced up front: what to reserve once the type is known.
    capacity: usize,
}

impl ColumnBuilder {
    pub(crate) fn with_capacity(capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            open: Open::Nulls(0),
            capacity,
        }
    }

    /// Append a fixed-width cell: open the column on its first non-NULL
    /// cell (back-filling the NULLs before it), push when the type
    /// matches, demote to `Any` when it does not.
    fn push<T: for<'a> Cell<With<'a> = ()>>(&mut self, cell: T) {
        match &mut self.open {
            Open::Nulls(nulls) => {
                let mut cells = Cells::nulls(*nulls, self.capacity);
                cells.push(Some(cell));
                self.open = Open::Cells(T::column(cells, ()));
            }
            Open::Cells(column) => match T::cells_mut(column) {
                Some(cells) => cells.push(Some(cell)),
                None => self.push_mixed(cell.value(())),
            },
            Open::Str(..) => self.push_mixed(cell.value(())),
        }
    }

    /// A string cell; `entry` makes the `Arc<str>` a new dictionary entry
    /// (or an `Any` cell) holds.
    fn push_str(&mut self, s: &str, entry: impl FnOnce() -> Arc<str>) {
        if let Open::Nulls(nulls) = self.open {
            let codes = Cells::nulls(nulls, self.capacity);
            self.open = Open::Str(Dictionary::default(), codes);
        }
        match &mut self.open {
            Open::Str(dict, codes) => codes.push(Some(dict.code_of(fnv1a(s.as_bytes()), s, entry))),
            _ => self.push_mixed(Value::Str(entry())),
        }
    }

    fn push_null(&mut self) {
        match &mut self.open {
            Open::Nulls(nulls) => *nulls += 1,
            Open::Cells(column) => {
                by_layout!(column, (cells, _with) => cells.push(None), values => values.push(Value::Null))
            }
            Open::Str(_, codes) => codes.push(None),
        }
    }

    pub(crate) fn push_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int64(i) => self.push(*i),
            Value::Float64(f) => self.push(*f),
            Value::Date(d) => self.push(*d),
            Value::Bool(b) => self.push(*b),
            Value::Str(s) => self.push_str(s, || Arc::clone(s)),
        }
    }

    /// A cell whose type differs from the column's: the column becomes
    /// (or already is) `Any`.
    fn push_mixed(&mut self, v: Value) {
        if !matches!(self.open, Open::Cells(Column::Any { .. })) {
            let typed = ColumnBuilder {
                open: std::mem::replace(&mut self.open, Open::Nulls(0)),
                capacity: 0,
            }
            .finish();
            let mut values = Vec::with_capacity(self.capacity.max(typed.len() + 1));
            values.extend((0..typed.len()).map(|i| typed.get(i)));
            self.open = Open::Cells(Column::Any { values });
        }
        if let Open::Cells(Column::Any { values }) = &mut self.open {
            values.push(v);
        }
    }

    pub(crate) fn finish(self) -> Column {
        match self.open {
            // All-NULL columns take the cheapest fixed-width layout.
            Open::Nulls(nulls) => Column::Int64(Cells::nulls(nulls, 0)),
            Open::Cells(column) => column,
            Open::Str(dict, codes) => {
                let (dict, hashes) = dict.finish();
                Column::Str {
                    dict,
                    hashes,
                    codes,
                }
            }
        }
    }
}

/// An append-only [`ColumnarBatch`] under construction. Cells are pushed
/// in row-major order: each `push_*` appends to the next column of the
/// current row and moves on, wrapping to the first column of the next row
/// after the last.
#[derive(Debug)]
pub struct ColumnarBuilder {
    columns: Vec<ColumnBuilder>,
    /// The column the next cell goes to.
    next: usize,
    /// Complete rows.
    len: usize,
}

impl ColumnarBuilder {
    /// A builder of `arity` columns with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> ColumnarBuilder {
        ColumnarBuilder {
            columns: (0..arity)
                .map(|_| ColumnBuilder::with_capacity(rows))
                .collect(),
            next: 0,
            len: 0,
        }
    }

    /// The column the next cell belongs to, stepping the cursor past it.
    fn cell(&mut self) -> &mut ColumnBuilder {
        let at = self.next;
        self.next += 1;
        if self.next == self.columns.len() {
            self.next = 0;
            self.len += 1;
        }
        &mut self.columns[at]
    }

    /// Append an integer cell.
    pub fn push_i64(&mut self, v: i64) {
        self.cell().push(v)
    }

    /// Append a float cell.
    pub fn push_f64(&mut self, v: f64) {
        self.cell().push(v)
    }

    /// Append a date cell (days since the Unix epoch).
    pub fn push_date(&mut self, v: i32) {
        self.cell().push(v)
    }

    /// Append a boolean cell.
    pub fn push_bool(&mut self, v: bool) {
        self.cell().push(v)
    }

    /// Append a string cell; the bytes are copied only if the column has
    /// not seen this string before.
    pub fn push_str(&mut self, s: &str) {
        self.cell().push_str(s, || Arc::from(s))
    }

    /// Append a NULL cell.
    pub fn push_null(&mut self) {
        self.cell().push_null()
    }

    /// Append a cell of whatever type `v` holds.
    pub fn push_value(&mut self, v: &Value) {
        self.cell().push_value(v)
    }

    /// Append one whole row (`row.len()` must be the builder's arity).
    /// The only way to add a row to an arity-0 batch.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(self.next, 0, "push_row in the middle of a row");
        assert_eq!(row.len(), self.columns.len(), "row arity");
        for (column, v) in self.columns.iter_mut().zip(row) {
            column.push_value(v);
        }
        self.len += 1;
    }

    /// The finished batch. Panics on a half-pushed row: that is a bug in
    /// the caller, and the columns would not line up.
    pub fn finish(self) -> ColumnarBatch {
        assert_eq!(self.next, 0, "finish in the middle of a row");
        let columns = self.columns.into_iter().map(ColumnBuilder::finish);
        ColumnarBatch::from_shared(self.len, columns.map(Into::into).collect())
    }
}
