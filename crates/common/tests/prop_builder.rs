//! The single-pass column builder against the two-pass construction it
//! replaced: for any row set, `ColumnarBatch::from_rows` (rows fed to a
//! `ColumnarBuilder` one by one) must give every column the variant, the
//! cells, the dictionary, the wire sizes and the key fingerprints that
//! collecting the column's `Value`s first and sniffing them in a second
//! pass gave — and typed appends must build what `Value` appends build.

use geoqp_common::{Cells, Column, ColumnarBatch, ColumnarBuilder, Row, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The construction `Column::from_values` used before the builder: sniff
/// the type in one pass over the collected values, lay them out in a
/// second, intern strings through a `HashMap<Arc<str>, u32>`. Kept as the
/// oracle (with its own FNV-1a, which is what the dictionary's `hashes`
/// hold).
fn from_values_two_pass(values: Vec<Value>) -> Column {
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        Int,
        Float,
        Date,
        Bool,
        Str,
    }
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
    }
    /// One fixed-width layout: `cell` extracts a matching value.
    fn fixed<T: Default>(
        values: &[Value],
        cell: impl Fn(&Value) -> Option<T>,
    ) -> (Vec<T>, Vec<bool>) {
        let cells: Vec<Option<T>> = values.iter().map(cell).collect();
        let valid = cells.iter().map(Option::is_some).collect();
        (
            cells.into_iter().map(Option::unwrap_or_default).collect(),
            valid,
        )
    }
    let mut kind: Option<Kind> = None;
    for v in &values {
        let k = match v {
            Value::Null => continue,
            Value::Int64(_) => Kind::Int,
            Value::Float64(_) => Kind::Float,
            Value::Date(_) => Kind::Date,
            Value::Bool(_) => Kind::Bool,
            Value::Str(_) => Kind::Str,
        };
        match kind {
            None => kind = Some(k),
            Some(prev) if prev == k => {}
            Some(_) => return Column::Any { values },
        }
    }
    match kind {
        // All-NULL columns take the cheapest fixed-width layout.
        None | Some(Kind::Int) => {
            let (values, valid) = fixed(&values, |v| match v {
                Value::Int64(i) => Some(*i),
                _ => None,
            });
            Column::Int64(Cells { values, valid })
        }
        Some(Kind::Float) => {
            let (values, valid) = fixed(&values, |v| match v {
                Value::Float64(f) => Some(*f),
                _ => None,
            });
            Column::Float64(Cells { values, valid })
        }
        Some(Kind::Date) => {
            let (values, valid) = fixed(&values, |v| match v {
                Value::Date(d) => Some(*d),
                _ => None,
            });
            Column::Date(Cells { values, valid })
        }
        Some(Kind::Bool) => {
            let (values, valid) = fixed(&values, |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            });
            Column::Bool(Cells { values, valid })
        }
        Some(Kind::Str) => {
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut hashes: Vec<u64> = Vec::new();
            let mut intern: HashMap<Arc<str>, u32> = HashMap::new();
            let (mut codes, mut valid) = (Vec::new(), Vec::new());
            for v in &values {
                match v {
                    Value::Str(s) => {
                        let code = *intern.entry(Arc::clone(s)).or_insert_with(|| {
                            dict.push(Arc::clone(s));
                            hashes.push(fnv1a(s.as_bytes()));
                            (dict.len() - 1) as u32
                        });
                        codes.push(code);
                        valid.push(true);
                    }
                    _ => {
                        codes.push(0);
                        valid.push(false);
                    }
                }
            }
            Column::Str {
                dict: Arc::new(dict),
                hashes: Arc::new(hashes),
                codes: Cells {
                    values: codes,
                    valid,
                },
            }
        }
    }
}

const MAX_ROWS: usize = 40;
const MAX_ARITY: usize = 5;

/// What one column holds: a cell type (5 = nothing but NULLs), and
/// optionally one cell of another type at some position.
#[derive(Debug, Clone)]
struct ColumnSpec {
    kind: u8,
    mismatch: Option<(usize, u8)>,
    /// Per row: a die deciding NULL (< 3 of 10) and the cell's raw bits.
    raw: Vec<(u8, i64)>,
}

/// The cell of type `kind` that `bits` stands for. Floats take the bits
/// as they are (NaNs, infinities, -0.0); strings repeat out of a pool of
/// five or are distinct per `bits`.
fn cell(kind: u8, bits: i64) -> Value {
    match kind {
        0 => Value::Int64(bits),
        1 => Value::Float64(f64::from_bits(bits as u64)),
        2 => Value::Date(bits as i32),
        3 => Value::Bool(bits & 1 == 1),
        4 if bits % 3 == 0 => Value::str(format!("pool-{}", bits.rem_euclid(5))),
        4 => Value::str(format!("distinct {bits} é")),
        _ => Value::Null,
    }
}

impl ColumnSpec {
    fn values(&self, rows: usize) -> Vec<Value> {
        (0..rows)
            .map(|i| match (self.mismatch, self.raw[i]) {
                (Some((at, other)), (_, bits)) if at % rows == i => cell(other, bits),
                (_, (die, _)) if die < 3 => Value::Null,
                (_, (_, bits)) => cell(self.kind, bits),
            })
            .collect()
    }
}

fn arb_column() -> impl Strategy<Value = ColumnSpec> {
    let mismatch = prop_oneof![
        3 => Just(None),
        1 => (0..MAX_ROWS, 0u8..5).prop_map(Some),
    ];
    let raw = proptest::collection::vec((0u8..10, any::<i64>()), MAX_ROWS);
    (0u8..6, mismatch, raw).prop_map(|(kind, mismatch, raw)| ColumnSpec {
        kind,
        mismatch,
        raw,
    })
}

/// `rows` rows of `specs.len()` columns.
fn rows_of(specs: &[ColumnSpec], rows: usize) -> Vec<Row> {
    let columns: Vec<Vec<Value>> = specs.iter().map(|s| s.values(rows)).collect();
    (0..rows)
        .map(|i| columns.iter().map(|c| c[i].clone()).collect())
        .collect()
}

/// The same cell through the typed append its variant has.
fn push_typed(batch: &mut ColumnarBuilder, v: &Value) {
    match v {
        Value::Null => batch.push_null(),
        Value::Int64(i) => batch.push_i64(*i),
        Value::Float64(f) => batch.push_f64(*f),
        Value::Date(d) => batch.push_date(*d),
        Value::Bool(b) => batch.push_bool(*b),
        Value::Str(s) => batch.push_str(s),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_builds_what_two_passes_built(
        specs in proptest::collection::vec(arb_column(), 0..=MAX_ARITY),
        n in 0..=MAX_ROWS,
        ranges in proptest::collection::vec((0..=MAX_ROWS, 0..=MAX_ROWS), 4),
        sel in proptest::collection::vec(0..MAX_ROWS, 0..12),
    ) {
        let rows = rows_of(&specs, n);
        let arity = specs.len();
        let built = ColumnarBatch::from_rows(&rows, arity);
        // Arity 0 keeps its row count; empty input keeps its arity.
        prop_assert_eq!((built.len(), built.arity()), (n, arity));

        let reference: Vec<Column> = (0..arity)
            .map(|j| from_values_two_pass(rows.iter().map(|r| r[j].clone()).collect()))
            .collect();
        for (j, want) in reference.iter().enumerate() {
            // Variant, cells, validity, dictionary order and hashes.
            prop_assert_eq!(format!("{:?}", built.column(j)), format!("{want:?}"));
            // `Column::from_values` is the same builder.
            let values: Vec<Value> = rows.iter().map(|r| r[j].clone()).collect();
            prop_assert_eq!(format!("{:?}", Column::from_values(values)), format!("{want:?}"));
        }
        let reference = ColumnarBatch::from_shared(n, reference.into_iter().map(Into::into).collect());

        for (a, b) in ranges {
            let (offset, len) = (a.min(n), b.min(n - a.min(n)));
            prop_assert_eq!(
                built.encoded_size_of(offset, len),
                reference.encoded_size_of(offset, len)
            );
        }
        prop_assert_eq!(built.to_rows().encode(), reference.to_rows().encode());

        let keys: Vec<usize> = (0..arity).rev().collect();
        let sel: Vec<u32> = sel.into_iter().filter(|&i| i < n).map(|i| i as u32).collect();
        for sel in [None, Some(&sel[..])] {
            for key in [&keys[..], &keys[..arity.min(1)]] {
                prop_assert_eq!(
                    built.key_fingerprints(key, sel),
                    reference.key_fingerprints(key, sel)
                );
            }
        }

        // Typed appends and `Value` appends of the same cells agree.
        let mut typed = ColumnarBuilder::with_capacity(arity, n);
        let mut dynamic = ColumnarBuilder::with_capacity(arity, 0);
        for v in rows.iter().flatten() {
            push_typed(&mut typed, v);
            dynamic.push_value(v);
        }
        let (typed, dynamic) = (typed.finish(), dynamic.finish());
        // Cell appends cannot add a row to an arity-0 batch.
        prop_assert_eq!(typed.len(), if arity == 0 { 0 } else { n });
        for j in 0..arity {
            prop_assert_eq!(format!("{:?}", typed.column(j)), format!("{:?}", built.column(j)));
            prop_assert_eq!(format!("{:?}", dynamic.column(j)), format!("{:?}", built.column(j)));
        }
    }
}

#[test]
fn a_growing_dictionary_keeps_every_code() {
    // Enough distinct strings to re-index the dictionary several times:
    // every code reads back as the string that was pushed, repeats share
    // a code.
    let strings: Vec<String> = (0..5_000).map(|i| format!("k{}", i % 1_777)).collect();
    let mut batch = ColumnarBuilder::with_capacity(1, strings.len());
    for s in &strings {
        batch.push_str(s);
    }
    let batch = batch.finish();
    match batch.column(0) {
        Column::Str { dict, .. } => assert_eq!(dict.len(), 1_777),
        other => panic!("expected a dictionary column, got {other:?}"),
    }
    for (i, s) in strings.iter().enumerate() {
        assert_eq!(batch.get(i, 0), Value::str(s.as_str()));
    }
}
