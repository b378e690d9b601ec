//! Rows and row batches.

use crate::columnar::{str_width, Cell, ColumnarBatch, NULL_WIDTH};
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// A single tuple: one value per schema field, in schema order.
pub type Row = Vec<Value>;

/// A materialized batch of rows — the unit that flows between operators in
/// the local executor and across SHIP operators in the distributed engine.
///
/// Batches born on the vectorized engine stay columnar until a consumer
/// actually asks for row-major data (late materialization): the first
/// [`Rows::rows`] / [`Rows::iter`] access transposes once and caches the
/// result, so pipelines that only count rows, account bytes, or hand the
/// batch onward never pay the per-row `Vec` allocations of an eager
/// transpose. Row-native constructors ([`Rows::from_rows`],
/// [`Rows::decode`]) are materialized from the start, and all observable
/// behavior — lengths, iteration order, equality, the wire encoding — is
/// identical either way.
#[derive(Debug, Default)]
pub struct Rows {
    /// Deferred columnar payload: present only while no row access has
    /// forced the transpose (and cleared by mutation).
    cols: Option<Arc<ColumnarBatch>>,
    /// Row-major payload; set at construction for row-native batches, or
    /// on first access for columnar-born ones.
    rows: OnceLock<Vec<Row>>,
}

impl Rows {
    /// Empty batch.
    pub fn new() -> Rows {
        Rows::from_rows(Vec::new())
    }

    /// From a vector of rows (materialized immediately).
    pub fn from_rows(rows: Vec<Row>) -> Rows {
        let cell = OnceLock::new();
        let _ = cell.set(rows);
        Rows {
            cols: None,
            rows: cell,
        }
    }

    /// From a columnar batch, deferring the row-major transpose until a
    /// consumer asks for rows. Length, byte accounting, and encoding are
    /// served from column metadata until then.
    pub fn from_batch(batch: Arc<ColumnarBatch>) -> Rows {
        Rows {
            cols: Some(batch),
            rows: OnceLock::new(),
        }
    }

    /// The materialized row vector, transposing the columnar payload on
    /// first use.
    fn materialized(&self) -> &Vec<Row> {
        self.rows.get_or_init(|| match &self.cols {
            Some(b) => b.to_row_vec(),
            None => Vec::new(),
        })
    }

    /// Mutable access to the row vector, forcing materialization and
    /// dropping the (now stale) columnar payload.
    fn materialized_mut(&mut self) -> &mut Vec<Row> {
        if self.rows.get().is_none() {
            let v = match &self.cols {
                Some(b) => b.to_row_vec(),
                None => Vec::new(),
            };
            let _ = self.rows.set(v);
        }
        self.cols = None;
        self.rows.get_mut().expect("just materialized")
    }

    /// Number of rows (from column metadata when still columnar).
    pub fn len(&self) -> usize {
        match self.rows.get() {
            Some(r) => r.len(),
            None => self.cols.as_ref().map_or(0, |b| b.len()),
        }
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one row.
    pub fn push(&mut self, row: Row) {
        self.materialized_mut().push(row);
    }

    /// Borrow the rows.
    pub fn rows(&self) -> &[Row] {
        self.materialized()
    }

    /// Consume into the underlying vector.
    pub fn into_rows(self) -> Vec<Row> {
        match self.rows.into_inner() {
            Some(r) => r,
            None => self.cols.as_ref().map_or_else(Vec::new, |b| b.to_row_vec()),
        }
    }

    /// Iterate over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.materialized().iter()
    }

    /// Exact serialized size of the batch under [`Value::encode_into`]'s
    /// encoding, plus a fixed 8-byte batch header. This is the byte count
    /// the network simulator charges for a SHIP of this batch. Served
    /// from column metadata while the batch is still columnar
    /// ([`ColumnarBatch::encoded_size`] is defined to agree exactly).
    pub fn encoded_size(&self) -> usize {
        self.encoded_size_of(0, self.len())
    }

    /// [`Rows::encoded_size`] of rows `offset..offset + len` as a batch
    /// of their own (header included), without copying them out.
    pub fn encoded_size_of(&self, offset: usize, len: usize) -> usize {
        if self.rows.get().is_none() {
            if let Some(b) = &self.cols {
                return b.encoded_size_of(offset, len);
            }
        }
        8 + self.materialized()[offset..offset + len]
            .iter()
            .flat_map(|r| r.iter())
            .map(Value::estimated_exact_width)
            .sum::<usize>()
    }

    /// Serialize all rows into a byte buffer (8-byte row-count header, then
    /// each row's values back to back). The distributed engine ships these
    /// bytes and re-decodes them at the receiving site, so the simulated
    /// transfer volume is the real volume.
    pub fn encode(&self) -> Vec<u8> {
        let rows = self.materialized();
        let mut buf = Vec::with_capacity(self.encoded_size());
        buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for row in rows {
            for v in row {
                v.encode_into(&mut buf);
            }
        }
        buf
    }

    /// Decode a buffer produced by [`Rows::encode`], given the row arity.
    pub fn decode(buf: &[u8], arity: usize) -> Option<Rows> {
        let header: [u8; 8] = buf.get(..8)?.try_into().ok()?;
        let n = u64::from_le_bytes(header) as usize;
        let mut pos = 8;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                let (v, used) = Value::decode_from(&buf[pos..])?;
                pos += used;
                row.push(v);
            }
            rows.push(row);
        }
        (pos == buf.len()).then_some(Rows::from_rows(rows))
    }
}

impl Clone for Rows {
    fn clone(&self) -> Rows {
        let cell = OnceLock::new();
        if let Some(r) = self.rows.get() {
            let _ = cell.set(r.clone());
        }
        Rows {
            cols: self.cols.clone(),
            rows: cell,
        }
    }
}

/// Logical equality: same rows in the same order, regardless of which
/// representation (columnar or row-major) currently backs each side.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.rows() == other.rows()
    }
}

impl Eq for Rows {}

impl Value {
    /// Exact width of this value under the wire encoding (tag byte included).
    pub fn estimated_exact_width(&self) -> usize {
        match self {
            Value::Null => NULL_WIDTH,
            Value::Bool(b) => b.width(()),
            Value::Int64(i) => i.width(()),
            Value::Float64(f) => f.width(()),
            Value::Date(d) => d.width(()),
            Value::Str(s) => str_width(s),
        }
    }
}

impl FromIterator<Row> for Rows {
    fn from_iter<I: IntoIterator<Item = Row>>(iter: I) -> Rows {
        Rows::from_rows(iter.into_iter().collect())
    }
}

impl IntoIterator for Rows {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_rows().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rows {
        Rows::from_rows(vec![
            vec![Value::Int64(1), Value::str("alice"), Value::Float64(10.5)],
            vec![Value::Int64(2), Value::Null, Value::Float64(-3.25)],
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let rows = sample();
        let buf = rows.encode();
        assert_eq!(buf.len(), rows.encoded_size());
        let back = Rows::decode(&buf, 3).expect("decode");
        assert_eq!(back, rows);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = sample().encode();
        buf.push(0xFF);
        assert!(Rows::decode(&buf, 3).is_none());
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = sample().encode();
        assert!(Rows::decode(&buf[..buf.len() - 1], 3).is_none());
    }

    #[test]
    fn empty_batch_is_header_only() {
        let rows = Rows::new();
        assert!(rows.is_empty());
        let buf = rows.encode();
        assert_eq!(buf.len(), 8);
        assert_eq!(Rows::decode(&buf, 5).unwrap().len(), 0);
    }

    #[test]
    fn collect_from_iterator() {
        let rows: Rows = (0..3).map(|i| vec![Value::Int64(i)]).collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.rows()[2][0], Value::Int64(2));
    }
}
