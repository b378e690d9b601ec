//! Typed columnar in-memory tables; rows are a per-scan transpose for the
//! row interpreter.

use geoqp_common::{ColumnarBatch, GeoError, Result, Row, Rows, Schema};
use std::sync::Arc;

/// A materialized table: a schema and its cells, stored once, as typed
/// columns. A columnar scan shares them by `Arc`; a row scan transposes
/// them into a fresh [`Rows`]. Nothing above this type can tell which
/// layout is the stored one.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Arc<ColumnarBatch>,
}

impl Table {
    /// Create a table from rows, validating arity against the schema. The
    /// rows are laid out as columns and dropped.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Table> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != schema.len() {
                return Err(GeoError::Storage(format!(
                    "row {i} has {} values, schema has {} columns",
                    r.len(),
                    schema.len()
                )));
            }
        }
        let columns = Arc::new(ColumnarBatch::from_rows(&rows, schema.len()));
        Ok(Table { schema, columns })
    }

    /// Create a table from columns built elsewhere (a generator writing
    /// straight into a `ColumnarBuilder`), validating arity against the
    /// schema.
    pub fn from_columnar(schema: Arc<Schema>, columns: ColumnarBatch) -> Result<Table> {
        if columns.arity() != schema.len() {
            return Err(GeoError::Storage(format!(
                "batch has {} columns, schema has {}",
                columns.arity(),
                schema.len()
            )));
        }
        Ok(Table {
            schema,
            columns: Arc::new(columns),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.len()
    }

    /// Transpose all rows into a batch of their own.
    pub fn to_rows(&self) -> Rows {
        self.columns.to_rows()
    }

    /// The table's columns: every call is a clone of the one `Arc`.
    pub fn to_columnar(&self) -> Arc<ColumnarBatch> {
        Arc::clone(&self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, Value};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn arity_is_enforced() {
        let err = Table::new(schema(), vec![vec![Value::Int64(1)]]).unwrap_err();
        assert_eq!(err.kind(), "storage");
        let one_column = ColumnarBatch::from_rows(&[vec![Value::Int64(1)]], 1);
        let err = Table::from_columnar(schema(), one_column).unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert_eq!(Table::new(schema(), vec![]).unwrap().row_count(), 0);
    }

    #[test]
    fn to_rows_copies_data() {
        let t = Table::new(schema(), vec![vec![Value::Int64(7), Value::str("seven")]]).unwrap();
        let rows = t.to_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows()[0][1], Value::str("seven"));
    }

    #[test]
    fn columns_are_shared_and_rows_read_back_as_given() {
        let rows = vec![
            vec![Value::Int64(7), Value::str("seven")],
            vec![Value::Null, Value::str("seven")],
            vec![Value::Int64(8), Value::Null],
        ];
        let t = Table::new(schema(), rows.clone()).unwrap();
        let (a, b) = (t.to_columnar(), t.to_columnar());
        assert!(Arc::ptr_eq(&a, &b), "every scan shares the one batch");
        assert!(Arc::ptr_eq(&a, &t.clone().to_columnar()));
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.to_rows().rows(), &rows[..]);
        let same = Table::from_columnar(schema(), ColumnarBatch::from_rows(&rows, 2)).unwrap();
        assert_eq!(same.to_rows(), t.to_rows());
    }
}
