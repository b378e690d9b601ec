//! The catalog-backed data source every located plan's leaves read.

use geoqp_common::{ColumnarBatch, GeoError, Location, Result, TableRef};
use geoqp_exec::DataSource;
use geoqp_storage::Catalog;
use std::sync::Arc;

/// Scans base tables from the per-site databases of a [`Catalog`]. The
/// runtime gates every read (cancellation, site availability) before it
/// gets here, and serves [`PhysOp::ResumeScan`] leaves from its own
/// checkpoint store.
///
/// [`PhysOp::ResumeScan`]: geoqp_plan::PhysOp::ResumeScan
pub struct CatalogSource<'a> {
    catalog: &'a Catalog,
}

impl<'a> CatalogSource<'a> {
    /// A source over the catalog.
    pub fn new(catalog: &'a Catalog) -> CatalogSource<'a> {
        CatalogSource { catalog }
    }
}

impl DataSource for CatalogSource<'_> {
    /// The table's own columns, shared by `Arc`.
    fn scan(&self, table: &TableRef, location: &Location) -> Result<Arc<ColumnarBatch>> {
        let entries = self.catalog.resolve(table);
        let entry = entries
            .iter()
            .find(|e| e.location == *location)
            .ok_or_else(|| GeoError::Execution(format!("no table {table} at {location}")))?;
        let data = entry.data().ok_or_else(|| {
            GeoError::Execution(format!(
                "table {table} at {location} has no materialized data; \
                 attach rows with TableEntry::set_data"
            ))
        })?;
        Ok(data.to_columnar())
    }

    fn resume(&self, fingerprint: u64, location: &Location) -> Result<Arc<ColumnarBatch>> {
        Err(GeoError::Execution(format!(
            "a CatalogSource reads base tables only: checkpoint {fingerprint:016x} at \
             {location} is the runtime's to resume"
        )))
    }
}
