//! The geo-distributed catalog: locations, databases, tables, statistics.

use crate::stats::TableStats;
use crate::table::Table;
use geoqp_common::{GeoError, Location, LocationSet, Result, Schema, TableRef};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One table registered in a site database. Schema and stats are fixed at
/// registration; row data may be attached later (behind a lock so that a
/// shared catalog can be populated after distribution to the engine).
#[derive(Debug)]
pub struct TableEntry {
    /// Fully qualified reference (`db.table`).
    pub table: TableRef,
    /// Hosting location.
    pub location: Location,
    /// The table schema.
    pub schema: Arc<Schema>,
    /// Optimizer statistics.
    pub stats: TableStats,
    data: RwLock<Option<Arc<Table>>>,
}

impl TableEntry {
    /// The materialized data, if attached.
    pub fn data(&self) -> Option<Arc<Table>> {
        self.data.read().clone()
    }

    /// Attach materialized rows, validating the schema matches.
    pub fn set_data(&self, table: Table) -> Result<()> {
        if table.schema().as_ref() != self.schema.as_ref() {
            return Err(GeoError::Storage(format!(
                "data schema {} does not match registered schema {} for {}",
                table.schema(),
                self.schema,
                self.table
            )));
        }
        *self.data.write() = Some(Arc::new(table));
        Ok(())
    }
}

/// One site database: a name, a location, and its tables.
#[derive(Debug)]
pub struct DatabaseEntry {
    /// Database name (`db-1`).
    pub name: String,
    /// Site hosting the database.
    pub location: Location,
    tables: BTreeMap<String, Arc<TableEntry>>,
}

impl DatabaseEntry {
    /// Tables of this database, in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableEntry>> {
        self.tables.values()
    }

    /// Look up a table by bare name.
    pub fn table(&self, name: &str) -> Option<&Arc<TableEntry>> {
        self.tables.get(&name.to_ascii_lowercase())
    }
}

/// The deployment-wide catalog: the universe of locations, each location's
/// database, and the global-schema resolution from bare table names to the
/// site tables implementing them.
#[derive(Debug, Default)]
pub struct Catalog {
    locations: LocationSet,
    databases: BTreeMap<String, DatabaseEntry>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a location without a database (e.g. a pure compute site or
    /// a policy `to`-target that stores no data).
    pub fn add_location(&mut self, location: Location) {
        self.locations.insert(location);
    }

    /// Register a database at a location. The paper assumes one database
    /// per location; this is enforced here.
    pub fn add_database(&mut self, name: impl Into<String>, location: Location) -> Result<()> {
        let name = name.into().to_ascii_lowercase();
        if self.databases.contains_key(&name) {
            return Err(GeoError::Storage(format!(
                "database `{name}` already exists"
            )));
        }
        if self.databases.values().any(|d| d.location == location) {
            return Err(GeoError::Storage(format!(
                "location `{location}` already houses a database"
            )));
        }
        self.locations.insert(location.clone());
        self.databases.insert(
            name.clone(),
            DatabaseEntry {
                name,
                location,
                tables: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Register a table in a database.
    pub fn add_table(
        &mut self,
        database: &str,
        table: impl AsRef<str>,
        schema: Schema,
        stats: TableStats,
    ) -> Result<Arc<TableEntry>> {
        let db_name = database.to_ascii_lowercase();
        let db = self
            .databases
            .get_mut(&db_name)
            .ok_or_else(|| GeoError::Storage(format!("unknown database `{database}`")))?;
        let tname = table.as_ref().to_ascii_lowercase();
        if db.tables.contains_key(&tname) {
            return Err(GeoError::Storage(format!(
                "table `{tname}` already exists in `{db_name}`"
            )));
        }
        let entry = Arc::new(TableEntry {
            table: TableRef::qualified(&db_name, &tname),
            location: db.location.clone(),
            schema: Arc::new(schema),
            stats,
            data: RwLock::new(None),
        });
        db.tables.insert(tname, Arc::clone(&entry));
        Ok(entry)
    }

    /// The universe of locations (policy `to *` resolves against this).
    pub fn locations(&self) -> &LocationSet {
        &self.locations
    }

    /// All databases, in name order.
    pub fn databases(&self) -> impl Iterator<Item = &DatabaseEntry> {
        self.databases.values()
    }

    /// Look up a database by name.
    pub fn database(&self, name: &str) -> Option<&DatabaseEntry> {
        self.databases.get(&name.to_ascii_lowercase())
    }

    /// The database at a location, if any.
    pub fn database_at(&self, location: &Location) -> Option<&DatabaseEntry> {
        self.databases.values().find(|d| d.location == *location)
    }

    /// Resolve a table reference against the global schema. A qualified
    /// reference matches at most one table; a bare reference matches every
    /// site partition of the name (Section 7.5's distributed tables).
    pub fn resolve(&self, table: &TableRef) -> Vec<Arc<TableEntry>> {
        match &table.database {
            Some(db) => self
                .database(db)
                .and_then(|d| d.table(&table.table))
                .into_iter()
                .cloned()
                .collect(),
            None => self
                .databases
                .values()
                .filter_map(|d| d.table(&table.table))
                .cloned()
                .collect(),
        }
    }

    /// Resolve expecting exactly one match.
    pub fn resolve_one(&self, table: &TableRef) -> Result<Arc<TableEntry>> {
        let mut found = self.resolve(table);
        match found.len() {
            0 => Err(GeoError::Storage(format!("unknown table `{table}`"))),
            1 => Ok(found.pop().unwrap()),
            n => Err(GeoError::Storage(format!(
                "ambiguous table `{table}`: {n} site partitions; qualify with a database"
            ))),
        }
    }

    /// Total number of registered tables.
    pub fn table_count(&self) -> usize {
        self.databases.values().map(|d| d.tables.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::{DataType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int64)]).unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_database("db-1", Location::new("L1")).unwrap();
        c.add_database("db-2", Location::new("L2")).unwrap();
        c.add_table("db-1", "customer", schema(), TableStats::new(100, 8.0))
            .unwrap();
        c.add_table("db-1", "orders", schema(), TableStats::new(1000, 8.0))
            .unwrap();
        c.add_table("db-2", "customer", schema(), TableStats::new(50, 8.0))
            .unwrap();
        c
    }

    #[test]
    fn one_database_per_location() {
        let mut c = catalog();
        assert!(c.add_database("db-3", Location::new("L1")).is_err());
        assert!(c.add_database("db-1", Location::new("L9")).is_err());
    }

    #[test]
    fn qualified_resolution_is_unique() {
        let c = catalog();
        let t = c
            .resolve_one(&TableRef::qualified("db-1", "customer"))
            .unwrap();
        assert_eq!(t.location, Location::new("L1"));
    }

    #[test]
    fn bare_resolution_finds_partitions() {
        let c = catalog();
        let parts = c.resolve(&TableRef::bare("customer"));
        assert_eq!(parts.len(), 2);
        assert!(c.resolve_one(&TableRef::bare("customer")).is_err());
        assert_eq!(c.resolve(&TableRef::bare("orders")).len(), 1);
        assert!(c.resolve(&TableRef::bare("ghost")).is_empty());
    }

    #[test]
    fn data_attachment_checks_schema() {
        let c = catalog();
        let entry = c
            .resolve_one(&TableRef::qualified("db-1", "orders"))
            .unwrap();
        assert!(entry.data().is_none());
        let t = Table::new(Arc::clone(&entry.schema), vec![vec![Value::Int64(1)]]).unwrap();
        entry.set_data(t).unwrap();
        assert_eq!(entry.data().unwrap().row_count(), 1);

        let other = Schema::new(vec![Field::new("x", DataType::Str)]).unwrap();
        let wrong = Table::new(Arc::new(other), vec![]).unwrap();
        assert!(entry.set_data(wrong).is_err());
    }

    #[test]
    fn locations_universe_includes_extra_sites() {
        let mut c = catalog();
        c.add_location(Location::new("compute-only"));
        assert_eq!(c.locations().len(), 3);
        assert!(c.database_at(&Location::new("compute-only")).is_none());
        assert!(c.database_at(&Location::new("L1")).is_some());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = catalog();
        assert!(c
            .add_table("db-1", "customer", schema(), TableStats::default())
            .is_err());
        assert!(c
            .add_table("nope", "t", schema(), TableStats::default())
            .is_err());
        assert_eq!(c.table_count(), 3);
    }
}
