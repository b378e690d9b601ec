//! The geo-distribution of TPC-H tables (paper Table 2), plus the
//! Section 7.5 variant with Customer and Orders partitioned across sites.

use crate::gen::generate_columnar;
use crate::schema::{check_scale_factor, schema_of, stats_of, TABLES};
use geoqp_common::{GeoError, Location, Result, TableRef};
use geoqp_storage::{Catalog, Table, TableStats};
use std::sync::Arc;

/// Table 2: which tables each location's database hosts.
pub const DISTRIBUTION: [(&str, &str, &[&str]); 5] = [
    ("L1", "db-1", &["customer", "orders"]),
    ("L2", "db-2", &["supplier", "partsupp"]),
    ("L3", "db-3", &["part"]),
    ("L4", "db-4", &["lineitem"]),
    ("L5", "db-5", &["nation", "region"]),
];

/// Build the paper's five-location catalog with statistics at scale
/// factor `sf` (the paper uses SF 10 for optimization; scale does not
/// affect plan choice, only the byte estimates' magnitudes).
pub fn paper_catalog(sf: f64) -> Catalog {
    let mut c = Catalog::new();
    for (loc, db, tables) in DISTRIBUTION {
        c.add_database(db, Location::new(loc))
            .expect("fresh catalog");
        for t in tables {
            c.add_table(
                db,
                *t,
                schema_of(t).expect("built-in TPC-H table"),
                stats_of(t, sf).expect("built-in TPC-H table"),
            )
            .expect("fresh catalog");
        }
    }
    c
}

/// The Section 7.5 variant: Customer and Orders are horizontally
/// partitioned across the first `n_locations` sites (2..=5). Each partition
/// is registered under that site's database; bare-name resolution then
/// yields a union, exactly the GAV rewrite `t = t_1 ∪ … ∪ t_n`.
pub fn paper_catalog_partitioned(sf: f64, n_locations: usize) -> Result<Catalog> {
    if !(2..=5).contains(&n_locations) {
        return Err(GeoError::Storage(format!(
            "partitioned catalog supports 2–5 locations, got {n_locations}"
        )));
    }
    let mut c = Catalog::new();
    for (loc, db, tables) in DISTRIBUTION {
        c.add_database(db, Location::new(loc))?;
        for t in tables {
            if *t == "customer" || *t == "orders" {
                continue; // handled below
            }
            c.add_table(db, *t, schema_of(t)?, stats_of(t, sf)?)?;
        }
    }
    // Spread customer and orders over db-1..db-n with split statistics.
    for t in ["customer", "orders"] {
        let full = stats_of(t, sf)?;
        for (_, db, _) in DISTRIBUTION.iter().take(n_locations) {
            let mut part_stats =
                TableStats::new(full.row_count / n_locations as u64, full.avg_row_bytes);
            for (col, ndv) in &full.ndv {
                part_stats = part_stats.with_ndv(col.clone(), (*ndv / n_locations as u64).max(1));
            }
            c.add_table(db, t, schema_of(t)?, part_stats)?;
        }
    }
    Ok(c)
}

/// Generate data at `sf` and attach it to every registered table. Each
/// table is generated straight into typed columns — no row is built and
/// nothing is converted afterwards — so a columnar scan is an `Arc` clone
/// from the first query on. For partitioned tables generated row *j* goes
/// to partition *j mod n* as it is produced.
pub fn populate(catalog: &Catalog, sf: f64, seed: u64) -> Result<()> {
    check_scale_factor(sf)?;
    for t in TABLES {
        let entries = catalog.resolve(&TableRef::bare(t));
        if entries.is_empty() {
            continue;
        }
        let partitions = generate_columnar(t, sf, seed, entries.len())?;
        for (entry, columns) in entries.iter().zip(partitions) {
            entry.set_data(Table::from_columnar(Arc::clone(&entry.schema), columns)?)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_matches_table2() {
        let c = paper_catalog(10.0);
        assert_eq!(c.locations().len(), 5);
        assert_eq!(c.table_count(), 8);
        let li = c.resolve_one(&TableRef::bare("lineitem")).unwrap();
        assert_eq!(li.location, Location::new("L4"));
        assert_eq!(li.stats.row_count, 60_000_000);
        let n = c.resolve_one(&TableRef::bare("nation")).unwrap();
        assert_eq!(n.location, Location::new("L5"));
    }

    #[test]
    fn partitioned_catalog_splits_customer_orders() {
        let c = paper_catalog_partitioned(1.0, 3).unwrap();
        assert_eq!(c.resolve(&TableRef::bare("customer")).len(), 3);
        assert_eq!(c.resolve(&TableRef::bare("orders")).len(), 3);
        assert_eq!(c.resolve(&TableRef::bare("part")).len(), 1);
        assert!(paper_catalog_partitioned(1.0, 1).is_err());
        assert!(paper_catalog_partitioned(1.0, 6).is_err());
    }

    #[test]
    fn populate_attaches_all_data() {
        let c = paper_catalog(0.001);
        // A scale factor nothing can be generated at is refused up front.
        assert_eq!(
            populate(&c, f64::INFINITY, 42).unwrap_err().kind(),
            "storage"
        );
        populate(&c, 0.001, 42).unwrap();
        for t in TABLES {
            let e = c.resolve_one(&TableRef::bare(t)).unwrap();
            assert!(e.data().is_some(), "{t} not populated");
            assert_eq!(
                e.data().unwrap().row_count() as u64,
                crate::schema::rows_at(t, 0.001).unwrap()
            );
        }
    }

    #[test]
    fn populate_partitioned_round_robin() {
        // Partition i of n holds generated rows i, i+n, i+2n, … in that
        // order, and together the partitions hold every row once.
        for n in 2..=5 {
            let c = paper_catalog_partitioned(0.001, n).unwrap();
            populate(&c, 0.001, 42).unwrap();
            for t in ["customer", "orders"] {
                let rows = crate::gen::generate(t, 0.001, 42).unwrap();
                assert_eq!(rows.len() as u64, crate::schema::rows_at(t, 0.001).unwrap());
                let parts = c.resolve(&TableRef::bare(t));
                assert_eq!(parts.len(), n);
                let mut total = 0;
                for (i, entry) in parts.iter().enumerate() {
                    let got = entry.data().unwrap().to_rows();
                    let want: Vec<_> = rows.iter().skip(i).step_by(n).cloned().collect();
                    assert_eq!(got.rows(), &want[..], "{t}: partition {i} of {n}");
                    total += got.len();
                }
                assert_eq!(total, rows.len(), "{t} over {n} partitions");
            }
        }
    }
}
