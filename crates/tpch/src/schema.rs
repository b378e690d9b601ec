//! TPC-H table schemas and statistics.

use geoqp_common::{DataType, Field, GeoError, Result, Schema};
use geoqp_storage::TableStats;

/// The eight TPC-H tables.
pub const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

/// The typed error every lookup in this crate returns for a table name
/// outside [`TABLES`] — a bad name from the CLI surfaces as an error
/// result instead of aborting the process.
pub(crate) fn unknown_table(table: &str) -> GeoError {
    GeoError::Storage(format!(
        "unknown TPC-H table `{table}` (expected one of: {})",
        TABLES.join(", ")
    ))
}

/// The typed error for a scale factor no data can be generated at: a
/// non-finite value would size a table at `u64::MAX` rows and abort the
/// process on allocation, and a non-positive one would load 1-row tables.
pub(crate) fn check_scale_factor(sf: f64) -> Result<()> {
    if sf.is_finite() && sf > 0.0 {
        Ok(())
    } else {
        Err(GeoError::Storage(format!(
            "TPC-H scale factor must be finite and greater than 0, got {sf}"
        )))
    }
}

/// Base cardinality of a table at scale factor 1 (TPC-H specification).
pub fn base_rows(table: &str) -> Result<u64> {
    Ok(match table {
        "region" => 5,
        "nation" => 25,
        "supplier" => 10_000,
        "part" => 200_000,
        "partsupp" => 800_000,
        "customer" => 150_000,
        "orders" => 1_500_000,
        "lineitem" => 6_000_000,
        _ => return Err(unknown_table(table)),
    })
}

/// Row count at a scale factor (region/nation are fixed).
pub fn rows_at(table: &str, sf: f64) -> Result<u64> {
    match table {
        "region" | "nation" => base_rows(table),
        t => Ok(((base_rows(t)? as f64) * sf).round().max(1.0) as u64),
    }
}

/// Schema of a TPC-H table.
pub fn schema_of(table: &str) -> Result<Schema> {
    use DataType::*;
    let fields: Vec<Field> = match table {
        "region" => vec![
            Field::new("r_regionkey", Int64),
            Field::new("r_name", Str),
            Field::new("r_comment", Str),
        ],
        "nation" => vec![
            Field::new("n_nationkey", Int64),
            Field::new("n_name", Str),
            Field::new("n_regionkey", Int64),
            Field::new("n_comment", Str),
        ],
        "supplier" => vec![
            Field::new("s_suppkey", Int64),
            Field::new("s_name", Str),
            Field::new("s_address", Str),
            Field::new("s_nationkey", Int64),
            Field::new("s_phone", Str),
            Field::new("s_acctbal", Float64),
            Field::new("s_comment", Str),
        ],
        "part" => vec![
            Field::new("p_partkey", Int64),
            Field::new("p_name", Str),
            Field::new("p_mfgr", Str),
            Field::new("p_brand", Str),
            Field::new("p_type", Str),
            Field::new("p_size", Int64),
            Field::new("p_container", Str),
            Field::new("p_retailprice", Float64),
            Field::new("p_comment", Str),
        ],
        "partsupp" => vec![
            Field::new("ps_partkey", Int64),
            Field::new("ps_suppkey", Int64),
            Field::new("ps_availqty", Int64),
            Field::new("ps_supplycost", Float64),
            Field::new("ps_comment", Str),
        ],
        "customer" => vec![
            Field::new("c_custkey", Int64),
            Field::new("c_name", Str),
            Field::new("c_address", Str),
            Field::new("c_nationkey", Int64),
            Field::new("c_phone", Str),
            Field::new("c_acctbal", Float64),
            Field::new("c_mktsegment", Str),
            Field::new("c_comment", Str),
        ],
        "orders" => vec![
            Field::new("o_orderkey", Int64),
            Field::new("o_custkey", Int64),
            Field::new("o_orderstatus", Str),
            Field::new("o_totalprice", Float64),
            Field::new("o_orderdate", Date),
            Field::new("o_orderpriority", Str),
            Field::new("o_clerk", Str),
            Field::new("o_shippriority", Int64),
            Field::new("o_comment", Str),
        ],
        "lineitem" => vec![
            Field::new("l_orderkey", Int64),
            Field::new("l_partkey", Int64),
            Field::new("l_suppkey", Int64),
            Field::new("l_linenumber", Int64),
            Field::new("l_quantity", Int64),
            Field::new("l_extendedprice", Float64),
            Field::new("l_discount", Float64),
            Field::new("l_tax", Float64),
            Field::new("l_returnflag", Str),
            Field::new("l_linestatus", Str),
            Field::new("l_shipdate", Date),
            Field::new("l_commitdate", Date),
            Field::new("l_receiptdate", Date),
            Field::new("l_shipinstruct", Str),
            Field::new("l_shipmode", Str),
            Field::new("l_comment", Str),
        ],
        _ => return Err(unknown_table(table)),
    };
    Ok(Schema::new(fields).expect("static schemas are valid"))
}

/// Statistics for a table at a scale factor, with NDVs for the columns the
/// optimizer's estimator cares about (keys, predicate columns, grouping
/// columns).
pub fn stats_of(table: &str, sf: f64) -> Result<TableStats> {
    let rows = rows_at(table, sf)?;
    let width = schema_of(table)?.estimated_row_width() as f64;
    let mut s = TableStats::new(rows, width);
    let r = |frac: f64| ((rows as f64 * frac).round() as u64).max(1);
    match table {
        "region" => {
            s = s.with_ndv("r_regionkey", 5).with_ndv("r_name", 5);
        }
        "nation" => {
            s = s
                .with_ndv("n_nationkey", 25)
                .with_ndv("n_name", 25)
                .with_ndv("n_regionkey", 5);
        }
        "supplier" => {
            s = s
                .with_ndv("s_suppkey", rows)
                .with_ndv("s_nationkey", 25)
                .with_ndv("s_acctbal", r(0.9));
        }
        "part" => {
            s = s
                .with_ndv("p_partkey", rows)
                .with_ndv("p_mfgr", 5)
                .with_ndv("p_brand", 25)
                .with_ndv("p_type", 150)
                .with_ndv("p_size", 50)
                .with_ndv("p_container", 40);
        }
        "partsupp" => {
            s = s
                .with_ndv("ps_partkey", rows / 4)
                .with_ndv("ps_suppkey", rows_at("supplier", sf)?)
                .with_ndv("ps_supplycost", r(0.5));
        }
        "customer" => {
            s = s
                .with_ndv("c_custkey", rows)
                .with_ndv("c_nationkey", 25)
                .with_ndv("c_mktsegment", 5)
                .with_ndv("c_acctbal", r(0.9));
        }
        "orders" => {
            s = s
                .with_ndv("o_orderkey", rows)
                .with_ndv("o_custkey", rows_at("customer", sf)?)
                .with_ndv("o_orderstatus", 3)
                .with_ndv("o_orderdate", 2406)
                .with_ndv("o_orderpriority", 5)
                .with_ndv("o_shippriority", 1);
        }
        "lineitem" => {
            s = s
                .with_ndv("l_orderkey", rows_at("orders", sf)?)
                .with_ndv("l_partkey", rows_at("part", sf)?)
                .with_ndv("l_suppkey", rows_at("supplier", sf)?)
                .with_ndv("l_linenumber", 7)
                .with_ndv("l_quantity", 50)
                .with_ndv("l_discount", 11)
                .with_ndv("l_tax", 9)
                .with_ndv("l_returnflag", 3)
                .with_ndv("l_linestatus", 2)
                .with_ndv("l_shipdate", 2526)
                .with_ndv("l_shipmode", 7);
        }
        _ => return Err(unknown_table(table)),
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemas_valid_and_unique_columns() {
        for t in TABLES {
            let s = schema_of(t).unwrap();
            assert!(!s.is_empty(), "{t} schema empty");
            // TPC-H prefixed names keep cross-table uniqueness.
            for f in s.fields() {
                let prefix = match t {
                    "region" => "r_",
                    "nation" => "n_",
                    "supplier" => "s_",
                    "part" => "p_",
                    "partsupp" => "ps_",
                    "customer" => "c_",
                    "orders" => "o_",
                    "lineitem" => "l_",
                    _ => unreachable!(),
                };
                assert!(f.name.starts_with(prefix), "{t}: {}", f.name);
            }
        }
    }

    #[test]
    fn cardinality_scaling() {
        assert_eq!(rows_at("lineitem", 1.0).unwrap(), 6_000_000);
        assert_eq!(rows_at("lineitem", 0.01).unwrap(), 60_000);
        assert_eq!(rows_at("region", 10.0).unwrap(), 5);
        assert_eq!(rows_at("nation", 0.001).unwrap(), 25);
        assert_eq!(rows_at("customer", 10.0).unwrap(), 1_500_000);
    }

    #[test]
    fn stats_have_key_ndvs() {
        let s = stats_of("orders", 0.1).unwrap();
        assert_eq!(s.row_count, 150_000);
        assert_eq!(s.ndv_of("o_orderkey"), 150_000);
        assert_eq!(s.ndv_of("o_orderstatus"), 3);
    }

    #[test]
    fn unknown_table_is_a_typed_storage_error() {
        for r in [
            base_rows("widgets").map(|_| ()),
            rows_at("widgets", 1.0).map(|_| ()),
            schema_of("widgets").map(|_| ()),
            stats_of("widgets", 1.0).map(|_| ()),
        ] {
            let e = r.unwrap_err();
            assert_eq!(e.kind(), "storage");
            assert!(e.message().contains("unknown TPC-H table `widgets`"));
        }
    }
}
