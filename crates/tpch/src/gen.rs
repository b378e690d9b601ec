//! Deterministic dbgen-style data generation.
//!
//! Seeded and scale-factor parameterized. The generator preserves what the
//! evaluated queries and policies observe: primary keys, PK–FK integrity
//! (including the dbgen `partsupp`→`lineitem` supplier formula, so Q9's
//! two-key join has matches), date ranges, and the categorical
//! distributions behind every predicate used in Section 7's workloads.

use crate::schema::{check_scale_factor, rows_at, schema_of, unknown_table};
use crate::text;
use geoqp_common::{value::days_from_civil, ColumnarBatch, ColumnarBuilder, GeoError, Result, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row count for one of the built-in tables; the names below are all
/// literals from [`crate::schema::TABLES`], so the lookup cannot fail.
fn n_rows(table: &str, sf: f64) -> u64 {
    rows_at(table, sf).expect("built-in TPC-H table name")
}

/// First order date (1992-01-01) and the day span of o_orderdate.
fn order_date_range() -> (i32, i32) {
    let start = days_from_civil(1992, 1, 1);
    let end = days_from_civil(1998, 8, 2);
    (start, end - start)
}

/// The dbgen formula tying line items to one of a part's four suppliers.
pub fn ps_suppkey_for(partkey: i64, i: i64, n_supp: i64) -> i64 {
    (partkey + i * (n_supp / 4 + (partkey - 1) / n_supp)) % n_supp + 1
}

/// The o_orderdate column, generated from its own dedicated stream so
/// that `lineitem` can correlate ship dates without replaying the orders
/// generator's RNG consumption.
fn order_dates(sf: f64, seed: u64) -> Vec<i32> {
    let n = n_rows("orders", sf);
    let (start, span) = order_date_range();
    let mut rng = rng_for("orderdates", seed);
    (0..n).map(|_| start + rng.gen_range(0..span)).collect()
}

fn rng_for(table: &str, seed: u64) -> StdRng {
    let mut h: u64 = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in table.bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(h)
}

/// Where a table's generated cells go: typed column builders, one per
/// horizontal partition, row *j* of the table to partition *j mod n*.
struct Partitions {
    builders: Vec<ColumnarBuilder>,
    /// Rows started so far, over all partitions.
    rows: usize,
}

impl Partitions {
    /// The builder the table's next row belongs to. The caller pushes
    /// exactly one cell per column, in schema order.
    fn next_row(&mut self) -> &mut ColumnarBuilder {
        let at = self.rows % self.builders.len();
        self.rows += 1;
        &mut self.builders[at]
    }
}

/// Generate a TPC-H table's rows at a scale factor, deterministically from
/// `seed`: the transpose of [`generate_columnar`]'s one partition.
pub fn generate(table: &str, sf: f64, seed: u64) -> Result<Vec<Row>> {
    Ok(generate_columnar(table, sf, seed, 1)?[0].to_row_vec())
}

/// Generate a TPC-H table straight into typed columns, split round-robin
/// over `partitions` (≥ 1) batches: row *j* of the table is row *j div n*
/// of batch *j mod n*. No row is ever built.
pub fn generate_columnar(
    table: &str,
    sf: f64,
    seed: u64,
    partitions: usize,
) -> Result<Vec<ColumnarBatch>> {
    check_scale_factor(sf)?;
    if partitions == 0 {
        return Err(GeoError::Storage(format!(
            "cannot generate `{table}` into 0 partitions"
        )));
    }
    let arity = schema_of(table)?.len();
    let rows = (rows_at(table, sf)? as usize).div_ceil(partitions);
    let mut out = Partitions {
        builders: (0..partitions)
            .map(|_| ColumnarBuilder::with_capacity(arity, rows))
            .collect(),
        rows: 0,
    };
    match table {
        "region" => region(&mut out),
        "nation" => nation(&mut out),
        "supplier" => supplier(sf, seed, &mut out),
        "part" => part(sf, seed, &mut out),
        "partsupp" => partsupp(sf, seed, &mut out),
        "customer" => customer(sf, seed, &mut out),
        "orders" => orders(sf, seed, &mut out),
        "lineitem" => lineitem(sf, seed, &mut out),
        _ => return Err(unknown_table(table)),
    }
    Ok(out
        .builders
        .into_iter()
        .map(ColumnarBuilder::finish)
        .collect())
}

fn region(out: &mut Partitions) {
    for (i, name) in text::REGIONS.iter().enumerate() {
        let row = out.next_row();
        row.push_i64(i as i64);
        row.push_str(name);
        row.push_str(&text::comment(i as u64, 4));
    }
}

fn nation(out: &mut Partitions) {
    for (i, (name, region)) in text::NATIONS.iter().enumerate() {
        let row = out.next_row();
        row.push_i64(i as i64);
        row.push_str(name);
        row.push_i64(*region as i64);
        row.push_str(&text::comment(100 + i as u64, 4));
    }
}

fn supplier(sf: f64, seed: u64, out: &mut Partitions) {
    let n = n_rows("supplier", sf);
    let mut rng = rng_for("supplier", seed);
    for k in 1..=n as i64 {
        let row = out.next_row();
        row.push_i64(k);
        row.push_str(&format!("Supplier#{k:09}"));
        row.push_str(&format!("addr-s-{k}"));
        row.push_i64(rng.gen_range(0..25));
        row.push_str(&format!("{}-{:07}", 10 + k % 25, k));
        row.push_f64((rng.gen_range(-99_999..999_999) as f64) / 100.0);
        row.push_str(&text::comment(seed ^ k as u64, 8));
    }
}

fn part(sf: f64, seed: u64, out: &mut Partitions) {
    let n = n_rows("part", sf);
    let mut rng = rng_for("part", seed);
    for k in 1..=n as i64 {
        let name: Vec<&str> = (0..5)
            .map(|_| text::COLORS[rng.gen_range(0..text::COLORS.len())])
            .collect();
        let mfgr = rng.gen_range(1..=5);
        let brand = mfgr * 10 + rng.gen_range(1..=5);
        let ptype = format!(
            "{} {} {}",
            text::TYPE_SYLLABLE_1[rng.gen_range(0..text::TYPE_SYLLABLE_1.len())],
            text::TYPE_SYLLABLE_2[rng.gen_range(0..text::TYPE_SYLLABLE_2.len())],
            text::TYPE_SYLLABLE_3[rng.gen_range(0..text::TYPE_SYLLABLE_3.len())],
        );
        let container = format!(
            "{} {}",
            text::CONTAINER_SIZES[rng.gen_range(0..text::CONTAINER_SIZES.len())],
            text::CONTAINER_KINDS[rng.gen_range(0..text::CONTAINER_KINDS.len())],
        );
        let row = out.next_row();
        row.push_i64(k);
        row.push_str(&name.join(" "));
        row.push_str(&format!("Manufacturer#{mfgr}"));
        row.push_str(&format!("Brand#{brand}"));
        row.push_str(&ptype);
        row.push_i64(rng.gen_range(1..=50));
        row.push_str(&container);
        row.push_f64((90_000 + (k % 200) * 100 + k % 1000) as f64 / 100.0);
        row.push_str(&text::comment(seed ^ (k as u64) << 1, 5));
    }
}

fn partsupp(sf: f64, seed: u64, out: &mut Partitions) {
    let n_part = n_rows("part", sf) as i64;
    let n_supp = n_rows("supplier", sf) as i64;
    let mut rng = rng_for("partsupp", seed);
    for partkey in 1..=n_part {
        for i in 0..4 {
            let row = out.next_row();
            row.push_i64(partkey);
            row.push_i64(ps_suppkey_for(partkey, i, n_supp));
            row.push_i64(rng.gen_range(1..=9999));
            row.push_f64((rng.gen_range(100..100_000) as f64) / 100.0);
            row.push_str(&text::comment(seed ^ (partkey as u64 * 4 + i as u64), 6));
        }
    }
}

fn customer(sf: f64, seed: u64, out: &mut Partitions) {
    let n = n_rows("customer", sf);
    let mut rng = rng_for("customer", seed);
    for k in 1..=n as i64 {
        let row = out.next_row();
        row.push_i64(k);
        row.push_str(&format!("Customer#{k:09}"));
        row.push_str(&format!("addr-c-{k}"));
        row.push_i64(rng.gen_range(0..25));
        row.push_str(&format!("{}-{:07}", 10 + k % 25, k));
        row.push_f64((rng.gen_range(-99_999..999_999) as f64) / 100.0);
        row.push_str(text::SEGMENTS[rng.gen_range(0..text::SEGMENTS.len())]);
        row.push_str(&text::comment(seed ^ (k as u64) << 2, 8));
    }
}

fn orders(sf: f64, seed: u64, out: &mut Partitions) {
    let n = n_rows("orders", sf);
    let n_cust = n_rows("customer", sf) as i64;
    let dates = order_dates(sf, seed);
    let mut rng = rng_for("orders", seed);
    for k in 1..=n as i64 {
        let row = out.next_row();
        let status = ["F", "O", "P"][rng.gen_range(0..3usize)];
        row.push_i64(k);
        row.push_i64(rng.gen_range(1..=n_cust.max(1)));
        row.push_str(status);
        row.push_f64((rng.gen_range(100_000..50_000_000) as f64) / 100.0);
        row.push_date(dates[(k - 1) as usize]);
        row.push_str(text::PRIORITIES[rng.gen_range(0..text::PRIORITIES.len())]);
        row.push_str(&format!("Clerk#{:09}", rng.gen_range(1..=1000)));
        row.push_i64(0);
        row.push_str(&text::comment(seed ^ (k as u64) << 3, 10));
    }
}

fn lineitem(sf: f64, seed: u64, out: &mut Partitions) {
    let n_orders = n_rows("orders", sf) as i64;
    let n_part = n_rows("part", sf) as i64;
    let n_supp = n_rows("supplier", sf) as i64;
    let target = n_rows("lineitem", sf) as usize;
    // The shared date stream keeps l_shipdate > o_orderdate.
    let order_dates = order_dates(sf, seed);

    let mut rng = rng_for("lineitem", seed);
    let mut orderkey = 0i64;
    while out.rows < target {
        orderkey = orderkey % n_orders + 1;
        let lines = rng.gen_range(1..=7usize);
        let odate = order_dates[(orderkey - 1) as usize];
        for line in 1..=lines {
            // The last order is cut short where the table is full.
            if out.rows == target {
                break;
            }
            let partkey = rng.gen_range(1..=n_part.max(1));
            let supp_i = rng.gen_range(0..4i64);
            let suppkey = ps_suppkey_for(partkey, supp_i, n_supp.max(1));
            let quantity = rng.gen_range(1..=50i64);
            let price_per = (90_000 + (partkey % 200) * 100 + partkey % 1000) as f64 / 100.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let returnflag = if rng.gen_bool(0.25) {
                "R"
            } else if rng.gen_bool(0.5) {
                "A"
            } else {
                "N"
            };
            let ship = odate + rng.gen_range(1..=121);
            let nth = out.rows as u64;
            let row = out.next_row();
            row.push_i64(orderkey);
            row.push_i64(partkey);
            row.push_i64(suppkey);
            row.push_i64(line as i64);
            row.push_i64(quantity);
            row.push_f64(quantity as f64 * price_per);
            row.push_f64(discount);
            row.push_f64(tax);
            row.push_str(returnflag);
            row.push_str(if ship > days_from_civil(1995, 6, 17) {
                "O"
            } else {
                "F"
            });
            row.push_date(ship);
            row.push_date(ship + rng.gen_range(-30..=60));
            row.push_date(ship + rng.gen_range(1..=30));
            row.push_str(text::SHIP_INSTRUCTIONS[rng.gen_range(0..text::SHIP_INSTRUCTIONS.len())]);
            row.push_str(text::SHIP_MODES[rng.gen_range(0..text::SHIP_MODES.len())]);
            row.push_str(&text::comment(seed ^ nth, 10));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TABLES;
    use geoqp_common::Value;
    use std::collections::BTreeSet;

    const SF: f64 = 0.002;

    #[test]
    fn all_tables_generate_with_correct_arity_and_counts() {
        for t in TABLES {
            let rows = generate(t, SF, 7).unwrap();
            let schema = crate::schema::schema_of(t).unwrap();
            assert_eq!(
                rows.len() as u64,
                rows_at(t, SF).unwrap(),
                "{t} cardinality"
            );
            for r in rows.iter().take(20) {
                assert_eq!(r.len(), schema.len(), "{t} arity");
                for (v, f) in r.iter().zip(schema.fields()) {
                    assert_eq!(v.data_type(), Some(f.data_type), "{t}.{}: {v}", f.name);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for t in ["customer", "lineitem"] {
            assert_eq!(generate(t, SF, 7).unwrap(), generate(t, SF, 7).unwrap());
            assert_ne!(generate(t, SF, 7).unwrap(), generate(t, SF, 8).unwrap());
        }
    }

    #[test]
    fn pk_fk_integrity() {
        let n_cust = rows_at("customer", SF).unwrap() as i64;
        for o in generate("orders", SF, 7).unwrap() {
            let cust = o[1].as_i64().unwrap();
            assert!(cust >= 1 && cust <= n_cust);
        }
        let ps: BTreeSet<(i64, i64)> = generate("partsupp", SF, 7)
            .unwrap()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        for l in generate("lineitem", SF, 7).unwrap().iter().take(500) {
            let key = (l[1].as_i64().unwrap(), l[2].as_i64().unwrap());
            assert!(ps.contains(&key), "lineitem {key:?} has no partsupp row");
        }
    }

    #[test]
    fn ship_date_follows_order_date() {
        let orders = generate("orders", SF, 7).unwrap();
        let line = generate("lineitem", SF, 7).unwrap();
        for l in line.iter().take(200) {
            let ok = l[0].as_i64().unwrap();
            let odate = match &orders[(ok - 1) as usize][4] {
                Value::Date(d) => *d,
                other => panic!("bad date {other}"),
            };
            let ship = match &l[10] {
                Value::Date(d) => *d,
                other => panic!("bad date {other}"),
            };
            assert!(ship > odate);
        }
    }

    #[test]
    fn categorical_distributions_present() {
        let cust = generate("customer", 0.01, 7).unwrap();
        let segs: BTreeSet<&str> = cust.iter().map(|r| r[6].as_str().unwrap()).collect();
        assert_eq!(segs.len(), 5, "all market segments appear");
        let parts = generate("part", 0.01, 7).unwrap();
        assert!(parts
            .iter()
            .any(|r| r[4].as_str().unwrap().contains("BRASS")));
        let line = generate("lineitem", 0.002, 7).unwrap();
        assert!(line.iter().any(|r| r[8].as_str() == Some("R")));
    }

    #[test]
    fn unknown_table_is_a_typed_storage_error() {
        let e = generate("widgets", SF, 7).unwrap_err();
        assert_eq!(e.kind(), "storage");
        assert!(e.message().contains("unknown TPC-H table `widgets`"));
    }

    #[test]
    fn bad_scale_factor_is_a_typed_storage_error() {
        for sf in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = generate("customer", sf, 7).unwrap_err();
            assert_eq!(e.kind(), "storage", "sf {sf}");
            assert!(e.message().contains("scale factor"), "sf {sf}: {e}");
        }
    }
}
