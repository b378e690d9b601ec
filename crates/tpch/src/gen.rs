//! Deterministic dbgen-style data generation.
//!
//! Seeded and scale-factor parameterized. The generator preserves what the
//! evaluated queries and policies observe: primary keys, PK–FK integrity
//! (including the dbgen `partsupp`→`lineitem` supplier formula, so Q9's
//! two-key join has matches), date ranges, and the categorical
//! distributions behind every predicate used in Section 7's workloads.

use crate::schema::{check_scale_factor, rows_at, unknown_table};
use crate::text;
use geoqp_common::{value::days_from_civil, Result, Row, Value};
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

/// Generate a TPC-H table's rows at a scale factor, deterministically from
/// `seed`.
pub fn generate(table: &str, sf: f64, seed: u64) -> Result<Vec<Row>> {
    check_scale_factor(sf)?;
    Ok(match table {
        "region" => region(),
        "nation" => nation(),
        "supplier" => supplier(sf, seed),
        "part" => part(sf, seed),
        "partsupp" => partsupp(sf, seed),
        "customer" => customer(sf, seed),
        "orders" => orders(sf, seed),
        "lineitem" => lineitem(sf, seed),
        _ => return Err(unknown_table(table)),
    })
}

fn region() -> Vec<Row> {
    text::REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            vec![
                Value::Int64(i as i64),
                Value::str(*name),
                Value::str(text::comment(i as u64, 4)),
            ]
        })
        .collect()
}

fn nation() -> Vec<Row> {
    text::NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, region))| {
            vec![
                Value::Int64(i as i64),
                Value::str(*name),
                Value::Int64(*region as i64),
                Value::str(text::comment(100 + i as u64, 4)),
            ]
        })
        .collect()
}

fn supplier(sf: f64, seed: u64) -> Vec<Row> {
    let n = n_rows("supplier", sf);
    let mut rng = rng_for("supplier", seed);
    (1..=n as i64)
        .map(|k| {
            vec![
                Value::Int64(k),
                Value::str(format!("Supplier#{k:09}")),
                Value::str(format!("addr-s-{k}")),
                Value::Int64(rng.gen_range(0..25)),
                Value::str(format!("{}-{:07}", 10 + k % 25, k)),
                Value::Float64((rng.gen_range(-99_999..999_999) as f64) / 100.0),
                Value::str(text::comment(seed ^ k as u64, 8)),
            ]
        })
        .collect()
}

fn part(sf: f64, seed: u64) -> Vec<Row> {
    let n = n_rows("part", sf);
    let mut rng = rng_for("part", seed);
    (1..=n as i64)
        .map(|k| {
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
            vec![
                Value::Int64(k),
                Value::str(name.join(" ")),
                Value::str(format!("Manufacturer#{mfgr}")),
                Value::str(format!("Brand#{brand}")),
                Value::str(ptype),
                Value::Int64(rng.gen_range(1..=50)),
                Value::str(container),
                Value::Float64((90_000 + (k % 200) * 100 + k % 1000) as f64 / 100.0),
                Value::str(text::comment(seed ^ (k as u64) << 1, 5)),
            ]
        })
        .collect()
}

fn partsupp(sf: f64, seed: u64) -> Vec<Row> {
    let n_part = n_rows("part", sf) as i64;
    let n_supp = n_rows("supplier", sf) as i64;
    let mut rng = rng_for("partsupp", seed);
    let mut rows = Vec::with_capacity((n_part * 4) as usize);
    for partkey in 1..=n_part {
        for i in 0..4 {
            rows.push(vec![
                Value::Int64(partkey),
                Value::Int64(ps_suppkey_for(partkey, i, n_supp)),
                Value::Int64(rng.gen_range(1..=9999)),
                Value::Float64((rng.gen_range(100..100_000) as f64) / 100.0),
                Value::str(text::comment(seed ^ (partkey as u64 * 4 + i as u64), 6)),
            ]);
        }
    }
    rows
}

fn customer(sf: f64, seed: u64) -> Vec<Row> {
    let n = n_rows("customer", sf);
    let mut rng = rng_for("customer", seed);
    (1..=n as i64)
        .map(|k| {
            vec![
                Value::Int64(k),
                Value::str(format!("Customer#{k:09}")),
                Value::str(format!("addr-c-{k}")),
                Value::Int64(rng.gen_range(0..25)),
                Value::str(format!("{}-{:07}", 10 + k % 25, k)),
                Value::Float64((rng.gen_range(-99_999..999_999) as f64) / 100.0),
                Value::str(text::SEGMENTS[rng.gen_range(0..text::SEGMENTS.len())]),
                Value::str(text::comment(seed ^ (k as u64) << 2, 8)),
            ]
        })
        .collect()
}

fn orders(sf: f64, seed: u64) -> Vec<Row> {
    let n = n_rows("orders", sf);
    let n_cust = n_rows("customer", sf) as i64;
    let dates = order_dates(sf, seed);
    let mut rng = rng_for("orders", seed);
    (1..=n as i64)
        .map(|k| {
            let status = ["F", "O", "P"][rng.gen_range(0..3usize)];
            vec![
                Value::Int64(k),
                Value::Int64(rng.gen_range(1..=n_cust.max(1))),
                Value::str(status),
                Value::Float64((rng.gen_range(100_000..50_000_000) as f64) / 100.0),
                Value::Date(dates[(k - 1) as usize]),
                Value::str(text::PRIORITIES[rng.gen_range(0..text::PRIORITIES.len())]),
                Value::str(format!("Clerk#{:09}", rng.gen_range(1..=1000))),
                Value::Int64(0),
                Value::str(text::comment(seed ^ (k as u64) << 3, 10)),
            ]
        })
        .collect()
}

fn lineitem(sf: f64, seed: u64) -> Vec<Row> {
    let n_orders = n_rows("orders", sf) as i64;
    let n_part = n_rows("part", sf) as i64;
    let n_supp = n_rows("supplier", sf) as i64;
    let target = n_rows("lineitem", sf) as usize;
    // The shared date stream keeps l_shipdate > o_orderdate.
    let order_dates = order_dates(sf, seed);

    let mut rng = rng_for("lineitem", seed);
    let mut rows = Vec::with_capacity(target + 8);
    let mut orderkey = 0i64;
    while rows.len() < target {
        orderkey = orderkey % n_orders + 1;
        let lines = rng.gen_range(1..=7usize);
        let odate = order_dates[(orderkey - 1) as usize];
        for line in 1..=lines {
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
            rows.push(vec![
                Value::Int64(orderkey),
                Value::Int64(partkey),
                Value::Int64(suppkey),
                Value::Int64(line as i64),
                Value::Int64(quantity),
                Value::Float64(quantity as f64 * price_per),
                Value::Float64(discount),
                Value::Float64(tax),
                Value::str(returnflag),
                Value::str(if ship > days_from_civil(1995, 6, 17) {
                    "O"
                } else {
                    "F"
                }),
                Value::Date(ship),
                Value::Date(ship + rng.gen_range(-30..=60)),
                Value::Date(ship + rng.gen_range(1..=30)),
                Value::str(
                    text::SHIP_INSTRUCTIONS[rng.gen_range(0..text::SHIP_INSTRUCTIONS.len())],
                ),
                Value::str(text::SHIP_MODES[rng.gen_range(0..text::SHIP_MODES.len())]),
                Value::str(text::comment(seed ^ rows.len() as u64, 10)),
            ]);
        }
    }
    rows.truncate(target);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TABLES;
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
