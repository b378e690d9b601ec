//! The paper's running example (Section 2): CarCo, a transnational car
//! manufacturer with customer data in North America, orders in Europe, and
//! supply data in Asia, under the dataflow policies P_N, P_E, P_A.
//!
//! ```bash
//! cargo run --example carco            # plans + execution
//! cargo run --example carco -- --explain   # + Figure 4-style traits
//! ```
//!
//! Reproduces Figure 1: the traditional optimizer's plan violates P_N and
//! P_E, while the compliance-based optimizer masks the account balance via
//! projection, pre-aggregates Supply in Asia, and joins in Europe.

use geoqp::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    let explain = std::env::args().any(|a| a == "--explain");

    // ----- the three sites (Figure 2) ----------------------------------
    let mut catalog = Catalog::new();
    catalog.add_database("db-n", Location::new("N"))?;
    catalog.add_database("db-e", Location::new("E"))?;
    catalog.add_database("db-a", Location::new("A"))?;

    let customer = catalog.add_table(
        "db-n",
        "customer",
        Schema::new(vec![
            Field::new("c_custkey", DataType::Int64),
            Field::new("c_name", DataType::Str),
            Field::new("c_acctbal", DataType::Float64),
            Field::new("c_mktseg", DataType::Str),
        ])?,
        TableStats::new(3, 48.0).with_ndv("c_custkey", 3),
    )?;
    let orders = catalog.add_table(
        "db-e",
        "orders",
        Schema::new(vec![
            Field::new("o_custkey", DataType::Int64),
            Field::new("o_ordkey", DataType::Int64),
            Field::new("o_totprice", DataType::Float64),
        ])?,
        TableStats::new(4, 24.0).with_ndv("o_ordkey", 4),
    )?;
    let supply = catalog.add_table(
        "db-a",
        "supply",
        Schema::new(vec![
            Field::new("s_ordkey", DataType::Int64),
            Field::new("s_quantity", DataType::Int64),
            Field::new("s_extprice", DataType::Float64),
        ])?,
        TableStats::new(7, 20.0).with_ndv("s_ordkey", 4),
    )?;

    customer.set_data(Table::new(
        Arc::clone(&customer.schema),
        vec![
            vec![
                Value::Int64(1),
                Value::str("alice"),
                Value::Float64(120.0),
                Value::str("auto"),
            ],
            vec![
                Value::Int64(2),
                Value::str("bob"),
                Value::Float64(80.5),
                Value::str("machinery"),
            ],
            vec![
                Value::Int64(3),
                Value::str("carol"),
                Value::Float64(310.0),
                Value::str("auto"),
            ],
        ],
    )?)?;
    orders.set_data(Table::new(
        Arc::clone(&orders.schema),
        vec![
            vec![Value::Int64(1), Value::Int64(10), Value::Float64(55.0)],
            vec![Value::Int64(1), Value::Int64(11), Value::Float64(25.0)],
            vec![Value::Int64(2), Value::Int64(12), Value::Float64(40.0)],
            vec![Value::Int64(3), Value::Int64(13), Value::Float64(90.0)],
        ],
    )?)?;
    supply.set_data(Table::new(
        Arc::clone(&supply.schema),
        vec![
            vec![Value::Int64(10), Value::Int64(5), Value::Float64(1.5)],
            vec![Value::Int64(10), Value::Int64(2), Value::Float64(0.5)],
            vec![Value::Int64(11), Value::Int64(9), Value::Float64(2.0)],
            vec![Value::Int64(12), Value::Int64(4), Value::Float64(1.0)],
            vec![Value::Int64(12), Value::Int64(1), Value::Float64(3.0)],
            vec![Value::Int64(13), Value::Int64(7), Value::Float64(2.5)],
            vec![Value::Int64(13), Value::Int64(3), Value::Float64(0.75)],
        ],
    )?)?;

    // ----- the dataflow policies of Section 2 --------------------------
    println!("dataflow policies:");
    let mut policies = PolicyCatalog::new();
    for text in [
        // P_N: customer data leaves North America only without acctbal.
        "ship c_custkey, c_name, c_mktseg from db-n.customer to *",
        // P_E: only aggregated order data may reach Asia…
        "ship o_totprice as aggregates sum from db-e.orders to A group by o_custkey, o_ordkey",
        // …and order prices may not reach North America.
        "ship o_custkey, o_ordkey from db-e.orders to N, A",
        // P_A: only aggregated supply quantities/prices may reach Europe.
        "ship s_quantity, s_extprice as aggregates sum from db-a.supply to E group by s_ordkey",
    ] {
        let e = geoqp::parser::parse_policy(text)?;
        let entry = catalog.resolve_one(&e.table)?;
        policies.register(e, &entry.schema)?;
        println!("  {text}");
    }

    let engine = Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(LocationSet::from_iter(["N", "E", "A"]), 120.0, 100.0),
    );

    // ----- Q_ex ---------------------------------------------------------
    let sql = "SELECT c_name, SUM(o_totprice) AS sum_price, SUM(s_quantity) AS sum_qty \
               FROM customer, orders, supply \
               WHERE c_custkey = o_custkey AND o_ordkey = s_ordkey \
               GROUP BY c_name ORDER BY c_name";
    println!("\nQ_ex: {sql}\n");

    // The traditional optimizer's choice (Figure 1(a)'s role).
    let trad = engine.optimize_sql(sql, OptimizerMode::Traditional, Some(Location::new("E")))?;
    println!("traditional plan:");
    print!("{}", geoqp::plan::display::display_physical(&trad.physical));
    match engine.audit(&trad.physical) {
        Ok(()) => println!("audit: compliant\n"),
        Err(e) => println!("audit: {e}\n"),
    }

    // The compliance-based optimizer (Figure 1(b)).
    let (comp, result) = engine.run_sql(
        sql,
        OptimizerMode::Compliant,
        Some(Location::new("E")),
        &ExecOptions::default(),
    )?;
    println!("compliant plan:");
    print!("{}", geoqp::plan::display::display_physical(&comp.physical));
    engine.audit(&comp.physical)?;
    println!("audit: compliant");

    if explain {
        println!("\nannotated plan (execution trait ℰ, shipping trait 𝒮 — Figure 4):");
        print!(
            "{}",
            geoqp::core::explain::display_annotated(&engine.annotate(&comp)?)
        );
    }

    println!("\nresult (in Europe):");
    for row in result.rows.iter() {
        println!("  {}  price={}  qty={}", row[0], row[1], row[2]);
    }
    println!(
        "\ncross-border transfers: {} ({} bytes, {:.1} ms simulated)",
        result.transfers.transfer_count(),
        result.transfers.total_bytes(),
        result.transfers.total_cost_ms()
    );
    for t in result.transfers.records() {
        println!(
            "  {} → {}: {} rows, {} bytes",
            t.from, t.to, t.rows, t.bytes
        );
    }
    Ok(())
}
