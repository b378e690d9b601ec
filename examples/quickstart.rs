//! Quickstart: a two-site deployment with one dataflow policy.
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! Builds an EU site holding personal data and a US site holding event
//! data, declares that emails may not leave the EU, and shows how the
//! compliance-based optimizer plans (or rejects) queries accordingly.

use geoqp::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    // ----- catalog: two sites, one table each -------------------------
    let mut catalog = Catalog::new();
    catalog.add_database("db-eu", Location::new("EU"))?;
    catalog.add_database("db-us", Location::new("US"))?;

    let users = catalog.add_table(
        "db-eu",
        "users",
        Schema::new(vec![
            Field::new("u_id", DataType::Int64),
            Field::new("u_name", DataType::Str),
            Field::new("u_email", DataType::Str),
        ])?,
        TableStats::new(4, 48.0),
    )?;
    let events = catalog.add_table(
        "db-us",
        "events",
        Schema::new(vec![
            Field::new("e_user", DataType::Int64),
            Field::new("e_kind", DataType::Str),
        ])?,
        TableStats::new(6, 16.0),
    )?;

    // ----- a little data ----------------------------------------------
    users.set_data(Table::new(
        Arc::clone(&users.schema),
        vec![
            vec![
                Value::Int64(1),
                Value::str("ada"),
                Value::str("ada@example.eu"),
            ],
            vec![
                Value::Int64(2),
                Value::str("grace"),
                Value::str("grace@example.eu"),
            ],
            vec![
                Value::Int64(3),
                Value::str("edsger"),
                Value::str("edsger@example.eu"),
            ],
            vec![
                Value::Int64(4),
                Value::str("barbara"),
                Value::str("barbara@example.eu"),
            ],
        ],
    )?)?;
    events.set_data(Table::new(
        Arc::clone(&events.schema),
        vec![
            vec![Value::Int64(1), Value::str("login")],
            vec![Value::Int64(1), Value::str("purchase")],
            vec![Value::Int64(2), Value::str("login")],
            vec![Value::Int64(3), Value::str("browse")],
            vec![Value::Int64(4), Value::str("login")],
            vec![Value::Int64(4), Value::str("refund")],
        ],
    )?)?;

    // ----- dataflow policies -------------------------------------------
    // Ids and names may cross the border; emails may not. Events are free.
    let mut policies = PolicyCatalog::new();
    for text in [
        "ship u_id, u_name from users to US",
        "ship * from events to *",
    ] {
        let e = geoqp::parser::parse_policy(text)?;
        let entry = catalog.resolve_one(&e.table)?;
        policies.register(e, &entry.schema)?;
        println!("policy: {text}");
    }

    let engine = Engine::new(
        Arc::new(catalog),
        Arc::new(policies),
        NetworkTopology::uniform(LocationSet::from_iter(["EU", "US"]), 80.0, 200.0),
    );

    // ----- a compliant query -------------------------------------------
    let sql = "SELECT u_name, e_kind FROM users, events WHERE u_id = e_user \
               ORDER BY u_name, e_kind";
    println!("\nquery: {sql}");
    let (optimized, result) =
        engine.run_sql(sql, OptimizerMode::Compliant, None, &ExecOptions::default())?;
    println!(
        "\ncompliant plan (result at {}):",
        optimized.result_location
    );
    print!(
        "{}",
        geoqp::plan::display::display_physical(&optimized.physical)
    );
    println!("result rows:");
    for row in result.rows.iter() {
        println!("  {} did {}", row[0], row[1]);
    }
    println!(
        "shipped {} bytes across borders in {} transfer(s), {:.1} ms simulated",
        result.transfers.total_bytes(),
        result.transfers.transfer_count(),
        result.transfers.total_cost_ms()
    );

    // ----- a non-compliant demand is rejected --------------------------
    let bad = "SELECT u_email, e_kind FROM users, events WHERE u_id = e_user";
    println!("\nquery: {bad} (result demanded in US)");
    match engine.optimize_sql(bad, OptimizerMode::Compliant, Some(Location::new("US"))) {
        Err(e) => println!("rejected as expected: {e}"),
        Ok(_) => println!("unexpectedly planned!"),
    }
    Ok(())
}
