//! End-to-end reproduction of the paper's running example (Section 2,
//! Figure 1): the CarCo deployment with databases in North America (N),
//! Europe (E), and Asia (A), dataflow policies P_N / P_E / P_A, and the
//! three-way join-aggregate query Q_ex.
//!
//! Asserts the paper's claims:
//! * the compliance-based optimizer produces a *compliant* plan
//!   (Theorem 1 / Definition 1 audit),
//! * that plan preserves query semantics (same result as the traditional
//!   plan, which is the semantics oracle),
//! * the compliant plan performs the Figure 1(b) moves: it never ships
//!   raw Supply rows out of Asia nor the Customer account balance out of
//!   North America,
//! * and the joins execute in Europe, as the paper's walkthrough derives.

use geoqp_common::{DataType, Field, Location, Schema, TableRef, Value};
use geoqp_core::{Engine, ExecOptions, OptimizerMode};
use geoqp_net::NetworkTopology;
use geoqp_parser::parse_policy;
use geoqp_plan::{PhysOp, PhysicalPlan};
use geoqp_policy::PolicyCatalog;
use geoqp_storage::{Catalog, Table, TableStats};
use std::sync::Arc;

fn carco_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_database("db-n", Location::new("N")).unwrap();
    c.add_database("db-e", Location::new("E")).unwrap();
    c.add_database("db-a", Location::new("A")).unwrap();

    let customer = Schema::new(vec![
        Field::new("c_custkey", DataType::Int64),
        Field::new("c_name", DataType::Str),
        Field::new("c_acctbal", DataType::Float64),
        Field::new("c_mktseg", DataType::Str),
    ])
    .unwrap();
    let orders = Schema::new(vec![
        Field::new("o_custkey", DataType::Int64),
        Field::new("o_ordkey", DataType::Int64),
        Field::new("o_totprice", DataType::Float64),
    ])
    .unwrap();
    let supply = Schema::new(vec![
        Field::new("s_ordkey", DataType::Int64),
        Field::new("s_quantity", DataType::Int64),
        Field::new("s_extprice", DataType::Float64),
    ])
    .unwrap();

    let ce = c
        .add_table(
            "db-n",
            "customer",
            customer,
            TableStats::new(2, 40.0).with_ndv("c_custkey", 2),
        )
        .unwrap();
    let oe = c
        .add_table(
            "db-e",
            "orders",
            orders,
            TableStats::new(3, 24.0)
                .with_ndv("o_custkey", 2)
                .with_ndv("o_ordkey", 3),
        )
        .unwrap();
    let se = c
        .add_table(
            "db-a",
            "supply",
            supply,
            TableStats::new(5, 20.0).with_ndv("s_ordkey", 3),
        )
        .unwrap();

    ce.set_data(
        Table::new(
            Arc::clone(&ce.schema),
            vec![
                vec![
                    Value::Int64(1),
                    Value::str("alice"),
                    Value::Float64(100.0),
                    Value::str("auto"),
                ],
                vec![
                    Value::Int64(2),
                    Value::str("bob"),
                    Value::Float64(200.0),
                    Value::str("machinery"),
                ],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    oe.set_data(
        Table::new(
            Arc::clone(&oe.schema),
            vec![
                vec![Value::Int64(1), Value::Int64(10), Value::Float64(50.0)],
                vec![Value::Int64(1), Value::Int64(11), Value::Float64(30.0)],
                vec![Value::Int64(2), Value::Int64(12), Value::Float64(20.0)],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    se.set_data(
        Table::new(
            Arc::clone(&se.schema),
            vec![
                vec![Value::Int64(10), Value::Int64(5), Value::Float64(1.0)],
                vec![Value::Int64(10), Value::Int64(7), Value::Float64(2.0)],
                vec![Value::Int64(11), Value::Int64(2), Value::Float64(3.0)],
                vec![Value::Int64(12), Value::Int64(1), Value::Float64(4.0)],
                vec![Value::Int64(12), Value::Int64(3), Value::Float64(5.0)],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c
}

fn carco_policies(catalog: &Catalog) -> PolicyCatalog {
    let mut p = PolicyCatalog::new();
    let texts = [
        // P_N: Customer data may leave North America only after
        // suppressing the account balance.
        "ship c_custkey, c_name, c_mktseg from db-n.customer to *",
        // P_E: only aggregated Orders data may be shipped to Asia...
        "ship o_totprice as aggregates sum from db-e.orders to A group by o_custkey, o_ordkey",
        // ... and an order's price cannot be shipped to North America.
        "ship o_custkey, o_ordkey from db-e.orders to N, A",
        // P_A: only aggregated Supply quantity/extended-price may be
        // shipped from Asia to Europe.
        "ship s_quantity, s_extprice as aggregates sum from db-a.supply to E group by s_ordkey",
    ];
    for t in texts {
        let e = parse_policy(t).unwrap();
        let entry = catalog.resolve_one(&e.table).unwrap();
        p.register(e, &entry.schema).unwrap();
    }
    p
}

fn engine() -> Engine {
    let catalog = Arc::new(carco_catalog());
    let policies = Arc::new(carco_policies(&catalog));
    // A simple symmetric WAN over the three regions.
    let topo = NetworkTopology::uniform(catalog.locations().clone(), 100.0, 100.0);
    Engine::new(catalog, policies, topo)
}

const Q_EX: &str = "SELECT c_name, SUM(o_totprice) AS sum_price, SUM(s_quantity) AS sum_qty \
     FROM customer, orders, supply \
     WHERE c_custkey = o_custkey AND o_ordkey = s_ordkey \
     GROUP BY c_name ORDER BY c_name";

/// The hand-computed SQL answer over the test data (note SUM(o_totprice)
/// is inflated by supply multiplicity, per standard join semantics).
fn expected() -> Vec<(String, f64, i64)> {
    vec![("alice".into(), 130.0, 14), ("bob".into(), 40.0, 4)]
}

fn check_rows(rows: &geoqp_common::Rows) {
    let exp = expected();
    assert_eq!(rows.len(), exp.len());
    for (row, (name, price, qty)) in rows.iter().zip(exp) {
        assert_eq!(row[0], Value::str(&name));
        assert_eq!(row[1], Value::Float64(price));
        assert_eq!(row[2], Value::Int64(qty));
    }
}

#[test]
fn compliant_plan_is_found_audited_and_correct() {
    let eng = engine();
    let (opt, result) = eng
        .run_sql(
            Q_EX,
            OptimizerMode::Compliant,
            Some(Location::new("E")),
            &ExecOptions::default(),
        )
        .unwrap();

    // Theorem 1: the emitted plan audits clean.
    eng.audit(&opt.physical)
        .expect("compliant plan must pass the Definition-1 audit");
    assert_eq!(opt.result_location, Location::new("E"));

    // Semantics preserved.
    check_rows(&result.rows);

    // Figure 1(b) structure: no raw Supply rows leave Asia — every ship
    // out of A carries at most one row per order (3 orders).
    for t in result.transfers.records() {
        if t.from == Location::new("A") {
            assert!(
                t.rows <= 3,
                "raw supply shipped out of Asia: {} rows",
                t.rows
            );
        }
    }

    // Joins execute in Europe (the paper's derivation in Section 6.2).
    opt.physical.visit(&mut |p: &PhysicalPlan| {
        if matches!(p.op, PhysOp::HashJoin { .. }) {
            assert_eq!(p.location, Location::new("E"), "join not placed in Europe");
        }
    });

    // The account balance never appears in any shipped schema.
    opt.physical.visit(&mut |p: &PhysicalPlan| {
        if matches!(p.op, PhysOp::Ship) {
            assert!(
                p.schema.index_of("c_acctbal").is_none(),
                "account balance shipped across a border"
            );
        }
    });
}

#[test]
fn traditional_optimizer_matches_semantics_but_not_compliance() {
    let eng = engine();
    let (opt_c, res_c) = eng
        .run_sql(
            Q_EX,
            OptimizerMode::Compliant,
            Some(Location::new("E")),
            &ExecOptions::default(),
        )
        .unwrap();
    let (opt_t, res_t) = eng
        .run_sql(
            Q_EX,
            OptimizerMode::Traditional,
            Some(Location::new("E")),
            &ExecOptions::default(),
        )
        .unwrap();

    // Both plans compute the same answer (plan transformations preserve
    // semantics, including the count-adjusted aggregate pushdown).
    check_rows(&res_c.rows);
    check_rows(&res_t.rows);

    // The compliant plan passes the audit by construction.
    eng.audit(&opt_c.physical).unwrap();
    // The traditional plan ships raw restricted data here and must fail.
    let audit = eng.audit(&opt_t.physical);
    assert!(
        audit.is_err(),
        "expected the baseline to violate a policy on this workload"
    );
}

#[test]
fn rejects_query_with_no_compliant_plan() {
    let eng = engine();
    // Raw account balances cannot leave N, and the result is demanded in
    // Europe — no compliant plan can exist.
    let err = eng
        .optimize_sql(
            "SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 0.0",
            OptimizerMode::Compliant,
            Some(Location::new("E")),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "rejected");

    // The same query with the result at home (N) is fine.
    let ok = eng.optimize_sql(
        "SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 0.0",
        OptimizerMode::Compliant,
        Some(Location::new("N")),
    );
    assert!(ok.is_ok());
}

#[test]
fn aggregated_orders_may_reach_asia() {
    let eng = engine();
    // Aggregated order prices grouped by custkey are legal in Asia per
    // P_E's aggregate expression.
    let opt = eng
        .optimize_sql(
            "SELECT o_custkey, SUM(o_totprice) AS total FROM orders GROUP BY o_custkey",
            OptimizerMode::Compliant,
            Some(Location::new("A")),
        )
        .unwrap();
    eng.audit(&opt.physical).unwrap();
    assert_eq!(opt.result_location, Location::new("A"));

    // Raw order prices are not.
    let err = eng
        .optimize_sql(
            "SELECT o_custkey, o_totprice FROM orders",
            OptimizerMode::Compliant,
            Some(Location::new("A")),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "rejected");
}

#[test]
fn explain_shows_traits() {
    let eng = engine();
    let opt = eng
        .optimize_sql(Q_EX, OptimizerMode::Compliant, Some(Location::new("E")))
        .unwrap();
    let text = geoqp_core::explain::display_annotated(&eng.annotate(&opt).unwrap());
    assert!(text.contains("ℰ="));
    assert!(text.contains("𝒮="));
    assert!(text.contains("Scan"));
    let phys = geoqp_plan::display::display_physical(&opt.physical);
    assert!(phys.contains("Ship"));
}

#[test]
fn execution_accounts_transfers() {
    let eng = engine();
    let (_, result) = eng
        .run_sql(
            Q_EX,
            OptimizerMode::Compliant,
            Some(Location::new("E")),
            &ExecOptions::default(),
        )
        .unwrap();
    assert!(result.transfers.transfer_count() >= 2); // N→E and A→E at least
    assert!(result.transfers.total_bytes() > 0);
    assert!(result.transfers.total_cost_ms() > 0.0);
}

#[test]
fn result_location_none_picks_cheapest_home() {
    let eng = engine();
    let opt = eng
        .optimize_sql(Q_EX, OptimizerMode::Compliant, None)
        .unwrap();
    eng.audit(&opt.physical).unwrap();
    // Without restrictions on the result location the optimizer still
    // produces a compliant, executable plan somewhere.
    let res = eng.execute(&opt.physical).unwrap();
    check_rows(&res.rows);
}

#[test]
fn scan_outside_home_is_caught_by_audit() {
    // Hand-build an illegal plan: ship raw supply to Europe.
    let eng = engine();
    let entry = eng
        .catalog()
        .resolve_one(&TableRef::qualified("db-a", "supply"))
        .unwrap();
    let scan = Arc::new(
        PhysicalPlan::new(
            PhysOp::Scan {
                table: entry.table.clone(),
            },
            Arc::clone(&entry.schema),
            Location::new("A"),
            vec![],
        )
        .unwrap(),
    );
    let shipped = PhysicalPlan::ship(scan, Location::new("E"));
    let err = eng.audit(&shipped).unwrap_err();
    assert_eq!(err.kind(), "non-compliant");
}
