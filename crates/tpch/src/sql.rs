//! SQL texts for the TPC-H queries expressible in the engine's dialect
//! (no subqueries / CASE / EXTRACT). The programmatic builders in
//! [`crate::queries`] remain the evaluation's source of truth; these texts
//! exercise the parser + lowering path and are verified equivalent by the
//! test suite.

/// Queries with a SQL form, as `(name, sql)`.
pub fn sql_queries() -> Vec<(&'static str, &'static str)> {
    vec![("Q1", Q1), ("Q3", Q3), ("Q6", Q6), ("Q10", Q10)]
}

/// The SQL text of a query, when it has one.
pub fn sql_of(name: &str) -> Option<&'static str> {
    sql_queries()
        .into_iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, s)| s)
}

/// TPC-H Q1 — pricing summary report.
pub const Q1: &str = "\
SELECT l_returnflag, l_linestatus, \
       SUM(l_quantity) AS sum_qty, \
       SUM(l_extendedprice) AS sum_base_price, \
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
       AVG(l_quantity) AS avg_qty, \
       AVG(l_extendedprice) AS avg_price, \
       AVG(l_discount) AS avg_disc, \
       COUNT(*) AS count_order \
FROM lineitem \
WHERE l_shipdate <= DATE '1998-09-02' \
GROUP BY l_returnflag, l_linestatus \
ORDER BY l_returnflag, l_linestatus";

/// TPC-H Q3 — shipping-priority revenue.
pub const Q3: &str = "\
SELECT l_orderkey, \
       SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
       o_orderdate, o_shippriority \
FROM customer, orders, lineitem \
WHERE c_mktsegment = 'BUILDING' \
  AND c_custkey = o_custkey \
  AND l_orderkey = o_orderkey \
  AND o_orderdate < DATE '1995-03-15' \
  AND l_shipdate > DATE '1995-03-15' \
GROUP BY l_orderkey, o_orderdate, o_shippriority \
ORDER BY revenue DESC, o_orderdate \
LIMIT 10";

/// TPC-H Q6 — forecasting revenue change.
pub const Q6: &str = "\
SELECT SUM(l_extendedprice * l_discount) AS revenue \
FROM lineitem \
WHERE l_shipdate >= DATE '1994-01-01' \
  AND l_shipdate < DATE '1995-01-01' \
  AND l_discount BETWEEN 0.05 AND 0.07 \
  AND l_quantity < 24";

/// TPC-H Q10 — returned-item reporting.
pub const Q10: &str = "\
SELECT c_custkey, c_name, \
       SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
       c_acctbal, n_name, c_address, c_phone \
FROM customer, orders, lineitem, nation \
WHERE c_custkey = o_custkey \
  AND l_orderkey = o_orderkey \
  AND o_orderdate >= DATE '1993-10-01' \
  AND o_orderdate < DATE '1994-01-01' \
  AND l_returnflag = 'R' \
  AND c_nationkey = n_nationkey \
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address \
ORDER BY revenue DESC \
LIMIT 20";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{paper_catalog, populate};

    #[test]
    fn sql_texts_parse_and_lower() {
        let catalog = paper_catalog(1.0);
        for (name, sql) in sql_queries() {
            let ast =
                geoqp_parser::parse_query(sql).unwrap_or_else(|e| panic!("{name} parse: {e}"));
            let plan = geoqp_parser::lower_query(&ast, &catalog)
                .unwrap_or_else(|e| panic!("{name} lower: {e}"));
            // The SQL forms reference the same tables as the builders.
            let built = crate::queries::query_by_name(&catalog, name).unwrap();
            assert_eq!(plan.tables(), built.tables(), "{name} tables");
            assert_eq!(plan.join_count(), built.join_count(), "{name} joins");
        }
    }

    #[test]
    fn sql_and_builder_forms_compute_identical_aggregates() {
        let sf = 0.001;
        let catalog = std::sync::Arc::new(paper_catalog(sf));
        populate(&catalog, sf, 7).unwrap();
        let policies = crate::policy_gen::no_restriction_policies(&catalog).unwrap();
        let engine = geoqp_core::Engine::new(
            std::sync::Arc::clone(&catalog),
            std::sync::Arc::new(policies),
            geoqp_net::NetworkTopology::paper_wan(),
        );
        // Q1 and Q6 have deterministic output (full sorts / single row).
        for name in ["Q1", "Q6"] {
            let sql = sql_of(name).unwrap();
            let (_, sql_result) = engine
                .run_sql(
                    sql,
                    geoqp_core::OptimizerMode::Compliant,
                    None,
                    &geoqp_core::ExecOptions::default(),
                )
                .unwrap_or_else(|e| panic!("{name} sql run: {e}"));
            let built = crate::queries::query_by_name(&catalog, name).unwrap();
            let opt = engine
                .optimize(&built, geoqp_core::OptimizerMode::Compliant, None)
                .unwrap();
            let built_result = engine.execute(&opt.physical).unwrap();
            assert_eq!(
                sql_result.rows.len(),
                built_result.rows.len(),
                "{name} cardinality"
            );
            // Q6: single aggregate row must match exactly.
            if name == "Q6" {
                assert_eq!(sql_result.rows.rows()[0], built_result.rows.rows()[0]);
            }
        }
    }

    #[test]
    fn sql_of_lookup() {
        assert!(sql_of("q3").is_some());
        assert!(sql_of("Q10").is_some());
        assert!(sql_of("Q5").is_none()); // needs the two-key supplier join
    }
}
