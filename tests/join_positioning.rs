//! Which key pair positions each hash join of the TPC-H six, read on
//! each join's real inputs in `tpch_exec`'s deployment (SF 0.1, CR+A
//! with 10 expressions, compliant plans, seed 2021): a join whose build
//! rows go into a flat array by `key − min` instead of a hash table.

use geoqp::core::distributed::CatalogSource;
use geoqp::exec::{execute_fragment_columnar, positioned_key, LocalShip, NoExchange};
use geoqp::plan::{PhysOp, PhysicalPlan};
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.1;
const SEED: u64 = 2021;
const SIX: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];

/// One hash join of a located plan: its key pairs and the pair, if
/// any, that positions its build rows.
#[derive(Debug)]
struct Join {
    query: &'static str,
    keys: Vec<(String, String)>,
    positioned: Option<usize>,
}

fn hash_joins<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a PhysicalPlan>) {
    if matches!(plan.op, PhysOp::HashJoin { .. }) {
        out.push(plan);
    }
    for input in &plan.inputs {
        hash_joins(input, out);
    }
}

fn six_joins() -> Vec<Join> {
    let catalog = Arc::new(tpch::paper_catalog(SF));
    tpch::populate(&catalog, SF, SEED).unwrap();
    let policies = tpch::generate_policies(&catalog, PolicyTemplate::CRA, 10, SEED).unwrap();
    let engine = Engine::new(
        Arc::clone(&catalog),
        Arc::new(policies),
        NetworkTopology::paper_wan(),
    );
    let source = CatalogSource::new(&catalog);
    let mut out = Vec::new();
    for query in SIX {
        let logical = tpch::query_by_name(&catalog, query).unwrap();
        let optimized = engine
            .optimize(&logical, OptimizerMode::Compliant, None)
            .unwrap();
        let mut joins = Vec::new();
        hash_joins(&optimized.physical, &mut joins);
        for join in joins {
            let PhysOp::HashJoin {
                left_keys,
                right_keys,
                ..
            } = &join.op
            else {
                unreachable!()
            };
            let side = |k: usize, keys: &[String]| {
                let input = &join.inputs[k];
                let batch =
                    execute_fragment_columnar(input, &source, &mut LocalShip, &NoExchange).unwrap();
                let idx: Vec<usize> = keys
                    .iter()
                    .map(|c| input.schema.require_index(c).unwrap())
                    .collect();
                (batch, idx)
            };
            let ((l, lk), (r, rk)) = (side(0, left_keys), side(1, right_keys));
            out.push(Join {
                query,
                keys: left_keys
                    .iter()
                    .cloned()
                    .zip(right_keys.iter().cloned())
                    .collect(),
                positioned: positioned_key(&l, &lk, &r, &rk),
            });
        }
    }
    out
}

/// The pair a join positions by, named by its build-side key.
fn positioned_by(joins: &[Join], query: &str, build_keys: &[&str]) -> Option<String> {
    let join = joins
        .iter()
        .find(|j| j.query == query && j.keys.iter().map(|(l, _)| l).eq(build_keys))
        .unwrap_or_else(|| panic!("{query} joins on {build_keys:?}"));
    join.positioned.map(|p| join.keys[p].0.clone())
}

#[test]
fn the_six_position_every_join_by_its_widest_integer_key() {
    let joins = six_joins();
    // Every join key of the six is a dense integer surrogate key, so
    // none of the 30 joins fingerprints its rows.
    let positioned = joins.iter().filter(|j| j.positioned.is_some()).count();
    assert_eq!((positioned, joins.len()), (30, 30), "{joins:#?}");
    // Of two integer pairs, the wider build-side span positions: Q5's
    // ~1 000 supplier keys, not its 25 nation keys; Q9's ~20 000 part
    // keys, not its supplier keys.
    let q5 = positioned_by(&joins, "Q5", &["c_nationkey", "l_suppkey"]);
    assert_eq!(q5.as_deref(), Some("l_suppkey"));
    let q9 = positioned_by(&joins, "Q9", &["ps_partkey", "ps_suppkey"]);
    assert_eq!(q9.as_deref(), Some("ps_partkey"));
    // A Float64 pair never positions; the Int64 pair beside it does.
    let q2 = positioned_by(&joins, "Q2", &["p_partkey", "ps_supplycost"]);
    assert_eq!(q2.as_deref(), Some("p_partkey"));
}
