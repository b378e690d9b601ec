//! Which key positions each hash join and each hash aggregate of the
//! TPC-H six, read on each operator's real inputs in `tpch_exec`'s
//! deployment (SF 0.1, CR+A with 10 expressions, compliant plans, seed
//! 2021): a join whose build rows go into a flat array by `key − min`
//! instead of a hash table, the join key pairs whose two output columns
//! are one, and an aggregate whose groups are found by slot instead of by
//! key fingerprint.

use geoqp::core::distributed::CatalogSource;
use geoqp::exec::{
    execute_fragment_columnar, positioned_group_key, positioned_key, shared_key_pairs, ColBatch,
    LocalShip, NoExchange,
};
use geoqp::plan::{PhysOp, PhysicalPlan};
use geoqp::prelude::*;
use geoqp::tpch;
use geoqp::tpch::policy_gen::PolicyTemplate;
use std::sync::Arc;

const SF: f64 = 0.1;
const SEED: u64 = 2021;
const SIX: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];

/// One hash join of a located plan: its key pairs, the pair, if any,
/// that positions its build rows, and the pairs whose two output columns
/// are one.
#[derive(Debug)]
struct Join {
    query: &'static str,
    keys: Vec<(String, String)>,
    positioned: Option<usize>,
    shared: Vec<usize>,
}

/// One hash aggregate of a located plan: its group columns and the one,
/// if any, that positions its rows.
#[derive(Debug)]
struct Aggregate {
    query: &'static str,
    group_by: Vec<String>,
    positioned: Option<usize>,
}

fn nodes<'a>(plan: &'a PhysicalPlan, wanted: fn(&PhysOp) -> bool, out: &mut Vec<&'a PhysicalPlan>) {
    if wanted(&plan.op) {
        out.push(plan);
    }
    for input in &plan.inputs {
        nodes(input, wanted, out);
    }
}

/// `read(query, node, input)` for every node of the six's located plans
/// that `wanted` picks, in plan pre-order; `input(k, columns)` is the
/// node's `k`-th input as the columnar engine produces it, with the
/// positions of `columns` in its schema.
fn over_the_six<T>(
    wanted: fn(&PhysOp) -> bool,
    mut read: impl FnMut(
        &'static str,
        &PhysicalPlan,
        &dyn Fn(usize, &[String]) -> (ColBatch, Vec<usize>),
    ) -> T,
) -> Vec<T> {
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
        let mut picked = Vec::new();
        nodes(&optimized.physical, wanted, &mut picked);
        for node in picked {
            let input = |k: usize, columns: &[String]| {
                let input = &node.inputs[k];
                let batch =
                    execute_fragment_columnar(input, &source, &mut LocalShip, &NoExchange).unwrap();
                let idx: Vec<usize> = columns
                    .iter()
                    .map(|c| input.schema.require_index(c).unwrap())
                    .collect();
                (batch, idx)
            };
            out.push(read(query, node, &input));
        }
    }
    out
}

fn six_joins() -> Vec<Join> {
    over_the_six(
        |op| matches!(op, PhysOp::HashJoin { .. }),
        |query, join, input| {
            let PhysOp::HashJoin {
                left_keys,
                right_keys,
                ..
            } = &join.op
            else {
                unreachable!()
            };
            let ((l, lk), (r, rk)) = (input(0, left_keys), input(1, right_keys));
            Join {
                query,
                keys: left_keys
                    .iter()
                    .cloned()
                    .zip(right_keys.iter().cloned())
                    .collect(),
                positioned: positioned_key(&l, &lk, &r, &rk),
                shared: shared_key_pairs(&l, &lk, &r, &rk),
            }
        },
    )
}

fn six_aggregates() -> Vec<Aggregate> {
    over_the_six(
        |op| matches!(op, PhysOp::HashAggregate { .. }),
        |query, aggregate, input| {
            let PhysOp::HashAggregate { group_by, .. } = &aggregate.op else {
                unreachable!()
            };
            let (batch, keys) = input(0, group_by);
            Aggregate {
                query,
                group_by: group_by.clone(),
                positioned: positioned_group_key(&batch, &keys),
            }
        },
    )
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

#[test]
fn every_integer_key_pair_of_the_six_emits_one_column_for_both_keys() {
    let joins = six_joins();
    let pairs: usize = joins.iter().map(|j| j.keys.len()).sum();
    let shared: usize = joins.iter().map(|j| j.shared.len()).sum();
    // Each `Int64 = Int64` or `Date = Date` pair's two output columns are
    // the probe's one; only Q2's `Float64` cost pair keeps two.
    let unshared: Vec<(&str, &str)> = joins
        .iter()
        .flat_map(|j| {
            let own = (0..j.keys.len()).filter(|k| !j.shared.contains(k));
            own.map(|k| (j.query, j.keys[k].0.as_str()))
        })
        .collect();
    assert_eq!((shared, pairs), (32, 33), "{joins:#?}");
    assert_eq!(unshared, [("Q2", "ps_supplycost")]);
    // Q9's `partsupp ⋈ lineitem`, which ships 600 000 rows: both of
    // partsupp's keys are lineitem's columns.
    let q9 = joins
        .iter()
        .find(|j| j.query == "Q9" && j.keys[0].0 == "ps_partkey");
    assert_eq!(q9.map(|j| j.shared.as_slice()), Some(&[0, 1][..]));
}

#[test]
fn the_six_position_every_aggregate_by_its_most_distinct_group_column() {
    let aggregates = six_aggregates();
    let picked: Vec<(&str, &str)> = aggregates
        .iter()
        .map(|a| {
            let at = a.positioned.map_or("hashed", |p| a.group_by[p].as_str());
            (a.query, at)
        })
        .collect();
    // Every group column of the six is a dense integer key or a short
    // dictionary, so none of the 8 aggregates fingerprints its rows.
    // Q3's order keys span too far for its rows, so its order date
    // positions, and Q10's six functionally dependent columns tie on
    // distinct values, so the first, `c_custkey`, does. Q8 and Q9 each
    // carry a second aggregate, by `s_nationkey`, that eager aggregation
    // places below the join with the supplier's nation.
    let want = [
        ("Q2", "ps_partkey"),
        ("Q3", "o_orderdate"),
        ("Q5", "n_name"),
        ("Q8", "n2_name"),
        ("Q8", "s_nationkey"),
        ("Q9", "n_name"),
        ("Q9", "s_nationkey"),
        ("Q10", "c_custkey"),
    ];
    assert_eq!(picked, want, "{aggregates:#?}");
}
