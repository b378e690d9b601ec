//! `BENCH_churn.json` is the code's output, not a dump: E12's grids are
//! simulated-clock and seed-driven, so regenerating them at the committed
//! seed must reproduce the committed file byte for byte. A change that
//! moves a cell regenerates the file with `repro --figure churn` and says
//! which cells moved and why.

use geoqp_bench::experiments::churn::{churn_grid, grant_grid, to_json};

const COMMITTED: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_churn.json"
));

#[test]
fn churn_figure_matches_the_committed_json() {
    let json = to_json(&churn_grid(2021), &grant_grid(2021), 2021);
    assert_eq!(json, COMMITTED, "E12 moved: regenerate BENCH_churn.json");
}
