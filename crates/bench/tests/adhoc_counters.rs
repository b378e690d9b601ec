//! `BENCH_optimizer.json` is the code's output, not a dump: the ad-hoc
//! search-volume counters are a pure function of (size, seed), so a small
//! instance is recomputed here and compared exactly with a committed
//! expectation, twice (twin determinism). The committed file itself is
//! `repro --figure adhoc` at the default 100 000 queries, same seed.

use geoqp_bench::experiments::optimizer::{adhoc_counters, to_json};

const EXPECTED: &str = r#"{
  "seed": 2021,
  "scale_factor": 10,
  "counters": [
    {"template": "T", "expressions": 8, "queries": 64, "compliant_fraction": 1.0000, "memo_hits": 902, "memo_misses": 149, "memo_hit_rate": 0.8582, "dp_states_total": 1594, "dp_states_mean": 24.91, "eta_mean": 16.42},
    {"template": "C", "expressions": 50, "queries": 64, "compliant_fraction": 1.0000, "memo_hits": 4182, "memo_misses": 547, "memo_hit_rate": 0.8843, "dp_states_total": 1339, "dp_states_mean": 20.92, "eta_mean": 73.89},
    {"template": "CR", "expressions": 50, "queries": 64, "compliant_fraction": 1.0000, "memo_hits": 4335, "memo_misses": 633, "memo_hit_rate": 0.8726, "dp_states_total": 1296, "dp_states_mean": 20.25, "eta_mean": 51.67},
    {"template": "CR+A", "expressions": 50, "queries": 64, "compliant_fraction": 1.0000, "memo_hits": 4189, "memo_misses": 589, "memo_hit_rate": 0.8767, "dp_states_total": 1154, "dp_states_mean": 18.03, "eta_mean": 46.78}
  ]
}
"#;

#[test]
fn adhoc_counters_match_the_committed_expectation() {
    let counters = adhoc_counters(256, 2021);
    assert_eq!(counters.len(), 4);
    for t in &counters {
        assert_eq!(t.queries, 64);
        assert!(
            (t.compliant_fraction - 1.0).abs() < f64::EPSILON,
            "{}: the compliant optimizer must always find a plan",
            t.template.name()
        );
        assert!(t.dp_states_total > 0, "Algorithm 2 must report DP states");
        assert!(t.memo_hits + t.memo_misses > 0);
        assert!((0.0..=1.0).contains(&t.memo_hit_rate));
    }
    let json = to_json(&counters, 2021);
    assert_eq!(json, EXPECTED, "counters moved: an optimizer change?");
    assert_eq!(json, to_json(&adhoc_counters(256, 2021), 2021));
}
