//! The four workloads. Each has an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics from spans around the adapter's calls).

pub mod adhoc_optimize;
pub mod service;
pub mod tpch_exec;

use crate::golden::{self, Oracle, GOLDEN_SEED};
use crate::trace::Tracer;

/// Set-up is repeated at least this often in one run, and further (up to
/// `MAX_SETUP_REPEATS`) while all repeats together took under
/// `SETUP_FLOOR_S`: a short set-up needs more samples for a steady median.
/// `setup_s` is the median.
const MIN_SETUP_REPEATS: usize = 3;
const MAX_SETUP_REPEATS: usize = 9;
const SETUP_FLOOR_S: f64 = 3.0;

#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    /// Length of the measuring phase.
    pub seconds: f64,
    /// ~1/50 of the work, one set-up, same scale factors and checks.
    pub smoke: bool,
    pub regen_golden: bool,
}

impl Cfg {
    /// Set up repeatedly (once in smoke mode), dropping each result before
    /// the next so memory does not add up; returns the last result and the
    /// median seconds of one set-up.
    pub fn set_up<T>(
        &self,
        mut set_up: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let mut seconds = Vec::new();
        loop {
            let t = std::time::Instant::now();
            let ready = set_up()?;
            seconds.push(t.elapsed().as_secs_f64());
            let enough = seconds.len() >= MIN_SETUP_REPEATS
                && (seconds.iter().sum::<f64>() >= SETUP_FLOOR_S
                    || seconds.len() >= MAX_SETUP_REPEATS);
            if self.smoke || enough {
                return Ok((ready, crate::stats::median(&seconds)));
            }
            drop(ready);
        }
    }

    /// The frozen oracle at the golden seed, else `compute()`; returns
    /// the oracle and the seconds it took to get.
    pub fn oracle(
        &self,
        compute: impl FnOnce() -> Result<Oracle, String>,
    ) -> Result<(Oracle, f64), String> {
        let t = std::time::Instant::now();
        let frozen = if self.regen_golden {
            None
        } else {
            golden::load(&self.workload, self.seed)
        };
        let oracle = match frozen {
            Some(o) => o,
            None => {
                let o = compute()?;
                if self.regen_golden && self.seed == GOLDEN_SEED {
                    golden::save(&self.workload, self.seed, &o)?;
                }
                o
            }
        };
        Ok((oracle, t.elapsed().as_secs_f64()))
    }

    /// Write the traced run's spans to `benchmark/out/<workload>.trace.json`.
    pub fn dump_spans(&self, tracer: &Tracer) -> Result<(), String> {
        std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
        let path = format!("benchmark/out/{}.trace.json", self.workload);
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))
    }
}
