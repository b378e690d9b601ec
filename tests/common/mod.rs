//! Helpers the integration tests share.

use geoqp::prelude::*;

/// [`Engine::run`] under `config`, with the metrics of the attempt that
/// completed split out.
#[allow(dead_code)]
pub fn run_with_config(
    eng: &Engine,
    opt: &OptimizedQuery,
    opts: ExecOptions<'_>,
    config: &RuntimeConfig,
) -> Result<(QueryOutcome, RuntimeMetrics)> {
    let opts = ExecOptions {
        runtime: config.clone(),
        ..opts
    };
    let mut res = eng.run(opt, &opts)?;
    let metrics = std::mem::take(&mut res.metrics);
    Ok((res, metrics))
}

/// One SHIP edge of a run, reassembled from its per-batch
/// transfer records.
#[allow(dead_code)]
pub struct EdgeTotal {
    pub from: Location,
    pub to: Location,
    pub bytes: u64,
    pub cost_ms: f64,
}

/// The records of a run under an empty fault plan grouped per edge:
/// every batch of an edge is delivered at its first attempt, at the
/// edge's grid slot, so `(step, from, to)` names one edge.
#[allow(dead_code)]
pub fn per_edge(log: &TransferLog) -> Vec<EdgeTotal> {
    let mut edges = std::collections::BTreeMap::new();
    for r in log.records() {
        let e = edges
            .entry((r.step, r.from.clone(), r.to.clone()))
            .or_insert_with(|| EdgeTotal {
                from: r.from.clone(),
                to: r.to.clone(),
                bytes: 0,
                cost_ms: 0.0,
            });
        e.bytes += r.bytes;
        e.cost_ms += r.cost_ms;
    }
    edges.into_values().collect()
}
