//! Helpers the integration tests share.

use geoqp::prelude::*;

/// [`Engine::run`] on the pipelined runtime, with the metrics of the
/// attempt that completed split out.
pub fn run_pipelined(
    eng: &Engine,
    opt: &OptimizedQuery,
    opts: ExecOptions<'_>,
    config: &RuntimeConfig,
) -> Result<(QueryOutcome, RuntimeMetrics)> {
    let mut res = eng.run(opt, &opts.pipelined(config.clone()))?;
    let metrics = res.metrics.take().expect("pipelined runs report metrics");
    Ok((res, metrics))
}
