//! The compliant query processing engine (Figure 2's architecture):
//! policy catalog + compliance-based optimizer + query executor over
//! simulated geo-distributed sites.

use crate::annotate::{fill_stats, AnnotateMode, AnnotatedNode, Annotator};
use crate::churn::{CatalogService, ChurnOpts};
use crate::compliance::{check_compliance, ship_audit_info, ship_traits};
use crate::distributed::CatalogSource;
use crate::memo::Memo;
use crate::rules::{default_rules, explore};
use crate::site_selector::{select_sites_with, Objective};
use geoqp_common::{
    CancelToken, ChurnWatch, GeoError, Location, LocationSet, QueryDeadline, Result, Rows,
    RunControl,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::{
    FaultPlan, HedgeConfig, LinkHealth, LinkReport, NetworkTopology, RelayEvent, TransferLog,
};
use geoqp_plan::logical::LogicalPlan;
use geoqp_plan::PhysicalPlan;
use geoqp_policy::{ImplicationMemo, PolicyCatalog, PolicyEvaluator};
use geoqp_runtime::{
    fingerprint, stitch, CheckpointSpec, CheckpointStore, Runtime, RuntimeConfig, RuntimeMetrics,
    ShipEnv,
};
use geoqp_storage::Catalog;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Which optimizer to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerMode {
    /// The paper's compliance-based optimizer (annotation rules + Pareto
    /// traits + compliant site selection).
    Compliant,
    /// The traditional cost-based baseline: same search engine and cost
    /// model, policies ignored, every site legal (Section 7.1's baseline).
    Traditional,
}

/// Knobs for [`Engine::optimize_opts`]: the placement objective plus two
/// ablation switches used by the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct OptimizerOptions {
    /// Phase-2 placement objective.
    pub objective: Objective,
    /// Ablation: drop the eager-aggregation rule (Section 6.4's
    /// completeness discussion — masking-by-aggregation plans become
    /// unreachable and affected queries are rejected).
    pub disable_aggregate_pushdown: bool,
    /// Ablation: cap each memo group's Pareto frontier; `Some(1)` keeps
    /// only the cheapest candidate, discarding trait diversity.
    pub frontier_cap: Option<usize>,
}

/// Timing and search-space measurements for one optimization run.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    /// Phase-1 (plan annotator) time, ms.
    pub phase1_ms: f64,
    /// Phase-2 (site selector) time, ms.
    pub phase2_ms: f64,
    /// Total optimization time, ms.
    pub total_ms: f64,
    /// Memo groups after exploration.
    pub memo_groups: usize,
    /// Memo expressions after exploration.
    pub memo_exprs: usize,
    /// Physical candidates across all frontiers.
    pub candidates: usize,
    /// `η` — expressions passing overlap + implication in Algorithm 1
    /// (the paper's Figure 7 measure).
    pub eta: u64,
    /// Policy-evaluator invocations.
    pub policy_invocations: u64,
    /// Phase-2 estimated shipping cost, ms.
    pub est_ship_cost_ms: f64,
    /// Implication-memo hits during this optimization (verdicts served
    /// without re-running the prover).
    pub memo_hits: u64,
    /// Implication-memo misses (proofs actually run).
    pub memo_misses: u64,
    /// `(operator, location)` DP states Algorithm 2 explored for the
    /// chosen placement (site-selector memo size).
    pub dp_states: usize,
}

/// A fully optimized query.
#[derive(Debug)]
pub struct OptimizedQuery {
    /// Located physical plan with explicit SHIPs.
    pub physical: Arc<PhysicalPlan>,
    /// The annotated plan phase 1 produced (Figure 4-style traits).
    pub annotated: AnnotatedNode,
    /// The normalized logical plan phase 1 ran on — retained so a live
    /// policy revocation can re-run the *whole* optimizer (both phases)
    /// under the new catalog snapshot mid-execution.
    pub logical: Arc<LogicalPlan>,
    /// Measurements.
    pub stats: OptimizeStats,
    /// Where the result materializes.
    pub result_location: Location,
    /// The optimizer that produced the plan. [`Engine::run`] audits every
    /// batch of a [`OptimizerMode::Compliant`] plan against Definition 1;
    /// a [`OptimizerMode::Traditional`] plan is the baseline the harness
    /// audits afterwards, and runs unaudited.
    pub mode: OptimizerMode,
}

/// The result of executing a distributed plan.
#[derive(Debug)]
pub struct ExecutionResult {
    /// The result rows (at the plan's result location).
    pub rows: Rows,
    /// Every cross-site transfer performed, with exact bytes and
    /// simulated cost under the message cost model.
    pub transfers: TransferLog,
}

/// The result of executing a distributed plan on the parallel runtime:
/// the runtime's own output.
pub use geoqp_runtime::RunOutput as ParallelResult;

/// The result of [`Engine::run`]: the rows plus everything the run did to
/// get them — transfers, failover re-plans, checkpoint reuse, hedging.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The result rows (at the plan's result location).
    pub rows: Rows,
    /// Every transfer and dropped attempt across all execution tries.
    pub transfers: TransferLog,
    /// Per-site and per-exchange observability of the attempt that
    /// completed.
    pub metrics: RuntimeMetrics,
    /// How many times the engine re-ran site selection around a failure.
    pub replans: usize,
    /// How many of those re-plans were forced by a mid-flight policy
    /// revocation (the query re-pinned to a newer catalog sequence).
    pub churn_replans: u64,
    /// Quiesce-free grant retries: times a `NonCompliant` refusal under
    /// the revocation's pin was answered by re-pinning forward onto a
    /// newer grant and re-optimizing (bounded to once per grant). A
    /// completed query with `grant_retries > 0` was rescued by a grant
    /// that landed while it was in flight.
    pub grant_retries: u64,
    /// Sites excluded from execution traits during failover.
    pub excluded: LocationSet,
    /// The plan that finally completed (the original one when
    /// `replans == 0`; a stitched resume plan when checkpoints matched).
    pub physical: Arc<PhysicalPlan>,
    /// SHIP edges a failover re-plan served from a retained checkpoint.
    pub checkpoint_hits: u64,
    /// SHIP edges a failover re-plan had to recompute (checkpoint lost
    /// with its home site, or never taken).
    pub checkpoint_misses: u64,
    /// Encoded bytes served from checkpoints instead of recomputation.
    pub resumed_bytes: u64,
    /// Bytes shipped after the first attempt failed — the recovery
    /// traffic that checkpoint/resume exists to shrink.
    pub recomputed_bytes: u64,
    /// Hedged backup transfers launched (0 when hedging is off).
    pub hedges_launched: u64,
    /// Hedged backups that delivered before their primary.
    pub hedges_won: u64,
    /// Hedged backups that routed via a compliant relay site.
    pub relays_used: u64,
    /// Circuit-breaker closed → open transitions across all link lanes.
    pub breaker_trips: u64,
    /// Gray links a breaker condemned: failover re-plans priced these at
    /// ∞ in Algorithm 2's cost model instead of excluding a site (both
    /// endpoints stayed in the execution traits).
    pub avoided_links: Vec<(Location, Location)>,
    /// Condemned gray links whose condemnation was waived because
    /// Algorithm 2 found no compliant placement avoiding them: the query
    /// rode the degraded link (still hedging) instead of rejecting.
    pub waived_links: Vec<(Location, Location)>,
    /// The final folded health state of every observed link lane (empty
    /// when hedging is off), for `\health`-style reporting.
    pub link_health: Vec<LinkReport>,
    /// Every relay a hedged backup routed through, with the lane it
    /// served — each one was audit-checked against the producing
    /// subtree's shipping trait before a byte moved.
    pub relay_events: Vec<RelayEvent>,
}

/// Everything [`Engine::run`] can be told about *how* to execute a
/// located plan. The default is the plain run: one attempt on the
/// columnar engine, no faults, nothing retained.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions<'a> {
    /// Fault injection: every transfer and leaf read consults this plan.
    /// `None` runs fault-free without a step clock.
    pub faults: Option<&'a FaultPlan>,
    /// Retry budget for transient faults within one attempt.
    pub retry: RetryPolicy,
    /// How many times the engine may re-run site selection around a
    /// failure before giving up.
    pub max_replans: usize,
    /// Retain completed SHIP edges in a checkpoint store and stitch
    /// failover re-plans against it, so only lost work re-executes.
    pub resume: bool,
    /// The checkpoint store to retain into, so tests and tools can
    /// inspect what was kept where. `None` uses one private to the run.
    /// A store serves one run: fingerprints name plan structure, not the
    /// policy snapshot it was derived under, so a store shared across
    /// runs could resume one run's output in another.
    pub store: Option<&'a CheckpointStore>,
    /// Simulated-clock completion budget for the whole run.
    pub deadline: Option<QueryDeadline>,
    /// Cooperative abort flag, polled at batch granularity.
    pub cancel: Option<CancelToken>,
    /// Gray-failure defense: score link health per transfer, launch
    /// compliant hedged backups on links whose EWMA crosses the hedge
    /// threshold, and let an exhausted breaker trigger a soft-exclusion
    /// re-plan. `None` disables hedging and breakers entirely.
    pub hedge: Option<HedgeConfig>,
    /// Live policy churn: the catalog service and the sequence pinned at
    /// admission. Execution re-audits SHIP edges against revocations at
    /// batch granularity, refuses transfers from replicas that cannot
    /// prove freshness, and re-plans through the checkpoint-stitching
    /// path when a revocation lands mid-flight. `None` runs against the
    /// frozen catalog.
    pub churn: Option<ChurnOpts>,
    /// Engine and exchange configuration. `columnar` (the default)
    /// selects the vectorized engine, `false` the row interpreter tests
    /// keep as their oracle. None of it changes rows, bytes, or fault
    /// replay.
    pub runtime: RuntimeConfig,
}

impl<'a> ExecOptions<'a> {
    /// Fault injection with compliant failover: up to `max_replans`
    /// re-plans around failures, transient faults retried per `retry`,
    /// checkpoint/resume on.
    pub fn failover(
        faults: &'a FaultPlan,
        retry: &RetryPolicy,
        max_replans: usize,
    ) -> ExecOptions<'a> {
        ExecOptions {
            faults: Some(faults),
            retry: retry.clone(),
            max_replans,
            resume: true,
            ..ExecOptions::default()
        }
    }

    /// Retain checkpoints into a caller-provided store.
    pub fn with_store(mut self, store: &'a CheckpointStore) -> ExecOptions<'a> {
        self.store = Some(store);
        self
    }

    /// Pin this execution to `pin` of `service`'s catalog and enforce
    /// live churn: per-batch revocation checks, stale-origin fail-safe,
    /// and compliant mid-flight re-planning.
    pub fn with_churn(mut self, service: Arc<CatalogService>, pin: u64) -> ExecOptions<'a> {
        self.churn = Some(ChurnOpts { service, pin });
        self
    }

    /// Enable link-health scoring, circuit breakers, and compliant hedged
    /// transfers for every attempt of the run.
    pub fn with_hedge(mut self, config: HedgeConfig) -> ExecOptions<'a> {
        self.hedge = Some(config);
        self
    }

    /// The control surface for one attempt, `base_ms` of simulated time
    /// already spent by earlier attempts.
    fn control(&self, base_ms: f64) -> RunControl {
        RunControl {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            base_ms,
        }
    }
}

/// The engine: catalog, policies, and network.
pub struct Engine {
    catalog: Arc<Catalog>,
    policies: Arc<PolicyCatalog>,
    topology: NetworkTopology,
    /// Implication-verdict cache shared by every evaluator the engine
    /// creates — across AR1–AR4 annotation, plan enumeration, audits,
    /// failover re-plans, and every engine forked from this one
    /// ([`Engine::fork_with_policies`]): a verdict depends on two
    /// predicates and no snapshot, so it holds under every one.
    implication_memo: Arc<ImplicationMemo>,
}

impl Engine {
    /// Assemble an engine.
    pub fn new(
        catalog: Arc<Catalog>,
        policies: Arc<PolicyCatalog>,
        topology: NetworkTopology,
    ) -> Engine {
        Engine {
            catalog,
            policies,
            topology,
            implication_memo: Arc::default(),
        }
    }

    /// The engine-wide implication memo (hit/miss counters feed
    /// optimizer metrics reporting).
    pub fn implication_memo(&self) -> &ImplicationMemo {
        &self.implication_memo
    }

    /// A sibling engine over the same deployment but a different policy
    /// catalog snapshot — the catalog after a grant or revoke. It shares
    /// this engine's implication memo: verdicts are keyed by the two
    /// predicates they relate, so every one proven under the old catalog
    /// is exact under the new one.
    pub fn fork_with_policies(&self, policies: Arc<PolicyCatalog>) -> Engine {
        Engine {
            catalog: Arc::clone(&self.catalog),
            policies,
            topology: self.topology.clone(),
            implication_memo: Arc::clone(&self.implication_memo),
        }
    }

    /// A policy evaluator wired to the engine's shared implication memo.
    fn evaluator(&self) -> PolicyEvaluator<'_> {
        PolicyEvaluator::with_memo(
            &self.policies,
            self.catalog.locations(),
            &self.implication_memo,
        )
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The policy catalog.
    pub fn policies(&self) -> &Arc<PolicyCatalog> {
        &self.policies
    }

    /// The network topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// Optimize a logical plan. With [`OptimizerMode::Compliant`], the
    /// returned plan is guaranteed compliant (Theorem 1); a legal-plan-free
    /// search space yields [`GeoError::QueryRejected`]. With
    /// [`OptimizerMode::Traditional`], policies are ignored entirely —
    /// the experiment harness audits those plans afterwards.
    pub fn optimize(
        &self,
        plan: &Arc<LogicalPlan>,
        mode: OptimizerMode,
        result_location: Option<Location>,
    ) -> Result<OptimizedQuery> {
        self.optimize_opts(plan, mode, result_location, &OptimizerOptions::default())
    }

    /// A result location must be one of the catalog's sites: asking for
    /// one that does not exist is a typo, not a policy refusal, so it is
    /// typed as a catalog error naming the site and the known ones —
    /// never as [`GeoError::QueryRejected`].
    pub fn check_site(&self, site: &Location) -> Result<()> {
        let known = self.catalog.locations();
        if known.contains(site) {
            return Ok(());
        }
        Err(GeoError::Storage(format!(
            "unknown result location `{site}`: the catalog's sites are {known}"
        )))
    }

    /// [`Engine::optimize`] with explicit [`OptimizerOptions`].
    pub fn optimize_opts(
        &self,
        plan: &Arc<LogicalPlan>,
        mode: OptimizerMode,
        result_location: Option<Location>,
        options: &OptimizerOptions,
    ) -> Result<OptimizedQuery> {
        if let Some(site) = &result_location {
            self.check_site(site)?;
        }
        let t_start = Instant::now();

        // Phase 1: normalize (dominating rewrites), explore, annotate.
        let normalized = crate::normalize::normalize_plan(plan)?;
        let mut memo = Memo::new();
        let root = memo.copy_in(&normalized)?;
        let mut rules = default_rules();
        if options.disable_aggregate_pushdown {
            rules.retain(|r| r.name() != "AggregateJoinPushdown");
        }
        explore(&mut memo, &rules)?;

        let evaluator = self.evaluator();
        let memo_base = (self.implication_memo.hits(), self.implication_memo.misses());
        let annotate_mode = match mode {
            OptimizerMode::Compliant => AnnotateMode::Compliant,
            OptimizerMode::Traditional => AnnotateMode::Traditional,
        };
        let mut annotator = Annotator::new(&self.catalog, &evaluator, annotate_mode);
        if let Some(cap) = options.frontier_cap {
            annotator = annotator.with_frontier_cap(cap);
        }
        let frontiers = annotator.annotate(&memo)?;

        let best = frontiers
            .best_root(root, result_location.as_ref())
            .ok_or_else(|| {
                GeoError::QueryRejected(
                    "no compliant execution plan exists in the explored search space".into(),
                )
            })?
            .clone();
        let mut annotated = frontiers.extract(&memo, &best);
        fill_stats(&mut annotated, &best.logical, &self.catalog);
        let phase1_ms = t_start.elapsed().as_secs_f64() * 1e3;

        // Phase 2: site selection.
        let t2 = Instant::now();
        let sited = select_sites_with(
            &annotated,
            &self.topology,
            result_location.as_ref(),
            options.objective,
        )?;
        let phase2_ms = t2.elapsed().as_secs_f64() * 1e3;

        if mode == OptimizerMode::Compliant {
            // Theorem 1 safety net: the emitted plan must audit clean. A
            // memo-less evaluator keeps the check off the shared memo's
            // counters, so debug and release builds report the same stats.
            debug_assert!(
                check_compliance(
                    &sited.physical,
                    &PolicyEvaluator::new(&self.policies, self.catalog.locations()),
                    &self.catalog
                )
                .is_ok(),
                "Theorem 1 violated: compliant optimizer emitted a non-compliant plan"
            );
        }

        Ok(OptimizedQuery {
            physical: sited.physical,
            annotated,
            logical: normalized,
            result_location: sited.result_location,
            mode,
            stats: OptimizeStats {
                phase1_ms,
                phase2_ms,
                total_ms: phase1_ms + phase2_ms,
                memo_groups: memo.group_count(),
                memo_exprs: memo.expr_count(),
                candidates: frontiers.stats().candidates,
                eta: evaluator.eta(),
                policy_invocations: evaluator.invocations(),
                est_ship_cost_ms: sited.est_ship_cost_ms,
                memo_hits: self.implication_memo.hits() - memo_base.0,
                memo_misses: self.implication_memo.misses() - memo_base.1,
                dp_states: sited.dp_states,
            },
        })
    }

    /// Audit a physical plan against the policies (Definition 1).
    pub fn audit(&self, plan: &PhysicalPlan) -> Result<()> {
        check_compliance(plan, &self.evaluator(), &self.catalog)
    }

    /// Execute a located physical plan over the per-site databases on the
    /// row interpreter, simulating every SHIP with real byte accounting:
    /// one plain, unaudited attempt.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ExecutionResult> {
        self.execute_unaudited(plan, false)
    }

    /// [`Engine::execute`] on the vectorized columnar engine. Result rows,
    /// row order, shipped bytes, and audit outcomes are identical to the
    /// row engine's.
    pub fn execute_columnar(&self, plan: &PhysicalPlan) -> Result<ExecutionResult> {
        self.execute_unaudited(plan, true)
    }

    /// One fault-free, unaudited attempt on the engine `columnar` selects.
    fn execute_unaudited(&self, plan: &PhysicalPlan, columnar: bool) -> Result<ExecutionResult> {
        let config = RuntimeConfig {
            columnar,
            ..RuntimeConfig::default()
        };
        let out = self.attempt_once(plan, None, &RetryPolicy::none(), &config, false)?;
        Ok(ExecutionResult {
            rows: out.rows,
            transfers: out.transfers,
        })
    }

    /// One [`Engine::attempt`] with no failover, checkpoints or controls.
    fn attempt_once(
        &self,
        plan: &PhysicalPlan,
        faults: Option<&FaultPlan>,
        retry: &RetryPolicy,
        config: &RuntimeConfig,
        audited: bool,
    ) -> Result<ParallelResult> {
        let opts = ExecOptions {
            faults,
            retry: retry.clone(),
            runtime: config.clone(),
            ..ExecOptions::default()
        };
        let (outcome, transfers) = self.attempt(
            plan,
            &opts,
            audited,
            &CheckpointStore::new(),
            None,
            0.0,
            None,
        );
        let (rows, metrics) = outcome?;
        Ok(ParallelResult {
            rows,
            transfers,
            metrics,
        })
    }

    /// The per-SHIP-edge shipping traits every batch is audited against
    /// (pre-order).
    fn ship_audits(&self, plan: &PhysicalPlan) -> Result<Vec<LocationSet>> {
        ship_traits(plan, &self.evaluator(), &self.catalog)
    }

    /// Per-SHIP-edge audit traits *and* checkpoint specs (fingerprint of
    /// the producer subtree + its shipping trait + logical content), both
    /// in pre-order SHIP order.
    fn ship_specs(&self, plan: &PhysicalPlan) -> Result<(Vec<LocationSet>, Vec<CheckpointSpec>)> {
        let audits = ship_audit_info(plan, &self.evaluator(), &self.catalog)?;
        let specs = (audits.iter().zip(plan.ships()))
            .map(|(a, ship)| CheckpointSpec {
                fingerprint: fingerprint(&ship.inputs[0]),
                legal: a.legal.clone(),
                logical: Arc::clone(&a.logical),
            })
            .collect();
        Ok((audits.into_iter().map(|a| a.legal).collect(), specs))
    }

    /// Execute a located plan under `config` with the Definition-1 audit
    /// enforced on every batch, with optional fault injection (a single
    /// try, no failover). Row results, shipped bytes, and transfer logs
    /// are identical to [`Engine::execute`]'s on a compliant plan.
    pub fn execute_parallel_opts(
        &self,
        plan: &PhysicalPlan,
        faults: Option<&FaultPlan>,
        retry: &RetryPolicy,
        config: &RuntimeConfig,
    ) -> Result<ParallelResult> {
        self.attempt_once(plan, faults, retry, config, true)
    }

    /// One execution attempt of `physical` under `opts`, `base_ms` of
    /// simulated time already spent by earlier attempts. Every batch is
    /// audited against its edge's 𝒮ₙ when `audited`, or when hedging or
    /// resume needs the traits anyway. The transfer log is returned even
    /// on failure: dropped attempts are evidence the failover loop
    /// reports.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        physical: &PhysicalPlan,
        opts: &ExecOptions<'_>,
        audited: bool,
        store: &CheckpointStore,
        health: Option<&LinkHealth>,
        base_ms: f64,
        watch: Option<&ChurnWatch>,
    ) -> (Result<(Rows, RuntimeMetrics)>, TransferLog) {
        // The adjudicator audits and relays against each edge's 𝒮ₙ; the
        // checkpoint store additionally needs each edge's spec.
        let traits = if opts.resume {
            self.ship_specs(physical)
                .map(|(audits, specs)| (Some(audits), specs))
        } else if audited || opts.hedge.is_some() {
            self.ship_audits(physical)
                .map(|audits| (Some(audits), Vec::new()))
        } else {
            Ok((None, Vec::new()))
        };
        let (audits, specs) = match traits {
            Ok(x) => x,
            Err(e) => return (Err(e), TransferLog::new()),
        };
        let mut env = ShipEnv::new(&self.topology).with_control(opts.control(base_ms));
        if let Some(faults) = opts.faults {
            env = env.with_faults(faults, opts.retry.clone());
        }
        if opts.resume {
            env = env.with_checkpoints(store);
        }
        if let (Some(health), Some(config)) = (health, opts.hedge.as_ref()) {
            env = env.with_hedge(health, config.clone());
        }
        if let Some(watch) = watch {
            env = env.with_churn(watch.clone());
        }
        Runtime::new(env)
            .with_config(opts.runtime.clone())
            .with_specs(specs)
            .try_run(
                physical,
                &CatalogSource::new(&self.catalog),
                audits.as_deref(),
            )
    }

    /// Execute an optimized query under `opts` — the one entry point
    /// behind the shell, the service, and the experiment harness.
    ///
    /// With the default options this is a single attempt. A plan from the
    /// compliant optimizer has every batch audited against Definition 1,
    /// so a non-compliant edge is refused with [`GeoError::NonCompliant`]
    /// before a byte leaves its site. With a
    /// re-plan budget it is compliant failover: an attempt that dies on a
    /// mid-flight revocation, a site down past its retry budget, or a
    /// breaker-condemned gray link takes one recovery step — the
    /// cause's own state change, then Algorithm 2 re-run around every
    /// excluded site and avoided link, the placement stitched against
    /// surviving checkpoints and re-verified against Definition 1 — and
    /// execution resumes on the new plan, up to `max_replans` times.
    ///
    /// The failover path never falls back to a non-compliant placement:
    /// if no operator placement survives the failure, the typed policy
    /// error ([`GeoError::QueryRejected`]; [`GeoError::NonCompliant`] for a
    /// revocation) is returned instead.
    pub fn run(&self, optimized: &OptimizedQuery, opts: &ExecOptions<'_>) -> Result<QueryOutcome> {
        let own_store = CheckpointStore::new();
        let store = opts.store.unwrap_or(&own_store);
        let health = opts
            .hedge
            .as_ref()
            .map(|h| LinkHealth::new(h.health.clone()));
        let health = health.as_ref();
        let mut recovery = Recovery {
            base: self,
            optimized,
            opts,
            store,
            health,
            excluded: LocationSet::new(),
            avoided: BTreeSet::new(),
            replans: 0,
            churn_replans: 0,
            grant_retries: 0,
            last_grant_retry_seq: opts.churn.as_ref().map_or(0, |c| c.pin),
            watch: opts.churn.as_ref().map(|c| c.service.watch(c.pin)),
            churned: None,
        };
        let mut physical = Arc::clone(&optimized.physical);
        let mut transfers = TransferLog::new();
        let mut first_attempt_bytes = None;
        loop {
            let (attempt, log) = recovery.current().0.attempt(
                &physical,
                opts,
                optimized.mode == OptimizerMode::Compliant,
                store,
                health,
                transfers.total_cost_ms(),
                recovery.watch.as_ref(),
            );
            transfers.absorb(log);
            let (rows, metrics) = match attempt {
                Ok(done) => done,
                Err(e) => {
                    first_attempt_bytes.get_or_insert(transfers.total_bytes());
                    physical = recovery.step(e, physical)?;
                    continue;
                }
            };
            let recovered_from = first_attempt_bytes.unwrap_or_else(|| transfers.total_bytes());
            return Ok(QueryOutcome {
                rows,
                metrics,
                replans: recovery.replans,
                churn_replans: recovery.churn_replans,
                grant_retries: recovery.grant_retries,
                excluded: recovery.excluded,
                physical,
                checkpoint_hits: store.hits(),
                checkpoint_misses: store.misses(),
                resumed_bytes: store.resumed_bytes(),
                recomputed_bytes: transfers.total_bytes() - recovered_from,
                hedges_launched: health.map_or(0, |h| h.hedges_launched()),
                hedges_won: health.map_or(0, |h| h.hedges_won()),
                relays_used: health.map_or(0, |h| h.relays_used()),
                breaker_trips: health.map_or(0, |h| h.breaker_trips()),
                avoided_links: recovery.avoided.into_iter().collect(),
                waived_links: health.map_or_else(Vec::new, |h| h.waived_links()),
                link_health: health.map_or_else(Vec::new, |h| h.snapshot()),
                relay_events: health.map_or_else(Vec::new, |h| h.relay_events()),
                transfers,
            });
        }
    }

    /// Parse, lower, and optimize a SQL query in one step.
    pub fn optimize_sql(
        &self,
        sql: &str,
        mode: OptimizerMode,
        result_location: Option<Location>,
    ) -> Result<OptimizedQuery> {
        let ast = geoqp_parser::parse_query(sql)?;
        let plan = geoqp_parser::lower_query(&ast, &self.catalog)?;
        self.optimize(&plan, mode, result_location)
    }

    /// Parse, lower, optimize, execute: the full pipeline of Figure 2.
    pub fn run_sql(
        &self,
        sql: &str,
        mode: OptimizerMode,
        result_location: Option<Location>,
        opts: &ExecOptions<'_>,
    ) -> Result<(OptimizedQuery, QueryOutcome)> {
        let optimized = self.optimize_sql(sql, mode, result_location)?;
        let outcome = self.run(&optimized, opts)?;
        Ok((optimized, outcome))
    }
}

/// Why an attempt failed, as far as re-planning is concerned: each cause
/// is one state change in [`Recovery::step`].
enum Cause {
    /// A mid-flight revocation published catalog head `head`, caught at
    /// executor step `step`. Once re-pinned, `head` is the pin the query
    /// continues under (a grant retry may have moved it forward).
    Revoked { head: u64, step: u64 },
    /// A site failed past its retry budget.
    SiteDown(Location),
    /// A circuit breaker condemned this gray link.
    GrayLink((Location, Location)),
}

/// What a run's failures have changed so far, and the one step that turns
/// the next failure into the next plan.
struct Recovery<'a> {
    base: &'a Engine,
    optimized: &'a OptimizedQuery,
    opts: &'a ExecOptions<'a>,
    store: &'a CheckpointStore,
    health: Option<&'a LinkHealth>,
    /// Crashed sites, out of every execution trait `ℰ_n`.
    excluded: LocationSet,
    /// Condemned gray links, priced at ∞ by every placement.
    avoided: BTreeSet<(Location, Location)>,
    replans: usize,
    churn_replans: u64,
    grant_retries: u64,
    /// The newest grant sequence a retry has already consumed: each
    /// retry must see a strictly newer grant, so a refusal retries at
    /// most once per grant and can never spin.
    last_grant_retry_seq: u64,
    /// The revocation watch of the current catalog pin.
    watch: Option<ChurnWatch>,
    /// The engine and re-optimized query of the current pin once a
    /// revocation has re-pinned the run; until then the admission-time
    /// ones apply.
    churned: Option<(Engine, OptimizedQuery)>,
}

impl Recovery<'_> {
    /// The engine and annotated plan of the current catalog pin.
    fn current(&self) -> (&Engine, &AnnotatedNode) {
        match &self.churned {
            Some((engine, reoptimized)) => (engine, &reoptimized.annotated),
            None => (self.base, &self.optimized.annotated),
        }
    }

    /// Turn the failure of `failed` into the plan the next attempt runs:
    /// read the cause off the error and apply its one state change, then
    /// place the current annotated plan around every excluded site and
    /// avoided link, stitch it against surviving checkpoints, and audit it
    /// under the current engine. Any other error ends the run as it is.
    fn step(&mut self, failure: GeoError, failed: Arc<PhysicalPlan>) -> Result<Arc<PhysicalPlan>> {
        let mut cause = match (failure.churn_head(), failure.breaker_link()) {
            (Some(head), _) if self.opts.churn.is_some() => Cause::Revoked {
                head,
                step: failure.churn_step().unwrap_or(0),
            },
            (_, Some((from, to))) => Cause::GrayLink((from.clone(), to.clone())),
            // Not an availability failure (e.g. a deadline or
            // cancellation): nothing to re-plan around.
            _ => match failure.failed_site() {
                Some(site) => Cause::SiteDown(site.clone()),
                None => return Err(failure),
            },
        };
        if self.replans >= self.opts.max_replans {
            return Err(match cause {
                Cause::Revoked { head, .. } => GeoError::NonCompliant(format!(
                    "revocation at catalog seq {} caught the query in flight and the \
                     re-plan budget ({}) is exhausted; refusing to finish under the \
                     revoked catalog",
                    head, self.opts.max_replans
                )),
                _ => failure,
            });
        }
        self.replans += 1;
        match &mut cause {
            Cause::Revoked { head, step } => self.repin(head, *step)?,
            Cause::SiteDown(site) if *site == self.optimized.result_location => {
                return Err(GeoError::QueryRejected(format!(
                    "result site {site} is unavailable; no compliant \
                     failover can deliver the result there"
                )));
            }
            Cause::SiteDown(site) => {
                self.excluded.insert(site.clone());
                // The crashed site's retained state died with it.
                self.store.drop_site(site);
            }
            // Soft exclusion: both endpoints of the gray link are alive,
            // so no site leaves the execution traits and no checkpoints
            // are dropped — placement just stops routing over the link.
            Cause::GrayLink(link) => {
                self.avoided.insert(link.clone());
            }
        }

        // Re-run Algorithm 2 with every excluded site out of every
        // execution trait and every avoided link priced at ∞. Execution
        // still runs on the real topology — only planning costs change.
        let topology = &self.base.topology;
        let avoiding = (!self.avoided.is_empty()).then(|| topology.avoiding_links(&self.avoided));
        let placed = self
            .current()
            .1
            .excluding_sites(&self.excluded)
            .ok_or_else(|| match &cause {
                Cause::Revoked { head, .. } => GeoError::NonCompliant(format!(
                    "no compliant placement survives the revocation at catalog seq {} \
                     with {} excluded",
                    head, self.excluded
                )),
                _ => GeoError::QueryRejected(format!(
                    "no compliant placement survives the failure of {}: \
                     an operator's execution trait became empty",
                    self.excluded
                )),
            })
            .and_then(|annotated| {
                select_sites_with(
                    &annotated,
                    avoiding.as_ref().unwrap_or(topology),
                    Some(&self.optimized.result_location),
                    Objective::TotalCost,
                )
            });
        let (placed, fallback) = match (placed, &cause) {
            (Ok(sited), _) => (sited.physical, None),
            // A condemned gray link may admit no compliant detour: every
            // placement Algorithm 2 can produce crosses it (compliance
            // pins the endpoints). Gray is not dead — the link delivers,
            // just slowly — so rather than rejecting a query that was
            // completing, waive the condemnation: the breaker gate stops
            // firing for that link while health scoring and hedging
            // continue, and the current plan retries.
            (Err(GeoError::QueryRejected(_)), Cause::GrayLink(link)) => {
                self.avoided.remove(link);
                let table = self.health.expect("breaker errors require a health table");
                table.waive(&link.0, &link.1);
                return Ok(failed);
            }
            // Algorithm 2 has no placement without the dead site — it
            // hosts a base table, say, so some operator's execution trait
            // emptied (c1 pins its scans there). Surviving checkpoints are
            // the last line of recovery: stitch the plan that just failed,
            // replacing every subtree whose output already reached a live
            // home with a ResumeScan leaf, and retry. Completed work never
            // re-executes, and if the outage was transient the remainder
            // now succeeds; a permanently dead site fails the retry again,
            // and once stitching stops making progress the typed error
            // surfaces. Bounded by `max_replans` like any other re-plan.
            (Err(e), Cause::SiteDown(_) | Cause::GrayLink(_)) if self.opts.resume => {
                (failed, Some(e))
            }
            (Err(e), _) => return Err(e),
        };

        // Stitch the placement against surviving checkpoints: subtrees
        // whose fingerprint still has a live, trait-legal checkpoint
        // become ResumeScan leaves, so only lost work re-executes.
        let engine = self.current().0;
        let next = if self.opts.resume {
            if let Cause::Revoked { .. } = cause {
                // The run changed policy snapshot: keep only checkpoints
                // the re-placed plan can resume, at homes still inside
                // their (possibly shrunken) shipping traits.
                let (_, specs) = engine.ship_specs(&placed)?;
                self.store.retain(&specs);
            }
            let outcome = stitch(&placed, self.store)?;
            match fallback {
                Some(e) if outcome.hits == 0 || Arc::ptr_eq(&outcome.plan, &placed) => {
                    return Err(e)
                }
                _ => outcome.plan,
            }
        } else {
            placed
        };
        // Definition-1 audit under the current catalog, resume edges
        // included: a violation here would be a Theorem-1 bug (or an
        // illegal checkpoint home), and must surface as an error, never
        // execute silently.
        check_compliance(&next, &engine.evaluator(), &engine.catalog)?;
        Ok(next)
    }

    /// Re-pin to the revocation's catalog `head`: fork the engine over
    /// that snapshot and re-run the whole optimizer under it. A refusal
    /// there is answered by the grant retry, which moves `head` forward;
    /// otherwise it is typed [`GeoError::NonCompliant`].
    fn repin(&mut self, head: &mut u64, abort_step: u64) -> Result<()> {
        let churn = (self.opts.churn.as_ref()).expect("revocations are causes only under churn");
        self.churn_replans += 1;
        loop {
            let forked = (self.base).fork_with_policies(churn.service.snapshot(*head)?);
            // Give the catalog plane one replication round to chase the
            // new head; sites still behind stay in the stale guard and
            // fail safe at transfer time.
            churn.service.sync_round();
            let result_location = Some(self.optimized.result_location.clone());
            match forked.optimize(
                &self.optimized.logical,
                OptimizerMode::Compliant,
                result_location,
            ) {
                Ok(reoptimized) => {
                    self.watch = Some(churn.service.watch(*head));
                    self.churned = Some((forked, reoptimized));
                    return Ok(());
                }
                // Quiesce-free grant retry: the query was refused under
                // this pin, but a grant that had already landed by the
                // abort step may have re-grown the legal set. Policies are
                // additive (Definition 1 re-audits the whole plan), so
                // re-pinning forward is sound — and it is bounded: each
                // retry must consume a strictly newer grant than the last.
                Err(GeoError::QueryRejected(m)) => {
                    match churn.service.signal().granted_since(*head, abort_step) {
                        Some(grant) if grant > self.last_grant_retry_seq => {
                            self.last_grant_retry_seq = grant;
                            self.grant_retries += 1;
                            *head = grant;
                        }
                        _ => {
                            return Err(GeoError::NonCompliant(format!(
                                "no compliant placement survives the revocation at \
                                 catalog seq {}: {m}",
                                head
                            )))
                        }
                    }
                }
                Err(other) => return Err(other),
            }
        }
    }
}
