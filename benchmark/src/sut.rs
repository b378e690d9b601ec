//! The one adapter: every call into a `geoqp-*` crate lives in this file.
//!
//! The workloads see only the opaque handles and plain numbers defined
//! here, so the public surface the benchmark needs from the system under
//! test is exactly the list of functions this file calls (README.md
//! reproduces it). A PR that renames or removes one of them must precede
//! itself with a benchmark issue.

use geoqp_common::columnar::ColumnarBatch;
use geoqp_common::{DataType, Field, GeoError, Location, Rows, Schema, TableRef, Value};
use geoqp_core::annotate::{fill_stats, AnnotateMode};
use geoqp_core::distributed::CatalogSource;
use geoqp_core::memo::Memo;
use geoqp_core::normalize::normalize_plan;
use geoqp_core::rules::{default_rules, explore};
use geoqp_core::{
    select_sites_with, ship_traits, AnnotatedNode, Annotator, Engine, Objective, OptimizedQuery,
    OptimizerMode, RuntimeConfig,
};
use geoqp_exec::{RetryPolicy, ShipHandler};
use geoqp_expr::{implication, AggCall, AggFunc, ScalarExpr};
use geoqp_net::{NetworkTopology, TransferLog};
use geoqp_parser::ast::QueryAst;
use geoqp_plan::descriptor::describe_local;
use geoqp_plan::logical::LogicalPlan;
use geoqp_plan::{PhysOp, PhysicalPlan};
use geoqp_policy::{PolicyCatalog, PolicyEvaluator};
use geoqp_server::{
    QueryRequest, QueryService, QueryTicket, ServiceConfig, TenantConfig, TenantId,
};
use geoqp_storage::{Catalog, Table};
use geoqp_tpch::adhoc::generate_adhoc;
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use std::sync::Arc;
use std::time::Instant;

/// The six evaluated TPC-H queries, in round order.
pub const SIX: [&str; 6] = ["Q2", "Q3", "Q5", "Q8", "Q9", "Q10"];

/// Base tables, for the per-table scan probe.
pub const TABLES: [&str; 8] = geoqp_tpch::schema::TABLES;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The four policy template sets of the paper's evaluation, named as
/// `PolicyTemplate` names them.
#[allow(clippy::upper_case_acronyms)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    T,
    C,
    CR,
    CRA,
}

impl Template {
    pub const ALL: [Template; 4] = [Template::T, Template::C, Template::CR, Template::CRA];

    pub fn name(self) -> &'static str {
        self.inner().name()
    }

    fn inner(self) -> PolicyTemplate {
        match self {
            Template::T => PolicyTemplate::T,
            Template::C => PolicyTemplate::C,
            Template::CR => PolicyTemplate::CR,
            Template::CRA => PolicyTemplate::CRA,
        }
    }
}

/// The Table-2 deployment: five sites, eight tables, statistics at a scale
/// factor, optionally populated.
#[derive(Clone)]
pub struct Dataset {
    catalog: Arc<Catalog>,
}

impl Dataset {
    /// Statistics only, no rows: enough to plan, not to execute.
    pub fn stats_only(sf: f64) -> Dataset {
        Dataset {
            catalog: Arc::new(geoqp_tpch::paper_catalog(sf)),
        }
    }

    /// Statistics plus generated rows (columnar mirrors built at load).
    pub fn populated(sf: f64, seed: u64) -> Res<Dataset> {
        let d = Dataset::stats_only(sf);
        geoqp_tpch::populate(&d.catalog, sf, seed).map_err(err)?;
        Ok(d)
    }

    /// `populated`, with the generator's time (`tpch`) split from the
    /// time to build and attach tables and their mirrors (`storage`).
    /// Returns `(dataset, generate_s, attach_s)`.
    pub fn populated_split(sf: f64, seed: u64) -> Res<(Dataset, f64, f64)> {
        let d = Dataset::stats_only(sf);
        let (mut gen_s, mut attach_s) = (0.0, 0.0);
        for t in TABLES {
            let entry = d.catalog.resolve_one(&TableRef::bare(t)).map_err(err)?;
            let t0 = Instant::now();
            let rows = geoqp_tpch::gen::generate(t, sf, seed).map_err(err)?;
            gen_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let table = Table::new(Arc::clone(&entry.schema), rows).map_err(err)?;
            table.to_columnar();
            entry.set_data(table).map_err(err)?;
            attach_s += t1.elapsed().as_secs_f64();
        }
        Ok((d, gen_s, attach_s))
    }

    pub fn table_rows(&self, table: &str) -> Res<usize> {
        let entry = self
            .catalog
            .resolve_one(&TableRef::bare(table))
            .map_err(err)?;
        Ok(entry.data().map_or(0, |t| t.row_count()))
    }

    /// `n` seeded ad-hoc queries (2–5-way joins) as SQL text.
    pub fn adhoc(&self, n: usize, seed: u64) -> Res<Vec<AdhocSql>> {
        let qs = generate_adhoc(&self.catalog, n, seed).map_err(err)?;
        Ok(qs
            .into_iter()
            .map(|q| AdhocSql {
                sql: q.sql,
                plan: q.plan,
            })
            .collect())
    }

    /// The optimizer's estimate of the rows a query's operators produce
    /// in total: a deterministic size measure the service pool is capped by.
    pub fn estimated_rows(&self, q: &AdhocSql) -> f64 {
        let mut rows = 0.0;
        q.plan
            .visit(&mut |n| rows += geoqp_core::cost::estimate(n, &self.catalog).rows);
        rows
    }

    pub fn policies(&self, template: Template, count: usize, seed: u64) -> Res<PolicySet> {
        generate_policies(&self.catalog, template.inner(), count, seed)
            .map(|p| PolicySet(Arc::new(p)))
            .map_err(err)
    }
}

pub struct AdhocSql {
    pub sql: String,
    plan: Arc<LogicalPlan>,
}

#[derive(Clone)]
pub struct PolicySet(Arc<PolicyCatalog>);

/// A parsed query.
pub struct Ast(QueryAst);

/// A logical plan.
#[derive(Clone)]
pub struct Logical(Arc<LogicalPlan>);

/// A located physical plan with explicit SHIPs.
#[derive(Clone)]
pub struct Physical(Arc<PhysicalPlan>);

/// What the optimizer reports about one run (`OptimizeStats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    pub est_ship_cost_ms: f64,
    pub memo_groups: usize,
    pub memo_exprs: usize,
    pub candidates: usize,
    pub dp_states: usize,
    pub eta: u64,
    pub policy_invocations: u64,
}

/// An optimized query: located plan plus optimizer statistics.
#[derive(Clone)]
pub struct Located {
    q: Arc<OptimizedQuery>,
}

impl Located {
    pub fn physical(&self) -> Physical {
        Physical(Arc::clone(&self.q.physical))
    }

    pub fn stats(&self) -> PlanStats {
        let s = &self.q.stats;
        PlanStats {
            est_ship_cost_ms: s.est_ship_cost_ms,
            memo_groups: s.memo_groups,
            memo_exprs: s.memo_exprs,
            candidates: s.candidates,
            dp_states: s.dp_states,
            eta: s.eta,
            policy_invocations: s.policy_invocations,
        }
    }
}

/// Phase-1 state between `explore` and `annotate`.
pub struct Explored {
    memo: Memo,
    root: geoqp_core::memo::GroupId,
}

/// Phase-1 output: the annotated operator tree.
pub struct Annotated(AnnotatedNode);

/// One `(query predicate, policy predicate)` pair the prover is asked about.
pub struct ImplPair(ScalarExpr, ScalarExpr);

impl ImplPair {
    pub fn implies(&self) -> bool {
        implication::implies(&self.0, &self.1)
    }
}

/// The result of one execution: rows (kept opaque so digesting stays off
/// the clock) plus the paper's cost figures.
pub struct Executed {
    rows: Rows,
    pub bytes: u64,
    pub transfers: usize,
    /// Σ per-transfer simulated cost.
    pub network_ms: f64,
    /// Simulated completion time: the pipelined critical path where the
    /// runtime reports one, the sequential sum otherwise.
    pub completion_ms: f64,
    pub batches: u64,
    pub stalls: u64,
}

impl Executed {
    fn sequential(rows: Rows, log: &TransferLog) -> Executed {
        Executed {
            rows,
            bytes: log.total_bytes(),
            transfers: log.transfer_count(),
            network_ms: log.total_cost_ms(),
            completion_ms: log.total_cost_ms(),
            batches: 0,
            stalls: 0,
        }
    }

    pub fn digest(&self) -> Digest {
        digest_rows(&self.rows)
    }
}

/// Row count plus an order-insensitive multiset hash of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Floats are hashed at seven significant digits (1e-6 relative), so a
/// legitimate change of summation order does not read as a wrong answer.
fn digest_rows(rows: &Rows) -> Digest {
    let mut hash = 0u64;
    for row in rows.iter() {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for v in row {
            match v {
                Value::Null => fnv(&mut h, b"N"),
                Value::Bool(b) => fnv(&mut h, &[b'B', u8::from(*b)]),
                Value::Int64(i) => {
                    fnv(&mut h, b"I");
                    fnv(&mut h, &i.to_le_bytes());
                }
                Value::Float64(f) => {
                    fnv(&mut h, b"F");
                    fnv(&mut h, format!("{f:.6e}").as_bytes());
                }
                Value::Str(s) => {
                    fnv(&mut h, b"S");
                    fnv(&mut h, s.as_bytes());
                    fnv(&mut h, &[0]);
                }
                Value::Date(d) => {
                    fnv(&mut h, b"D");
                    fnv(&mut h, &d.to_le_bytes());
                }
            }
        }
        // Finalize per row so the order-insensitive sum mixes well.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        hash = hash.wrapping_add(h ^ (h >> 31));
    }
    Digest {
        rows: rows.len() as u64,
        hash,
    }
}

/// SHIP as a no-op on both the row and the columnar path. (`LocalShip`
/// only overrides the row path, so a columnar plan would pay a transpose
/// each way per edge that the simulated WAN's handler does not.)
struct FreeShip;

impl ShipHandler for FreeShip {
    fn ship(
        &mut self,
        _: &Location,
        _: &Location,
        rows: Rows,
        _: &Schema,
    ) -> Result<Rows, GeoError> {
        Ok(rows)
    }

    fn ship_columnar(
        &mut self,
        _: &Location,
        _: &Location,
        batch: Arc<ColumnarBatch>,
        _: &Schema,
    ) -> Result<Arc<ColumnarBatch>, GeoError> {
        Ok(batch)
    }
}

/// One engine: a dataset, a policy set and the paper's WAN.
pub struct Deployment {
    engine: Engine,
}

impl Deployment {
    pub fn new(data: &Dataset, policies: &PolicySet) -> Deployment {
        Deployment {
            engine: Engine::new(
                Arc::clone(&data.catalog),
                Arc::clone(&policies.0),
                NetworkTopology::paper_wan(),
            ),
        }
    }

    // ---- parser -------------------------------------------------------

    pub fn parse(&self, sql: &str) -> Res<Ast> {
        geoqp_parser::parse_query(sql).map(Ast).map_err(err)
    }

    pub fn lower(&self, ast: &Ast) -> Res<Logical> {
        geoqp_parser::lower_query(&ast.0, self.engine.catalog())
            .map(Logical)
            .map_err(err)
    }

    pub fn tpch_query(&self, name: &str) -> Res<Logical> {
        geoqp_tpch::query_by_name(self.engine.catalog(), name)
            .map(Logical)
            .map_err(err)
    }

    // ---- core: the optimizer, whole and step by step ------------------

    pub fn optimize(&self, plan: &Logical, compliant: bool) -> Res<Located> {
        let mode = if compliant {
            OptimizerMode::Compliant
        } else {
            OptimizerMode::Traditional
        };
        self.engine
            .optimize(&plan.0, mode, None)
            .map(|q| Located { q: Arc::new(q) })
            .map_err(err)
    }

    /// Definition-1 audit of a located plan (Theorem 1's checker).
    pub fn audit(&self, plan: &Physical) -> Res<()> {
        self.engine.audit(&plan.0).map_err(err)
    }

    /// The per-SHIP-edge audit sets every pipelined run derives first.
    pub fn ship_audit(&self, plan: &Physical) -> Res<usize> {
        ship_traits(&plan.0, &self.evaluator(), self.engine.catalog())
            .map(|v| v.len())
            .map_err(err)
    }

    fn evaluator(&self) -> PolicyEvaluator<'_> {
        PolicyEvaluator::with_memo(
            self.engine.policies(),
            self.engine.catalog().locations(),
            self.engine.implication_memo(),
        )
    }

    // The four steps below are what `Engine::optimize_opts` composes; the
    // traced run times them one by one and fails if they stop summing to
    // the whole (`core.reconcile_ratio`).

    pub fn opt_normalize(&self, plan: &Logical) -> Res<Logical> {
        normalize_plan(&plan.0).map(Logical).map_err(err)
    }

    pub fn opt_explore(&self, normalized: &Logical) -> Res<Explored> {
        let mut memo = Memo::new();
        let root = memo.copy_in(&normalized.0).map_err(err)?;
        explore(&mut memo, &default_rules()).map_err(err)?;
        Ok(Explored { memo, root })
    }

    pub fn opt_annotate(&self, explored: &Explored) -> Res<Annotated> {
        let evaluator = self.evaluator();
        let annotator = Annotator::new(self.engine.catalog(), &evaluator, AnnotateMode::Compliant);
        let frontiers = annotator.annotate(&explored.memo).map_err(err)?;
        let best = frontiers
            .best_root(explored.root, None)
            .ok_or("no compliant plan in the explored search space")?
            .clone();
        let mut annotated = frontiers.extract(&explored.memo, &best);
        fill_stats(&mut annotated, &best.logical, self.engine.catalog());
        Ok(Annotated(annotated))
    }

    /// Algorithm 2; returns the estimated shipping cost of the placement.
    pub fn opt_site_select(&self, annotated: &Annotated) -> Res<f64> {
        select_sites_with(
            &annotated.0,
            self.engine.topology(),
            None,
            Objective::TotalCost,
        )
        .map(|s| s.est_ship_cost_ms)
        .map_err(err)
    }

    // ---- policy and expr ----------------------------------------------

    /// Describe every single-database subquery of `plan` and evaluate the
    /// policies against it; returns how many there were.
    pub fn policy_evaluate(&self, plan: &Logical) -> usize {
        let evaluator = self.evaluator();
        let mut n = 0;
        plan.0.visit(&mut |node| {
            if let Some(local) = describe_local(node) {
                std::hint::black_box(evaluator.evaluate(&local));
                n += 1;
            }
        });
        n
    }

    /// The implication questions `plan` poses: each local subquery's
    /// predicate against each conditioned policy expression on its tables.
    pub fn implication_pairs(&self, plan: &Logical) -> Vec<ImplPair> {
        let mut out = Vec::new();
        plan.0.visit(&mut |node| {
            let Some(local) = describe_local(node) else {
                return;
            };
            let Some(p) = &local.predicate else { return };
            for table in &local.tables {
                for e in self.engine.policies().for_table(table) {
                    if let Some(q) = &e.expr.predicate {
                        out.push(ImplPair(p.clone(), q.clone()));
                    }
                }
            }
        });
        out
    }

    /// `(hits, misses)` of the engine-wide implication memo.
    pub fn implication_memo(&self) -> (u64, u64) {
        let m = self.engine.implication_memo();
        (m.hits(), m.misses())
    }

    // ---- execution ----------------------------------------------------

    /// The pipelined columnar runtime at its defaults but for
    /// `workers_per_site` (1 = the default).
    pub fn run_pipelined(&self, plan: &Physical, workers_per_site: usize) -> Res<Executed> {
        let config = RuntimeConfig {
            columnar: true,
            workers_per_site,
            ..RuntimeConfig::default()
        };
        let r = self
            .engine
            .execute_parallel_opts(&plan.0, None, &RetryPolicy::none(), &config)
            .map_err(err)?;
        Ok(Executed {
            bytes: r.transfers.total_bytes(),
            transfers: r.transfers.transfer_count(),
            network_ms: r.metrics.network_ms,
            completion_ms: r.metrics.completion_ms,
            batches: r.metrics.batches,
            stalls: r.metrics.stalls,
            rows: r.rows,
        })
    }

    /// The sequential columnar engine with the simulated WAN (what the
    /// service runs).
    pub fn run_columnar(&self, plan: &Physical) -> Res<Executed> {
        let r = self.engine.execute_columnar(&plan.0).map_err(err)?;
        Ok(Executed::sequential(r.rows, &r.transfers))
    }

    /// The row interpreter: the oracle every timed result is checked against.
    pub fn run_rows(&self, plan: &Physical) -> Res<Executed> {
        let r = self.engine.execute(&plan.0).map_err(err)?;
        Ok(Executed::sequential(r.rows, &r.transfers))
    }

    /// Operators only: the columnar interpreter with SHIP as a no-op, so
    /// no byte accounting, no network model and no runtime.
    pub fn run_operators_only(&self, plan: &Physical) -> Res<usize> {
        let source = CatalogSource::new(self.engine.catalog());
        geoqp_exec::execute_columnar(&plan.0, &source, &mut FreeShip)
            .map(|rows| rows.len())
            .map_err(err)
    }

    // ---- single-operator plans (as crates/bench's kernels experiment) --

    fn scan_node(&self, table: &str) -> Res<Arc<PhysicalPlan>> {
        let entry = self
            .engine
            .catalog()
            .resolve_one(&TableRef::bare(table))
            .map_err(err)?;
        PhysicalPlan::new(
            PhysOp::Scan {
                table: TableRef::bare(table),
            },
            Arc::clone(&entry.schema),
            entry.location.clone(),
            vec![],
        )
        .map(Arc::new)
        .map_err(err)
    }

    pub fn scan_plan(&self, table: &str) -> Res<Physical> {
        self.scan_node(table).map(Physical)
    }

    /// `σ(l_quantity < 25 ∧ l_returnflag = 'R')` over lineitem.
    pub fn filter_plan(&self) -> Res<Physical> {
        let li = self.scan_node("lineitem")?;
        let predicate = ScalarExpr::col("l_quantity")
            .lt(ScalarExpr::lit(25i64))
            .and(ScalarExpr::col("l_returnflag").eq(ScalarExpr::lit("R")));
        PhysicalPlan::new(
            PhysOp::Filter { predicate },
            Arc::clone(&li.schema),
            li.location.clone(),
            vec![li],
        )
        .map(|p| Physical(Arc::new(p)))
        .map_err(err)
    }

    /// `orders ⋈ lineitem` on the order key, orders shipped to lineitem's site.
    pub fn join_plan(&self) -> Res<Physical> {
        let orders = self.scan_node("orders")?;
        let li = self.scan_node("lineitem")?;
        let schema = Arc::new(orders.schema.join(&li.schema).map_err(err)?);
        let at: Location = li.location.clone();
        let shipped = PhysicalPlan::ship(orders, at.clone());
        PhysicalPlan::new(
            PhysOp::HashJoin {
                left_keys: vec!["o_orderkey".into()],
                right_keys: vec!["l_orderkey".into()],
                filter: None,
            },
            schema,
            at,
            vec![shipped, li],
        )
        .map(|p| Physical(Arc::new(p)))
        .map_err(err)
    }

    /// Q1-shaped: lineitem grouped by `(l_returnflag, l_linestatus)`.
    pub fn aggregate_plan(&self) -> Res<Physical> {
        let li = self.scan_node("lineitem")?;
        let schema = Schema::new(vec![
            Field::new("l_returnflag", DataType::Str),
            Field::new("l_linestatus", DataType::Str),
            Field::new("sum_qty", DataType::Int64),
            Field::new("sum_base_price", DataType::Float64),
            Field::new("count_order", DataType::Int64),
        ])
        .map_err(err)?;
        PhysicalPlan::new(
            PhysOp::HashAggregate {
                group_by: vec!["l_returnflag".into(), "l_linestatus".into()],
                aggs: vec![
                    AggCall::new(AggFunc::Sum, ScalarExpr::col("l_quantity"), "sum_qty"),
                    AggCall::new(
                        AggFunc::Sum,
                        ScalarExpr::col("l_extendedprice"),
                        "sum_base_price",
                    ),
                    AggCall::count_star("count_order"),
                ],
            },
            Arc::new(schema),
            li.location.clone(),
            vec![li],
        )
        .map(|p| Physical(Arc::new(p)))
        .map_err(err)
    }
}

// ---- server ------------------------------------------------------------

/// The multi-tenant query service over one shared dataset.
pub struct Service {
    svc: QueryService,
}

/// A reply as the client sees it.
pub struct Reply {
    pub exec: Executed,
    /// Served from the located-plan cache (after its re-audit).
    pub cached: bool,
}

pub struct Ticket(QueryTicket);

impl Ticket {
    pub fn wait(self) -> Res<Reply> {
        let r = self.0.wait().map_err(err)?;
        Ok(Reply {
            exec: Executed::sequential(r.rows, &r.transfers),
            cached: r.cached,
        })
    }
}

impl Service {
    pub fn start(workers: usize, cache_capacity: usize) -> Service {
        Service {
            svc: QueryService::new(ServiceConfig {
                workers,
                cache_capacity,
                columnar: true,
                ..ServiceConfig::default()
            }),
        }
    }

    /// Register a tenant; returns its index.
    pub fn add_tenant(&self, name: &str, data: &Dataset, policies: &PolicySet) -> usize {
        self.svc
            .add_tenant(
                name,
                Arc::clone(&data.catalog),
                Arc::clone(&policies.0),
                NetworkTopology::paper_wan(),
                TenantConfig::default(),
            )
            .0
    }

    pub fn submit(&self, tenant: usize, sql: &str) -> Res<Ticket> {
        self.svc
            .submit(TenantId(tenant), QueryRequest::new(sql))
            .map(Ticket)
            .map_err(err)
    }

    /// Grant/revoke the difference to `policies` on the tenant's catalog
    /// log: epoch bump, cache purge, fresh implication memo.
    pub fn update_policies(&self, tenant: usize, policies: &PolicySet) -> Res<()> {
        self.svc
            .update_tenant_policies(TenantId(tenant), Arc::clone(&policies.0))
            .map(|_| ())
            .map_err(err)
    }

    /// `(hits, misses)` of the shared located-plan cache.
    pub fn cache_counters(&self) -> (u64, u64) {
        let s = self.svc.cache_stats();
        (s.hits, s.misses)
    }
}
