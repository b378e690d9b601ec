//! The `geoqp` shell: a line-oriented front end over the compliant query
//! processing engine. All state and command handling lives here so that
//! the shell is fully testable without a terminal.

use geoqp_common::{CancelToken, GeoError, Location, QueryDeadline, Result, Rows, TableRef};
use geoqp_core::{
    CatalogService, Engine, ExecOptions, HedgeConfig, LinkReport, OptimizerMode, QueryOutcome,
    RuntimeConfig, RuntimeMetrics,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, HealthConfig, NetworkTopology};
use geoqp_policy::{expand_denials, PolicyCatalog};
use geoqp_server::{QueryRequest, QueryService, ServiceConfig, TenantConfig, TenantId};
use geoqp_storage::Catalog;
use geoqp_tpch::PolicyTemplate;
use std::fmt::Write as _;
use std::sync::Arc;

/// A multi-tenant [`QueryService`] attached to the session by `\server`,
/// kept alive so `\tenants` shows counters accumulated across bursts.
struct ServerSession {
    svc: QueryService,
    tenants: Vec<TenantId>,
}

/// Shell state: the loaded deployment plus session settings.
pub struct Shell {
    engine: Option<Engine>,
    mode: OptimizerMode,
    /// `\workers` (morsel workers per site) lives here.
    config: RuntimeConfig,
    result_location: Option<Location>,
    faults: Option<FaultPlan>,
    last_metrics: Option<RuntimeMetrics>,
    deadline: Option<QueryDeadline>,
    cancel: CancelToken,
    last_failover: Option<String>,
    hedge: Option<HedgeConfig>,
    last_health: Option<Vec<LinkReport>>,
    service: Option<ServerSession>,
    /// The deployment's policy-catalog service: `\grant` and
    /// `\revoke` append to its log and re-admit the session's engine at
    /// the new head, and `\catalog` renders it. Only this shell appends
    /// to the log, so a statement always plans and runs under the head.
    churn: Option<Arc<CatalogService>>,
}

impl Default for Shell {
    fn default() -> Shell {
        Shell::new()
    }
}

impl Shell {
    /// A shell with no deployment loaded.
    pub fn new() -> Shell {
        Shell {
            engine: None,
            mode: OptimizerMode::Compliant,
            config: RuntimeConfig::default(),
            result_location: None,
            faults: None,
            last_metrics: None,
            deadline: None,
            cancel: CancelToken::new(),
            last_failover: None,
            hedge: None,
            last_health: None,
            service: None,
            churn: None,
        }
    }

    /// Execute one input line (a `\command` or SQL) and return the text to
    /// print.
    pub fn run_command(&mut self, line: &str) -> Result<String> {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('\\') {
            self.meta_command(rest)
        } else {
            self.sql(line)
        }
    }

    fn engine(&self) -> Result<&Engine> {
        self.engine
            .as_ref()
            .ok_or_else(|| GeoError::Execution("no deployment loaded; try \\demo carco".into()))
    }

    fn meta_command(&mut self, rest: &str) -> Result<String> {
        let mut parts = rest.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        match cmd {
            "help" | "h" => Ok(HELP.to_string()),
            "demo" => self.load_demo(arg),
            "tables" => self.tables(),
            "locations" => {
                let eng = self.engine()?;
                Ok(format!("{}\n", eng.catalog().locations()))
            }
            "policies" => {
                let eng = self.engine()?;
                let mut out = String::new();
                for e in eng.policies().expressions() {
                    let _ = writeln!(out, "{e}");
                }
                if eng.policies().is_empty() {
                    out.push_str("(no policies — nothing may leave its site)\n");
                }
                Ok(out)
            }
            "policy" | "grant" => self.grant(arg),
            "deny" => self.add_denial(arg),
            "revoke" => self.revoke(arg),
            "catalog" => self.catalog_status(),
            "mode" => {
                self.mode = match arg {
                    "compliant" => OptimizerMode::Compliant,
                    "traditional" => OptimizerMode::Traditional,
                    other => {
                        return Err(GeoError::Execution(format!(
                            "unknown mode `{other}` (compliant|traditional)"
                        )))
                    }
                };
                Ok(format!("optimizer mode: {arg}\n"))
            }
            "at" => {
                if arg.is_empty() || arg == "anywhere" {
                    self.result_location = None;
                    Ok("result location: optimizer's choice\n".to_string())
                } else {
                    let site = Location::new(arg);
                    self.engine()?.check_site(&site)?;
                    self.result_location = Some(site);
                    Ok(format!("result location: {arg}\n"))
                }
            }
            "workers" => {
                if arg.is_empty() {
                    return Ok(format!("workers: {}\n", self.config.workers_per_site));
                }
                let n: usize = arg.parse().map_err(|_| {
                    GeoError::Execution(format!("bad worker count `{arg}` (positive integer)"))
                })?;
                if n == 0 {
                    return Err(GeoError::Execution(
                        "bad worker count `0` (positive integer)".into(),
                    ));
                }
                self.config.workers_per_site = n;
                Ok(format!("workers: {n}\n"))
            }
            "metrics" => {
                let mut out = match &self.last_metrics {
                    Some(m) => format!("{m}"),
                    None => "no runtime metrics yet; run a query first\n".to_string(),
                };
                if let Some(f) = &self.last_failover {
                    out.push_str(f);
                }
                if let Ok(eng) = self.engine() {
                    let memo = eng.implication_memo();
                    let _ = writeln!(
                        out,
                        "policy memo: {} hits, {} misses, {} cached verdicts",
                        memo.hits(),
                        memo.misses(),
                        memo.len(),
                    );
                }
                Ok(out)
            }
            "explain" => self.explain(arg),
            "adhoc" => self.adhoc(arg),
            "server" => self.server_burst(arg),
            "tenants" => self.tenants_table(),
            "faults" => self.set_faults(arg),
            "hedge" => self.set_hedge(arg),
            "health" => self.health(),
            "deadline" => self.set_deadline(arg),
            "cancel" => {
                self.cancel.cancel();
                Ok(
                    "cancellation armed: the next statement unwinds with a typed \
                    `cancelled` error\n"
                        .to_string(),
                )
            }
            other => Err(GeoError::Execution(format!(
                "unknown command `\\{other}`; try \\help"
            ))),
        }
    }

    fn load_demo(&mut self, which: &str) -> Result<String> {
        let mut parts = which.split_whitespace();
        let name = parts.next().unwrap_or("carco");
        match name {
            "carco" => {
                self.service = None;
                self.engine = Some(demo::carco()?);
                self.attach_catalog();
                Ok(
                    "loaded CarCo demo: customer@N, orders@E, supply@A with P_N/P_E/P_A\n"
                        .to_string(),
                )
            }
            "tpch" => {
                let sf = match parts.next() {
                    None => 0.002,
                    Some(s) => s
                        .parse::<f64>()
                        .ok()
                        .filter(|sf| sf.is_finite() && *sf > 0.0)
                        .ok_or_else(|| {
                            GeoError::Execution(format!(
                                "bad scale factor `{s}`: expected a finite number greater \
                                 than 0 (e.g. \\demo tpch 0.002)"
                            ))
                        })?,
                };
                self.service = None;
                self.engine = Some(demo::tpch(sf)?);
                self.attach_catalog();
                Ok(format!(
                    "loaded TPC-H demo at SF {sf}: Table 2 distribution over L1–L5, CR+A policies\n"
                ))
            }
            other => Err(GeoError::Execution(format!(
                "unknown demo `{other}` (carco|tpch [sf])"
            ))),
        }
    }

    fn tables(&self) -> Result<String> {
        let eng = self.engine()?;
        let mut out = String::new();
        for db in eng.catalog().databases() {
            let _ = writeln!(out, "{} @ {}", db.name, db.location);
            for t in db.tables() {
                let rows = t
                    .data()
                    .map(|d| format!("{} rows", d.row_count()))
                    .unwrap_or_else(|| format!("~{} rows (stats only)", t.stats.row_count));
                let _ = writeln!(out, "  {} {} — {rows}", t.table.table, t.schema);
            }
        }
        Ok(out)
    }

    /// `\deny <expression>` — closed-world expansion: the denial becomes
    /// the grants of everything else, each appended to the catalog log
    /// like a `\grant`.
    fn add_denial(&mut self, text: &str) -> Result<String> {
        let full = format!("deny {text}");
        let denial = geoqp_parser::parse_denial(if text.starts_with("deny") {
            text
        } else {
            &full
        })?;
        let eng = self.engine()?;
        let entries = eng.catalog().resolve(&denial.table);
        let entry = entries
            .first()
            .ok_or_else(|| GeoError::Policy(format!("unknown table `{}`", denial.table)))?;
        let grants = expand_denials(
            &TableRef::bare(&denial.table.table),
            &entry.schema,
            &[denial],
            eng.catalog().locations(),
        )?;
        let svc = self.catalog_service()?;
        let mut out = String::new();
        for g in grants {
            let _ = writeln!(out, "expanded grant: {g}");
            svc.grant(g)?;
        }
        self.refresh_engine(&svc, svc.head())?;
        Ok(out)
    }

    /// (Re)build the catalog service over the loaded engine's policies:
    /// the engine's policy set becomes log sequence 0.
    fn attach_catalog(&mut self) {
        self.churn = self
            .engine
            .as_ref()
            .map(|eng| Arc::new(CatalogService::for_engine(eng)));
    }

    fn catalog_service(&self) -> Result<Arc<CatalogService>> {
        self.churn
            .as_ref()
            .map(Arc::clone)
            .ok_or_else(|| GeoError::Execution("no deployment loaded; try \\demo carco".into()))
    }

    /// Re-admit the session under the catalog head `pin`.
    fn refresh_engine(&mut self, svc: &CatalogService, pin: u64) -> Result<()> {
        self.engine = Some(self.engine()?.fork_with_policies(svc.snapshot(pin)?));
        Ok(())
    }

    /// `\grant ship <attrs> from <table> to <locs> …` (or `\policy …`) —
    /// append a grant to the catalog log, the one way a session adds a
    /// policy. The new policy takes effect for queries admitted
    /// from the new head onward; it never interrupts in-flight work.
    fn grant(&mut self, text: &str) -> Result<String> {
        let expr = geoqp_parser::parse_policy(text)?;
        let display = expr.to_string();
        let svc = self.catalog_service()?;
        let pin = svc.grant(expr)?;
        self.refresh_engine(&svc, pin)?;
        let pid = svc
            .find_live(&display)
            .expect("the grant just appended is live at the head");
        Ok(format!(
            "granted p{pid}: {display}\ncatalog head: seq {pin}\n"
        ))
    }

    /// `\revoke <pid>|<expression>` — append a revocation and re-admit
    /// the session at the new head. The shell runs one statement at a
    /// time, so none is in flight to catch (`\server` tenants keep
    /// catalogs of their own).
    fn revoke(&mut self, arg: &str) -> Result<String> {
        if arg.is_empty() {
            return Err(GeoError::Execution(
                "usage: \\revoke <pid>|<policy expression>; \\catalog lists pids".into(),
            ));
        }
        let svc = self.catalog_service()?;
        let pid = match arg.parse::<u64>() {
            Ok(pid) => pid,
            Err(_) => {
                let display = geoqp_parser::parse_policy(arg)?.to_string();
                svc.find_live(&display).ok_or_else(|| {
                    GeoError::Policy(format!(
                        "no live policy matches `{display}`; \\catalog lists pids"
                    ))
                })?
            }
        };
        let pin = svc.revoke(pid)?;
        self.refresh_engine(&svc, pin)?;
        Ok(format!(
            "revoked p{pid}\ncatalog head: seq {pin}; the next statement plans under it\n"
        ))
    }

    /// `\catalog` — the catalog log's state: head pin, live policies with
    /// their stable pids, and the append-only log.
    fn catalog_status(&self) -> Result<String> {
        let svc = self.catalog_service()?;
        let head = svc.head();
        let mut out = format!("catalog head: seq {head}\nlive policies:\n");
        let live = svc.live_policies();
        if live.is_empty() {
            out.push_str("  (none — nothing may leave its site)\n");
        }
        for (pid, expr) in live {
            let _ = writeln!(out, "  p{pid}: {expr}");
        }
        let history = svc.history();
        if !history.is_empty() {
            out.push_str("log:\n");
            for line in history {
                let _ = writeln!(out, "  {line}");
            }
        }
        Ok(out)
    }

    /// `\faults` shows the active plan, `\faults off` clears it, anything
    /// else is parsed as a fault spec (`crash:L2; flaky:L1-L3:0.5@..8`),
    /// optionally with a leading `seed=N;` element.
    fn set_faults(&mut self, arg: &str) -> Result<String> {
        if arg.is_empty() {
            return Ok(match &self.faults {
                None => "faults: off\n".to_string(),
                Some(f) => format!("faults: active (seed {})\n", f.seed()),
            });
        }
        if arg == "off" {
            self.faults = None;
            return Ok("faults: off\n".to_string());
        }
        let mut seed = 42u64;
        let mut spec: Vec<&str> = Vec::new();
        for part in arg.split(';').map(str::trim) {
            match part.strip_prefix("seed=") {
                // A schedule is a function of (seed, spec): a seed that
                // does not parse must not silently become another one.
                Some(s) => {
                    let s = s.trim();
                    seed = s.parse().map_err(|_| {
                        GeoError::Execution(format!("bad fault seed `{s}` (seed=<u64>)"))
                    })?
                }
                None => spec.push(part),
            }
        }
        let plan = FaultPlan::parse(&spec.join(";"), seed).map_err(GeoError::Execution)?;
        self.faults = Some(plan);
        Ok(format!("faults: active (seed {seed})\n"))
    }

    /// `\hedge` shows the current setting, `\hedge off` disables the
    /// gray-failure defense, `\hedge on` enables it with defaults, and
    /// `\hedge <ms>` enables it with an explicit backup-launch delay.
    fn set_hedge(&mut self, arg: &str) -> Result<String> {
        match arg {
            "" => Ok(match &self.hedge {
                None => "hedge: off\n".to_string(),
                Some(h) => format!(
                    "hedge: on (delay {:.1} ms, hedge ratio {:.2}, trip ratio {:.2})\n",
                    h.delay_ms,
                    HealthConfig::HEDGE_RATIO,
                    HealthConfig::TRIP_RATIO
                ),
            }),
            "off" => {
                self.hedge = None;
                Ok("hedge: off\n".to_string())
            }
            "on" => {
                self.hedge = Some(HedgeConfig::default());
                Ok("hedge: on (defaults)\n".to_string())
            }
            ms => {
                let delay: f64 = ms.parse().map_err(|_| {
                    GeoError::Execution(format!("bad hedge setting `{ms}` (on|off|<delay ms>)"))
                })?;
                if !delay.is_finite() || delay < 0.0 {
                    return Err(GeoError::Execution(format!(
                        "bad hedge setting `{ms}` (on|off|<delay ms>)"
                    )));
                }
                self.hedge = Some(HedgeConfig {
                    delay_ms: delay,
                    ..HedgeConfig::default()
                });
                Ok(format!("hedge: on (delay {delay:.1} ms)\n"))
            }
        }
    }

    /// `\health` renders the per-link-lane breaker states the last hedged
    /// query observed.
    fn health(&self) -> Result<String> {
        let Some(reports) = &self.last_health else {
            return Ok(
                "no link health yet; enable \\hedge and run a query under \\faults\n".to_string(),
            );
        };
        if reports.is_empty() {
            return Ok("link health: no cross-site transfers observed\n".to_string());
        }
        let mut out = String::new();
        for r in reports {
            let _ = writeln!(
                out,
                "{} -> {} (lane {}): breaker {}, ewma {:.2}x model, {} obs, \
                 {} consecutive failure(s), {} trip(s)",
                r.from,
                r.to,
                r.lane,
                r.state.breaker,
                r.state.ewma_ratio,
                r.state.observations,
                r.state.consecutive_failures,
                r.state.trips,
            );
        }
        Ok(out)
    }

    /// `\deadline` shows the active budget, `\deadline off` clears it,
    /// `\deadline <ms>` sets a simulated-clock completion budget enforced
    /// at batch granularity on every subsequent query.
    fn set_deadline(&mut self, arg: &str) -> Result<String> {
        if arg.is_empty() {
            return Ok(match self.deadline {
                None => "deadline: off\n".to_string(),
                Some(d) => format!("deadline: {:.1} ms simulated\n", d.budget_ms),
            });
        }
        if arg == "off" {
            self.deadline = None;
            return Ok("deadline: off\n".to_string());
        }
        let ms: f64 = arg
            .parse()
            .map_err(|_| GeoError::Execution(format!("bad deadline `{arg}` (milliseconds|off)")))?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(GeoError::Execution(format!(
                "bad deadline `{arg}` (milliseconds|off)"
            )));
        }
        self.deadline = Some(QueryDeadline::new(ms));
        Ok(format!("deadline: {ms:.1} ms simulated\n"))
    }

    /// Whether queries run *controlled* — failover budget, checkpoints,
    /// and the control surface threaded through execution —
    /// which a fault plan, a deadline, an armed cancellation, or hedging
    /// each require.
    fn controlled(&self) -> bool {
        self.faults.is_some()
            || self.deadline.is_some()
            || self.cancel.is_cancelled()
            || self.hedge.is_some()
    }

    /// Record the failover counters for `\metrics` and render the summary
    /// fragment appended to the result line.
    fn note_failover(&mut self, result: &QueryOutcome) -> String {
        let mut summary = format!(
            "failover: {} replans, excluded {}; checkpoints: {} hits, {} misses; \
             {} bytes resumed, {} bytes recomputed\n",
            result.replans,
            if result.excluded.is_empty() {
                "∅".to_string()
            } else {
                result.excluded.to_string()
            },
            result.checkpoint_hits,
            result.checkpoint_misses,
            result.resumed_bytes,
            result.recomputed_bytes,
        );
        if result.hedges_launched > 0 || result.breaker_trips > 0 {
            let _ = writeln!(
                summary,
                "hedging: {} launched / {} won, {} relay(s), {} breaker trip(s)",
                result.hedges_launched, result.hedges_won, result.relays_used, result.breaker_trips,
            );
        }
        if !result.avoided_links.is_empty() {
            let links: Vec<String> = result
                .avoided_links
                .iter()
                .map(|(a, b)| format!("{a}->{b}"))
                .collect();
            let _ = writeln!(summary, "avoided gray link(s): {}", links.join(", "));
        }
        if !result.waived_links.is_empty() {
            let links: Vec<String> = result
                .waived_links
                .iter()
                .map(|(a, b)| format!("{a}->{b}"))
                .collect();
            let _ = writeln!(
                summary,
                "waived condemnation(s) (no compliant detour, riding the gray link): {}",
                links.join(", ")
            );
        }
        self.last_health = self.hedge.as_ref().map(|_| result.link_health.clone());
        self.last_failover = Some(summary);
        format!(
            "{} ckpt hits/{} misses, {} B resumed",
            result.checkpoint_hits, result.checkpoint_misses, result.resumed_bytes
        )
    }

    fn explain(&mut self, sql: &str) -> Result<String> {
        let eng = self.engine()?;
        let optimized = eng.optimize_sql(sql, self.mode, self.result_location.clone())?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "annotated plan (ℰ = execution trait, 𝒮 = shipping trait):"
        );
        out.push_str(&geoqp_core::explain::display_annotated(
            &eng.annotate(&optimized)?,
        ));
        let _ = writeln!(
            out,
            "\nphysical plan (result at {}):",
            optimized.result_location
        );
        out.push_str(&geoqp_plan::display::display_physical(&optimized.physical));
        let audit = match eng.audit(&optimized.physical) {
            Ok(()) => "compliant".to_string(),
            Err(e) => format!("NON-COMPLIANT — {e}"),
        };
        let _ = writeln!(
            out,
            "\naudit: {audit}\noptimized in {:.2} ms (η = {}, {} memo groups)",
            optimized.stats.total_ms, optimized.stats.eta, optimized.stats.memo_groups
        );
        Ok(out)
    }

    /// `\adhoc [n [seed]]` — generate seeded ad-hoc queries over the
    /// loaded TPC-H deployment, show their SQL, and check that each one
    /// plans under the session's optimizer mode.
    fn adhoc(&mut self, arg: &str) -> Result<String> {
        let mut parts = arg.split_whitespace();
        let n: usize = match parts.next() {
            None => 5,
            Some(s) => s
                .parse()
                .map_err(|_| GeoError::Execution(format!("bad query count `{s}`")))?,
        };
        let seed: u64 = match parts.next() {
            None => 2021,
            Some(s) => s
                .parse()
                .map_err(|_| GeoError::Execution(format!("bad seed `{s}`")))?,
        };
        let eng = self.engine()?;
        let queries = geoqp_tpch::adhoc::generate_adhoc(eng.catalog(), n, seed)?;
        let mut out = format!("{n} ad-hoc queries (seed {seed}):\n");
        for q in &queries {
            let verdict = match eng.optimize(&q.plan, self.mode, self.result_location.clone()) {
                Ok(opt) => format!("plans, est ship {:.1} ms", opt.stats.est_ship_cost_ms),
                Err(e) => format!("REJECTED: {}", e.kind()),
            };
            let _ = writeln!(
                out,
                "  #{:<4} {}{} — {verdict}\n        {}",
                q.id,
                q.tables.join(" ⋈ "),
                if q.aggregated { " [agg]" } else { "" },
                q.sql
            );
        }
        Ok(out)
    }

    /// `\server [n [seed]]` — drive an `n`-query concurrent burst through
    /// a four-tenant [`QueryService`] over the loaded deployment. The
    /// service (one tenant per policy template, disjoint generation
    /// seeds) is created on first use and kept for the session, so
    /// repeated bursts accumulate counters and reuse the plan cache;
    /// `\tenants` renders them.
    fn server_burst(&mut self, arg: &str) -> Result<String> {
        let mut parts = arg.split_whitespace();
        let n: usize = match parts.next() {
            None => 8,
            Some(s) => s
                .parse()
                .map_err(|_| GeoError::Execution(format!("bad query count `{s}`")))?,
        };
        let seed: u64 = match parts.next() {
            None => 2021,
            Some(s) => s
                .parse()
                .map_err(|_| GeoError::Execution(format!("bad seed `{s}`")))?,
        };
        let eng = self.engine()?;
        let catalog = Arc::clone(eng.catalog());
        let queries = geoqp_tpch::adhoc::generate_adhoc(&catalog, n, seed)?;
        if self.service.is_none() {
            let topology = eng.topology().clone();
            let svc = QueryService::new(ServiceConfig {
                workers: 4,
                cache_capacity: 256,
                columnar: self.config.columnar,
                max_replans: 4,
            });
            let mut tenants = Vec::new();
            for (i, template) in [
                PolicyTemplate::T,
                PolicyTemplate::C,
                PolicyTemplate::CR,
                PolicyTemplate::CRA,
            ]
            .iter()
            .enumerate()
            {
                let policies =
                    geoqp_tpch::generate_policies(&catalog, *template, 10, 2021 ^ (i as u64 + 1))?;
                tenants.push(svc.add_tenant(
                    template.name(),
                    Arc::clone(&catalog),
                    Arc::new(policies),
                    topology.clone(),
                    TenantConfig {
                        max_inflight: 4,
                        max_queue: 4096,
                        quantum: 1,
                    },
                ));
            }
            self.service = Some(ServerSession { svc, tenants });
        }
        let session = self.service.as_ref().expect("service just created");
        // Submit the whole burst before waiting on any ticket: all n
        // queries are in flight together, contending through admission,
        // the DRR scheduler, and the shared plan cache.
        let mut tickets = Vec::with_capacity(queries.len());
        let (mut rejected, mut failed, mut cached) = (0u64, 0u64, 0u64);
        for (i, q) in queries.iter().enumerate() {
            let tenant = session.tenants[i % session.tenants.len()];
            match session.svc.submit(tenant, QueryRequest::new(&q.sql)) {
                Ok(t) => tickets.push(t),
                Err(e) if e.kind() == "admission" => rejected += 1,
                Err(e) => return Err(e),
            }
        }
        let mut completed = 0u64;
        for ticket in tickets {
            match ticket.wait() {
                Ok(reply) => {
                    completed += 1;
                    cached += u64::from(reply.cached);
                }
                Err(_) => failed += 1,
            }
        }
        let cs = session.svc.cache_stats();
        Ok(format!(
            "burst: {n} queries (seed {seed}) across {} tenants — {completed} completed, \
             {failed} failed, {rejected} rejected; {cached} served from the plan cache \
             (service hit rate {:.1}%); \\tenants for the per-tenant breakdown\n",
            session.tenants.len(),
            cs.hit_rate() * 100.0,
        ))
    }

    /// `\tenants` — the per-tenant service counters accumulated over
    /// every `\server` burst this session.
    fn tenants_table(&self) -> Result<String> {
        let Some(session) = &self.service else {
            return Ok("no service yet; run \\server <n> [seed] first\n".to_string());
        };
        let mut out = format!(
            "{:<8}{:>9}{:>9}{:>9}{:>8}{:>8}{:>11}{:>10}{:>10}\n",
            "tenant",
            "admitted",
            "rejected",
            "inflight",
            "queued",
            "done",
            "cache-hit",
            "p50 ms",
            "p99 ms",
        );
        for id in &session.tenants {
            let s = session.svc.tenant_stats(*id)?;
            let _ = writeln!(
                out,
                "{:<8}{:>9}{:>9}{:>9}{:>8}{:>8}{:>10.1}%{:>10.1}{:>10.1}",
                s.name,
                s.admitted,
                s.rejected,
                s.inflight,
                s.queued,
                s.completed,
                s.cache_hit_rate() * 100.0,
                s.p50_ms,
                s.p99_ms,
            );
        }
        let cs = session.svc.cache_stats();
        let _ = writeln!(
            out,
            "plan cache: {} hits, {} misses, {} evictions, {}/{} entries",
            cs.hits, cs.misses, cs.evictions, cs.len, cs.capacity,
        );
        Ok(out)
    }

    fn sql(&mut self, sql: &str) -> Result<String> {
        let eng = self.engine()?;
        let controlled = self.controlled();
        // Without a fault plan, an empty one threads the deadline/cancel
        // controls (and link-health scoring) through the same path.
        let no_faults = FaultPlan::new(0);
        let mut opts = if controlled {
            let faults = self.faults.as_ref().unwrap_or(&no_faults);
            ExecOptions {
                deadline: self.deadline,
                cancel: Some(self.cancel.clone()),
                hedge: self.hedge.clone(),
                ..ExecOptions::failover(faults, &RetryPolicy::default(), 4)
            }
        } else {
            ExecOptions::default()
        };
        opts.runtime = self.config.clone();
        let attempt = eng.run_sql(sql, self.mode, self.result_location.clone(), &opts);
        // An armed cancellation consumes itself on the statement it
        // unwound, so the session keeps working afterwards.
        self.cancel.reset();
        let (optimized, result) = attempt?;
        let mut out = render_rows(&result.rows, &result.physical.schema.names());
        let audit = match eng.audit(&result.physical) {
            Ok(()) => "compliant",
            Err(_) => "NON-COMPLIANT",
        };
        // One summary line: rows; what the WAN carried and when the
        // result completed; the failover story when the run was
        // controlled; the audit verdict.
        let _ = write!(
            out,
            "({} rows at {}; {} transfers, {} bytes",
            result.rows.len(),
            optimized.result_location,
            result.transfers.transfer_count(),
            result.transfers.total_bytes(),
        );
        let m = &result.metrics;
        let _ = write!(
            out,
            "; completion {:.1} ms of {:.1} ms network",
            m.completion_ms, m.network_ms
        );
        if !controlled {
            let _ = write!(out, " ({:.2}x overlap)", m.overlap_speedup());
        }
        if controlled {
            let ckpt = self.note_failover(&result);
            let _ = write!(
                out,
                "; {} faults, {} replans, excluded {}; {ckpt}",
                result.transfers.fault_count(),
                result.replans,
                if result.excluded.is_empty() {
                    "∅".to_string()
                } else {
                    result.excluded.to_string()
                },
            );
        }
        let _ = writeln!(out, "; plan {audit}; \\metrics for detail)");
        self.last_metrics = Some(result.metrics);
        Ok(out)
    }
}

/// Render rows as an aligned text table (capped at 40 rows).
pub fn render_rows(rows: &Rows, columns: &[&str]) -> String {
    const MAX: usize = 40;
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(rows.len().min(MAX) + 1);
    cells.push(columns.iter().map(|c| c.to_string()).collect());
    for row in rows.iter().take(MAX) {
        cells.push(row.iter().map(|v| v.to_string()).collect());
    }
    let ncols = columns.len();
    let mut widths = vec![0usize; ncols];
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in cells.iter().enumerate() {
        for (i, c) in row.iter().enumerate() {
            let _ = write!(out, "{:width$}  ", c, width = widths[i]);
        }
        out.push('\n');
        if ri == 0 {
            for w in &widths {
                let _ = write!(out, "{}  ", "-".repeat(*w));
            }
            out.push('\n');
        }
    }
    if rows.len() > MAX {
        let _ = writeln!(out, "… {} more rows", rows.len() - MAX);
    }
    out
}

const HELP: &str = "\
commands:
  \\demo carco | tpch [sf]   load a demo deployment
  \\tables                   list databases and tables
  \\locations                list sites
  \\policies                 list dataflow policies (eN: N is the pid
                            \\revoke takes)
  \\grant <expression>       append a grant to the catalog log:
                            ship <attrs> from <t> to <locs> … (takes
                            effect for queries admitted after it)
  \\policy <expression>      same as \\grant
  \\deny <expression>        grant everything a denial leaves open
                            (closed-world expansion), one append each
  \\revoke <pid|expression>  append a revocation (the next statement
                            plans under the new head)
  \\catalog                  catalog head seq, live policies
                            with pids, the log
  \\mode compliant|traditional
  \\workers [n]              morsel workers per site
                            (same rows, bytes, and audits; faster CPU path)
  \\metrics                  per-site/per-edge metrics of the last query,
                            plus policy-memo hit/miss counters
  \\at <location>|anywhere   pin the result location
  \\explain <sql>            show annotated + physical plan
  \\adhoc [n [seed]]         generate seeded ad-hoc queries over the loaded
                            TPC-H deployment and show their SQL
  \\server [n [seed]]        drive an n-query concurrent burst through a
                            four-tenant query service (admission control,
                            fair scheduling, shared plan cache) over the
                            loaded deployment
  \\tenants                  per-tenant service counters (admitted,
                            rejected, cache-hit rate, p50/p99) accumulated
                            across \\server bursts
  \\faults <spec>|off        inject faults: crash:L2; drop:L1-L3@2..5;
                            flaky:L1-L2:0.3; delay:L1-L4:50ms;
                            degrade:L1-L4:3x@2..9; loss:L2-L3:0.4@..6;
                            partition:L1,L2@..9; seed=N
  \\hedge on|off|<ms>        gray-failure defense: link health scoring,
                            per-link circuit breakers, compliant hedged
                            backups (<ms> = backup launch delay)
  \\health                   per-link breaker/EWMA state of the last
                            hedged query
  \\deadline <ms>|off        simulated-clock completion budget per query
                            (typed `deadline` error past the budget)
  \\cancel                   cancel the next statement cooperatively
                            (typed `cancelled` error, all workers join)
  \\quit                     exit
anything else is executed as SQL\n";

mod demo {
    use super::*;
    use geoqp_common::{DataType, Field, LocationSet, Schema, Value};
    use geoqp_storage::{Table, TableStats};

    /// The paper's running example, with a little data.
    pub fn carco() -> Result<Engine> {
        let mut catalog = Catalog::new();
        catalog.add_database("db-n", Location::new("N"))?;
        catalog.add_database("db-e", Location::new("E"))?;
        catalog.add_database("db-a", Location::new("A"))?;
        let customer = catalog.add_table(
            "db-n",
            "customer",
            Schema::new(vec![
                Field::new("c_custkey", DataType::Int64),
                Field::new("c_name", DataType::Str),
                Field::new("c_acctbal", DataType::Float64),
            ])?,
            TableStats::new(3, 40.0),
        )?;
        let orders = catalog.add_table(
            "db-e",
            "orders",
            Schema::new(vec![
                Field::new("o_custkey", DataType::Int64),
                Field::new("o_ordkey", DataType::Int64),
                Field::new("o_totprice", DataType::Float64),
            ])?,
            TableStats::new(4, 24.0),
        )?;
        let supply = catalog.add_table(
            "db-a",
            "supply",
            Schema::new(vec![
                Field::new("s_ordkey", DataType::Int64),
                Field::new("s_quantity", DataType::Int64),
            ])?,
            TableStats::new(6, 16.0),
        )?;
        customer.set_data(Table::new(
            Arc::clone(&customer.schema),
            vec![
                vec![Value::Int64(1), Value::str("alice"), Value::Float64(120.0)],
                vec![Value::Int64(2), Value::str("bob"), Value::Float64(75.5)],
                vec![Value::Int64(3), Value::str("carol"), Value::Float64(310.0)],
            ],
        )?)?;
        orders.set_data(Table::new(
            Arc::clone(&orders.schema),
            vec![
                vec![Value::Int64(1), Value::Int64(10), Value::Float64(55.0)],
                vec![Value::Int64(2), Value::Int64(11), Value::Float64(25.0)],
                vec![Value::Int64(3), Value::Int64(12), Value::Float64(90.0)],
                vec![Value::Int64(1), Value::Int64(13), Value::Float64(42.0)],
            ],
        )?)?;
        supply.set_data(Table::new(
            Arc::clone(&supply.schema),
            vec![
                vec![Value::Int64(10), Value::Int64(5)],
                vec![Value::Int64(11), Value::Int64(9)],
                vec![Value::Int64(12), Value::Int64(4)],
                vec![Value::Int64(12), Value::Int64(2)],
                vec![Value::Int64(13), Value::Int64(7)],
                vec![Value::Int64(10), Value::Int64(1)],
            ],
        )?)?;
        let mut policies = PolicyCatalog::new();
        for text in [
            "ship c_custkey, c_name from db-n.customer to *",
            "ship o_totprice as aggregates sum from db-e.orders to A group by o_custkey, o_ordkey",
            "ship o_custkey, o_ordkey from db-e.orders to N, A",
            "ship s_quantity as aggregates sum from db-a.supply to E group by s_ordkey",
        ] {
            let e = geoqp_parser::parse_policy(text)?;
            let entry = catalog.resolve_one(&e.table)?;
            policies.register(e, &entry.schema)?;
        }
        let topo = NetworkTopology::uniform(LocationSet::from_iter(["N", "E", "A"]), 120.0, 100.0);
        Ok(Engine::new(Arc::new(catalog), Arc::new(policies), topo))
    }

    /// The paper's evaluation deployment, populated at a small scale.
    pub fn tpch(sf: f64) -> Result<Engine> {
        let catalog = Arc::new(geoqp_tpch::paper_catalog(sf));
        geoqp_tpch::populate(&catalog, sf, 7)?;
        let policies =
            geoqp_tpch::generate_policies(&catalog, geoqp_tpch::PolicyTemplate::CRA, 10, 2021)?;
        Ok(Engine::new(
            catalog,
            Arc::new(policies),
            NetworkTopology::paper_wan(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carco_session_end_to_end() {
        let mut sh = Shell::new();
        assert!(
            sh.run_command("SELECT 1 FROM x").is_err(),
            "no deployment yet"
        );
        sh.run_command("\\demo carco").unwrap();
        let out = sh.run_command("\\tables").unwrap();
        assert!(out.contains("customer"));
        assert!(out.contains("db-a @ A"));

        let out = sh
            .run_command(
                "SELECT c_name, SUM(o_totprice) AS total FROM customer, orders \
                 WHERE c_custkey = o_custkey GROUP BY c_name ORDER BY c_name",
            )
            .unwrap();
        assert!(out.contains("alice"), "{out}");
        assert!(out.contains("plan compliant"));

        // Raw account balances cannot leave N: pin the result to E.
        sh.run_command("\\at E").unwrap();
        let err = sh
            .run_command("SELECT c_name, c_acctbal FROM customer")
            .unwrap_err();
        assert_eq!(err.kind(), "rejected");
        sh.run_command("\\at N").unwrap();
        assert!(sh
            .run_command("SELECT c_name, c_acctbal FROM customer")
            .is_ok());
    }

    #[test]
    fn unknown_site_is_refused_and_the_session_keeps_its_pin() {
        let mut sh = Shell::new();
        sh.run_command("\\demo tpch 0.001").unwrap();
        sh.run_command("\\at L3").unwrap();
        // A typo is not a policy refusal: it names the site and the known
        // ones, and must not poison the statements that follow.
        let err = sh.run_command("\\at L9").unwrap_err();
        assert_ne!(err.kind(), "rejected", "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("L9") && msg.contains("L1") && msg.contains("L5"),
            "{msg}"
        );
        let out = sh.run_command("SELECT r_name FROM region").unwrap();
        assert!(
            out.contains("rows at L3"),
            "result still pinned to L3: {out}"
        );
    }

    #[test]
    fn explain_and_modes() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        let out = sh
            .run_command(
                "\\explain SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey",
            )
            .unwrap();
        assert!(out.contains("ℰ="));
        assert!(out.contains("audit: compliant"));
        sh.run_command("\\mode traditional").unwrap();
        let out = sh
            .run_command(
                "\\explain SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey",
            )
            .unwrap();
        assert!(out.contains("physical plan"));
    }

    #[test]
    fn adhoc_command_generates_and_plans() {
        let mut sh = Shell::new();
        assert!(sh.run_command("\\adhoc").is_err(), "no deployment yet");
        sh.run_command("\\demo tpch 0.001").unwrap();
        let out = sh.run_command("\\adhoc 3 7").unwrap();
        assert_eq!(out.matches("SELECT ").count(), 3, "{out}");
        assert!(out.contains("plans, est ship"), "{out}");
        assert_eq!(
            out,
            sh.run_command("\\adhoc 3 7").unwrap(),
            "same seed must print the same workload"
        );
        assert!(sh.run_command("\\adhoc nope").is_err());
        assert!(sh.run_command("\\help").unwrap().contains("\\adhoc"));
    }

    #[test]
    fn policies_can_be_added_live() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        // acctbal is not shippable...
        sh.run_command("\\at E").unwrap();
        assert!(sh.run_command("SELECT c_acctbal FROM customer").is_err());
        // ...until a policy grants it.
        sh.run_command("\\policy ship c_acctbal from customer to E")
            .unwrap();
        let out = sh.run_command("SELECT c_acctbal FROM customer").unwrap();
        assert!(out.contains("rows at E"));
        let listed = sh.run_command("\\policies").unwrap();
        assert!(listed.contains("c_acctbal"));
    }

    #[test]
    fn denials_expand_in_session() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        let out = sh
            .run_command("\\deny ship c_acctbal from customer to *")
            .unwrap();
        assert!(out.contains("expanded grant"), "{out}");
        // The expansion grants everything else everywhere, so the name
        // now flows freely...
        sh.run_command("\\at A").unwrap();
        assert!(sh.run_command("SELECT c_name FROM customer").is_ok());
        // ...but balances still do not.
        assert!(sh.run_command("SELECT c_acctbal FROM customer").is_err());
    }

    #[test]
    fn tpch_demo_loads_and_answers() {
        let mut sh = Shell::new();
        sh.run_command("\\demo tpch 0.001").unwrap();
        let out = sh
            .run_command(
                "SELECT n_name, COUNT(s_suppkey) AS n FROM nation, supplier \
                 WHERE n_nationkey = s_nationkey GROUP BY n_name ORDER BY n DESC LIMIT 3",
            )
            .unwrap();
        assert!(out.contains("rows at"), "{out}");
    }

    #[test]
    fn faults_inject_and_failover_in_session() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        assert_eq!(sh.run_command("\\faults").unwrap(), "faults: off\n");

        // A transient crash of A: retries ride out the window.
        let out = sh.run_command("\\faults seed=7; crash:A@0..2").unwrap();
        assert!(out.contains("seed 7"), "{out}");
        let out = sh
            .run_command("SELECT c_name FROM customer ORDER BY c_name")
            .unwrap();
        assert!(out.contains("alice"), "{out}");
        assert!(out.contains("plan compliant"), "{out}");

        sh.run_command("\\faults off").unwrap();
        assert_eq!(sh.run_command("\\faults").unwrap(), "faults: off\n");
        assert!(sh.run_command("\\faults crash:").is_err(), "malformed spec");
    }

    #[test]
    fn every_query_reports_runtime_metrics() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        let out = sh.run_command("\\metrics").unwrap();
        assert!(out.contains("no runtime metrics yet"), "{out}");
        // One runtime: there is no switch to choose another.
        assert!(sh.run_command("\\runtime parallel").is_err());

        let sql = "SELECT c_name, SUM(o_totprice) AS total FROM customer, orders \
                   WHERE c_custkey = o_custkey GROUP BY c_name ORDER BY c_name";
        let out = sh.run_command(sql).unwrap();
        assert!(out.contains("alice"), "{out}");
        assert!(out.contains("; completion "), "{out}");
        assert!(out.contains("plan compliant"), "{out}");

        let metrics = sh.run_command("\\metrics").unwrap();
        assert!(metrics.contains("completion"), "{metrics}");
        assert!(metrics.contains("site"), "{metrics}");

        // Under faults: a transient crash rides out on retries.
        sh.run_command("\\faults seed=7; crash:A@0..2").unwrap();
        let out = sh
            .run_command("SELECT c_name FROM customer ORDER BY c_name")
            .unwrap();
        assert!(out.contains("alice"), "{out}");
        assert!(out.contains("plan compliant"), "{out}");
    }

    #[test]
    fn columnar_session_matches_row_session() {
        let sql = "SELECT c_name, SUM(o_totprice) AS total FROM customer, orders \
                   WHERE c_custkey = o_custkey GROUP BY c_name ORDER BY c_name";
        // The session runs columnar; the row interpreter is the oracle.
        let run = |columnar: bool, commands: &[&str]| {
            let mut sh = Shell::new();
            assert!(sh.config.columnar);
            sh.config.columnar = columnar;
            sh.run_command("\\demo carco").unwrap();
            for c in commands {
                sh.run_command(c).unwrap();
            }
            sh.run_command(sql).unwrap()
        };
        // Byte-for-byte identical output (rows, order, bytes, audit
        // verdict) between the row and columnar engines, plain and under
        // faults (the resilient path).
        let sessions: [&[&str]; 2] = [&[], &["\\faults seed=7; crash:A@0..2"]];
        for commands in sessions {
            let (row, col) = (run(false, commands), run(true, commands));
            assert!(col.contains("plan compliant"), "{col}");
            assert_eq!(col, row, "{commands:?}");
        }
    }

    #[test]
    fn worker_count_is_invisible_in_session_output() {
        let sql = "SELECT c_name, SUM(o_totprice) AS total FROM customer, orders \
                   WHERE c_custkey = o_custkey GROUP BY c_name ORDER BY c_name";
        let run = |commands: &[&str]| {
            let mut sh = Shell::new();
            sh.run_command("\\demo carco").unwrap();
            for c in commands {
                sh.run_command(c).unwrap();
            }
            sh.run_command(sql).unwrap()
        };
        // Morsel workers change CPU scheduling only: the rendered rows,
        // transfer counts, bytes, and audit verdict are identical.
        let one = run(&[]);
        let four = run(&["\\workers 4"]);
        assert!(four.contains("plan compliant"), "{four}");
        assert_eq!(four, one);
        // The resilient (faulted) path is worker-invariant too.
        let flt_one = run(&["\\faults seed=7; crash:A@0..2"]);
        let flt_four = run(&["\\faults seed=7; crash:A@0..2", "\\workers 4"]);
        assert_eq!(flt_four, flt_one);

        // The knob round-trips and rejects junk.
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        assert_eq!(sh.run_command("\\workers").unwrap(), "workers: 1\n");
        assert_eq!(sh.run_command("\\workers 4").unwrap(), "workers: 4\n");
        assert_eq!(sh.run_command("\\workers").unwrap(), "workers: 4\n");
        assert!(sh.run_command("\\workers 0").is_err());
        assert!(sh.run_command("\\workers many").is_err());
    }

    #[test]
    fn metrics_reports_policy_memo_counters() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        let sql = "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey";
        sh.run_command(sql).unwrap();
        let first = sh.run_command("\\metrics").unwrap();
        assert!(first.contains("policy memo:"), "{first}");
        // Re-optimizing the same query must be served from the memo.
        sh.run_command(sql).unwrap();
        let second = sh.run_command("\\metrics").unwrap();
        let hits = |out: &str| -> u64 {
            let line = out.lines().find(|l| l.starts_with("policy memo:")).unwrap();
            line.split_whitespace().nth(2).unwrap().parse().unwrap()
        };
        assert!(hits(&second) > hits(&first), "{second}");
    }

    #[test]
    fn deadline_and_cancel_in_session() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        assert_eq!(sh.run_command("\\deadline").unwrap(), "deadline: off\n");

        // An impossible budget: the first shipped batch trips it.
        sh.run_command("\\deadline 0.001").unwrap();
        let err = sh
            .run_command(
                "SELECT c_name, SUM(o_totprice) AS total FROM customer, orders \
                 WHERE c_custkey = o_custkey GROUP BY c_name",
            )
            .unwrap_err();
        assert_eq!(err.kind(), "deadline", "{err}");

        // A generous budget completes and reports checkpoint counters.
        sh.run_command("\\deadline 1e9").unwrap();
        let out = sh
            .run_command("SELECT c_name FROM customer ORDER BY c_name")
            .unwrap();
        assert!(out.contains("alice"), "{out}");
        assert!(out.contains("ckpt hits"), "{out}");
        let metrics = sh.run_command("\\metrics").unwrap();
        assert!(metrics.contains("failover:"), "{metrics}");

        // Cancellation unwinds exactly one statement, then the session
        // keeps working.
        sh.run_command("\\deadline off").unwrap();
        sh.run_command("\\cancel").unwrap();
        let err = sh.run_command("SELECT c_name FROM customer").unwrap_err();
        assert_eq!(err.kind(), "cancelled", "{err}");
        assert!(sh.run_command("SELECT c_name FROM customer").is_ok());

        assert!(sh.run_command("\\deadline bogus").is_err());
    }

    #[test]
    fn server_burst_and_tenants_table() {
        let mut sh = Shell::new();
        assert!(sh.run_command("\\server 4").is_err(), "no deployment yet");
        sh.run_command("\\demo tpch 0.001").unwrap();
        assert!(
            sh.run_command("\\tenants")
                .unwrap()
                .contains("no service yet"),
            "tenants before any burst"
        );

        let out = sh.run_command("\\server 8 7").unwrap();
        assert!(out.contains("8 queries"), "{out}");
        assert!(out.contains("4 tenants"), "{out}");
        assert!(out.contains("8 completed, 0 failed, 0 rejected"), "{out}");

        let table = sh.run_command("\\tenants").unwrap();
        for tenant in ["T", "C", "CR", "CR+A"] {
            assert!(table.lines().any(|l| l.starts_with(tenant)), "{table}");
        }
        assert!(table.contains("plan cache:"), "{table}");

        // A second burst with the same seed reuses cached plans and
        // accumulates the admitted counters.
        let again = sh.run_command("\\server 8 7").unwrap();
        assert!(again.contains("8 served from the plan cache"), "{again}");
        let table = sh.run_command("\\tenants").unwrap();
        let admitted: u64 = table
            .lines()
            .skip(1)
            .take(4)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(admitted, 16, "{table}");

        // Reloading a demo drops the service (its catalog is stale).
        sh.run_command("\\demo carco").unwrap();
        assert!(sh
            .run_command("\\tenants")
            .unwrap()
            .contains("no service yet"));

        assert!(sh.run_command("\\server nope").is_err());
        assert!(sh.run_command("\\server 4 nope").is_err());
        let help = sh.run_command("\\help").unwrap();
        assert!(help.contains("\\server"));
        assert!(help.contains("\\tenants"));
    }

    #[test]
    fn grant_revoke_and_catalog_verbs() {
        let mut sh = Shell::new();
        assert!(sh.run_command("\\catalog").is_err(), "no deployment yet");
        sh.run_command("\\demo carco").unwrap();

        // The base catalog is log sequence 0; its four policies are live.
        let out = sh.run_command("\\catalog").unwrap();
        assert!(out.contains("seq 0"), "{out}");
        assert_eq!(out.matches("\n  p").count(), 4, "{out}");

        // Balances cannot reach E until a grant appends the permission.
        sh.run_command("\\at E").unwrap();
        assert!(sh.run_command("SELECT c_acctbal FROM customer").is_err());
        let out = sh
            .run_command("\\grant ship c_acctbal from customer to E")
            .unwrap();
        assert!(out.contains("granted p4"), "{out}");
        assert!(out.contains("seq 1"), "{out}");
        assert!(sh.run_command("SELECT c_acctbal FROM customer").is_ok());

        // The catalog shows the grant live and logged.
        let listed = sh.run_command("\\catalog").unwrap();
        assert!(listed.contains("p4: ship c_acctbal"), "{listed}");
        assert!(listed.contains("#1 grant p4"), "{listed}");

        // Revoking by expression resolves the pid; the permission is gone
        // for later queries and the head only moves forward.
        let out = sh
            .run_command("\\revoke ship c_acctbal from customer to E")
            .unwrap();
        assert!(out.contains("revoked p4"), "{out}");
        assert!(out.contains("catalog head: seq 2;"), "{out}");
        assert!(sh.run_command("SELECT c_acctbal FROM customer").is_err());

        // Revoking by pid works too, and dead pids are refused.
        assert!(sh.run_command("\\revoke 0").is_ok());
        assert!(sh.run_command("\\revoke 0").is_err(), "already revoked");
        assert!(sh.run_command("\\revoke").is_err(), "usage error");
        assert!(sh
            .run_command("\\revoke ship c_name from customer to N")
            .is_err());

        // Identical grant sequences replay to identical heads.
        let replay = |cmds: &[&str]| {
            let mut s = Shell::new();
            s.run_command("\\demo carco").unwrap();
            for c in cmds {
                s.run_command(c).unwrap();
            }
            s.run_command("\\catalog").unwrap()
        };
        let a = replay(&["\\grant ship c_acctbal from customer to E", "\\revoke 4"]);
        let b = replay(&["\\grant ship c_acctbal from customer to E", "\\revoke 4"]);
        assert_eq!(a, b, "identical histories list identical catalogs");

        // `\policy` is `\grant`: it appends to the same log, so earlier
        // entries and their pids survive it.
        sh.run_command("\\policy ship c_acctbal from customer to A")
            .unwrap();
        let listed = sh.run_command("\\catalog").unwrap();
        assert!(listed.contains("#1 grant p4"), "{listed}");
        assert!(listed.contains("p5: ship c_acctbal"), "{listed}");

        let help = sh.run_command("\\help").unwrap();
        assert!(help.contains("\\grant"));
        assert!(help.contains("\\revoke"));
        assert!(help.contains("\\catalog"));
    }

    /// `\policies` names each policy by the pid `\revoke` takes, before
    /// and after a revocation: ids are not renumbered per snapshot.
    #[test]
    fn policies_list_the_pids_revoke_takes() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        sh.run_command("\\revoke 0").unwrap();
        let listed = sh.run_command("\\policies").unwrap();
        let ids: Vec<&str> = listed
            .lines()
            .map(|l| l.split(':').next().unwrap())
            .collect();
        assert_eq!(ids, ["e1", "e2", "e3"], "{listed}");
        let e1 = listed.lines().next().unwrap().to_string();
        sh.run_command("\\revoke 1").unwrap();
        let relisted = sh.run_command("\\policies").unwrap();
        assert!(!relisted.contains(&e1), "{relisted}");
        assert_eq!(relisted.lines().count(), 2, "{relisted}");
        assert!(relisted.starts_with("e2:"), "{relisted}");
    }

    #[test]
    fn revocation_mid_flight_replans_or_refuses_typed() {
        // Arm a fault plan so queries run the resilient path (which pins
        // the catalog head at admission), then revoke between queries:
        // the session keeps answering under the new head.
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        sh.run_command("\\faults seed=7; crash:A@0..2").unwrap();
        let out = sh
            .run_command("SELECT c_name FROM customer ORDER BY c_name")
            .unwrap();
        assert!(out.contains("alice"), "{out}");
        sh.run_command("\\grant ship c_acctbal from customer to E")
            .unwrap();
        sh.run_command("\\at E").unwrap();
        assert!(sh.run_command("SELECT c_acctbal FROM customer").is_ok());
        sh.run_command("\\revoke 4").unwrap();
        let err = sh
            .run_command("SELECT c_acctbal FROM customer")
            .unwrap_err();
        assert_eq!(err.kind(), "rejected", "{err}");
    }

    #[test]
    fn unknown_commands_and_bad_sql_error_cleanly() {
        let mut sh = Shell::new();
        sh.run_command("\\demo carco").unwrap();
        assert!(sh.run_command("\\frobnicate").is_err());
        assert!(sh.run_command("SELEKT oops").is_err());
        assert!(sh.run_command("\\mode sideways").is_err());
        assert!(sh.run_command("\\demo nope").is_err());
        for sf in ["abc", "-1", "0", "nan", "inf"] {
            let e = sh.run_command(&format!("\\demo tpch {sf}")).unwrap_err();
            assert!(e.message().contains("bad scale factor"), "{sf}: {e}");
        }
        // A refused load leaves the session on the deployment it had.
        assert!(sh.run_command("SELECT c_name FROM customer").is_ok());
        // A fault seed that does not parse is refused, not replaced, and
        // the session keeps the fault plan it had.
        sh.run_command("\\faults seed=7; crash:A@0..2").unwrap();
        for seed in ["abc", "-1", ""] {
            let e = sh
                .run_command(&format!("\\faults seed={seed}; crash:E"))
                .unwrap_err();
            assert!(e.message().contains("bad fault seed"), "{seed:?}: {e}");
            let status = sh.run_command("\\faults").unwrap();
            assert_eq!(status, "faults: active (seed 7)\n");
        }
    }

    #[test]
    fn row_rendering_aligns_and_caps() {
        let rows: Rows = (0..50)
            .map(|i| vec![geoqp_common::Value::Int64(i), geoqp_common::Value::str("x")])
            .collect();
        let out = render_rows(&rows, &["id", "v"]);
        assert!(out.contains("… 10 more rows"));
        assert!(out.lines().next().unwrap().starts_with("id"));
    }
}
