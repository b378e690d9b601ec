//! The one SHIP adjudicator.
//!
//! The paper has a single cross-site primitive — SHIP, legal iff the
//! destination lies in the producer's shipping trait `𝒮ₙ` — and this
//! module is its single implementation: the [`Runtime`](crate::Runtime)
//! opens one [`ShipStream`] per exchange edge and adjudicates its output
//! batch by batch, and gates every scan and `ResumeScan` read through
//! [`ShipEnv::leaf_gate`] and [`ShipEnv::resume`].
//!
//! Per batch, [`ShipStream::ship_batch`] runs one fixed sequence: cancel
//! poll → revocation check → Definition-1 audit →
//! hedge route choice → fault verdicts under the retry
//! policy → hedge race (every transmitted leg logged) → rescue by a
//! delivered backup → deadline → delivery record. [`ShipStream::finish`]
//! then retains the drained edge in the checkpoint store.
//!
//! The clocks are the adjudicator's own. Attempt `a` of slot `s` on a
//! grid of `n_slots` consults the fault plan at step `(a-1)·n_slots + s`,
//! a function of the edge's place in the plan; every batch of the edge
//! the runtime ships `p`-th re-checks revocations at churn step `p`, so a
//! revocation released at step `p` finds the `p` edges shipped before it
//! drained and checkpointed; a stream pays its link's `α` once, so a
//! hedge route is chosen on marginal `β·b` leg prices; and the deadline
//! reads the stream's critical path — producer ready time plus every
//! batch's race winner.

use crate::checkpoint::{CheckpointSpec, CheckpointStore};
use geoqp_common::{
    ChurnWatch, ColumnarBatch, GeoError, Location, LocationSet, Result, RunControl, Unavailable,
};
use geoqp_exec::{Retried, RetryPolicy};
use geoqp_net::topology::Link;
use geoqp_net::{
    backup_beats, plan_hedge_with, run_hedge, FaultPlan, FaultVerdict, HedgeConfig, LinkHealth,
    NetworkTopology, RelayEvent, TransferLog, TransferRecord,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// What one execution attempt adjudicates against: the WAN model, the
/// fault plan and retry budget, cancellation and deadline, the
/// checkpoint store, the gray-failure defenses, and live policy churn.
/// Built once per attempt and shared by every SHIP edge and leaf read.
#[derive(Clone)]
pub struct ShipEnv<'a> {
    pub(crate) topology: &'a NetworkTopology,
    pub(crate) faults: Option<&'a FaultPlan>,
    pub(crate) retry: RetryPolicy,
    pub(crate) control: RunControl,
    pub(crate) store: Option<&'a CheckpointStore>,
    pub(crate) hedge: Option<(&'a LinkHealth, HedgeConfig)>,
    pub(crate) churn: Option<ChurnWatch>,
}

impl<'a> ShipEnv<'a> {
    /// Transfers charged against `topology`; no faults, no controls.
    pub fn new(topology: &'a NetworkTopology) -> ShipEnv<'a> {
        ShipEnv {
            topology,
            faults: None,
            retry: RetryPolicy::none(),
            control: RunControl::unlimited(),
            store: None,
            hedge: None,
            churn: None,
        }
    }

    /// Attach a fault plan and retry policy: every transfer and leaf
    /// attempt consults the plan at its step of the slot grid; drops are
    /// retried with simulated backoff charged to the transfer.
    pub fn with_faults(mut self, faults: &'a FaultPlan, retry: RetryPolicy) -> ShipEnv<'a> {
        self.faults = Some(faults);
        self.retry = retry;
        self
    }

    /// Attach a cancel token and/or deadline, polled at batch and leaf
    /// granularity.
    pub fn with_control(mut self, control: RunControl) -> ShipEnv<'a> {
        self.control = control;
        self
    }

    /// Attach a checkpoint store: every fully drained SHIP edge is
    /// retained at both endpoints, and `ResumeScan` leaves read from it.
    pub fn with_checkpoints(mut self, store: &'a CheckpointStore) -> ShipEnv<'a> {
        self.store = Some(store);
        self
    }

    /// Attach gray-failure defenses: a shared [`LinkHealth`] table (so
    /// link scores survive across failover attempts) plus hedge
    /// tuning. Hedged relays are restricted to each edge's `𝒮ₙ`.
    pub fn with_hedge(mut self, health: &'a LinkHealth, config: HedgeConfig) -> ShipEnv<'a> {
        self.hedge = Some((health, config));
        self
    }

    /// Attach live policy-churn enforcement: every batch re-checks the
    /// pinned catalog sequence, and a revocation newer than the pin aborts
    /// the attempt with [`GeoError::PolicyChurn`] before the batch leaves.
    pub fn with_churn(mut self, watch: ChurnWatch) -> ShipEnv<'a> {
        self.churn = Some(watch);
        self
    }

    /// The attempt's cancel/deadline surface.
    pub fn control(&self) -> &RunControl {
        &self.control
    }

    /// Gate a leaf read (scan or `ResumeScan`) at `slot` of an
    /// `n_slots`-wide grid on its site's crash windows: attempt `a` under
    /// the retry policy consults step `(a-1)·n_slots + slot`. A bounded
    /// crash window counts as transient, so a retry can outlast it.
    /// Returns the attempts taken and the simulated backoff spent.
    pub fn leaf_gate(
        &self,
        site: &Location,
        what: impl fmt::Display,
        slot: u64,
        n_slots: u64,
    ) -> Result<Retried<()>> {
        let Some(faults) = self.faults else {
            return Ok(Retried {
                value: (),
                attempts: 1,
                backoff_ms: 0.0,
            });
        };
        self.retry.run(|attempt| {
            let step = grid_step(attempt, slot, n_slots);
            match faults.site_down_until(site, step) {
                None => Ok(()),
                Some(end) => Err(GeoError::SiteUnavailable(Unavailable {
                    site: Some(site.clone()),
                    link: None,
                    transient: end != u64::MAX,
                    message: format!("{what} failed: site {site} is down at step {step}"),
                })),
            }
        })
    }

    /// The retained checkpoint behind a `ResumeScan` leaf homed at
    /// `site`: the batch its edge delivered, shared. The caller gates
    /// availability first with [`ShipEnv::leaf_gate`], exactly like a
    /// tablescan.
    pub fn resume(&self, fingerprint: u64, site: &Location) -> Result<Arc<ColumnarBatch>> {
        let store = self.store.ok_or_else(|| {
            GeoError::Execution(format!(
                "no checkpoint store attached: cannot resume fragment \
                 {fingerprint:016x} at {site}"
            ))
        })?;
        let cp = store.get(fingerprint, site).ok_or_else(|| {
            GeoError::Execution(format!(
                "checkpoint {fingerprint:016x} is not homed at {site}"
            ))
        })?;
        Ok(cp.batch)
    }

    /// Open the stream of one SHIP edge.
    pub fn open<'s>(&'s self, edge: ShipEdge<'s>) -> ShipStream<'s> {
        ShipStream {
            env: self,
            link: self.topology.link(edge.from, edge.to),
            arrival_ms: edge.ready_ms,
            edge,
            batches: 0,
            attempts: 0,
            opened_legs: BTreeSet::new(),
        }
    }
}

/// The fault-clock step of `attempt` (1-based) at `slot` of an
/// `n_slots`-wide grid: every attempt of every slot has its own step, so
/// a verdict depends on the plan's shape, never on execution order.
fn grid_step(attempt: u32, slot: u64, n_slots: u64) -> u64 {
    (attempt as u64 - 1) * n_slots + slot
}

/// One SHIP edge as the runtime cut it from the plan.
pub struct ShipEdge<'a> {
    /// Producer site.
    pub from: &'a Location,
    /// Consumer site.
    pub to: &'a Location,
    /// The producing subtree's shipping trait `𝒮ₙ`: the Definition-1
    /// audit set for every batch and the only sites a hedged relay may
    /// route through. `None` runs unaudited (and never relays).
    pub legal: Option<&'a LocationSet>,
    /// The edge's slot on the fault-step grid: its fault steps, churn
    /// steps and health lane.
    pub slot: u64,
    /// Width of the grid (see [`ShipEnv::leaf_gate`]).
    pub n_slots: u64,
    /// How many edges the runtime shipped before this one: the churn
    /// step every batch of the edge re-checks revocations at.
    pub order: u64,
    /// Simulated ms at which the producer's output was ready — where the
    /// stream's arrival clock starts.
    pub ready_ms: f64,
}

/// The in-flight state of one SHIP edge's stream.
pub struct ShipStream<'s> {
    env: &'s ShipEnv<'s>,
    edge: ShipEdge<'s>,
    /// The direct link's cost parameters.
    link: Link,
    batches: u64,
    attempts: u64,
    arrival_ms: f64,
    /// Routes whose `α` header has been paid: a stream charges a link's
    /// header once (the primary pays its own on batch 0), so a hedged leg
    /// that delivered keeps its route open and later backups on it pay
    /// only `β·bytes`. A dropped or cancelled leg re-pays the header,
    /// like a reconnect after a broken circuit.
    opened_legs: BTreeSet<(Location, Location)>,
}

/// "batch `i` on SHIP `from` -> `to`": what an error about one batch
/// names, formatted only when an error is built.
#[derive(Clone, Copy)]
struct BatchOnShip<'a> {
    i: u64,
    from: &'a Location,
    to: &'a Location,
}

impl fmt::Display for BatchOnShip<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch {} on SHIP {} -> {}", self.i, self.from, self.to)
    }
}

impl ShipStream<'_> {
    /// When the last adjudicated batch reaches the consumer, simulated ms.
    pub fn arrival_ms(&self) -> f64 {
        self.arrival_ms
    }

    /// Primary delivery attempts consumed so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Adjudicate the next batch of the stream — `bytes` on the wire
    /// carrying `rows` rows — recording every delivery, backup leg, and
    /// dropped attempt into `log`. `Ok` means the batch reached the
    /// consumer site; the caller then hands over the payload.
    pub fn ship_batch(&mut self, bytes: u64, rows: u64, log: &mut TransferLog) -> Result<()> {
        let env = self.env;
        let (from, to, legal, lane, n_slots) = (
            self.edge.from,
            self.edge.to,
            self.edge.legal,
            self.edge.slot,
            self.edge.n_slots,
        );
        let i = self.batches;
        self.batches += 1;
        let what = BatchOnShip { i, from, to };
        // Batch granularity for cooperative control: an aborted query
        // stops between batches, never mid-wire.
        env.control.check_cancel(what)?;
        if let Some(watch) = &env.churn {
            // Per-batch revocation check: revocations push to in-flight
            // queries at batch granularity, on the walk's churn clock. A
            // newer revocation aborts the attempt before this batch
            // leaves; the failover loop re-pins to the head it can see,
            // re-plans, and restitches.
            let churn_step = self.edge.order;
            if let Some(head) = watch.signal.revoked_since(watch.pin, churn_step) {
                return Err(GeoError::policy_churn(
                    head,
                    format!(
                        "a policy revocation newer than pinned seq {} landed while {what} \
                         was in flight; the catalog head it re-pins to is seq {head}",
                        watch.pin
                    ),
                ));
            }
        }
        if let Some(legal) = legal {
            if !legal.contains(to) {
                return Err(GeoError::NonCompliant(format!(
                    "runtime audit: {what} leaves the operator's shipping trait \
                     (legal: {legal})"
                )));
            }
        }

        // The stream pays its link's α once, on the first batch.
        let alpha = if i == 0 { self.link.alpha_ms } else { 0.0 };
        let base_ms = alpha + self.link.beta_ms_per_byte * bytes as f64;
        // Gray-failure gate, from pre-batch health state: a link past the
        // hedge threshold races a backup for this batch.
        let hedged = env
            .hedge
            .as_ref()
            .filter(|_| from != to)
            .map(|(health, config)| (*health, config));
        let health = hedged.map(|(health, _)| health);
        let backup_route = health
            .filter(|h| h.should_hedge(from, to, lane))
            .map(|health| {
                let ratio = health.state(from, to, lane).ewma_ratio;
                // Steady-state route choice: a stream pays each link's α
                // header once, so the relay decision compares marginal
                // (β-only) leg costs against the degraded primary's cost.
                // The race itself still charges the full header on a
                // route's first use, so it stays honest.
                legal.and_then(|legal| {
                    plan_hedge_with(
                        |a, b| env.topology.link(a, b).beta_ms_per_byte * bytes as f64,
                        from,
                        to,
                        legal,
                        ratio.max(1.0) * base_ms,
                    )
                })
            });

        // The grid step repeats per batch, so window-scheduled faults hit
        // the whole stream uniformly and probabilistic faults draw from a
        // per-batch coin instead: a loss burst drops *individual*
        // batches, not a lane's every batch or none. Batch 0 keeps coin
        // 0, the classic single-transfer flip.
        let coin = i.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut last_step = 0u64;
        let primary = match env.faults {
            None => Ok((1, 0.0, 0)),
            Some(faults) => env
                .retry
                .run(|attempt| {
                    let step = grid_step(attempt, lane, n_slots);
                    last_step = step;
                    let surcharge = match faults.check_transfer_salted(from, to, step, coin) {
                        FaultVerdict::Deliver { extra_delay_ms } => extra_delay_ms,
                        // A gray link delivers at factor × the model; the
                        // surcharge rides in extra_ms so the log prices
                        // the batch honestly.
                        FaultVerdict::Degraded {
                            factor,
                            extra_delay_ms,
                        } => (factor - 1.0) * base_ms + extra_delay_ms,
                        FaultVerdict::Drop {
                            transient,
                            culprit,
                            reason,
                        } => {
                            log.record_fault(step, from, to, reason.clone());
                            if let Some(h) = health {
                                h.observe_failure(from, to, lane, step);
                            }
                            return Err(GeoError::SiteUnavailable(Unavailable {
                                // A crashed endpoint is what re-planning
                                // excludes; a link or partition fault
                                // names only the link, which re-planning
                                // avoids.
                                site: culprit,
                                link: Some((from.clone(), to.clone())),
                                transient,
                                message: reason,
                            }));
                        }
                    };
                    if let Some(h) = health {
                        h.observe_delivery(from, to, lane, step, base_ms, base_ms + surcharge);
                    }
                    Ok((surcharge, step))
                })
                .map(|d| (d.attempts, d.value.0 + d.backoff_ms, d.value.1)),
        };

        // The hedge race: the backup launches after a short delay on
        // independent fault coins (consuming no clock steps, so hedging
        // never perturbs the primary fault sequence) and may relay via a
        // site inside the edge's 𝒮ₙ. First delivery wins; a delivered
        // backup rescues a primary that failed outright.
        let primary_cost = primary.as_ref().ok().map(|(_, extra, _)| base_ms + extra);
        let mut winner_cost = primary_cost;
        let mut rescued = false;
        if let (Some(via), Some((health, config))) = (backup_route, hedged) {
            let empty = LocationSet::new();
            // Marginal pricing: a leg whose route is already open (the
            // direct link after batch 0, or a relay leg that delivered
            // before) pays only β·bytes; an unopened leg pays the full
            // α + β·bytes header. Computed from the link parameters — the
            // identical arithmetic the primary's `base_ms` uses — so an
            // equal-cost duplicate ties the race exactly instead of
            // "winning" by a floating-point cancellation artifact.
            let pricing = |a: &Location, b: &Location| {
                let leg = env.topology.link(a, b);
                let wire = leg.beta_ms_per_byte * bytes as f64;
                if self.opened_legs.contains(&(a.clone(), b.clone())) {
                    wire
                } else {
                    leg.alpha_ms + wire
                }
            };
            let run = run_hedge(
                pricing,
                env.faults,
                config,
                from,
                to,
                via.as_ref(),
                legal.unwrap_or(&empty),
                last_step,
                coin,
                primary_cost,
            )?;
            for leg in &run.legs {
                if leg.delivered {
                    self.opened_legs.insert((leg.from.clone(), leg.to.clone()));
                    // Every transmitted backup leg is charged: hedging's
                    // shipped-bytes overhead is real.
                    log.push(TransferRecord {
                        step: leg.step,
                        from: leg.from.clone(),
                        to: leg.to.clone(),
                        bytes,
                        rows,
                        cost_ms: leg.cost_ms,
                        attempts: 1,
                    });
                } else {
                    log.record_fault(
                        leg.step,
                        &leg.from,
                        &leg.to,
                        "hedged backup leg dropped".into(),
                    );
                }
            }
            let backup_won = match (primary_cost, run.backup_arrival_ms) {
                (Some(p), Some(b)) => backup_beats(b, p),
                (None, Some(_)) => true,
                _ => false,
            };
            rescued = primary_cost.is_none() && run.backup_arrival_ms.is_some();
            if backup_won {
                winner_cost = run.backup_arrival_ms;
            }
            health.note_hedge(
                backup_won,
                run.relay.as_ref().map(|r| RelayEvent {
                    lane,
                    from: from.clone(),
                    to: to.clone(),
                    via: r.clone(),
                }),
            );
        }
        let (attempts, extra_ms, step) = match primary {
            Ok(delivered) => delivered,
            // The backup already delivered (and was charged above): the
            // batch succeeds without a primary record.
            Err(_) if rescued => (0, 0.0, last_step),
            Err(e) => return Err(e),
        };
        self.attempts += attempts as u64;

        // The batch's effective delivery time is the race winner's
        // arrival; an unhedged batch is just the primary.
        self.arrival_ms += winner_cost.expect("either primary or backup delivered");
        let cost_ms = base_ms + extra_ms;
        // Simulated-clock deadline, per batch: a batch that would land
        // past the budget is never committed. The elapsed time is the
        // stream's critical path, a pure function of the plan and the
        // fault schedule, so the verdict is deterministic.
        env.control.check_deadline(self.arrival_ms, what)?;
        if attempts > 0 {
            log.push(TransferRecord {
                step,
                from: from.clone(),
                to: to.clone(),
                bytes,
                rows,
                cost_ms,
                attempts,
            });
            // The primary paid the direct link's header (on batch 0):
            // duplicate backups ride the open stream at β-only price.
            self.opened_legs.insert((from.clone(), to.clone()));
        }
        Ok(())
    }

    /// The edge fully drained: retain its output for failover resume, at
    /// both endpoints — the producer computed it there (its site is in
    /// ℰ ⊆ 𝒮) and the consumer legally received it (the per-batch audit
    /// held). An illegal home is a typed refusal from the store, not a
    /// silent choice. `retain` pairs the edge's spec with the batch it
    /// delivered; both homes keep that one allocation, so a resume hands
    /// the interpreter exactly what the consumer was handed.
    pub fn finish(self, retain: Option<(&CheckpointSpec, Arc<ColumnarBatch>)>) -> Result<()> {
        let Some(store) = self.env.store else {
            return Ok(());
        };
        let (spec, batch) = retain.ok_or_else(|| {
            GeoError::Execution(
                "checkpoint spec underflow: more SHIPs executed than edges audited".into(),
            )
        })?;
        for home in [self.edge.to, self.edge.from] {
            store.put(
                spec.fingerprint,
                home.clone(),
                &spec.legal,
                &spec.logical,
                Arc::clone(&batch),
            )?;
        }
        Ok(())
    }
}
