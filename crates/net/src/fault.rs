//! Deterministic, seedable fault injection for the simulated WAN.
//!
//! A [`FaultPlan`] is a *schedule* of availability faults — per-link drops,
//! delays, and flaky windows, network partitions, and per-site crash
//! windows — expressed over **logical steps** instead of wall time. The
//! plan is an immutable schedule: the runtime gives every transfer and scan
//! attempt its own step, derived from the attempt's place in the plan, so a
//! given seed and schedule replay the exact same fault sequence on every
//! run: determinism is what makes failover behaviour testable.
//!
//! Probabilistic faults (`flaky` links) derive their coin flips from a hash
//! of `(seed, step, from, to)` rather than shared RNG state, so the outcome
//! of one link's flip never depends on how many other faults were consulted
//! before it.

use geoqp_common::Location;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A half-open window `[start, end)` of logical steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepWindow {
    /// First step (inclusive) at which the fault is active.
    pub start: u64,
    /// First step at which the fault is no longer active.
    pub end: u64,
}

impl StepWindow {
    /// The window covering every step.
    pub const ALWAYS: StepWindow = StepWindow {
        start: 0,
        end: u64::MAX,
    };

    /// A window `[start, end)`.
    pub fn new(start: u64, end: u64) -> StepWindow {
        StepWindow { start, end }
    }

    /// A window from `start` onward.
    pub fn from(start: u64) -> StepWindow {
        StepWindow {
            start,
            end: u64::MAX,
        }
    }

    /// Whether `step` falls inside the window.
    pub fn contains(&self, step: u64) -> bool {
        self.start <= step && step < self.end
    }

    /// Parse `"a..b"`, `"a.."`, `"..b"`, or `".."` (start defaults to 0,
    /// end to forever).
    pub fn parse(spec: &str) -> Result<StepWindow, String> {
        let (a, b) = spec
            .split_once("..")
            .ok_or_else(|| format!("window {spec:?} is not of the form a..b"))?;
        let start = if a.is_empty() {
            0
        } else {
            a.parse().map_err(|_| format!("bad window start {a:?}"))?
        };
        let end = if b.is_empty() {
            u64::MAX
        } else {
            b.parse().map_err(|_| format!("bad window end {b:?}"))?
        };
        Ok(StepWindow { start, end })
    }
}

impl fmt::Display for StepWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start > 0 {
            write!(f, "{}", self.start)?;
        }
        write!(f, "..")?;
        if self.end != u64::MAX {
            write!(f, "{}", self.end)?;
        }
        Ok(())
    }
}

/// Salt selecting the loss-burst coin (independent of the flaky coin).
const LOSS_BURST_SALT: u64 = 0x6C6F_7373_6275_7273; // "lossburs"

/// One scheduled fault on a directed link.
#[derive(Debug, Clone)]
enum LinkFault {
    /// Every attempt inside the window fails.
    Drop(StepWindow),
    /// Attempts inside the window fail with probability `prob`,
    /// deterministically per `(seed, step, link)`.
    Flaky { prob: f64, window: StepWindow },
    /// Attempts inside the window are delivered with `extra_ms` of added
    /// latency.
    Delay { extra_ms: f64, window: StepWindow },
    /// Attempts inside the window are delivered, but the link is *gray*:
    /// its effective `α + β·b` cost is multiplied by `factor`. The
    /// sustained-slowdown fault the health scorer and hedging defend
    /// against.
    Degrade { factor: f64, window: StepWindow },
    /// A loss burst: attempts inside the window drop with probability
    /// `prob`, deterministically per `(seed, step, link)` — like `Flaky`,
    /// but drawn from an independent coin so a burst layered over a flaky
    /// schedule never reuses its flips.
    LossBurst { prob: f64, window: StepWindow },
}

/// The simulator's answer for one transfer attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultVerdict {
    /// The transfer goes through, possibly slowed by injected delay.
    Deliver {
        /// Injected extra latency, ms.
        extra_delay_ms: f64,
    },
    /// The transfer goes through, but the link is degraded: its effective
    /// message cost is `factor ×` the `α + β·b` prediction, plus any
    /// injected delay. Overlapping degrade windows compound
    /// multiplicatively.
    Degraded {
        /// Latency multiplier (> 1).
        factor: f64,
        /// Injected extra latency, ms.
        extra_delay_ms: f64,
    },
    /// The transfer fails.
    Drop {
        /// Whether a retry at a later step could succeed: a probabilistic
        /// drop may pass next time, and a crash, partition or link drop
        /// heals when its window closes; one whose window never closes
        /// does not.
        transient: bool,
        /// The crashed site responsible, when the drop is a site fault
        /// rather than a link/partition fault.
        culprit: Option<Location>,
        /// Human-readable cause.
        reason: String,
    },
}

/// A deterministic schedule of network and site faults: a pure function
/// of `(seed, step)`, shared by reference by every run that consults it.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    seed: u64,
    site_crashes: BTreeMap<Location, Vec<StepWindow>>,
    link_faults: BTreeMap<(Location, Location), Vec<LinkFault>>,
    partitions: Vec<(BTreeSet<Location>, StepWindow)>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The seed the plan's probabilistic faults are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.site_crashes.is_empty() && self.link_faults.is_empty() && self.partitions.is_empty()
    }

    /// Crash `site` for `window`: scans at the site fail and every
    /// transfer touching it drops, non-transiently.
    pub fn with_crash(mut self, site: impl Into<Location>, window: StepWindow) -> FaultPlan {
        self.site_crashes
            .entry(site.into())
            .or_default()
            .push(window);
        self
    }

    /// Drop every `from → to` transfer inside `window`.
    pub fn with_drop(
        mut self,
        from: impl Into<Location>,
        to: impl Into<Location>,
        window: StepWindow,
    ) -> FaultPlan {
        self.link_faults
            .entry((from.into(), to.into()))
            .or_default()
            .push(LinkFault::Drop(window));
        self
    }

    /// Drop `from → to` transfers inside `window` with probability `prob`.
    pub fn with_flaky(
        mut self,
        from: impl Into<Location>,
        to: impl Into<Location>,
        prob: f64,
        window: StepWindow,
    ) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&prob),
            "flaky probability out of [0,1]"
        );
        self.link_faults
            .entry((from.into(), to.into()))
            .or_default()
            .push(LinkFault::Flaky { prob, window });
        self
    }

    /// Deliver `from → to` transfers inside `window` with `extra_ms` of
    /// added latency.
    pub fn with_delay(
        mut self,
        from: impl Into<Location>,
        to: impl Into<Location>,
        extra_ms: f64,
        window: StepWindow,
    ) -> FaultPlan {
        self.link_faults
            .entry((from.into(), to.into()))
            .or_default()
            .push(LinkFault::Delay { extra_ms, window });
        self
    }

    /// Degrade `from → to` transfers inside `window`: delivered, but at
    /// `factor ×` the modelled cost (a sustained gray slowdown).
    pub fn with_degrade(
        mut self,
        from: impl Into<Location>,
        to: impl Into<Location>,
        factor: f64,
        window: StepWindow,
    ) -> FaultPlan {
        assert!(factor >= 1.0, "degrade factor below 1");
        self.link_faults
            .entry((from.into(), to.into()))
            .or_default()
            .push(LinkFault::Degrade { factor, window });
        self
    }

    /// Drop `from → to` transfers inside `window` with probability `prob`,
    /// on a coin independent of any `flaky` schedule on the same link.
    pub fn with_loss_burst(
        mut self,
        from: impl Into<Location>,
        to: impl Into<Location>,
        prob: f64,
        window: StepWindow,
    ) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&prob),
            "loss-burst probability out of [0,1]"
        );
        self.link_faults
            .entry((from.into(), to.into()))
            .or_default()
            .push(LinkFault::LossBurst { prob, window });
        self
    }

    /// Partition `group` away from every other site for `window`:
    /// transfers crossing the group boundary (either direction) drop.
    pub fn with_partition<I, L>(mut self, group: I, window: StepWindow) -> FaultPlan
    where
        I: IntoIterator<Item = L>,
        L: Into<Location>,
    {
        let set: BTreeSet<Location> = group.into_iter().map(Into::into).collect();
        self.partitions.push((set, window));
        self
    }

    /// Whether `site` is up at `step` (outside all its crash windows).
    pub fn site_is_up(&self, site: &Location, step: u64) -> bool {
        self.site_down_until(site, step).is_none()
    }

    /// When `site` is inside a crash window at `step`, the end of that
    /// outage (`u64::MAX` = crashed for good); `None` when the site is up.
    pub fn site_down_until(&self, site: &Location, step: u64) -> Option<u64> {
        self.site_crashes.get(site).and_then(|windows| {
            windows
                .iter()
                .filter(|w| w.contains(step))
                .map(|w| w.end)
                .max()
        })
    }

    /// Judge one `from → to` transfer attempt at `step`. Site crashes
    /// dominate, then partitions, then link faults (a drop is transient
    /// only if its window heals); delays on distinct schedules
    /// accumulate.
    pub fn check_transfer(&self, from: &Location, to: &Location, step: u64) -> FaultVerdict {
        self.check_transfer_salted(from, to, step, 0)
    }

    /// [`Self::check_transfer`] with probabilistic faults drawn from an
    /// independent coin selected by `salt`. Hedged backup legs consult
    /// the same crash/degrade/partition windows as their primary — a
    /// duplicate on a degraded link is degraded too — without replaying
    /// the primary's flaky/loss flips.
    pub fn check_transfer_salted(
        &self,
        from: &Location,
        to: &Location,
        step: u64,
        salt: u64,
    ) -> FaultVerdict {
        for site in [from, to] {
            if let Some(end) = self.site_down_until(site, step) {
                return FaultVerdict::Drop {
                    // A bounded outage can be outlasted by retries; an
                    // open-ended crash needs re-planning.
                    transient: end != u64::MAX,
                    culprit: Some(site.clone()),
                    reason: format!("site {site} is down at step {step}"),
                };
            }
        }
        for (group, window) in &self.partitions {
            if window.contains(step) && group.contains(from) != group.contains(to) {
                return FaultVerdict::Drop {
                    // Like a crash: a partition that never heals needs
                    // re-planning, not retries.
                    transient: window.end != u64::MAX,
                    culprit: None,
                    reason: format!("partition separates {from} from {to} at step {step}"),
                };
            }
        }
        let mut extra_delay_ms = 0.0;
        let mut factor = 1.0;
        if let Some(faults) = self.link_faults.get(&(from.clone(), to.clone())) {
            for fault in faults {
                match fault {
                    LinkFault::Drop(window) if window.contains(step) => {
                        return FaultVerdict::Drop {
                            transient: window.end != u64::MAX,
                            culprit: None,
                            reason: format!("link {from}->{to} down at step {step}"),
                        };
                    }
                    LinkFault::Flaky { prob, window }
                        if window.contains(step)
                            && self.flip_salted(from, to, step, salt) < *prob =>
                    {
                        return FaultVerdict::Drop {
                            transient: true,
                            culprit: None,
                            reason: format!("link {from}->{to} dropped packet at step {step}"),
                        };
                    }
                    LinkFault::LossBurst { prob, window }
                        if window.contains(step)
                            && self.flip_salted(from, to, step, LOSS_BURST_SALT ^ salt) < *prob =>
                    {
                        return FaultVerdict::Drop {
                            transient: true,
                            culprit: None,
                            reason: format!(
                                "loss burst on link {from}->{to} dropped batch at step {step}"
                            ),
                        };
                    }
                    LinkFault::Delay { extra_ms, window } if window.contains(step) => {
                        extra_delay_ms += extra_ms;
                    }
                    LinkFault::Degrade { factor: f, window } if window.contains(step) => {
                        factor *= f;
                    }
                    _ => {}
                }
            }
        }
        if factor > 1.0 {
            FaultVerdict::Degraded {
                factor,
                extra_delay_ms,
            }
        } else {
            FaultVerdict::Deliver { extra_delay_ms }
        }
    }

    /// Deterministic uniform draw in `[0, 1)` from `(seed, step, link)`,
    /// on an independent coin selected by `salt`, so two probabilistic
    /// faults on the same link never share flips (`salt = 0` is the
    /// classic flaky coin).
    fn flip_salted(&self, from: &Location, to: &Location, step: u64, salt: u64) -> f64 {
        let mut h = self.seed ^ 0x9E3779B97F4A7C15 ^ salt;
        for token in [from.name().as_bytes(), b"->", to.name().as_bytes()] {
            for &b in token {
                h = (h ^ b as u64).wrapping_mul(0x100000001B3);
            }
        }
        h ^= step.wrapping_mul(0xA24BAED4963EE407);
        // splitmix64 finalizer.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Parse a fault specification string (the CLI's `--faults` syntax):
    /// semicolon-separated directives, each optionally windowed with
    /// `@a..b` over logical steps (default: always active).
    ///
    /// * `crash:SITE[@w]` — crash a site,
    /// * `drop:A-B[@w]` — drop both directions of a link (`A>B` for one),
    /// * `flaky:A-B:P[@w]` — drop with probability `P`,
    /// * `delay:A-B:MS[@w]` — add `MS` milliseconds of latency,
    /// * `degrade:A-B:F[@w]` — deliver at `F ×` the modelled cost (gray
    ///   slowdown; `F ≥ 1`),
    /// * `loss:A-B:P[@w]` — loss burst dropping with probability `P` on an
    ///   independent coin,
    /// * `partition:A,B,..[@w]` — cut the listed group off from the rest.
    ///
    /// Every parse error quotes the offending directive fragment, so a
    /// typo inside a long schedule is findable.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for raw in spec.split(';') {
            let directive = raw.trim();
            if directive.is_empty() {
                continue;
            }
            // Any failure below names the full offending fragment.
            let in_directive = |e: String| format!("{e} in directive {directive:?}");
            let (head, window) = match directive.split_once('@') {
                Some((h, w)) => (h, StepWindow::parse(w).map_err(in_directive)?),
                None => (directive, StepWindow::ALWAYS),
            };
            let (kind, body) = head
                .split_once(':')
                .ok_or_else(|| format!("directive {directive:?} has no kind: prefix"))?;
            match kind {
                "crash" => {
                    let site = body.trim();
                    if site.is_empty() {
                        return Err(format!("crash directive {directive:?} names no site"));
                    }
                    plan = plan.with_crash(site, window);
                }
                "drop" => {
                    let (a, b, both) = parse_link(body).map_err(in_directive)?;
                    plan = plan.with_drop(a.clone(), b.clone(), window);
                    if both {
                        plan = plan.with_drop(b, a, window);
                    }
                }
                "flaky" | "loss" => {
                    let (link, p) = body
                        .rsplit_once(':')
                        .ok_or_else(|| format!("{kind} directive {directive:?} needs :prob"))?;
                    let prob: f64 = p
                        .trim()
                        .parse()
                        .map_err(|_| in_directive(format!("bad probability {p:?}")))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(in_directive(format!("probability {prob} out of [0,1]")));
                    }
                    let (a, b, both) = parse_link(link).map_err(in_directive)?;
                    plan = if kind == "flaky" {
                        let plan = plan.with_flaky(a.clone(), b.clone(), prob, window);
                        if both {
                            plan.with_flaky(b, a, prob, window)
                        } else {
                            plan
                        }
                    } else {
                        let plan = plan.with_loss_burst(a.clone(), b.clone(), prob, window);
                        if both {
                            plan.with_loss_burst(b, a, prob, window)
                        } else {
                            plan
                        }
                    };
                }
                "delay" => {
                    let (link, ms) = body
                        .rsplit_once(':')
                        .ok_or_else(|| format!("delay directive {directive:?} needs :ms"))?;
                    let extra: f64 = ms
                        .trim()
                        .trim_end_matches("ms")
                        .parse()
                        .map_err(|_| in_directive(format!("bad delay {ms:?}")))?;
                    let (a, b, both) = parse_link(link).map_err(in_directive)?;
                    plan = plan.with_delay(a.clone(), b.clone(), extra, window);
                    if both {
                        plan = plan.with_delay(b, a, extra, window);
                    }
                }
                "degrade" => {
                    let (link, f) = body
                        .rsplit_once(':')
                        .ok_or_else(|| format!("degrade directive {directive:?} needs :factor"))?;
                    let factor: f64 = f
                        .trim()
                        .trim_end_matches('x')
                        .parse()
                        .map_err(|_| in_directive(format!("bad degrade factor {f:?}")))?;
                    if factor < 1.0 {
                        return Err(in_directive(format!("degrade factor {factor} below 1")));
                    }
                    let (a, b, both) = parse_link(link).map_err(in_directive)?;
                    plan = plan.with_degrade(a.clone(), b.clone(), factor, window);
                    if both {
                        plan = plan.with_degrade(b, a, factor, window);
                    }
                }
                "partition" => {
                    let group: Vec<&str> = body.split(',').map(str::trim).collect();
                    if group.iter().any(|s| s.is_empty()) {
                        return Err(format!(
                            "partition directive {directive:?} has an empty site"
                        ));
                    }
                    plan = plan.with_partition(group, window);
                }
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} in directive {directive:?}"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// Parse `A-B` (symmetric) or `A>B` (directed) into `(from, to, symmetric)`.
fn parse_link(body: &str) -> Result<(Location, Location, bool), String> {
    let (sep, both) = if body.contains('>') {
        ('>', false)
    } else {
        ('-', true)
    };
    let (a, b) = body
        .split_once(sep)
        .ok_or_else(|| format!("link {body:?} is not of the form A-B or A>B"))?;
    let (a, b) = (a.trim(), b.trim());
    if a.is_empty() || b.is_empty() {
        return Err(format!("link {body:?} has an empty endpoint"));
    }
    Ok((Location::new(a), Location::new(b), both))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(n: &str) -> Location {
        Location::new(n)
    }

    #[test]
    fn windows_are_half_open() {
        let w = StepWindow::new(2, 5);
        assert!(!w.contains(1));
        assert!(w.contains(2));
        assert!(w.contains(4));
        assert!(!w.contains(5));
        assert!(StepWindow::ALWAYS.contains(u64::MAX - 1));
    }

    #[test]
    fn crash_window_downs_the_site_and_its_transfers() {
        let plan = FaultPlan::new(1).with_crash("L2", StepWindow::new(3, 10));
        assert!(plan.site_is_up(&loc("L2"), 2));
        assert!(!plan.site_is_up(&loc("L2"), 3));
        assert!(plan.site_is_up(&loc("L2"), 10));
        assert_eq!(plan.site_down_until(&loc("L2"), 5), Some(10));
        // A bounded outage is transient: retries can outlast it.
        match plan.check_transfer(&loc("L1"), &loc("L2"), 5) {
            FaultVerdict::Drop { transient, .. } => assert!(transient),
            v => panic!("expected drop, got {v:?}"),
        }
        // Unrelated links are untouched.
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L3"), 5),
            FaultVerdict::Deliver {
                extra_delay_ms: 0.0
            }
        );
    }

    #[test]
    fn open_ended_crash_is_permanent() {
        let plan = FaultPlan::new(1).with_crash("L2", StepWindow::from(3));
        assert_eq!(plan.site_down_until(&loc("L2"), 100), Some(u64::MAX));
        match plan.check_transfer(&loc("L2"), &loc("L4"), 50) {
            FaultVerdict::Drop { transient, .. } => assert!(!transient),
            v => panic!("expected drop, got {v:?}"),
        }
    }

    #[test]
    fn link_drop_is_directed_and_transient() {
        let plan = FaultPlan::new(1).with_drop("L1", "L3", StepWindow::new(0, 4));
        match plan.check_transfer(&loc("L1"), &loc("L3"), 1) {
            FaultVerdict::Drop { transient, .. } => assert!(transient),
            v => panic!("expected drop, got {v:?}"),
        }
        // Reverse direction unaffected; window end heals the link.
        assert!(matches!(
            plan.check_transfer(&loc("L3"), &loc("L1"), 1),
            FaultVerdict::Deliver { .. }
        ));
        assert!(matches!(
            plan.check_transfer(&loc("L1"), &loc("L3"), 4),
            FaultVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn a_link_drop_or_partition_that_never_heals_is_permanent() {
        let permanent = |plan: &FaultPlan, from: &str, to: &str| match plan.check_transfer(
            &loc(from),
            &loc(to),
            7,
        ) {
            FaultVerdict::Drop { transient, .. } => !transient,
            v => panic!("expected drop, got {v:?}"),
        };
        // Open-ended windows, as an always-on `drop:` or `partition:`
        // spec builds them: retrying cannot outlast them.
        let drop = FaultPlan::new(1).with_drop("L1", "L3", StepWindow::ALWAYS);
        assert!(permanent(&drop, "L1", "L3"));
        let late = FaultPlan::new(1).with_drop("L1", "L3", StepWindow::new(5, u64::MAX));
        assert!(permanent(&late, "L1", "L3"));
        let cut = FaultPlan::new(1).with_partition(["L1"], StepWindow::ALWAYS);
        assert!(permanent(&cut, "L2", "L1"));
        // A window that closes is ridden out by retries.
        let bounded = FaultPlan::new(1).with_drop("L1", "L3", StepWindow::new(0, 8));
        assert!(!permanent(&bounded, "L1", "L3"));
        let healing = FaultPlan::new(1).with_partition(["L1"], StepWindow::new(0, 8));
        assert!(!permanent(&healing, "L2", "L1"));
    }

    #[test]
    fn partitions_cut_only_boundary_crossing_transfers() {
        let plan = FaultPlan::new(1).with_partition(["L1", "L2"], StepWindow::new(0, 100));
        assert!(matches!(
            plan.check_transfer(&loc("L1"), &loc("L2"), 5),
            FaultVerdict::Deliver { .. }
        ));
        assert!(matches!(
            plan.check_transfer(&loc("L3"), &loc("L4"), 5),
            FaultVerdict::Deliver { .. }
        ));
        assert!(matches!(
            plan.check_transfer(&loc("L1"), &loc("L3"), 5),
            FaultVerdict::Drop {
                transient: true,
                ..
            }
        ));
        assert!(matches!(
            plan.check_transfer(&loc("L4"), &loc("L2"), 5),
            FaultVerdict::Drop { .. }
        ));
    }

    #[test]
    fn delays_accumulate_and_respect_windows() {
        let plan = FaultPlan::new(1)
            .with_delay("L1", "L2", 100.0, StepWindow::new(0, 10))
            .with_delay("L1", "L2", 50.0, StepWindow::new(5, 10));
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L2"), 2),
            FaultVerdict::Deliver {
                extra_delay_ms: 100.0
            }
        );
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L2"), 7),
            FaultVerdict::Deliver {
                extra_delay_ms: 150.0
            }
        );
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L2"), 10),
            FaultVerdict::Deliver {
                extra_delay_ms: 0.0
            }
        );
    }

    #[test]
    fn flaky_outcomes_are_deterministic_per_seed_and_step() {
        let a = FaultPlan::new(42).with_flaky("L1", "L2", 0.5, StepWindow::ALWAYS);
        let b = FaultPlan::new(42).with_flaky("L1", "L2", 0.5, StepWindow::ALWAYS);
        let mut drops = 0;
        for step in 0..1000 {
            let va = a.check_transfer(&loc("L1"), &loc("L2"), step);
            let vb = b.check_transfer(&loc("L1"), &loc("L2"), step);
            assert_eq!(va, vb, "divergence at step {step}");
            if matches!(va, FaultVerdict::Drop { .. }) {
                drops += 1;
            }
        }
        // A fair-ish coin: both outcomes occur, roughly balanced.
        assert!((350..650).contains(&drops), "drops = {drops}");
        // A different seed produces a different sequence.
        let c = FaultPlan::new(43).with_flaky("L1", "L2", 0.5, StepWindow::ALWAYS);
        let diverges = (0..1000).any(|s| {
            a.check_transfer(&loc("L1"), &loc("L2"), s)
                != c.check_transfer(&loc("L1"), &loc("L2"), s)
        });
        assert!(diverges, "seeds 42 and 43 produced identical streams");
    }

    #[test]
    fn parse_round_trips_every_directive() {
        let plan = FaultPlan::parse(
            "crash:L2@3..; drop:L1-L3@0..5; flaky:L4>L5:0.25; \
             delay:L1-L2:250ms@2..; partition:L1,L2@4..9",
            7,
        )
        .unwrap();
        assert!(!plan.site_is_up(&loc("L2"), 3));
        assert!(plan.site_is_up(&loc("L2"), 2));
        // Symmetric drop: both directions.
        assert!(matches!(
            plan.check_transfer(&loc("L3"), &loc("L1"), 1),
            FaultVerdict::Drop { .. }
        ));
        // Directed flaky: reverse direction never drops.
        assert!((0..200).all(|s| matches!(
            plan.check_transfer(&loc("L5"), &loc("L4"), s),
            FaultVerdict::Deliver { .. }
        ) || !plan.site_is_up(&loc("L4"), s)));
        // Delay active from step 2 (outside the partition window, on a
        // non-partition-crossing link).
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L2"), 2),
            FaultVerdict::Deliver {
                extra_delay_ms: 250.0
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "explode:L1",
            "crash",
            "drop:L1",
            "flaky:L1-L2:1.5",
            "delay:L1-L2:fast",
            "crash:L1@x..y",
            "partition:,",
            "degrade:L1-L2:0.5",
            "degrade:L1-L2:slow",
            "loss:L1-L2:2.0",
            "loss:L1-L2",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} parsed");
        }
        // Empty and whitespace specs are fine (no faults).
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ", 0).unwrap().is_empty());
    }

    /// A typo buried in a long schedule must be findable: every parse
    /// error quotes the offending directive fragment, not just the field.
    #[test]
    fn parse_errors_quote_the_offending_fragment() {
        for (spec, fragment) in [
            ("crash:L1; flaky:L1-L2:1.5", "flaky:L1-L2:1.5"),
            ("drop:L1-L2; delay:L3-L4:fast@2..", "delay:L3-L4:fast@2.."),
            ("degrade:L1-L2:0.5", "degrade:L1-L2:0.5"),
            ("crash:L1@x..y", "crash:L1@x..y"),
            ("drop:L1", "drop:L1"),
            ("loss:L4:0.2", "loss:L4:0.2"),
            ("explode:L1", "explode:L1"),
        ] {
            let err = FaultPlan::parse(spec, 0).unwrap_err();
            assert!(
                err.contains(fragment),
                "error {err:?} does not quote {fragment:?}"
            );
        }
    }

    #[test]
    fn degrade_multiplies_cost_and_respects_windows() {
        let plan = FaultPlan::new(1)
            .with_degrade("L1", "L4", 3.0, StepWindow::new(2, 8))
            .with_degrade("L1", "L4", 2.0, StepWindow::new(4, 8))
            .with_delay("L1", "L4", 25.0, StepWindow::new(2, 8));
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L4"), 0),
            FaultVerdict::Deliver {
                extra_delay_ms: 0.0
            }
        );
        // Inside the first window: degraded 3x, delay rides along.
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L4"), 2),
            FaultVerdict::Degraded {
                factor: 3.0,
                extra_delay_ms: 25.0
            }
        );
        // Overlapping degrades compound multiplicatively.
        assert_eq!(
            plan.check_transfer(&loc("L1"), &loc("L4"), 5),
            FaultVerdict::Degraded {
                factor: 6.0,
                extra_delay_ms: 25.0
            }
        );
        // Healed past the window; reverse direction untouched throughout.
        assert!(matches!(
            plan.check_transfer(&loc("L1"), &loc("L4"), 8),
            FaultVerdict::Deliver { .. }
        ));
        assert!(matches!(
            plan.check_transfer(&loc("L4"), &loc("L1"), 5),
            FaultVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn loss_burst_is_windowed_deterministic_and_independent_of_flaky() {
        let a = FaultPlan::new(42).with_loss_burst("L1", "L2", 0.5, StepWindow::new(0, 1000));
        let b = FaultPlan::new(42).with_loss_burst("L1", "L2", 0.5, StepWindow::new(0, 1000));
        let flaky = FaultPlan::new(42).with_flaky("L1", "L2", 0.5, StepWindow::ALWAYS);
        let mut drops = 0;
        let mut diverged_from_flaky = false;
        for step in 0..1000 {
            let va = a.check_transfer(&loc("L1"), &loc("L2"), step);
            assert_eq!(
                va,
                b.check_transfer(&loc("L1"), &loc("L2"), step),
                "divergence at step {step}"
            );
            let dropped = matches!(va, FaultVerdict::Drop { .. });
            if dropped {
                drops += 1;
            }
            if dropped
                != matches!(
                    flaky.check_transfer(&loc("L1"), &loc("L2"), step),
                    FaultVerdict::Drop { .. }
                )
            {
                diverged_from_flaky = true;
            }
        }
        assert!((350..650).contains(&drops), "drops = {drops}");
        assert!(
            diverged_from_flaky,
            "loss bursts must draw an independent coin from flaky faults"
        );
        // Outside the window the burst is over.
        assert!(matches!(
            a.check_transfer(&loc("L1"), &loc("L2"), 1000),
            FaultVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn parse_round_trips_degrade_and_loss() {
        let plan = FaultPlan::parse("degrade:L1>L4:2.5x@3..9; loss:L2-L3:0.4@5..7", 11).unwrap();
        assert!(matches!(
            plan.check_transfer(&loc("L1"), &loc("L4"), 4),
            FaultVerdict::Degraded { factor, .. } if factor == 2.5
        ));
        // Directed degrade: the reverse direction is clean.
        assert!(matches!(
            plan.check_transfer(&loc("L4"), &loc("L1"), 4),
            FaultVerdict::Deliver { .. }
        ));
        // Symmetric loss burst: both directions share the schedule shape.
        let bursty = (5..7).any(|s| {
            matches!(
                plan.check_transfer(&loc("L3"), &loc("L2"), s),
                FaultVerdict::Drop { .. }
            ) || matches!(
                plan.check_transfer(&loc("L2"), &loc("L3"), s),
                FaultVerdict::Drop { .. }
            )
        });
        let _ = bursty; // probabilistic: presence is seed-dependent
        assert!(matches!(
            plan.check_transfer(&loc("L2"), &loc("L3"), 7),
            FaultVerdict::Deliver { .. }
        ));
    }
}
