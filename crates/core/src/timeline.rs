//! The unified scenario-timeline DSL.
//!
//! Every fault the workspace can inject — partitions, heals, site crashes
//! and recoveries, degraded-delay windows, and per-envelope
//! duplicate/reorder/drop faults — is expressed once, as a [`Timeline`] of
//! instants in simulator ticks, and lowered **once**, by
//! [`Timeline::faults`], to the interval form every runtime reads: a
//! [`FaultPlan`].
//!
//! * In ticks, the plan is what the simulator takes: [`Timeline::scenario`]
//!   wraps it in a [`Scenario`] for [`crate::Session`] and the sweep
//!   machinery, and the one store builder (`ptp_ddb::cluster::Cluster`,
//!   flat or sharded) holds it as its `faults` field.
//! * Scaled onto the wall clock — [`Timeline::live_faults`], which is
//!   `faults().scaled(T_ns, t_unit)` — it is what the thread-backed router
//!   reads, under both `ptp-livenet`'s protocol harness (`run_live_plan`)
//!   and `ptp-live`'s shard server (`LiveOptions.faults`).
//!
//! One timeline value therefore drives all three backends; the
//! compiler-equivalence tests pin that a single-episode timeline reproduces
//! the legacy `PartitionShape::Simple` path cell-for-cell.
//!
//! Timelines are built with [`ScenarioBuilder`]:
//!
//! ```
//! use ptp_core::scenario::ScenarioBuilder;
//! use ptp_core::{ProtocolKind, Session};
//! use ptp_simnet::SiteId;
//!
//! // Slave 2 secedes at tick 1500; connectivity returns at 6000.
//! let timeline = ScenarioBuilder::new(3)
//!     .at(1500)
//!     .partition(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]])
//!     .at(6000)
//!     .heal()
//!     .build();
//!
//! let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
//! let result = session.run(&timeline.scenario());
//! assert!(result.verdict.is_atomic());
//! ```

use crate::scenario::Scenario;
use ptp_simnet::{
    DegradeWindow, DelayModel, EnvelopeFault, EnvelopeMatch, FailureSpec, FaultPlan,
    PartitionEngine, PartitionSpec, SimDuration, SimTime, SiteId,
};
use std::time::Duration;

/// One kind of instantaneous fault transition on a [`Timeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineEvent {
    /// The site halts: it neither sends nor receives, and its timers stop.
    Crash(SiteId),
    /// The crashed site resumes processing.
    Recover(SiteId),
    /// The sites regroup into the listed connectivity groups. Every site
    /// must appear in exactly one group (a site in none would be isolated;
    /// say so with a singleton group).
    Partition(Vec<Vec<SiteId>>),
    /// Full connectivity returns and any open degraded-delay window ends.
    Heal,
    /// Per-leg delays start sampling from `min..=max` ticks instead of the
    /// healthy band, until the next [`TimelineEvent::Heal`] or
    /// [`TimelineEvent::Degrade`].
    Degrade {
        /// Slowest-band lower bound, in ticks (≥ 1).
        min: u64,
        /// Slowest-band upper bound, in ticks.
        max: u64,
    },
}

/// A [`TimelineEvent`] pinned to an instant (in simulator ticks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the transition happens, in ticks since the run starts.
    pub at: u64,
    /// What happens.
    pub event: TimelineEvent,
}

/// A validated fault timeline: the single source of truth a scenario's
/// faults are compiled from. Built by [`ScenarioBuilder::build`]; lowered
/// by [`Timeline::faults`] to the one [`FaultPlan`] every runtime reads.
///
/// # Examples
///
/// The same timeline value lowers to every backend:
///
/// ```
/// use ptp_core::scenario::ScenarioBuilder;
/// use ptp_simnet::{SimTime, SiteId};
/// use std::time::Duration;
///
/// let timeline = ScenarioBuilder::new(4)
///     .at(1000)
///     .degrade(800..=1000)
///     .at(2000)
///     .partition(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]])
///     .at(5000)
///     .heal()
///     .build();
///
/// let sim = timeline.scenario(); // discrete-event backend, in ticks
/// assert_eq!(sim.faults.degrades.len(), 1);
/// assert_eq!(sim.faults.partition.episodes()[0].at, SimTime(2000));
///
/// // Thread backends: the same plan in ns, at 1000 ticks per 10 ms.
/// let live = timeline.live_faults(Duration::from_millis(10));
/// assert_eq!(live.partition.episodes()[0].at, SimTime(20_000_000));
/// assert_eq!(live.degrades.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Cluster size (site 0 is the master).
    pub n: usize,
    /// Ticks per `T`.
    pub t_unit: u64,
    /// Simulation horizon, in units of `T`.
    pub horizon_t: u64,
    /// The fault transitions, in time order.
    pub events: Vec<TimedEvent>,
    /// Envelope-level faults, armed for the whole run.
    pub env_faults: Vec<EnvelopeFault>,
}

/// Fluent builder for [`Timeline`]s: `.at(t)` opens a cursor on an instant,
/// each fault verb returns the builder, and [`ScenarioBuilder::build`]
/// validates the whole schedule at once.
///
/// # Examples
///
/// ```
/// use ptp_core::scenario::ScenarioBuilder;
/// use ptp_simnet::{EnvelopeMatch, SiteId};
///
/// let timeline = ScenarioBuilder::new(3)
///     .at(500)
///     .crash(SiteId(2))
///     .at(4500)
///     .recover(SiteId(2))
///     .duplicate(EnvelopeMatch::kind("xact"), 400)
///     .build();
/// assert_eq!(timeline.events.len(), 2);
/// assert_eq!(timeline.env_faults.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    n: usize,
    t_unit: u64,
    horizon_t: u64,
    events: Vec<TimedEvent>,
    env_faults: Vec<EnvelopeFault>,
}

/// The cursor [`ScenarioBuilder::at`] opens: each verb stamps one event at
/// the cursor's instant and hands the builder back.
#[derive(Debug)]
pub struct At {
    builder: ScenarioBuilder,
    at: u64,
}

impl ScenarioBuilder {
    /// A timeline over `n` sites with the workspace defaults: 1000 ticks
    /// per `T`, a 100 `T` horizon, no faults.
    pub fn new(n: usize) -> ScenarioBuilder {
        assert!(n >= 2, "a cluster needs at least two sites");
        ScenarioBuilder {
            n,
            t_unit: 1000,
            horizon_t: 100,
            events: Vec::new(),
            env_faults: Vec::new(),
        }
    }

    /// Sets the tick count of one `T`.
    pub fn t_unit(mut self, t_unit: u64) -> ScenarioBuilder {
        assert!(t_unit >= 1);
        self.t_unit = t_unit;
        self
    }

    /// Sets the horizon, in units of `T`.
    pub fn horizon_t(mut self, horizon_t: u64) -> ScenarioBuilder {
        assert!(horizon_t >= 1);
        self.horizon_t = horizon_t;
        self
    }

    /// Opens a cursor at tick `t`; the next verb stamps its event there.
    pub fn at(self, t: u64) -> At {
        At { builder: self, at: t }
    }

    /// Arms a raw envelope-level fault for the whole run.
    pub fn inject(mut self, fault: EnvelopeFault) -> ScenarioBuilder {
        self.env_faults.push(fault);
        self
    }

    /// Duplicates matched sends: the clone lands `after_ticks` past the
    /// original's delivery, carrying the same message id.
    pub fn duplicate(self, matches: EnvelopeMatch, after_ticks: u64) -> ScenarioBuilder {
        self.inject(EnvelopeFault::duplicate(matches, SimDuration(after_ticks)))
    }

    /// Reorders matched sends past later traffic by delaying them
    /// `by_ticks` beyond their sampled delay.
    pub fn reorder(self, matches: EnvelopeMatch, by_ticks: u64) -> ScenarioBuilder {
        self.inject(EnvelopeFault::delay(matches, SimDuration(by_ticks)))
    }

    /// Silently loses matched sends (no undeliverable bounce — this is
    /// outside the paper's optimistic model, for robustness probing).
    pub fn drop_matching(self, matches: EnvelopeMatch) -> ScenarioBuilder {
        self.inject(EnvelopeFault::drop(matches))
    }

    /// Validates the event schedule and freezes it into a [`Timeline`],
    /// reporting (rather than panicking on) an invalid schedule — the
    /// entry point the campaign shrinker uses to discard candidate
    /// timelines that mutation made ill-formed.
    pub fn try_build(mut self) -> Result<Timeline, String> {
        self.events.sort_by_key(|e| e.at); // stable: same-instant order kept
        Timeline::try_new(self.n, self.t_unit, self.horizon_t, self.events, self.env_faults)
    }

    /// Validates the event schedule and freezes it into a [`Timeline`].
    ///
    /// # Panics
    ///
    /// Panics if a partition does not list every site exactly once or has
    /// fewer than two groups; if a heal has no open partition or degrade
    /// window to end; if a site is crashed twice or recovered while up; or
    /// if a regroup/redegrade lands at the same instant its predecessor
    /// started (zero-length episodes are meaningless).
    pub fn build(self) -> Timeline {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

impl Timeline {
    /// Validates pre-sorted `events` into a [`Timeline`]. Prefer
    /// [`ScenarioBuilder`]; this is the checked back door the campaign
    /// shrinker rebuilds mutated candidates through.
    pub fn try_new(
        n: usize,
        t_unit: u64,
        horizon_t: u64,
        events: Vec<TimedEvent>,
        env_faults: Vec<EnvelopeFault>,
    ) -> Result<Timeline, String> {
        ensure!(n >= 2, "a cluster needs at least two sites");
        ensure!(t_unit >= 1 && horizon_t >= 1, "t_unit and horizon must be positive");
        ensure!(events.windows(2).all(|w| w[0].at <= w[1].at), "events must be in time order");
        let mut open_partition: Option<u64> = None;
        let mut open_degrade: Option<u64> = None;
        let mut down: Vec<SiteId> = Vec::new();
        for TimedEvent { at, event } in &events {
            match event {
                TimelineEvent::Crash(site) => {
                    ensure!(site.index() < n, "crash of site outside the cluster");
                    ensure!(!down.contains(site), "site {site} crashed while already down");
                    down.push(*site);
                }
                TimelineEvent::Recover(site) => {
                    let pos = down.iter().position(|s| s == site);
                    match pos {
                        Some(pos) => {
                            down.remove(pos);
                        }
                        None => return Err(format!("site {site} recovered while up")),
                    }
                }
                TimelineEvent::Partition(groups) => {
                    ensure!(groups.len() >= 2, "a partition needs at least two groups");
                    let mut seen = vec![false; n];
                    for site in groups.iter().flatten() {
                        let i = site.index();
                        ensure!(i < n, "partition group lists site {site} outside the cluster");
                        ensure!(!seen[i], "partition groups list site {site} twice");
                        seen[i] = true;
                    }
                    ensure!(
                        seen.iter().all(|s| *s),
                        "a partition must list every site exactly once"
                    );
                    if let Some(start) = open_partition {
                        ensure!(
                            start < *at,
                            "a regroup must come strictly after the previous split"
                        );
                    }
                    open_partition = Some(*at);
                }
                TimelineEvent::Heal => {
                    ensure!(
                        open_partition.is_some() || open_degrade.is_some(),
                        "heal at tick {at} with no open partition or degrade window"
                    );
                    for start in [open_partition.take(), open_degrade.take()].into_iter().flatten()
                    {
                        ensure!(start < *at, "a heal must come strictly after the split it ends");
                    }
                }
                TimelineEvent::Degrade { min, max } => {
                    ensure!(*min >= 1 && min <= max, "degraded band must satisfy 1 <= min <= max");
                    if let Some(start) = open_degrade {
                        ensure!(
                            start < *at,
                            "a redegrade must come strictly after the previous one"
                        );
                    }
                    open_degrade = Some(*at);
                }
            }
        }
        Ok(Timeline { n, t_unit, horizon_t, events, env_faults })
    }
}

impl At {
    /// The site halts at this instant.
    pub fn crash(mut self, site: SiteId) -> ScenarioBuilder {
        self.builder.events.push(TimedEvent { at: self.at, event: TimelineEvent::Crash(site) });
        self.builder
    }

    /// The crashed site resumes at this instant.
    pub fn recover(mut self, site: SiteId) -> ScenarioBuilder {
        self.builder.events.push(TimedEvent { at: self.at, event: TimelineEvent::Recover(site) });
        self.builder
    }

    /// The sites regroup into `groups` at this instant (every site listed
    /// exactly once; an open partition is replaced).
    pub fn partition(mut self, groups: Vec<Vec<SiteId>>) -> ScenarioBuilder {
        self.builder
            .events
            .push(TimedEvent { at: self.at, event: TimelineEvent::Partition(groups) });
        self.builder
    }

    /// Full connectivity returns at this instant (also ends any open
    /// degraded-delay window).
    pub fn heal(mut self) -> ScenarioBuilder {
        self.builder.events.push(TimedEvent { at: self.at, event: TimelineEvent::Heal });
        self.builder
    }

    /// Per-leg delays degrade to the given tick band at this instant.
    pub fn degrade(mut self, band: std::ops::RangeInclusive<u64>) -> ScenarioBuilder {
        let (min, max) = (*band.start(), *band.end());
        self.builder
            .events
            .push(TimedEvent { at: self.at, event: TimelineEvent::Degrade { min, max } });
        self.builder
    }
}

impl Timeline {
    /// Lowers the timeline to interval form, in ticks — the one pairing
    /// pass every backend's faults come from. Each partition event opens an
    /// episode that the next partition or heal closes, crash/recover pairs
    /// become [`FailureSpec`]s, each degrade event opens a
    /// [`DegradeWindow`] that the next degrade or heal closes, and envelope
    /// faults pass through unchanged.
    pub fn faults(&self) -> FaultPlan {
        let mut episodes: Vec<PartitionSpec> = Vec::new();
        let mut degrades: Vec<DegradeWindow> = Vec::new();
        let mut open_crashes: Vec<(SiteId, SimTime)> = Vec::new();
        let mut failures: Vec<FailureSpec> = Vec::new();

        for TimedEvent { at, event } in &self.events {
            let at = SimTime(*at);
            // An interval still open is the last of its list, with no end yet.
            let close_episode = |episodes: &mut Vec<PartitionSpec>| {
                if let Some(open) = episodes.last_mut().filter(|e| e.heal_at.is_none()) {
                    open.heal_at = Some(at);
                }
            };
            let close_window = |degrades: &mut Vec<DegradeWindow>| {
                if let Some(open) = degrades.last_mut().filter(|w| w.until.is_none()) {
                    open.until = Some(at);
                }
            };
            match event {
                TimelineEvent::Crash(site) => open_crashes.push((*site, at)),
                TimelineEvent::Recover(site) => {
                    let pos = open_crashes
                        .iter()
                        .position(|(s, _)| s == site)
                        .expect("validated: recover pairs with a crash");
                    let (site, crashed_at) = open_crashes.remove(pos);
                    failures.push(FailureSpec::crash_recover(site, crashed_at, at));
                }
                TimelineEvent::Partition(groups) => {
                    close_episode(&mut episodes);
                    episodes.push(PartitionSpec { at, groups: groups.clone(), heal_at: None });
                }
                TimelineEvent::Heal => {
                    close_episode(&mut episodes);
                    close_window(&mut degrades);
                }
                TimelineEvent::Degrade { min, max } => {
                    close_window(&mut degrades);
                    degrades.push(DegradeWindow::new(at, None, *min, *max));
                }
            }
        }
        failures.extend(open_crashes.into_iter().map(|(site, at)| FailureSpec::crash(site, at)));
        FaultPlan {
            partition: PartitionEngine::new(episodes),
            failures,
            degrades,
            env_faults: self.env_faults.clone(),
        }
    }

    /// Compiles the timeline to the discrete-event simulator's [`Scenario`]
    /// — the lowering behind [`crate::Session`] and the sweep machinery:
    /// [`Timeline::faults`] plus the timeline's clock (`T`-delays of
    /// `t_unit` ticks, the horizon).
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new(self.n).delay(DelayModel::Fixed(self.t_unit));
        scenario.t_unit = self.t_unit;
        scenario.horizon_t = self.horizon_t;
        scenario.faults = self.faults();
        scenario
    }

    /// Maps a tick count onto the wall clock: `t` wall-time per `t_unit`
    /// ticks, the same `T`-relative timing the simulator uses.
    pub fn wall(&self, ticks: u64, t: Duration) -> Duration {
        Duration::from_nanos(
            (t.as_nanos().saturating_mul(ticks as u128) / self.t_unit as u128) as u64,
        )
    }

    /// [`Timeline::faults`] on the wall clock of the thread-backed runtimes
    /// (`ptp_livenet::run_live_plan`, `ptp-live`'s `LiveOptions.faults`):
    /// every instant and duration in nanoseconds since the run started,
    /// where [`Timeline::wall`] puts it for the run's `T`.
    pub fn live_faults(&self, t: Duration) -> FaultPlan {
        self.faults().scaled(t.as_nanos() as u64, self.t_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PartitionShape;
    use ptp_simnet::EnvelopeAction;

    fn two_groups(n: u16, g2: &[u16]) -> Vec<Vec<SiteId>> {
        let g2: Vec<SiteId> = g2.iter().copied().map(SiteId).collect();
        let g1 = (0..n).map(SiteId).filter(|s| !g2.contains(s)).collect();
        vec![g1, g2]
    }

    #[test]
    fn builder_orders_events_by_time() {
        let tl =
            ScenarioBuilder::new(3).at(6000).heal().at(1500).partition(two_groups(3, &[2])).build();
        assert_eq!(tl.events[0].at, 1500);
        assert_eq!(tl.events[1].at, 6000);
    }

    #[test]
    fn sim_lowering_builds_the_schedule_shape() {
        let tl = ScenarioBuilder::new(4)
            .at(1500)
            .partition(two_groups(4, &[2, 3]))
            .at(6000)
            .heal()
            .build();
        let s = tl.scenario();
        assert_eq!(s.partition, PartitionShape::None, "the schedule is the plan's, not a shortcut");
        let schedule = s.faults.partition.episodes();
        assert_eq!(schedule.len(), 1);
        let e = &schedule[0];
        assert_eq!((e.at, e.heal_at), (SimTime(1500), Some(SimTime(6000))));
        assert_eq!(e.groups, two_groups(4, &[2, 3]));
    }

    #[test]
    fn regroup_closes_the_previous_episode() {
        let tl = ScenarioBuilder::new(3)
            .at(1000)
            .partition(two_groups(3, &[2]))
            .at(3000)
            .partition(two_groups(3, &[1]))
            .build();
        let schedule = tl.faults().partition;
        assert_eq!(schedule.episodes().len(), 2);
        assert_eq!(schedule.episodes()[0].heal_at, Some(SimTime(3000)));
        assert_eq!(schedule.episodes()[1].heal_at, None);
    }

    #[test]
    fn heal_ends_partitions_and_degrades_together() {
        let tl = ScenarioBuilder::new(3)
            .at(500)
            .degrade(800..=1000)
            .at(1000)
            .partition(two_groups(3, &[2]))
            .at(4000)
            .heal()
            .build();
        let plan = tl.faults();
        assert_eq!(plan.degrades.len(), 1);
        assert!(plan.degrades[0].covers(SimTime(3999)));
        assert!(!plan.degrades[0].covers(SimTime(4000)));
        assert_eq!(plan.partition.episodes()[0].heal_at, Some(SimTime(4000)));
    }

    #[test]
    fn crash_recover_pairs_into_failure_specs() {
        let tl = ScenarioBuilder::new(4)
            .at(500)
            .crash(SiteId(3))
            .at(4500)
            .recover(SiteId(3))
            .at(7000)
            .crash(SiteId(2))
            .build();
        let failures = tl.faults().failures;
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0], FailureSpec::crash_recover(SiteId(3), SimTime(500), SimTime(4500)));
        assert_eq!(failures[1], FailureSpec::crash(SiteId(2), SimTime(7000)));
    }

    #[test]
    fn live_lowering_maps_ticks_onto_the_wall_clock() {
        let t = Duration::from_millis(10); // 1000 ticks = 10ms, 1 tick = 10µs
        let tl = ScenarioBuilder::new(3)
            .at(1500)
            .partition(two_groups(3, &[2]))
            .at(6000)
            .heal()
            .at(7000)
            .crash(SiteId(1))
            .duplicate(EnvelopeMatch::kind("xact"), 400)
            .build();
        let faults = tl.live_faults(t);
        let ns = |d: Duration| SimTime(d.as_nanos() as u64);
        let p = faults.partition.episodes();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].at, ns(Duration::from_millis(15)));
        assert_eq!(p[0].heal_at, Some(ns(Duration::from_millis(60))));
        assert_eq!(faults.failures.len(), 1);
        assert_eq!(faults.failures[0].at, ns(Duration::from_millis(70)));
        assert_eq!(faults.env_faults.len(), 1);
        match faults.env_faults[0].action {
            EnvelopeAction::Duplicate { after } => assert_eq!(after.0, 4_000_000),
            other => panic!("expected a duplicate, got {other:?}"),
        }
    }

    #[test]
    fn envelope_injections_pass_through_to_the_sim() {
        let tl = ScenarioBuilder::new(3)
            .duplicate(EnvelopeMatch::kind("xact"), 400)
            .reorder(EnvelopeMatch::kind("yes").nth(0), 2000)
            .drop_matching(EnvelopeMatch::any().from(SiteId(0)).nth(1))
            .build();
        let env_faults = tl.scenario().faults.env_faults;
        assert_eq!(env_faults.len(), 3);
        assert!(matches!(env_faults[0].action, EnvelopeAction::Duplicate { .. }));
        assert!(matches!(env_faults[1].action, EnvelopeAction::Delay { .. }));
        assert!(matches!(env_faults[2].action, EnvelopeAction::Drop));
    }

    #[test]
    #[should_panic(expected = "every site exactly once")]
    fn partial_cover_partitions_rejected() {
        let _ = ScenarioBuilder::new(4)
            .at(1000)
            .partition(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]])
            .build();
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_listed_sites_rejected() {
        let _ = ScenarioBuilder::new(3)
            .at(1000)
            .partition(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(1), SiteId(2)]])
            .build();
    }

    #[test]
    #[should_panic(expected = "no open partition")]
    fn stray_heal_rejected() {
        let _ = ScenarioBuilder::new(3).at(1000).heal().build();
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_crash_rejected() {
        let _ = ScenarioBuilder::new(3).at(100).crash(SiteId(2)).at(200).crash(SiteId(2)).build();
    }

    #[test]
    #[should_panic(expected = "recovered while up")]
    fn stray_recover_rejected() {
        let _ = ScenarioBuilder::new(3).at(100).recover(SiteId(2)).build();
    }

    #[test]
    fn timeline_value_is_reusable_across_lowerings() {
        let tl =
            ScenarioBuilder::new(3).at(1500).partition(two_groups(3, &[2])).at(6000).heal().build();
        let a = tl.scenario();
        let b = tl.live_faults(Duration::from_millis(8));
        // Both lowerings observe the same episode boundaries.
        let sim = &a.faults.partition.episodes()[0];
        let wall = |at: SimTime| SimTime(tl.wall(at.0, Duration::from_millis(8)).as_nanos() as u64);
        let live = &b.partition.episodes()[0];
        assert_eq!(live.at, wall(sim.at));
        assert_eq!(live.heal_at, sim.heal_at.map(wall));
        assert_eq!(live.groups, sim.groups);
    }
}
