//! The fault plan: everything injected into one run, in interval form.
//!
//! The paper's fault model is one sentence — a simple partition at an
//! instant, possibly healing, undeliverable messages returned within `2T`,
//! no crash while it is open — and every generalization the experiments
//! probe (multi-episode schedules, crashes, degraded delays, per-envelope
//! misbehaviour) is still only four lists of intervals. [`FaultPlan`] is
//! those four lists and the one place they are declared: the simulator
//! ([`crate::Simulation`]) and the thread-backed router
//! (`ptp_livenet::Router`) both read it, and every builder above them —
//! `ptp_core`'s `Timeline` and `Scenario`, the database cluster builders,
//! `ptp_livenet::LivePartition` — is a constructor of it.
//!
//! Instants are **host time**: simulator ticks under [`crate::Simulation`],
//! nanoseconds since the run started under threads. [`FaultPlan::scaled`] is
//! the one rule that converts between the two.

use crate::envfault::{DegradeWindow, EnvelopeAction, EnvelopeFault};
use crate::failure::FailureSpec;
use crate::message::SiteId;
use crate::partition::{PartitionEngine, PartitionSpec};
use crate::time::{SimDuration, SimTime};

/// Every fault of one run: partition episodes, site crashes, degraded-delay
/// windows and envelope-level faults, all in host time.
///
/// # Examples
///
/// ```
/// use ptp_simnet::{FailureSpec, FaultPlan, PartitionEngine, PartitionSpec, SimTime, SiteId};
///
/// // Site 2 is cut off during [1500, 4000) and site 1 crashes at 6000.
/// let cut = PartitionSpec::transient(
///     SimTime(1500),
///     vec![SiteId(0), SiteId(1)],
///     vec![SiteId(2)],
///     SimTime(4000),
/// );
/// let mut plan = FaultPlan::from(PartitionEngine::new(vec![cut]));
/// plan.failures.push(FailureSpec::crash(SiteId(1), SimTime(6000)));
/// assert!(!plan.partition.connected(SiteId(0), SiteId(2), SimTime(1500)));
/// assert!(plan.down(SiteId(1), SimTime(6000)));
///
/// // The same plan on a wall clock where 1000 ticks are 10 ms, in ns.
/// let live = plan.scaled(10_000_000, 1000);
/// assert!(live.partition.connected(SiteId(0), SiteId(2), SimTime(40_000_000)));
/// assert!(!live.partition.connected(SiteId(0), SiteId(2), SimTime(39_999_999)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The partition episode schedule (the connectivity oracle).
    pub partition: PartitionEngine,
    /// Site crashes and recoveries.
    pub failures: Vec<FailureSpec>,
    /// Degraded-delay windows; the first one covering a send instant wins.
    pub degrades: Vec<DegradeWindow>,
    /// Envelope-level faults (duplicate / reorder / drop), matched at send
    /// time for the whole run.
    pub env_faults: Vec<EnvelopeFault>,
}

impl From<PartitionEngine> for FaultPlan {
    /// A plan with a partition schedule and nothing else.
    fn from(partition: PartitionEngine) -> FaultPlan {
        FaultPlan { partition, ..FaultPlan::default() }
    }
}

impl FaultPlan {
    /// Is `site` crashed at `now` (`at ≤ now < recover_at`)?
    pub fn down(&self, site: SiteId, now: SimTime) -> bool {
        self.failures
            .iter()
            .any(|f| f.site == site && f.at <= now && f.recover_at.is_none_or(|r| now < r))
    }

    /// The degrade window covering `now`, if any.
    #[inline]
    pub fn degraded(&self, now: SimTime) -> Option<&DegradeWindow> {
        self.degrades.iter().find(|w| w.covers(now))
    }

    /// The same plan with every instant and duration mapped `x ↦ x · num /
    /// den` (rounding down) — the one rule that moves a plan between host
    /// clocks. A timeline in ticks at `t_unit` ticks per `T` becomes a
    /// wall-clock plan in nanoseconds through `scaled(T_ns, t_unit)`.
    /// Intervals a coarser clock collapses to nothing stay in the plan as
    /// empty (never-active) intervals.
    pub fn scaled(&self, num: u64, den: u64) -> FaultPlan {
        assert!(den > 0, "cannot scale a fault plan by a zero denominator");
        let x = |v: u64| (u128::from(v) * u128::from(num) / u128::from(den)) as u64;
        let t = |v: SimTime| SimTime(x(v.0));
        // Monotone, so episode order and the no-overlap invariant survive.
        let episodes = self.partition.episodes().iter().map(|e| PartitionSpec {
            at: t(e.at),
            groups: e.groups.clone(),
            heal_at: e.heal_at.map(t),
        });
        FaultPlan {
            partition: PartitionEngine::new(episodes.collect()),
            failures: self
                .failures
                .iter()
                .map(|f| FailureSpec { site: f.site, at: t(f.at), recover_at: f.recover_at.map(t) })
                .collect(),
            degrades: self
                .degrades
                .iter()
                .map(|w| DegradeWindow {
                    from: t(w.from),
                    until: w.until.map(t),
                    min: x(w.min),
                    max: x(w.max),
                })
                .collect(),
            env_faults: self
                .env_faults
                .iter()
                .map(|f| EnvelopeFault {
                    matches: f.matches,
                    action: match f.action {
                        EnvelopeAction::Drop => EnvelopeAction::Drop,
                        EnvelopeAction::Duplicate { after } => {
                            EnvelopeAction::Duplicate { after: SimDuration(x(after.0)) }
                        }
                        EnvelopeAction::Delay { by } => {
                            EnvelopeAction::Delay { by: SimDuration(x(by.0)) }
                        }
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envfault::EnvelopeMatch;

    fn s(i: u16) -> SiteId {
        SiteId(i)
    }

    fn plan() -> FaultPlan {
        FaultPlan {
            partition: PartitionEngine::new(vec![
                PartitionSpec::transient(
                    SimTime(1500),
                    vec![s(0), s(1)],
                    vec![s(2)],
                    SimTime(4000),
                ),
                PartitionSpec::simple(SimTime(6000), vec![s(0)], vec![s(1), s(2)]),
            ]),
            failures: vec![FailureSpec::crash_recover(s(1), SimTime(500), SimTime(900))],
            degrades: vec![DegradeWindow::new(SimTime(100), Some(SimTime(300)), 800, 1000)],
            env_faults: vec![EnvelopeFault::duplicate(
                EnvelopeMatch::kind("xact"),
                SimDuration(400),
            )],
        }
    }

    #[test]
    fn down_and_degraded_are_half_open() {
        let p = plan();
        assert!(!p.down(s(1), SimTime(499)));
        assert!(p.down(s(1), SimTime(500)));
        assert!(p.down(s(1), SimTime(899)));
        assert!(!p.down(s(1), SimTime(900)));
        assert!(!p.down(s(2), SimTime(600)));
        assert!(p.degraded(SimTime(99)).is_none());
        assert!(p.degraded(SimTime(100)).is_some());
        assert!(p.degraded(SimTime(300)).is_none());
    }

    #[test]
    fn scaling_moves_every_boundary_by_the_same_rule() {
        let live = plan().scaled(10_000_000, 1000); // 1 tick = 10 µs, in ns
        let e = live.partition.episodes();
        assert_eq!((e[0].at, e[0].heal_at), (SimTime(15_000_000), Some(SimTime(40_000_000))));
        assert_eq!((e[1].at, e[1].heal_at), (SimTime(60_000_000), None));
        assert_eq!(e[0].groups, plan().partition.episodes()[0].groups);
        assert_eq!(live.failures[0].at, SimTime(5_000_000));
        assert_eq!(live.failures[0].recover_at, Some(SimTime(9_000_000)));
        assert_eq!((live.degrades[0].min, live.degrades[0].max), (8_000_000, 10_000_000));
        assert_eq!(
            live.env_faults[0].action,
            EnvelopeAction::Duplicate { after: SimDuration(4_000_000) }
        );
    }
}
