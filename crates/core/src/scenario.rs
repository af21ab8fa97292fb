//! Scenario description: which protocol, which network conditions.

// The timeline DSL is the fault-model front door; re-exported here so
// `ptp_core::scenario::ScenarioBuilder` is the canonical path.
pub use crate::timeline::{At, ScenarioBuilder, TimedEvent, Timeline, TimelineEvent};

use ptp_protocols::api::Vote;
use ptp_protocols::quorum::QuorumConfig;
use ptp_simnet::{
    DegradeWindow, DelayModel, EnvelopeFault, FailureSpec, FaultPlan, NetConfig, PartitionEngine,
    PartitionMode, SimTime, SiteId,
};

/// Which commit protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Fig. 1: plain two-phase commit (no timeout/UD transitions).
    Plain2pc,
    /// Fig. 2: extended 2PC — ack phase plus the Rule (a)/(b) augmentation
    /// derived at `n = 2`.
    Extended2pc,
    /// Fig. 3: plain three-phase commit.
    Plain3pc,
    /// Sec. 3 baseline: 3PC naively augmented by Rule (a)/(b) at the
    /// actual `n`.
    Naive3pc,
    /// The paper's protocol: modified 3PC + termination protocol, Sec. 6
    /// transient variant (the complete protocol).
    HuangLi3pc,
    /// The paper's protocol in the Sec. 5 static variant (assumes the
    /// partition outlasts all affected transactions).
    HuangLi3pcStatic,
    /// Theorem 10: the four-phase protocol with its generated termination
    /// protocol.
    HuangLi4pc,
    /// Skeen 1982 quorum commit with majority quorums.
    QuorumMajority,
}

impl ProtocolKind {
    /// All kinds, for table-driven experiments.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::Plain2pc,
        ProtocolKind::Extended2pc,
        ProtocolKind::Plain3pc,
        ProtocolKind::Naive3pc,
        ProtocolKind::HuangLi3pc,
        ProtocolKind::HuangLi3pcStatic,
        ProtocolKind::HuangLi4pc,
        ProtocolKind::QuorumMajority,
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Plain2pc => "2PC",
            ProtocolKind::Extended2pc => "E2PC",
            ProtocolKind::Plain3pc => "3PC",
            ProtocolKind::Naive3pc => "3PC+rules",
            ProtocolKind::HuangLi3pc => "HL-3PC",
            ProtocolKind::HuangLi3pcStatic => "HL-3PC(static)",
            ProtocolKind::HuangLi4pc => "HL-4PC",
            ProtocolKind::QuorumMajority => "Quorum",
        }
    }

    /// The quorum configuration a kind implies, if it is quorum-based.
    pub fn quorum_config(self, n: usize) -> Option<QuorumConfig> {
        match self {
            ProtocolKind::QuorumMajority => Some(QuorumConfig::majority(n)),
            _ => None,
        }
    }
}

/// The paper's partition shapes, as a shortcut over the scenario's
/// [`FaultPlan`]: the sweep hot path rewrites one of these per grid cell
/// instead of an episode schedule.
///
/// # Examples
///
/// ```
/// use ptp_core::{PartitionShape, Scenario};
/// use ptp_simnet::{PartitionEngine, PartitionSpec, SimTime, SiteId};
///
/// assert_eq!(Scenario::new(3).partition, PartitionShape::None);
/// let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2500);
/// assert!(matches!(s.partition, PartitionShape::Simple { .. }));
/// // Anything beyond one simple split is a schedule in the fault plan.
/// let split = PartitionSpec::simple(SimTime(1000), vec![SiteId(0), SiteId(1)], vec![SiteId(2)]);
/// let s = Scenario::new(3).partition_schedule(PartitionEngine::new(vec![split]));
/// assert_eq!(s.partition, PartitionShape::None);
/// assert_eq!(s.faults.partition.episodes().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionShape {
    /// No shortcut: the partition schedule of [`Scenario::faults`] applies
    /// (empty — always connected — unless one was set).
    None,
    /// Simple partitioning: `g2` (the non-master group) splits off at `at`;
    /// heals at `heal_at` if given. Sites not in `g2` stay with the master.
    /// Replaces whatever schedule the fault plan carries.
    Simple {
        /// The slaves separated from the master (the paper's G2).
        g2: Vec<SiteId>,
        /// Partition instant, in ticks.
        at: u64,
        /// Heal instant (transient partitioning), in ticks.
        heal_at: Option<u64>,
    },
}

/// A complete scenario: cluster size, votes, network behaviour.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of sites (site 0 is the master).
    pub n: usize,
    /// One vote per slave.
    pub votes: Vec<Vote>,
    /// Simple-partition shortcut over `faults.partition`.
    pub partition: PartitionShape,
    /// Per-message delays (clamped to `(0, T]` by the network).
    pub delay: DelayModel,
    /// Ticks per `T`.
    pub t_unit: u64,
    /// Optimistic (return undeliverables) or pessimistic (drop) partitions.
    pub mode: PartitionMode,
    /// Everything injected into the run, in ticks: a multi-episode
    /// partition schedule (overridden by a [`PartitionShape::Simple`]
    /// `partition`), site failures (experiment E13 only; the paper's
    /// protocol assumes none), degraded-delay windows, envelope faults.
    pub faults: FaultPlan,
    /// Simulation horizon in units of `T`.
    pub horizon_t: u64,
}

impl Scenario {
    /// A failure-free scenario: `n` sites, all yes votes, fixed `T`-delays.
    pub fn new(n: usize) -> Scenario {
        assert!(n >= 2);
        Scenario {
            n,
            votes: vec![Vote::Yes; n - 1],
            partition: PartitionShape::None,
            delay: DelayModel::Fixed(1000),
            t_unit: 1000,
            mode: PartitionMode::Optimistic,
            faults: FaultPlan::default(),
            horizon_t: 100,
        }
    }

    /// Sets every slave's vote.
    pub fn votes(mut self, votes: Vec<Vote>) -> Scenario {
        assert_eq!(votes.len(), self.n - 1);
        self.votes = votes;
        self
    }

    /// Splits `g2` away from the master at tick `at`, permanently.
    pub fn partition_g2(mut self, g2: Vec<SiteId>, at: u64) -> Scenario {
        self.partition = PartitionShape::Simple { g2, at, heal_at: None };
        self
    }

    /// Splits `g2` away at `at` and heals at `heal_at` (transient).
    pub fn transient_partition(mut self, g2: Vec<SiteId>, at: u64, heal_at: u64) -> Scenario {
        assert!(heal_at > at);
        self.partition = PartitionShape::Simple { g2, at, heal_at: Some(heal_at) };
        self
    }

    /// Sets a multi-episode partition schedule (cascading splits, staggered
    /// heals, multi-way regroupings), in ticks.
    pub fn partition_schedule(mut self, schedule: PartitionEngine) -> Scenario {
        self.partition = PartitionShape::None;
        self.faults.partition = schedule;
        self
    }

    /// Sets the delay model.
    pub fn delay(mut self, delay: DelayModel) -> Scenario {
        self.delay = delay;
        self
    }

    /// Switches to the pessimistic (message-loss) model.
    pub fn pessimistic(mut self) -> Scenario {
        self.mode = PartitionMode::Pessimistic;
        self
    }

    /// Injects a site failure.
    pub fn fail(mut self, spec: FailureSpec) -> Scenario {
        self.faults.failures.push(spec);
        self
    }

    /// Arms an envelope-level fault (duplicate / reorder / drop).
    pub fn env_fault(mut self, fault: EnvelopeFault) -> Scenario {
        self.faults.env_faults.push(fault);
        self
    }

    /// Arms a degraded-network delay window.
    pub fn degrade(mut self, window: DegradeWindow) -> Scenario {
        self.faults.degrades.push(window);
        self
    }

    /// The derived network configuration.
    pub fn net_config(&self) -> NetConfig {
        NetConfig {
            t_unit: self.t_unit,
            mode: self.mode,
            max_time: SimTime(self.t_unit * self.horizon_t),
        }
    }

    /// The scenario's whole fault plan, as a fresh allocation.
    ///
    /// Repeated-run workloads should prefer [`Scenario::write_faults`] (via
    /// [`crate::Session`]), which rewrites an existing plan's buffers in
    /// place instead of rebuilding the G1/G2 vectors per call.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::default();
        self.write_faults(&mut plan);
        plan
    }

    /// Rewrites `plan` in place to this scenario's faults, reusing the
    /// plan's episode, group and list buffers. The G1 complement of a
    /// simple partition is written directly into the engine's first group
    /// buffer — no intermediate vector is built.
    pub fn write_faults(&self, plan: &mut FaultPlan) {
        let engine = &mut plan.partition;
        match &self.partition {
            PartitionShape::Simple { g2, at, heal_at } => {
                let groups = engine.reset_single(SimTime(*at), heal_at.map(SimTime), 2);
                groups[0].extend((0..self.n as u16).map(SiteId).filter(|s| !g2.contains(s)));
                groups[1].extend_from_slice(g2);
            }
            PartitionShape::None => {
                let episodes = self.faults.partition.episodes();
                engine.reset_schedule(episodes.len());
                for (i, episode) in episodes.iter().enumerate() {
                    let bufs =
                        engine.episode_groups(i, episode.at, episode.heal_at, episode.groups.len());
                    for (buf, group) in bufs.iter_mut().zip(&episode.groups) {
                        buf.extend_from_slice(group);
                    }
                }
            }
        }
        plan.failures.clone_from(&self.faults.failures);
        plan.degrades.clone_from(&self.faults.degrades);
        plan.env_faults.clone_from(&self.faults.env_faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_simnet::PartitionSpec;

    fn episode(groups: Vec<Vec<SiteId>>, at: u64, heal_at: Option<u64>) -> PartitionSpec {
        PartitionSpec { at: SimTime(at), groups, heal_at: heal_at.map(SimTime) }
    }

    #[test]
    fn default_scenario_shape() {
        let s = Scenario::new(3);
        assert_eq!(s.votes.len(), 2);
        assert_eq!(s.partition, PartitionShape::None);
        assert!(s.fault_plan().partition.episodes().is_empty());
        assert_eq!(s.net_config().t_unit, 1000);
    }

    #[test]
    fn fault_plan_puts_master_in_g1() {
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 1500);
        let eng = s.fault_plan().partition;
        assert!(eng.connected(SiteId(0), SiteId(1), SimTime(2000)));
        assert!(!eng.connected(SiteId(0), SiteId(2), SimTime(2000)));
        assert!(eng.connected(SiteId(0), SiteId(2), SimTime(1000)));
    }

    #[test]
    fn transient_partition_heals() {
        let s = Scenario::new(3).transient_partition(vec![SiteId(2)], 1000, 5000);
        let eng = s.fault_plan().partition;
        assert!(!eng.connected(SiteId(0), SiteId(2), SimTime(3000)));
        assert!(eng.connected(SiteId(0), SiteId(2), SimTime(5000)));
    }

    #[test]
    fn schedule_plan_replays_every_episode() {
        let schedule = PartitionEngine::new(vec![
            episode(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]], 1000, Some(3000)),
            episode(vec![vec![SiteId(0)], vec![SiteId(1)], vec![SiteId(2)]], 5000, None),
        ]);
        let s = Scenario::new(3).partition_schedule(schedule);
        let eng = s.fault_plan().partition;
        assert!(!eng.connected(SiteId(0), SiteId(2), SimTime(2000)), "episode 1 split");
        assert!(eng.connected(SiteId(0), SiteId(2), SimTime(4000)), "healed gap");
        assert!(!eng.connected(SiteId(0), SiteId(1), SimTime(6000)), "episode 2 shatter");
    }

    #[test]
    fn single_episode_schedule_matches_simple_shape_plan() {
        // A one-episode two-group schedule must write the plan identically
        // to the Simple shortcut (the reset_single path).
        let simple = Scenario::new(4).transient_partition(vec![SiteId(2), SiteId(3)], 1500, 6000);
        let schedule = Scenario::new(4).partition_schedule(PartitionEngine::new(vec![episode(
            vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]],
            1500,
            Some(6000),
        )]));
        assert_eq!(
            simple.fault_plan().partition.episodes(),
            schedule.fault_plan().partition.episodes()
        );
    }

    #[test]
    fn write_faults_replaces_everything_a_reused_plan_held() {
        // A session's plan goes from a faulty schedule scenario to a simple
        // one and on to a clean one without leaking any list between them.
        let faulty = Scenario::new(3)
            .partition_schedule(PartitionEngine::new(vec![
                episode(vec![vec![SiteId(0)], vec![SiteId(1), SiteId(2)]], 100, Some(200)),
                episode(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]], 300, None),
            ]))
            .fail(FailureSpec::crash(SiteId(1), SimTime(50)))
            .degrade(DegradeWindow::new(SimTime(10), None, 800, 1000));
        let mut plan = faulty.fault_plan();
        assert_eq!((plan.partition.episodes().len(), plan.failures.len()), (2, 1));
        let simple = Scenario::new(3).partition_g2(vec![SiteId(2)], 1500);
        simple.write_faults(&mut plan);
        assert_eq!(plan.partition.episodes(), simple.fault_plan().partition.episodes());
        assert!(plan.failures.is_empty() && plan.degrades.is_empty());
        Scenario::new(3).write_faults(&mut plan);
        assert!(plan.partition.episodes().is_empty());
    }

    #[test]
    fn simple_shape_overrides_the_plans_schedule() {
        let mut s = Scenario::new(3).partition_schedule(PartitionEngine::new(vec![episode(
            vec![vec![SiteId(0)], vec![SiteId(1)], vec![SiteId(2)]],
            100,
            None,
        )]));
        s.partition = PartitionShape::Simple { g2: vec![SiteId(2)], at: 2000, heal_at: None };
        let eng = s.fault_plan().partition;
        assert_eq!(eng.episodes().len(), 1);
        assert!(eng.connected(SiteId(0), SiteId(1), SimTime(3000)));
        assert!(!eng.connected(SiteId(0), SiteId(2), SimTime(3000)));
    }

    #[test]
    fn degenerate_simple_heal_still_configures() {
        // A Simple shape whose heal instant equals its start was a harmless
        // no-op before the schedule refactor; it must stay one.
        let mut s = Scenario::new(3);
        s.partition = PartitionShape::Simple { g2: vec![SiteId(2)], at: 2000, heal_at: Some(2000) };
        let eng = s.fault_plan().partition;
        assert!(eng.connected(SiteId(0), SiteId(2), SimTime(2000)));
        assert!(eng.connected(SiteId(0), SiteId(2), SimTime(3000)));
    }

    #[test]
    fn protocol_names_unique() {
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
    }

    #[test]
    fn quorum_config_only_for_quorum() {
        assert!(ProtocolKind::QuorumMajority.quorum_config(5).is_some());
        assert!(ProtocolKind::HuangLi3pc.quorum_config(5).is_none());
    }
}
