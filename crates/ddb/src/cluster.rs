//! The distributed-database cluster driver.
//!
//! [`DbCluster`] is the paper's model — one fully-replicated group, site 0
//! master of every transaction: it lowers its workload to a flat
//! [`PlanTable`] and hands it to [`run_planned`], the one driver every
//! simulated cluster runs through (a [`ShardNode`] — the site core's
//! simulator host — per site, one simulation, metrics plus every site's
//! final storage and WAL back) — the harness behind experiment E14 and the
//! banking example.

use crate::core::SiteCore;
use crate::node::{ShardNode, ShardNodeOpts};
use crate::plan::PlanTable;
use crate::site::{Metrics, ParticipantBuilder, ParticipantFactory, ReadSpec, TxnSpec};
use crate::storage::Storage;
use crate::value::{Key, TxnId, Value};
use ptp_protocols::api::Vote;
use ptp_protocols::interp::FsaParticipant;
use ptp_protocols::quorum::{QuorumConfig, QuorumSite};
use ptp_protocols::termination::{
    PhasePlan, TerminationMaster, TerminationSlave, TerminationVariant,
};
use ptp_simnet::{
    DelayModel, FaultPlan, NetConfig, PartitionEngine, RunReport, Simulation, SiteId, Trace,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Which commit protocol the cluster's transactions run.
///
/// # Examples
///
/// ```
/// use ptp_ddb::cluster::CommitProtocol;
/// use ptp_simnet::SiteId;
///
/// assert_eq!(CommitProtocol::HuangLi.name(), "HL-3PC");
///
/// // The builder is group-size generic: the same handle mints a master
/// // (index 0) for a 3-site group and a slave for a 5-site one, which is
/// // how `ptp-shard` runs one protocol at several replica-group sizes.
/// let builder = CommitProtocol::HuangLi.participant_builder();
/// let _master = builder(SiteId(0), 3);
/// let _slave = builder(SiteId(2), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitProtocol {
    /// Plain two-phase commit (Fig. 1): blocks under partitions — the
    /// baseline whose lock-hold times E14 measures.
    TwoPhase,
    /// Modified 3PC + the Huang–Li termination protocol (transient
    /// variant): terminates on both sides of a simple partition.
    HuangLi,
    /// Quorum commit: terminates only where a quorum is reachable.
    QuorumMajority,
}

impl CommitProtocol {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CommitProtocol::TwoPhase => "2PC",
            CommitProtocol::HuangLi => "HL-3PC",
            CommitProtocol::QuorumMajority => "Quorum",
        }
    }

    /// The [`ParticipantBuilder`] for this protocol: `(site, n)` yields the
    /// participant for virtual site `site` of an `n`-site protocol group
    /// (`site == SiteId(0)` is the group's master). The builder is fully
    /// group-size generic — one handle serves every replica-group size a
    /// sharded cluster runs, caching derived per-size protocol specs — which
    /// is what lets `ptp-shard` pool participants per `(site, group size)`
    /// through the same [`ParticipantFactory`] machinery as [`DbCluster`].
    pub fn participant_builder(self) -> ParticipantBuilder {
        match self {
            CommitProtocol::TwoPhase => {
                // One FSA spec per distinct group size, built on first use:
                // a flat cluster only ever asks for its own n, so this is
                // exactly the old one-spec-per-cluster behaviour there.
                let specs: RefCell<BTreeMap<usize, Arc<ptp_model::ProtocolSpec>>> =
                    RefCell::new(BTreeMap::new());
                Rc::new(move |site: SiteId, n: usize| {
                    let spec = specs
                        .borrow_mut()
                        .entry(n)
                        .or_insert_with(|| Arc::new(ptp_model::protocols::two_phase(n)))
                        .clone();
                    FsaParticipant::new(spec, site.index(), Vote::Yes, None).into()
                })
            }
            CommitProtocol::HuangLi => Rc::new(move |site: SiteId, n: usize| {
                if site == SiteId(0) {
                    TerminationMaster::new(PhasePlan::three_phase(), n).into()
                } else {
                    TerminationSlave::new(
                        PhasePlan::three_phase(),
                        site,
                        Vote::Yes,
                        TerminationVariant::Transient,
                    )
                    .into()
                }
            }),
            CommitProtocol::QuorumMajority => Rc::new(move |site: SiteId, n: usize| {
                QuorumSite::new(QuorumConfig::majority(n), site, Vote::Yes).into()
            }),
        }
    }
}

/// A cluster specification.
///
/// # Examples
///
/// ```
/// use ptp_ddb::cluster::{CommitProtocol, DbCluster};
/// use ptp_ddb::site::TxnSpec;
/// use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
/// use std::collections::BTreeMap;
///
/// let mut writes = BTreeMap::new();
/// writes.insert(1u16, vec![WriteOp { key: Key::from("k"), value: Value::from_u64(7) }]);
/// let run = DbCluster::new(3, CommitProtocol::HuangLi)
///     .seed(1, Key::from("k"), Value::from_u64(0))
///     .submit(0, TxnSpec { id: TxnId(1), writes })
///     .run();
/// assert!(run.metrics.atomicity_violations().is_empty());
/// assert_eq!(run.storages[1].get(&Key::from("k")).unwrap().as_u64(), Some(7));
/// // The WAL of every site comes back too: site 1 force-wrote the commit.
/// assert!(run.wals[1].durable().iter().any(|r| matches!(
///     r,
///     ptp_ddb::wal::Record::Commit { txn } if *txn == TxnId(1)
/// )));
/// ```
pub struct DbCluster {
    /// Number of sites.
    pub n: usize,
    /// The commit protocol.
    pub protocol: CommitProtocol,
    /// Initial committed data: `(site, key, value)`.
    pub seed: Vec<(u16, Key, Value)>,
    /// Client workload: `(submit tick, spec)`, submitted at the master.
    pub workload: Vec<(u64, TxnSpec)>,
    /// Read-only workload: `(submit tick, spec)`, served at the master
    /// under shared locks without a commit round.
    pub read_workload: Vec<(u64, ReadSpec)>,
    /// Everything injected into the run, in ticks: partition schedule,
    /// site failures, degraded-delay windows, envelope faults.
    pub faults: FaultPlan,
    /// Message delays.
    pub delay: DelayModel,
    /// Network configuration.
    pub config: NetConfig,
}

/// Everything a cluster run produces.
pub struct DbRun {
    /// Decisions, submissions, lock-hold intervals.
    pub metrics: Metrics,
    /// Full network trace.
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
    /// Final committed storage per site.
    pub storages: Vec<Storage>,
    /// Final write-ahead log per site (durable + volatile records).
    pub wals: Vec<crate::wal::Wal>,
    /// Transactions still undecided per site (blocked) at the end.
    pub blocked: Vec<Vec<TxnId>>,
    /// Protocol participants constructed across all sites.
    pub participants_constructed: usize,
    /// Pool acquisitions served off the free-lists across all sites.
    pub participants_reused: usize,
}

impl DbCluster {
    /// A fresh cluster with no seed data and no workload.
    pub fn new(n: usize, protocol: CommitProtocol) -> DbCluster {
        DbCluster {
            n,
            protocol,
            seed: Vec::new(),
            workload: Vec::new(),
            read_workload: Vec::new(),
            faults: FaultPlan::default(),
            delay: DelayModel::Fixed(700),
            config: NetConfig::default(),
        }
    }

    /// Seeds a key at a site.
    pub fn seed(mut self, site: u16, key: Key, value: Value) -> DbCluster {
        self.seed.push((site, key, value));
        self
    }

    /// Adds a transaction submitted at tick `at`.
    pub fn submit(mut self, at: u64, spec: TxnSpec) -> DbCluster {
        self.workload.push((at, spec));
        self
    }

    /// Adds a read-only transaction submitted at tick `at`. Read ids must
    /// be disjoint from write-transaction ids.
    pub fn submit_read(mut self, at: u64, spec: ReadSpec) -> DbCluster {
        self.read_workload.push((at, spec));
        self
    }

    /// Sets the partition schedule.
    pub fn partition(mut self, partition: PartitionEngine) -> DbCluster {
        self.faults.partition = partition;
        self
    }

    /// Sets the delay model.
    pub fn delay(mut self, delay: DelayModel) -> DbCluster {
        self.delay = delay;
        self
    }

    /// Injects a site failure (crash or crash-recover). On recovery the
    /// site replays its durable WAL: committed-unapplied transactions are
    /// redone, everything else is presumed aborted (Sec. 2).
    pub fn fail(mut self, spec: ptp_simnet::FailureSpec) -> DbCluster {
        self.faults.failures.push(spec);
        self
    }

    /// Arms an envelope-level fault (duplicate / reorder / drop) matched
    /// against the multiplexed `DbMsg` traffic by wire-kind and endpoints.
    pub fn env_fault(mut self, fault: ptp_simnet::EnvelopeFault) -> DbCluster {
        self.faults.env_faults.push(fault);
        self
    }

    /// Arms a degraded-network delay window.
    pub fn degrade(mut self, window: ptp_simnet::DegradeWindow) -> DbCluster {
        self.faults.degrades.push(window);
        self
    }

    /// Runs the cluster to quiescence (or the horizon).
    pub fn run(self) -> DbRun {
        // Writes first, then reads: the master arms its submission timers
        // in this order.
        let submissions: Vec<(u64, TxnId)> = self
            .workload
            .iter()
            .map(|(at, spec)| (*at, spec.id))
            .chain(self.read_workload.iter().map(|(at, spec)| (*at, spec.id)))
            .collect();
        let plans = PlanTable::flat(
            self.n,
            self.workload.into_iter().map(|(_, spec)| spec),
            self.read_workload.into_iter().map(|(_, spec)| spec),
        );
        let net = SimNet { config: self.config, faults: self.faults, delay: self.delay };
        run_planned(
            Arc::new(plans),
            &submissions,
            self.seed,
            self.protocol,
            ShardNodeOpts::default(),
            net,
        )
    }
}

/// The simulated network a cluster runs on, with everything injected into
/// it.
pub struct SimNet {
    /// Network configuration.
    pub config: NetConfig,
    /// Everything injected into the run, in ticks.
    pub faults: FaultPlan,
    /// Message delays.
    pub delay: DelayModel,
}

/// Runs a planned workload to quiescence (or the horizon): one
/// [`ShardNode`] per site of the plans' topology, `seed`ed with initial
/// committed `(site, key, value)` data, each `(tick, txn)` submission armed
/// at its plan's master (per master in slice order), all in **one**
/// simulation over `net` — so a single partition schedule or failure spec
/// cuts across every replica group deterministically. [`DbCluster::run`]
/// and `ptp_shard::ShardCluster::run` are both front ends over this.
pub fn run_planned(
    plans: Arc<PlanTable>,
    submissions: &[(u64, TxnId)],
    seed: impl IntoIterator<Item = (u16, Key, Value)>,
    protocol: CommitProtocol,
    opts: ShardNodeOpts,
    net: SimNet,
) -> DbRun {
    let (sites, metrics, trace, report) = run_sites(plans, submissions, seed, protocol, opts, net);
    let n = sites.len();
    let mut run = DbRun {
        metrics,
        trace,
        report,
        storages: Vec::with_capacity(n),
        wals: Vec::with_capacity(n),
        blocked: Vec::with_capacity(n),
        participants_constructed: 0,
        participants_reused: 0,
    };
    for site in sites {
        run.blocked.push(site.active_txns());
        let (constructed, reused) = site.participants();
        run.participants_constructed += constructed;
        run.participants_reused += reused;
        let (storage, wal, _) = site.into_parts();
        run.storages.push(storage);
        run.wals.push(wal);
    }
    run
}

/// [`run_planned`] up to the harvest: the same simulation, handing back the
/// site cores as it left them (in site order) beside the run's metrics,
/// trace and report — for whoever needs to look at a whole site, not just
/// its durable remains.
pub fn run_sites(
    plans: Arc<PlanTable>,
    submissions: &[(u64, TxnId)],
    seed: impl IntoIterator<Item = (u16, Key, Value)>,
    protocol: CommitProtocol,
    opts: ShardNodeOpts,
    net: SimNet,
) -> (Vec<SiteCore>, Metrics, Trace, RunReport) {
    let n = plans.topology.sites();
    let mut seeds = vec![Storage::new(); n];
    for (site, key, value) in seed {
        // (A seed addressed past the last site has no store to land in.)
        if let Some(storage) = seeds.get_mut(site as usize) {
            storage.seed(key, value);
        }
    }
    let mut workloads: Vec<Vec<(u64, TxnId)>> = vec![Vec::new(); n];
    for &(at, txn) in submissions {
        let master = plans.master_of(txn).expect("submitted transactions are planned");
        workloads[master.index()].push((at, txn));
    }

    let metrics = Rc::new(RefCell::new(Metrics::default()));
    let factory = ParticipantFactory::pooled(protocol.participant_builder());
    let actors: Vec<ShardNode> = seeds
        .into_iter()
        .zip(workloads)
        .enumerate()
        .map(|(i, (storage, workload))| {
            ShardNode::new(
                SiteId(i as u16),
                plans.clone(),
                factory.clone(),
                metrics.clone(),
                workload,
                storage,
                opts,
            )
        })
        .collect();

    let (actors, trace, report) = Simulation::new(net.config, actors, net.faults, &net.delay).run();
    let sites = actors.into_iter().map(ShardNode::into_core).collect();
    (sites, metrics.take(), trace, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::WriteOp;
    use ptp_simnet::{PartitionSpec, SimTime};

    fn transfer_spec(id: u32, amount: u64) -> TxnSpec {
        let mut writes = BTreeMap::new();
        writes.insert(
            1u16,
            vec![WriteOp { key: Key::from("acct-a"), value: Value::from_u64(100 - amount) }],
        );
        writes.insert(
            2u16,
            vec![WriteOp { key: Key::from("acct-b"), value: Value::from_u64(amount) }],
        );
        TxnSpec { id: TxnId(id), writes }
    }

    fn seeded(n: usize, protocol: CommitProtocol) -> DbCluster {
        DbCluster::new(n, protocol).seed(1, Key::from("acct-a"), Value::from_u64(100)).seed(
            2,
            Key::from("acct-b"),
            Value::from_u64(0),
        )
    }

    #[test]
    fn failure_free_transfer_commits_everywhere() {
        for protocol in
            [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority]
        {
            let run = seeded(3, protocol).submit(0, transfer_spec(1, 30)).run();
            assert!(run.metrics.atomicity_violations().is_empty());
            assert_eq!(
                run.storages[1].get(&Key::from("acct-a")).unwrap().as_u64(),
                Some(70),
                "{}",
                protocol.name()
            );
            assert_eq!(run.storages[2].get(&Key::from("acct-b")).unwrap().as_u64(), Some(30));
            assert!(run.blocked.iter().all(|b| b.is_empty()));
        }
    }

    #[test]
    fn duplicated_xact_envelopes_leave_the_workload_clean() {
        // The PR-3 duplicate-delivery class, reproduced through the armed
        // envelope-fault path instead of a hand-scripted driver (see
        // `core::tests::duplicate_xact_for_parked_txn_is_ignored`): the
        // network duplicates every xact send; parked and fresh transactions
        // alike must absorb the replays without double-acquiring locks.
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .submit(10_000, transfer_spec(2, 55))
            .env_fault(ptp_simnet::EnvelopeFault::duplicate(
                ptp_simnet::EnvelopeMatch::kind("xact"),
                ptp_simnet::SimDuration(350),
            ))
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        assert!(run.blocked.iter().all(|b| b.is_empty()), "{:?}", run.blocked);
        // The last committed transfer's values survive on both shards.
        assert_eq!(run.storages[1].get(&Key::from("acct-a")).unwrap().as_u64(), Some(45));
        assert_eq!(run.storages[2].get(&Key::from("acct-b")).unwrap().as_u64(), Some(55));
    }

    #[test]
    fn degraded_windows_only_slow_the_run() {
        let slow = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .degrade(ptp_simnet::DegradeWindow::new(SimTime(0), Some(SimTime(20_000)), 900, 1000))
            .run();
        assert!(slow.metrics.atomicity_violations().is_empty());
        assert_eq!(slow.storages[1].get(&Key::from("acct-a")).unwrap().as_u64(), Some(70));
        assert!(slow.blocked.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn two_pc_blocks_and_holds_locks_under_partition() {
        // Cut slave 2 off right after it votes: with 2PC it can never learn
        // the decision and holds its lock to the horizon.
        let partition = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(1500),
            vec![SiteId(0), SiteId(1)],
            vec![SiteId(2)],
        )]);
        let run = seeded(3, CommitProtocol::TwoPhase)
            .submit(0, transfer_spec(1, 30))
            .partition(partition)
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        assert!(!run.blocked[2].is_empty(), "site 2 must block");
        let holds = run.metrics.hold_durations(SimTime(200_000));
        assert!(
            holds.iter().any(|(_, site, _, still)| *site == SiteId(2) && *still),
            "site 2 still holds locks: {holds:?}"
        );
    }

    #[test]
    fn huang_li_terminates_and_releases_under_partition() {
        let partition = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(1500),
            vec![SiteId(0), SiteId(1)],
            vec![SiteId(2)],
        )]);
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .partition(partition)
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        assert!(run.blocked.iter().all(|b| b.is_empty()), "nobody blocks: {:?}", run.blocked);
        let holds = run.metrics.hold_durations(SimTime(200_000));
        assert!(holds.iter().all(|(_, _, _, still)| !still), "all locks released");
    }

    #[test]
    fn conflicting_transactions_serialize_on_a_fast_network() {
        // Two transfers touching the same keys, submitted 100 ticks apart.
        // With 200-tick delays the first finishes well inside the second's
        // 2T master timeout, so the second waits for the locks and then
        // commits.
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .submit(100, transfer_spec(2, 60))
            .delay(DelayModel::Fixed(200))
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        // The second transfer's values win.
        assert_eq!(run.storages[1].get(&Key::from("acct-a")).unwrap().as_u64(), Some(40));
        assert_eq!(run.storages[2].get(&Key::from("acct-b")).unwrap().as_u64(), Some(60));
        // Its lock wait is visible in the trace.
        assert!(run
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, ptp_simnet::TraceEvent::Note { label: "lock-wait", .. })));
    }

    #[test]
    fn lock_wait_beyond_master_timeout_aborts_the_waiter() {
        // With 700-tick delays the first transfer holds its locks past the
        // second's 2T master timeout: the second aborts (timeout-based
        // deadlock/overload resolution), the first commits.
        use ptp_model::Decision;
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .submit(100, transfer_spec(2, 60))
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        let d1: Vec<Decision> =
            run.metrics.decisions[&TxnId(1)].values().map(|(d, _)| *d).collect();
        let d2: Vec<Decision> =
            run.metrics.decisions[&TxnId(2)].values().map(|(d, _)| *d).collect();
        assert!(d1.iter().all(|d| *d == Decision::Commit), "{d1:?}");
        assert!(d2.iter().all(|d| *d == Decision::Abort), "{d2:?}");
        // First transfer's values survive.
        assert_eq!(run.storages[1].get(&Key::from("acct-a")).unwrap().as_u64(), Some(70));
    }

    #[test]
    fn crashed_slave_recovers_and_discards_uncommitted() {
        // Slave 2 crashes right after staging (voted, undecided) and comes
        // back later: recovery presumes the transaction aborted; the rest
        // of the cluster aborted on timeout long before — consistent.
        use ptp_simnet::FailureSpec;
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .fail(FailureSpec::crash_recover(SiteId(2), SimTime(1200), SimTime(20_000)))
            .run();
        assert!(run.trace.first_note(SiteId(2), "recovered").is_some(), "recovery hook must run");
        assert!(run.blocked[2].is_empty(), "no active transactions after recovery");
        // Its account was never touched: the transaction was presumed
        // aborted during recovery.
        assert_eq!(run.storages[2].get(&Key::from("acct-b")).unwrap().as_u64(), Some(0));
        assert!(run.metrics.atomicity_violations().is_empty());
    }

    #[test]
    fn crash_closes_in_flight_lock_holds_at_crash_time() {
        // Slave 2 crashes at 1200 with txn 1 staged (locks held, protocol in
        // flight). Its hold interval must close at the crash instant — not
        // run to the horizon, which would inflate E14's blocked-lock
        // numbers.
        use ptp_simnet::FailureSpec;
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .fail(FailureSpec::crash_recover(SiteId(2), SimTime(1200), SimTime(20_000)))
            .run();
        let site2: Vec<_> = run.metrics.lock_holds.iter().filter(|h| h.site == SiteId(2)).collect();
        assert!(!site2.is_empty(), "slave 2 acquired locks before the crash");
        for hold in site2 {
            assert_eq!(hold.to, Some(SimTime(1200)), "hold must close at the crash: {hold:?}");
        }
        assert!(run.metrics.hold_durations(SimTime(200_000)).iter().all(|(_, _, _, still)| !still));
    }

    #[test]
    fn permanent_crash_also_closes_lock_holds() {
        // No recovery ever happens, so only the crash hook can close the
        // interval.
        use ptp_simnet::FailureSpec;
        let run = seeded(3, CommitProtocol::HuangLi)
            .submit(0, transfer_spec(1, 30))
            .fail(FailureSpec::crash(SiteId(2), SimTime(1200)))
            .run();
        for hold in run.metrics.lock_holds.iter().filter(|h| h.site == SiteId(2)) {
            assert_eq!(hold.to, Some(SimTime(1200)), "{hold:?}");
        }
    }

    #[test]
    fn pooled_cluster_constructs_once_per_site_for_sequential_txns() {
        // Ten non-overlapping transactions: each site needs exactly one
        // participant, reused nine times.
        let mut cluster = seeded(3, CommitProtocol::HuangLi);
        for i in 0..10u32 {
            cluster = cluster.submit(i as u64 * 8000, transfer_spec(i + 1, 1));
        }
        let run = cluster.run();
        assert!(run.metrics.atomicity_violations().is_empty());
        assert_eq!(run.participants_constructed, 3);
        assert_eq!(run.participants_reused, 27);
    }

    #[test]
    fn consistency_check_passes_under_partition_sweep() {
        // A handful of partition instants; the HL cluster must never
        // mix decisions.
        for at in [500u64, 1000, 1500, 2000, 2500, 3000, 4000] {
            let partition = PartitionEngine::new(vec![PartitionSpec::simple(
                SimTime(at),
                vec![SiteId(0), SiteId(1)],
                vec![SiteId(2)],
            )]);
            let run = seeded(3, CommitProtocol::HuangLi)
                .submit(0, transfer_spec(1, 30))
                .partition(partition)
                .run();
            assert!(
                run.metrics.atomicity_violations().is_empty(),
                "violation at partition time {at}"
            );
            assert!(run.blocked.iter().all(|b| b.is_empty()), "blocked at {at}");
        }
    }
}
