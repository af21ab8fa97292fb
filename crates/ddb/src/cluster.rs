//! The simulated store: one builder, two ways to address a workload.
//!
//! A [`Cluster`] holds what every simulated store run needs once — the
//! commit protocol, the [`FaultPlan`], the delays, the [`NetConfig`] and
//! the site options — beside its [`Workload`], addressed one of two ways:
//!
//! * [`DbCluster`] by site — the paper's model, one fully-replicated group
//!   with site 0 master of every transaction, lowered by
//!   [`PlanTable::flat`] (the harness behind experiment E14 and the banking
//!   example);
//! * [`ShardCluster`] by key — a keyspace split over replica groups (groups
//!   may overlap), lowered by [`PlanTable::route`].
//!
//! Either way [`Cluster::run`] hands the plans to [`run_sites`] — a
//! [`ShardNode`] per site, all in **one** simulation, so a single partition
//! schedule or failure spec cuts across every replica group at once — and
//! harvests one [`DbRun`]: the plans, the metrics, every site's final
//! storage, WAL and decisions, the per-shard, cross-shard and read
//! reports, and the trace: its sites' notes, or — asked for with
//! [`Cluster::recording`] — every envelope, timer and fault beside them. A
//! flat run's one shard is its whole group.
//!
//! ```
//! use ptp_ddb::cluster::{CommitProtocol, ShardCluster};
//! use ptp_ddb::plan::ShardTxnSpec;
//! use ptp_ddb::topology::ShardTopology;
//! use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
//!
//! let topo = ShardTopology::uniform(6, 3, 2);
//! let key = Key::from("k");
//! let run = ShardCluster::new(topo, CommitProtocol::HuangLi)
//!     .submit(0, ShardTxnSpec {
//!         id: TxnId(1),
//!         writes: vec![WriteOp { key: key.clone(), value: Value::from_u64(7) }],
//!     })
//!     .run();
//! assert!(run.metrics.atomicity_violations().is_empty());
//! assert_eq!(run.cross_shard.submitted, 0); // one key = single-shard
//! ```

use crate::audit::SiteRemains;
use crate::core::SiteCore;
use crate::lease::LeaseConfig;
use crate::node::{RunLog, ShardNode, ShardNodeOpts};
use crate::plan::{PlanTable, ShardReadSpec, ShardTxnSpec};
use crate::site::{Metrics, ParticipantBuilder, ParticipantFactory, ReadPath, ReadSpec, TxnSpec};
use crate::storage::Storage;
use crate::topology::ShardTopology;
use crate::value::{Decisions, Key, TxnId, Value};
use crate::wal::Wal;
use ptp_model::Decision;
use ptp_protocols::ProtocolKind;
use ptp_simnet::{
    DegradeWindow, DelayModel, EnvelopeFault, FailureSpec, FaultPlan, NetConfig, PartitionEngine,
    RunReport, SimScratch, Simulation, SiteId, Trace,
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
/// use ptp_protocols::api::Vote;
/// use ptp_simnet::SiteId;
///
/// assert_eq!(CommitProtocol::HuangLi.name(), "HL-3PC");
///
/// // The builder is group-size generic: the same handle mints a master
/// // (index 0) for a 3-site group and a slave for a 5-site one, which is
/// // how a sharded store runs one protocol at several replica-group sizes.
/// let builder = CommitProtocol::HuangLi.participant_builder();
/// let _master = builder(SiteId(0), 3, Vote::Yes);
/// let _slave = builder(SiteId(2), 5, Vote::Yes);
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

impl From<CommitProtocol> for ProtocolKind {
    /// The roster's kind for a store protocol: 2PC is Fig. 1's plain 2PC,
    /// HL-3PC the transient variant of the paper's protocol.
    fn from(protocol: CommitProtocol) -> ProtocolKind {
        match protocol {
            CommitProtocol::TwoPhase => ProtocolKind::Plain2pc,
            CommitProtocol::HuangLi => ProtocolKind::HuangLi3pc,
            CommitProtocol::QuorumMajority => ProtocolKind::QuorumMajority,
        }
    }
}

impl CommitProtocol {
    /// Display name for reports: the roster's.
    pub fn name(self) -> &'static str {
        ProtocolKind::from(self).name()
    }

    /// The [`ParticipantBuilder`] for this protocol — the roster's
    /// [`ProtocolKind::builder`]: `(site, n, vote)` yields the participant
    /// for virtual site `site` of an `n`-site protocol group (`site ==
    /// SiteId(0)` is the group's master). The builder is fully group-size
    /// generic — one handle serves every replica-group size a sharded
    /// store runs, deriving a per-size protocol spec once — which is what
    /// lets every site pool participants per `(site, group size)` through
    /// one [`ParticipantFactory`].
    pub fn participant_builder(self) -> ParticipantBuilder {
        ProtocolKind::from(self).builder()
    }
}

/// A simulated store: the protocol, the network and everything injected
/// into it, and a workload addressed the `W` way ([`DbCluster`],
/// [`ShardCluster`]).
pub struct Cluster<W> {
    /// The commit protocol — inside replica groups and for the top-level
    /// cross-shard coordinator alike.
    pub protocol: CommitProtocol,
    /// Everything injected into the run, in ticks: partition schedule,
    /// site failures, degraded-delay windows, envelope faults. One plan
    /// cuts across every replica group.
    pub faults: FaultPlan,
    /// Message delays.
    pub delay: DelayModel,
    /// Network configuration.
    pub config: NetConfig,
    workload: W,
    opts: ShardNodeOpts,
    record: bool,
}

/// How a [`Cluster`] addresses its workload: by site ([`Flat`]) or by key
/// ([`Keyed`]).
pub trait Workload {
    /// Lowers the workload to what [`run_sites`] takes.
    fn lower(self) -> Lowered;
}

/// A lowered workload: its plans, its `(tick, transaction)` submissions —
/// writes first, then reads, each in submission order: the order a master
/// arms its submission timers in — and its initial committed
/// `(site, key, value)` data.
pub type Lowered = (PlanTable, Vec<(u64, TxnId)>, Vec<(u16, Key, Value)>);

/// A site-addressed workload over `n` fully-replicated sites.
pub struct Flat {
    n: usize,
    seed: Vec<(u16, Key, Value)>,
    writes: Vec<(u64, TxnSpec)>,
    reads: Vec<(u64, ReadSpec)>,
}

impl Workload for Flat {
    fn lower(self) -> Lowered {
        let submissions = (self.writes.iter().map(|(at, spec)| (*at, spec.id)))
            .chain(self.reads.iter().map(|(at, spec)| (*at, spec.id)))
            .collect();
        let plans = PlanTable::flat(
            self.n,
            self.writes.into_iter().map(|(_, spec)| spec),
            self.reads.into_iter().map(|(_, spec)| spec),
        );
        (plans, submissions, self.seed)
    }
}

/// A key-addressed workload over a shard map.
pub struct Keyed {
    topology: ShardTopology,
    seed: Vec<(Key, Value)>,
    writes: Vec<(u64, ShardTxnSpec)>,
    reads: Vec<(u64, ShardReadSpec)>,
}

impl Workload for Keyed {
    fn lower(self) -> Lowered {
        let Keyed { topology, seed, writes, reads } = self;
        let submissions = (writes.iter().map(|(at, spec)| (*at, spec.id)))
            .chain(reads.iter().map(|(at, spec)| (*at, spec.id)))
            .collect();
        // Every replica of the key's shard holds its seed.
        let seed = seed
            .into_iter()
            .flat_map(|(key, value)| {
                let replicas = topology.group(topology.shard_of(&key));
                replicas.iter().map(move |site| (site.0, key.clone(), value.clone()))
            })
            .collect();
        let plans = PlanTable::route(
            topology,
            writes.iter().map(|(_, spec)| spec),
            reads.iter().map(|(_, spec)| spec),
        );
        (plans, submissions, seed)
    }
}

/// The paper's store: one fully-replicated group of `n` sites, site 0
/// master of every transaction, each transaction's write set given per
/// site.
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
pub type DbCluster = Cluster<Flat>;

impl DbCluster {
    /// A fresh cluster of `n` sites with no seed data and no workload.
    pub fn new(n: usize, protocol: CommitProtocol) -> DbCluster {
        Cluster::over(protocol, Flat { n, seed: Vec::new(), writes: Vec::new(), reads: Vec::new() })
    }

    /// Seeds a key at a site.
    pub fn seed(mut self, site: u16, key: Key, value: Value) -> DbCluster {
        self.workload.seed.push((site, key, value));
        self
    }

    /// Adds a transaction submitted at tick `at`, at the master.
    pub fn submit(mut self, at: u64, spec: TxnSpec) -> DbCluster {
        self.workload.writes.push((at, spec));
        self
    }

    /// Adds a read-only transaction submitted at tick `at`, served at the
    /// master under shared locks without a commit round. Read ids must be
    /// disjoint from write-transaction ids.
    pub fn submit_read(mut self, at: u64, spec: ReadSpec) -> DbCluster {
        self.workload.reads.push((at, spec));
        self
    }
}

/// A sharded store: the keyspace split over the replica groups of a
/// [`ShardTopology`], a transaction committed inside its shard's group or,
/// across shards, by a top-level instance of the same protocol over the
/// involved groups' masters.
///
/// # Examples
///
/// ```
/// use ptp_ddb::cluster::{CommitProtocol, ShardCluster};
/// use ptp_ddb::plan::ShardTxnSpec;
/// use ptp_ddb::topology::ShardTopology;
/// use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
///
/// // 3 shards × 2 replicas over 6 sites; transfer between two keys.
/// let topo = ShardTopology::uniform(6, 3, 2);
/// let (a, b) = (Key::from("acct-a"), Key::from("acct-b"));
/// let run = ShardCluster::new(topo, CommitProtocol::HuangLi)
///     .seed(a.clone(), Value::from_u64(100))
///     .seed(b.clone(), Value::from_u64(0))
///     .submit(0, ShardTxnSpec {
///         id: TxnId(1),
///         writes: vec![
///             WriteOp { key: a.clone(), value: Value::from_u64(70) },
///             WriteOp { key: b.clone(), value: Value::from_u64(30) },
///         ],
///     })
///     .run();
/// assert!(run.metrics.atomicity_violations().is_empty());
/// // Every replica of each touched shard holds the committed value.
/// for shard in &run.shards {
///     assert_eq!(shard.availability(), 1.0, "shard {}", shard.shard);
/// }
/// ```
pub type ShardCluster = Cluster<Keyed>;

impl ShardCluster {
    /// A fresh cluster over `topology` with no seed data and no workload.
    pub fn new(topology: ShardTopology, protocol: CommitProtocol) -> ShardCluster {
        let workload = Keyed { topology, seed: Vec::new(), writes: Vec::new(), reads: Vec::new() };
        Cluster::over(protocol, workload)
    }

    /// Seeds a key at every replica of its shard.
    pub fn seed(mut self, key: Key, value: Value) -> ShardCluster {
        self.workload.seed.push((key, value));
        self
    }

    /// Adds a transaction submitted at tick `at`, at its plan's master.
    pub fn submit(mut self, at: u64, spec: ShardTxnSpec) -> ShardCluster {
        self.workload.writes.push((at, spec));
        self
    }

    /// Adds a read-only transaction submitted at tick `at`, at its plan's
    /// serving master. Read ids must be disjoint from write ids.
    pub fn submit_read(mut self, at: u64, spec: ShardReadSpec) -> ShardCluster {
        self.workload.reads.push((at, spec));
        self
    }

    /// Enables the master-lease fast path: masters renew replica grants
    /// every `period` ticks, each ack arming a `duration`-tick grant.
    pub fn leases(mut self, period: u64, duration: u64) -> ShardCluster {
        self.opts.lease = Some(LeaseConfig::new(period, duration));
        self
    }

    /// Enables anti-entropy catch-up: replicas poll their shard master
    /// every `period` ticks for missed decisions and a version-stamped
    /// delta.
    pub fn anti_entropy(mut self, period: u64) -> ShardCluster {
        self.opts.anti_entropy = Some(period);
        self
    }
}

impl<W: Workload> Cluster<W> {
    /// A cluster over `workload` on the default network: fixed 0.7 T
    /// delays, nothing injected, leases and anti-entropy off.
    fn over(protocol: CommitProtocol, workload: W) -> Cluster<W> {
        Cluster {
            protocol,
            faults: FaultPlan::default(),
            delay: DelayModel::Fixed(700),
            config: NetConfig::default(),
            workload,
            opts: ShardNodeOpts::default(),
            record: false,
        }
    }

    /// Records the whole simulator trace — every envelope, timer and fault
    /// beside the sites' notes — as
    /// [`RunOptions::recording`](ptp_protocols::RunOptions::recording) does
    /// for a protocol session. Without it a run's [`DbRun::trace`] holds the
    /// notes only, in the same order.
    pub fn recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// Sets the partition schedule.
    pub fn partition(mut self, partition: PartitionEngine) -> Self {
        self.faults.partition = partition;
        self
    }

    /// Sets the delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Injects a site failure (crash or crash-recover). On recovery the
    /// site replays its durable WAL: committed-unapplied transactions are
    /// redone, everything else is presumed aborted (Sec. 2).
    pub fn fail(mut self, spec: FailureSpec) -> Self {
        self.faults.failures.push(spec);
        self
    }

    /// Arms an envelope-level fault (duplicate / reorder / drop) matched
    /// against the multiplexed `DbMsg` traffic by wire-kind and endpoints.
    pub fn env_fault(mut self, fault: EnvelopeFault) -> Self {
        self.faults.env_faults.push(fault);
        self
    }

    /// Arms a degraded-network delay window.
    pub fn degrade(mut self, window: DegradeWindow) -> Self {
        self.faults.degrades.push(window);
        self
    }

    /// Runs the cluster to quiescence (or the horizon).
    pub fn run(self) -> DbRun {
        let (plans, submissions, seed) = self.workload.lower();
        let plans = Arc::new(plans);
        let net = SimNet {
            config: self.config,
            faults: self.faults,
            delay: self.delay,
            record: self.record,
        };
        let (sites, metrics, trace, report) =
            run_sites(plans.clone(), &submissions, seed, self.protocol, self.opts, net);
        let (shards, cross_shard) = aggregate(&plans, &metrics);
        let mut run = DbRun {
            reads: aggregate_reads(&plans, &metrics),
            plans,
            metrics,
            shards,
            cross_shard,
            trace,
            report,
            storages: Vec::with_capacity(sites.len()),
            wals: Vec::with_capacity(sites.len()),
            finished: Vec::with_capacity(sites.len()),
            blocked: Vec::with_capacity(sites.len()),
            participants_constructed: 0,
            participants_reused: 0,
        };
        for site in sites {
            run.blocked.push(site.active_txns());
            let (constructed, reused) = site.participants();
            run.participants_constructed += constructed;
            run.participants_reused += reused;
            let (storage, wal, finished) = site.into_parts();
            run.storages.push(storage);
            run.wals.push(wal);
            run.finished.push(finished);
        }
        run
    }
}

/// Everything a cluster run produces.
pub struct DbRun {
    /// Decisions, submissions, lock-hold intervals, served reads (all
    /// sites).
    pub metrics: Metrics,
    /// Per-shard outcome accounting (a flat run: its one shard, whose
    /// group is every site).
    pub shards: Vec<ShardMetrics>,
    /// Cross-shard traffic accounting.
    pub cross_shard: CrossShardReport,
    /// Read-path accounting.
    pub reads: ReadReport,
    /// The compiled plans the sites ran.
    pub plans: Arc<PlanTable>,
    /// The sites' notes, in the order they were made; with
    /// [`Cluster::recording`], the full simulator trace.
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
    /// Final committed storage per site.
    pub storages: Vec<Storage>,
    /// Final write-ahead log per site (durable + volatile records).
    pub wals: Vec<Wal>,
    /// Every decision each site recorded.
    pub finished: Vec<Decisions>,
    /// Transactions with a commit protocol still in flight per site
    /// (blocked) at the end.
    pub blocked: Vec<Vec<TxnId>>,
    /// Protocol participants constructed across all sites and pools.
    pub participants_constructed: usize,
    /// Pool acquisitions served off the free-lists across all sites.
    pub participants_reused: usize,
}

impl DbRun {
    /// What each site left behind, for the store [`audit`](crate::audit).
    pub fn remains(&self) -> Vec<SiteRemains<'_>> {
        let sites = self.storages.iter().zip(&self.wals).zip(&self.finished);
        sites.map(|((storage, wal), finished)| SiteRemains { storage, wal, finished }).collect()
    }
}

/// What a sharded run produces: the one run type.
pub type ShardRun = DbRun;

/// Per-shard outcome accounting, derived from the shared [`Metrics`] after
/// the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetrics {
    /// The shard index.
    pub shard: usize,
    /// Its replica group (master first).
    pub group: Vec<SiteId>,
    /// Transactions that wrote this shard.
    pub txns: usize,
    /// Of those, how many also wrote other shards.
    pub cross_shard_txns: usize,
    /// Transactions this shard's master decided `Commit`.
    pub committed: usize,
    /// Transactions this shard's master decided `Abort`.
    pub aborted: usize,
    /// Transactions this shard's master never decided (blocked at the
    /// master by the end of the run).
    pub undecided: usize,
    /// Observed `(transaction, group member)` decisions.
    pub member_decisions: usize,
    /// Expected `(transaction, group member)` decisions
    /// (`txns × group size`).
    pub member_slots: usize,
}

impl ShardMetrics {
    /// Shard-level availability: the fraction of `(transaction, member)`
    /// slots that reached a decision. `1.0` means every replica of this
    /// shard learned the outcome of every transaction that touched it; a
    /// partition that strands replicas (or blocks the protocol) drags it
    /// down.
    pub fn availability(&self) -> f64 {
        if self.member_slots == 0 {
            return 1.0;
        }
        self.member_decisions as f64 / self.member_slots as f64
    }
}

/// Cross-shard traffic accounting, judged at each transaction's top-level
/// coordinator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossShardReport {
    /// Cross-shard transactions submitted.
    pub submitted: usize,
    /// Coordinator decided `Commit`.
    pub committed: usize,
    /// Coordinator decided `Abort`.
    pub aborted: usize,
    /// Coordinator never decided (blocked).
    pub blocked: usize,
}

/// Read-path accounting, judged at each read plan's serving master.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// Read-only transactions actually submitted (a crashed master never
    /// submits its queued reads).
    pub submitted: usize,
    /// Served on the master-lease fast path (no locks, no protocol).
    pub lease: usize,
    /// Served locally under shared locks (no protocol round).
    pub lock_local: usize,
    /// Served through a top-level cross-shard protocol round.
    pub protocol: usize,
    /// Aborted by the protocol round.
    pub aborted: usize,
    /// Submitted but never served nor aborted (parked or blocked at the
    /// horizon).
    pub blocked: usize,
}

impl ReadReport {
    /// Total reads served, on any path.
    pub fn served(&self) -> usize {
        self.lease + self.lock_local + self.protocol
    }
}

/// Derives the per-shard and cross-shard reports from the shared metrics.
fn aggregate(plans: &PlanTable, metrics: &Metrics) -> (Vec<ShardMetrics>, CrossShardReport) {
    let topology = &plans.topology;
    let mut shards: Vec<ShardMetrics> = (0..topology.shards())
        .map(|s| ShardMetrics {
            shard: s,
            group: topology.group(s).to_vec(),
            txns: 0,
            cross_shard_txns: 0,
            committed: 0,
            aborted: 0,
            undecided: 0,
            member_decisions: 0,
            member_slots: 0,
        })
        .collect();
    let mut cross = CrossShardReport::default();

    for (txn, plan) in plans.iter() {
        let decisions = metrics.decisions.get(&txn);
        if plan.is_cross_shard() {
            cross.submitted += 1;
            match decisions.and_then(|d| d.get(&plan.master().0)) {
                Some((Decision::Commit, _)) => cross.committed += 1,
                Some((Decision::Abort, _)) => cross.aborted += 1,
                None => cross.blocked += 1,
            }
        }
        for &s in plan.shards() {
            let m = &mut shards[s];
            m.txns += 1;
            if plan.is_cross_shard() {
                m.cross_shard_txns += 1;
            }
            m.member_slots += topology.group(s).len();
            match decisions.and_then(|d| d.get(&topology.master(s).0)) {
                Some((Decision::Commit, _)) => m.committed += 1,
                Some((Decision::Abort, _)) => m.aborted += 1,
                None => m.undecided += 1,
            }
            if let Some(d) = decisions {
                m.member_decisions +=
                    topology.group(s).iter().filter(|site| d.contains_key(&site.0)).count();
            }
        }
    }

    (shards, cross)
}

/// Folds per-read outcomes into a [`ReadReport`], judging each read at its
/// plan's serving master (cross-shard commits snapshot at every member, but
/// only the coordinator's record counts the read as served).
fn aggregate_reads(plans: &PlanTable, metrics: &Metrics) -> ReadReport {
    let mut report = ReadReport::default();
    // The path of the first record each site served each read by.
    let mut served: BTreeMap<(TxnId, SiteId), ReadPath> = BTreeMap::new();
    for record in &metrics.reads {
        served.entry((record.id, record.site)).or_insert(record.path);
    }
    for (id, plan) in plans.iter_reads() {
        let submitted = metrics.reads_submitted.contains_key(&id);
        if submitted {
            report.submitted += 1;
        }
        match served.get(&(id, plan.master())) {
            Some(ReadPath::Lease) => report.lease += 1,
            Some(ReadPath::LockLocal) => report.lock_local += 1,
            Some(ReadPath::Protocol) => report.protocol += 1,
            None if metrics.read_aborts.contains_key(&id) => report.aborted += 1,
            None if submitted => report.blocked += 1,
            None => {}
        }
    }
    report
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
    /// Whether the simulator records its whole trace; off, the run's trace
    /// is its sites' notes.
    pub record: bool,
}

/// The one driver: runs planned transactions to quiescence (or the
/// horizon) — one [`ShardNode`] per site of the plans' topology, `seed`ed
/// with initial committed `(site, key, value)` data, each `(tick, txn)`
/// submission armed at its plan's master (per master in slice order), all
/// in **one** simulation over `net` — and hands back the site cores as it
/// left them (in site order) beside the run's metrics, trace (the sites'
/// notes unless `net.record`) and report.
/// [`Cluster::run`] harvests them; a test that needs a whole site calls
/// this directly.
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

    let notes = (!net.record).then(Vec::new);
    let log = Rc::new(RefCell::new(RunLog { metrics: Metrics::default(), notes }));
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
                log.clone(),
                workload,
                storage,
                opts,
            )
        })
        .collect();

    let mut scratch = SimScratch::new();
    scratch.faults = net.faults;
    let sim = Simulation::with_scratch(net.config, actors, &net.delay, net.record, scratch);
    let (actors, trace, report) = sim.run();
    let sites = actors.into_iter().map(ShardNode::into_core).collect();
    let RunLog { metrics, notes } = log.take();
    (sites, metrics, notes.map_or(trace, Trace::from), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::WriteOp;
    use ptp_simnet::{EnvelopeMatch, PartitionSpec, SimDuration, SimTime};

    const PROTOCOLS: [CommitProtocol; 3] =
        [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority];

    fn w(key: &Key, v: u64) -> WriteOp {
        WriteOp { key: key.clone(), value: Value::from_u64(v) }
    }

    /// A key routed to `shard` under `topo`.
    fn key_in(topo: &ShardTopology, shard: usize) -> Key {
        (0..512)
            .map(|i| Key::from(format!("key-{i}")))
            .find(|k| topo.shard_of(k) == shard)
            .expect("probe key")
    }

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
        for protocol in PROTOCOLS {
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
            .env_fault(EnvelopeFault::duplicate(EnvelopeMatch::kind("xact"), SimDuration(350)))
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
            .degrade(DegradeWindow::new(SimTime(0), Some(SimTime(20_000)), 900, 1000))
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

    #[test]
    fn single_shard_txns_commit_in_their_groups() {
        for protocol in PROTOCOLS {
            let topo = ShardTopology::uniform(6, 3, 2);
            let (k0, k2) = (key_in(&topo, 0), key_in(&topo, 2));
            let run = ShardCluster::new(topo.clone(), protocol)
                .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 10)] })
                .submit(0, ShardTxnSpec { id: TxnId(2), writes: vec![w(&k2, 20)] })
                .run();
            assert!(run.metrics.atomicity_violations().is_empty(), "{}", protocol.name());
            assert!(run.blocked.iter().all(|b| b.is_empty()));
            // Both replicas of each touched shard hold the committed value.
            for &site in topo.group(0) {
                assert_eq!(
                    run.storages[site.index()].get(&k0).unwrap().as_u64(),
                    Some(10),
                    "{} at {site}",
                    protocol.name()
                );
            }
            for &site in topo.group(2) {
                assert_eq!(run.storages[site.index()].get(&k2).unwrap().as_u64(), Some(20));
            }
            // Untouched shard 1 never sees either key.
            for &site in topo.group(1) {
                assert_eq!(run.storages[site.index()].get(&k0), None);
            }
            assert_eq!(run.cross_shard, CrossShardReport::default());
            for shard in &run.shards {
                assert_eq!(shard.availability(), 1.0, "{:?}", shard);
            }
        }
    }

    #[test]
    fn cross_shard_txn_commits_at_masters_and_replicas() {
        for protocol in PROTOCOLS {
            let topo = ShardTopology::uniform(6, 3, 2);
            let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
            let run = ShardCluster::new(topo.clone(), protocol)
                .seed(k0.clone(), Value::from_u64(100))
                .seed(k1.clone(), Value::from_u64(0))
                .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 70), w(&k1, 30)] })
                .run();
            assert!(run.metrics.atomicity_violations().is_empty(), "{}", protocol.name());
            assert_eq!(run.cross_shard.submitted, 1);
            assert_eq!(run.cross_shard.committed, 1, "{}", protocol.name());
            // All four replicas across the two groups converge, shipped
            // replicas included.
            for &site in topo.group(0) {
                assert_eq!(run.storages[site.index()].get(&k0).unwrap().as_u64(), Some(70));
            }
            for &site in topo.group(1) {
                assert_eq!(run.storages[site.index()].get(&k1).unwrap().as_u64(), Some(30));
            }
            assert_eq!(run.shards[0].availability(), 1.0);
            assert_eq!(run.shards[1].availability(), 1.0);
        }
    }

    #[test]
    fn partition_between_groups_blocks_2pc_but_not_huang_li() {
        // Split the two involved groups apart right as the top-level
        // prepares are in flight: the paper's scenario, one layer up.
        let topo = ShardTopology::uniform(6, 3, 2);
        let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
        let partition = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(1500),
            vec![SiteId(0), SiteId(1), SiteId(4), SiteId(5)],
            vec![SiteId(2), SiteId(3)],
        )]);
        let mut outcomes = Vec::new();
        for protocol in PROTOCOLS {
            let run = ShardCluster::new(topo.clone(), protocol)
                .partition(partition.clone())
                .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 1), w(&k1, 2)] })
                .run();
            assert!(run.metrics.atomicity_violations().is_empty(), "{}", protocol.name());
            let stranded_master_decided =
                run.metrics.decisions.get(&TxnId(1)).is_some_and(|d| d.contains_key(&2));
            outcomes.push((protocol, stranded_master_decided));
        }
        // HL-3PC terminates the stranded group master; 2PC leaves it blocked.
        assert!(
            outcomes.iter().any(|(p, decided)| *p == CommitProtocol::HuangLi && *decided),
            "{outcomes:?}"
        );
        assert!(
            outcomes.iter().any(|(p, decided)| *p == CommitProtocol::TwoPhase && !*decided),
            "{outcomes:?}"
        );
    }

    #[test]
    fn cross_shard_read_never_splits_across_a_simple_partition() {
        // Regression: a bounced message of a cross-shard *read* round was
        // resolved through the write plans only, so it never reached the
        // read's participant — the coordinator served the snapshot while
        // the isolated master timed out and aborted: a commit/abort split
        // inside one simple partition (Theorem 9 excludes it), invisible to
        // the atomicity audit because reads never enter `decisions`.
        let topo = ShardTopology::uniform(6, 3, 2);
        let keys = vec![key_in(&topo, 0), key_in(&topo, 2)];
        let cut = topo.master(2);
        let group = [topo.master(0), cut];
        for protocol in PROTOCOLS {
            for at in [100, 600, 900, 1300, 1600, 2000, 2300, 2700, 3000, 3400] {
                let rest = (0..6).map(SiteId).filter(|s| *s != cut).collect();
                let run = ShardCluster::new(topo.clone(), protocol)
                    .partition(PartitionEngine::new(vec![PartitionSpec::simple(
                        SimTime(at),
                        rest,
                        vec![cut],
                    )]))
                    .submit_read(0, ShardReadSpec { id: TxnId(1), keys: keys.clone() })
                    .run();
                let tag = format!("{} cut at {at}", protocol.name());
                let served = |s: &SiteId| run.metrics.reads.iter().any(|r| r.site == *s);
                let aborted = |s: &SiteId| {
                    ["read-aborted", "read-parked-abort"]
                        .iter()
                        .any(|label| run.trace.first_note(*s, label).is_some())
                };
                assert!(
                    !(group.iter().any(served) && group.iter().any(aborted)),
                    "{tag}: served at one member, aborted at another"
                );
                // The two baselines may block; the termination protocol
                // decides at the coordinator and leaves no round in flight
                // (a master cut off before the xact never joined one).
                if protocol == CommitProtocol::HuangLi {
                    assert!(served(&group[0]) || aborted(&group[0]), "{tag}: undecided");
                    assert!(run.blocked.iter().all(|b| b.is_empty()), "{tag}: {:?}", run.blocked);
                }
            }
        }
    }

    #[test]
    fn partition_inside_a_group_strands_the_replica() {
        // Cut shard 1's replica (site 3) from everyone before the txn: the
        // group master still terminates (HL), but the replica cannot learn
        // the outcome — visible as < 1.0 availability on shard 1 only.
        let topo = ShardTopology::uniform(6, 3, 2);
        let k1 = key_in(&topo, 1);
        let partition = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(100),
            vec![SiteId(0), SiteId(1), SiteId(2), SiteId(4), SiteId(5)],
            vec![SiteId(3)],
        )]);
        let run = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
            .partition(partition)
            .submit(500, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k1, 5)] })
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        let shard1 = &run.shards[1];
        assert!(shard1.availability() < 1.0, "{shard1:?}");
        assert_eq!(run.shards[0].availability(), 1.0);
        assert_eq!(run.shards[2].availability(), 1.0);
    }

    #[test]
    fn shipped_apply_waits_for_conflicting_locks() {
        // Replication-1 shards make every commit a local decision plus a
        // ship...  instead use a replication-2 cross-shard commit whose
        // shipped apply lands on a replica busy with a conflicting local
        // txn: the apply must park, then install once the lock frees.
        let topo = ShardTopology::uniform(4, 2, 2);
        let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
        let run = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
            // Txn 1 is cross-shard: commits at masters 0 and 2, ships k1's
            // writes to replica 3 (and k0's to replica 1).
            .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 1), w(&k1, 1)] })
            // Txn 2 is single-shard on shard 1 and contends for k1.
            .submit(100, ShardTxnSpec { id: TxnId(2), writes: vec![w(&k1, 2)] })
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        // Everything terminates; replica 3 converges with master 2 on k1.
        assert!(run.blocked.iter().all(|b| b.is_empty()), "{:?}", run.blocked);
        assert_eq!(run.storages[2].get(&k1), run.storages[3].get(&k1));
    }

    #[test]
    fn replication_one_commits_locally_and_cross_shard_ships_nothing() {
        let topo = ShardTopology::uniform(4, 4, 1);
        let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
        let run = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
            .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 9)] })
            .submit(0, ShardTxnSpec { id: TxnId(2), writes: vec![w(&k0, 3), w(&k1, 4)] })
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        assert_eq!(run.cross_shard.submitted, 1);
        assert_eq!(run.cross_shard.committed, 1);
        assert_eq!(run.storages[topo.master(1).index()].get(&k1).unwrap().as_u64(), Some(4));
    }

    #[test]
    fn replica_serving_two_involved_shards_installs_both_write_sets() {
        // Regression: uniform(4, 3, 2) wraps shard 2's group onto {0, 1},
        // so a cross-shard txn over shards 0 and 2 collapses to sole
        // master 0 with replica 1 serving *both* shards. Shipping per
        // shard sent replica 1 two SHARD_APPLY messages; the second was
        // dropped as a duplicate and one shard's write was silently lost.
        // The ship must carry the replica's full union.
        let topo = ShardTopology::uniform(4, 3, 2);
        assert_eq!(topo.master(0), topo.master(2), "layout shares the master");
        let (k0, k2) = (key_in(&topo, 0), key_in(&topo, 2));
        for protocol in PROTOCOLS {
            let run = ShardCluster::new(topo.clone(), protocol)
                .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 7), w(&k2, 9)] })
                .run();
            assert!(run.metrics.atomicity_violations().is_empty(), "{}", protocol.name());
            assert_eq!(run.cross_shard.committed, 1, "{}", protocol.name());
            // Replica 1 converges with master 0 on BOTH keys.
            assert_eq!(
                run.storages[1].get(&k0),
                run.storages[0].get(&k0),
                "{}: shard-0 write lost at the replica",
                protocol.name()
            );
            assert_eq!(
                run.storages[1].get(&k2),
                run.storages[0].get(&k2),
                "{}: shard-2 write lost at the replica",
                protocol.name()
            );
            assert_eq!(run.storages[1].get(&k0).unwrap().as_u64(), Some(7));
            assert_eq!(run.storages[1].get(&k2).unwrap().as_u64(), Some(9));
        }
    }

    #[test]
    fn replica_shipped_by_two_masters_installs_everything_once() {
        // The two-shipper variant: shards {0,3} and {2,3} share replica 3
        // under different masters. Both masters ship the full union; the
        // first arrival installs both shards, the second is a duplicate.
        let topo =
            ShardTopology::new(4, vec![vec![SiteId(0), SiteId(3)], vec![SiteId(2), SiteId(3)]]);
        let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
        let run = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
            .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 3), w(&k1, 4)] })
            .run();
        assert!(run.metrics.atomicity_violations().is_empty());
        assert_eq!(run.cross_shard.committed, 1);
        assert_eq!(run.storages[3].get(&k0).unwrap().as_u64(), Some(3));
        assert_eq!(run.storages[3].get(&k1).unwrap().as_u64(), Some(4));
        // Exactly one install at the replica: one Begin record for txn 1.
        let begins = run.wals[3]
            .durable()
            .iter()
            .filter(|r| matches!(r, crate::wal::Record::Begin { txn, .. } if *txn == TxnId(1)))
            .count();
        assert_eq!(begins, 1, "duplicate ship must not re-install");
    }

    #[test]
    fn crashed_replica_recovers_and_stays_consistent() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let k0 = key_in(&topo, 0);
        let replica = topo.group(0)[1];
        let run = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
            .seed(k0.clone(), Value::from_u64(1))
            .submit(0, ShardTxnSpec { id: TxnId(1), writes: vec![w(&k0, 2)] })
            .fail(FailureSpec::crash_recover(replica, SimTime(1200), SimTime(20_000)))
            .run();
        assert!(run.trace.first_note(replica, "recovered").is_some());
        assert!(run.metrics.atomicity_violations().is_empty());
        assert!(run.blocked.iter().all(|b| b.is_empty()));
        // The replica presumed the staged txn aborted on recovery; the
        // master aborted on timeout — consistent, value unchanged there.
        assert_eq!(run.storages[replica.index()].get(&k0).unwrap().as_u64(), Some(1));
    }

    #[test]
    fn sequential_transactions_reuse_one_participant_per_replica() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let k0 = key_in(&topo, 0);
        let mut cluster = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi);
        for i in 0..6u32 {
            cluster = cluster.submit(
                i as u64 * 8000,
                ShardTxnSpec { id: TxnId(i + 1), writes: vec![w(&k0, i as u64)] },
            );
        }
        let run = cluster.run();
        assert!(run.metrics.atomicity_violations().is_empty());
        // Six non-overlapping writes to one shard: each of its two replicas
        // builds one participant and resets it in place five times.
        assert_eq!(run.participants_constructed, 2);
        assert_eq!(run.participants_reused, 10);
    }
}
