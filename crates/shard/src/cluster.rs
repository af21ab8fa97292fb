//! The sharded cluster driver: compiles the key-addressed workload through
//! the shard map, routes seeds to every replica of their key's shard, runs
//! the plans through [`ptp_ddb::cluster::run_planned`] — the same driver,
//! and the same site core, as the flat [`ptp_ddb::DbCluster`] — and
//! aggregates global plus per-shard metrics.

use ptp_ddb::cluster::{run_planned, CommitProtocol, SimNet};
use ptp_ddb::lease::LeaseConfig;
use ptp_ddb::node::ShardNodeOpts;
use ptp_ddb::plan::{PlanTable, ShardReadSpec, ShardTxnSpec};
use ptp_ddb::site::{Metrics, ReadPath};
use ptp_ddb::storage::Storage;
use ptp_ddb::topology::ShardTopology;
use ptp_ddb::value::{Key, TxnId, Value};
use ptp_ddb::wal::Wal;
use ptp_model::Decision;
use ptp_simnet::{DelayModel, FaultPlan, NetConfig, PartitionEngine, RunReport, SiteId, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A sharded cluster specification, mirroring [`ptp_ddb::DbCluster`] one
/// structural level up: instead of one fully-replicated site group, a
/// keyspace split over `S` replica groups.
///
/// # Examples
///
/// ```
/// use ptp_ddb::cluster::CommitProtocol;
/// use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
/// use ptp_shard::{ShardCluster, ShardTopology, ShardTxnSpec};
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
pub struct ShardCluster {
    /// The shard map.
    pub topology: ShardTopology,
    /// The commit protocol — used both inside replica groups and for the
    /// top-level cross-shard coordinator.
    pub protocol: CommitProtocol,
    /// Initial committed data, routed to every replica of the key's shard.
    pub seed: Vec<(Key, Value)>,
    /// Client workload: `(submit tick, spec)`; each transaction is
    /// submitted at its plan's master.
    pub workload: Vec<(u64, ShardTxnSpec)>,
    /// Read-only workload: `(submit tick, spec)`; each read is submitted
    /// at its plan's serving master.
    pub read_workload: Vec<(u64, ShardReadSpec)>,
    /// Everything injected into the run, in ticks; one plan cuts across
    /// all groups.
    pub faults: FaultPlan,
    /// Message delays.
    pub delay: DelayModel,
    /// Network configuration.
    pub config: NetConfig,
    /// Master-lease fast path for local reads (off by default).
    pub lease: Option<LeaseConfig>,
    /// Anti-entropy catch-up period in ticks (off by default).
    pub anti_entropy: Option<u64>,
}

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
    /// Total lock-hold ticks attributed to this shard (horizon stands in
    /// for still-held locks).
    pub lock_hold_ticks: u64,
    /// Lock-hold intervals still open at the end of the run.
    pub locks_still_held: usize,
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

/// Everything a sharded run produces.
pub struct ShardRun {
    /// Global decisions, submissions, lock-hold intervals (all sites).
    pub metrics: Metrics,
    /// Per-shard outcome accounting.
    pub shards: Vec<ShardMetrics>,
    /// Cross-shard traffic accounting.
    pub cross_shard: CrossShardReport,
    /// Read-path accounting.
    pub reads: ReadReport,
    /// Full network trace.
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
    /// Final committed storage per site.
    pub storages: Vec<Storage>,
    /// Final write-ahead log per site.
    pub wals: Vec<Wal>,
    /// Transactions with a commit protocol still in flight per site.
    pub blocked: Vec<Vec<TxnId>>,
    /// Protocol participants constructed across all sites and pools.
    pub participants_constructed: usize,
    /// Pool acquisitions served off free-lists.
    pub participants_reused: usize,
}

impl ShardCluster {
    /// A fresh cluster over `topology` with no seed data and no workload.
    pub fn new(topology: ShardTopology, protocol: CommitProtocol) -> ShardCluster {
        ShardCluster {
            topology,
            protocol,
            seed: Vec::new(),
            workload: Vec::new(),
            read_workload: Vec::new(),
            faults: FaultPlan::default(),
            delay: DelayModel::Fixed(700),
            config: NetConfig::default(),
            lease: None,
            anti_entropy: None,
        }
    }

    /// Seeds a key at every replica of its shard.
    pub fn seed(mut self, key: Key, value: Value) -> ShardCluster {
        self.seed.push((key, value));
        self
    }

    /// Adds a transaction submitted at tick `at` (at its plan's master).
    pub fn submit(mut self, at: u64, spec: ShardTxnSpec) -> ShardCluster {
        self.workload.push((at, spec));
        self
    }

    /// Adds a read-only transaction submitted at tick `at` (at its plan's
    /// serving master). Read ids must be disjoint from write ids.
    pub fn submit_read(mut self, at: u64, spec: ShardReadSpec) -> ShardCluster {
        self.read_workload.push((at, spec));
        self
    }

    /// Enables the master-lease fast path: masters renew replica grants
    /// every `period` ticks, each ack arming a `duration`-tick grant.
    pub fn leases(mut self, period: u64, duration: u64) -> ShardCluster {
        self.lease = Some(LeaseConfig::new(period, duration));
        self
    }

    /// Enables anti-entropy catch-up: replicas poll their shard master
    /// every `period` ticks for missed decisions and a version-stamped
    /// delta.
    pub fn anti_entropy(mut self, period: u64) -> ShardCluster {
        self.anti_entropy = Some(period);
        self
    }

    /// Sets the partition schedule.
    pub fn partition(mut self, partition: PartitionEngine) -> ShardCluster {
        self.faults.partition = partition;
        self
    }

    /// Sets the delay model.
    pub fn delay(mut self, delay: DelayModel) -> ShardCluster {
        self.delay = delay;
        self
    }

    /// Injects a site failure (crash or crash-recover).
    pub fn fail(mut self, spec: ptp_simnet::FailureSpec) -> ShardCluster {
        self.faults.failures.push(spec);
        self
    }

    /// Runs the cluster to quiescence (or the horizon).
    pub fn run(self) -> ShardRun {
        let topology = &self.topology;
        let plans = Arc::new(PlanTable::route(
            topology.clone(),
            self.workload.iter().map(|(_, spec)| spec),
            self.read_workload.iter().map(|(_, spec)| spec),
        ));

        // Every replica of the key's shard holds its seed.
        let seed = self.seed.iter().flat_map(|(key, value)| {
            let replicas = topology.group(topology.shard_of(key));
            replicas.iter().map(move |site| (site.0, key.clone(), value.clone()))
        });
        // Each transaction is submitted at its plan's master: reads after
        // writes at each site, each in submission order.
        let submissions: Vec<(u64, TxnId)> = self
            .workload
            .iter()
            .map(|(at, spec)| (*at, spec.id))
            .chain(self.read_workload.iter().map(|(at, spec)| (*at, spec.id)))
            .collect();

        let horizon = self.config.max_time;
        let net = SimNet { config: self.config, faults: self.faults, delay: self.delay };
        let opts = ShardNodeOpts { lease: self.lease, anti_entropy: self.anti_entropy };
        let run = run_planned(plans.clone(), &submissions, seed, self.protocol, opts, net);

        let (shards, cross_shard) = aggregate(&plans, &run.metrics, horizon);
        ShardRun {
            shards,
            cross_shard,
            reads: aggregate_reads(&plans, &run.metrics),
            metrics: run.metrics,
            trace: run.trace,
            report: run.report,
            storages: run.storages,
            wals: run.wals,
            blocked: run.blocked,
            participants_constructed: run.participants_constructed,
            participants_reused: run.participants_reused,
        }
    }
}

/// Derives the per-shard and cross-shard reports from the shared metrics.
fn aggregate(
    plans: &PlanTable,
    metrics: &Metrics,
    horizon: ptp_simnet::SimTime,
) -> (Vec<ShardMetrics>, CrossShardReport) {
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
            lock_hold_ticks: 0,
            locks_still_held: 0,
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

    // Attribute each lock-hold interval to the first involved shard whose
    // replica group contains the holding site.
    for hold in &metrics.lock_holds {
        let Some(plan) = plans.get(hold.txn) else { continue };
        let Some(&shard) = plan.shards().iter().find(|&&s| topology.group(s).contains(&hold.site))
        else {
            continue;
        };
        let end = hold.to.unwrap_or(horizon);
        shards[shard].lock_hold_ticks += end.ticks().saturating_sub(hold.from.ticks());
        if hold.to.is_none() {
            shards[shard].locks_still_held += 1;
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
