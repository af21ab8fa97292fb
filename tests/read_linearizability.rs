//! Campaign-style linearizability sweep for the elastic read path.
//!
//! Every served read — lease fast path, local shared-lock path, or
//! cross-shard protocol round — must be consistent with some linearization
//! of the committed writes, **under every safe-family timeline**: clean
//! runs, transient partitions, crash/recover cycles, leases on or off,
//! anti-entropy on or off. The oracle is
//! [`ptp_shard::check_read_history`]; on a violation the failing workload
//! is shrunk by the campaign's [`shrink`] (writes and reads removed one at
//! a time while the violation reproduces) before the panic reports it, so
//! the minimized counterexample lands in the assertion message.
//!
//! The sampler here is deliberately not the campaign's: it crashes shard
//! masters and crashes sites inside an open partition, which the
//! campaign's model-respecting family never does.

use ptp_core::campaign::shrink;
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{
    check_read_history, ReadViolation, ShardCluster, ShardReadSpec, ShardTopology, ShardTxnSpec,
};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{DelayModel, FailureSpec, PartitionEngine, PartitionSpec, SimTime, SiteId};

const READ_BASE: u32 = 1000;

/// One seeded scenario: a mixed workload plus a safe-family timeline.
#[derive(Clone)]
struct Scenario {
    topology: ShardTopology,
    protocol: CommitProtocol,
    seeds: Vec<(Key, Value)>,
    txns: Vec<(u64, TxnId, Vec<WriteOp>)>,
    reads: Vec<(u64, TxnId, Vec<Key>)>,
    delay: DelayModel,
    partition: Option<PartitionSpec>,
    failure: Option<FailureSpec>,
    lease: bool,
    anti_entropy: bool,
}

impl Scenario {
    fn random(rng: &mut SmallRng) -> Scenario {
        let topology = ShardTopology::uniform(6, 3, 2);
        let protocol = match rng.gen_range(0..=2) {
            0 => CommitProtocol::TwoPhase,
            1 => CommitProtocol::HuangLi,
            _ => CommitProtocol::QuorumMajority,
        };
        let keys: Vec<Key> = (0..6).map(|i| Key::from(format!("k{i}"))).collect();
        let seeds =
            keys.iter().enumerate().map(|(i, k)| (k.clone(), Value::from_u64(i as u64))).collect();

        let txn_count = 1 + rng.gen_range(0..=7) as u32;
        let txns = (0..txn_count)
            .map(|i| {
                let at = rng.gen_range(0..=30_000);
                let mut ws: Vec<WriteOp> = (0..=rng.gen_range(0..=2))
                    .map(|_| WriteOp {
                        key: keys[rng.gen_range(0..=5) as usize].clone(),
                        value: Value::from_u64(1000 * (i as u64 + 1) + rng.gen_range(0..=999)),
                    })
                    .collect();
                ws.sort_by(|a, b| a.key.cmp(&b.key));
                ws.dedup_by(|a, b| a.key == b.key);
                (at, TxnId(i + 1), ws)
            })
            .collect();

        let read_count = 2 + rng.gen_range(0..=8) as u32;
        let reads = (0..read_count)
            .map(|i| {
                let at = rng.gen_range(0..=40_000);
                let mut ks: Vec<Key> = (0..=rng.gen_range(0..=2))
                    .map(|_| keys[rng.gen_range(0..=5) as usize].clone())
                    .collect();
                ks.sort();
                ks.dedup();
                (at, TxnId(READ_BASE + i), ks)
            })
            .collect();

        let delay = match rng.gen_range(0..=1) {
            0 => DelayModel::Fixed(1 + rng.gen_range(0..=999)),
            _ => DelayModel::Uniform { seed: rng.gen_range(0..=9_999), min: 1, max: 1000 },
        };

        let partition = (rng.gen_range(0..=1) == 0).then(|| {
            let cut = SiteId(rng.gen_range(0..=5) as u16);
            let rest = (0..6u16).map(SiteId).filter(|s| *s != cut).collect();
            let at = SimTime(rng.gen_range(0..=20_000));
            match rng.gen_range(0..=1) {
                0 => PartitionSpec::simple(at, rest, vec![cut]),
                _ => PartitionSpec::transient(
                    at,
                    rest,
                    vec![cut],
                    at + ptp_simnet::SimDuration(500 + rng.gen_range(0..=15_000)),
                ),
            }
        });

        let failure = (rng.gen_range(0..=2) == 0).then(|| {
            let site = SiteId(rng.gen_range(0..=5) as u16);
            let at = SimTime(500 + rng.gen_range(0..=15_000));
            if rng.gen_range(0..=1) == 0 {
                FailureSpec::crash(site, at)
            } else {
                FailureSpec::crash_recover(site, at, at + ptp_simnet::SimDuration(12_000))
            }
        });

        Scenario {
            topology,
            protocol,
            seeds,
            txns,
            reads,
            delay,
            partition,
            failure,
            lease: rng.gen_range(0..=1) == 0,
            anti_entropy: rng.gen_range(0..=1) == 0,
        }
    }

    fn run(&self) -> Vec<ReadViolation> {
        let mut cluster =
            ShardCluster::new(self.topology.clone(), self.protocol).delay(self.delay.clone());
        for (key, value) in &self.seeds {
            cluster = cluster.seed(key.clone(), value.clone());
        }
        for (at, id, writes) in &self.txns {
            cluster = cluster.submit(*at, ShardTxnSpec { id: *id, writes: writes.clone() });
        }
        for (at, id, keys) in &self.reads {
            cluster = cluster.submit_read(*at, ShardReadSpec { id: *id, keys: keys.clone() });
        }
        if let Some(p) = &self.partition {
            cluster = cluster.partition(PartitionEngine::new(vec![p.clone()]));
        }
        if let Some(f) = self.failure {
            cluster = cluster.fail(f);
        }
        if self.lease {
            cluster = cluster.leases(2_000, 6_500);
        }
        if self.anti_entropy {
            cluster = cluster.anti_entropy(4_000);
        }
        let run = cluster.run();
        assert!(run.metrics.atomicity_violations().is_empty());
        let specs: Vec<ShardTxnSpec> = self
            .txns
            .iter()
            .map(|(_, id, writes)| ShardTxnSpec { id: *id, writes: writes.clone() })
            .collect();
        check_read_history(&self.topology, &self.seeds, &specs, &run.metrics)
    }

    /// Strictly smaller scenarios: one write, then one read, dropped.
    fn candidates(&self) -> Vec<Scenario> {
        let less_txns = (0..self.txns.len()).map(|i| {
            let mut candidate = self.clone();
            candidate.txns.remove(i);
            candidate
        });
        let less_reads = (0..self.reads.len()).map(|i| {
            let mut candidate = self.clone();
            candidate.reads.remove(i);
            candidate
        });
        less_txns.chain(less_reads).collect()
    }

    fn describe(&self) -> String {
        format!(
            "protocol={} lease={} anti_entropy={} delay={:?}\n  txns={:?}\n  reads={:?}\n  partition={:?}\n  failure={:?}",
            self.protocol.name(),
            self.lease,
            self.anti_entropy,
            self.delay,
            self.txns,
            self.reads,
            self.partition,
            self.failure,
        )
    }
}

#[test]
fn every_served_read_linearizes_under_safe_family_timelines() {
    let mut rng = SmallRng::seed_from_u64(0x11EA);
    for i in 0..60 {
        let scenario = Scenario::random(&mut rng);
        let violations = scenario.run();
        if !violations.is_empty() {
            let (minimal, ..) =
                shrink(scenario, 256, Scenario::candidates, |s| !s.run().is_empty());
            let remaining = minimal.run();
            panic!(
                "scenario #{i}: {} read(s) fail to linearize; minimized counterexample:\n{}\nviolations: {:#?}",
                violations.len(),
                minimal.describe(),
                remaining,
            );
        }
    }
}

#[test]
fn lease_reads_are_exercised_and_linearize_on_the_clean_path() {
    // A clean timeline with leases on: renewals keep every grant live, so
    // single-shard reads after the first renewal round ride the fast path —
    // and still linearize.
    let topology = ShardTopology::uniform(6, 3, 2);
    let keys: Vec<Key> = (0..6).map(|i| Key::from(format!("k{i}"))).collect();
    let mut cluster =
        ShardCluster::new(topology.clone(), CommitProtocol::HuangLi).leases(2_000, 6_500);
    let seeds: Vec<(Key, Value)> =
        keys.iter().enumerate().map(|(i, k)| (k.clone(), Value::from_u64(i as u64))).collect();
    for (k, v) in &seeds {
        cluster = cluster.seed(k.clone(), v.clone());
    }
    let specs = vec![ShardTxnSpec {
        id: TxnId(1),
        writes: vec![WriteOp { key: keys[0].clone(), value: Value::from_u64(77) }],
    }];
    cluster = cluster.submit(10_000, specs[0].clone());
    for (i, k) in keys.iter().enumerate() {
        cluster = cluster.submit_read(
            20_000 + i as u64 * 100,
            ShardReadSpec { id: TxnId(READ_BASE + i as u32), keys: vec![k.clone()] },
        );
    }
    let run = cluster.run();
    assert!(run.metrics.atomicity_violations().is_empty());
    assert_eq!(run.reads.submitted, keys.len());
    assert_eq!(run.reads.lease, keys.len(), "all reads ride the lease path: {:?}", run.reads);
    assert!(check_read_history(&topology, &seeds, &specs, &run.metrics).is_empty());
    // The committed write is visible on the fast path.
    let r0 = run.metrics.reads.iter().find(|r| r.id == TxnId(READ_BASE)).expect("served");
    assert_eq!(r0.values[0].1, Some(Value::from_u64(77)));
}

#[test]
fn partitioned_master_falls_back_off_the_lease_path() {
    // Cut shard 0's master from its replica: the grants lapse, so a read at
    // the master after the cut must take the shared-lock path, not the
    // lease path — and the run still linearizes.
    let topology = ShardTopology::uniform(6, 3, 2);
    let master = topology.master(0);
    let replica = topology.group(0)[1];
    let k = (0..512)
        .map(|i| Key::from(format!("key-{i}")))
        .find(|k| topology.shard_of(k) == 0)
        .expect("probe key");
    let rest: Vec<SiteId> = (0..6u16).map(SiteId).filter(|s| *s != replica).collect();
    let seeds = vec![(k.clone(), Value::from_u64(5))];
    let run = ShardCluster::new(topology.clone(), CommitProtocol::HuangLi)
        .leases(2_000, 6_500)
        .seed(k.clone(), Value::from_u64(5))
        .partition(PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(10_000),
            rest,
            vec![replica],
        )]))
        // Submitted well after the grants from the pre-cut renewals lapse.
        .submit_read(30_000, ShardReadSpec { id: TxnId(READ_BASE), keys: vec![k.clone()] })
        .run();
    assert_eq!(run.reads.lease, 0, "lease must have lapsed: {:?}", run.reads);
    assert_eq!(run.reads.lock_local, 1, "{:?}", run.reads);
    let record = run.metrics.reads.iter().find(|r| r.id == TxnId(READ_BASE)).expect("served");
    assert_eq!(record.site, master);
    assert!(check_read_history(&topology, &seeds, &[], &run.metrics).is_empty());
}
