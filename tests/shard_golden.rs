//! Golden digests of the sharded store with leases and anti-entropy on.
//!
//! [`ddb_golden`](../ddb_golden.rs) pins the flat `DbCluster`, which runs
//! neither chain; this suite pins what it leaves out: a seeded
//! `ShardCluster` family over two topologies — `uniform(6, 3, 2)`, where
//! groups tile the cluster, and `uniform(3, 3, 2)`, where every site masters
//! one shard and replicates another — with `Uniform` delays, single-key and
//! cross-shard writes, reads of seeded and never-written keys, transient
//! and permanent partitions that strand replicas (and, now and then, a
//! master), and crash or crash-recover of replicas and of masters.
//!
//! The digest folds `Metrics`, storages, WALs, blocked sets, every trace
//! event and the simulator's event count, per protocol. The family reaches
//! the anti-entropy delta install (`sync-installed`), decision replay and
//! ships (`shard-applied`), lease reads and crash recovery — which the test
//! checks, so a family that stops reaching a path fails loudly rather than
//! pinning less.
//!
//! The digests were generated before the anti-entropy exchange answered by
//! an ordered merge over a per-shard version index instead of a scan of the
//! master's whole store, and regenerated once since, when crash recovery
//! stopped presuming abort at a participant (the outcome is the
//! coordinator's; the participant now learns it by decision replay): a
//! digest that moves means the sharded store's behaviour moved. Regenerate
//! only for a deliberate behaviour change, and say so in CHANGES.md.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::site::ReadPath;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardReadSpec, ShardTopology, ShardTxnSpec};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    DelayModel, FailureSpec, PartitionEngine, PartitionSpec, SimDuration, SimTime, SiteId,
    TraceEvent,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const RUNS_PER_TOPOLOGY: usize = 100;

/// `(protocol, digest)`, regenerated when recovery stopped presuming abort
/// at a participant.
const GOLDEN: [(CommitProtocol, u64); 3] = [
    (CommitProtocol::TwoPhase, 0x8fd5_42d4_54bc_5460),
    (CommitProtocol::HuangLi, 0x5cc7_6a1d_c07d_a473),
    (CommitProtocol::QuorumMajority, 0x7fea_732a_60a0_fd08),
];

/// Read ids live above every write id.
const READ_BASE: u32 = 1000;

/// Keys per shard in a run's vocabulary; the last one of each shard is
/// never seeded.
const KEYS_PER_SHARD: usize = 3;

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..=items.len() as u64 - 1) as usize]
}

/// One seeded run over `topology`.
fn random_cluster(
    rng: &mut SmallRng,
    topology: &ShardTopology,
    protocol: CommitProtocol,
) -> ShardCluster {
    let n = topology.sites() as u16;
    let keys: Vec<Key> = topology.key_pool(KEYS_PER_SHARD).concat();
    let mut cluster = ShardCluster::new(topology.clone(), protocol)
        .delay(DelayModel::Uniform { seed: rng.gen_range(0..=9_999), min: 1, max: 1000 })
        .leases(2_000, 6_500)
        .anti_entropy(2_000 + rng.gen_range(0..=2_000));
    for (i, key) in keys.iter().enumerate() {
        if i % KEYS_PER_SHARD != KEYS_PER_SHARD - 1 {
            cluster = cluster.seed(key.clone(), Value::from_u64(i as u64));
        }
    }

    for id in 1..=2 + rng.gen_range(0..=14) as u32 {
        let mut writes: Vec<WriteOp> = (0..=rng.gen_range(0..=2))
            .map(|_| WriteOp {
                key: pick(rng, &keys).clone(),
                value: Value::from_u64(1000 * id as u64 + rng.gen_range(0..=999)),
            })
            .collect();
        writes.sort_by(|a, b| a.key.cmp(&b.key));
        writes.dedup_by(|a, b| a.key == b.key);
        cluster = cluster.submit(rng.gen_range(0..=30_000), ShardTxnSpec { id: TxnId(id), writes });
    }
    for i in 0..rng.gen_range(0..=5) as u32 {
        let mut read: Vec<Key> =
            (0..=rng.gen_range(0..=1)).map(|_| pick(rng, &keys).clone()).collect();
        read.sort();
        read.dedup();
        let spec = ShardReadSpec { id: TxnId(READ_BASE + i), keys: read };
        cluster = cluster.submit_read(rng.gen_range(0..=50_000), spec);
    }

    let sites: Vec<SiteId> = (0..n).map(SiteId).collect();
    if rng.gen_range(0..=3) != 0 {
        // Mostly one replica stranded alone; otherwise any proper subset.
        let far: Vec<SiteId> = if rng.gen_range(0..=2) != 0 {
            let shard = rng.gen_range(0..=topology.shards() as u64 - 1) as usize;
            vec![topology.group(shard)[1]]
        } else {
            let mask = 1 + rng.gen_range(0..=(1u64 << n) - 3);
            sites.iter().copied().filter(|s| (mask >> s.0) & 1 == 1).collect()
        };
        let near = sites.iter().copied().filter(|s| !far.contains(s)).collect();
        let at = SimTime(rng.gen_range(0..=25_000));
        let spec = match rng.gen_range(0..=2) {
            0 => PartitionSpec::simple(at, near, far),
            _ => PartitionSpec::transient(
                at,
                near,
                far,
                at + SimDuration(1_000 + rng.gen_range(0..=30_000)),
            ),
        };
        cluster = cluster.partition(PartitionEngine::new(vec![spec]));
    }
    if rng.gen_range(0..=1) == 0 {
        // A replica or a master, down for good or back after a while.
        let site = *pick(rng, &sites);
        let at = SimTime(500 + rng.gen_range(0..=30_000));
        cluster = cluster.fail(match rng.gen_range(0..=3) {
            0 => FailureSpec::crash(site, at),
            _ => FailureSpec::crash_recover(
                site,
                at,
                at + SimDuration(2_000 + rng.gen_range(0..=20_000)),
            ),
        });
    }
    cluster
}

/// FNV-1a over the `{:?}` rendering of everything a run returns; counts
/// each trace note label and the lease reads into `reached`.
fn digest(protocol: CommitProtocol, reached: &mut BTreeMap<&'static str, usize>) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x5A2D ^ protocol.name().len() as u64);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    for topology in [ShardTopology::uniform(6, 3, 2), ShardTopology::uniform(3, 3, 2)] {
        for _ in 0..RUNS_PER_TOPOLOGY {
            let run = random_cluster(&mut rng, &topology, protocol).run();
            text.clear();
            write!(
                text,
                "{:?}{:?}{:?}{:?}{:?}{:?}",
                run.metrics,
                run.storages,
                run.wals,
                run.blocked,
                run.trace.events(),
                run.report.events
            )
            .expect("writing to a String cannot fail");
            for b in text.bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            for event in run.trace.events() {
                if let TraceEvent::Note { label, .. } = event {
                    *reached.entry(label).or_default() += 1;
                }
            }
            let leased = run.metrics.reads.iter().filter(|r| r.path == ReadPath::Lease).count();
            *reached.entry("lease-read").or_default() += leased;
        }
    }
    hash
}

#[test]
fn sharded_store_with_leases_and_anti_entropy_reproduces_its_golden_digests() {
    let mut reached = BTreeMap::new();
    let got = GOLDEN.map(|(protocol, _)| (protocol, digest(protocol, &mut reached)));
    assert_eq!(
        got.map(|(p, d)| format!("{} {d:#018x}", p.name())),
        GOLDEN.map(|(p, d)| format!("{} {d:#018x}", p.name()))
    );
    for label in ["sync-installed", "shard-applied", "lease-read", "recovered"] {
        assert!(reached.get(label).copied().unwrap_or(0) > 0, "no run hit {label}: {reached:?}");
    }
}
