//! The seeded sharded-store family `shard_golden` pins: [`family`] yields
//! the same `ShardCluster`s, in the same order, to every suite that
//! includes it with `#[path = "common/sharded_family.rs"] mod
//! sharded_family;`.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardReadSpec, ShardTopology, ShardTxnSpec};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    DelayModel, FailureSpec, PartitionEngine, PartitionSpec, SimDuration, SimTime, SiteId,
};

/// Runs per topology in one protocol's family.
const RUNS_PER_TOPOLOGY: usize = 100;

/// The family of `protocol`, seeded from its name: `RUNS_PER_TOPOLOGY`
/// runs over `uniform(6, 3, 2)`, then as many over `uniform(3, 3, 2)`.
pub fn family(protocol: CommitProtocol) -> impl Iterator<Item = ShardCluster> {
    let mut rng = SmallRng::seed_from_u64(0x5A2D ^ protocol.name().len() as u64);
    let topologies = [ShardTopology::uniform(6, 3, 2), ShardTopology::uniform(3, 3, 2)];
    (0..2 * RUNS_PER_TOPOLOGY)
        .map(move |i| random_cluster(&mut rng, &topologies[i / RUNS_PER_TOPOLOGY], protocol))
}

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
