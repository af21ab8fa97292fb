//! The elastic read path must not fork behaviour: **read-only
//! transactions never mutate write state**. A run with reads mixed in
//! leaves every storage, WAL, lock-hold interval and write decision
//! identical to the write-only baseline, leases on or off.
//!
//! (The suite once also pinned a read-enabled 1-shard [`ShardCluster`]
//! byte-identical to `DbCluster`; both now run on the same site actor
//! through the same driver, so that comparison had two equal sides and was
//! retired — `tests/ddb_golden.rs` pins the flat cluster's reads instead.)
//!
//! Workloads randomize write sets, read sets (single- and cross-shard),
//! submission times, delays, partitions and crashes from a seeded
//! [`SmallRng`] so failures replay bit-for-bit.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardReadSpec, ShardTopology, ShardTxnSpec};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{DelayModel, FailureSpec, PartitionEngine, PartitionSpec, SimTime, SiteId};

/// Read ids live above every write id so the plan table never collides.
const READ_BASE: u32 = 1000;

/// One deterministic mixed workload.
struct WorkloadSpec {
    n: usize,
    /// Per write transaction: `(submit tick, id, writes)`.
    txns: Vec<(u64, TxnId, Vec<WriteOp>)>,
    /// Per read transaction: `(submit tick, id, keys)`.
    reads: Vec<(u64, TxnId, Vec<Key>)>,
    seeds: Vec<(Key, Value)>,
    delay: DelayModel,
    partition: Option<PartitionSpec>,
    failure: Option<FailureSpec>,
}

impl WorkloadSpec {
    /// `read_pool` names the key family reads draw from: `"k"` contends
    /// with the write keys, `"r"` is disjoint from them (both families are
    /// seeded either way).
    fn random(rng: &mut SmallRng, read_pool: &str) -> WorkloadSpec {
        let n = 3 + rng.gen_range(0..=1) as usize;
        let txn_count = 1 + rng.gen_range(0..=7) as u32;
        let txns = (0..txn_count)
            .map(|i| {
                let at = rng.gen_range(0..=20_000);
                let writes = (0..=rng.gen_range(0..=2))
                    .map(|_| WriteOp {
                        key: Key::from(format!("k{}", rng.gen_range(0..=2))),
                        value: Value::from_u64(rng.gen_range(0..=999)),
                    })
                    .collect();
                (at, TxnId(i + 1), writes)
            })
            .collect();

        let read_count = 1 + rng.gen_range(0..=5) as u32;
        let reads = (0..read_count)
            .map(|i| {
                let at = rng.gen_range(0..=25_000);
                let mut keys: Vec<Key> = (0..=rng.gen_range(0..=2))
                    .map(|_| Key::from(format!("{read_pool}{}", rng.gen_range(0..=2))))
                    .collect();
                keys.sort();
                keys.dedup();
                (at, TxnId(READ_BASE + i), keys)
            })
            .collect();

        let seeds = (0..3)
            .flat_map(|i| {
                [
                    (Key::from(format!("k{i}")), Value::from_u64(i as u64)),
                    (Key::from(format!("r{i}")), Value::from_u64(100 + i as u64)),
                ]
            })
            .collect();

        let delay = match rng.gen_range(0..=2) {
            0 => DelayModel::Fixed(1 + rng.gen_range(0..=999)),
            1 => DelayModel::Uniform { seed: rng.gen_range(0..=9_999), min: 1, max: 1000 },
            _ => DelayModel::Fixed(700),
        };

        let partition = (rng.gen_range(0..=2) == 0).then(|| {
            let cut = SiteId(1 + rng.gen_range(0..=(n as u64 - 2)) as u16);
            let g1 = (0..n as u16).map(SiteId).filter(|s| *s != cut).collect();
            let at = SimTime(rng.gen_range(0..=12_000));
            match rng.gen_range(0..=1) {
                0 => PartitionSpec::simple(at, g1, vec![cut]),
                _ => PartitionSpec::transient(
                    at,
                    g1,
                    vec![cut],
                    at + ptp_simnet::SimDuration(500 + rng.gen_range(0..=8_000)),
                ),
            }
        });

        let failure = (rng.gen_range(0..=3) == 0).then(|| {
            let site = SiteId(1 + rng.gen_range(0..=(n as u64 - 2)) as u16);
            let at = SimTime(500 + rng.gen_range(0..=8_000));
            if rng.gen_range(0..=1) == 0 {
                FailureSpec::crash(site, at)
            } else {
                FailureSpec::crash_recover(site, at, at + ptp_simnet::SimDuration(10_000))
            }
        });

        WorkloadSpec { n, txns, reads, seeds, delay, partition, failure }
    }

    /// The workload as a 1-shard, replication-`n` sharded cluster.
    fn build_sharded(&self, protocol: CommitProtocol, with_reads: bool) -> ShardCluster {
        let topology = ShardTopology::uniform(self.n, 1, self.n);
        let mut cluster = ShardCluster::new(topology, protocol).delay(self.delay.clone());
        for (key, value) in &self.seeds {
            cluster = cluster.seed(key.clone(), value.clone());
        }
        for (at, id, writes) in &self.txns {
            cluster = cluster.submit(*at, ShardTxnSpec { id: *id, writes: writes.clone() });
        }
        if with_reads {
            for (at, id, keys) in &self.reads {
                cluster = cluster.submit_read(*at, ShardReadSpec { id: *id, keys: keys.clone() });
            }
        }
        if let Some(p) = &self.partition {
            cluster = cluster.partition(PartitionEngine::new(vec![p.clone()]));
        }
        if let Some(f) = self.failure {
            cluster = cluster.fail(f);
        }
        cluster
    }
}

/// Strips the read-only records out of a metrics value so mixed runs can be
/// compared against write-only baselines field-by-field.
fn write_side(metrics: &ptp_core::ddb::site::Metrics) -> ptp_core::ddb::site::Metrics {
    let mut m = metrics.clone();
    m.reads.clear();
    m.reads_submitted.clear();
    m.read_aborts.clear();
    m.decisions.retain(|txn, _| txn.0 < READ_BASE);
    m
}

#[test]
fn reads_never_mutate_write_state_on_sharded_topologies() {
    // 3 shards × 2 replicas: reads mix local and cross-shard protocol
    // rounds, yet the write side of the run must be untouched — reads
    // never append WAL records, never stage writes, never log lock-hold
    // intervals. Reads draw from the disjoint `r` key family here so the
    // comparison isolates mutation from legitimate shared-lock contention
    // (a write queueing behind a reader shifts timings; that contention
    // semantics is pinned byte for byte by `tests/ddb_golden.rs`).
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for i in 0..20 {
        let spec = WorkloadSpec::random(&mut rng, "r");
        let topology = ShardTopology::uniform(6, 3, 2);
        let build = |with_reads: bool, lease: bool| {
            let mut cluster = ShardCluster::new(topology.clone(), CommitProtocol::HuangLi)
                .delay(DelayModel::Fixed(700));
            for (key, value) in &spec.seeds {
                cluster = cluster.seed(key.clone(), value.clone());
            }
            for (at, id, writes) in &spec.txns {
                cluster = cluster.submit(*at, ShardTxnSpec { id: *id, writes: writes.clone() });
            }
            if with_reads {
                for (at, id, keys) in &spec.reads {
                    cluster =
                        cluster.submit_read(*at, ShardReadSpec { id: *id, keys: keys.clone() });
                }
            }
            if lease {
                cluster = cluster.leases(2_000, 6_000);
            }
            cluster.run()
        };
        let baseline = build(false, false);
        for lease in [false, true] {
            let mixed = build(true, lease);
            let tag = format!("run #{i} lease={lease}");
            assert_eq!(baseline.storages, mixed.storages, "{tag}: storages");
            assert_eq!(baseline.wals, mixed.wals, "{tag}: WALs");
            assert_eq!(
                baseline.metrics.lock_holds, mixed.metrics.lock_holds,
                "{tag}: lock-hold intervals"
            );
            assert_eq!(write_side(&baseline.metrics), write_side(&mixed.metrics), "{tag}");
            assert!(mixed.metrics.atomicity_violations().is_empty(), "{tag}");
        }
    }
}

#[test]
fn mixed_read_write_pooled_runs_reuse_participants_and_reproduce() {
    // Reads contend with writes on the `k` family here, under random
    // partitions and crashes. The per-transaction construction baseline
    // this case used to compare against is retired (`reset` ≡ fresh
    // construction is `tests/session_reuse.rs`); what stays pinned is that
    // the pooled run recycles participants, stays atomic, and is a pure
    // function of the workload.
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let mut reused = 0;
    for i in 0..10 {
        let spec = WorkloadSpec::random(&mut rng, "k");
        let first = spec.build_sharded(CommitProtocol::HuangLi, true).run();
        let again = spec.build_sharded(CommitProtocol::HuangLi, true).run();
        assert!(first.metrics.atomicity_violations().is_empty(), "run #{i}");
        assert_eq!(first.metrics, again.metrics, "run #{i}: metrics");
        assert_eq!(first.storages, again.storages, "run #{i}: storages");
        assert_eq!(first.wals, again.wals, "run #{i}: WALs");
        assert_eq!(first.reads, again.reads, "run #{i}: read report");
        reused += first.participants_reused;
    }
    assert!(reused > 0, "sequential transactions must recycle pooled participants");
}
