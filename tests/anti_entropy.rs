//! Regression: the stranded-replica convergence bug.
//!
//! A cross-shard commit ships its outcome to out-of-group replicas at
//! decision time — **once**. A replica partitioned away at that instant
//! missed the ship forever: the commit-time shipping never retries, so the
//! replica's store stayed stale until some *later* commit happened to ship
//! through it. With no subsequent commits, it diverged permanently.
//!
//! Anti-entropy closes the hole: the replica periodically polls its shard
//! master with its version vector; after the heal, the master answers with
//! the missed decision and a version-stamped delta, and the replica
//! installs both under full WAL discipline — WITHOUT any subsequent commit
//! shipping. These tests pin exactly that: heal → convergence via the sync
//! chain alone, and the same timeline without anti-entropy stays diverged
//! (the bug, preserved as the off-switch baseline).

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardTopology, ShardTxnSpec};
use ptp_simnet::{PartitionEngine, PartitionSpec, SimTime, SiteId};

/// A key routed to `shard` under `topo`.
fn key_in(topo: &ShardTopology, shard: usize) -> Key {
    (0..512)
        .map(|i| Key::from(format!("key-{i}")))
        .find(|k| topo.shard_of(k) == shard)
        .expect("probe key")
}

/// 2 shards × 2 replicas over 4 sites; shard 1's replica (site 3) is cut
/// off while a cross-shard transaction commits, then the partition heals.
/// No other transaction ever runs.
fn stranded_replica_cluster(topo: &ShardTopology, k0: &Key, k1: &Key) -> ShardCluster {
    let replica = topo.group(1)[1];
    let rest: Vec<SiteId> = (0..4u16).map(SiteId).filter(|s| *s != replica).collect();
    ShardCluster::new(topo.clone(), CommitProtocol::HuangLi)
        .seed(k0.clone(), Value::from_u64(1))
        .seed(k1.clone(), Value::from_u64(2))
        // Cut before the submit, heal long after the commit ship was lost.
        .partition(PartitionEngine::new(vec![PartitionSpec::transient(
            SimTime(100),
            rest,
            vec![replica],
            SimTime(40_000),
        )]))
        .submit(
            500,
            ShardTxnSpec {
                id: TxnId(1),
                writes: vec![
                    WriteOp { key: k0.clone(), value: Value::from_u64(10) },
                    WriteOp { key: k1.clone(), value: Value::from_u64(20) },
                ],
            },
        )
}

#[test]
fn stranded_replica_converges_via_anti_entropy_without_subsequent_commits() {
    let topo = ShardTopology::uniform(4, 2, 2);
    let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
    let master = topo.master(1);
    let replica = topo.group(1)[1];

    let run = stranded_replica_cluster(&topo, &k0, &k1).anti_entropy(3_000).run();
    assert!(run.metrics.atomicity_violations().is_empty());
    assert_eq!(run.cross_shard.committed, 1);
    // The heal alone drove convergence: replica 3 caught up with master 2.
    assert_eq!(
        run.storages[replica.index()].get(&k1),
        run.storages[master.index()].get(&k1),
        "replica must converge after the heal"
    );
    assert_eq!(run.storages[replica.index()].get(&k1).unwrap().as_u64(), Some(20));
    // The catch-up went through the replica's own WAL: exactly one install.
    let begins = run.wals[replica.index()]
        .durable()
        .iter()
        .filter(|r| matches!(r, ptp_core::ddb::wal::Record::Begin { txn, .. } if *txn == TxnId(1)))
        .count();
    assert_eq!(begins, 1, "one installed decision, no duplicates");
    // The replayed decision credits shard availability at the replica.
    assert_eq!(run.shards[1].availability(), 1.0, "{:?}", run.shards[1]);
    assert!(run.trace.first_note(replica, "shard-applied").is_some());
}

#[test]
fn without_anti_entropy_the_stranded_replica_stays_diverged() {
    // The preserved bug, as the off-switch baseline: the identical timeline
    // minus the sync chain leaves replica 3 stale forever.
    let topo = ShardTopology::uniform(4, 2, 2);
    let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
    let replica = topo.group(1)[1];

    let run = stranded_replica_cluster(&topo, &k0, &k1).run();
    assert!(run.metrics.atomicity_violations().is_empty());
    assert_eq!(run.cross_shard.committed, 1);
    assert_eq!(
        run.storages[replica.index()].get(&k1).unwrap().as_u64(),
        Some(2),
        "no catch-up path: the seed value survives"
    );
    assert!(run.shards[1].availability() < 1.0, "{:?}", run.shards[1]);
}

#[test]
fn anti_entropy_goes_silent_once_converged() {
    // Post-convergence, every sync request is answered with silence (no
    // response message at all) — the chain must not generate steady-state
    // traffic. Count sync responses in the recorded trace: at least one (the
    // catch-up), then none in the tail of the run.
    let topo = ShardTopology::uniform(4, 2, 2);
    let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
    let replica = topo.group(1)[1];

    let run = stranded_replica_cluster(&topo, &k0, &k1).anti_entropy(3_000).recording().run();
    let responses: Vec<SimTime> = run
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            ptp_simnet::TraceEvent::Delivered { at, dst, kind, .. }
                if *dst == replica && *kind == "sync-resp" =>
            {
                Some(*at)
            }
            _ => None,
        })
        .collect();
    assert!(!responses.is_empty(), "the catch-up response must arrive");
    let last = responses.last().unwrap();
    assert!(
        last.ticks() < 60_000,
        "sync chain kept answering after convergence (last response at {last:?})"
    );
}
