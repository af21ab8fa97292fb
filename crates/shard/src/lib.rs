//! # ptp-shard — a sharded, partially-replicated store over the commit
//! protocols
//!
//! The paper decides one transaction across one fully-replicated site
//! group. This crate adds the next structural layer on the road to the
//! ROADMAP's north star: a keyspace split into `S` shards, each mapped to
//! a replica group of sites (configurable replication factor; groups may
//! overlap), all hosted in **one** deterministic simulation — so a single
//! partition schedule or `FailureSpec` cuts across every group at once.
//!
//! * [`cluster`] — the [`ShardCluster`] driver: key-addressed workload →
//!   routing plans → `ptp_ddb::cluster::run_planned`, with aggregate and
//!   per-shard [`Metrics`] (`committed`, cross-shard abort rate, lock-hold
//!   time, per-shard availability) and the read-path report.
//! * [`topology`], [`plan`], [`node`], [`lease`], [`lineariz`] —
//!   re-exported from `ptp-ddb`, where the shard map, the router
//!   (single-shard: commit protocol inside the replica group; cross-shard:
//!   a top-level instance of the *same* protocol over the involved groups'
//!   masters, plus outcome shipping to out-of-group replicas), the one site
//!   core (with its simulator host) and the read-history oracle live, so
//!   that the flat [`ptp_ddb::DbCluster`] runs on them too.
//!
//! The sharded path cannot fork behaviour from the flat one: both are
//! front ends over the same driver and the same core, and a 1-shard
//! topology with replication `n` compiles a transaction to the group,
//! master and write sets `ptp_ddb::PlanTable::flat` gives the same
//! transaction written uniformly at every site.
//!
//! ```
//! use ptp_ddb::cluster::CommitProtocol;
//! use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
//! use ptp_shard::{ShardCluster, ShardTopology, ShardTxnSpec};
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;

pub use ptp_ddb::{lease, lineariz, node, plan, topology};

pub use cluster::{CrossShardReport, ReadReport, ShardCluster, ShardMetrics, ShardRun};
pub use lease::{LeaseConfig, LeaseTable};
pub use lineariz::{check_read_history, ReadViolation};
pub use node::{
    ShardNode, ShardNodeOpts, LEASE_ACK, LEASE_RENEW, SHARD_ABORT, SHARD_APPLY, SYNC_REQ, SYNC_RESP,
};
pub use plan::{PlanTable, ReadView, ShardReadSpec, ShardTxnSpec, TxnPlan, TxnView};
pub use topology::ShardTopology;

// Re-exported so downstream code can name the shared metrics type without
// a direct ptp-ddb dependency.
pub use ptp_ddb::site::Metrics;

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_ddb::cluster::CommitProtocol;
    use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
    use ptp_simnet::{FailureSpec, PartitionEngine, PartitionSpec, SimTime, SiteId};

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
            .filter(|r| matches!(r, ptp_ddb::wal::Record::Begin { txn, .. } if *txn == TxnId(1)))
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
