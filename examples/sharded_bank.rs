//! The bank, sharded: accounts spread over three 2-replica shards on six
//! sites, with a cross-shard transfer in flight when the network splits the
//! two involved replica groups apart.
//!
//! Demonstrates the two-level design of `ptp-shard`: a transfer whose
//! accounts live in different shards commits through a **top-level**
//! instance of the chosen protocol over the shards' group masters — so a
//! partition severing the groups is terminated (HL-3PC), or measurably
//! blocked (2PC), by the paper's protocol one layer up — and each group
//! master ships the outcome to its replica.
//!
//! ```sh
//! cargo run --example sharded_bank
//! ```

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardTopology, ShardTxnSpec};
use ptp_simnet::{PartitionEngine, PartitionSpec, SimTime, SiteId};

/// A key routed to `shard` (probed through the deterministic router).
fn account_in(topo: &ShardTopology, shard: usize, hint: &str) -> Key {
    (0..512)
        .map(|i| Key::from(format!("{hint}-{i}")))
        .find(|k| topo.shard_of(k) == shard)
        .expect("an account name routing to the shard")
}

fn run_bank(protocol: CommitProtocol) {
    println!("---- {} ----", protocol.name());

    // 3 shards × 2 replicas over 6 sites: groups {0,1}, {2,3}, {4,5}.
    let topo = ShardTopology::uniform(6, 3, 2);
    let alice = account_in(&topo, 0, "alice");
    let bob = account_in(&topo, 1, "bob");

    // Cut shard 1's group away from shard 0's at t = 1.5T, while the
    // cross-shard transfer's top-level votes are in flight.
    let partition = PartitionEngine::new(vec![PartitionSpec::simple(
        SimTime(1500),
        vec![SiteId(0), SiteId(1), SiteId(4), SiteId(5)],
        vec![SiteId(2), SiteId(3)],
    )]);
    // The transfer's top-level protocol group is the two masters {0, 2}:
    // that is the group this split severs (each shard's own replica pair
    // stays intact on its side of the boundary).
    let masters = [topo.master(0), topo.master(1)];
    assert!(!partition.connected(masters[0], masters[1], SimTime(1500)));
    println!(
        "  top-level group {:?} severed from t = 1.5T; each replica group intact",
        masters.map(|s| s.0)
    );

    let run = ShardCluster::new(topo.clone(), protocol)
        .seed(alice.clone(), Value::from_u64(100))
        .seed(bob.clone(), Value::from_u64(50))
        .submit(
            0,
            ShardTxnSpec {
                id: TxnId(1),
                writes: vec![
                    WriteOp { key: alice.clone(), value: Value::from_u64(60) },
                    WriteOp { key: bob.clone(), value: Value::from_u64(90) },
                ],
            },
        )
        .partition(partition)
        .run();

    for (txn, per_site) in &run.metrics.decisions {
        for (site, (decision, at)) in per_site {
            println!("  {txn} @ site {site}: {decision} at t = {:.2}T", at.in_t_units(1000));
        }
    }
    for (site, blocked) in run.blocked.iter().enumerate() {
        for txn in blocked {
            println!("  {txn} @ site {site}: BLOCKED — protocol still in flight at horizon");
        }
    }

    for shard in &run.shards {
        println!(
            "  shard {} (group {:?}): availability {:.2}",
            shard.shard,
            shard.group.iter().map(|s| s.0).collect::<Vec<_>>(),
            shard.availability()
        );
    }
    println!(
        "  cross-shard: {} committed, {} aborted, {} blocked",
        run.cross_shard.committed, run.cross_shard.aborted, run.cross_shard.blocked
    );

    let violations = run.metrics.atomicity_violations();
    assert!(violations.is_empty(), "atomicity violated: {violations:?}");
    println!("  atomicity: OK\n");
}

fn main() {
    println!("A cross-shard transfer is mid-commit when shard 1's group splits away.\n");
    run_bank(CommitProtocol::TwoPhase);
    run_bank(CommitProtocol::HuangLi);
    run_bank(CommitProtocol::QuorumMajority);
}
