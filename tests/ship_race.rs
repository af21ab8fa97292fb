//! Regression: two ships overtaking each other left a replica permanently
//! behind its master.
//!
//! A cross-shard commit ships its outcome to each out-of-group replica in
//! its own message, and the simulator does not keep links FIFO. With six
//! back-to-back cross-shard writes to the same two keys and delays uniform
//! over 1..=1000 ticks, the ships of transactions `i` and `i + 1` can
//! arrive swapped: the older value landed last, master and replica had
//! counted the same number of commits on the key, and anti-entropy compared
//! equal counters forever — no fault injected at all.
//!
//! Every path that installs a value now carries the version its key's shard
//! master assigned at commit, and a replica skips what is not newer than
//! what it holds: the late ship installs nothing, and a replayed decision
//! (the second case) cannot roll a newer ship back either.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardTopology, ShardTxnSpec};
use ptp_simnet::DelayModel;

/// A key routed to `shard` under `topo`.
fn key_in(topo: &ShardTopology, shard: usize) -> Key {
    (0..512)
        .map(|i| Key::from(format!("key-{i}")))
        .find(|k| topo.shard_of(k) == shard)
        .expect("probe key")
}

/// Six cross-shard writes, 50 ticks apart, each writing its own number to
/// one key per shard; then checks every replica against its master.
fn assert_replicas_follow_their_masters(protocol: CommitProtocol, seed: u64) {
    let topo = ShardTopology::uniform(4, 2, 2);
    let keys = [key_in(&topo, 0), key_in(&topo, 1)];
    let mut cluster = ShardCluster::new(topo.clone(), protocol)
        .seed(keys[0].clone(), Value::from_u64(0))
        .seed(keys[1].clone(), Value::from_u64(0))
        .delay(DelayModel::Uniform { seed, min: 1, max: 1000 })
        .anti_entropy(3_000);
    for i in 1..=6u32 {
        let writes = keys
            .iter()
            .map(|key| WriteOp { key: key.clone(), value: Value::from_u64(i as u64) })
            .collect();
        cluster = cluster.submit(500 + 50 * i as u64, ShardTxnSpec { id: TxnId(i), writes });
    }
    let run = cluster.run();
    let context = format!("{} at delay seed {seed}", protocol.name());
    assert!(run.metrics.atomicity_violations().is_empty(), "{context}");
    for (shard, key) in keys.iter().enumerate() {
        let master = run.storages[topo.master(shard).index()].get(key);
        for replica in &topo.group(shard)[1..] {
            assert_eq!(
                run.storages[replica.index()].get(key).and_then(Value::as_u64),
                master.and_then(Value::as_u64),
                "{context}: shard {shard}'s replica {replica} is not where its master is"
            );
        }
    }
}

#[test]
fn overtaking_ships_never_leave_a_replica_behind_its_master() {
    for protocol in [CommitProtocol::TwoPhase, CommitProtocol::HuangLi] {
        for seed in 0..400 {
            assert_replicas_follow_their_masters(protocol, seed);
        }
    }
}

#[test]
fn a_replayed_decision_cannot_roll_back_a_newer_ship() {
    // The one run of the sweep above (2PC, seed 186) that stamped ships
    // alone do not fix: anti-entropy replays a missed decision after a newer
    // ship landed, and the replay must carry (and lose on) its master's
    // stamps.
    assert_replicas_follow_their_masters(CommitProtocol::TwoPhase, 186);
}
