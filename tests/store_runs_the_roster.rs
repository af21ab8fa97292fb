//! The store runs the roster, tick for tick.
//!
//! `DbCluster` builds its sites' commit-protocol participants with the same
//! `ProtocolKind::builder` that `Session` builds its clusters with. This
//! suite pins that the two agree on what that means: one transaction that
//! writes every site of a flat database is decided, per site, the same way
//! at the same tick as the bare protocol session of the same kind — across
//! group sizes, fixed and seeded-random delays, and a simple partition that
//! cuts the last slave off in each phase of the commit.
//!
//! One case is deliberately left out: a cut that lands before a slave's
//! `xact` arrives. The store starts a slave's state machine when its `xact`
//! arrives, while a `Session` starts every machine at tick 0, so there an
//! HL-3PC slave of the session aborts on its own 3T timeout in `q` where the
//! store's slave never started. With `xact`s landing by tick 1000, the cuts
//! at 1500, 2500 and 3500 ticks all come after it.
//!
//! The flat store is in turn the one-shard store: a `DbCluster` whose every
//! site stages every key runs, event for event, what a `ShardCluster` over
//! one shard replicated at every site runs for the same key-addressed
//! transactions.

use ptp_core::ddb::cluster::{CommitProtocol, DbCluster, ShardCluster};
use ptp_core::ddb::plan::ShardTxnSpec;
use ptp_core::ddb::site::TxnSpec;
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_core::{ProtocolKind, Scenario, Session};
use ptp_simnet::{DelayModel, PartitionEngine, PartitionSpec, SimTime, SiteId};
use std::collections::BTreeMap;

/// Both runs stop at 200 T (`DbCluster`'s default `NetConfig`).
const HORIZON_T: u64 = 200;

#[test]
fn a_store_transaction_decides_like_its_protocol_session() {
    let delays = [DelayModel::Fixed(700), DelayModel::Uniform { seed: 11, min: 1, max: 1000 }];
    let (mut cells, mut decided) = (0, 0);
    for protocol in
        [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority]
    {
        let kind = ProtocolKind::from(protocol);
        for n in 2..=5usize {
            let mut session = Session::new(kind, n);
            let last = SiteId(n as u16 - 1);
            for delay in &delays {
                for cut in [None, Some(1500u64), Some(2500), Some(3500)] {
                    let mut scenario = Scenario::new(n).delay(delay.clone());
                    scenario.horizon_t = HORIZON_T;
                    let mut store = DbCluster::new(n, protocol).delay(delay.clone());
                    assert_eq!(store.config.max_time, scenario.net_config().max_time);
                    if let Some(at) = cut {
                        scenario = scenario.partition_g2(vec![last], at);
                        let rest = (0..n as u16 - 1).map(SiteId).collect();
                        let split = PartitionSpec::simple(SimTime(at), rest, vec![last]);
                        store = store.partition(PartitionEngine::new(vec![split]));
                    }
                    let writes: BTreeMap<u16, Vec<WriteOp>> = (0..n as u16)
                        .map(|site| {
                            let key = Key::from(format!("k{site}").as_str());
                            (site, vec![WriteOp { key, value: Value::from_u64(1) }])
                        })
                        .collect();
                    let run = store.submit(0, TxnSpec { id: TxnId(1), writes }).run();

                    let bare = session.run(&scenario);
                    let stored = run.metrics.decisions.get(&TxnId(1)).cloned().unwrap_or_default();
                    for (site, outcome) in bare.outcomes.iter().enumerate() {
                        let expected = outcome.decision.zip(outcome.decided_at);
                        decided += usize::from(expected.is_some());
                        assert_eq!(
                            stored.get(&(site as u16)).copied(),
                            expected,
                            "{} n={n} {delay:?} cut={cut:?} site {site}",
                            kind.name()
                        );
                    }
                    cells += 1;
                }
            }
        }
    }
    // 96 cells, 336 site runs; the 29 undecided ones are blocked 2PC and
    // quorum sites, undecided alike in the store and in the session.
    assert_eq!((cells, decided), (96, 307));
}

#[test]
fn the_flat_store_is_the_one_shard_store_bit_for_bit() {
    let delays = [DelayModel::Fixed(700), DelayModel::Uniform { seed: 11, min: 1, max: 1000 }];
    let mut cells = 0;
    for protocol in
        [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority]
    {
        for n in 2..=5usize {
            let last = SiteId(n as u16 - 1);
            for delay in &delays {
                for cut in [None, Some(500u64), Some(1500), Some(2500), Some(3500)] {
                    let mut flat = DbCluster::new(n, protocol).delay(delay.clone());
                    let mut sharded = ShardCluster::new(ShardTopology::uniform(n, 1, n), protocol)
                        .delay(delay.clone());
                    if let Some(at) = cut {
                        let rest = (0..n as u16 - 1).map(SiteId).collect();
                        let split = PartitionSpec::simple(SimTime(at), rest, vec![last]);
                        flat = flat.partition(PartitionEngine::new(vec![split.clone()]));
                        sharded = sharded.partition(PartitionEngine::new(vec![split]));
                    }
                    // Three conflicting transactions, 300 ticks apart, each
                    // writing every key.
                    for i in 1..=3u32 {
                        let writes: Vec<WriteOp> = (0..n)
                            .map(|k| WriteOp {
                                key: Key::from(format!("k{k}").as_str()),
                                value: Value::from_u64(i as u64),
                            })
                            .collect();
                        let at = (i as u64 - 1) * 300;
                        let per_site = (0..n as u16).map(|site| (site, writes.clone())).collect();
                        flat = flat.submit(at, TxnSpec { id: TxnId(i), writes: per_site });
                        sharded = sharded.submit(at, ShardTxnSpec { id: TxnId(i), writes });
                    }
                    let (flat, sharded) = (flat.run(), sharded.run());

                    let tag = format!("{} n={n} {delay:?} cut={cut:?}", protocol.name());
                    assert!(flat.metrics == sharded.metrics, "{tag}: metrics");
                    assert!(flat.storages == sharded.storages, "{tag}: storages");
                    assert!(flat.wals == sharded.wals, "{tag}: wals");
                    assert_eq!(flat.blocked, sharded.blocked, "{tag}: blocked");
                    assert_eq!(flat.report.events, sharded.report.events, "{tag}: events");
                    assert!(flat.trace.events() == sharded.trace.events(), "{tag}: trace");
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 120);
}
