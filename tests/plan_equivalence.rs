//! The plan table's interned representation against the per-plan maps it
//! replaced.
//!
//! Until PR 15 `TxnPlan::compile` / `ReadPlan::compile` materialised every
//! plan as maps of vectors (group, per-site write sets, ship lists, replica
//! write sets). The table now keeps one route shape per distinct shard set
//! and a row over a shared write arena per plan. The old compile logic lives
//! on below, verbatim, as the oracle: whatever topology and specs the
//! strategies draw, every accessor of the new views must answer what the old
//! maps held — member by member, write by write, in order.

use proptest::prelude::*;
use ptp_core::ddb::plan::{
    PlanTable, ReadView, ShardReadSpec, ShardTxnSpec, TxnPlan as RoutedTxn, TxnView,
};
use ptp_core::ddb::site::{ReadSpec, TxnSpec};
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_simnet::SiteId;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The oracle: PR 14's `crates/ddb/src/plan.rs`, compile logic unchanged.
// ---------------------------------------------------------------------------

struct TxnPlan {
    shards: Vec<usize>,
    group: Vec<SiteId>,
    writes: BTreeMap<u16, Vec<WriteOp>>,
    ships: BTreeMap<u16, Vec<SiteId>>,
    replica_writes: BTreeMap<u16, Vec<WriteOp>>,
}

impl TxnPlan {
    fn compile(topology: &ShardTopology, spec: &ShardTxnSpec) -> TxnPlan {
        assert!(!spec.writes.is_empty(), "{} has an empty write set", spec.id);
        let mut shard_writes: BTreeMap<usize, Vec<WriteOp>> = BTreeMap::new();
        for w in &spec.writes {
            shard_writes.entry(topology.shard_of(&w.key)).or_default().push(w.clone());
        }
        let shards: Vec<usize> = shard_writes.keys().copied().collect();

        let group: Vec<SiteId> = if shards.len() == 1 {
            topology.group(shards[0]).to_vec()
        } else {
            // Masters of the involved shards, in shard order, deduplicated
            // (overlapping groups can share a master).
            let mut masters = Vec::new();
            for &s in &shards {
                let m = topology.master(s);
                if !masters.contains(&m) {
                    masters.push(m);
                }
            }
            masters
        };

        let mut writes: BTreeMap<u16, Vec<WriteOp>> = BTreeMap::new();
        for &site in &group {
            let mut local = Vec::new();
            for &s in &shards {
                if topology.group(s).contains(&site) {
                    local.extend(shard_writes[&s].iter().cloned());
                }
            }
            writes.insert(site.0, local);
        }

        let mut ships: BTreeMap<u16, Vec<SiteId>> = BTreeMap::new();
        let mut replica_writes: BTreeMap<u16, Vec<WriteOp>> = BTreeMap::new();
        if shards.len() > 1 {
            for &s in &shards {
                let master = topology.master(s);
                for &replica in topology.group(s) {
                    if !group.contains(&replica) {
                        let targets = ships.entry(master.0).or_default();
                        if !targets.contains(&replica) {
                            targets.push(replica);
                        }
                        replica_writes.entry(replica.0).or_default();
                    }
                }
            }
            // Each out-of-group replica needs every involved shard it
            // serves, regardless of which master's ship reaches it first.
            for (&replica, local) in &mut replica_writes {
                for &s in &shards {
                    if topology.group(s).contains(&SiteId(replica)) {
                        local.extend(shard_writes[&s].iter().cloned());
                    }
                }
            }
        }

        TxnPlan { shards, group, writes, ships, replica_writes }
    }

    fn is_cross_shard(&self) -> bool {
        self.shards.len() > 1
    }

    fn path_tag(&self) -> &'static str {
        if self.is_cross_shard() {
            "write-cross"
        } else {
            "write-single"
        }
    }
}

struct ReadPlan {
    shards: Vec<usize>,
    group: Vec<SiteId>,
    keys: BTreeMap<u16, Vec<Key>>,
}

impl ReadPlan {
    fn compile(topology: &ShardTopology, spec: &ShardReadSpec) -> ReadPlan {
        assert!(!spec.keys.is_empty(), "{} has an empty key set", spec.id);
        let mut shard_keys: BTreeMap<usize, Vec<Key>> = BTreeMap::new();
        for k in &spec.keys {
            shard_keys.entry(topology.shard_of(k)).or_default().push(k.clone());
        }
        let shards: Vec<usize> = shard_keys.keys().copied().collect();

        let mut group = Vec::new();
        for &s in &shards {
            let m = topology.master(s);
            if !group.contains(&m) {
                group.push(m);
            }
        }

        let mut keys: BTreeMap<u16, Vec<Key>> = BTreeMap::new();
        for &site in &group {
            let mut local = Vec::new();
            for &s in &shards {
                if topology.master(s) == site {
                    local.extend(shard_keys[&s].iter().cloned());
                }
            }
            keys.insert(site.0, local);
        }

        ReadPlan { shards, group, keys }
    }

    fn is_cross_shard(&self) -> bool {
        self.group.len() > 1
    }

    fn path_tag(&self) -> &'static str {
        if self.is_cross_shard() {
            "read-cross"
        } else {
            "read-single"
        }
    }
}

// ---------------------------------------------------------------------------
// Views against the oracle
// ---------------------------------------------------------------------------

fn assert_write_plan(n: usize, got: TxnView<'_>, want: &TxnPlan) {
    assert_eq!(got.shards(), want.shards);
    assert_eq!(got.group(), want.group);
    assert_eq!(got.master(), want.group[0]);
    assert_eq!(got.is_cross_shard(), want.is_cross_shard());
    assert_eq!(got.path_tag(), want.path_tag());
    let replicas: Vec<u16> = got.replicas().map(|site| site.0).collect();
    assert_eq!(replicas, want.replica_writes.keys().copied().collect::<Vec<_>>());
    for site in (0..n as u16 + 1).map(SiteId) {
        assert_eq!(got.virtual_of(site), want.group.iter().position(|&s| s == site));
        // A site is a group member, an out-of-group replica, or unnamed.
        let staged: Option<Vec<WriteOp>> = got.writes_at(site).map(|ws| ws.cloned().collect());
        let planned = want.writes.get(&site.0).or_else(|| want.replica_writes.get(&site.0));
        assert_eq!(staged.as_ref(), planned, "what {site} stages, in order");
        let targets = want.ships.get(&site.0).map(Vec::as_slice).unwrap_or_default();
        assert_eq!(got.ships_from(site), targets, "whom {site} ships to");
    }
}

fn assert_read_plan(n: usize, got: ReadView<'_>, want: &ReadPlan) {
    assert_eq!(got.shards(), want.shards);
    assert_eq!(got.group(), want.group);
    assert_eq!(got.master(), want.group[0]);
    assert_eq!(got.is_cross_shard(), want.is_cross_shard());
    assert_eq!(got.path_tag(), want.path_tag());
    for site in (0..n as u16 + 1).map(SiteId) {
        assert_eq!(got.virtual_of(site), want.group.iter().position(|&s| s == site));
        let served: Option<Vec<Key>> = got.keys_at(site).map(|keys| keys.cloned().collect());
        assert_eq!(served.as_ref(), want.keys.get(&site.0), "what {site} serves, in order");
    }
}

/// The topologies the strategies pick from: disjoint groups, overlapping
/// groups (shared masters, replicas of two masters), replication 1, one
/// shard, and two laid out by hand.
fn topology(pick: usize) -> ShardTopology {
    match pick {
        0 => ShardTopology::uniform(6, 3, 2),
        1 => ShardTopology::uniform(4, 3, 2),
        2 => ShardTopology::uniform(6, 3, 1),
        3 => ShardTopology::uniform(5, 4, 3),
        4 => ShardTopology::uniform(3, 1, 3),
        5 => ShardTopology::new(4, vec![vec![SiteId(0), SiteId(3)], vec![SiteId(2), SiteId(3)]]),
        _ => ShardTopology::new(4, vec![vec![SiteId(2), SiteId(3)], vec![SiteId(0), SiteId(2)]]),
    }
}

fn key(i: u8) -> Key {
    Key::from(format!("k{i}"))
}

/// 1–4 keys per spec out of 24 (so specs share keys, shards and shapes).
fn keys_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..24, 1..5)
}

/// Ids in spec order: ascending, or descending (rows must sort).
fn id_of(i: usize, len: usize, descending: bool, base: u32) -> TxnId {
    TxnId(base + if descending { len - i } else { i + 1 } as u32)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn routed_workloads_answer_what_the_per_plan_maps_held(
        pick in 0usize..7,
        writes in prop::collection::vec(keys_strategy(), 0..12),
        reads in prop::collection::vec(keys_strategy(), 0..8),
        descending in any::<bool>(),
    ) {
        let topo = topology(pick);
        let n = topo.sites();
        let txns: Vec<ShardTxnSpec> = writes
            .iter()
            .enumerate()
            .map(|(i, keys)| ShardTxnSpec {
                id: id_of(i, writes.len(), descending, 0),
                // Values tell the writes of one key apart: order is checked.
                writes: keys
                    .iter()
                    .enumerate()
                    .map(|(j, k)| WriteOp { key: key(*k), value: Value::from_u64((i * 8 + j) as u64) })
                    .collect(),
            })
            .collect();
        let read_specs: Vec<ShardReadSpec> = reads
            .iter()
            .enumerate()
            .map(|(i, keys)| ShardReadSpec {
                id: id_of(i, reads.len(), descending, 1000),
                keys: keys.iter().map(|k| key(*k)).collect(),
            })
            .collect();
        let table = PlanTable::route(topo.clone(), &txns, &read_specs);

        let mut ships = false;
        for spec in &txns {
            let want = TxnPlan::compile(&topo, spec);
            ships |= !want.ships.is_empty();
            assert_write_plan(n, table.get(spec.id).expect("compiled"), &want);
            // A transaction routed on its own agrees with its row.
            let alone = RoutedTxn::compile(&topo, spec);
            assert_write_plan(n, alone.view(), &want);
            prop_assert_eq!(alone.master(), want.group[0]);
            prop_assert_eq!(table.master_of(spec.id), Some(want.group[0]));
            prop_assert!(table.get_read(spec.id).is_none());
        }
        prop_assert_eq!(table.ships(), ships);
        for spec in &read_specs {
            let want = ReadPlan::compile(&topo, spec);
            assert_read_plan(n, table.get_read(spec.id).expect("compiled"), &want);
            prop_assert_eq!(table.master_of(spec.id), Some(want.group[0]));
            prop_assert!(table.get(spec.id).is_none());
        }

        // Both sides iterate ascending by id, every plan once.
        let mut ids: Vec<TxnId> = txns.iter().map(|spec| spec.id).collect();
        ids.sort();
        prop_assert_eq!(table.iter().map(|(id, _)| id).collect::<Vec<_>>(), ids);
        let mut ids: Vec<TxnId> = read_specs.iter().map(|spec| spec.id).collect();
        ids.sort();
        prop_assert_eq!(table.iter_reads().map(|(id, _)| id).collect::<Vec<_>>(), ids);
        prop_assert_eq!(table.master_of(TxnId(999)), None);

        // `compile` is `route` without reads.
        let writes_only = PlanTable::compile(topo.clone(), &txns);
        for spec in &txns {
            assert_write_plan(n, writes_only.get(spec.id).expect("compiled"), &TxnPlan::compile(&topo, spec));
        }
        prop_assert_eq!(writes_only.iter_reads().count(), 0);
    }

    #[test]
    fn flat_tables_hand_back_each_specs_per_site_write_sets(
        n in 2usize..6,
        // Per transaction and site: absent, or that many writes.
        txns in prop::collection::vec(prop::collection::vec(prop::option::of(0usize..3), 6..7), 0..8),
        reads in prop::collection::vec(prop::collection::vec(0u8..6, 0..4), 0..5),
        descending in any::<bool>(),
    ) {
        let specs: Vec<TxnSpec> = txns
            .iter()
            .enumerate()
            .map(|(i, per_site)| TxnSpec {
                id: id_of(i, txns.len(), descending, 0),
                writes: (0..n as u16)
                    .filter_map(|site| {
                        let count = per_site[site as usize]?;
                        let value = |j| Value::from_u64((i * 64 + site as usize * 8 + j) as u64);
                        let op = |j| WriteOp { key: key((site as usize + j) as u8), value: value(j) };
                        Some((site, (0..count).map(op).collect()))
                    })
                    .collect(),
            })
            .collect();
        let read_specs: Vec<ReadSpec> = reads
            .iter()
            .enumerate()
            .map(|(i, keys)| ReadSpec {
                id: id_of(i, reads.len(), descending, 1000),
                keys: keys.iter().map(|k| key(*k)).collect(),
            })
            .collect();
        let table = PlanTable::flat(n, specs.clone(), read_specs.clone());
        prop_assert!(!table.ships());
        let everyone: Vec<SiteId> = (0..n as u16).map(SiteId).collect();

        for spec in &specs {
            let plan = table.get(spec.id).expect("lowered");
            prop_assert_eq!(plan.group(), &everyone[..]);
            prop_assert_eq!(plan.shards(), [0]);
            prop_assert!(!plan.is_cross_shard());
            prop_assert_eq!(plan.replicas().count(), 0);
            prop_assert_eq!(table.master_of(spec.id), Some(SiteId(0)));
            for &site in &everyone {
                // A site the spec leaves out still votes, staging nothing.
                let staged: Vec<WriteOp> = plan.writes_at(site).expect("a member").cloned().collect();
                let planned = spec.writes.get(&site.0).cloned().unwrap_or_default();
                prop_assert_eq!(staged, planned);
                prop_assert!(plan.ships_from(site).is_empty());
            }
            prop_assert!(plan.writes_at(SiteId(n as u16)).is_none());
        }
        for spec in &read_specs {
            let plan = table.get_read(spec.id).expect("lowered");
            prop_assert_eq!(plan.group(), [SiteId(0)]);
            prop_assert!(!plan.is_cross_shard());
            let served: Vec<Key> = plan.keys_at(SiteId(0)).expect("the master").cloned().collect();
            prop_assert_eq!(&served, &spec.keys);
            prop_assert!(plan.keys_at(SiteId(1)).is_none());
            prop_assert_eq!(table.master_of(spec.id), Some(SiteId(0)));
        }
    }
}

// ---------------------------------------------------------------------------
// Rejected workloads
// ---------------------------------------------------------------------------

fn flat_write(id: u32) -> TxnSpec {
    TxnSpec { id: TxnId(id), writes: BTreeMap::new() }
}

fn flat_read(id: u32) -> ReadSpec {
    ReadSpec { id: TxnId(id), keys: vec![key(0)] }
}

fn sharded_write(id: u32) -> ShardTxnSpec {
    let writes = vec![WriteOp { key: key(0), value: Value::from_u64(1) }];
    ShardTxnSpec { id: TxnId(id), writes }
}

fn sharded_read(id: u32) -> ShardReadSpec {
    ShardReadSpec { id: TxnId(id), keys: vec![key(0)] }
}

#[test]
#[should_panic(expected = "duplicate txn3")]
fn flat_rejects_a_repeated_write_id() {
    let _ = PlanTable::flat(3, [flat_write(3), flat_write(1), flat_write(3)], []);
}

#[test]
#[should_panic(expected = "duplicate read txn9")]
fn flat_rejects_a_repeated_read_id() {
    let _ = PlanTable::flat(3, [flat_write(1)], [flat_read(9), flat_read(9)]);
}

#[test]
#[should_panic(expected = "read id collides with write txn2")]
fn flat_rejects_a_read_id_that_names_a_write() {
    let _ = PlanTable::flat(3, [flat_write(1), flat_write(2)], [flat_read(2)]);
}

#[test]
#[should_panic(expected = "duplicate txn3")]
fn compile_rejects_a_repeated_write_id() {
    let specs = [sharded_write(3), sharded_write(1), sharded_write(3)];
    let _ = PlanTable::compile(ShardTopology::uniform(4, 2, 2), &specs);
}

#[test]
#[should_panic(expected = "duplicate read txn9")]
fn route_rejects_a_repeated_read_id() {
    let reads = [sharded_read(9), sharded_read(8), sharded_read(9)];
    let _ = PlanTable::route(ShardTopology::uniform(4, 2, 2), &[sharded_write(1)], &reads);
}

#[test]
#[should_panic(expected = "read id collides with write txn2")]
fn route_rejects_a_read_id_that_names_a_write() {
    let writes = [sharded_write(1), sharded_write(2)];
    let _ = PlanTable::route(ShardTopology::uniform(4, 2, 2), &writes, &[sharded_read(2)]);
}

#[test]
#[should_panic(expected = "txn5 has an empty write set")]
fn compile_rejects_an_empty_write_set() {
    let spec = ShardTxnSpec { id: TxnId(5), writes: Vec::new() };
    let _ = PlanTable::compile(ShardTopology::uniform(4, 2, 2), &[spec]);
}

#[test]
#[should_panic(expected = "txn6 has an empty key set")]
fn route_rejects_an_empty_key_set() {
    let spec = ShardReadSpec { id: TxnId(6), keys: Vec::new() };
    let _ = PlanTable::route(ShardTopology::uniform(4, 2, 2), &[], &[spec]);
}
