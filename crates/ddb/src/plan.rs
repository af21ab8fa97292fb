//! Transaction routing: per-group commit-protocol plans, the one input the
//! site core ([`crate::core::SiteCore`]) routes by.
//!
//! A [`PlanTable`] is built one of two ways. [`PlanTable::flat`] lowers the
//! paper's model — [`crate::DbCluster`]'s site-addressed [`TxnSpec`]s, one
//! fully-replicated group, site 0 master of every transaction — verbatim
//! onto one all-sites group. [`PlanTable::compile`] is the router of the
//! sharded store: every key-addressed [`ShardTxnSpec`] is classified at
//! build time:
//!
//! * **single-shard** — all keys land in one shard; the commit protocol
//!   runs *inside* that shard's replica group (master = the group's first
//!   member), exactly like a small [`crate::DbCluster`];
//! * **cross-shard** — keys span several shards; a **top-level** instance
//!   of the same commit protocol runs over the involved groups' masters
//!   (coordinator = the lowest involved shard's master), so a partition
//!   severing two shards' groups is terminated — or measurably blocked —
//!   by the paper's protocol one layer up. When a group master decides, it
//!   ships the outcome (and, on commit, the shard's writes) to its replicas
//!   that were not part of the top-level group.

use crate::site::{ReadSpec, TxnSpec};
use crate::topology::ShardTopology;
use crate::value::{Key, TxnId, WriteOp};
use ptp_simnet::SiteId;
use std::collections::BTreeMap;

/// A transaction addressed by key, before routing: the shard map decides
/// which sites it touches.
#[derive(Debug, Clone)]
pub struct ShardTxnSpec {
    /// Globally unique id.
    pub id: TxnId,
    /// The write set, routed per key by [`ShardTopology::shard_of`].
    pub writes: Vec<WriteOp>,
}

/// One transaction's compiled routing: which shards it touches, which sites
/// run its commit protocol (and under which virtual identities), what each
/// participant stages, and which replicas get the decided outcome shipped.
#[derive(Debug, Clone)]
pub struct TxnPlan {
    /// The transaction.
    pub id: TxnId,
    /// Involved shards, ascending.
    pub shards: Vec<usize>,
    /// The commit-protocol group: physical sites, master/coordinator first.
    /// Participants run under *virtual* ids `0..group.len()` — index in
    /// this vector — so the unmodified protocol machinery coordinates any
    /// subset of the cluster.
    pub group: Vec<SiteId>,
    /// What each protocol participant stages: the union of the write sets
    /// of every involved shard whose replica group contains that site.
    pub writes: BTreeMap<u16, Vec<WriteOp>>,
    /// Outcome shipping, keyed by shipper: when that group master decides,
    /// it sends each listed replica the decision (plus, on commit, the
    /// replica's **full** write set from [`TxnPlan::replica_writes`]).
    /// Targets are involved-group replicas outside the protocol group. A
    /// replica serving several involved shards is listed under *each* of
    /// their masters — every ship carries everything the replica needs, so
    /// the first arrival installs the complete outcome and later arrivals
    /// are true duplicates (and a replica reachable from any one involved
    /// master still converges).
    pub ships: BTreeMap<u16, Vec<SiteId>>,
    /// Per out-of-group replica: the union of the write sets of every
    /// involved shard whose group contains it (in shard order — the same
    /// order participants stage).
    pub replica_writes: BTreeMap<u16, Vec<WriteOp>>,
    /// Per-shard write sets, in submission order (empty for a flat plan,
    /// whose write sets are addressed by site, not by key).
    pub shard_writes: BTreeMap<usize, Vec<WriteOp>>,
}

impl TxnPlan {
    /// Routes `spec` through `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the write set is empty (nothing to route).
    pub fn compile(topology: &ShardTopology, spec: &ShardTxnSpec) -> TxnPlan {
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

        TxnPlan { id: spec.id, shards, group, writes, ships, replica_writes, shard_writes }
    }

    /// True if the transaction spans more than one shard.
    pub fn is_cross_shard(&self) -> bool {
        self.shards.len() > 1
    }

    /// The stage-attribution path tag for this plan's write route
    /// (`"write-single"` / `"write-cross"`) — a `&'static str` so span
    /// tables can key on it without allocating.
    pub fn path_tag(&self) -> &'static str {
        if self.is_cross_shard() {
            "write-cross"
        } else {
            "write-single"
        }
    }

    /// The protocol group's master (the top-level coordinator for
    /// cross-shard transactions).
    pub fn master(&self) -> SiteId {
        self.group[0]
    }

    /// `site`'s virtual id within the protocol group, if it participates.
    pub fn virtual_of(&self, site: SiteId) -> Option<usize> {
        self.group.iter().position(|&s| s == site)
    }
}

/// A read-only transaction addressed by key, before routing.
#[derive(Debug, Clone)]
pub struct ShardReadSpec {
    /// Globally unique id — disjoint from write-transaction ids.
    pub id: TxnId,
    /// Keys to read, routed per key by [`ShardTopology::shard_of`].
    pub keys: Vec<Key>,
}

/// One read-only transaction's compiled routing. Single-shard reads are
/// served at the shard master under shared locks with **no protocol
/// round** (group = the master alone); cross-shard reads run a top-level
/// instance of the commit protocol over the involved masters so the
/// snapshot is atomic across shards. Replicas never serve reads — only a
/// master's store is guaranteed current (the LARK master-lease argument).
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// The read transaction.
    pub id: TxnId,
    /// Involved shards, ascending.
    pub shards: Vec<usize>,
    /// The serving group: involved masters, coordinator first. A
    /// single-shard read's group is just its master — no protocol runs.
    pub group: Vec<SiteId>,
    /// Per serving site: the keys it snapshots (the keys of every involved
    /// shard that site masters).
    pub keys: BTreeMap<u16, Vec<Key>>,
}

impl ReadPlan {
    /// Routes `spec` through `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the key set is empty (nothing to read).
    pub fn compile(topology: &ShardTopology, spec: &ShardReadSpec) -> ReadPlan {
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

        ReadPlan { id: spec.id, shards, group, keys }
    }

    /// True if the read spans more than one shard master.
    pub fn is_cross_shard(&self) -> bool {
        self.group.len() > 1
    }

    /// The stage-attribution path tag for this plan's read route
    /// (`"read-single"` / `"read-cross"`).
    pub fn path_tag(&self) -> &'static str {
        if self.is_cross_shard() {
            "read-cross"
        } else {
            "read-single"
        }
    }

    /// The serving master (the top-level coordinator for cross-shard
    /// reads).
    pub fn master(&self) -> SiteId {
        self.group[0]
    }

    /// `site`'s virtual id within the serving group, if it participates.
    pub fn virtual_of(&self, site: SiteId) -> Option<usize> {
        self.group.iter().position(|&s| s == site)
    }
}

/// The compiled routing of a whole workload, shared read-only by every
/// site actor of the cluster.
#[derive(Debug)]
pub struct PlanTable {
    /// The shard map the plans were compiled against.
    pub topology: ShardTopology,
    plans: BTreeMap<TxnId, TxnPlan>,
    reads: BTreeMap<TxnId, ReadPlan>,
    ships: bool,
}

impl PlanTable {
    /// Compiles every spec. Duplicate transaction ids are rejected.
    pub fn compile(topology: ShardTopology, specs: &[ShardTxnSpec]) -> PlanTable {
        let mut plans = BTreeMap::new();
        for spec in specs {
            let plan = TxnPlan::compile(&topology, spec);
            assert!(plans.insert(spec.id, plan).is_none(), "duplicate {}", spec.id);
        }
        let ships = plans.values().any(|plan| !plan.ships.is_empty());
        PlanTable { topology, plans, reads: BTreeMap::new(), ships }
    }

    /// Lowers a flat, fully-replicated workload over `n` sites: one
    /// all-sites group with site 0 master of every transaction, each site's
    /// write set taken from the spec untouched (a site the spec leaves out
    /// still votes, with nothing to stage), no outcome shipping; every read
    /// served by site 0 alone. Duplicate or colliding ids are rejected.
    pub fn flat(
        n: usize,
        txns: impl IntoIterator<Item = TxnSpec>,
        reads: impl IntoIterator<Item = ReadSpec>,
    ) -> PlanTable {
        let topology = ShardTopology::uniform(n, 1, n);
        let mut plans = BTreeMap::new();
        for TxnSpec { id, writes } in txns {
            let plan = TxnPlan {
                id,
                shards: vec![0],
                group: topology.group(0).to_vec(),
                writes,
                ships: BTreeMap::new(),
                replica_writes: BTreeMap::new(),
                shard_writes: BTreeMap::new(),
            };
            assert!(plans.insert(id, plan).is_none(), "duplicate {id}");
        }
        let mut read_plans = BTreeMap::new();
        for ReadSpec { id, keys } in reads {
            assert!(!plans.contains_key(&id), "read id collides with write {id}");
            let plan =
                ReadPlan { id, shards: vec![0], group: vec![SiteId(0)], keys: [(0, keys)].into() };
            assert!(read_plans.insert(id, plan).is_none(), "duplicate read {id}");
        }
        PlanTable { topology, plans, reads: read_plans, ships: false }
    }

    /// Compiles and installs a read-only workload. Read ids must not
    /// collide with each other or with write-transaction ids.
    pub fn with_reads(mut self, specs: &[ShardReadSpec]) -> PlanTable {
        for spec in specs {
            assert!(!self.plans.contains_key(&spec.id), "read id collides with write {}", spec.id);
            let plan = ReadPlan::compile(&self.topology, spec);
            assert!(self.reads.insert(spec.id, plan).is_none(), "duplicate read {}", spec.id);
        }
        self
    }

    /// The plan of `txn`, if the workload contains it.
    pub fn get(&self, txn: TxnId) -> Option<&TxnPlan> {
        self.plans.get(&txn)
    }

    /// True if any plan ships its outcome to out-of-group replicas.
    pub fn ships(&self) -> bool {
        self.ships
    }

    /// All plans, by transaction id.
    pub fn iter(&self) -> impl Iterator<Item = (&TxnId, &TxnPlan)> {
        self.plans.iter()
    }

    /// The read plan of `txn`, if the read workload contains it.
    pub fn get_read(&self, txn: TxnId) -> Option<&ReadPlan> {
        self.reads.get(&txn)
    }

    /// The site `txn` is submitted at — its write or read plan's master —
    /// if the workload contains it.
    pub fn master_of(&self, txn: TxnId) -> Option<SiteId> {
        self.get(txn).map(TxnPlan::master).or_else(|| self.get_read(txn).map(ReadPlan::master))
    }

    /// All read plans, by transaction id.
    pub fn iter_reads(&self) -> impl Iterator<Item = (&TxnId, &ReadPlan)> {
        self.reads.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Key, Value};

    fn w(key: &str) -> WriteOp {
        WriteOp { key: Key::from(key), value: Value::from_u64(1) }
    }

    /// A key that routes to `shard` under `topo` (probed deterministically).
    fn key_in(topo: &ShardTopology, shard: usize) -> WriteOp {
        for i in 0..256 {
            let k = format!("probe-{i}");
            if topo.shard_of(&Key::from(k.as_str())) == shard {
                return w(&k);
            }
        }
        panic!("no probe key found for shard {shard}");
    }

    #[test]
    fn single_shard_txn_runs_in_its_replica_group() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let spec = ShardTxnSpec { id: TxnId(1), writes: vec![key_in(&topo, 1)] };
        let plan = TxnPlan::compile(&topo, &spec);
        assert!(!plan.is_cross_shard());
        assert_eq!(plan.group, vec![SiteId(2), SiteId(3)]);
        assert_eq!(plan.master(), SiteId(2));
        // Every group member stages the full shard write set; nothing ships.
        assert_eq!(plan.writes[&2], plan.writes[&3]);
        assert!(plan.ships.is_empty());
        assert_eq!(plan.virtual_of(SiteId(3)), Some(1));
        assert_eq!(plan.virtual_of(SiteId(0)), None);
        assert_eq!(plan.path_tag(), "write-single");
    }

    #[test]
    fn path_tags_follow_the_route_shape() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let cross = TxnPlan::compile(
            &topo,
            &ShardTxnSpec { id: TxnId(9), writes: vec![key_in(&topo, 0), key_in(&topo, 2)] },
        );
        assert_eq!(cross.path_tag(), "write-cross");
        let k0 = key_in(&topo, 0).key;
        let k2 = key_in(&topo, 2).key;
        let single =
            ReadPlan::compile(&topo, &ShardReadSpec { id: TxnId(10), keys: vec![k0.clone()] });
        assert_eq!(single.path_tag(), "read-single");
        let multi = ReadPlan::compile(&topo, &ShardReadSpec { id: TxnId(11), keys: vec![k0, k2] });
        assert_eq!(multi.path_tag(), "read-cross");
    }

    #[test]
    fn cross_shard_txn_coordinates_over_masters_and_ships_to_replicas() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let spec = ShardTxnSpec { id: TxnId(2), writes: vec![key_in(&topo, 0), key_in(&topo, 2)] };
        let plan = TxnPlan::compile(&topo, &spec);
        assert!(plan.is_cross_shard());
        assert_eq!(plan.shards, vec![0, 2]);
        // Coordinator = master of the lowest involved shard.
        assert_eq!(plan.group, vec![SiteId(0), SiteId(4)]);
        // Each master stages only its own shard's writes here (disjoint
        // groups), and ships its out-of-group replica that replica's full
        // planned write set.
        assert_eq!(plan.writes[&0].len(), 1);
        assert_eq!(plan.writes[&4].len(), 1);
        assert_eq!(plan.ships[&0], vec![SiteId(1)]);
        assert_eq!(plan.ships[&4], vec![SiteId(5)]);
        assert_eq!(plan.replica_writes[&1].len(), 1);
        assert_eq!(plan.replica_writes[&5].len(), 1);
    }

    #[test]
    fn overlapping_groups_deduplicate_masters_and_union_writes() {
        // Shards 0 and 2 share master 0 (3 shards × 2 replicas over 4 sites).
        let topo = ShardTopology::uniform(4, 3, 2);
        assert_eq!(topo.master(0), topo.master(2));
        let spec = ShardTxnSpec { id: TxnId(3), writes: vec![key_in(&topo, 0), key_in(&topo, 2)] };
        let plan = TxnPlan::compile(&topo, &spec);
        assert_eq!(plan.group, vec![SiteId(0)], "shared master listed once");
        // The shared master stages both shards' writes.
        assert_eq!(plan.writes[&0].len(), 2);
        // Site 1 replicates both shards but sits outside the top-level
        // group: it is listed ONCE as a ship target, and the single ship
        // carries both shards' writes (a per-shard ship would be dropped as
        // a duplicate by the replica after the first one installed).
        assert_eq!(plan.ships[&0], vec![SiteId(1)]);
        assert_eq!(plan.replica_writes[&1].len(), 2);
    }

    #[test]
    fn replica_of_two_masters_gets_the_full_union_from_each() {
        // Shards 0 = {0, 3} and 1 = {2, 3}: replica 3 serves both involved
        // shards but masters 0 and 2 differ. Each master lists 3 as a
        // target, and both ships carry the complete two-shard union — so
        // whichever arrives first installs everything and the other is a
        // true duplicate.
        let topo =
            ShardTopology::new(4, vec![vec![SiteId(0), SiteId(3)], vec![SiteId(2), SiteId(3)]]);
        let spec = ShardTxnSpec { id: TxnId(5), writes: vec![key_in(&topo, 0), key_in(&topo, 1)] };
        let plan = TxnPlan::compile(&topo, &spec);
        assert_eq!(plan.group, vec![SiteId(0), SiteId(2)]);
        assert_eq!(plan.ships[&0], vec![SiteId(3)]);
        assert_eq!(plan.ships[&2], vec![SiteId(3)]);
        assert_eq!(plan.replica_writes[&3].len(), 2, "each ship carries both shards");
    }

    #[test]
    fn participant_in_two_involved_groups_is_not_shipped_to() {
        // Shard 1 = {2,3}, shard 2 = {0,1} under this wrap-around layout:
        // make site 0 both shard-2 master and a shard-1 replica by hand.
        let topo =
            ShardTopology::new(4, vec![vec![SiteId(2), SiteId(3)], vec![SiteId(0), SiteId(2)]]);
        let spec = ShardTxnSpec { id: TxnId(4), writes: vec![key_in(&topo, 0), key_in(&topo, 1)] };
        let plan = TxnPlan::compile(&topo, &spec);
        assert_eq!(plan.group, vec![SiteId(2), SiteId(0)]);
        // Site 2 masters shard 0 and replicates shard 1: it stages both
        // write sets as a participant, so shard 1's master must not ship
        // to it — only to site 3 (shard 0's true out-of-group replica).
        assert_eq!(plan.writes[&2].len(), 2);
        assert_eq!(plan.ships.get(&0), None, "no out-of-group replica for shard 1");
        assert_eq!(plan.ships[&2], vec![SiteId(3)]);
        assert_eq!(plan.replica_writes[&3].len(), 1, "site 3 serves only shard 0");
    }

    #[test]
    fn plan_table_compiles_and_indexes() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let specs = vec![
            ShardTxnSpec { id: TxnId(1), writes: vec![key_in(&topo, 0)] },
            ShardTxnSpec { id: TxnId(2), writes: vec![key_in(&topo, 1), key_in(&topo, 2)] },
        ];
        let table = PlanTable::compile(topo, &specs);
        assert!(table.get(TxnId(1)).is_some());
        assert!(table.get(TxnId(9)).is_none());
        assert_eq!(table.iter().count(), 2);
    }

    #[test]
    fn flat_lowering_keeps_site_addressed_writes_in_one_all_sites_group() {
        // Site 0 is left out of the spec and site 2 has nothing to write:
        // both still sit in the group, and the map passes through as is.
        let writes: BTreeMap<u16, Vec<WriteOp>> = [(1, vec![w("a")]), (2, vec![])].into();
        let spec = TxnSpec { id: TxnId(1), writes: writes.clone() };
        let read = ReadSpec { id: TxnId(9), keys: vec![Key::from("a"), Key::from("absent")] };
        let table = PlanTable::flat(3, [spec], [read.clone()]);
        let plan = table.get(TxnId(1)).unwrap();
        assert_eq!(plan.group, vec![SiteId(0), SiteId(1), SiteId(2)]);
        assert_eq!(plan.writes, writes);
        assert!(!plan.is_cross_shard() && plan.ships.is_empty() && plan.replica_writes.is_empty());
        // The key router reaches the same group over the one-shard topology.
        let routed = ShardTxnSpec { id: TxnId(1), writes: vec![w("a")] };
        assert_eq!(TxnPlan::compile(&table.topology, &routed).group, plan.group);
        // Reads are served by the master alone: no protocol round.
        let served = table.get_read(TxnId(9)).unwrap();
        assert_eq!(served.group, vec![SiteId(0)]);
        assert_eq!(served.keys[&0], read.keys);
    }

    #[test]
    fn single_shard_read_is_served_by_its_master_alone() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let probe = key_in(&topo, 1).key;
        let spec = ShardReadSpec { id: TxnId(10), keys: vec![probe.clone()] };
        let plan = ReadPlan::compile(&topo, &spec);
        assert!(!plan.is_cross_shard());
        assert_eq!(plan.group, vec![SiteId(2)], "master only — no protocol round");
        assert_eq!(plan.keys[&2], vec![probe]);
    }

    #[test]
    fn cross_shard_read_coordinates_over_involved_masters() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let k0 = key_in(&topo, 0).key;
        let k2 = key_in(&topo, 2).key;
        let spec = ShardReadSpec { id: TxnId(11), keys: vec![k0.clone(), k2.clone()] };
        let plan = ReadPlan::compile(&topo, &spec);
        assert!(plan.is_cross_shard());
        assert_eq!(plan.group, vec![SiteId(0), SiteId(4)]);
        assert_eq!(plan.master(), SiteId(0));
        assert_eq!(plan.keys[&0], vec![k0]);
        assert_eq!(plan.keys[&4], vec![k2]);
        assert_eq!(plan.virtual_of(SiteId(4)), Some(1));
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn read_id_colliding_with_write_id_rejected() {
        let topo = ShardTopology::uniform(4, 2, 2);
        let write = ShardTxnSpec { id: TxnId(1), writes: vec![key_in(&topo, 0)] };
        let read = ShardReadSpec { id: TxnId(1), keys: vec![key_in(&topo, 0).key] };
        let _ = PlanTable::compile(topo, &[write]).with_reads(&[read]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_txn_ids_rejected() {
        let topo = ShardTopology::uniform(4, 2, 2);
        let specs = vec![
            ShardTxnSpec { id: TxnId(1), writes: vec![w("a")] },
            ShardTxnSpec { id: TxnId(1), writes: vec![w("b")] },
        ];
        let _ = PlanTable::compile(topo, &specs);
    }
}
