//! Shard topology: the keyspace → shard → replica-group mapping.
//!
//! A [`ShardTopology`] splits the keyspace into `S` shards and maps each
//! shard to a *replica group* of sites, all hosted in one simulation. The
//! first member of a group is its **master** (the paper's site 1 — every
//! intra-group commit protocol runs with it as coordinator). Groups may
//! overlap: one site can serve several shards, which is how small clusters
//! host many shards (per-key replica groups à la partial replication).

use crate::value::Key;
use ptp_simnet::SiteId;

/// The shard map: `S` replica groups over `n` sites, plus the key router.
///
/// # Examples
///
/// ```
/// use ptp_ddb::topology::ShardTopology;
/// use ptp_ddb::value::Key;
/// use ptp_simnet::SiteId;
///
/// // 3 shards over 6 sites, 2 replicas each: groups {0,1}, {2,3}, {4,5}.
/// let topo = ShardTopology::uniform(6, 3, 2);
/// assert_eq!(topo.shards(), 3);
/// assert_eq!(topo.group(1), &[SiteId(2), SiteId(3)]);
/// assert_eq!(topo.master(2), SiteId(4));
/// // Every key routes to exactly one shard, deterministically.
/// let s = topo.shard_of(&Key::from("acct-a"));
/// assert_eq!(topo.shard_of(&Key::from("acct-a")), s);
/// assert!(s < 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTopology {
    /// Total sites in the cluster.
    n: usize,
    /// Replica group per shard, master first.
    groups: Vec<Vec<SiteId>>,
}

impl ShardTopology {
    /// A topology from explicit replica groups (master first in each).
    ///
    /// # Panics
    ///
    /// Panics if there are no groups, a group is empty, a member is outside
    /// `0..n`, or a group lists a site twice.
    pub fn new(n: usize, groups: Vec<Vec<SiteId>>) -> ShardTopology {
        assert!(!groups.is_empty(), "a topology needs at least one shard");
        for (shard, group) in groups.iter().enumerate() {
            assert!(!group.is_empty(), "shard {shard} has an empty replica group");
            for site in group {
                assert!(site.index() < n, "shard {shard} lists {site} outside 0..{n}");
            }
            let mut dedup = group.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), group.len(), "shard {shard} lists a site twice");
        }
        ShardTopology { n, groups }
    }

    /// `shards` shards over `n` sites, `replication` replicas each, laid out
    /// round-robin: shard `i`'s group is sites `i*replication .. +replication`
    /// (mod `n`), so groups tile the cluster and overlap exactly when
    /// `shards * replication > n`. With `shards == 1` and `replication == n`
    /// this is the fully-replicated flat cluster [`crate::DbCluster`] models
    /// (the topology [`crate::plan::PlanTable::flat`] lowers it onto).
    pub fn uniform(n: usize, shards: usize, replication: usize) -> ShardTopology {
        assert!(replication >= 1 && replication <= n, "replication must be in 1..=n");
        let groups = (0..shards)
            .map(|i| (0..replication).map(|j| SiteId(((i * replication + j) % n) as u16)).collect())
            .collect();
        ShardTopology::new(n, groups)
    }

    /// Total sites.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.groups.len()
    }

    /// The replica group of `shard`, master first.
    pub fn group(&self, shard: usize) -> &[SiteId] {
        &self.groups[shard]
    }

    /// The master of `shard`'s replica group.
    pub fn master(&self, shard: usize) -> SiteId {
        self.groups[shard][0]
    }

    /// The shard a key belongs to: FNV-1a over the key bytes, mod `S` —
    /// stable across runs and processes (no random hasher state).
    pub fn shard_of(&self, key: &Key) -> usize {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in key.0.as_ref() {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        (h % self.groups.len() as u64) as usize
    }

    /// Shards whose replica group contains `site`, ascending.
    pub fn shards_of_site(&self, site: SiteId) -> Vec<usize> {
        (0..self.shards()).filter(|&s| self.groups[s].contains(&site)).collect()
    }

    /// `per_shard` keys per shard, found by probing the router with
    /// `key-{i}` names: a deterministic workload vocabulary shared by the
    /// bench binaries and the live load driver. `pools[s]` holds keys that
    /// route to shard `s`, in discovery order.
    pub fn key_pool(&self, per_shard: usize) -> Vec<Vec<Key>> {
        let mut pools: Vec<Vec<Key>> = vec![Vec::new(); self.shards()];
        let mut i = 0u64;
        while pools.iter().any(|p| p.len() < per_shard) {
            let key = Key::from(format!("key-{i}"));
            let shard = self.shard_of(&key);
            if pools[shard].len() < per_shard {
                pools[shard].push(key);
            }
            i += 1;
        }
        pools
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tiles_without_overlap_when_it_fits() {
        let topo = ShardTopology::uniform(6, 3, 2);
        assert_eq!(topo.group(0), &[SiteId(0), SiteId(1)]);
        assert_eq!(topo.group(1), &[SiteId(2), SiteId(3)]);
        assert_eq!(topo.group(2), &[SiteId(4), SiteId(5)]);
        assert_eq!(topo.shards_of_site(SiteId(3)), vec![1]);
    }

    #[test]
    fn uniform_overlaps_when_oversubscribed() {
        // 3 shards × 2 replicas over 4 sites wraps around.
        let topo = ShardTopology::uniform(4, 3, 2);
        assert_eq!(topo.group(2), &[SiteId(0), SiteId(1)]);
        assert_eq!(topo.shards_of_site(SiteId(0)), vec![0, 2]);
    }

    #[test]
    fn single_shard_full_replication_is_the_flat_cluster() {
        let topo = ShardTopology::uniform(4, 1, 4);
        assert_eq!(topo.group(0), &[SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
        assert_eq!(topo.master(0), SiteId(0));
        assert_eq!(topo.shard_of(&Key::from("anything")), 0);
    }

    #[test]
    fn shard_of_is_stable_and_spreads() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let mut hit = [false; 3];
        for i in 0..32 {
            let key = Key::from(format!("k{i}"));
            let s = topo.shard_of(&key);
            assert_eq!(topo.shard_of(&key), s, "routing must be deterministic");
            hit[s] = true;
        }
        assert!(hit.iter().all(|h| *h), "32 keys should touch all 3 shards: {hit:?}");
    }

    #[test]
    fn key_pool_routes_back_to_its_shard() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let pools = topo.key_pool(4);
        assert_eq!(pools.len(), 3);
        for (shard, pool) in pools.iter().enumerate() {
            assert_eq!(pool.len(), 4);
            for key in pool {
                assert_eq!(topo.shard_of(key), shard);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty replica group")]
    fn empty_group_rejected() {
        let _ = ShardTopology::new(3, vec![vec![SiteId(0)], vec![]]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_member_rejected() {
        let _ = ShardTopology::new(2, vec![vec![SiteId(0), SiteId(5)]]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_member_rejected() {
        let _ = ShardTopology::new(3, vec![vec![SiteId(1), SiteId(1)]]);
    }
}
