//! Master leases for linearizable local reads (the LARK argument).
//!
//! A shard master may serve a read straight from its committed store —
//! without even touching the lock table — as long as it can prove no other
//! site could have committed a write it has not seen. In this replication
//! scheme every write commits *through* the master, so the only hazard is a
//! partition that cuts the master off while the rest of the group elects a
//! new configuration. The lease closes exactly that hole: the master
//! periodically asks every replica of the shard for a time-bounded promise
//! (the ack arms a grant lasting [`LeaseConfig::duration`] ticks). While
//! every replica's grant is live the master is provably connected to the
//! whole group and serves lease reads; when a partition swallows the
//! renewals the grants lapse and reads fall back to the shared-lock path.
//!
//! The lease fast path still probes `LockTable::is_locked` per key: a
//! locked key means a commit round is in flight whose coordinator may
//! already have acked the client, so a lock-free snapshot could read
//! backwards in time. The probe is read-only — no queueing, no allocation —
//! so the fast path does zero lock-table mutation.

use ptp_simnet::{SimTime, SiteId};
use std::collections::BTreeMap;

/// Lease timing knobs, in simulation ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Renewal period: how often a master solicits acks from its replicas.
    pub period: u64,
    /// Grant lifetime: how long one ack keeps a replica's grant live. Must
    /// exceed `period` (plus a round trip) or the lease flaps between
    /// renewals.
    pub duration: u64,
}

impl LeaseConfig {
    /// A config with `duration` ticks of validity renewed every `period`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < period < duration`.
    pub fn new(period: u64, duration: u64) -> LeaseConfig {
        assert!(period > 0 && duration > period, "need 0 < period < duration");
        LeaseConfig { period, duration }
    }
}

/// Master-side lease state: one grant expiry per `(shard, replica)`.
#[derive(Debug, Default)]
pub struct LeaseTable {
    grants: BTreeMap<(usize, u16), SimTime>,
}

impl LeaseTable {
    /// An empty table (no grants — every lease check fails until acks
    /// arrive).
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// Records a replica's ack: the grant for `(shard, replica)` now lasts
    /// until `expiry`.
    pub fn grant(&mut self, shard: usize, replica: SiteId, expiry: SimTime) {
        self.grants.insert((shard, replica.0), expiry);
    }

    /// True if every listed replica's grant is live at `now`. An empty
    /// replica list (replication factor 1) is trivially valid — the master
    /// IS the group.
    pub fn valid(&self, shard: usize, replicas: &[SiteId], now: SimTime) -> bool {
        replicas.iter().all(|r| self.grants.get(&(shard, r.0)).is_some_and(|e| *e >= now))
    }

    /// Drops every grant (crash recovery: leases are volatile state).
    pub fn clear(&mut self) {
        self.grants.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_is_valid_only_while_every_replica_grant_is_live() {
        let mut t = LeaseTable::new();
        let replicas = [SiteId(1), SiteId(2)];
        assert!(!t.valid(0, &replicas, SimTime(10)), "no grants yet");
        t.grant(0, SiteId(1), SimTime(100));
        assert!(!t.valid(0, &replicas, SimTime(10)), "replica 2 missing");
        t.grant(0, SiteId(2), SimTime(50));
        assert!(t.valid(0, &replicas, SimTime(50)), "inclusive expiry");
        assert!(!t.valid(0, &replicas, SimTime(51)), "replica 2 lapsed");
        t.grant(0, SiteId(2), SimTime(200));
        assert!(t.valid(0, &replicas, SimTime(51)), "renewal restores it");
    }

    #[test]
    fn replication_factor_one_is_trivially_valid() {
        let t = LeaseTable::new();
        assert!(t.valid(3, &[], SimTime(0)));
    }

    #[test]
    fn grants_are_per_shard() {
        let mut t = LeaseTable::new();
        t.grant(0, SiteId(1), SimTime(100));
        assert!(t.valid(0, &[SiteId(1)], SimTime(10)));
        assert!(!t.valid(1, &[SiteId(1)], SimTime(10)));
    }

    #[test]
    #[should_panic(expected = "period < duration")]
    fn degenerate_config_rejected() {
        let _ = LeaseConfig::new(500, 500);
    }
}
