//! Master leases for linearizable local reads (the LARK argument).
//!
//! A shard master may serve a read straight from its committed store —
//! without even touching the lock table — as long as it can prove no other
//! site could have committed a write it has not seen. In this replication
//! scheme every write commits *through* the master, so the only hazard is a
//! partition that cuts the master off while the rest of the group elects a
//! new configuration. The lease closes exactly that hole: the master
//! periodically asks every replica of the shard for a time-bounded promise
//! (the ack arms a grant lasting [`LeaseConfig::duration`] from the
//! instant the renewal it answers was *sent*). While
//! every replica's grant is live the master is provably connected to the
//! whole group and serves lease reads; when a partition swallows the
//! renewals the grants lapse and reads fall back to the shared-lock path.
//!
//! The lease fast path still probes `LockTable::is_locked` per key: a
//! locked key means a commit round is in flight whose coordinator may
//! already have acked the client, so a lock-free snapshot could read
//! backwards in time. The probe is read-only — no queueing, no allocation —
//! so the fast path does zero lock-table mutation.

use ptp_simnet::SiteId;
use std::collections::BTreeMap;

/// Lease timing knobs, in the host's time units (simulation ticks; the
/// live host converts its wall-clock configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Renewal period: how often a master solicits acks from its replicas.
    pub period: u64,
    /// Grant lifetime, counted from the *send* instant of the renewal round
    /// an ack answers (the conservative anchor: the master never counts
    /// time the replica did not promise). Must exceed `period` (plus a
    /// round trip) or the lease flaps between renewals.
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

/// Master-side lease state: one grant expiry per `(shard, replica)`, and
/// the send instants of the renewal rounds still young enough to arm one.
#[derive(Debug, Default)]
pub struct LeaseTable {
    grants: BTreeMap<(usize, u16), u64>,
    rounds: BTreeMap<(usize, u8), u64>,
    last_round: u8,
}

impl LeaseTable {
    /// An empty table (no grants — every lease check fails until acks
    /// arrive).
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// Opens a renewal round for `shard`, sent at `now`, and returns the
    /// round id its solicitations carry. Rounds older than a grant lifetime
    /// are forgotten (a grant they armed would be dead on arrival).
    pub fn open_round(&mut self, shard: usize, now: u64, cfg: LeaseConfig) -> u8 {
        self.rounds.retain(|_, sent| *sent + cfg.duration >= now);
        self.last_round = self.last_round.wrapping_add(1);
        self.rounds.insert((shard, self.last_round), now);
        self.last_round
    }

    /// A replica's ack of `round`: its grant now lasts `cfg.duration` from
    /// the instant that round went out — a slow ack arms a correspondingly
    /// shorter grant, and an ack of a forgotten round arms nothing. Grants
    /// only move forward: a reordered older ack never shortens one.
    pub fn ack(&mut self, shard: usize, round: u8, replica: SiteId, cfg: LeaseConfig) {
        if let Some(sent) = self.rounds.get(&(shard, round)) {
            let expiry = sent + cfg.duration;
            let grant = self.grants.entry((shard, replica.0)).or_insert(expiry);
            *grant = (*grant).max(expiry);
        }
    }

    /// True if every listed replica's grant is live at `now`. An empty
    /// replica list (replication factor 1) is trivially valid — the master
    /// IS the group.
    pub fn valid(&self, shard: usize, replicas: &[SiteId], now: u64) -> bool {
        replicas.iter().all(|r| self.grants.get(&(shard, r.0)).is_some_and(|e| *e >= now))
    }

    /// Drops every grant and round (crash recovery: leases are volatile
    /// state, re-earned through fresh renewal rounds).
    pub fn clear(&mut self) {
        self.grants.clear();
        self.rounds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: LeaseConfig = LeaseConfig { period: 10, duration: 100 };

    #[test]
    fn lease_is_valid_only_while_every_replica_grant_is_live() {
        let mut t = LeaseTable::new();
        let replicas = [SiteId(1), SiteId(2)];
        assert!(!t.valid(0, &replicas, 10), "no grants yet");
        let early = t.open_round(0, 0, CFG);
        let late = t.open_round(0, 50, CFG);
        t.ack(0, late, SiteId(1), CFG);
        assert!(!t.valid(0, &replicas, 10), "replica 2 missing");
        t.ack(0, early, SiteId(2), CFG);
        assert!(t.valid(0, &replicas, 100), "inclusive expiry, anchored at the round's send");
        assert!(!t.valid(0, &replicas, 101), "replica 2 lapsed");
        t.ack(0, late, SiteId(2), CFG);
        assert!(t.valid(0, &replicas, 101), "renewal restores it");
        t.ack(0, early, SiteId(2), CFG);
        assert!(t.valid(0, &replicas, 150), "a reordered older ack never shortens a grant");
    }

    #[test]
    fn ack_of_a_forgotten_round_arms_nothing() {
        let mut t = LeaseTable::new();
        let stale = t.open_round(0, 0, CFG);
        t.open_round(0, 101, CFG);
        t.ack(0, stale, SiteId(1), CFG);
        assert!(!t.valid(0, &[SiteId(1)], 101));
    }

    #[test]
    fn replication_factor_one_is_trivially_valid() {
        let t = LeaseTable::new();
        assert!(t.valid(3, &[], 0));
    }

    #[test]
    fn grants_are_per_shard() {
        let mut t = LeaseTable::new();
        let round = t.open_round(0, 0, CFG);
        t.ack(0, round, SiteId(1), CFG);
        assert!(t.valid(0, &[SiteId(1)], 10));
        assert!(!t.valid(1, &[SiteId(1)], 10));
    }

    #[test]
    #[should_panic(expected = "period < duration")]
    fn degenerate_config_rejected() {
        let _ = LeaseConfig::new(500, 500);
    }
}
