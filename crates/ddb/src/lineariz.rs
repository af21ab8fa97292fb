//! A read-history linearizability checker for the elastic read path.
//!
//! The read layer claims that every served read — lease fast path,
//! local shared-lock path, or cross-shard protocol round — is consistent
//! with *some* linearization of the committed writes. This module checks
//! that claim against a finished run's history, exploiting two structural
//! facts of the sharded design:
//!
//! 1. **Per-key commit points are totally ordered.** Every write to a key
//!    commits through the key's shard master under strict 2PL, and every
//!    read of the key is served there, so that master's decision instants
//!    are the key's linearization points and the per-key write history is
//!    a sequence, not a partial order.
//! 2. **A key becomes visible when *its own* master decides, not when the
//!    coordinator does.** A master applies a write at its own decision
//!    instant. Failure-free that is at or after the coordinator's, but
//!    under the termination protocol the two sides of a partition boundary
//!    terminate at different instants, and a participant shard's master
//!    may commit first: the keys of one cross-shard write have one commit
//!    point *each* (LARK's per-key argument; the per-group commit
//!    visibility of partial replication). What never happens is a read
//!    observing a value before the value's own master committed it.
//!
//! A read of key `k` served at instant `t` must therefore observe the
//! value of the *last* write to `k` that `k`'s shard master committed at an
//! instant `< t` (or the seed value if none committed yet). Writes
//! committing there at exactly `t` are concurrent with the read — the
//! checker accepts either side of the tie. Anything else is a
//! [`ReadViolation`].

use crate::plan::ShardTxnSpec;
use crate::site::Metrics;
use crate::topology::ShardTopology;
use crate::value::{Key, TxnId, Value};
use ptp_model::Decision;
use ptp_simnet::{SimTime, SiteId};
use std::collections::BTreeMap;

/// One read observation the committed-write history cannot explain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadViolation {
    /// The offending read-only transaction.
    pub read: TxnId,
    /// The site that served (this slice of) the read.
    pub site: SiteId,
    /// Serve instant.
    pub at: SimTime,
    /// The key whose observation is inconsistent.
    pub key: Key,
    /// What the read returned.
    pub observed: Option<Value>,
    /// The admissible values at that instant (latest committed write
    /// strictly before `at`, plus any write committing at exactly `at`).
    pub admissible: Vec<Option<Value>>,
}

/// Checks every [`crate::site::ReadRecord`] in `metrics` against the
/// committed-write history of `specs` (each written key's commit point
/// judged at that key's shard master). Returns all violations, in read
/// order — empty means the run's reads linearize.
pub fn check_read_history<'s>(
    topology: &ShardTopology,
    seeds: &[(Key, Value)],
    specs: impl IntoIterator<Item = &'s ShardTxnSpec>,
    metrics: &Metrics,
) -> Vec<ReadViolation> {
    // Per-key committed-write history: (commit instant, value), sorted by
    // instant. Later writes within one transaction's list win.
    let mut history: BTreeMap<Key, Vec<(SimTime, Option<Value>)>> = BTreeMap::new();
    for spec in specs {
        let Some(decisions) = metrics.decisions.get(&spec.id) else { continue };
        let mut last: BTreeMap<&Key, &Value> = BTreeMap::new();
        for w in &spec.writes {
            last.insert(&w.key, &w.value);
        }
        for (key, value) in last {
            let master = topology.master(topology.shard_of(key)).0;
            if let Some(&(Decision::Commit, at)) = decisions.get(&master) {
                history.entry(key.clone()).or_default().push((at, Some(value.clone())));
            }
        }
    }
    for writes in history.values_mut() {
        writes.sort_by_key(|(at, _)| *at);
    }
    let seed_of = |key: &Key| -> Option<Value> {
        seeds.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };

    let mut violations = Vec::new();
    for record in &metrics.reads {
        for (key, observed) in &record.values {
            let writes = history.get(key).map(Vec::as_slice).unwrap_or(&[]);
            let before = writes.iter().rev().find(|(at, _)| *at < record.at);
            let latest = before.map(|(_, v)| v.clone()).unwrap_or_else(|| seed_of(key));
            let mut admissible = vec![latest];
            for (at, v) in writes {
                if *at == record.at {
                    admissible.push(v.clone());
                }
            }
            if !admissible.contains(observed) {
                violations.push(ReadViolation {
                    read: record.id,
                    site: record.site,
                    at: record.at,
                    key: key.clone(),
                    observed: observed.clone(),
                    admissible,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{ReadPath, ReadRecord};
    use crate::value::WriteOp;

    fn spec(id: u32, key: &Key, v: u64) -> ShardTxnSpec {
        ShardTxnSpec {
            id: TxnId(id),
            writes: vec![WriteOp { key: key.clone(), value: Value::from_u64(v) }],
        }
    }

    fn commit(metrics: &mut Metrics, id: u32, site: u16, at: u64) {
        metrics
            .decisions
            .entry(TxnId(id))
            .or_default()
            .insert(site, (Decision::Commit, SimTime(at)));
    }

    fn observe(metrics: &mut Metrics, id: u32, site: u16, at: u64, key: &Key, v: Option<u64>) {
        metrics.reads.push(ReadRecord {
            id: TxnId(id),
            site: SiteId(site),
            at: SimTime(at),
            path: ReadPath::Lease,
            values: vec![(key.clone(), v.map(Value::from_u64))],
        });
    }

    /// A key routed to `shard` under `topo`.
    fn key_in(topo: &ShardTopology, shard: usize) -> Key {
        (0..512)
            .map(|i| Key::from(format!("key-{i}")))
            .find(|k| topo.shard_of(k) == shard)
            .expect("probe key")
    }

    #[test]
    fn latest_committed_write_is_the_only_admissible_value_between_commits() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let k = key_in(&topo, 0);
        let master = topo.master(0).0;
        let specs = vec![spec(1, &k, 10), spec(2, &k, 20)];
        let mut metrics = Metrics::default();
        commit(&mut metrics, 1, master, 1000);
        commit(&mut metrics, 2, master, 3000);
        observe(&mut metrics, 100, master, 500, &k, None); // before both
        observe(&mut metrics, 101, master, 2000, &k, Some(10));
        observe(&mut metrics, 102, master, 4000, &k, Some(20));
        assert!(check_read_history(&topo, &[], &specs, &metrics).is_empty());

        observe(&mut metrics, 103, master, 4000, &k, Some(10)); // stale
        let violations = check_read_history(&topo, &[], &specs, &metrics);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].read, TxnId(103));
        assert_eq!(violations[0].observed, Some(Value::from_u64(10)));
    }

    #[test]
    fn a_write_committing_at_the_read_instant_is_concurrent() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let k = key_in(&topo, 0);
        let master = topo.master(0).0;
        let specs = vec![spec(1, &k, 10)];
        let mut metrics = Metrics::default();
        commit(&mut metrics, 1, master, 1000);
        observe(&mut metrics, 100, master, 1000, &k, None); // old side of tie
        observe(&mut metrics, 101, master, 1000, &k, Some(10)); // new side
        assert!(check_read_history(&topo, &[], &specs, &metrics).is_empty());
    }

    #[test]
    fn seeds_and_uncommitted_writes_shape_the_baseline() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let k = key_in(&topo, 0);
        let master = topo.master(0).0;
        // Txn 1 never commits (no decision recorded): its value is never
        // admissible, and the seed stays the baseline.
        let specs = vec![spec(1, &k, 10)];
        let mut metrics = Metrics::default();
        observe(&mut metrics, 100, master, 5000, &k, Some(7));
        let seeds = vec![(k.clone(), Value::from_u64(7))];
        assert!(check_read_history(&topo, &seeds, &specs, &metrics).is_empty());

        observe(&mut metrics, 101, master, 6000, &k, Some(10));
        let violations = check_read_history(&topo, &seeds, &specs, &metrics);
        assert_eq!(violations.len(), 1, "uncommitted write observed");
    }

    #[test]
    fn each_key_of_a_cross_shard_write_commits_at_its_own_master() {
        // Termination on the two sides of a boundary: the participant
        // master (shard 1) commits at 2000, the coordinator (shard 0, the
        // lowest involved shard's master) only at 5000.
        let topo = ShardTopology::uniform(6, 3, 2);
        let (k0, k1) = (key_in(&topo, 0), key_in(&topo, 1));
        let (coordinator, participant) = (topo.master(0).0, topo.master(1).0);
        let write = |k: &Key, v| WriteOp { key: k.clone(), value: Value::from_u64(v) };
        let specs =
            vec![ShardTxnSpec { id: TxnId(1), writes: vec![write(&k0, 10), write(&k1, 11)] }];
        let seeds = vec![(k0.clone(), Value::from_u64(0)), (k1.clone(), Value::from_u64(1))];
        let mut metrics = Metrics::default();
        commit(&mut metrics, 1, participant, 2000);
        commit(&mut metrics, 1, coordinator, 5000);
        // Between the two instants the participant's key is already new,
        // the coordinator's key still old.
        observe(&mut metrics, 100, participant, 3000, &k1, Some(11));
        observe(&mut metrics, 101, coordinator, 3000, &k0, Some(0));
        observe(&mut metrics, 102, coordinator, 6000, &k0, Some(10));
        assert_eq!(check_read_history(&topo, &seeds, &specs, &metrics), vec![]);

        // The coordinator's key read new inside the window: not yet
        // committed at *its* master.
        observe(&mut metrics, 103, coordinator, 3000, &k0, Some(10));
        // The participant's key read new before its own master committed.
        observe(&mut metrics, 104, participant, 1500, &k1, Some(11));
        // ... and read old after it did.
        observe(&mut metrics, 105, participant, 3000, &k1, Some(1));
        let violations = check_read_history(&topo, &seeds, &specs, &metrics);
        let reads: Vec<TxnId> = violations.iter().map(|v| v.read).collect();
        assert_eq!(reads, vec![TxnId(103), TxnId(104), TxnId(105)], "{violations:#?}");
    }
}
