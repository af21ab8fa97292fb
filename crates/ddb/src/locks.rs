//! Strict two-phase locking.
//!
//! The paper's motivation for nonblocking commit (Sec. 2): "the locks
//! acquired by the blocked transaction cannot be relinquished, rendering
//! those data inaccessible to other transactions." This lock manager is
//! what makes that cost measurable in experiment E14: every lock is held
//! from acquisition until the owning transaction's commit protocol
//! terminates.
//!
//! Shared/exclusive locks with FIFO wait queues. Deadlocks are broken by
//! the transaction layer's timeouts (a waiter that never gets its locks
//! never votes, the commit protocol times out, and the abort releases
//! everything).

use crate::value::{IdMap, Key, TxnId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared locks.
    Shared,
    /// Exclusive (write).
    Exclusive,
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGrant {
    /// Granted immediately.
    Granted,
    /// Queued behind conflicting holders.
    Waiting,
}

#[derive(Debug, Clone)]
struct LockEntry {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<(TxnId, LockMode)>,
}

/// A per-site lock table.
#[derive(Debug, Default, Clone)]
pub struct LockTable {
    locks: BTreeMap<Key, LockEntry>,
    /// The keys each transaction holds or waits for — all a release has to
    /// visit (a blocked protocol's locks stay in the table for good).
    keys_of: IdMap<TxnId, Vec<Key>>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// Requests a lock. Re-requests by a holder are granted (no upgrade
    /// support: requesting exclusive while holding shared conflicts like
    /// any other request unless the txn is the sole holder).
    pub fn acquire(&mut self, txn: TxnId, key: Key, mode: LockMode) -> LockGrant {
        let keys = self.keys_of.entry(txn).or_default();
        if !keys.contains(&key) {
            keys.push(key.clone());
        }
        let entry = self
            .locks
            .entry(key)
            .or_insert_with(|| LockEntry { holders: Vec::new(), queue: VecDeque::new() });

        if let Some(pos) = entry.holders.iter().position(|(t, _)| *t == txn) {
            let held = entry.holders[pos].1;
            match (held, mode) {
                (LockMode::Exclusive, _) | (_, LockMode::Shared) => return LockGrant::Granted,
                (LockMode::Shared, LockMode::Exclusive) => {
                    if entry.holders.len() == 1 {
                        entry.holders[pos].1 = LockMode::Exclusive;
                        return LockGrant::Granted;
                    }
                    entry.queue.push_back((txn, mode));
                    return LockGrant::Waiting;
                }
            }
        }

        let compatible = entry.queue.is_empty()
            && match mode {
                LockMode::Shared => entry.holders.iter().all(|(_, m)| *m == LockMode::Shared),
                LockMode::Exclusive => entry.holders.is_empty(),
            };
        if compatible {
            entry.holders.push((txn, mode));
            LockGrant::Granted
        } else {
            entry.queue.push_back((txn, mode));
            LockGrant::Waiting
        }
    }

    /// Releases every lock (and queued request) of `txn`. Returns the
    /// transactions that acquired locks as a result — the site layer
    /// re-checks whether they can now proceed.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut promoted = Vec::new();
        for key in self.keys_of.remove(&txn).unwrap_or_default() {
            let Entry::Occupied(mut slot) = self.locks.entry(key) else { continue };
            let entry = slot.get_mut();
            entry.holders.retain(|(t, _)| *t != txn);
            entry.queue.retain(|(t, _)| *t != txn);
            // Promote from the queue head while compatible. The requester's
            // own shared hold never conflicts with its queued exclusive
            // upgrade — counting it would strand the upgrade forever.
            while let Some(&(next, mode)) = entry.queue.front() {
                let ok = match mode {
                    LockMode::Shared => entry.holders.iter().all(|(_, m)| *m == LockMode::Shared),
                    LockMode::Exclusive => entry.holders.iter().all(|(t, _)| *t == next),
                };
                if !ok {
                    break;
                }
                entry.queue.pop_front();
                match entry.holders.iter().position(|(t, _)| *t == next) {
                    Some(pos) => entry.holders[pos].1 = mode, // upgrade in place
                    None => entry.holders.push((next, mode)),
                }
                promoted.push(next);
            }
            if entry.holders.is_empty() && entry.queue.is_empty() {
                slot.remove();
            }
        }
        promoted.sort_by_key(|t| t.0);
        promoted.dedup();
        promoted
    }

    /// Does `txn` hold a lock on `key` (in at least the given mode)?
    pub fn holds(&self, txn: TxnId, key: &Key, mode: LockMode) -> bool {
        self.locks.get(key).is_some_and(|e| {
            e.holders
                .iter()
                .any(|(t, m)| *t == txn && (*m == LockMode::Exclusive || mode == LockMode::Shared))
        })
    }

    /// Is the key currently locked by anyone?
    pub fn is_locked(&self, key: &Key) -> bool {
        self.locks.get(key).is_some_and(|e| !e.holders.is_empty())
    }

    /// Number of transactions waiting across all keys.
    pub fn waiting_count(&self) -> usize {
        self.locks.values().map(|e| e.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn exclusive_conflicts_queue() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Exclusive), LockGrant::Granted);
        assert_eq!(lt.acquire(TxnId(2), k("a"), LockMode::Exclusive), LockGrant::Waiting);
        assert_eq!(lt.waiting_count(), 1);
        let promoted = lt.release_all(TxnId(1));
        assert_eq!(promoted, vec![TxnId(2)]);
        assert!(lt.holds(TxnId(2), &k("a"), LockMode::Exclusive));
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Shared), LockGrant::Granted);
        assert_eq!(lt.acquire(TxnId(2), k("a"), LockMode::Shared), LockGrant::Granted);
        assert_eq!(lt.acquire(TxnId(3), k("a"), LockMode::Exclusive), LockGrant::Waiting);
    }

    #[test]
    fn exclusive_blocks_shared_and_fifo_applies() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Exclusive);
        assert_eq!(lt.acquire(TxnId(2), k("a"), LockMode::Shared), LockGrant::Waiting);
        assert_eq!(lt.acquire(TxnId(3), k("a"), LockMode::Shared), LockGrant::Waiting);
        let promoted = lt.release_all(TxnId(1));
        // Both shared waiters promote together.
        assert_eq!(promoted, vec![TxnId(2), TxnId(3)]);
    }

    #[test]
    fn reacquire_held_lock_is_granted() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Exclusive);
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Exclusive), LockGrant::Granted);
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Shared), LockGrant::Granted);
    }

    #[test]
    fn sole_holder_upgrades() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Shared);
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Exclusive), LockGrant::Granted);
        assert!(lt.holds(TxnId(1), &k("a"), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_with_other_readers_waits() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Shared);
        lt.acquire(TxnId(2), k("a"), LockMode::Shared);
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Exclusive), LockGrant::Waiting);
    }

    #[test]
    fn queued_upgrade_promotes_when_other_reader_leaves() {
        // txn 1 holds Shared and queues an Exclusive upgrade behind txn 2's
        // Shared hold. When txn 2 releases, the promotion check must not
        // count txn 1's own shared hold as a conflicting holder.
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Shared);
        lt.acquire(TxnId(2), k("a"), LockMode::Shared);
        assert_eq!(lt.acquire(TxnId(1), k("a"), LockMode::Exclusive), LockGrant::Waiting);
        let promoted = lt.release_all(TxnId(2));
        assert_eq!(promoted, vec![TxnId(1)]);
        assert!(lt.holds(TxnId(1), &k("a"), LockMode::Exclusive));
        assert_eq!(lt.waiting_count(), 0);
        // The upgrade replaced the shared hold — releasing once frees the key.
        lt.release_all(TxnId(1));
        assert!(!lt.is_locked(&k("a")));
    }

    #[test]
    fn queued_upgrade_still_waits_for_later_readers_behind_it() {
        // FIFO discipline: txn 1's queued upgrade is at the head, so a
        // shared request queued after it must wait until the upgrade runs.
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Shared);
        lt.acquire(TxnId(2), k("a"), LockMode::Shared);
        lt.acquire(TxnId(1), k("a"), LockMode::Exclusive);
        lt.acquire(TxnId(3), k("a"), LockMode::Shared);
        let promoted = lt.release_all(TxnId(2));
        // Only the upgrade promotes; txn 3 stays queued behind the now
        // exclusive txn 1.
        assert_eq!(promoted, vec![TxnId(1)]);
        assert_eq!(lt.waiting_count(), 1);
        assert_eq!(lt.release_all(TxnId(1)), vec![TxnId(3)]);
    }

    #[test]
    fn release_clears_queued_requests_too() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Exclusive);
        lt.acquire(TxnId(2), k("a"), LockMode::Exclusive);
        lt.release_all(TxnId(2)); // give up while waiting
        assert_eq!(lt.waiting_count(), 0);
        let promoted = lt.release_all(TxnId(1));
        assert!(promoted.is_empty());
        assert!(!lt.is_locked(&k("a")));
    }

    #[test]
    fn queue_preserves_fifo_order_for_exclusives() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), k("a"), LockMode::Exclusive);
        lt.acquire(TxnId(2), k("a"), LockMode::Exclusive);
        lt.acquire(TxnId(3), k("a"), LockMode::Exclusive);
        assert_eq!(lt.release_all(TxnId(1)), vec![TxnId(2)]);
        assert_eq!(lt.release_all(TxnId(2)), vec![TxnId(3)]);
    }

    #[test]
    fn locked_predicate() {
        let mut lt = LockTable::new();
        assert!(!lt.is_locked(&k("a")));
        lt.acquire(TxnId(1), k("a"), LockMode::Shared);
        assert!(lt.is_locked(&k("a")));
    }
}
