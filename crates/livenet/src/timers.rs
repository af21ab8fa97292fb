//! The wall-clock timer table of a site thread.
//!
//! Both thread hosts keep one: the protocol-only site runner here, keyed by
//! `TimerTag`, and `ptp-live`'s database site, keyed by the site core's
//! timer keys. Deadlines are nanoseconds since a zero point the host picks
//! (`ptp-live` uses the run's start, as [`crate::host_time`] does). The table is kept in deadline order, so the
//! next timer due is the first, and timers due at one wakeup fire earliest
//! first, ties in the order they were armed — the simulator's order.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Armed timers, at most one per key.
#[derive(Debug)]
pub struct Timers<K> {
    /// `(deadline, arming order)` → key: ties fire in the order armed.
    by_deadline: BTreeMap<(u64, u64), K>,
    /// Where each armed key sits in `by_deadline`.
    armed: HashMap<K, (u64, u64)>,
    /// Timers armed so far.
    order: u64,
}

impl<K> Default for Timers<K> {
    fn default() -> Self {
        Timers { by_deadline: BTreeMap::new(), armed: HashMap::new(), order: 0 }
    }
}

impl<K: Copy + Eq + Hash> Timers<K> {
    /// Arms `key` for `deadline`, replacing the timer armed under it.
    pub fn set(&mut self, key: K, deadline: u64) {
        self.cancel(key);
        self.order += 1;
        self.by_deadline.insert((deadline, self.order), key);
        self.armed.insert(key, (deadline, self.order));
    }

    /// Disarms `key`, if it is armed.
    pub fn cancel(&mut self, key: K) {
        if let Some(at) = self.armed.remove(&key) {
            self.by_deadline.remove(&at);
        }
    }

    /// Disarms and returns the earliest timer due at `now`, if one is. A
    /// handler may re-arm or cancel any other timer, so callers firing
    /// every due timer ask afresh for each.
    pub fn pop_due(&mut self, now: u64) -> Option<K> {
        let entry = self.by_deadline.first_entry().filter(|entry| entry.key().0 <= now)?;
        let key = entry.remove();
        self.armed.remove(&key);
        Some(key)
    }

    /// The earliest deadline armed.
    pub fn next_deadline(&self) -> Option<u64> {
        self.by_deadline.first_key_value().map(|(&(deadline, _), _)| deadline)
    }

    /// Disarms every timer.
    pub fn clear(&mut self) {
        self.by_deadline.clear();
        self.armed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_protocols::api::TimerTag::{PWait, Proto, WWait};

    #[test]
    fn timers_fire_in_deadline_order_and_a_rearm_replaces() {
        let mut timers = Timers::default();
        timers.set(Proto, 30);
        timers.set(WWait, 20);
        timers.set(PWait, 20);
        assert_eq!(timers.next_deadline(), Some(20));
        assert_eq!(timers.pop_due(19), None);
        // Re-arming moves the timer: its old deadline is gone, not doubled.
        timers.set(WWait, 40);
        assert_eq!(timers.pop_due(35), Some(PWait));
        assert_eq!(timers.pop_due(35), Some(Proto));
        assert_eq!((timers.pop_due(35), timers.next_deadline()), (None, Some(40)));
        // Equal deadlines fire in the order armed.
        timers.set(Proto, 40);
        assert_eq!([timers.pop_due(40), timers.pop_due(40)], [Some(WWait), Some(Proto)]);
        assert_eq!((timers.pop_due(u64::MAX), timers.next_deadline()), (None, None));
        assert!(timers.armed.is_empty());
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let mut timers = Timers::default();
        timers.set(Proto, 10);
        timers.set(WWait, 20);
        timers.cancel(Proto);
        timers.cancel(Proto);
        assert_eq!(timers.next_deadline(), Some(20));
        assert_eq!([timers.pop_due(100), timers.pop_due(100)], [Some(WWait), None]);
    }
}
