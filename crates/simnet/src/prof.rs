//! Handler-time profiling.
//!
//! A [`crate::Trace`] answers *what happened*; a [`Profile`] answers *how
//! much wall-clock time the protocol handlers spent* doing it: every
//! dispatched event (a delivery, an undeliverable return, a timer expiry, a
//! start callback) adds one to the count and its handler's nanoseconds to
//! the total. The benchmark's `protocols.handler_ns` and
//! `simnet.dispatch_overhead_ns` rungs divide the one by the other.
//!
//! Profiling is off unless a caller asks for it: the sweep hot path keeps
//! no profile and pays one branch per event, no clock reads.

/// Dispatched events and the wall-clock nanoseconds their handlers spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfEntry {
    /// Number of dispatched events.
    pub count: u64,
    /// Total wall-clock nanoseconds spent in the handlers.
    pub nanos: u64,
}

/// An aggregated profile: one [`ProfEntry`] over every recorded event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    total: ProfEntry,
}

impl Profile {
    /// Records one handler call that took `nanos`.
    pub fn record(&mut self, nanos: u64) {
        self.total.count += 1;
        self.total.nanos += nanos;
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        self.total.count += other.total.count;
        self.total.nanos += other.total.nanos;
    }

    /// The totals over every recorded event.
    pub fn total(&self) -> ProfEntry {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_accumulate_the_total() {
        let mut a = Profile::default();
        assert!(a.is_empty());
        a.record(100);
        a.record(50);
        assert_eq!(a.total(), ProfEntry { count: 2, nanos: 150 });
        let mut b = Profile::default();
        b.record(7);
        a.merge(&b);
        a.merge(&Profile::default());
        assert_eq!(a.total(), ProfEntry { count: 3, nanos: 157 });
        assert!(!a.is_empty());
    }
}
