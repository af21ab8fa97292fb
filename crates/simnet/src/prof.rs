//! Event-attribution profiling.
//!
//! [`TraceSink`](crate::TraceSink) answers *what happened*; [`ProfSink`]
//! answers *where the simulator's work went*. Each recorded sample
//! attributes one dispatched event (a delivery, an undeliverable return, a
//! timer expiry, a start callback) to the acting site, the message kind or
//! timer tag, and the protocol phase the actor was in when the event
//! arrived, together with the wall-clock nanoseconds the handler spent.
//!
//! The sink mirrors the [`TraceSink`](crate::TraceSink) null/recording
//! split: the sweep hot path keeps a [`ProfSink::Null`] and pays one enum
//! discriminant test per event, nothing more. Profiling runs flip the sink
//! to recording and aggregate into a [`Profile`], whose rollups
//! ([`Profile::by_phase`], [`Profile::by_kind`], [`Profile::by_site`]) feed
//! the benchmark's `protocols.handler_ns` and `simnet.dispatch_overhead_ns`
//! rungs.

use std::collections::BTreeMap;

use crate::message::SiteId;

/// Attribution coordinates for one profiled sample.
///
/// All string fields are `&'static str` (message-kind tags, timer-tag
/// names, state names), so recording allocates only on first sight of a
/// new key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProfKey {
    /// Dispatch class: `"deliver"`, `"ud"`, `"timer"`, or `"start"`.
    pub event: &'static str,
    /// Message kind (for deliveries/returns) or timer-tag name.
    pub kind: &'static str,
    /// Protocol phase (participant state name) when the event arrived.
    pub phase: &'static str,
    /// The acting site.
    pub site: SiteId,
}

/// Accumulated cost of all samples sharing one [`ProfKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfEntry {
    /// Number of dispatched events.
    pub count: u64,
    /// Total wall-clock nanoseconds spent in the handlers.
    pub nanos: u64,
}

impl ProfEntry {
    fn add(&mut self, nanos: u64) {
        self.count += 1;
        self.nanos += nanos;
    }

    fn merge(&mut self, other: &ProfEntry) {
        self.count += other.count;
        self.nanos += other.nanos;
    }
}

/// An aggregated profile: per-key tallies plus grand totals.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    entries: BTreeMap<ProfKey, ProfEntry>,
    total: ProfEntry,
}

impl Profile {
    /// Records one sample.
    pub fn record(&mut self, key: ProfKey, nanos: u64) {
        self.entries.entry(key).or_default().add(nanos);
        self.total.add(nanos);
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (key, entry) in &other.entries {
            self.entries.entry(*key).or_default().merge(entry);
        }
        self.total.merge(&other.total);
    }

    /// All per-key tallies in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&ProfKey, &ProfEntry)> {
        self.entries.iter()
    }

    /// Grand totals across every key.
    pub fn total(&self) -> ProfEntry {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn rollup(&self, project: impl Fn(&ProfKey) -> &'static str) -> Vec<(&'static str, ProfEntry)> {
        let mut map: BTreeMap<&'static str, ProfEntry> = BTreeMap::new();
        for (key, entry) in &self.entries {
            map.entry(project(key)).or_default().merge(entry);
        }
        let mut rows: Vec<_> = map.into_iter().collect();
        // Most expensive first: that is the row the perf work targets.
        rows.sort_by(|a, b| b.1.nanos.cmp(&a.1.nanos).then(a.0.cmp(b.0)));
        rows
    }

    /// Tallies grouped by protocol phase, most expensive first.
    pub fn by_phase(&self) -> Vec<(&'static str, ProfEntry)> {
        self.rollup(|k| k.phase)
    }

    /// Tallies grouped by message kind / timer tag, most expensive first.
    pub fn by_kind(&self) -> Vec<(&'static str, ProfEntry)> {
        self.rollup(|k| k.kind)
    }

    /// Tallies grouped by dispatch class, most expensive first.
    pub fn by_event(&self) -> Vec<(&'static str, ProfEntry)> {
        self.rollup(|k| k.event)
    }

    /// Tallies grouped by acting site, in site order.
    pub fn by_site(&self) -> Vec<(SiteId, ProfEntry)> {
        let mut map: BTreeMap<SiteId, ProfEntry> = BTreeMap::new();
        for (key, entry) in &self.entries {
            map.entry(key.site).or_default().merge(entry);
        }
        map.into_iter().collect()
    }
}

/// Where profiling samples go.
///
/// Mirrors [`TraceSink`](crate::TraceSink): [`ProfSink::Null`] discards
/// samples (and callers skip the `Instant::now` pair entirely), so sweeps
/// with profiling off pay zero cost beyond one branch per event.
#[derive(Debug, Default)]
pub enum ProfSink {
    /// Discard samples.
    #[default]
    Null,
    /// Aggregate samples into a [`Profile`].
    Recording(Profile),
}

impl ProfSink {
    /// A recording sink over an empty profile.
    pub fn recording() -> ProfSink {
        ProfSink::Recording(Profile::default())
    }

    /// True when samples are being kept.
    #[inline]
    pub fn is_recording(&self) -> bool {
        matches!(self, ProfSink::Recording(_))
    }

    /// Records one sample (no-op for [`ProfSink::Null`]).
    #[inline]
    pub fn record(&mut self, key: ProfKey, nanos: u64) {
        match self {
            ProfSink::Recording(profile) => profile.record(key, nanos),
            ProfSink::Null => {}
        }
    }

    /// Consumes the sink, yielding the profile (empty for [`ProfSink::Null`]).
    pub fn into_profile(self) -> Profile {
        match self {
            ProfSink::Recording(profile) => profile,
            ProfSink::Null => Profile::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(event: &'static str, kind: &'static str, phase: &'static str, site: u16) -> ProfKey {
        ProfKey { event, kind, phase, site: SiteId(site) }
    }

    #[test]
    fn record_accumulates_per_key_and_total() {
        let mut p = Profile::default();
        p.record(key("deliver", "state-req", "p", 1), 100);
        p.record(key("deliver", "state-req", "p", 1), 50);
        p.record(key("timer", "quorum-collect", "p", 2), 10);
        assert_eq!(p.entries().count(), 2);
        assert_eq!(p.total(), ProfEntry { count: 3, nanos: 160 });
        let (_, first) = p.entries().next().unwrap();
        assert_eq!(first.count, 2);
        assert_eq!(first.nanos, 150);
    }

    #[test]
    fn rollups_group_and_sort_by_cost() {
        let mut p = Profile::default();
        p.record(key("deliver", "state-req", "p", 1), 10);
        p.record(key("deliver", "state-rep", "p", 2), 100);
        p.record(key("timer", "quorum-collect", "w", 1), 40);
        let by_phase = p.by_phase();
        assert_eq!(by_phase[0].0, "p");
        assert_eq!(by_phase[0].1, ProfEntry { count: 2, nanos: 110 });
        assert_eq!(by_phase[1].0, "w");
        let by_kind = p.by_kind();
        assert_eq!(by_kind[0].0, "state-rep");
        let by_site = p.by_site();
        assert_eq!(by_site[0].0, SiteId(1));
        assert_eq!(by_site[0].1.count, 2);
    }

    #[test]
    fn merge_folds_profiles() {
        let mut a = Profile::default();
        a.record(key("deliver", "yes", "q", 0), 5);
        let mut b = Profile::default();
        b.record(key("deliver", "yes", "q", 0), 7);
        b.record(key("start", "-", "q", 1), 3);
        a.merge(&b);
        assert_eq!(a.total(), ProfEntry { count: 3, nanos: 15 });
        assert_eq!(a.entries().count(), 2);
    }

    #[test]
    fn null_sink_discards_and_recording_keeps() {
        let mut null = ProfSink::Null;
        null.record(key("deliver", "yes", "q", 0), 5);
        assert!(!null.is_recording());
        assert!(null.into_profile().is_empty());

        let mut rec = ProfSink::recording();
        assert!(rec.is_recording());
        rec.record(key("deliver", "yes", "q", 0), 5);
        let p = rec.into_profile();
        assert_eq!(p.total().count, 1);
    }
}
