//! Named latency histograms and a fixed-bin time-series sampler.
//!
//! The registry is deliberately boring: [`LogHistogram`]s keyed by
//! `&'static str` names, so a run's latency populations travel in one
//! value and are read back by name.
//!
//! [`Series`] buckets timestamped samples into fixed-width bins so a run
//! reports *curves* (per-second goodput, per-second p99) instead of run
//! totals only — the difference between "p99 blew up" and "p99 blew up for
//! the four seconds the partition was open".

use crate::hist::LogHistogram;
use std::collections::BTreeMap;
use std::time::Duration;

/// Named log-histograms.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Folds an already-built histogram into histogram `name`.
    pub fn merge_hist(&mut self, name: &'static str, h: &LogHistogram) {
        self.hists.entry(name).or_default().merge(h);
    }

    /// Histogram by name, if any was folded in.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }
}

/// One bin of a [`Series`]: how many events landed in it and the latency
/// population they carried.
#[derive(Debug, Clone, Default)]
pub struct SeriesBin {
    /// Events recorded in this bin.
    pub count: u64,
    /// Latency samples attached to those events (microseconds).
    pub latency: LogHistogram,
}

/// A fixed-bin time series: samples are bucketed by their offset from run
/// start, yielding per-bin counts and latency percentiles.
#[derive(Debug, Clone)]
pub struct Series {
    bin: Duration,
    bins: Vec<SeriesBin>,
}

impl Series {
    /// A series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics on a zero bin width.
    pub fn new(bin: Duration) -> Series {
        assert!(!bin.is_zero(), "a series bin must have positive width");
        Series { bin, bins: Vec::new() }
    }

    /// Records one event at offset `at` from run start, carrying latency
    /// `latency_us`.
    pub fn record(&mut self, at: Duration, latency_us: u64) {
        let idx = (at.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize_with(idx + 1, SeriesBin::default);
        }
        self.bins[idx].count += 1;
        self.bins[idx].latency.record(latency_us);
    }

    /// The bins, in time order (empty trailing bins are not materialized).
    pub fn bins(&self) -> &[SeriesBin] {
        &self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_fold_by_name() {
        let mut r = Registry::new();
        let mut h = LogHistogram::new();
        h.record(100);
        r.merge_hist("lat", &h);
        h.record(300);
        r.merge_hist("lat", &h);
        assert_eq!(r.hist("lat").unwrap().count(), 3);
        assert_eq!(r.hist("lat").unwrap().max(), 300);
        assert!(r.hist("missing").is_none());
    }

    #[test]
    fn series_bins_by_offset() {
        let mut s = Series::new(Duration::from_secs(1));
        s.record(Duration::from_millis(100), 10);
        s.record(Duration::from_millis(900), 20);
        s.record(Duration::from_millis(2_500), 30);
        assert_eq!(s.bins().len(), 3);
        assert_eq!(s.bins()[0].count, 2);
        assert_eq!(s.bins()[1].count, 0, "empty middle bin is materialized");
        assert_eq!(s.bins()[2].count, 1);
        assert_eq!(s.bins()[2].latency.max(), 30);
    }

    #[test]
    #[should_panic(expected = "positive width")]
    fn zero_bin_rejected() {
        let _ = Series::new(Duration::ZERO);
    }
}
