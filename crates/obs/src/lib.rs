//! `ptp-obs` — observability for the live serving stack.
//!
//! The simulator records a run as a trace (`Option<ptp_simnet::Trace>`)
//! and its handler time as a profile (`Option<ptp_simnet::Profile>`); this
//! crate is the live-stack counterpart, switched by one [`ObsConfig`] so
//! the disabled path costs (almost) nothing:
//!
//! - [`registry`] — a run's latency histograms by name, plus a fixed-bin
//!   [`Series`] sampler so runs report per-second goodput/latency curves;
//! - [`span`] — per-transaction stage boundaries (queue → lock wait →
//!   protocol rounds → commit wait) aggregated into a
//!   (path, fault-phase, stage) attribution table, the instrument that
//!   says *where* a partition's tail latency went;
//! - [`flight`] — a fixed-size ring of recent structured events per node,
//!   dumped as JSON ([`FlightRecorder::render_dump`]) only when an audit
//!   fails, a run fails to drain, or a campaign shrink lands on a
//!   counterexample.
//!
//! [`hist`] holds the shared [`LogHistogram`]/[`LatencySummary`] moved out
//! of `ptp-live`, and [`json`] the hand-rolled JSON / host-fingerprint
//! helpers moved out of `ptp-bench`; both old homes re-export them, so
//! existing paths keep compiling.
//!
//! The crate is std-only (this workspace builds offline) and knows nothing
//! about protocols or sites — the live harness decides what to record and
//! how to classify it.

pub mod flight;
pub mod hist;
pub mod json;
pub mod registry;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder};
pub use hist::{LatencySummary, LogHistogram};
pub use json::{host_class, host_fields, json_escape, nproc};
pub use registry::{Registry, Series, SeriesBin};
pub use span::{
    StageCell, StageTable, TxnSpan, STAGE_COMMIT_WAIT, STAGE_LOCK_WAIT, STAGE_PROTOCOL,
    STAGE_QUEUE, STAGE_ROUNDS, STAGE_SERVE,
};

use std::time::Duration;

/// What the live stack should record. The default ([`ObsConfig::off`]) is
/// the Null path: no spans, no flight recorder, no series — the same
/// policy as a simulator run that keeps no trace and no profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Stamp per-transaction stage spans and build the stage table.
    pub spans: bool,
    /// Per-node flight-recorder capacity in events (0 disables it).
    pub flight_capacity: usize,
    /// Bin width for the completion time series (`None` disables it).
    pub series_bin: Option<Duration>,
}

impl ObsConfig {
    /// Everything off — the near-zero-overhead default.
    pub fn off() -> ObsConfig {
        ObsConfig { spans: false, flight_capacity: 0, series_bin: None }
    }

    /// Everything on at sensible sizes: spans, a 512-event ring per node,
    /// and one-second series bins.
    pub fn recording() -> ObsConfig {
        ObsConfig { spans: true, flight_capacity: 512, series_bin: Some(Duration::from_secs(1)) }
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_null_path() {
        let c = ObsConfig::off();
        assert_eq!(c, ObsConfig::default());
        assert!(!c.spans && c.flight_capacity == 0 && c.series_bin.is_none());
    }

    #[test]
    fn recording_turns_everything_on() {
        let c = ObsConfig::recording();
        assert!(c.spans);
        assert!(c.flight_capacity > 0);
        assert!(c.series_bin.is_some());
    }
}
