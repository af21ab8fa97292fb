//! Typed execution options.
//!
//! [`RunOptions`] says how a run is *observed and bounded* — trace
//! retention, horizon — in a self-describing builder that the whole stack
//! ([`crate::runner::ClusterRunner`], `ptp_core::Session`, `run_scenario`,
//! `sweep`) shares. What is *injected* into a run is not an option: it is
//! the run's [`ptp_simnet::FaultPlan`].

use ptp_simnet::{NetConfig, SimTime, TraceSink};

/// What the simulator should retain about a run's events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record the full [`ptp_simnet::Trace`] — required by the timing
    /// experiments (Figs. 5–7, 9) and the Sec. 6 case classifier.
    Record,
    /// Keep only the per-category [`ptp_simnet::TraceCounters`] (always
    /// maintained): the verdict, outcomes and report are identical to a
    /// recorded run, but no per-event allocation happens. This is the sweep
    /// hot path and the default.
    #[default]
    Counters,
}

impl TraceMode {
    /// True when a full trace will be recorded.
    pub fn records(self) -> bool {
        matches!(self, TraceMode::Record)
    }

    /// The corresponding simulator sink.
    pub(crate) fn sink(self) -> TraceSink {
        match self {
            TraceMode::Record => TraceSink::recording(),
            TraceMode::Counters => TraceSink::Null,
        }
    }
}

/// Typed options for one protocol run.
///
/// The default is the verdict-oriented fast path: counters-only tracing,
/// the caller's horizon. Build variations fluently:
///
/// ```
/// use ptp_protocols::options::{RunOptions, TraceMode};
///
/// let opts = RunOptions::recording().horizon_t(50);
/// assert!(opts.trace.records());
/// assert_eq!(opts.horizon_t, Some(50));
/// assert!(RunOptions::default().trace == TraceMode::Counters);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Trace retention mode.
    pub trace: TraceMode,
    /// Horizon override in units of `T`; `None` keeps the configured
    /// horizon.
    pub horizon_t: Option<u64>,
}

impl RunOptions {
    /// The default options: counters-only tracing.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Options with full trace recording.
    pub fn recording() -> RunOptions {
        RunOptions::default().trace(TraceMode::Record)
    }

    /// Sets the trace mode.
    pub fn trace(mut self, trace: TraceMode) -> RunOptions {
        self.trace = trace;
        self
    }

    /// Overrides the simulation horizon to `horizon_t * T`.
    pub fn horizon_t(mut self, horizon_t: u64) -> RunOptions {
        self.horizon_t = Some(horizon_t);
        self
    }

    /// Applies the horizon override to a network configuration.
    pub fn apply_horizon(&self, mut config: NetConfig) -> NetConfig {
        if let Some(h) = self.horizon_t {
            config.max_time = SimTime(config.t_unit.saturating_mul(h));
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn default_is_counters_only() {
        let o = RunOptions::default();
        assert_eq!(o.trace, TraceMode::Counters);
        assert!(!o.trace.records());
        assert_eq!(o.horizon_t, None);
    }

    #[test]
    fn builder_composes() {
        let o = RunOptions::new().trace(TraceMode::Record).horizon_t(7);
        assert!(o.trace.records());
        assert_eq!(o.horizon_t, Some(7));
    }

    #[test]
    fn horizon_override_rewrites_max_time() {
        let cfg = NetConfig { t_unit: 1000, ..NetConfig::default() };
        let out = RunOptions::new().horizon_t(3).apply_horizon(cfg);
        assert_eq!(out.max_time, SimTime(3000));
        let unchanged = RunOptions::new().apply_horizon(cfg);
        assert_eq!(unchanged.max_time, cfg.max_time);
    }
}
