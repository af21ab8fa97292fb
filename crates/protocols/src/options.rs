//! Typed execution options.
//!
//! [`RunOptions`] says how a run is *observed and bounded* — whether it
//! records a trace, its horizon — in a self-describing builder that the
//! whole stack ([`crate::runner::ClusterRunner`], `ptp_core::Session`,
//! `run_scenario`, `sweep`) shares. What is *injected* into a run is not an option: it is
//! the run's [`ptp_simnet::FaultPlan`].

use ptp_simnet::{NetConfig, SimTime};

/// Typed options for one protocol run.
///
/// The default is the verdict-oriented fast path: no trace, the caller's
/// horizon. Build variations fluently:
///
/// ```
/// use ptp_protocols::options::RunOptions;
///
/// let opts = RunOptions::recording().horizon_t(50);
/// assert!(opts.record);
/// assert_eq!(opts.horizon_t, Some(50));
/// assert!(!RunOptions::default().record);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Record the full [`ptp_simnet::Trace`] — required by the timing
    /// experiments (Figs. 5–7, 9) and the Sec. 6 case classifier. Off, the
    /// run keeps only the per-category [`ptp_simnet::TraceCounters`]
    /// (always maintained): the verdict, outcomes and report are identical
    /// to a recorded run, but no per-event allocation happens. Off is the
    /// sweep hot path and the default.
    pub record: bool,
    /// Horizon override in units of `T`; `None` keeps the configured
    /// horizon.
    pub horizon_t: Option<u64>,
}

impl RunOptions {
    /// The default options: no trace, counters only.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Options with full trace recording.
    pub fn recording() -> RunOptions {
        RunOptions { record: true, ..RunOptions::default() }
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
        assert!(!o.record);
        assert_eq!(o.horizon_t, None);
    }

    #[test]
    fn builder_composes() {
        let o = RunOptions::recording().horizon_t(7);
        assert!(o.record);
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
