//! Typed execution options.
//!
//! [`RunOptions`] says how a run is *observed* — whether it records a trace
//! — in a self-describing value that `ptp_core::Session` and the sweeps
//! share ([`crate::runner::ClusterRunner::run`] takes its one bool). What
//! bounds a run is its `NetConfig::max_time` (a scenario's `horizon_t`),
//! and what is *injected* into it is not an option either: it is the run's
//! [`ptp_simnet::FaultPlan`].

/// Typed options for one protocol run.
///
/// The default is the verdict-oriented fast path: no trace.
///
/// ```
/// use ptp_protocols::options::RunOptions;
///
/// assert!(RunOptions::recording().record);
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
}

impl RunOptions {
    /// The default options: no trace, counters only.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Options with full trace recording.
    pub fn recording() -> RunOptions {
        RunOptions { record: true }
    }
}
