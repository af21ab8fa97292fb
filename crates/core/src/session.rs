//! Reusable scenario-execution sessions.
//!
//! [`Session`] is the workhorse of the redesigned execution API:
//! `Session::new(kind, n)` builds the protocol cluster **once** —
//! enum-dispatched, one flat allocation — and `session.run(&scenario)`
//! resets and reuses it, together with the simulator's event heap, timer
//! slab and the fault plan's group and list buffers, for every subsequent run.
//! The sweep engine runs each worker's grid cells through one session, so
//! the steady-state hot path performs no per-cell cluster construction, no
//! `Box<dyn Participant>` allocation, and no G1/G2 vector rebuilds.
//!
//! Determinism is unaffected: a reused session produces field-identical
//! [`ScenarioResult`]s (outcomes, verdict, trace, report) to fresh one-shot
//! runs — the property suite checks this for every [`ProtocolKind`].

use crate::run::ScenarioResult;
use crate::scenario::{ProtocolKind, Scenario};
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::{AnyParticipant, RunOptions, Verdict, Vote};

/// A reusable execution session: one protocol kind, one cluster size, many
/// scenarios.
///
/// ```
/// use ptp_core::{ProtocolKind, RunOptions, Scenario, Session};
/// use ptp_simnet::SiteId;
///
/// let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
/// for at in [0u64, 1500, 2500, 4500] {
///     let scenario = Scenario::new(4).partition_g2(vec![SiteId(3)], at);
///     let result = session.run(&scenario);
///     assert!(result.verdict.is_resilient(), "t={at}: {:?}", result.verdict);
/// }
/// // Need the full trace? Ask for it per run:
/// let recorded = session.run_with(
///     &Scenario::new(4).partition_g2(vec![SiteId(3)], 2500),
///     &RunOptions::recording(),
/// );
/// assert!(!recorded.trace.is_empty());
/// ```
pub struct Session {
    kind: ProtocolKind,
    n: usize,
    runner: ClusterRunner<AnyParticipant>,
    executed: u64,
}

impl Session {
    /// Builds the cluster for `kind` with `n` sites (site 0 the master).
    /// Votes are supplied per run by each scenario.
    pub fn new(kind: ProtocolKind, n: usize) -> Session {
        assert!(n >= 2);
        let votes = vec![Vote::Yes; n - 1];
        let runner = ClusterRunner::new(kind.cluster(n, &votes));
        Session { kind, n, runner, executed: 0 }
    }

    /// The protocol this session runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The cluster size.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// How many simulations this session has run since it was built. It only
    /// grows. A sweep answers a cell without simulating it when it can prove
    /// the verdict (see [`mod@crate::sweep`]'s execution model), so reading this
    /// before and after a sweep tells how many of the grid's cells were
    /// actually run.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Direct access to the underlying cluster runner (custom participant
    /// inspection or resets between runs).
    pub fn runner_mut(&mut self) -> &mut ClusterRunner<AnyParticipant> {
        &mut self.runner
    }

    /// Switches handler-time profiling on or off for subsequent runs (see
    /// [`ptp_simnet::Profile`]). Off by default; while on, samples
    /// accumulate across runs until [`Session::take_profile`].
    pub fn set_profiling(&mut self, on: bool) {
        self.runner.set_profiling(on);
    }

    /// Drains the profile accumulated since profiling was switched on (or
    /// last drained). Empty unless [`Session::set_profiling`] is on.
    pub fn take_profile(&mut self) -> ptp_simnet::Profile {
        self.runner.take_profile()
    }

    /// Runs `scenario` with default options (no trace, counters only — the
    /// fast path; [`ScenarioResult::trace`] comes back empty). Use
    /// [`Session::run_with`] and [`RunOptions::recording`] when the trace
    /// itself is needed.
    pub fn run(&mut self, scenario: &Scenario) -> ScenarioResult {
        self.run_with(scenario, &RunOptions::new())
    }

    /// Runs `scenario` under typed [`RunOptions`], to the scenario's own
    /// horizon.
    ///
    /// # Panics
    ///
    /// If `scenario.n` differs from the session's cluster size.
    pub fn run_with(&mut self, scenario: &Scenario, options: &RunOptions) -> ScenarioResult {
        let (trace, report) = self.execute(scenario, options);
        let outcomes = self.runner.last_outcomes().to_vec();
        ScenarioResult { verdict: Verdict::judge(&outcomes), outcomes, trace, report }
    }

    /// Runs `scenario` and returns only the verdict — the sweep hot path:
    /// no outcome vector, no trace, nothing cloned.
    pub fn verdict(&mut self, scenario: &Scenario, options: &RunOptions) -> Verdict {
        self.verdict_and_report(scenario, options).0
    }

    /// [`Session::verdict`] with the simulator's report beside it: the sweep
    /// engine reads [`ptp_simnet::RunReport::last_landing`] off it.
    pub(crate) fn verdict_and_report(
        &mut self,
        scenario: &Scenario,
        options: &RunOptions,
    ) -> (Verdict, ptp_simnet::RunReport) {
        let (_, report) = self.execute(scenario, options);
        (Verdict::judge(self.runner.last_outcomes()), report)
    }

    fn execute(
        &mut self,
        scenario: &Scenario,
        options: &RunOptions,
    ) -> (ptp_simnet::Trace, ptp_simnet::RunReport) {
        assert_eq!(
            scenario.n, self.n,
            "scenario has {} sites but the session was built for {}",
            scenario.n, self.n
        );
        self.executed += 1;
        self.runner.reset(&scenario.votes);
        scenario.write_faults(self.runner.faults_mut());
        let (_, trace, report) =
            self.runner.run_borrowed(scenario.net_config(), &scenario.delay, options.record);
        (trace, report)
    }
}

/// A lazily built collection of [`Session`]s keyed by `(kind, n)`.
///
/// Flows that interleave several protocols or cluster sizes — the Sec. 6
/// case classifier, the quorum baseline, protocol-comparison tables — hold
/// one pool and route every run through it, so each distinct cluster is
/// built exactly once for the whole flow instead of once per call site.
///
/// ```
/// use ptp_core::{ProtocolKind, Scenario, SessionPool};
/// use ptp_simnet::SiteId;
///
/// let mut pool = SessionPool::new();
/// for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::QuorumMajority] {
///     for at in [1500u64, 2500] {
///         let scenario = Scenario::new(5).partition_g2(vec![SiteId(4)], at);
///         let result = pool.session(kind, 5).run(&scenario);
///         assert!(result.verdict.is_atomic());
///     }
/// }
/// assert_eq!(pool.len(), 2); // one cluster per kind, reused across runs
/// ```
#[derive(Default)]
pub struct SessionPool {
    sessions: std::collections::BTreeMap<(ProtocolKind, usize), Session>,
}

impl SessionPool {
    /// An empty pool; sessions are built on first request.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// The session for `(kind, n)`, building it on first use.
    pub fn session(&mut self, kind: ProtocolKind, n: usize) -> &mut Session {
        self.sessions.entry((kind, n)).or_insert_with(|| Session::new(kind, n))
    }

    /// Number of distinct clusters built so far.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Has no session been built yet?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;
    use ptp_simnet::{DelayModel, SiteId};

    #[test]
    fn session_matches_one_shot_for_every_kind() {
        let s = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 7500)
            .delay(DelayModel::Uniform { seed: 42, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let mut session = Session::new(kind, 4);
            // Run twice through the same session: the second (warm) run must
            // match the fresh one-shot in every field.
            let _ = session.run_with(&s, &RunOptions::recording());
            let warm = session.run_with(&s, &RunOptions::recording());
            let fresh = run_scenario(kind, &s);
            assert_eq!(warm.verdict, fresh.verdict, "{}", kind.name());
            assert_eq!(warm.outcomes, fresh.outcomes, "{}", kind.name());
            assert_eq!(warm.trace.events(), fresh.trace.events(), "{}", kind.name());
            assert_eq!(warm.report.counters, fresh.report.counters, "{}", kind.name());
            assert_eq!(warm.report.events, fresh.report.events, "{}", kind.name());
        }
    }

    #[test]
    fn session_runs_interleaved_shapes() {
        // Partitioned, clean, multiple, transient — buffer reuse across
        // shape changes must not leak state between runs.
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let partitioned = Scenario::new(3).partition_g2(vec![SiteId(2)], 2500);
        let clean = Scenario::new(3);
        let transient = Scenario::new(3).transient_partition(vec![SiteId(1)], 1000, 9000);
        for s in [&partitioned, &clean, &transient, &clean, &partitioned] {
            let r = session.run(s);
            assert!(r.verdict.is_resilient(), "{:?}", r.verdict);
            let fresh =
                crate::run::run_scenario_opts(ProtocolKind::HuangLi3pc, s, &RunOptions::new());
            assert_eq!(r.verdict, fresh.verdict);
            assert_eq!(r.outcomes, fresh.outcomes);
        }
    }

    #[test]
    fn verdict_path_matches_full_path() {
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        let mut session = Session::new(ProtocolKind::Plain2pc, 3);
        let v = session.verdict(&s, &RunOptions::new());
        let full = session.run(&s);
        assert_eq!(v, full.verdict);
        assert!(matches!(v, Verdict::Blocked { .. }));
    }

    #[test]
    fn default_run_skips_the_trace() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let quiet = session.run(&Scenario::new(3));
        assert!(quiet.trace.is_empty());
        let recorded = session.run_with(&Scenario::new(3), &RunOptions::recording());
        assert!(!recorded.trace.is_empty());
        assert_eq!(quiet.report.counters, recorded.report.counters);
    }

    #[test]
    #[should_panic(expected = "sites")]
    fn wrong_cluster_size_panics() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let _ = session.run(&Scenario::new(4));
    }

    #[test]
    fn session_pool_builds_each_cluster_once_and_matches_one_shot() {
        let mut pool = SessionPool::new();
        assert!(pool.is_empty());
        let scenarios = [Scenario::new(3).partition_g2(vec![SiteId(2)], 2500), Scenario::new(3)];
        for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::Plain2pc, ProtocolKind::HuangLi3pc] {
            for s in &scenarios {
                let pooled = pool.session(kind, 3).run(s);
                let fresh = run_scenario(kind, s);
                assert_eq!(pooled.verdict, fresh.verdict, "{}", kind.name());
                assert_eq!(pooled.outcomes, fresh.outcomes, "{}", kind.name());
            }
        }
        // Two distinct kinds at one size: exactly two clusters ever built.
        assert_eq!(pool.len(), 2);
        let _ = pool.session(ProtocolKind::HuangLi3pc, 4);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn vote_changes_take_effect_across_runs() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let yes = session.run(&Scenario::new(3));
        assert_eq!(yes.verdict, Verdict::AllCommit);
        let no = session.run(&Scenario::new(3).votes(vec![Vote::Yes, Vote::No]));
        assert_eq!(no.verdict, Verdict::AllAbort);
        let yes_again = session.run(&Scenario::new(3));
        assert_eq!(yes_again.verdict, Verdict::AllCommit);
    }
}
