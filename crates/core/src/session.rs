//! Scenario execution: the one way a protocol scenario runs.
//!
//! `Session::new(kind, n)` builds the protocol cluster **once** —
//! enum-dispatched, one flat allocation — and `session.run(&scenario)`
//! resets and reuses it, together with the simulator's event queue, timer
//! slab and the fault plan's group and list buffers, for every subsequent run.
//! The sweep engine runs each worker's grid cells through one session, so
//! the steady-state hot path performs no per-cell cluster construction, no
//! `Box<dyn Participant>` allocation, and no G1/G2 vector rebuilds.
//!
//! A single scenario is `Session::new(kind, scenario.n).run(&scenario)`.
//!
//! Determinism is unaffected: a reused session produces field-identical
//! [`ScenarioResult`]s (outcomes, verdict, trace, report) to a fresh
//! session's first run — the property suite checks this for every
//! [`ProtocolKind`].

use crate::scenario::{ProtocolKind, Scenario};
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::{AnyParticipant, RunOptions, SiteOutcome, Verdict, Vote};
use ptp_simnet::{RunReport, Trace};

/// The result of one scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Atomicity/blocking verdict.
    pub verdict: Verdict,
    /// Per-site outcomes.
    pub outcomes: Vec<SiteOutcome>,
    /// Full network trace (for timing measurements and debugging). Empty
    /// unless the run set [`RunOptions::record`].
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
}

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
    ) -> (Verdict, RunReport) {
        let (_, report) = self.execute(scenario, options);
        (Verdict::judge(self.runner.last_outcomes()), report)
    }

    fn execute(&mut self, scenario: &Scenario, options: &RunOptions) -> (Trace, RunReport) {
        assert_eq!(
            scenario.n, self.n,
            "scenario has {} sites but the session was built for {}",
            scenario.n, self.n
        );
        self.executed += 1;
        self.runner.reset(&scenario.votes);
        scenario.write_faults(self.runner.faults_mut());
        let (_, trace, report) =
            self.runner.run(scenario.net_config(), &scenario.delay, options.record);
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
    use ptp_model::Decision;
    use ptp_simnet::{DelayModel, SiteId};

    /// A fresh session's one run of `scenario`, recorded.
    fn fresh(kind: ProtocolKind, scenario: &Scenario) -> ScenarioResult {
        Session::new(kind, scenario.n).run_with(scenario, &RunOptions::recording())
    }

    #[test]
    fn every_protocol_commits_failure_free() {
        let s = Scenario::new(3);
        for kind in ProtocolKind::ALL {
            assert_eq!(fresh(kind, &s).verdict, Verdict::AllCommit, "{}", kind.name());
        }
    }

    #[test]
    fn every_protocol_aborts_on_no_vote() {
        let s = Scenario::new(3).votes(vec![Vote::Yes, Vote::No]);
        for kind in ProtocolKind::ALL {
            assert_eq!(fresh(kind, &s).verdict, Verdict::AllAbort, "{}", kind.name());
        }
    }

    #[test]
    fn plain_2pc_blocks_under_partition() {
        // Partition strikes while the slaves wait for the decision: the cut
        // slave can never learn it and blocks (the paper's Sec. 1 story).
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        let r = fresh(ProtocolKind::Plain2pc, &s);
        assert!(
            matches!(r.verdict, Verdict::Blocked { .. }),
            "expected blocking, got {:?}",
            r.verdict
        );
    }

    #[test]
    fn huang_li_survives_a_nasty_partition() {
        // Split right as prepares are in flight.
        let s = Scenario::new(4).partition_g2(vec![SiteId(2), SiteId(3)], 2500);
        let r = fresh(ProtocolKind::HuangLi3pc, &s);
        assert!(r.verdict.is_resilient(), "{:?}", r.verdict);
    }

    #[test]
    fn huang_li_decides_commit_when_no_partition_interferes() {
        let r = fresh(ProtocolKind::HuangLi3pc, &Scenario::new(5));
        for o in &r.outcomes {
            assert_eq!(o.decision, Some(Decision::Commit));
        }
    }

    #[test]
    fn counters_mode_matches_recording_mode_on_transient_partition() {
        // Recording a trace must never feed back into protocol
        // behaviour: verdict, per-site outcomes and event counters all
        // match; only the trace itself is withheld.
        let s = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 7500)
            .delay(DelayModel::Uniform { seed: 42, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let recorded = fresh(kind, &s);
            let quiet = Session::new(kind, 4).run(&s);
            assert_eq!(recorded.verdict, quiet.verdict, "{}", kind.name());
            assert_eq!(recorded.outcomes, quiet.outcomes, "{}", kind.name());
            assert_eq!(recorded.report.counters, quiet.report.counters, "{}", kind.name());
            assert_eq!(recorded.report.events, quiet.report.events, "{}", kind.name());
            assert!(!recorded.trace.is_empty(), "{}", kind.name());
            assert!(quiet.trace.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn quorum_minority_blocks() {
        // n=3 majority quorums: the lone slave cut off mid-protocol cannot
        // assemble any quorum and blocks.
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        match fresh(ProtocolKind::QuorumMajority, &s).verdict {
            Verdict::Blocked { ref undecided, .. } => {
                assert_eq!(undecided, &vec![SiteId(2)]);
            }
            ref other => panic!("expected minority blocking, got {other:?}"),
        }
    }

    #[test]
    fn warm_session_matches_a_fresh_one_for_every_kind() {
        let s = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 7500)
            .delay(DelayModel::Uniform { seed: 42, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let mut session = Session::new(kind, 4);
            // Run twice through the same session: the second (warm) run must
            // match a fresh session's first in every field.
            let _ = session.run_with(&s, &RunOptions::recording());
            let warm = session.run_with(&s, &RunOptions::recording());
            let fresh = fresh(kind, &s);
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
            let fresh = Session::new(ProtocolKind::HuangLi3pc, 3).run(s);
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
    fn session_pool_builds_each_cluster_once_and_matches_a_fresh_session() {
        let mut pool = SessionPool::new();
        assert!(pool.is_empty());
        let scenarios = [Scenario::new(3).partition_g2(vec![SiteId(2)], 2500), Scenario::new(3)];
        for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::Plain2pc, ProtocolKind::HuangLi3pc] {
            for s in &scenarios {
                let pooled = pool.session(kind, 3).run(s);
                let fresh = fresh(kind, s);
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
