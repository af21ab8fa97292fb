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
//!
//! ## Proving before simulating
//!
//! A partition acts only on messages outstanding when it occurs (Lemma 3's
//! set-up; [`ptp_simnet::PartitionEngine::bounce_instant`] ignores every
//! episode with `e.at > delivery_at`). A commit is over within a few `T`,
//! so on a grid that runs partition instants out to `8T` about half the
//! scenarios are the partition-free run over again. The session keeps one
//! rule, here and nowhere else:
//!
//! > If a scenario's first episode starts strictly after `L0`, the latest
//! > instant any message of its own run was scheduled to land
//! > ([`RunReport::last_landing`]), then that run *is* the partition-free
//! > run of its key — everything else the run reads: votes, delay model,
//! > `T`, horizon, [`ptp_simnet::PartitionMode`] and [`RunOptions::record`]
//! > — and it is the run of every scenario with the same key whose first
//! > episode starts after `L0`.
//!
//! Proof. (1) Every send of such a run has `delivery_at <= L0 < at <= e.at`
//! for every episode `e`, so `bounce_instant` answers `None` for each, as it
//! does under an empty schedule: the run is the partition-free run `P`, event
//! for event — the same outcomes, report and trace, since the schedule is
//! read only when a message is routed. (2) A scenario with the same key and
//! first episode at `at' > L0` replays `P` for as long as none of its sends
//! bounces, and every send of `P` has `delivery_at <= L0 < at'`, so none
//! does. (3) Boundary, shape, heal and mode only say what an episode does to
//! a message it reaches; none is reached. ∎
//!
//! The session learns `(L0, verdict, outcomes, report, trace)` per key from
//! the first run it simulates that satisfies the rule — there is no
//! pre-pass and no extra run — and answers later scenarios of the key from
//! it, whichever of [`Session::run`], [`Session::run_with`] and
//! [`Session::verdict`] asks. The bound is strict: a message landing *at*
//! the partition instant bounces. A scenario with site failures,
//! degraded-delay windows or envelope faults always simulates and teaches
//! nothing: the rule speaks of partitions only. The memo holds the
//! [`Session::PARTITION_FREE_RUNS`] most recently learned keys, and
//! [`Session::executed`] counts only the runs actually simulated.

use crate::scenario::{PartitionShape, ProtocolKind, Scenario};
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::{AnyParticipant, RunOptions, SiteOutcome, Verdict, Vote};
use ptp_simnet::{DelayModel, PartitionMode, RunReport, SimTime, Trace};

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
    /// The partition-free runs learned so far, newest first, at most
    /// [`Session::PARTITION_FREE_RUNS`] of them (module docs, "Proving
    /// before simulating").
    partition_free: Vec<PartitionFreeRun>,
}

/// One learned partition-free run: its key (everything the run reads but
/// the partition schedule), its last landing instant `L0` and its result.
struct PartitionFreeRun {
    votes: Vec<Vote>,
    delay: DelayModel,
    t_unit: u64,
    horizon_t: u64,
    mode: PartitionMode,
    record: bool,
    last_landing: SimTime,
    verdict: Verdict,
    outcomes: Vec<SiteOutcome>,
    report: RunReport,
    trace: Trace,
}

impl PartitionFreeRun {
    /// Was this run learned under `scenario`'s key?
    fn has_key_of(&self, scenario: &Scenario, options: &RunOptions) -> bool {
        self.delay == scenario.delay
            && self.votes == scenario.votes
            && self.t_unit == scenario.t_unit
            && self.horizon_t == scenario.horizon_t
            && self.mode == scenario.mode
            && self.record == options.record
    }
}

/// The rule: a schedule whose first episode starts at `first` (`None`: no
/// episode) cannot reach a run whose last message was due to land at
/// `last_landing`. Strictly: a message landing *at* the partition instant
/// bounces.
fn out_of_reach(first: Option<SimTime>, last_landing: SimTime) -> bool {
    first.is_none_or(|at| at > last_landing)
}

/// Does `scenario` inject partitions only? A site failure, a degraded-delay
/// window or an envelope fault is outside what the rule speaks of.
fn partitions_only(scenario: &Scenario) -> bool {
    let faults = &scenario.faults;
    faults.failures.is_empty() && faults.degrades.is_empty() && faults.env_faults.is_empty()
}

/// When `scenario`'s first partition episode starts; `None` if it has none.
fn first_episode(scenario: &Scenario) -> Option<SimTime> {
    match &scenario.partition {
        PartitionShape::Simple { at, .. } => Some(SimTime(*at)),
        PartitionShape::None => scenario.faults.partition.episodes().iter().map(|e| e.at).min(),
    }
}

impl Session {
    /// How many partition-free runs a session remembers: enough for every
    /// `(delay, votes)` pair of `ptp_bench::dense_grid(n)` (5) and of the
    /// Theorem 9 scorecards that share one pooled session (20) at once.
    /// Learning one more forgets the oldest.
    pub const PARTITION_FREE_RUNS: usize = 32;

    /// Builds the cluster for `kind` with `n` sites (site 0 the master).
    /// Votes are supplied per run by each scenario.
    pub fn new(kind: ProtocolKind, n: usize) -> Session {
        assert!(n >= 2);
        let votes = vec![Vote::Yes; n - 1];
        let runner = ClusterRunner::new(kind.cluster(n, &votes));
        Session { kind, n, runner, executed: 0, partition_free: Vec::new() }
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
    /// grows. The session answers a scenario without simulating it when it
    /// can prove the result (module docs, "Proving before simulating"), and
    /// such an answer does not count, so reading this before and after a
    /// sweep tells how many of the grid's cells were actually run.
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
    /// horizon — or, when a partition-free run the session remembers
    /// provably is this run, returns copies of that run's verdict,
    /// outcomes, report and trace without simulating (module docs).
    ///
    /// # Panics
    ///
    /// If `scenario.n` differs from the session's cluster size.
    pub fn run_with(&mut self, scenario: &Scenario, options: &RunOptions) -> ScenarioResult {
        if let Some(run) = self.recall(scenario, options) {
            return ScenarioResult {
                verdict: run.verdict.clone(),
                outcomes: run.outcomes.clone(),
                trace: run.trace.clone(),
                report: run.report,
            };
        }
        let (verdict, trace, report) = self.simulate(scenario, options);
        ScenarioResult { verdict, outcomes: self.runner.last_outcomes().to_vec(), trace, report }
    }

    /// Runs `scenario` and returns only the verdict — the sweep hot path:
    /// no outcome vector, no trace, nothing cloned. Answered from the memo
    /// as [`Session::run_with`] is.
    pub fn verdict(&mut self, scenario: &Scenario, options: &RunOptions) -> Verdict {
        match self.recall(scenario, options) {
            Some(run) => run.verdict.clone(),
            None => self.simulate(scenario, options).0,
        }
    }

    /// The remembered run that provably is `scenario`'s, if any.
    fn recall(&self, scenario: &Scenario, options: &RunOptions) -> Option<&PartitionFreeRun> {
        if !partitions_only(scenario) {
            return None;
        }
        // A key is learned at most once (see `remember`), so the first run
        // of the key is the only one that can answer.
        let run = self.partition_free.iter().find(|run| run.has_key_of(scenario, options))?;
        out_of_reach(first_episode(scenario), run.last_landing).then_some(run)
    }

    /// Simulates `scenario`, and remembers the run when no episode can have
    /// reached it.
    fn simulate(
        &mut self,
        scenario: &Scenario,
        options: &RunOptions,
    ) -> (Verdict, Trace, RunReport) {
        let (trace, report) = self.execute(scenario, options);
        let verdict = Verdict::judge(self.runner.last_outcomes());
        if partitions_only(scenario) && out_of_reach(first_episode(scenario), report.last_landing) {
            // Nothing but partitions, and none reached the run: it cannot
            // have lost or returned a message.
            debug_assert!(
                report.counters.returned == 0 && report.counters.dropped == 0,
                "no episode reached the run, yet {:?}",
                report.counters
            );
            self.remember(scenario, options, &verdict, &trace, report);
        }
        (verdict, trace, report)
    }

    /// Stores the run just simulated at the front, overwriting the oldest
    /// run once the memo is full. An overwrite reuses that run's buffers, so
    /// a warm session learns without allocating.
    fn remember(
        &mut self,
        scenario: &Scenario,
        options: &RunOptions,
        verdict: &Verdict,
        trace: &Trace,
        report: RunReport,
    ) {
        // The key cannot be known yet: a scenario its run did not answer
        // starts no later than that run's last landing, and then so does its
        // own run's, whether or not an episode reached it.
        debug_assert!(!self.partition_free.iter().any(|run| run.has_key_of(scenario, options)));
        let outcomes = self.runner.last_outcomes();
        if self.partition_free.len() < Self::PARTITION_FREE_RUNS {
            self.partition_free.push(PartitionFreeRun {
                votes: scenario.votes.clone(),
                delay: scenario.delay.clone(),
                t_unit: scenario.t_unit,
                horizon_t: scenario.horizon_t,
                mode: scenario.mode,
                record: options.record,
                last_landing: report.last_landing,
                verdict: verdict.clone(),
                outcomes: outcomes.to_vec(),
                report,
                trace: trace.clone(),
            });
        } else {
            let run = self.partition_free.last_mut().expect("the memo is full");
            run.votes.clone_from(&scenario.votes);
            run.delay.clone_from(&scenario.delay);
            (run.t_unit, run.horizon_t, run.mode) =
                (scenario.t_unit, scenario.horizon_t, scenario.mode);
            run.record = options.record;
            run.last_landing = report.last_landing;
            run.verdict.clone_from(verdict);
            run.outcomes.clear();
            run.outcomes.extend_from_slice(outcomes);
            run.report = report;
            run.trace.clone_from(trace);
        }
        self.partition_free.rotate_right(1);
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
    fn a_partition_after_the_last_landing_is_answered_without_simulating() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let clean = session.run(&Scenario::new(3));
        let last_landing = clean.report.last_landing.ticks();
        let late = Scenario::new(3).partition_g2(vec![SiteId(2)], last_landing + 1);
        let answer = session.run(&late);
        assert_eq!(session.executed(), 1, "answered from the partition-free run");
        assert_eq!((&answer.verdict, &answer.outcomes), (&clean.verdict, &clean.outcomes));
        assert_eq!(answer.report.events, clean.report.events);
        assert_eq!(session.verdict(&late, &RunOptions::new()), clean.verdict);
        assert_eq!(session.executed(), 1);
        // Strict: a partition at the last landing bounces that message.
        let _ = session.run(&Scenario::new(3).partition_g2(vec![SiteId(2)], last_landing));
        assert_eq!(session.executed(), 2);
        // Recording is part of the key: the first recorded run simulates,
        // the second is answered, trace and all.
        let recorded = session.run_with(&late, &RunOptions::recording());
        let again = session.run_with(&late, &RunOptions::recording());
        assert_eq!(session.executed(), 3);
        assert!(!again.trace.is_empty());
        assert_eq!(again.trace.events(), recorded.trace.events());
    }

    #[test]
    fn the_memo_forgets_its_oldest_run_beyond_its_bound() {
        let mut session = Session::new(ProtocolKind::Plain2pc, 3);
        let clean = |d: u64| Scenario::new(3).delay(DelayModel::Fixed(d));
        let bound = Session::PARTITION_FREE_RUNS as u64;
        for round in 0..2 {
            for d in 1..=bound {
                let _ = session.run(&clean(d));
            }
            assert_eq!(session.executed(), bound, "round {round}: all remembered");
        }
        // One more key forgets the oldest, and only it, however recently the
        // oldest was asked for.
        let _ = session.run(&clean(1));
        let _ = session.run(&clean(bound + 1));
        let _ = session.run(&clean(2));
        assert_eq!(session.executed(), bound + 1);
        let _ = session.run(&clean(1));
        assert_eq!(session.executed(), bound + 2, "the oldest was forgotten");
        // Re-learning it forgot the next oldest.
        let _ = session.run(&clean(3));
        assert_eq!(session.executed(), bound + 2);
        let _ = session.run(&clean(2));
        assert_eq!(session.executed(), bound + 3);
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
