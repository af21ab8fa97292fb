//! Quorum hot-path rewrite equivalence.
//!
//! The Quorum collection machinery was rewritten for speed (piggybacked
//! state reports, early round resolution, incremental tallies, exponential
//! blocked-retry backoff — see `crates/protocols/src/quorum.rs`). Only the
//! rewritten machine ships. The naive protocol it replaced lives here, as
//! [`NaiveQuorum`], the oracle beside its check:
//!
//! 1. across **all four schedule families** of the `multi_partition`
//!    experiment's grid (`ptp_bench::paper::family_grid`), the shipped Quorum and the oracle reach the same
//!    verdict on every cell, and both match the counts frozen in the
//!    committed `BENCH_schedule.json`;
//! 2. a permanently-partitioned minority still blocks, but with a
//!    **bounded** number of collection rounds (the retry-storm regression
//!    test) — the oracle polls an order of magnitude more often.

#[path = "common/grid.rs"]
mod grid;

use grid::scenario_of;
use ptp_bench::paper::family_grid;
use ptp_core::model::Decision;
use ptp_core::protocols::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use ptp_core::protocols::runner::ClusterRunner;
use ptp_core::protocols::timing::{MASTER_PROTO_T, SLAVE_PROTO_T};
use ptp_core::protocols::Verdict;
use ptp_core::{sweep_with_session, ProtocolKind, RunOptions, Scenario, ScheduleShape, Session};
use ptp_simnet::{SiteId, Trace};
use std::collections::BTreeMap;

const N: usize = 4;

/// State classes on the wire, encoded as the shipped machine encodes them.
const NOT_PREPARED: u8 = 0;
const PREPARED: u8 = 1;
const COMMITTED: u8 = 2;
const ABORTED: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Slave: awaiting xact. Master: never.
    Initial,
    /// Master: collecting yes votes. Slave: voted yes, awaiting prepare.
    Wait,
    /// Master sent prepares / slave acked one.
    Prepared,
    Done(Decision),
}

/// The naive quorum-commit site: three-phase commit, then quorum
/// termination in fixed 2T rounds, resolved only by the collection timer,
/// and re-collected immediately while blocked. Every round collects into a
/// fresh map of reports.
struct NaiveQuorum {
    /// Total number of sites (master included).
    n: usize,
    /// Commit quorum: prepared sites needed to commit during termination.
    vc: usize,
    /// Abort quorum: reachable sites needed to abort during termination.
    va: usize,
    me: u16,
    vote: Vote,
    phase: Phase,
    /// Master only: who replied this round.
    replies: Vec<u16>,
    /// This round's reports, by site.
    reports: BTreeMap<u16, u8>,
    collecting: bool,
    blocked_noted: bool,
}

impl NaiveQuorum {
    fn cluster(n: usize) -> Vec<NaiveQuorum> {
        let majority = n / 2 + 1;
        (0..n as u16)
            .map(|me| NaiveQuorum {
                n,
                vc: majority,
                va: majority,
                me,
                vote: Vote::Yes,
                phase: if me == 0 { Phase::Wait } else { Phase::Initial },
                replies: Vec::new(),
                reports: BTreeMap::new(),
                collecting: false,
                blocked_noted: false,
            })
            .collect()
    }

    fn is_master(&self) -> bool {
        self.me == 0
    }

    fn class(&self) -> u8 {
        match self.phase {
            Phase::Initial | Phase::Wait => NOT_PREPARED,
            Phase::Prepared => PREPARED,
            Phase::Done(Decision::Commit) => COMMITTED,
            Phase::Done(Decision::Abort) => ABORTED,
        }
    }

    fn decide(&mut self, d: Decision, broadcast: bool, out: &mut Vec<Action>) {
        if matches!(self.phase, Phase::Done(_)) {
            return;
        }
        self.phase = Phase::Done(d);
        self.collecting = false;
        out.push(Action::CancelTimer { tag: TimerTag::Proto });
        out.push(Action::CancelTimer { tag: TimerTag::QuorumCollect });
        if broadcast {
            let kind = if d == Decision::Commit { "commit" } else { "abort" };
            out.push(Action::Broadcast { msg: CommitMsg::Kind(kind) });
        }
        out.push(Action::Decide(d));
    }

    fn start_collection(&mut self, out: &mut Vec<Action>) {
        if matches!(self.phase, Phase::Done(_)) {
            return;
        }
        self.collecting = true;
        self.reports = BTreeMap::from([(self.me, self.class())]);
        out.push(Action::Note("quorum-collect", self.me as u64));
        out.push(Action::Broadcast { msg: CommitMsg::StateReq { state: self.class() } });
        out.push(Action::CancelTimer { tag: TimerTag::Proto });
        out.push(Action::SetTimer { t_units: 2, tag: TimerTag::QuorumCollect });
    }

    /// The quorum rule over this round's reports, at the collection timer.
    fn resolve(&mut self, out: &mut Vec<Action>) {
        if !self.collecting {
            return;
        }
        let count = |classes: &[u8]| self.reports.values().filter(|c| classes.contains(c)).count();
        let prepared = count(&[PREPARED, COMMITTED]);
        let reachable = self.reports.len();
        if count(&[COMMITTED]) > 0 {
            self.decide(Decision::Commit, true, out);
        } else if count(&[ABORTED]) > 0 {
            self.decide(Decision::Abort, true, out);
        } else if prepared >= self.vc {
            out.push(Action::Note("quorum-commit", prepared as u64));
            self.decide(Decision::Commit, true, out);
        } else if reachable >= self.va {
            out.push(Action::Note("quorum-abort", reachable as u64));
            self.decide(Decision::Abort, true, out);
        } else {
            if !self.blocked_noted {
                self.blocked_noted = true;
                out.push(Action::Note("quorum-blocked", reachable as u64));
            }
            self.start_collection(out);
        }
    }

    /// Counts `from`'s reply once, and says whether every slave has replied.
    fn replied(&mut self, from: SiteId) -> bool {
        if !self.replies.contains(&from.0) {
            self.replies.push(from.0);
        }
        self.replies.len() == self.n - 1
    }
}

impl Participant for NaiveQuorum {
    fn start(&mut self, out: &mut Vec<Action>) {
        if self.is_master() {
            out.push(Action::Broadcast { msg: CommitMsg::Kind("xact") });
            out.push(Action::SetTimer { t_units: MASTER_PROTO_T, tag: TimerTag::Proto });
        } else {
            out.push(Action::SetTimer { t_units: SLAVE_PROTO_T, tag: TimerTag::Proto });
        }
    }

    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        match *msg {
            CommitMsg::StateReq { .. } => {
                let state = self.class();
                out.push(Action::Send { to: from, msg: CommitMsg::StateRep { state } });
                return;
            }
            CommitMsg::StateRep { state } => {
                if self.collecting {
                    self.reports.insert(from.0, state);
                }
                return;
            }
            _ => {}
        }
        let CommitMsg::Kind(kind) = *msg else { return };
        if matches!(self.phase, Phase::Done(_)) {
            return;
        }
        match (kind, self.phase, self.is_master()) {
            ("commit", _, _) => self.decide(Decision::Commit, false, out),
            ("abort", _, _) => self.decide(Decision::Abort, false, out),
            ("no", Phase::Wait, true) => self.decide(Decision::Abort, true, out),
            ("yes", Phase::Wait, true) if self.replied(from) => {
                self.replies.clear();
                self.phase = Phase::Prepared;
                out.push(Action::Broadcast { msg: CommitMsg::Kind("prepare") });
                out.push(Action::SetTimer { t_units: MASTER_PROTO_T, tag: TimerTag::Proto });
            }
            ("ack", Phase::Prepared, true) if self.replied(from) => {
                self.decide(Decision::Commit, true, out);
            }
            ("xact", Phase::Initial, false) => match self.vote {
                Vote::Yes => {
                    self.phase = Phase::Wait;
                    out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("yes") });
                    out.push(Action::SetTimer { t_units: SLAVE_PROTO_T, tag: TimerTag::Proto });
                }
                Vote::No => {
                    out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("no") });
                    self.decide(Decision::Abort, false, out);
                }
            },
            ("prepare", Phase::Wait, false) => {
                self.phase = Phase::Prepared;
                out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("ack") });
                out.push(Action::SetTimer { t_units: SLAVE_PROTO_T, tag: TimerTag::Proto });
            }
            _ => {}
        }
    }

    fn on_ud(&mut self, _original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        // A bounced protocol message means a partition; a bounced state
        // request changes nothing, the collection timer resolves the round.
        if matches!(msg, CommitMsg::Kind(_)) && !self.collecting {
            self.start_collection(out);
        }
    }

    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        match tag {
            TimerTag::Proto if !self.collecting => self.start_collection(out),
            TimerTag::QuorumCollect => self.resolve(out),
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        match self.phase {
            Phase::Done(d) => Some(d),
            _ => None,
        }
    }

    fn state_name(&self) -> &'static str {
        match self.phase {
            Phase::Initial => "q",
            Phase::Wait => "w",
            Phase::Prepared => "p",
            Phase::Done(Decision::Commit) => "c",
            Phase::Done(Decision::Abort) => "a",
        }
    }

    fn reset(&mut self, vote: Vote) {
        self.vote = if self.is_master() { Vote::Yes } else { vote };
        self.phase = if self.is_master() { Phase::Wait } else { Phase::Initial };
        self.replies.clear();
        self.reports.clear();
        self.collecting = false;
        self.blocked_noted = false;
    }
}

/// Runs `scenario` through the oracle cluster, as `Session` runs a
/// scenario through the shipped one.
fn run_naive(
    runner: &mut ClusterRunner<NaiveQuorum>,
    scenario: &Scenario,
    record: bool,
) -> (Verdict, Trace) {
    runner.reset(&scenario.votes);
    scenario.write_faults(runner.faults_mut());
    let (outcomes, trace, _) = runner.run(scenario.net_config(), &scenario.delay, record);
    (Verdict::judge(outcomes), trace)
}

/// `(all_commit, all_abort, blocked, inconsistent)` of a list of verdicts.
fn verdict_counts(verdicts: &[Verdict]) -> (usize, usize, usize, usize) {
    let count = |f: fn(&Verdict) -> bool| verdicts.iter().filter(|v| f(v)).count();
    (
        count(|v| *v == Verdict::AllCommit),
        count(|v| *v == Verdict::AllAbort),
        count(|v| matches!(v, Verdict::Blocked { .. })),
        count(|v| matches!(v, Verdict::Inconsistent { .. })),
    )
}

#[test]
fn optimized_tuning_is_verdict_identical_to_baseline_on_every_family() {
    // Verdict counts frozen from the committed BENCH_schedule.json Quorum
    // rows (all_commit, all_abort, blocked, inconsistent), in
    // ScheduleShape::FAMILIES order. The oracle must reproduce them (it *is*
    // the seed protocol), the shipped machine must match it cell for cell,
    // and the sweep engine must fold the shipped machine's cells to them.
    let seed_counts = [
        (827, 191, 368, 0), // simple
        (835, 199, 352, 0), // split-heal-resplit
        (810, 191, 385, 0), // multi-way
        (810, 191, 385, 0), // nested-secession
    ];
    let mut session = Session::new(ProtocolKind::QuorumMajority, N);
    let mut naive = ClusterRunner::new(NaiveQuorum::cluster(N));
    for (shape, seed) in ScheduleShape::FAMILIES.iter().zip(seed_counts) {
        let grid = family_grid(*shape);
        let mut oracle = Vec::with_capacity(grid.size());
        for index in 0..grid.size() {
            let spec = grid.scenario(index);
            let scenario = scenario_of(&grid, &spec);
            let (expected, _) = run_naive(&mut naive, &scenario, false);
            let shipped = session.verdict(&scenario, &RunOptions::new());
            assert_eq!(shipped, expected, "{} cell {index}: {spec:?}", shape.name());
            oracle.push(expected);
        }
        assert_eq!(
            verdict_counts(&oracle),
            seed,
            "the naive oracle drifted from the committed seed counts on {}",
            shape.name()
        );
        let swept = sweep_with_session(&mut session, &grid);
        assert_eq!(swept.total, grid.size(), "{}", shape.name());
        let swept =
            (swept.all_commit, swept.all_abort, swept.blocked_count, swept.inconsistent_count);
        assert_eq!(swept, seed, "the sweep of {}", shape.name());
    }
}

#[test]
fn blocked_minority_reaches_blocked_in_a_bounded_number_of_rounds() {
    // {0,1,2} | {3} forever: the majority terminates by quorum, site 3
    // blocks. The backoff rewrite must keep its polling bounded over the
    // default 200T horizon instead of one round every 2T until the end.
    let scenario = Scenario::new(N).partition_g2(vec![SiteId(3)], 1500);
    let mut session = Session::new(ProtocolKind::QuorumMajority, N);
    let result = session.run_with(&scenario, &RunOptions::recording());

    assert!(matches!(result.verdict, Verdict::Blocked { .. }), "{:?}", result.verdict);
    for site in 0..3 {
        assert!(result.outcomes[site].decision.is_some(), "majority site {site} must terminate");
    }
    assert!(result.outcomes[3].decision.is_none(), "minority site must block");

    let rounds = |trace: &Trace| {
        trace.notes("quorum-collect").filter(|(_, site, _)| *site == SiteId(3)).count()
    };
    let minority_rounds = rounds(&result.trace);
    assert!(
        (2..=20).contains(&minority_rounds),
        "expected a handful of backed-off collection rounds, got {minority_rounds}"
    );

    // The oracle on the same scenario: an unbounded back-to-back retry
    // loop to the horizon. The shipped machine polls identically through
    // the dense prefix (that is what keeps verdicts pinned), so the savings
    // all come from the exponential tail — still a multiple of the total,
    // pinning that the rewrite removed the storm rather than the scenario
    // being easy.
    let mut naive = ClusterRunner::new(NaiveQuorum::cluster(N));
    let (naive_verdict, naive_trace) = run_naive(&mut naive, &scenario, true);
    assert_eq!(naive_verdict, result.verdict);
    let naive_rounds = rounds(&naive_trace);
    assert!(
        naive_rounds >= 3 * minority_rounds,
        "the oracle polled {naive_rounds} rounds vs the shipped machine's {minority_rounds}"
    );
}
