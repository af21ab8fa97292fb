//! A quorum-based commit protocol (after Skeen, "A Quorum-Based Commit
//! Protocol", Berkeley Workshop 1982 — the paper’s reference \[5\]).
//!
//! This is the natural competitor to the Huang–Li termination protocol and
//! experiment E15's baseline. Normal operation is three-phase commit; when a
//! site suspects a partition (timeout or undeliverable message) it runs a
//! quorum termination protocol *within its reachable group*: it collects
//! state reports and
//!
//! * commits if it can see a commit, or at least `Vc` prepared sites;
//! * aborts if it can see an abort, or at least `Va` sites in total;
//! * otherwise **blocks** and retries.
//!
//! With `Vc + Va > n`, at most one of the two partition groups can reach
//! either quorum, so atomicity is preserved — but the minority group blocks
//! until the partition heals. The contrast with the paper's protocol (both
//! groups terminate, Theorem 9) is exactly what E15 measures.
//!
//! ## Hot-path tuning
//!
//! The naive rendition dominated the schedule benchmark: a blocked minority
//! re-armed its collection round every 2T until the horizon, and every round
//! allocated a fresh report map. Event-attribution profiling attributed the
//! bulk of Quorum's wall time to exactly those state-request/report rounds,
//! so the collection machinery is rewritten, all of it behind one
//! [`QuorumTuning`] choice:
//!
//! * **piggyback** — a `state-req` carries the requester's own state class,
//!   and a collecting responder adopts it as a free report when it is
//!   *decisive* (committed/aborted). Decisive adoption is monotone and can
//!   only accelerate the inevitable decision; counting *undecided*
//!   piggybacked classes was tried and rejected — the extra `reachable`
//!   entries let the abort quorum fire in rounds where the timer-resolved
//!   baseline stayed blocked and later committed (the equivalence suite
//!   caught three commit→abort flips, and outright atomicity violations in
//!   combination with early resolution);
//! * **early resolve** — a round resolves the moment a report shows a
//!   *decided* peer instead of sleeping out the 2T collection timer. The
//!   quorum rule adopts a seen decision before anything else, so the early
//!   verdict is the one the timer would have reached. Resolving early on
//!   mere completeness (every request answered or bounced) was tried and
//!   rejected: a blocked resolution then restarts the next round off the
//!   naive 2T grid, and the drifted polls sample multi-episode schedules
//!   at different instants, flipping verdicts;
//! * **precomputed tallies** — reports land in a preallocated per-site
//!   table with running `prepared`/`reachable`/decided tallies, so
//!   resolution is a threshold compare, not a map scan, and rounds
//!   allocate nothing;
//! * **backoff** — the first [`DENSE_RETRIES`] blocked retries re-collect
//!   immediately (the naive cadence, one round per 2T, covering the window
//!   in which any schedule in the sweep grids can still change
//!   connectivity); after that the group re-polls with exponentially
//!   growing spacing (16T, 32T, ... capped at [`RETRY_CAP_T`]) so a
//!   permanently-partitioned minority stops burning simulator events until
//!   the horizon. Because every heal is observed during the dense prefix,
//!   the sparse tail only ever re-confirms an unchanged partition and no
//!   verdict moves.
//!
//! [`QuorumTuning::Baseline`] reproduces the naive behaviour exactly —
//! `tests/quorum_rewrite_equivalence.rs` sweeps both tunings across all
//! four schedule families and pins identical verdict counts.
//!
//! This is a deliberately simplified rendition: Skeen's full protocol has
//! explicit prepare-to-commit/prepare-to-abort buffer states and weighted
//! votes; equal weights and state-report collection preserve the behaviour
//! that matters for the comparison (safety via intersecting quorums,
//! blocking minorities). See ARCHITECTURE.md.

use crate::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use crate::timing::{MASTER_PROTO_T, SLAVE_PROTO_T};
use ptp_model::Decision;
use ptp_simnet::SiteId;

/// Quorum sizes. Safety requires `vc + va > n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumConfig {
    /// Total number of sites (master included).
    pub n: usize,
    /// Commit quorum: prepared sites needed to commit during termination.
    pub vc: usize,
    /// Abort quorum: reachable sites needed to abort during termination.
    pub va: usize,
}

impl QuorumConfig {
    /// Majority quorums: `vc = va = ⌊n/2⌋ + 1`.
    pub fn majority(n: usize) -> QuorumConfig {
        QuorumConfig { n, vc: n / 2 + 1, va: n / 2 + 1 }
    }

    fn validate(&self) {
        assert!(self.n >= 2);
        assert!(self.vc >= 1 && self.va >= 1);
        assert!(self.vc + self.va > self.n, "quorums must intersect: vc + va > n");
    }
}

/// Blocked retries that re-collect *immediately*, exactly like the naive
/// protocol, before exponential spacing kicks in. Partition schedules
/// change connectivity early in a run: a site's first blocked round starts
/// within a couple of `T` of the first episode, and every family in the
/// sweep grids (two-episode shapes included, with the grid's heal axis on
/// top) has settled — changes delivered, in-flight bounces returned —
/// within ~10T of it. Keeping the naive 2T cadence through that window
/// means the backoff can only thin out polls of a permanently unchanged
/// partition, which is what makes it verdict-identical to the baseline.
pub const DENSE_RETRIES: u32 = 4;

/// First spaced blocked-retry wait, in units of `T`. The jump from the
/// dense prefix is deliberately steep: by now the partition has outlived
/// [`DENSE_RETRIES`] prompt polls and nothing in the schedule is still
/// moving, so prompt re-polling buys nothing.
const RETRY_START_T: u64 = 16;

/// Blocked-retry wait cap, in units of `T`. Bounds how often a hopeless
/// minority confirms that nothing has changed before the horizon.
pub const RETRY_CAP_T: u64 = 64;

/// Which collection machinery runs: the naive rendition, or every rewrite
/// of the module docs at once. The equivalence suite checks the two reach
/// identical verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuorumTuning {
    /// The naive protocol: fixed 2T rounds, timer-only resolution,
    /// immediate re-collection while blocked.
    Baseline,
    /// Every rewrite on — what [`crate::ProtocolKind::QuorumMajority`]
    /// builds: decisive piggybacked classes adopted, a round resolved the
    /// moment a report shows a decided peer, exponential spacing between
    /// blocked retries after a dense naive-cadence prefix of
    /// [`DENSE_RETRIES`] rounds.
    #[default]
    Optimized,
}

/// State classes exchanged in quorum termination reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateClass {
    NotPrepared = 0,
    Prepared = 1,
    Committed = 2,
    Aborted = 3,
}

impl StateClass {
    fn encode(self) -> u8 {
        self as u8
    }
    fn decode(raw: u8) -> StateClass {
        match raw {
            1 => StateClass::Prepared,
            2 => StateClass::Committed,
            3 => StateClass::Aborted,
            _ => StateClass::NotPrepared,
        }
    }
}

/// Collected state reports for the current round, with running tallies.
///
/// Replaces the per-round `BTreeMap<u16, StateClass>`: one preallocated
/// slot per site, rounds distinguished by a stamp (so starting a round is
/// O(1), not a reallocation), and the quorum comparisons read maintained
/// counters instead of rescanning. Duplicate reports from one site replace
/// the earlier one, exactly like the map's insert.
#[derive(Debug, Clone)]
struct ReportTally {
    /// Per-site round stamp; a slot holds a current-round report iff its
    /// stamp equals `round`.
    stamps: Vec<u32>,
    classes: Vec<StateClass>,
    round: u32,
    /// Distinct sites reported this round (self included).
    reachable: usize,
    /// Reports in `Prepared` or `Committed`.
    prepared: usize,
    /// Reports in `Committed`.
    committed: usize,
    /// Reports in `Aborted`.
    aborted: usize,
}

impl ReportTally {
    fn new(n: usize) -> ReportTally {
        ReportTally {
            stamps: vec![0; n],
            classes: vec![StateClass::NotPrepared; n],
            round: 0,
            reachable: 0,
            prepared: 0,
            committed: 0,
            aborted: 0,
        }
    }

    /// Starts a fresh, empty round.
    fn begin_round(&mut self) {
        self.round += 1;
        self.reachable = 0;
        self.prepared = 0;
        self.committed = 0;
        self.aborted = 0;
    }

    /// Clears everything, including the stamp epoch (for participant reset).
    fn reset(&mut self) {
        self.stamps.fill(0);
        self.round = 0;
        self.reachable = 0;
        self.prepared = 0;
        self.committed = 0;
        self.aborted = 0;
    }

    fn tally(&mut self, class: StateClass, delta: isize) {
        let bump = |v: &mut usize| *v = v.wrapping_add_signed(delta);
        match class {
            StateClass::NotPrepared => {}
            StateClass::Prepared => bump(&mut self.prepared),
            StateClass::Committed => {
                bump(&mut self.prepared);
                bump(&mut self.committed);
            }
            StateClass::Aborted => bump(&mut self.aborted),
        }
    }

    /// Records `site`'s report for the current round.
    fn insert(&mut self, site: u16, class: StateClass) {
        let i = site as usize;
        if self.stamps[i] == self.round {
            let old = self.classes[i];
            self.tally(old, -1);
        } else {
            self.stamps[i] = self.round;
            self.reachable += 1;
        }
        self.classes[i] = class;
        self.tally(class, 1);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QPhase {
    /// Slave: awaiting xact. Master: never.
    Initial,
    /// Master: collecting yes votes. Slave: voted yes, awaiting prepare.
    Wait,
    /// Prepared: master sent prepares / slave acked one.
    Prepared,
    Done(Decision),
}

/// One site of the quorum-commit protocol (master if `me == 0`).
pub struct QuorumSite {
    cfg: QuorumConfig,
    tuning: QuorumTuning,
    me: u16,
    vote: Vote,
    phase: QPhase,
    /// Master only: replies collected in the current round.
    replies: usize,
    /// Termination: state reports for the current collection round.
    reports: ReportTally,
    /// A collection round is in flight.
    collecting: bool,
    /// Blocked, waiting out a backoff interval before re-collecting.
    retry_wait: bool,
    /// Blocked resolutions so far (drives the dense→exponential ladder of
    /// the backoff tuning).
    retry_round: u32,
    decided: Option<Decision>,
    blocked_noted: bool,
}

impl QuorumSite {
    /// Creates site `me` of a quorum-commit cluster with the default
    /// (optimized) tuning.
    pub fn new(cfg: QuorumConfig, me: SiteId, vote: Vote) -> Self {
        cfg.validate();
        QuorumSite {
            cfg,
            tuning: QuorumTuning::default(),
            me: me.0,
            vote,
            phase: if me.0 == 0 { QPhase::Wait } else { QPhase::Initial },
            replies: 0,
            reports: ReportTally::new(cfg.n),
            collecting: false,
            retry_wait: false,
            retry_round: 0,
            decided: None,
            blocked_noted: false,
        }
    }

    /// Selects the collection-machinery tuning. Configuration, not run
    /// state: it survives [`Participant::reset`]. The equivalence suite
    /// uses this to pit [`QuorumTuning::Baseline`] against the default.
    pub fn set_tuning(&mut self, tuning: QuorumTuning) {
        self.tuning = tuning;
    }

    /// The active tuning.
    pub fn tuning(&self) -> QuorumTuning {
        self.tuning
    }

    fn is_master(&self) -> bool {
        self.me == 0
    }

    fn class(&self) -> StateClass {
        match self.phase {
            QPhase::Initial | QPhase::Wait => StateClass::NotPrepared,
            QPhase::Prepared => StateClass::Prepared,
            QPhase::Done(Decision::Commit) => StateClass::Committed,
            QPhase::Done(Decision::Abort) => StateClass::Aborted,
        }
    }

    fn decide(&mut self, d: Decision, broadcast: bool, out: &mut Vec<Action>) {
        if self.decided.is_some() {
            return;
        }
        self.phase = QPhase::Done(d);
        self.decided = Some(d);
        self.collecting = false;
        self.retry_wait = false;
        out.push(Action::CancelTimer { tag: TimerTag::Proto });
        out.push(Action::CancelTimer { tag: TimerTag::QuorumCollect });
        if broadcast {
            out.push(Action::Broadcast {
                msg: CommitMsg::Kind(match d {
                    Decision::Commit => "commit",
                    Decision::Abort => "abort",
                }),
            });
        }
        out.push(Action::Decide(d));
    }

    /// Enters (or re-enters) the quorum termination protocol.
    fn start_collection(&mut self, out: &mut Vec<Action>) {
        if self.decided.is_some() {
            return;
        }
        self.collecting = true;
        self.retry_wait = false;
        self.reports.begin_round();
        self.reports.insert(self.me, self.class());
        out.push(Action::Note("quorum-collect", self.me as u64));
        out.push(Action::Broadcast { msg: CommitMsg::StateReq { state: self.class().encode() } });
        out.push(Action::CancelTimer { tag: TimerTag::Proto });
        out.push(Action::SetTimer { t_units: 2, tag: TimerTag::QuorumCollect });
    }

    /// Applies the quorum rule over the collected reports.
    fn resolve(&mut self, out: &mut Vec<Action>) {
        if !self.collecting {
            return;
        }
        if self.reports.committed > 0 {
            self.decide(Decision::Commit, true, out);
        } else if self.reports.aborted > 0 {
            self.decide(Decision::Abort, true, out);
        } else if self.reports.prepared >= self.cfg.vc {
            out.push(Action::Note("quorum-commit", self.reports.prepared as u64));
            self.decide(Decision::Commit, true, out);
        } else if self.reports.reachable >= self.cfg.va {
            out.push(Action::Note("quorum-abort", self.reports.reachable as u64));
            self.decide(Decision::Abort, true, out);
        } else {
            // Neither quorum reachable: block and retry (the defining
            // behaviour of quorum termination in the minority group).
            if !self.blocked_noted {
                self.blocked_noted = true;
                out.push(Action::Note("quorum-blocked", self.reports.reachable as u64));
            }
            let round = self.retry_round;
            self.retry_round = self.retry_round.saturating_add(1);
            if self.tuning == QuorumTuning::Optimized && round >= DENSE_RETRIES {
                // The partition has outlived the dense prefix: sleep out an
                // exponentially growing interval before the next poll
                // instead of hammering the (unchanged) partition.
                self.collecting = false;
                self.retry_wait = true;
                let exp = (round - DENSE_RETRIES).min(2);
                let wait = (RETRY_START_T << exp).min(RETRY_CAP_T);
                out.push(Action::SetTimer { t_units: wait, tag: TimerTag::QuorumCollect });
            } else {
                // Naive cadence: re-collect immediately, one round per 2T.
                self.start_collection(out);
            }
        }
    }

    /// Folds one state report into the current round, if one is in flight.
    fn absorb(&mut self, site: u16, class: StateClass, out: &mut Vec<Action>) {
        if !self.collecting {
            return;
        }
        self.reports.insert(site, class);
        let decisive = matches!(class, StateClass::Committed | StateClass::Aborted);
        if self.tuning == QuorumTuning::Optimized && decisive {
            // A decided peer settles the round outright — the quorum rule
            // adopts a seen decision before anything else, so resolving now
            // reaches the same verdict the collection timer would, just
            // without sleeping out the rest of the window. (Resolving early
            // on mere *completeness* — every request answered or bounced —
            // was tried and rejected: a blocked resolution then restarts
            // the next round off the naive 2T grid, and the drifted polls
            // sample multi-episode schedules differently, flipping
            // verdicts.)
            self.resolve(out);
        }
    }
}

impl Participant for QuorumSite {
    fn start(&mut self, out: &mut Vec<Action>) {
        if self.is_master() {
            out.push(Action::Broadcast { msg: CommitMsg::Kind("xact") });
            out.push(Action::SetTimer { t_units: MASTER_PROTO_T, tag: TimerTag::Proto });
        } else {
            out.push(Action::SetTimer { t_units: SLAVE_PROTO_T, tag: TimerTag::Proto });
        }
    }

    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        match msg {
            CommitMsg::StateReq { state } => {
                // Always answer state requests, even after deciding — that
                // is how decisions propagate back after a heal.
                out.push(Action::Send {
                    to: from,
                    msg: CommitMsg::StateRep { state: self.class().encode() },
                });
                if self.tuning == QuorumTuning::Optimized {
                    // Only a *decisive* class may join the tally from
                    // request traffic: adopting a peer's decision is
                    // monotone, but counting undecided classes shifts which
                    // quorum fires first relative to the timer-resolved
                    // baseline — the equivalence suite caught commit↔abort
                    // flips (and, with early resolution, outright atomicity
                    // violations) when every piggybacked class was counted.
                    let class = StateClass::decode(*state);
                    if matches!(class, StateClass::Committed | StateClass::Aborted) {
                        self.absorb(from.0, class, out);
                    }
                }
                return;
            }
            CommitMsg::StateRep { state } => {
                self.absorb(from.0, StateClass::decode(*state), out);
                return;
            }
            _ => {}
        }
        if self.decided.is_some() {
            return;
        }
        let CommitMsg::Kind(kind) = msg else { return };
        match (*kind, self.phase, self.is_master()) {
            ("commit", _, _) => self.decide(Decision::Commit, false, out),
            ("abort", _, _) => self.decide(Decision::Abort, false, out),
            ("no", QPhase::Wait, true) => self.decide(Decision::Abort, true, out),
            ("yes", QPhase::Wait, true) => {
                self.replies += 1;
                if self.replies == self.cfg.n - 1 {
                    self.replies = 0;
                    self.phase = QPhase::Prepared;
                    out.push(Action::Broadcast { msg: CommitMsg::Kind("prepare") });
                    out.push(Action::SetTimer { t_units: MASTER_PROTO_T, tag: TimerTag::Proto });
                }
            }
            ("ack", QPhase::Prepared, true) => {
                self.replies += 1;
                if self.replies == self.cfg.n - 1 {
                    self.decide(Decision::Commit, true, out);
                }
            }
            ("xact", QPhase::Initial, false) => match self.vote {
                Vote::Yes => {
                    self.phase = QPhase::Wait;
                    out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("yes") });
                    out.push(Action::SetTimer { t_units: SLAVE_PROTO_T, tag: TimerTag::Proto });
                }
                Vote::No => {
                    out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("no") });
                    self.decide(Decision::Abort, false, out);
                }
            },
            ("prepare", QPhase::Wait, false) => {
                self.phase = QPhase::Prepared;
                out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("ack") });
                out.push(Action::SetTimer { t_units: SLAVE_PROTO_T, tag: TimerTag::Proto });
            }
            _ => {}
        }
    }

    fn on_ud(&mut self, _original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        match msg {
            // Any bounced protocol message means a partition: run quorum
            // termination (unless it is already running or backing off).
            CommitMsg::Kind(_) if !self.collecting && !self.retry_wait => {
                self.start_collection(out);
            }
            // One of our own state requests bounced: the collection timer
            // resolves the round either way, so nothing to do.
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        match tag {
            TimerTag::Proto if self.decided.is_none() && !self.collecting && !self.retry_wait => {
                self.start_collection(out);
            }
            TimerTag::QuorumCollect => {
                if self.retry_wait {
                    // Backoff interval over: poll the group again.
                    self.retry_wait = false;
                    self.start_collection(out);
                } else {
                    self.resolve(out);
                }
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        self.decided
    }

    fn state_name(&self) -> &'static str {
        match self.phase {
            QPhase::Initial => "q",
            QPhase::Wait => "w",
            QPhase::Prepared => "p",
            QPhase::Done(Decision::Commit) => "c",
            QPhase::Done(Decision::Abort) => "a",
        }
    }

    fn reset(&mut self, vote: Vote) {
        self.vote = if self.is_master() { Vote::Yes } else { vote };
        self.phase = if self.is_master() { QPhase::Wait } else { QPhase::Initial };
        self.replies = 0;
        self.reports.reset();
        self.collecting = false;
        self.retry_wait = false;
        self.retry_round = 0;
        self.decided = None;
        self.blocked_noted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn majority_config() {
        let c = QuorumConfig::majority(5);
        assert_eq!((c.vc, c.va), (3, 3));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "quorums must intersect")]
    fn non_intersecting_quorums_rejected() {
        QuorumConfig { n: 5, vc: 2, va: 2 }.validate();
    }

    #[test]
    fn happy_path_commits() {
        let cfg = QuorumConfig::majority(3);
        let mut m = QuorumSite::new(cfg, SiteId(0), Vote::Yes);
        let mut out = Vec::new();
        m.start(&mut out);
        m.on_msg(SiteId(1), &CommitMsg::Kind("yes"), &mut out);
        m.on_msg(SiteId(2), &CommitMsg::Kind("yes"), &mut out);
        assert_eq!(m.state_name(), "p");
        m.on_msg(SiteId(1), &CommitMsg::Kind("ack"), &mut out);
        m.on_msg(SiteId(2), &CommitMsg::Kind("ack"), &mut out);
        assert_eq!(m.decision(), Some(Decision::Commit));
    }

    #[test]
    fn state_reports_always_answered() {
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        out.clear();
        s.on_msg(SiteId(2), &CommitMsg::StateReq { state: 0 }, &mut out);
        assert!(matches!(
            out[0],
            Action::Send { to: SiteId(2), msg: CommitMsg::StateRep { state: 0 } }
        ));
    }

    #[test]
    fn collection_commits_with_commit_quorum() {
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out); // suspect partition
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: CommitMsg::StateReq { .. } })));
        // One more prepared site (the master) makes Vc = 2.
        s.on_msg(SiteId(0), &CommitMsg::StateRep { state: 1 }, &mut out);
        out.clear();
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn minority_blocks_then_backs_off() {
        let cfg = QuorumConfig::majority(5);
        let mut s = QuorumSite::new(cfg, SiteId(4), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        out.clear();
        // Nobody ever answers: 1 < va=3 and 0 prepared < vc=3 -> blocked.
        // The first DENSE_RETRIES blocked resolutions re-collect
        // immediately, exactly like the naive protocol.
        for _ in 0..DENSE_RETRIES {
            s.on_timer(TimerTag::QuorumCollect, &mut out);
            assert_eq!(s.decision(), None);
            assert!(out
                .iter()
                .any(|a| matches!(a, Action::Broadcast { msg: CommitMsg::StateReq { .. } })));
            out.clear();
        }
        // The partition outlived the dense prefix: the next blocked
        // resolution sleeps instead of re-broadcasting.
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert_eq!(s.decision(), None);
        assert!(!out
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: CommitMsg::StateReq { .. } })));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::SetTimer { t_units: RETRY_START_T, tag: TimerTag::QuorumCollect }
        )));
        // The wait elapses: now the next round's requests go out, and the
        // following blocked resolution waits twice as long.
        out.clear();
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: CommitMsg::StateReq { .. } })));
        out.clear();
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::SetTimer { t_units: 32, tag: TimerTag::QuorumCollect })));
    }

    #[test]
    fn baseline_minority_blocks_and_retries_immediately() {
        let cfg = QuorumConfig::majority(5);
        let mut s = QuorumSite::new(cfg, SiteId(4), Vote::Yes);
        s.set_tuning(QuorumTuning::Baseline);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        out.clear();
        // The naive protocol re-broadcasts back-to-back while blocked.
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert_eq!(s.decision(), None);
        assert!(out.iter().any(|a| matches!(a, Action::Note("quorum-blocked", _))));
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: CommitMsg::StateReq { .. } })));
    }

    #[test]
    fn abort_quorum_aborts_unprepared_group() {
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        s.on_msg(SiteId(2), &CommitMsg::StateRep { state: 0 }, &mut out);
        out.clear();
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        // Two reachable unprepared sites >= va=2 -> abort.
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn adopts_observed_decision() {
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_timer(TimerTag::Proto, &mut out);
        s.on_msg(SiteId(2), &CommitMsg::StateRep { state: 2 }, &mut out);
        // A committed peer settles the round immediately (early resolve) —
        // no need to wait for the collection timer.
        assert_eq!(s.decision(), Some(Decision::Commit));
        let mut out = Vec::new();
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn round_completeness_does_not_short_circuit() {
        // n=3 slave collecting: one reply + one bounce accounts for every
        // request, but the round still waits out the collection timer —
        // resolving blocked-or-undecided rounds early drifts the poll
        // cadence off the naive 2T grid and flips verdicts on
        // multi-episode schedules (see the module docs).
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        s.on_msg(SiteId(2), &CommitMsg::StateRep { state: 0 }, &mut out);
        s.on_ud(SiteId(0), &CommitMsg::StateReq { state: 0 }, &mut out);
        assert_eq!(s.decision(), None, "completeness alone must not resolve");
        // Two reachable (self + site 2) >= va=2 -> abort, at the timer.
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn piggybacked_decisive_class_is_adopted() {
        // A collecting site that *receives* a state-req carrying a decisive
        // class adopts the decision without a round trip of its own.
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        out.clear();
        s.on_msg(
            SiteId(2),
            &CommitMsg::StateReq { state: StateClass::Committed.encode() },
            &mut out,
        );
        // The request is still answered, and the committed class settled
        // the round on the spot (early resolution on a decisive report).
        assert!(matches!(out[0], Action::Send { to: SiteId(2), msg: CommitMsg::StateRep { .. } }));
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn piggybacked_undecided_class_is_ignored() {
        // An *undecided* piggybacked class must not enter the tally: the
        // extra `reachable` entry would let the abort quorum fire in rounds
        // where the timer-resolved baseline stayed blocked.
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        out.clear();
        // Site 2 is collecting too and sends us its request: prepared. If
        // the class were counted, self + site 2 would reach Vc=2 at the
        // timer; instead the round stays one report short and blocks.
        s.on_msg(
            SiteId(2),
            &CommitMsg::StateReq { state: StateClass::Prepared.encode() },
            &mut out,
        );
        out.clear();
        s.on_timer(TimerTag::QuorumCollect, &mut out);
        assert_eq!(s.decision(), None);
        assert!(out.iter().any(|a| matches!(a, Action::Note("quorum-blocked", _))));
    }

    #[test]
    fn tuning_survives_reset() {
        let cfg = QuorumConfig::majority(3);
        let mut s = QuorumSite::new(cfg, SiteId(1), Vote::Yes);
        s.set_tuning(QuorumTuning::Baseline);
        s.reset(Vote::No);
        assert_eq!(s.tuning(), QuorumTuning::Baseline);
    }

    #[test]
    fn report_tally_matches_map_semantics() {
        let mut t = ReportTally::new(4);
        t.begin_round();
        t.insert(0, StateClass::Prepared);
        t.insert(1, StateClass::NotPrepared);
        assert_eq!((t.reachable, t.prepared), (2, 1));
        // Re-reporting replaces, exactly like a map insert.
        t.insert(0, StateClass::Committed);
        assert_eq!((t.reachable, t.prepared, t.committed), (2, 1, 1));
        t.insert(0, StateClass::Aborted);
        assert_eq!((t.reachable, t.prepared, t.committed, t.aborted), (2, 0, 0, 1));
        // A new round empties the tallies without touching allocations.
        t.begin_round();
        assert_eq!((t.reachable, t.prepared, t.committed, t.aborted), (0, 0, 0, 0));
        t.insert(2, StateClass::Prepared);
        assert_eq!((t.reachable, t.prepared), (1, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn state_class_decode_encode_roundtrip(raw in 0u8..=255) {
            let class = StateClass::decode(raw);
            // Canonical encodings round-trip exactly; everything else
            // collapses onto NotPrepared (encoding 0).
            if raw <= 3 {
                prop_assert_eq!(class.encode(), raw);
            } else {
                prop_assert_eq!(class, StateClass::NotPrepared);
                prop_assert_eq!(class.encode(), 0);
            }
            // decode is a retraction: encode(decode(x)) decodes to the
            // same class again.
            prop_assert_eq!(StateClass::decode(class.encode()), class);
        }
    }
}
