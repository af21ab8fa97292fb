//! The paper's termination protocol (Secs. 5 and 6), implemented as the
//! generic master–slave engine of Theorem 10 and instantiated for the
//! modified three-phase commit (the paper's protocol) and a four-phase
//! variant.
//!
//! # The protocol (Sec. 5.3)
//!
//! The commit protocol runs in rounds: the master broadcasts a request and
//! collects one reply from every slave. One round's request is the
//! *decisive message* `m` (3PC: `prepare`) — the message that moves slaves
//! from noncommittable to committable states. After the last round the
//! master broadcasts `commit`.
//!
//! Termination behaviour, exactly as specified in Sec. 5.3 (state names in
//! brackets are the 3PC instance):
//!
//! **Master**
//! * `[w1]` pre-decisive round — timeout or UD(xact): broadcast abort.
//! * `[p1]` decisive round — timeout with no undeliverable prepare:
//!   broadcast commit (every slave received `m`, so partition G2 will
//!   commit itself).
//! * `[p1]` on UD(prepare_i): start a 5T collection window; accumulate the
//!   set `UD` of slaves whose prepare bounced and the set `PB` of slaves
//!   that probed. At expiry: if `slaves − UD = PB`, no prepare crossed the
//!   boundary — broadcast abort; otherwise broadcast commit.
//!   (The paper writes `N − UD = PB` with `N = {1..n}` including the
//!   master, but `PB` can only contain slaves, so we implement the evident
//!   intent over the slave set; see ARCHITECTURE.md.)
//! * post-decisive rounds (4PC's `r1`) — timeout or UD: broadcast commit.
//!
//! **Slave**
//! * `[w]` timeout: wait 6T for a commit or abort; on expiry abort (Fig. 7).
//! * `[w]` UD(yes): broadcast abort, abort.
//! * `[p]` timeout: probe the master, then wait. UD(probe) → broadcast
//!   commit (we are in G2 and hold `m`); a commit → commit; an abort →
//!   abort. In the transient-partitioning variant (Sec. 6) also start a 5T
//!   timer and commit on expiry (case 3.2.2.2 is the only case that can
//!   exceed 5T, and there the decision is necessarily commit).
//! * `[p]` UD(ack): broadcast commit, commit.
//! * Fig. 8 modification: a commit is accepted in `w` too (a peer's
//!   broadcast may arrive before this slave ever times out).

use crate::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use crate::timing::{
    MASTER_COLLECT_T, MASTER_PROTO_T, SLAVE_PROTO_T, SLAVE_P_WAIT_T, SLAVE_W_WAIT_T,
};
use ptp_model::Decision;
use ptp_simnet::SiteId;

/// One request/reply round of a master–slave commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// The master's broadcast for this round.
    pub request: &'static str,
    /// The slaves' reply.
    pub reply: &'static str,
}

/// A master–slave commit protocol shape: the rounds, and which round's
/// request is the decisive message `m` of Theorem 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePlan {
    /// Protocol name for traces.
    pub name: &'static str,
    /// The request/reply rounds, in order. After the last round's replies
    /// the master broadcasts `commit`.
    pub rounds: Vec<Round>,
    /// Index of the decisive round (must not be the vote round 0).
    pub decisive: usize,
}

impl PhasePlan {
    /// The modified three-phase commit protocol (Figs. 3 and 8): rounds
    /// `xact/yes`, `prepare/ack`; `prepare` is decisive.
    pub fn three_phase() -> PhasePlan {
        PhasePlan {
            name: "M3PC",
            rounds: vec![
                Round { request: "xact", reply: "yes" },
                Round { request: "prepare", reply: "ack" },
            ],
            decisive: 1,
        }
    }

    /// A four-phase protocol (Theorem 10 exercise): rounds `xact/yes`,
    /// `prepare/ack`, `ready/ack2`; `prepare` is decisive.
    pub fn four_phase() -> PhasePlan {
        PhasePlan {
            name: "4PC",
            rounds: vec![
                Round { request: "xact", reply: "yes" },
                Round { request: "prepare", reply: "ack" },
                Round { request: "ready", reply: "ack2" },
            ],
            decisive: 1,
        }
    }

    fn validate(&self) {
        assert!(self.rounds.len() >= 2, "need a vote round and a decisive round");
        assert!(
            (1..self.rounds.len()).contains(&self.decisive),
            "decisive round must come after the vote round"
        );
    }

    fn round_of_request(&self, kind: &str) -> Option<usize> {
        self.rounds.iter().position(|r| r.request == kind)
    }

    fn round_of_reply(&self, kind: &str) -> Option<usize> {
        self.rounds.iter().position(|r| r.reply == kind)
    }
}

/// The protocol's timer constants in units of `T`. Defaults to the paper's
/// values (Figs. 5–7, 9); the ablation experiments shrink individual
/// constants to demonstrate each bound is necessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolTiming {
    /// Master commit-protocol timeout (paper: 2T).
    pub master_proto: u64,
    /// Slave commit-protocol timeout (paper: 3T).
    pub slave_proto: u64,
    /// Master probe-collection window (paper: 5T).
    pub collect: u64,
    /// Slave wait after timing out in `w` (paper: 6T).
    pub w_wait: u64,
    /// Slave wait after timing out in `p`, transient variant (paper: 5T).
    pub p_wait: u64,
}

impl Default for ProtocolTiming {
    fn default() -> Self {
        ProtocolTiming {
            master_proto: MASTER_PROTO_T,
            slave_proto: SLAVE_PROTO_T,
            collect: MASTER_COLLECT_T,
            w_wait: SLAVE_W_WAIT_T,
            p_wait: SLAVE_P_WAIT_T,
        }
    }
}

/// Whether the slave runs the Sec. 5 protocol (assumes the partition lasts)
/// or the Sec. 6 variant that also survives transient partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TerminationVariant {
    /// Sec. 5: after probing, wait indefinitely for UD(probe)/commit/abort.
    Static,
    /// Sec. 6: additionally commit 5T after timing out in `p` (only case
    /// 3.2.2.2 waits that long, and its outcome is necessarily commit).
    #[default]
    Transient,
}

// ---------------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum MState {
    /// Sent `rounds[k].request`, collecting replies.
    Round(usize),
    /// Sec. 5.3 collection window after UD(prepare).
    Collecting,
    Done(Decision),
}

/// A set of slave ids as a bitmask with a maintained cardinality.
///
/// The master's three sets (`replies`, `UD`, `PB`) sat on the sweep hot
/// path as `BTreeSet<u16>`s — every `insert` a tree walk, every round a
/// `clear`, and the Sec. 5.3 collection decision allocated two fresh sets
/// per run. A bitmask makes all of that branch-free integer arithmetic;
/// [`TerminationMaster::with_timing`] caps clusters at 64 sites to match.
/// Set semantics are preserved exactly (duplicate inserts don't change the
/// cardinality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SlaveSet {
    bits: u64,
    len: u32,
}

impl SlaveSet {
    fn insert(&mut self, site: u16) {
        let bit = 1u64 << site;
        if self.bits & bit == 0 {
            self.bits |= bit;
            self.len += 1;
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn clear(&mut self) {
        self.bits = 0;
        self.len = 0;
    }
}

/// The termination-protocol master (the paper's site 1).
pub struct TerminationMaster {
    plan: PhasePlan,
    n: usize,
    timing: ProtocolTiming,
    state: MState,
    replies: SlaveSet,
    /// Slaves whose decisive message bounced (the paper's `UD`).
    ud: SlaveSet,
    /// Slaves that probed (the paper's `PB`).
    pb: SlaveSet,
    /// All slave ids — precomputed once; `N` in the Sec. 5.3 rule.
    slaves_bits: u64,
    decided: Option<Decision>,
}

impl TerminationMaster {
    /// Master for a cluster of `n` sites (including itself, site 0).
    pub fn new(plan: PhasePlan, n: usize) -> Self {
        Self::with_timing(plan, n, ProtocolTiming::default())
    }

    /// Master with non-default timer constants (ablation experiments).
    pub fn with_timing(plan: PhasePlan, n: usize, timing: ProtocolTiming) -> Self {
        plan.validate();
        assert!(n >= 2);
        assert!(n <= 64, "slave bookkeeping is a 64-bit mask");
        TerminationMaster {
            plan,
            n,
            timing,
            state: MState::Round(0),
            replies: SlaveSet::default(),
            ud: SlaveSet::default(),
            pb: SlaveSet::default(),
            // Bits 1..n — site 0 is the master itself.
            slaves_bits: (u64::MAX >> (64 - n)) & !1,
            decided: None,
        }
    }

    fn decide(&mut self, d: Decision, broadcast: bool, out: &mut Vec<Action>) {
        self.state = MState::Done(d);
        self.decided = Some(d);
        out.push(Action::CancelTimer { tag: TimerTag::Proto });
        out.push(Action::CancelTimer { tag: TimerTag::Collect });
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

    fn begin_round(&mut self, k: usize, out: &mut Vec<Action>) {
        self.state = MState::Round(k);
        self.replies.clear();
        out.push(Action::Note("master-round", k as u64));
        out.push(Action::Broadcast { msg: CommitMsg::Kind(self.plan.rounds[k].request) });
        out.push(Action::SetTimer { t_units: self.timing.master_proto, tag: TimerTag::Proto });
    }
}

impl Participant for TerminationMaster {
    fn start(&mut self, out: &mut Vec<Action>) {
        self.begin_round(0, out);
    }

    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        match (&self.state, msg) {
            (MState::Done(_), _) => {}
            (MState::Round(0), CommitMsg::Kind("no")) => {
                // A unilateral no-vote: abort everyone (Fig. 1's second
                // phase; the no-voter already knows).
                out.push(Action::Note("master-got-no", from.0 as u64));
                self.decide(Decision::Abort, true, out);
            }
            (MState::Round(k), CommitMsg::Kind(kind))
                if self.plan.round_of_reply(kind) == Some(*k) =>
            {
                self.replies.insert(from.0);
                if self.replies.len() == self.n - 1 {
                    if *k + 1 < self.plan.rounds.len() {
                        let next = *k + 1;
                        self.begin_round(next, out);
                    } else {
                        // All rounds complete: commit.
                        self.decide(Decision::Commit, true, out);
                    }
                }
            }
            (MState::Collecting, CommitMsg::Probe { slave }) => {
                // PB := PB + {j}.
                self.pb.insert(*slave);
                out.push(Action::Note("master-probe", *slave as u64));
            }
            (_, CommitMsg::Probe { slave }) => {
                // A probe outside the collection window: the prober either
                // already received our decision broadcast or is about to.
                out.push(Action::Note("master-stray-probe", *slave as u64));
            }
            // Peer decisions and stale replies: the master's own timers
            // subsume them (see module docs); note and ignore.
            (_, CommitMsg::Kind(k)) => {
                let _ = k;
            }
            _ => {}
        }
    }

    fn on_ud(&mut self, original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        let CommitMsg::Kind(kind) = msg else { return };
        let Some(k) = self.plan.round_of_request(kind) else {
            return; // UD of our commit/abort broadcast: already decided.
        };
        match &self.state {
            MState::Done(_) => {}
            MState::Round(cur) if *cur == k && k < self.plan.decisive => {
                // UD(xact_i): no slave can be committable yet — abort all.
                out.push(Action::Note("master-ud-early", original_dst.0 as u64));
                self.decide(Decision::Abort, true, out);
            }
            MState::Round(cur) if *cur == k && k == self.plan.decisive => {
                // UD(prepare_i): enter the Sec. 5.3 collection window.
                // UD := {i}; PB := Ø; reset timer 5T.
                out.push(Action::Note("master-ud-prepare", original_dst.0 as u64));
                self.ud.insert(original_dst.0);
                self.pb.clear();
                self.state = MState::Collecting;
                out.push(Action::CancelTimer { tag: TimerTag::Proto });
                out.push(Action::SetTimer { t_units: self.timing.collect, tag: TimerTag::Collect });
            }
            MState::Round(cur) if *cur == k => {
                // UD of a post-decisive request (4PC's ready): everyone is
                // committable — commit all.
                out.push(Action::Note("master-ud-late", original_dst.0 as u64));
                self.decide(Decision::Commit, true, out);
            }
            MState::Collecting if k == self.plan.decisive => {
                // Another UD(prepare_j): UD := UD + {j}.
                out.push(Action::Note("master-ud-prepare", original_dst.0 as u64));
                self.ud.insert(original_dst.0);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        match (&self.state, tag) {
            (MState::Round(k), TimerTag::Proto) => {
                if *k < self.plan.decisive {
                    // w1 timeout: send abort_1-n.
                    out.push(Action::Note("master-timeout-early", *k as u64));
                    self.decide(Decision::Abort, true, out);
                } else {
                    // p1 (or later) timeout with no undeliverable prepare:
                    // send commit_1-n.
                    out.push(Action::Note("master-timeout-late", *k as u64));
                    self.decide(Decision::Commit, true, out);
                }
            }
            (MState::Collecting, TimerTag::Collect) => {
                // if (N − UD = PB) then abort_1-n else commit_1-n.
                let no_prepare_crossed = self.slaves_bits & !self.ud.bits == self.pb.bits;
                out.push(Action::Note("master-collect-decision", u64::from(!no_prepare_crossed)));
                if no_prepare_crossed {
                    self.decide(Decision::Abort, true, out);
                } else {
                    self.decide(Decision::Commit, true, out);
                }
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        self.decided
    }

    fn state_name(&self) -> &'static str {
        match &self.state {
            MState::Round(0) => "w1",
            MState::Round(_) => "p1",
            MState::Collecting => "p1-collecting",
            MState::Done(Decision::Commit) => "c1",
            MState::Done(Decision::Abort) => "a1",
        }
    }

    fn reset(&mut self, _vote: Vote) {
        // The master has no vote; its plan, size and timing are fixed.
        self.state = MState::Round(0);
        self.replies.clear();
        self.ud.clear();
        self.pb.clear();
        self.decided = None;
    }
}

// ---------------------------------------------------------------------------
// Slave
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    /// Waiting for `rounds[k].request` (k = 0 is `q`; 1..=decisive is `w`;
    /// beyond decisive is `p`) or, after the last round, for `commit`.
    Await(usize),
    /// Timed out pre-decisive: 6T window for a commit/abort (Fig. 7).
    WWaiting,
    /// Timed out at/after decisive: probe sent, waiting for UD(probe),
    /// commit, or abort (Fig. 9).
    Probing,
    Done(Decision),
}

/// The termination-protocol slave (the paper's sites 2..n).
pub struct TerminationSlave {
    plan: PhasePlan,
    me: u16,
    vote: Vote,
    variant: TerminationVariant,
    timing: ProtocolTiming,
    state: SState,
    decided: Option<Decision>,
}

impl TerminationSlave {
    /// Slave `me` (1-based site id within the cluster).
    pub fn new(plan: PhasePlan, me: SiteId, vote: Vote, variant: TerminationVariant) -> Self {
        Self::with_timing(plan, me, vote, variant, ProtocolTiming::default())
    }

    /// Slave with non-default timer constants (ablation experiments).
    pub fn with_timing(
        plan: PhasePlan,
        me: SiteId,
        vote: Vote,
        variant: TerminationVariant,
        timing: ProtocolTiming,
    ) -> Self {
        plan.validate();
        assert!(me.0 >= 1, "site 0 is the master");
        TerminationSlave {
            plan,
            me: me.0,
            vote,
            variant,
            timing,
            state: SState::Await(0),
            decided: None,
        }
    }

    fn decide(&mut self, d: Decision, out: &mut Vec<Action>) {
        self.state = SState::Done(d);
        self.decided = Some(d);
        for tag in [TimerTag::Proto, TimerTag::WWait, TimerTag::PWait] {
            out.push(Action::CancelTimer { tag });
        }
        out.push(Action::Decide(d));
    }
}

impl Participant for TerminationSlave {
    fn start(&mut self, out: &mut Vec<Action>) {
        out.push(Action::SetTimer { t_units: self.timing.slave_proto, tag: TimerTag::Proto });
    }

    fn on_msg(&mut self, _from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        let CommitMsg::Kind(kind) = msg else { return };
        if matches!(self.state, SState::Done(_)) {
            return;
        }
        match *kind {
            "commit" => {
                // Accepted in every waiting state: the base transition in p,
                // the Fig. 8 modification in w, and the termination waits.
                if matches!(self.state, SState::Await(0)) {
                    out.push(Action::Note("slave-unexpected-commit", self.me as u64));
                }
                self.decide(Decision::Commit, out);
            }
            "abort" => {
                self.decide(Decision::Abort, out);
            }
            req => {
                let Some(k) = self.plan.round_of_request(req) else { return };
                let SState::Await(cur) = self.state else {
                    // A request while in a termination wait: stale (see the
                    // module docs timing argument); ignore.
                    out.push(Action::Note("slave-stale-request", k as u64));
                    return;
                };
                if k != cur {
                    return; // duplicate or out-of-order request
                }
                if k == 0 && self.vote == Vote::No {
                    // Unilateral abort: tell the master, decide locally.
                    out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Kind("no") });
                    self.decide(Decision::Abort, out);
                    return;
                }
                out.push(Action::Send {
                    to: SiteId(0),
                    msg: CommitMsg::Kind(self.plan.rounds[k].reply),
                });
                out.push(Action::Note("slave-round", (k + 1) as u64));
                self.state = SState::Await(k + 1);
                out.push(Action::SetTimer {
                    t_units: self.timing.slave_proto,
                    tag: TimerTag::Proto,
                });
            }
        }
    }

    fn on_ud(&mut self, _original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        if matches!(self.state, SState::Done(_)) {
            return;
        }
        match msg {
            CommitMsg::Probe { .. } => {
                // UD(probe): we are in G2 and hold m — commit everyone in
                // our partition (Sec. 5.2 idea 6).
                if matches!(self.state, SState::Probing) {
                    out.push(Action::Note("slave-ud-probe", self.me as u64));
                    out.push(Action::Broadcast { msg: CommitMsg::Kind("commit") });
                    self.decide(Decision::Commit, out);
                }
            }
            CommitMsg::Kind(kind) => {
                if let Some(k) = self.plan.round_of_reply(kind) {
                    if k < self.plan.decisive {
                        // UD(yes_i): send abort_1-n.
                        out.push(Action::Note("slave-ud-vote", self.me as u64));
                        out.push(Action::Broadcast { msg: CommitMsg::Kind("abort") });
                        self.decide(Decision::Abort, out);
                    } else {
                        // UD(ack_i) (or a later reply): send commit_1-n.
                        out.push(Action::Note("slave-ud-ack", self.me as u64));
                        out.push(Action::Broadcast { msg: CommitMsg::Kind("commit") });
                        self.decide(Decision::Commit, out);
                    }
                }
                // UD of our own commit/abort broadcast: ignore.
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        match (self.state, tag) {
            (SState::Await(0), TimerTag::Proto) => {
                // Never received the transaction: nothing voted, abort
                // unilaterally.
                out.push(Action::Note("slave-timeout-q", self.me as u64));
                self.decide(Decision::Abort, out);
            }
            (SState::Await(k), TimerTag::Proto) if k <= self.plan.decisive => {
                // w_i timeout: reset timer 6T and wait for a commit/abort.
                out.push(Action::Note("slave-timeout-w", self.me as u64));
                self.state = SState::WWaiting;
                out.push(Action::SetTimer { t_units: self.timing.w_wait, tag: TimerTag::WWait });
            }
            (SState::Await(_), TimerTag::Proto) => {
                // p_i timeout: probe the master.
                out.push(Action::Note("slave-timeout-p", self.me as u64));
                self.state = SState::Probing;
                out.push(Action::Send { to: SiteId(0), msg: CommitMsg::Probe { slave: self.me } });
                if self.variant == TerminationVariant::Transient {
                    out.push(Action::SetTimer {
                        t_units: self.timing.p_wait,
                        tag: TimerTag::PWait,
                    });
                }
            }
            (SState::WWaiting, TimerTag::WWait) => {
                // 6T expired without a decision: abort (Fig. 7's bound says
                // any commit would have arrived by now).
                out.push(Action::Note("slave-wwait-abort", self.me as u64));
                self.decide(Decision::Abort, out);
            }
            (SState::Probing, TimerTag::PWait) if self.variant == TerminationVariant::Transient => {
                // Sec. 6: only case 3.2.2.2 exceeds 5T, and there every
                // prepare crossed — commit.
                out.push(Action::Note("slave-pwait-commit", self.me as u64));
                self.decide(Decision::Commit, out);
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        self.decided
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            SState::Await(0) => "q",
            SState::Await(k) if k <= self.plan.decisive => "w",
            SState::Await(_) => "p",
            SState::WWaiting => "w-waiting",
            SState::Probing => "probing",
            SState::Done(Decision::Commit) => "c",
            SState::Done(Decision::Abort) => "a",
        }
    }

    fn reset(&mut self, vote: Vote) {
        self.vote = vote;
        self.state = SState::Await(0);
        self.decided = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acts_contain_broadcast(out: &[Action], kind: &str) -> bool {
        out.iter().any(|a| matches!(a, Action::Broadcast { msg: CommitMsg::Kind(k) } if *k == kind))
    }

    #[test]
    fn master_happy_path_3pc() {
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        assert!(acts_contain_broadcast(&out, "xact"));
        assert_eq!(m.state_name(), "w1");

        out.clear();
        m.on_msg(SiteId(1), &CommitMsg::Kind("yes"), &mut out);
        assert!(out.is_empty() || !acts_contain_broadcast(&out, "prepare"));
        m.on_msg(SiteId(2), &CommitMsg::Kind("yes"), &mut out);
        assert!(acts_contain_broadcast(&out, "prepare"));
        assert_eq!(m.state_name(), "p1");

        out.clear();
        m.on_msg(SiteId(1), &CommitMsg::Kind("ack"), &mut out);
        m.on_msg(SiteId(2), &CommitMsg::Kind("ack"), &mut out);
        assert!(acts_contain_broadcast(&out, "commit"));
        assert_eq!(m.decision(), Some(Decision::Commit));
    }

    #[test]
    fn master_aborts_on_no() {
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        out.clear();
        m.on_msg(SiteId(2), &CommitMsg::Kind("no"), &mut out);
        assert!(acts_contain_broadcast(&out, "abort"));
        assert_eq!(m.decision(), Some(Decision::Abort));
    }

    #[test]
    fn master_w1_timeout_aborts() {
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        out.clear();
        m.on_timer(TimerTag::Proto, &mut out);
        assert!(acts_contain_broadcast(&out, "abort"));
        assert_eq!(m.decision(), Some(Decision::Abort));
    }

    #[test]
    fn master_p1_timeout_commits() {
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        m.on_msg(SiteId(1), &CommitMsg::Kind("yes"), &mut out);
        m.on_msg(SiteId(2), &CommitMsg::Kind("yes"), &mut out);
        out.clear();
        m.on_timer(TimerTag::Proto, &mut out);
        assert!(acts_contain_broadcast(&out, "commit"));
        assert_eq!(m.decision(), Some(Decision::Commit));
    }

    #[test]
    fn master_collection_aborts_when_sets_match() {
        // UD = {2}; probe from slave 1 only: slaves − UD = {1} = PB → abort.
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        m.on_msg(SiteId(1), &CommitMsg::Kind("yes"), &mut out);
        m.on_msg(SiteId(2), &CommitMsg::Kind("yes"), &mut out);
        out.clear();
        m.on_ud(SiteId(2), &CommitMsg::Kind("prepare"), &mut out);
        assert_eq!(m.state_name(), "p1-collecting");
        m.on_msg(SiteId(1), &CommitMsg::Probe { slave: 1 }, &mut out);
        out.clear();
        m.on_timer(TimerTag::Collect, &mut out);
        assert!(acts_contain_broadcast(&out, "abort"));
        assert_eq!(m.decision(), Some(Decision::Abort));
    }

    #[test]
    fn master_collection_commits_when_sets_differ() {
        // UD = {2}; no probe from slave 1 (its prepare crossed into G2 and
        // it committed): slaves − UD = {1} ≠ Ø = PB? PB empty → differ →
        // commit. Also the dual: probes from both while UD = {2} → {1} ≠
        // {1,2} → commit.
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 4);
        let mut out = Vec::new();
        m.start(&mut out);
        for s in 1..4 {
            m.on_msg(SiteId(s), &CommitMsg::Kind("yes"), &mut out);
        }
        out.clear();
        m.on_ud(SiteId(3), &CommitMsg::Kind("prepare"), &mut out);
        m.on_msg(SiteId(1), &CommitMsg::Probe { slave: 1 }, &mut out);
        // Slave 2's prepare was delivered across the boundary; it never
        // probes successfully. slaves − UD = {1,2}, PB = {1}.
        out.clear();
        m.on_timer(TimerTag::Collect, &mut out);
        assert!(acts_contain_broadcast(&out, "commit"));
    }

    #[test]
    fn master_ud_xact_aborts() {
        let mut m = TerminationMaster::new(PhasePlan::three_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        out.clear();
        m.on_ud(SiteId(1), &CommitMsg::Kind("xact"), &mut out);
        assert!(acts_contain_broadcast(&out, "abort"));
    }

    #[test]
    fn slave_happy_path_3pc() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        assert_eq!(s.state_name(), "q");
        out.clear();
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Send { to: SiteId(0), msg: CommitMsg::Kind("yes") })));
        assert_eq!(s.state_name(), "w");
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        assert_eq!(s.state_name(), "p");
        s.on_msg(SiteId(0), &CommitMsg::Kind("commit"), &mut out);
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn slave_votes_no() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(2),
            Vote::No,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        out.clear();
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Send { to: SiteId(0), msg: CommitMsg::Kind("no") })));
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn slave_w_timeout_then_6t_abort() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        assert_eq!(s.state_name(), "w-waiting");
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::SetTimer { t_units: 6, tag: TimerTag::WWait })));
        out.clear();
        s.on_timer(TimerTag::WWait, &mut out);
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn slave_w_waiting_accepts_late_commit() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_timer(TimerTag::Proto, &mut out);
        out.clear();
        // Fig. 8's point: a commit from a peer slave is accepted here.
        s.on_msg(SiteId(2), &CommitMsg::Kind("commit"), &mut out);
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn slave_p_timeout_probes_then_ud_probe_commits_and_broadcasts() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(2),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        assert_eq!(s.state_name(), "probing");
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send { to: SiteId(0), msg: CommitMsg::Probe { slave: 2 } }
        )));
        out.clear();
        s.on_ud(SiteId(0), &CommitMsg::Probe { slave: 2 }, &mut out);
        assert!(acts_contain_broadcast(&out, "commit"));
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn slave_ud_yes_broadcasts_abort() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        s.on_ud(SiteId(0), &CommitMsg::Kind("yes"), &mut out);
        assert!(acts_contain_broadcast(&out, "abort"));
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn slave_ud_ack_broadcasts_commit() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        out.clear();
        s.on_ud(SiteId(0), &CommitMsg::Kind("ack"), &mut out);
        assert!(acts_contain_broadcast(&out, "commit"));
        assert_eq!(s.decision(), Some(Decision::Commit));
    }

    #[test]
    fn slave_transient_pwait_commits_statically_waits() {
        for (variant, expect) in [
            (TerminationVariant::Transient, Some(Decision::Commit)),
            (TerminationVariant::Static, None),
        ] {
            let mut s =
                TerminationSlave::new(PhasePlan::three_phase(), SiteId(1), Vote::Yes, variant);
            let mut out = Vec::new();
            s.start(&mut out);
            s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
            s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
            s.on_timer(TimerTag::Proto, &mut out);
            out.clear();
            s.on_timer(TimerTag::PWait, &mut out);
            assert_eq!(s.decision(), expect, "variant {variant:?}");
        }
    }

    #[test]
    fn slave_q_timeout_aborts() {
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        out.clear();
        s.on_timer(TimerTag::Proto, &mut out);
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn slave_probing_accepts_abort() {
        // The master's collection window can end in abort; a probing G1
        // slave must follow it (Sec. 5.3 pseudocode's "receive an abort").
        let mut s = TerminationSlave::new(
            PhasePlan::three_phase(),
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        );
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("prepare"), &mut out);
        s.on_timer(TimerTag::Proto, &mut out);
        out.clear();
        s.on_msg(SiteId(0), &CommitMsg::Kind("abort"), &mut out);
        assert_eq!(s.decision(), Some(Decision::Abort));
    }

    #[test]
    fn four_phase_plan_master_ud_ready_commits() {
        let mut m = TerminationMaster::new(PhasePlan::four_phase(), 3);
        let mut out = Vec::new();
        m.start(&mut out);
        for s in 1..3 {
            m.on_msg(SiteId(s), &CommitMsg::Kind("yes"), &mut out);
        }
        for s in 1..3 {
            m.on_msg(SiteId(s), &CommitMsg::Kind("ack"), &mut out);
        }
        assert_eq!(m.state_name(), "p1");
        out.clear();
        m.on_ud(SiteId(2), &CommitMsg::Kind("ready"), &mut out);
        assert!(acts_contain_broadcast(&out, "commit"));
        assert_eq!(m.decision(), Some(Decision::Commit));
    }

    #[test]
    #[should_panic(expected = "decisive round")]
    fn decisive_zero_rejected() {
        let plan = PhasePlan {
            name: "bad",
            rounds: vec![
                Round { request: "xact", reply: "yes" },
                Round { request: "prepare", reply: "ack" },
            ],
            decisive: 0,
        };
        TerminationMaster::new(plan, 3);
    }
}
