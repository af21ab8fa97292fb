//! The FSA interpreter: runs any [`ProtocolSpec`] from `ptp-model` directly
//! on the simulated network, optionally augmented with timeout and
//! undeliverable-message transitions.
//!
//! This is how the repository executes the paper's published figures
//! *literally*: the 2PC of Fig. 1, the extended 2PC of Fig. 2 (base spec +
//! the Rule (a)/(b) augmentation derived at `n = 2`), the 3PC of Fig. 3 with
//! its naive augmentation (the Sec. 3 counterexample), and all 4096
//! augmentations of Lemma 3's enumeration (experiment E5).
//!
//! Semantics:
//! * Incoming messages are pooled; a transition fires as soon as all the
//!   messages it reads are available (the master's "all yes" reads arrive
//!   one at a time). Of the enabled transitions, the first in spec order
//!   that matches the site's vote fires (a yes voter's first that writes no
//!   "no", a no voter's first that does), else the first enabled one; one
//!   scan over the spec finds it, and it fires borrowed from the spec, so a
//!   transition allocates nothing.
//! * Entering a non-final state (re-)arms the commit-protocol timeout — 2T
//!   for the master, 3T for slaves (Fig. 5).
//! * On timeout or receipt of an undeliverable message, the augmentation's
//!   decision (if any) is applied as a silent local transition to the
//!   commit/abort state, exactly like the dashed transitions of Fig. 2. If
//!   the augmentation assigns nothing, the site notes that it is blocked
//!   and keeps listening (the paper's blocked site: locks held, waiting for
//!   the failure to be repaired). The augmentation is resolved for the
//!   site's role once, at construction, into a table indexed by state.

use crate::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use crate::timing::{MASTER_PROTO_T, SLAVE_PROTO_T};
use ptp_model::{Augmentation, Decision, Msg, ProtocolSpec, Role, StateKind, Transition};
use ptp_simnet::SiteId;
use std::sync::Arc;

/// A site executing a protocol FSA.
pub struct FsaParticipant {
    spec: Arc<ProtocolSpec>,
    site: usize,
    vote: Vote,
    /// The augmentation's `(timeout, undeliverable)` decisions for this
    /// site's role, indexed by state: all `None` without one.
    augmented: Vec<(Option<Decision>, Option<Decision>)>,
    state: usize,
    pool: Vec<Msg>,
    decided: Option<Decision>,
    blocked_noted: bool,
}

impl FsaParticipant {
    /// Creates the participant for `site` of `spec`. `augmentation` adds the
    /// dashed timeout/UD transitions; `None` runs the bare protocol (which
    /// blocks under partition, as 2PC famously does).
    pub fn new(
        spec: Arc<ProtocolSpec>,
        site: usize,
        vote: Vote,
        augmentation: Option<Augmentation>,
    ) -> Self {
        assert!(site < spec.n(), "site out of range");
        let role = spec.role_of(site);
        let augmented = spec.sites[site]
            .states
            .iter()
            .map(|st| {
                augmentation.as_ref().map_or((None, None), |a| {
                    (a.timeout_for(role, &st.name), a.ud_for(role, &st.name))
                })
            })
            .collect();
        FsaParticipant {
            spec,
            site,
            vote,
            augmented,
            state: 0,
            pool: Vec::new(),
            decided: None,
            blocked_noted: false,
        }
    }

    fn role(&self) -> Role {
        self.spec.role_of(self.site)
    }

    fn current_kind(&self) -> StateKind {
        self.spec.sites[self.site].states[self.state].kind
    }

    fn proto_timeout_t(&self) -> u64 {
        match self.role() {
            Role::Master => MASTER_PROTO_T,
            Role::Slave => SLAVE_PROTO_T,
        }
    }

    /// Fires enabled transitions until quiescent.
    fn advance(&mut self, out: &mut Vec<Action>) {
        while !self.current_kind().is_final() {
            // Borrow the spec through its own field, so the pool can change
            // while a transition is read from it.
            let spec = &*self.spec;
            let writes_no =
                |t: &Transition| t.writes.iter().any(|w| spec.kinds[w.kind as usize] == "no");
            // Vote policy picks among alternatives (yes vs no at the slave's
            // initial state); otherwise the first enabled transition fires.
            let mut chosen = None;
            for t in &spec.sites[self.site].transitions {
                if t.from != self.state || !t.enabled_by(&self.pool) {
                    continue;
                }
                if writes_no(t) == (self.vote == Vote::No) {
                    chosen = Some(t);
                    break;
                }
                chosen = chosen.or(Some(t));
            }
            let Some(t) = chosen else { return };
            for r in &t.reads {
                let pos = self.pool.iter().position(|m| m == r).expect("read in pool");
                self.pool.swap_remove(pos);
            }
            for w in &t.writes {
                out.push(Action::Send {
                    to: SiteId(w.dst as u16),
                    msg: CommitMsg::Kind(spec.kinds[w.kind as usize]),
                });
            }
            let to = t.to;
            self.enter(to, out);
        }
    }

    /// Moves to a state, managing the protocol timer and decisions.
    fn enter(&mut self, state: usize, out: &mut Vec<Action>) {
        self.state = state;
        out.push(Action::Note("enter-state", state as u64));
        match self.current_kind() {
            StateKind::Commit => {
                out.push(Action::CancelTimer { tag: TimerTag::Proto });
                self.decided = Some(Decision::Commit);
                out.push(Action::Decide(Decision::Commit));
            }
            StateKind::Abort => {
                out.push(Action::CancelTimer { tag: TimerTag::Proto });
                self.decided = Some(Decision::Abort);
                out.push(Action::Decide(Decision::Abort));
            }
            _ => {
                out.push(Action::SetTimer {
                    t_units: self.proto_timeout_t(),
                    tag: TimerTag::Proto,
                });
            }
        }
    }

    /// Applies an augmentation decision as a silent transition.
    fn jump_to_decision(&mut self, d: Decision, out: &mut Vec<Action>) {
        let target = self.spec.sites[self.site].decision_state(d);
        self.enter(target, out);
    }
}

impl Participant for FsaParticipant {
    fn start(&mut self, out: &mut Vec<Action>) {
        // Arm the initial-state timeout, then fire any spontaneous
        // transitions (the master's q1 -> w1).
        out.push(Action::SetTimer { t_units: self.proto_timeout_t(), tag: TimerTag::Proto });
        self.advance(out);
    }

    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        if self.current_kind().is_final() {
            return;
        }
        let CommitMsg::Kind(kind) = msg else { return };
        self.pool.push(Msg {
            kind: self.spec.kind_index(kind),
            src: from.0 as u8,
            dst: self.site as u8,
        });
        self.advance(out);
    }

    fn on_ud(&mut self, _original_dst: SiteId, _msg: &CommitMsg, out: &mut Vec<Action>) {
        if self.current_kind().is_final() {
            return;
        }
        out.push(Action::Note("ud-received", self.state as u64));
        match self.augmented[self.state].1 {
            Some(d) => self.jump_to_decision(d, out),
            None => {
                if !self.blocked_noted {
                    self.blocked_noted = true;
                    out.push(Action::Note("blocked", self.state as u64));
                }
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        if tag != TimerTag::Proto || self.current_kind().is_final() {
            return;
        }
        out.push(Action::Note("proto-timeout", self.state as u64));
        match self.augmented[self.state].0 {
            Some(d) => self.jump_to_decision(d, out),
            None => {
                if !self.blocked_noted {
                    self.blocked_noted = true;
                    out.push(Action::Note("blocked", self.state as u64));
                }
            }
        }
    }

    fn decision(&self) -> Option<Decision> {
        self.decided
    }

    fn state_name(&self) -> &'static str {
        // Interpreted states have dynamic names; expose the kind instead.
        match self.current_kind() {
            StateKind::Initial => "initial",
            StateKind::Intermediate => "intermediate",
            StateKind::Commit => "commit",
            StateKind::Abort => "abort",
        }
    }

    fn reset(&mut self, vote: Vote) {
        self.vote = vote;
        self.state = 0;
        self.pool.clear();
        self.decided = None;
        self.blocked_noted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_model::protocols::{THREE_PHASE, TWO_PHASE};

    fn drive_to_quiescence(parts: &mut [FsaParticipant]) -> Vec<Option<Decision>> {
        // Simple synchronous message pump (no delays, no partitions):
        // repeatedly deliver all pending sends until nothing moves.
        let mut outboxes: Vec<Vec<(usize, CommitMsg)>> = vec![Vec::new(); parts.len()];
        let mut actions = Vec::new();
        for p in parts.iter_mut() {
            actions.clear();
            p.start(&mut actions);
            collect_sends(p.site, &actions, &mut outboxes);
        }
        for _round in 0..64 {
            let mut moved = false;
            let pending: Vec<Vec<(usize, CommitMsg)>> =
                std::mem::replace(&mut outboxes, vec![Vec::new(); parts.len()]);
            for (dst, inbox) in pending.into_iter().enumerate() {
                for (src, msg) in inbox {
                    moved = true;
                    actions.clear();
                    parts[dst].on_msg(SiteId(src as u16), &msg, &mut actions);
                    let site = parts[dst].site;
                    collect_sends(site, &actions, &mut outboxes);
                }
            }
            if !moved {
                break;
            }
        }
        parts.iter().map(|p| p.decision()).collect()
    }

    fn collect_sends(src: usize, actions: &[Action], outboxes: &mut [Vec<(usize, CommitMsg)>]) {
        for a in actions {
            if let Action::Send { to, msg } = a {
                outboxes[to.index()].push((src, *msg));
            }
        }
    }

    fn participants(spec: ProtocolSpec, votes: &[Vote]) -> Vec<FsaParticipant> {
        let spec = Arc::new(spec);
        (0..spec.n())
            .map(|site| {
                let vote = if site == 0 { Vote::Yes } else { votes[site - 1] };
                FsaParticipant::new(spec.clone(), site, vote, None)
            })
            .collect()
    }

    #[test]
    fn two_pc_all_yes_commits_without_network() {
        let mut parts = participants(TWO_PHASE.spec(3), &[Vote::Yes, Vote::Yes]);
        let decisions = drive_to_quiescence(&mut parts);
        assert!(decisions.iter().all(|d| *d == Some(Decision::Commit)));
    }

    #[test]
    fn two_pc_one_no_aborts() {
        let mut parts = participants(TWO_PHASE.spec(3), &[Vote::No, Vote::Yes]);
        let decisions = drive_to_quiescence(&mut parts);
        assert!(decisions.iter().all(|d| *d == Some(Decision::Abort)));
    }

    #[test]
    fn three_pc_all_yes_commits() {
        let mut parts = participants(THREE_PHASE.spec(4), &[Vote::Yes; 3]);
        let decisions = drive_to_quiescence(&mut parts);
        assert!(decisions.iter().all(|d| *d == Some(Decision::Commit)));
    }

    #[test]
    fn three_pc_mixed_votes_abort() {
        let mut parts = participants(THREE_PHASE.spec(4), &[Vote::Yes, Vote::No, Vote::Yes]);
        let decisions = drive_to_quiescence(&mut parts);
        assert!(decisions.iter().all(|d| *d == Some(Decision::Abort)));
    }

    #[test]
    fn timeout_without_augmentation_blocks() {
        let spec = Arc::new(TWO_PHASE.spec(2));
        let mut p = FsaParticipant::new(spec, 1, Vote::Yes, None);
        let mut out = Vec::new();
        p.start(&mut out);
        out.clear();
        // Deliver xact so the slave votes and waits in w.
        p.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        p.on_timer(TimerTag::Proto, &mut out);
        assert!(out.iter().any(|a| matches!(a, Action::Note("blocked", _))));
        assert_eq!(p.decision(), None);
    }

    #[test]
    fn timeout_with_augmentation_decides() {
        use ptp_model::rules::derive_rules_augmentation;
        let spec = Arc::new(TWO_PHASE.spec(2));
        let aug = derive_rules_augmentation(&spec).augmentation;
        let mut p = FsaParticipant::new(spec, 1, Vote::Yes, Some(aug));
        let mut out = Vec::new();
        p.start(&mut out);
        p.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        // 2PC at n=2: C(w) contains c1, so Rule (a) sends timeout to commit.
        p.on_timer(TimerTag::Proto, &mut out);
        assert_eq!(p.decision(), Some(Decision::Commit));
        assert!(out.iter().any(|a| matches!(a, Action::Decide(Decision::Commit))));
    }

    #[test]
    fn ud_with_augmentation_decides() {
        use ptp_model::rules::derive_rules_augmentation;
        let spec = Arc::new(TWO_PHASE.spec(2));
        let aug = derive_rules_augmentation(&spec).augmentation;
        let mut p = FsaParticipant::new(spec, 1, Vote::Yes, Some(aug));
        let mut out = Vec::new();
        p.start(&mut out);
        p.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        out.clear();
        // The slave's yes bounced: Rule (b) says abort (master times out in
        // w1 and aborts).
        p.on_ud(SiteId(0), &CommitMsg::Kind("yes"), &mut out);
        assert_eq!(p.decision(), Some(Decision::Abort));
    }

    #[test]
    fn messages_after_decision_are_ignored() {
        let spec = Arc::new(TWO_PHASE.spec(2));
        let mut p = FsaParticipant::new(spec, 1, Vote::No, None);
        let mut out = Vec::new();
        p.start(&mut out);
        p.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        assert_eq!(p.decision(), Some(Decision::Abort));
        out.clear();
        p.on_msg(SiteId(0), &CommitMsg::Kind("commit"), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.decision(), Some(Decision::Abort));
    }

    #[test]
    fn master_reads_arrive_out_of_order() {
        // Master must buffer yes votes until all are present.
        let spec = Arc::new(TWO_PHASE.spec(3));
        let mut m = FsaParticipant::new(spec, 0, Vote::Yes, None);
        let mut out = Vec::new();
        m.start(&mut out);
        out.clear();
        m.on_msg(SiteId(2), &CommitMsg::Kind("yes"), &mut out);
        assert_eq!(m.decision(), None, "one yes is not enough");
        m.on_msg(SiteId(1), &CommitMsg::Kind("yes"), &mut out);
        assert_eq!(m.decision(), Some(Decision::Commit));
        // Commit messages went to both slaves.
        let sends: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, Action::Send { msg: CommitMsg::Kind("commit"), .. }))
            .collect();
        assert_eq!(sends.len(), 2);
    }
}
