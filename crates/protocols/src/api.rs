//! The sans-IO participant interface.
//!
//! Protocol logic is written as pure state machines that consume events and
//! emit [`Action`]s; the [`crate::runner`] wires them to `ptp-simnet`. This
//! keeps every protocol unit-testable without a network and lets the ddb
//! crate embed the same state machines under its own message multiplexing.

use ptp_model::Decision;
use ptp_simnet::{Payload, SiteId};

/// Messages exchanged by the commit protocols in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMsg {
    /// A protocol message identified by its kind tag (`"xact"`, `"yes"`,
    /// `"prepare"`, `"ack"`, `"ready"`, `"ack2"`, `"commit"`, `"abort"`, ...).
    /// Addressing lives in the envelope; commit protocols never need more
    /// payload than the kind.
    Kind(&'static str),
    /// The termination protocol's probe: `probe(trans_id, slave_id)`
    /// (Sec. 5.3). The transaction id is implicit (one transaction per
    /// simulation; `ptp-ddb` multiplexes by wrapping), the slave id is in
    /// the envelope source; the variant still carries it for fidelity with
    /// the paper's message format.
    Probe {
        /// The probing slave.
        slave: u16,
    },
    /// Quorum-termination state request (Skeen 1982 baseline). Carries the
    /// requester's own state class so responders already collecting can
    /// absorb it as a free report (piggybacking); the baseline tuning
    /// ignores the field.
    StateReq {
        /// Encoded local state class of the *requester*.
        state: u8,
    },
    /// Quorum-termination state report: the responder's current local state
    /// class (see [`crate::quorum`]).
    StateRep {
        /// Encoded local state class.
        state: u8,
    },
}

impl Payload for CommitMsg {
    fn kind(&self) -> &'static str {
        match self {
            CommitMsg::Kind(k) => k,
            CommitMsg::Probe { .. } => "probe",
            CommitMsg::StateReq { .. } => "state-req",
            CommitMsg::StateRep { .. } => "state-rep",
        }
    }
}

/// Timer tags used by the protocol state machines. All durations are integer
/// multiples of `T` (Figs. 5, 6, 7, 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerTag {
    /// The commit-protocol timeout: 2T at the master, 3T at slaves (Fig. 5).
    Proto,
    /// Slave's 6T wait after timing out in `w` (Fig. 7).
    WWait,
    /// Master's 5T probe-collection window after the first UD(prepare)
    /// (Fig. 6).
    Collect,
    /// Slave's 5T wait after timing out in `p` (Fig. 9 / Sec. 6).
    PWait,
    /// Quorum baseline: state-collection window.
    QuorumCollect,
}

impl TimerTag {
    /// Number of distinct tags — sizes the runner's per-site timer table.
    pub const COUNT: usize = 5;

    /// Dense index in `0..TimerTag::COUNT`.
    pub fn index(self) -> usize {
        (self.encode() - 1) as usize
    }

    /// Stable encoding for the simulator's `u64` timer tags.
    pub fn encode(self) -> u64 {
        match self {
            TimerTag::Proto => 1,
            TimerTag::WWait => 2,
            TimerTag::Collect => 3,
            TimerTag::PWait => 4,
            TimerTag::QuorumCollect => 5,
        }
    }

    /// Inverse of [`TimerTag::encode`].
    pub fn decode(raw: u64) -> Option<TimerTag> {
        Some(match raw {
            1 => TimerTag::Proto,
            2 => TimerTag::WWait,
            3 => TimerTag::Collect,
            4 => TimerTag::PWait,
            5 => TimerTag::QuorumCollect,
            _ => return None,
        })
    }
}

/// An effect requested by a participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a message to one site.
    Send {
        /// Destination.
        to: SiteId,
        /// Message.
        msg: CommitMsg,
    },
    /// Send a message to every *other* participating site — the paper's
    /// `commit_1-n` / `abort_1-n` broadcasts.
    Broadcast {
        /// Message.
        msg: CommitMsg,
    },
    /// Arm (or re-arm: an existing timer with the same tag is cancelled) a
    /// timer for `t_units * T`.
    SetTimer {
        /// Duration in units of `T`.
        t_units: u64,
        /// Which timer.
        tag: TimerTag,
    },
    /// Cancel the timer with this tag, if armed.
    CancelTimer {
        /// Which timer.
        tag: TimerTag,
    },
    /// Record the site's final decision. At most one per site per run.
    Decide(Decision),
    /// Trace annotation (state transitions; timing experiments key off
    /// these).
    Note(&'static str, u64),
}

/// A protocol participant: one site's state machine.
///
/// `Send` so the same state machines run both on the single-threaded
/// simulator and on `ptp-livenet`'s one-thread-per-site runtime.
pub trait Participant: Send {
    /// Called once at simulation start.
    fn start(&mut self, out: &mut Vec<Action>);

    /// A message arrived from `from`.
    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>);

    /// One of this site's messages to `original_dst` came back undeliverable.
    fn on_ud(&mut self, original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>);

    /// A timer fired.
    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>);

    /// The participant's decision so far, if any (used by tests; the runner
    /// records decisions from [`Action::Decide`]).
    fn decision(&self) -> Option<Decision>;

    /// Short, stable name of the current local state (for traces and the
    /// quorum baseline's state reports).
    fn state_name(&self) -> &'static str;

    /// Re-initialises the participant for a fresh run with the given vote,
    /// keeping its configuration (protocol spec, timing, quorum sizes, site
    /// identity) and — wherever possible — its heap allocations.
    ///
    /// Contract: after `reset`, the participant must behave exactly like a
    /// freshly constructed one with the same configuration and `vote`.
    /// Masters have no vote of their own and ignore the argument. This is
    /// what lets a `ptp_core::Session` build each state machine once and
    /// replay thousands of grid cells through it.
    fn reset(&mut self, vote: Vote);
}

/// Boxed participants delegate, so heterogeneous `Box<dyn Participant>`
/// clusters keep working wherever a `P: Participant` is expected.
impl Participant for Box<dyn Participant> {
    fn start(&mut self, out: &mut Vec<Action>) {
        (**self).start(out);
    }
    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        (**self).on_msg(from, msg, out);
    }
    fn on_ud(&mut self, original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        (**self).on_ud(original_dst, msg, out);
    }
    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        (**self).on_timer(tag, out);
    }
    fn decision(&self) -> Option<Decision> {
        (**self).decision()
    }
    fn state_name(&self) -> &'static str {
        (**self).state_name()
    }
    fn reset(&mut self, vote: Vote) {
        (**self).reset(vote);
    }
}

/// How a slave votes when the transaction arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Vote {
    /// Vote to commit (send `yes`).
    #[default]
    Yes,
    /// Unilaterally abort (send `no`).
    No,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_kinds() {
        assert_eq!(CommitMsg::Kind("prepare").kind(), "prepare");
        assert_eq!(CommitMsg::Probe { slave: 2 }.kind(), "probe");
        assert_eq!(CommitMsg::StateReq { state: 0 }.kind(), "state-req");
        assert_eq!(CommitMsg::StateRep { state: 1 }.kind(), "state-rep");
    }

    #[test]
    fn timer_tag_roundtrip() {
        for tag in [
            TimerTag::Proto,
            TimerTag::WWait,
            TimerTag::Collect,
            TimerTag::PWait,
            TimerTag::QuorumCollect,
        ] {
            assert_eq!(TimerTag::decode(tag.encode()), Some(tag));
            // COUNT sizes the runner's dense timer table; a tag whose
            // index falls outside it would panic at runtime.
            assert!(tag.index() < TimerTag::COUNT, "{tag:?} index out of table");
        }
        assert_eq!(TimerTag::decode(0), None);
        assert_eq!(TimerTag::decode(99), None);
        // Every index in 0..COUNT is covered by exactly one tag.
        let mut seen = [false; TimerTag::COUNT];
        for raw in 1..=TimerTag::COUNT as u64 {
            let tag = TimerTag::decode(raw).expect("dense encoding");
            assert!(!seen[tag.index()]);
            seen[tag.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn default_vote_is_yes() {
        assert_eq!(Vote::default(), Vote::Yes);
    }
}
