//! Enum dispatch over the concrete participant types.
//!
//! Every protocol in this workspace is built from four concrete state
//! machines, so a closed enum covers them all: [`AnyParticipant`] stores the
//! participant inline (a `Vec<AnyParticipant>` is one flat allocation) and
//! forwards each trait method through a `match` whose arms are statically
//! dispatched — no heap allocation per site and no vtable call per event.
//! The `ptp_core::Session` cluster is a
//! [`crate::runner::ClusterRunner`]`<AnyParticipant>`, and the thread
//! runtime (`ptp-livenet`) runs the same vector.

use crate::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use crate::interp::FsaParticipant;
use crate::quorum::QuorumSite;
use crate::termination::{TerminationMaster, TerminationSlave};
use ptp_model::Decision;
use ptp_simnet::SiteId;

/// One site of any protocol in the suite, dispatched by enum instead of
/// vtable.
#[allow(clippy::large_enum_variant)] // sized by the largest machine; still one flat Vec
pub enum AnyParticipant {
    /// An interpreted FSA site (2PC, E2PC, 3PC, Lemma 3 augmentations).
    Fsa(FsaParticipant),
    /// The termination-protocol master.
    Master(TerminationMaster),
    /// A termination-protocol slave.
    Slave(TerminationSlave),
    /// A quorum-commit site (Skeen 1982 baseline).
    Quorum(QuorumSite),
}

macro_rules! each {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyParticipant::Fsa($p) => $body,
            AnyParticipant::Master($p) => $body,
            AnyParticipant::Slave($p) => $body,
            AnyParticipant::Quorum($p) => $body,
        }
    };
}

impl Participant for AnyParticipant {
    fn start(&mut self, out: &mut Vec<Action>) {
        each!(self, p => p.start(out))
    }
    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        each!(self, p => p.on_msg(from, msg, out))
    }
    fn on_ud(&mut self, original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        each!(self, p => p.on_ud(original_dst, msg, out))
    }
    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        each!(self, p => p.on_timer(tag, out))
    }
    fn decision(&self) -> Option<Decision> {
        each!(self, p => p.decision())
    }
    fn state_name(&self) -> &'static str {
        each!(self, p => p.state_name())
    }
    fn reset(&mut self, vote: Vote) {
        each!(self, p => p.reset(vote))
    }
}

impl From<FsaParticipant> for AnyParticipant {
    fn from(p: FsaParticipant) -> AnyParticipant {
        AnyParticipant::Fsa(p)
    }
}
impl From<TerminationMaster> for AnyParticipant {
    fn from(p: TerminationMaster) -> AnyParticipant {
        AnyParticipant::Master(p)
    }
}
impl From<TerminationSlave> for AnyParticipant {
    fn from(p: TerminationSlave) -> AnyParticipant {
        AnyParticipant::Slave(p)
    }
}
impl From<QuorumSite> for AnyParticipant {
    fn from(p: QuorumSite) -> AnyParticipant {
        AnyParticipant::Quorum(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termination::TerminationVariant;
    use ptp_model::protocols::MODIFIED_THREE_PHASE;

    #[test]
    fn enum_forwards_to_inner_machine() {
        let mut s: AnyParticipant = TerminationSlave::new(
            &MODIFIED_THREE_PHASE,
            SiteId(1),
            Vote::Yes,
            TerminationVariant::Transient,
        )
        .into();
        assert_eq!(s.state_name(), "q");
        let mut out = Vec::new();
        s.start(&mut out);
        s.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        assert_eq!(s.state_name(), "w");
        s.reset(Vote::No);
        assert_eq!(s.state_name(), "q");
        assert_eq!(s.decision(), None);
    }
}
