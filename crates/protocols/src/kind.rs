//! The protocol roster: which state machine plays site `i` of an `n`-site
//! group, for every protocol the paper compares.
//!
//! [`ProtocolKind`] names a protocol and [`ProtocolKind::builder`] is the one
//! place that constructs its sites. The simulator's sessions
//! ([`ProtocolKind::cluster`]), the database's participant pools (through
//! `ptp_ddb::cluster::CommitProtocol`) and the test suites all mint their
//! sites here, so a protocol means the same state machines everywhere.
//!
//! ```
//! use ptp_protocols::{Participant, ProtocolKind, Vote};
//! use ptp_simnet::SiteId;
//!
//! // One builder serves every group size: a master for a 3-site group, a
//! // slave voting no for a 5-site one.
//! let build = ProtocolKind::HuangLi3pc.builder();
//! assert_eq!(build(SiteId(0), 3, Vote::Yes).state_name(), "w1");
//! assert_eq!(build(SiteId(2), 5, Vote::No).state_name(), "q");
//! // A whole cluster: the master, then one site per slave vote.
//! assert_eq!(ProtocolKind::QuorumMajority.cluster(4, &[Vote::Yes; 3]).len(), 4);
//! ```

use crate::api::Vote;
use crate::dispatch::AnyParticipant;
use crate::interp::FsaParticipant;
use crate::quorum::QuorumSite;
use crate::termination::{TerminationMaster, TerminationSlave, TerminationVariant};
use ptp_model::protocols::{
    ProtocolShape, EXTENDED_TWO_PHASE, FOUR_PHASE, MODIFIED_THREE_PHASE, THREE_PHASE, TWO_PHASE,
};
use ptp_model::rules::derive_rules_augmentation;
use ptp_model::{Augmentation, ProtocolSpec};
use ptp_simnet::SiteId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Mints the participant for site `site` of an `n`-site group voting `vote`;
/// `SiteId(0)` is the group's master, whose vote is ignored.
pub type SiteBuilder = Rc<dyn Fn(SiteId, usize, Vote) -> AnyParticipant>;

/// Which commit protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Fig. 1: plain two-phase commit (no timeout/UD transitions).
    Plain2pc,
    /// Fig. 2: extended 2PC — ack phase plus the Rule (a)/(b) augmentation
    /// derived at `n = 2`.
    Extended2pc,
    /// Fig. 3: plain three-phase commit.
    Plain3pc,
    /// Sec. 3 baseline: 3PC naively augmented by Rule (a)/(b) at the
    /// actual `n`.
    Naive3pc,
    /// The paper's protocol: modified 3PC + termination protocol, Sec. 6
    /// transient variant (the complete protocol).
    HuangLi3pc,
    /// The paper's protocol in the Sec. 5 static variant (assumes the
    /// partition outlasts all affected transactions).
    HuangLi3pcStatic,
    /// Theorem 10: the four-phase protocol with its generated termination
    /// protocol.
    HuangLi4pc,
    /// Skeen 1982 quorum commit with majority quorums.
    QuorumMajority,
}

impl ProtocolKind {
    /// All kinds, for table-driven experiments.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::Plain2pc,
        ProtocolKind::Extended2pc,
        ProtocolKind::Plain3pc,
        ProtocolKind::Naive3pc,
        ProtocolKind::HuangLi3pc,
        ProtocolKind::HuangLi3pcStatic,
        ProtocolKind::HuangLi4pc,
        ProtocolKind::QuorumMajority,
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Plain2pc => "2PC",
            ProtocolKind::Extended2pc => "E2PC",
            ProtocolKind::Plain3pc => "3PC",
            ProtocolKind::Naive3pc => "3PC+rules",
            ProtocolKind::HuangLi3pc => "HL-3PC",
            ProtocolKind::HuangLi3pcStatic => "HL-3PC(static)",
            ProtocolKind::HuangLi4pc => "HL-4PC",
            ProtocolKind::QuorumMajority => "Quorum",
        }
    }

    /// The one constructor of this protocol's sites, for any group size. An
    /// FSA kind derives its spec (and its Rule (a)/(b) augmentation) once
    /// per group size the builder is asked for.
    pub fn builder(self) -> SiteBuilder {
        match self {
            ProtocolKind::Plain2pc => fsa_builder(|n| (TWO_PHASE.spec(n), None)),
            ProtocolKind::Extended2pc => fsa_builder(|n| {
                // Derived at n = 2, where Skeen & Stonebraker proved the rules
                // sufficient, and applied per state name at any n — the
                // protocol the paper's Sec. 3 observation breaks at n = 3.
                let augmentation =
                    derive_rules_augmentation(&EXTENDED_TWO_PHASE.spec(2)).augmentation;
                (EXTENDED_TWO_PHASE.spec(n), Some(augmentation))
            }),
            ProtocolKind::Plain3pc => fsa_builder(|n| (THREE_PHASE.spec(n), None)),
            ProtocolKind::Naive3pc => fsa_builder(|n| {
                let spec = THREE_PHASE.spec(n);
                let augmentation = derive_rules_augmentation(&spec).augmentation;
                (spec, Some(augmentation))
            }),
            ProtocolKind::HuangLi3pc => {
                termination_builder(&MODIFIED_THREE_PHASE, TerminationVariant::Transient)
            }
            ProtocolKind::HuangLi3pcStatic => {
                termination_builder(&MODIFIED_THREE_PHASE, TerminationVariant::Static)
            }
            ProtocolKind::HuangLi4pc => {
                termination_builder(&FOUR_PHASE, TerminationVariant::Transient)
            }
            ProtocolKind::QuorumMajority => {
                Rc::new(|site, n, vote| QuorumSite::new(n, site, vote).into())
            }
        }
    }

    /// A whole `n`-site cluster: the master (site 0), then one slave per
    /// entry of `votes`.
    pub fn cluster(self, n: usize, votes: &[Vote]) -> Vec<AnyParticipant> {
        assert_eq!(votes.len() + 1, n, "one vote per slave");
        let build = self.builder();
        (0..n)
            .map(|i| build(SiteId(i as u16), n, if i == 0 { Vote::Yes } else { votes[i - 1] }))
            .collect()
    }
}

/// An interpreted-FSA builder over `derive(n)`'s spec and augmentation,
/// derived once per group size and shared by every site of that size.
fn fsa_builder(derive: fn(usize) -> (ProtocolSpec, Option<Augmentation>)) -> SiteBuilder {
    let per_size = RefCell::new(BTreeMap::new());
    Rc::new(move |site, n, vote| {
        let mut per_size = per_size.borrow_mut();
        let (spec, augmentation) = per_size.entry(n).or_insert_with(|| {
            let (spec, augmentation) = derive(n);
            (Arc::new(spec), augmentation)
        });
        FsaParticipant::new(spec.clone(), site.index(), vote, augmentation.clone()).into()
    })
}

/// A termination-protocol builder over `shape` (Theorem 10's generic
/// master–slave engine) in the given variant.
fn termination_builder(shape: &'static ProtocolShape, variant: TerminationVariant) -> SiteBuilder {
    Rc::new(move |site, n, vote| {
        if site == SiteId(0) {
            TerminationMaster::new(shape, n).into()
        } else {
            TerminationSlave::new(shape, site, vote, variant).into()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Participant;
    use crate::outcome::Verdict;
    use crate::runner::ClusterRunner;
    use ptp_simnet::{DelayModel, NetConfig};

    fn run_failure_free(kind: ProtocolKind, n: usize, votes: &[Vote]) -> Verdict {
        let mut runner = ClusterRunner::new(kind.cluster(n, votes));
        let (outcomes, _, _) = runner.run(NetConfig::default(), &DelayModel::Fixed(400), false);
        Verdict::judge(outcomes)
    }

    #[test]
    fn protocol_names_unique() {
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
    }

    #[test]
    fn every_kind_commits_failure_free_and_aborts_on_a_no_vote() {
        for kind in ProtocolKind::ALL {
            let cluster = kind.cluster(4, &[Vote::Yes; 3]);
            assert_eq!(cluster.len(), 4, "{}", kind.name());
            assert_eq!(run_failure_free(kind, 4, &[Vote::Yes; 3]), Verdict::AllCommit);
            let no = run_failure_free(kind, 3, &[Vote::Yes, Vote::No]);
            assert_eq!(no, Verdict::AllAbort, "{}", kind.name());
        }
    }

    #[test]
    fn one_builder_serves_every_group_size() {
        // The store runs one protocol at several replica-group sizes through
        // one handle: a site minted for a size matches the cluster of that
        // size site for site, and the builder's vote is the slave's vote.
        for kind in ProtocolKind::ALL {
            let build = kind.builder();
            for n in [2, 5, 3] {
                let cluster = kind.cluster(n, &vec![Vote::Yes; n - 1]);
                for (i, site) in cluster.iter().enumerate() {
                    let minted = build(SiteId(i as u16), n, Vote::Yes);
                    assert_eq!(minted.state_name(), site.state_name(), "{} n={n}", kind.name());
                }
            }
            let mut no = build(SiteId(1), 2, Vote::No);
            let mut yes = build(SiteId(1), 2, Vote::Yes);
            let (mut out_no, mut out_yes) = (Vec::new(), Vec::new());
            for (p, out) in [(&mut no, &mut out_no), (&mut yes, &mut out_yes)] {
                p.start(out);
                p.on_msg(SiteId(0), &crate::CommitMsg::Kind("xact"), out);
            }
            assert_ne!(out_no, out_yes, "{}: the vote reaches the slave", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "one vote per slave")]
    fn cluster_wants_one_vote_per_slave() {
        ProtocolKind::HuangLi3pc.cluster(4, &[Vote::Yes; 2]);
    }
}
