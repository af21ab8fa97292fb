//! The clusters the roster ([`crate::kind::ProtocolKind`]) does not name.
//!
//! Every protocol kind's sites come from [`ProtocolKind::builder`] /
//! [`ProtocolKind::cluster`]. What is left here is what no kind describes:
//! [`fsa_cluster_any`] interprets any spec under any augmentation (Lemma 3's
//! 4096 of them), [`huang_li_3pc_cluster_with_timing_any`] stretches the
//! paper's timer constants (Fig. 5), and [`huang_li_3pc_cluster`] names the
//! paper's protocol by its termination variant.

use crate::api::Vote;
use crate::dispatch::AnyParticipant;
use crate::interp::FsaParticipant;
use crate::kind::ProtocolKind;
use crate::termination::{ProtocolTiming, TerminationMaster, TerminationSlave, TerminationVariant};
use ptp_model::protocols::MODIFIED_THREE_PHASE;
use ptp_model::{Augmentation, ProtocolSpec};
use ptp_simnet::SiteId;
use std::sync::Arc;

/// A cluster interpreting `spec` with an optional augmentation.
pub fn fsa_cluster_any(
    spec: ProtocolSpec,
    votes: &[Vote],
    augmentation: Option<Augmentation>,
) -> Vec<AnyParticipant> {
    let n = spec.n();
    assert_eq!(votes.len(), n - 1, "one vote per slave");
    let spec = Arc::new(spec);
    (0..n)
        .map(|site| {
            let vote = if site == 0 { Vote::Yes } else { votes[site - 1] };
            FsaParticipant::new(spec.clone(), site, vote, augmentation.clone()).into()
        })
        .collect()
}

/// The paper's protocol (modified 3PC with the termination protocol, in
/// `variant`): the roster's [`ProtocolKind::HuangLi3pc`] or
/// [`ProtocolKind::HuangLi3pcStatic`] cluster.
pub fn huang_li_3pc_cluster(
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
) -> Vec<AnyParticipant> {
    let kind = match variant {
        TerminationVariant::Transient => ProtocolKind::HuangLi3pc,
        TerminationVariant::Static => ProtocolKind::HuangLi3pcStatic,
    };
    kind.cluster(n, votes)
}

/// The paper's protocol with non-default timer constants — used by the
/// timing experiment (E6, `exp fig5`) to show the paper's
/// 2T/3T/5T/6T values are necessary.
pub fn huang_li_3pc_cluster_with_timing_any(
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
    timing: ProtocolTiming,
) -> Vec<AnyParticipant> {
    assert_eq!(votes.len(), n - 1);
    let shape = &MODIFIED_THREE_PHASE;
    let mut parts: Vec<AnyParticipant> =
        vec![TerminationMaster::with_timing(shape, n, timing).into()];
    for (i, &vote) in votes.iter().enumerate() {
        let site = SiteId(i as u16 + 1);
        parts.push(TerminationSlave::with_timing(shape, site, vote, variant, timing).into());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Participant;
    use crate::outcome::{SiteOutcome, Verdict};
    use crate::runner::ClusterRunner;
    use ptp_simnet::{DelayModel, NetConfig, PartitionEngine, PartitionSpec, SimTime, Trace};

    /// One recorded run of `parts` split `{0, 1} | g2` at 2500.
    fn run_split<P: Participant>(
        parts: Vec<P>,
        g2: Vec<SiteId>,
        delay: &DelayModel,
    ) -> (Vec<SiteOutcome>, Trace) {
        let split = PartitionSpec::simple(SimTime(2500), vec![SiteId(0), SiteId(1)], g2);
        let mut runner = ClusterRunner::new(parts);
        runner.faults_mut().partition = PartitionEngine::new(vec![split]);
        let (outcomes, trace, _) = runner.run(NetConfig::default(), delay, true);
        (outcomes.to_vec(), trace)
    }

    #[test]
    fn stretched_timers_and_skewed_links_stay_atomic_under_partition() {
        let generous =
            ProtocolTiming { master_proto: 4, slave_proto: 6, collect: 10, w_wait: 12, p_wait: 10 };
        let skewed = DelayModel::PerLink { links: [((0u16, 1u16), 300u64)].into(), default: 900 };
        for (timing, delay) in [
            (generous, DelayModel::Fixed(1000)),
            (ProtocolTiming::default(), skewed),
            (ProtocolTiming::default(), DelayModel::Uniform { seed: 5, min: 1, max: 1000 }),
        ] {
            let parts = huang_li_3pc_cluster_with_timing_any(
                4,
                &[Vote::Yes; 3],
                TerminationVariant::Transient,
                timing,
            );
            let (outcomes, _) = run_split(parts, vec![SiteId(2), SiteId(3)], &delay);
            assert!(Verdict::judge(&outcomes).is_atomic(), "{timing:?} / {delay:?}");
        }
    }

    #[test]
    fn default_timing_is_the_rosters_cluster() {
        // With the paper's constants the stretched-timer cluster is the
        // roster's HL-3PC, run for run.
        let run = |parts: Vec<AnyParticipant>| {
            run_split(parts, vec![SiteId(2), SiteId(3)], &DelayModel::Fixed(900))
        };
        let votes = [Vote::Yes; 3];
        let timed = run(huang_li_3pc_cluster_with_timing_any(
            4,
            &votes,
            TerminationVariant::Transient,
            ProtocolTiming::default(),
        ));
        let roster = run(ProtocolKind::HuangLi3pc.cluster(4, &votes));
        assert_eq!(timed.0, roster.0);
        assert_eq!(timed.1.events(), roster.1.events());
    }

    #[test]
    fn huang_li_3pc_cluster_is_the_rosters_in_either_variant() {
        let parts = huang_li_3pc_cluster(4, &[Vote::Yes; 3], TerminationVariant::Transient);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].state_name(), "w1");
        assert_eq!(parts[1].state_name(), "q");
        let run = |parts: Vec<AnyParticipant>| {
            run_split(parts, vec![SiteId(2)], &DelayModel::Fixed(900)).0
        };
        for (variant, kind) in [
            (TerminationVariant::Transient, ProtocolKind::HuangLi3pc),
            (TerminationVariant::Static, ProtocolKind::HuangLi3pcStatic),
        ] {
            let named = huang_li_3pc_cluster(3, &[Vote::Yes; 2], variant);
            let roster = kind.cluster(3, &[Vote::Yes; 2]);
            assert_eq!(run(named), run(roster), "{variant:?}");
        }
    }
}
