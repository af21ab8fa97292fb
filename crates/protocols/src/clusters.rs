//! Convenience constructors: full clusters (master + slaves) for every
//! protocol in the suite.
//!
//! The `*_cluster_any` constructors return [`Vec<AnyParticipant>`] — one
//! flat allocation, enum-dispatched — and are what
//! [`crate::runner::ClusterRunner`] / `ptp_core::Session` consume.
//! [`huang_li_3pc_cluster`] is the one boxed form left, for embeddings that
//! want trait objects (`ptp-livenet`'s protocol harness).

use crate::api::{Participant, Vote};
use crate::dispatch::AnyParticipant;
use crate::interp::FsaParticipant;
use crate::termination::{
    PhasePlan, ProtocolTiming, TerminationMaster, TerminationSlave, TerminationVariant,
};
use ptp_model::protocols::{extended_two_phase, three_phase, two_phase};
use ptp_model::rules::derive_rules_augmentation;
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

/// Fig. 1: plain 2PC with no timeout/UD transitions — blocks under
/// partition and even under a silent master stop.
pub fn plain_2pc_cluster_any(n: usize, votes: &[Vote]) -> Vec<AnyParticipant> {
    fsa_cluster_any(two_phase(n), votes, None)
}

/// Fig. 2: extended 2PC. The base protocol is 2PC with a decision-ack
/// phase; the timeout/UD augmentation is derived by Rule (a)/(b) **at
/// `n = 2`** (where Skeen & Stonebraker proved the rules sufficient) and
/// applied per state name at any `n` — exactly the protocol the paper's
/// Sec. 3 observation breaks at `n = 3`.
pub fn extended_2pc_cluster_any(n: usize, votes: &[Vote]) -> Vec<AnyParticipant> {
    let augmentation = derive_rules_augmentation(&extended_two_phase(2)).augmentation;
    fsa_cluster_any(extended_two_phase(n), votes, Some(augmentation))
}

/// The Sec. 3 "naive" baseline: 3PC augmented with Rule (a)/(b) timeout and
/// UD transitions derived at the *actual* `n` — still not resilient
/// (Lemma 3), as experiments E3/E5 demonstrate.
pub fn naive_augmented_3pc_cluster_any(n: usize, votes: &[Vote]) -> Vec<AnyParticipant> {
    let spec = three_phase(n);
    let augmentation = derive_rules_augmentation(&spec).augmentation;
    fsa_cluster_any(spec, votes, Some(augmentation))
}

/// Fig. 3: plain 3PC (no termination protocol) — nonblocking for site
/// failures but not partition-resilient.
pub fn plain_3pc_cluster_any(n: usize, votes: &[Vote]) -> Vec<AnyParticipant> {
    fsa_cluster_any(three_phase(n), votes, None)
}

/// The paper's protocol: modified 3PC (Fig. 8) with the Huang–Li
/// termination protocol (Sec. 5.3), in the chosen variant.
pub fn huang_li_3pc_cluster_any(
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
) -> Vec<AnyParticipant> {
    termination_cluster_any(&PhasePlan::three_phase(), n, votes, variant)
}

/// Boxed form of [`huang_li_3pc_cluster_any`].
pub fn huang_li_3pc_cluster(
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
) -> Vec<Box<dyn Participant>> {
    huang_li_3pc_cluster_any(n, votes, variant).into_iter().map(AnyParticipant::boxed).collect()
}

/// Theorem 10 exercise: the four-phase protocol with its generated
/// termination protocol.
pub fn huang_li_4pc_cluster_any(
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
) -> Vec<AnyParticipant> {
    termination_cluster_any(&PhasePlan::four_phase(), n, votes, variant)
}

/// Builds a full cluster (master + `n - 1` slaves) running the termination
/// protocol over `plan`.
pub fn termination_cluster_any(
    plan: &PhasePlan,
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
) -> Vec<AnyParticipant> {
    assert_eq!(votes.len(), n - 1, "one vote per slave");
    let mut parts: Vec<AnyParticipant> = vec![TerminationMaster::new(plan.clone(), n).into()];
    for (i, &vote) in votes.iter().enumerate() {
        parts.push(TerminationSlave::new(plan.clone(), SiteId(i as u16 + 1), vote, variant).into());
    }
    parts
}

/// The paper's protocol with non-default timer constants — used by the
/// timing experiment (E6, `exp_fig5_timeouts`) to show the paper's
/// 2T/3T/5T/6T values are necessary.
pub fn huang_li_3pc_cluster_with_timing_any(
    n: usize,
    votes: &[Vote],
    variant: TerminationVariant,
    timing: ProtocolTiming,
) -> Vec<AnyParticipant> {
    assert_eq!(votes.len(), n - 1);
    let plan = PhasePlan::three_phase();
    let mut parts: Vec<AnyParticipant> =
        vec![TerminationMaster::with_timing(plan.clone(), n, timing).into()];
    for (i, &vote) in votes.iter().enumerate() {
        parts.push(
            TerminationSlave::with_timing(
                plan.clone(),
                SiteId(i as u16 + 1),
                vote,
                variant,
                timing,
            )
            .into(),
        );
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Verdict;
    use crate::runner::run_protocol;
    use ptp_simnet::{DelayModel, NetConfig, PartitionEngine};

    fn run_failure_free(parts: Vec<AnyParticipant>) -> Verdict {
        let run = run_protocol(
            parts,
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(400),
        );
        Verdict::judge(&run.outcomes)
    }

    #[test]
    fn every_cluster_commits_failure_free() {
        let n = 4;
        let votes = [Vote::Yes; 3];
        assert_eq!(run_failure_free(plain_2pc_cluster_any(n, &votes)), Verdict::AllCommit);
        assert_eq!(run_failure_free(extended_2pc_cluster_any(n, &votes)), Verdict::AllCommit);
        assert_eq!(
            run_failure_free(naive_augmented_3pc_cluster_any(n, &votes)),
            Verdict::AllCommit
        );
        assert_eq!(run_failure_free(plain_3pc_cluster_any(n, &votes)), Verdict::AllCommit);
        assert_eq!(
            run_failure_free(huang_li_3pc_cluster_any(n, &votes, TerminationVariant::Transient)),
            Verdict::AllCommit
        );
        assert_eq!(
            run_failure_free(huang_li_4pc_cluster_any(n, &votes, TerminationVariant::Transient)),
            Verdict::AllCommit
        );
    }

    #[test]
    fn every_cluster_aborts_on_a_no_vote() {
        let n = 3;
        let votes = [Vote::Yes, Vote::No];
        assert_eq!(run_failure_free(plain_2pc_cluster_any(n, &votes)), Verdict::AllAbort);
        assert_eq!(run_failure_free(extended_2pc_cluster_any(n, &votes)), Verdict::AllAbort);
        assert_eq!(run_failure_free(plain_3pc_cluster_any(n, &votes)), Verdict::AllAbort);
        assert_eq!(
            run_failure_free(huang_li_3pc_cluster_any(n, &votes, TerminationVariant::Transient)),
            Verdict::AllAbort
        );
        assert_eq!(
            run_failure_free(huang_li_4pc_cluster_any(n, &votes, TerminationVariant::Transient)),
            Verdict::AllAbort
        );
    }

    #[test]
    fn stretched_timers_and_skewed_links_stay_atomic_under_partition() {
        use crate::termination::ProtocolTiming;
        use ptp_simnet::{PartitionSpec, SimTime};
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
            let split = PartitionSpec::simple(
                SimTime(2500),
                vec![SiteId(0), SiteId(1)],
                vec![SiteId(2), SiteId(3)],
            );
            let run = run_protocol(
                parts,
                NetConfig::default(),
                PartitionEngine::new(vec![split]),
                &delay,
            );
            assert!(Verdict::judge(&run.outcomes).is_atomic(), "{timing:?} / {delay:?}");
        }
    }

    #[test]
    fn boxed_constructors_delegate() {
        let parts = huang_li_3pc_cluster(4, &[Vote::Yes; 3], TerminationVariant::Transient);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].state_name(), "w1");
        assert_eq!(parts[1].state_name(), "q");
    }
}
