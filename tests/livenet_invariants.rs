//! Live-thread invariant suite: every protocol kind on OS threads, under
//! crashes, partitions, and partition-plus-heal.
//!
//! The simulator proves these properties exhaustively over discrete
//! schedules; this suite checks that they survive real thread scheduling,
//! real clocks, and the bounded-but-random delays of the live router. Live
//! runs are nondeterministic, so each scenario runs a few times and asserts
//! *invariants* — atomic consistency always, termination where the paper
//! guarantees it — rather than replaying a pinned trace.

use ptp_core::livenet::{host_time, run_live, run_live_plan, LiveConfig, LivePartition};
use ptp_core::protocols::api::Vote;
use ptp_core::protocols::clusters::{huang_li_3pc_cluster_any, huang_li_4pc_cluster_any};
use ptp_core::protocols::quorum::{quorum_cluster_any, QuorumConfig};
use ptp_core::protocols::termination::TerminationVariant;
use ptp_core::protocols::AnyParticipant;
use ptp_simnet::{FailureSpec, FaultPlan, SiteId};
use std::time::Duration;

const T: Duration = Duration::from_millis(8);
const REPS: usize = 2;

/// A named, repeatable live-cluster recipe.
type ClusterRecipe = (&'static str, Box<dyn Fn() -> Vec<AnyParticipant>>);

/// The four protocol kinds of the workspace, as live clusters.
fn clusters(n: usize) -> Vec<ClusterRecipe> {
    let votes = vec![Vote::Yes; n - 1];
    let v1 = votes.clone();
    let v2 = votes.clone();
    let v3 = votes.clone();
    let v4 = votes;
    vec![
        (
            "hl-3pc-transient",
            Box::new(move || huang_li_3pc_cluster_any(n, &v1, TerminationVariant::Transient)),
        ),
        (
            "hl-3pc-static",
            Box::new(move || huang_li_3pc_cluster_any(n, &v2, TerminationVariant::Static)),
        ),
        (
            "hl-4pc",
            Box::new(move || huang_li_4pc_cluster_any(n, &v3, TerminationVariant::Transient)),
        ),
        ("quorum-majority", Box::new(move || quorum_cluster_any(QuorumConfig::majority(n), &v4))),
    ]
}

#[test]
fn every_protocol_decides_consistently_without_faults() {
    for (name, cluster) in clusters(4) {
        for rep in 0..REPS {
            let outcome = run_live(cluster(), LiveConfig::with_t(T), None);
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            assert!(outcome.all_decided(), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn every_protocol_survives_a_crashed_slave() {
    let crashed = SiteId(3);
    for (name, cluster) in clusters(4) {
        for rep in 0..REPS {
            let crash = FailureSpec::crash(crashed, host_time(T));
            let faults = FaultPlan { failures: vec![crash], ..FaultPlan::default() };
            let outcome = run_live_plan(cluster(), LiveConfig::with_t(T), faults);
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            // The survivors must terminate; the crashed site is exempt.
            assert!(outcome.all_decided_except(&[crashed]), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn every_protocol_survives_a_crash_with_recovery() {
    // The site comes back before the run timeout; having missed messages
    // (dropped at the network while down), it must still not contradict
    // the rest — it may stay undecided, the livenet layer models no WAL.
    let crashed = SiteId(2);
    for (name, cluster) in clusters(4) {
        for rep in 0..REPS {
            let crash = FailureSpec::crash_recover(crashed, host_time(T), host_time(T * 8));
            let faults = FaultPlan { failures: vec![crash], ..FaultPlan::default() };
            let outcome = run_live_plan(cluster(), LiveConfig::with_t(T), faults);
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            assert!(outcome.all_decided_except(&[crashed]), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn termination_protocols_decide_through_a_permanent_partition() {
    // A simple partition mid-protocol: the termination protocol decides on
    // both sides (undeliverables return — the optimistic model), for both
    // the static and the transient variant and for 4PC.
    for (name, cluster) in clusters(4) {
        if name == "quorum-majority" {
            continue; // quorum minorities legitimately block; covered below
        }
        for rep in 0..REPS {
            let outcome = run_live(
                cluster(),
                LiveConfig::with_t(T),
                Some(LivePartition::simple(T * 5 / 2, vec![SiteId(2), SiteId(3)], None)),
            );
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            assert!(outcome.all_decided(), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn quorum_majority_side_decides_and_the_minority_stays_safe() {
    for rep in 0..REPS {
        let cluster = quorum_cluster_any(QuorumConfig::majority(5), &[Vote::Yes; 4]);
        let outcome = run_live(
            cluster,
            LiveConfig::with_t(T),
            Some(LivePartition::simple(T * 5 / 2, vec![SiteId(3), SiteId(4)], None)),
        );
        // The two-site minority can reach neither quorum: it must block
        // rather than guess, and whatever the majority decided stands.
        assert!(outcome.consistent(), "rep {rep}: {outcome:?}");
        assert!(outcome.all_decided_except(&[SiteId(3), SiteId(4)]), "rep {rep}: {outcome:?}");
    }
}

#[test]
fn every_protocol_survives_partition_plus_heal() {
    for (name, cluster) in clusters(4) {
        for rep in 0..REPS {
            let outcome = run_live(
                cluster(),
                LiveConfig::with_t(T),
                Some(LivePartition::simple(T * 2, vec![SiteId(1), SiteId(2)], Some(T * 5))),
            );
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            // After the heal every protocol — quorum included — terminates.
            assert!(outcome.all_decided(), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn multi_episode_schedules_stay_consistent() {
    // Split, heal, re-split differently: the generalized LivePartition. The
    // second episode never heals, so termination is only guaranteed for the
    // termination protocols, and consistency for everyone.
    for (name, cluster) in clusters(4) {
        for rep in 0..REPS {
            let outcome = run_live(
                cluster(),
                LiveConfig::with_t(T),
                Some(LivePartition::split_heal_resplit(
                    vec![SiteId(3)],
                    T * 2,
                    T * 5,
                    vec![SiteId(1), SiteId(2)],
                    T * 7,
                )),
            );
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
        }
    }
}
