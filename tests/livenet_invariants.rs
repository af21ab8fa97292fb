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
use ptp_core::protocols::AnyParticipant;
use ptp_core::ProtocolKind;
use ptp_simnet::{FailureSpec, FaultPlan, SiteId};
use std::time::Duration;

const T: Duration = Duration::from_millis(8);
const REPS: usize = 2;

/// The four protocol kinds of the workspace that run on threads.
const THREADED: [ProtocolKind; 4] = [
    ProtocolKind::HuangLi3pc,
    ProtocolKind::HuangLi3pcStatic,
    ProtocolKind::HuangLi4pc,
    ProtocolKind::QuorumMajority,
];

/// A four-site cluster of `kind`, all voting yes.
fn cluster(kind: ProtocolKind) -> Vec<AnyParticipant> {
    kind.cluster(4, &[Vote::Yes; 3])
}

#[test]
fn every_protocol_decides_consistently_without_faults() {
    for kind in THREADED {
        let name = kind.name();
        for rep in 0..REPS {
            let outcome = run_live(cluster(kind), LiveConfig::with_t(T), None);
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            assert!(outcome.all_decided(), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn every_protocol_survives_a_crashed_slave() {
    let crashed = SiteId(3);
    for kind in THREADED {
        let name = kind.name();
        for rep in 0..REPS {
            let crash = FailureSpec::crash(crashed, host_time(T));
            let faults = FaultPlan { failures: vec![crash], ..FaultPlan::default() };
            let outcome = run_live_plan(cluster(kind), LiveConfig::with_t(T), faults);
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
    for kind in THREADED {
        let name = kind.name();
        for rep in 0..REPS {
            let crash = FailureSpec::crash_recover(crashed, host_time(T), host_time(T * 8));
            let faults = FaultPlan { failures: vec![crash], ..FaultPlan::default() };
            let outcome = run_live_plan(cluster(kind), LiveConfig::with_t(T), faults);
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
    for kind in THREADED {
        let name = kind.name();
        if kind == ProtocolKind::QuorumMajority {
            continue; // quorum minorities legitimately block; covered below
        }
        for rep in 0..REPS {
            let outcome = run_live(
                cluster(kind),
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
        let cluster = ProtocolKind::QuorumMajority.cluster(5, &[Vote::Yes; 4]);
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
    for kind in THREADED {
        let name = kind.name();
        for rep in 0..REPS {
            let outcome = run_live(
                cluster(kind),
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
    for kind in THREADED {
        let name = kind.name();
        for rep in 0..REPS {
            let outcome = run_live(
                cluster(kind),
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
