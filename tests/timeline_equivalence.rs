//! Compiler-equivalence suite for the scenario-timeline DSL.
//!
//! One [`Timeline`] value must mean the same faults on every backend:
//!
//! * lowered to the simulator, a single-episode timeline reproduces the
//!   legacy `PartitionShape::Simple` configuration **cell-for-cell**
//!   (verdict, per-site outcomes, event counters) for all eight protocol
//!   kinds;
//! * lowered to `ptp-livenet`, the same timeline passes the live invariant
//!   audits (consistency, termination) for all four thread-backed kinds;
//! * lowered into `ptp-live`'s serving stack as `LiveOptions.faults`, the
//!   same timeline still audits clean.
//!
//! All three read the one `FaultPlan` of `Timeline::faults` — in ticks
//! under the simulator, `scaled` to nanoseconds under threads.

use ptp_core::livenet::run_live_plan;
use ptp_core::protocols::api::Vote;
use ptp_core::scenario::ScenarioBuilder;
use ptp_core::{ProtocolKind, RunOptions, Scenario, Session, Timeline};
use ptp_simnet::SiteId;
use std::time::Duration;

/// The canonical transient partition: slaves 2 and 3 secede at 1500 (xacts
/// in flight), connectivity returns at 6000.
fn transient_timeline(n: usize) -> Timeline {
    let g2 = vec![SiteId(2), SiteId(3)];
    let g1 = (0..n as u16).map(SiteId).filter(|s| !g2.contains(s)).collect();
    ScenarioBuilder::new(n).at(1500).partition(vec![g1, g2]).at(6000).heal().build()
}

#[test]
fn single_episode_timeline_matches_legacy_simple_cell_for_cell() {
    let n = 4;
    let timeline = transient_timeline(n);
    let legacy = Scenario::new(n).transient_partition(vec![SiteId(2), SiteId(3)], 1500, 6000);
    let opts = RunOptions::recording();
    for kind in ProtocolKind::ALL {
        let dsl = Session::new(kind, n).run_with(&timeline.scenario(), &opts);
        let reference = Session::new(kind, n).run_with(&legacy, &opts);
        assert_eq!(dsl.verdict, reference.verdict, "{}", kind.name());
        assert_eq!(dsl.outcomes, reference.outcomes, "{}", kind.name());
        assert_eq!(dsl.report.counters, reference.report.counters, "{}", kind.name());
        assert_eq!(dsl.report.events, reference.report.events, "{}", kind.name());
        assert_eq!(dsl.trace.events(), reference.trace.events(), "{}", kind.name());
    }
}

#[test]
fn permanent_partition_timeline_matches_legacy_simple_cell_for_cell() {
    let n = 4;
    let g2 = vec![SiteId(3)];
    let timeline = ScenarioBuilder::new(n)
        .at(2500)
        .partition(vec![vec![SiteId(0), SiteId(1), SiteId(2)], g2.clone()])
        .build();
    let legacy = Scenario::new(n).partition_g2(g2, 2500);
    let opts = RunOptions::recording();
    for kind in ProtocolKind::ALL {
        let dsl = Session::new(kind, n).run_with(&timeline.scenario(), &opts);
        let reference = Session::new(kind, n).run_with(&legacy, &opts);
        assert_eq!(dsl.verdict, reference.verdict, "{}", kind.name());
        assert_eq!(dsl.outcomes, reference.outcomes, "{}", kind.name());
        assert_eq!(dsl.trace.events(), reference.trace.events(), "{}", kind.name());
    }
}

/// The four thread-backed protocol kinds (as in `livenet_invariants`).
const THREADED: [ProtocolKind; 4] = [
    ProtocolKind::HuangLi3pc,
    ProtocolKind::HuangLi3pcStatic,
    ProtocolKind::HuangLi4pc,
    ProtocolKind::QuorumMajority,
];

#[test]
fn the_same_timeline_survives_the_livenet_lowering() {
    // The timeline's ticks map onto the wall clock through T = 8ms; the
    // transient split must leave every protocol consistent and decided
    // (the same invariants `livenet_invariants` pins for hand-built
    // LivePartitions).
    let n = 4;
    let t = Duration::from_millis(8);
    let timeline = transient_timeline(n);
    let faults = timeline.live_faults(t);
    for kind in THREADED {
        let name = kind.name();
        for rep in 0..2 {
            let config = ptp_core::livenet::LiveConfig::with_t(t);
            let cluster = kind.cluster(n, &vec![Vote::Yes; n - 1]);
            let outcome = run_live_plan(cluster, config, faults.clone());
            assert!(outcome.consistent(), "{name} rep {rep}: {outcome:?}");
            assert!(outcome.all_decided(), "{name} rep {rep}: {outcome:?}");
        }
    }
}

#[test]
fn the_same_timeline_survives_the_live_serving_lowering() {
    // Third backend: the threaded shard server. The timeline's faults are
    // installed as LiveOptions.faults; the storage audit (minus the
    // convergence checks a partition legitimately relaxes) must hold.
    let mut opts = ptp_live::LiveOptions::small(120.0, Duration::from_millis(300));
    opts.flush_cost = Duration::ZERO;
    let timeline = ScenarioBuilder::new(opts.sites)
        .t_unit(1000)
        .at(4000)
        .partition(vec![
            vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)],
            vec![SiteId(4), SiteId(5)],
        ])
        .at(9000)
        .heal()
        .build();
    opts.faults = timeline.live_faults(opts.t);
    assert_eq!(
        opts.fault_plan().partition.episodes().len(),
        1,
        "the lowering must arm the partition"
    );
    let report = ptp_live::run_server(&opts);
    assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
    assert!(!report.audit.strict, "partitioned runs drop convergence checks");
}

#[test]
fn degrade_and_duplicate_timeline_is_clean_on_sim_and_livenet() {
    // A richer timeline — a degraded-delay window plus duplicated xacts —
    // exercises the non-partition fault classes through both lowerings.
    let n = 3;
    let g2 = vec![SiteId(2)];
    let timeline = ScenarioBuilder::new(n)
        .at(500)
        .degrade(800..=1000)
        .at(1000)
        .partition(vec![vec![SiteId(0), SiteId(1)], g2])
        .at(5000)
        .heal()
        .duplicate(ptp_simnet::EnvelopeMatch::kind("xact"), 400)
        .build();

    let sim = Session::new(ProtocolKind::HuangLi3pc, timeline.n).run(&timeline.scenario());
    assert!(sim.verdict.is_resilient(), "{:?}", sim.verdict);

    let t = Duration::from_millis(8);
    let faults = timeline.live_faults(t);
    assert_eq!(faults.degrades.len(), 1);
    assert_eq!(faults.env_faults.len(), 1);
    let cluster = ProtocolKind::HuangLi3pc.cluster(n, &[Vote::Yes; 2]);
    let outcome = run_live_plan(cluster, ptp_core::livenet::LiveConfig::with_t(t), faults);
    assert!(outcome.consistent(), "{outcome:?}");
    assert!(outcome.all_decided(), "{outcome:?}");
}
