//! The Sec. 2 impossibility theorems and the Sec. 7 assumption-necessity
//! counterexamples, as tests: each *must* produce a violation, documenting
//! that the paper's model boundaries are real.

use ptp_core::{sweep_serial, ProtocolKind, RunOptions, Scenario, Session, SweepGrid};
use ptp_model::Decision;
use ptp_protocols::Verdict;
use ptp_simnet::{
    DelayModel, FailureSpec, PartitionEngine, PartitionSpec, ScheduleBuilder, SimTime, SiteId,
};

#[test]
fn message_loss_breaks_the_termination_protocol() {
    // "There exists no protocol resilient to a network partitioning when
    // messages are lost."
    let mut grid = SweepGrid::standard(3).pessimistic();
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Uniform { seed: 11, min: 1, max: 1000 },
        DelayModel::Uniform { seed: 12, min: 1, max: 1000 },
    ];
    let report = sweep_serial(ProtocolKind::HuangLi3pc, &grid);
    assert!(
        report.inconsistent_count + report.blocked_count > 0,
        "dropping undeliverables must break some scenario: {report:?}"
    );
}

#[test]
fn optimistic_model_is_what_saves_it() {
    // The identical grid with returned messages is fully resilient — the
    // contrast that justifies the paper's optimistic-model assumption.
    let mut grid = SweepGrid::standard(3);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Uniform { seed: 11, min: 1, max: 1000 },
        DelayModel::Uniform { seed: 12, min: 1, max: 1000 },
    ];
    let report = sweep_serial(ProtocolKind::HuangLi3pc, &grid);
    assert!(report.fully_resilient(), "{report:?}");
}

#[test]
fn multiple_partitioning_breaks_the_termination_protocol() {
    // "There exists no protocol resilient to a multiple network
    // partitioning." Crafted 3-way split: slave 2's prepare crosses into
    // its own fragment; slave 3 never hears anything again.
    let crafted = ScheduleBuilder::with_default(1000).outbound(7, 400).build();
    let three_way = PartitionSpec {
        at: SimTime(2500),
        groups: vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]],
        heal_at: None,
    };
    let scenario =
        Scenario::new(4).delay(crafted).partition_schedule(PartitionEngine::new(vec![three_way]));
    let result = Session::new(ProtocolKind::HuangLi3pc, 4).run(&scenario);
    assert!(
        matches!(result.verdict, Verdict::Inconsistent { .. }),
        "three-way split must violate atomicity, got {:?}",
        result.verdict
    );
}

#[test]
fn sec7_counterexample_1_lone_prepared_g2_slave_crashes() {
    let schedule = ScheduleBuilder::with_default(1000).outbound(7, 400).build();
    let scenario = Scenario::new(4)
        .partition_g2(vec![SiteId(2), SiteId(3)], 2500)
        .delay(schedule)
        .fail(FailureSpec::crash(SiteId(2), SimTime(3000)));
    let result = Session::new(ProtocolKind::HuangLi3pc, 4).run(&scenario);
    // G1 commits; the surviving G2 slave aborts.
    assert_eq!(result.outcomes[0].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[1].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[3].decision, Some(Decision::Abort));
    assert!(matches!(result.verdict, Verdict::Inconsistent { .. }));
}

#[test]
fn sec7_counterexample_2_g1_slave_crashes_before_probing() {
    let scenario = Scenario::new(4).partition_g2(vec![SiteId(3)], 2500);
    let crashing = scenario.clone().fail(FailureSpec::crash(SiteId(1), SimTime(3500)));
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
    let result = session.run_with(&crashing, &RunOptions::recording());
    assert_eq!(result.outcomes[0].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[2].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[3].decision, Some(Decision::Abort));
    assert!(matches!(result.verdict, Verdict::Inconsistent { .. }));

    // The same session on the crash-free scenario: resilient again (the
    // injected crash does not leak into later runs through the reused plan).
    let clean = session.run(&scenario);
    assert!(clean.verdict.is_resilient(), "{:?}", clean.verdict);
}

#[test]
fn without_crashes_the_same_scenarios_are_fine() {
    // Sanity: the Sec. 7 scenarios minus the crash are resilient — the
    // crash is load-bearing.
    let schedule = ScheduleBuilder::with_default(1000).outbound(7, 400).build();
    let s1 = Scenario::new(4).partition_g2(vec![SiteId(2), SiteId(3)], 2500).delay(schedule);
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
    assert!(session.run(&s1).verdict.is_resilient());

    let s2 = Scenario::new(4).partition_g2(vec![SiteId(3)], 2500);
    assert!(session.run(&s2).verdict.is_resilient());
}
