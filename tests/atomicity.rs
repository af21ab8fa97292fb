//! Experiment E10's backbone as an integration test: Theorem 9 says the
//! modified 3PC + termination protocol is resilient to optimistic multisite
//! simple network partitioning. We sweep every simple boundary, a dense grid
//! of partition instants, permanent and transient partitions, and several
//! delay schedules — and require all-commit or all-abort everywhere.
//!
//! The same sweeps document the baselines' failures: extended 2PC and
//! rule-augmented 3PC violate atomicity (Sec. 3), plain 2PC blocks.

use ptp_core::{sweep_threads, sweep_with_threads, ProtocolKind, SweepGrid};
use ptp_simnet::DelayModel;

fn dense_grid(n: usize) -> SweepGrid {
    let mut grid = SweepGrid::standard(n);
    // T/8 granularity up to 8T.
    grid.partition_times = (0..=64).map(|i| i * 125).collect();
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Fixed(500),
        DelayModel::Fixed(1), // near-instant network
        DelayModel::Uniform { seed: 11, min: 1, max: 1000 },
        DelayModel::Uniform { seed: 99, min: 500, max: 1000 },
    ];
    grid
}

#[test]
fn theorem9_huang_li_3pc_resilient_n3_permanent() {
    let report = sweep_with_threads(ProtocolKind::HuangLi3pc, &dense_grid(3), sweep_threads());
    assert!(report.fully_resilient(), "violations: {report:?}");
}

#[test]
fn theorem9_huang_li_3pc_resilient_n4_permanent() {
    let mut grid = dense_grid(4);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    let report = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, sweep_threads());
    assert!(report.fully_resilient(), "violations: {report:?}");
}

#[test]
fn sec6_huang_li_3pc_resilient_under_transient_partitions() {
    let mut grid = dense_grid(3).with_transient_heals(8);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    grid.delays = vec![DelayModel::Fixed(1000), DelayModel::Uniform { seed: 5, min: 1, max: 1000 }];
    let report = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, sweep_threads());
    assert!(report.fully_resilient(), "violations: {report:?}");
}

#[test]
fn theorem10_huang_li_4pc_resilient() {
    let mut grid = dense_grid(3);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    let report = sweep_with_threads(ProtocolKind::HuangLi4pc, &grid, sweep_threads());
    assert!(report.fully_resilient(), "violations: {report:?}");
}

#[test]
fn static_variant_resilient_under_permanent_partitions() {
    // The Sec. 5 protocol assumes the partition persists; under that
    // assumption it must be resilient too.
    let mut grid = dense_grid(3);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    let report = sweep_with_threads(ProtocolKind::HuangLi3pcStatic, &grid, sweep_threads());
    assert!(report.fully_resilient(), "violations: {report:?}");
}

#[test]
fn sec3_extended_2pc_violates_atomicity_multisite() {
    let report = sweep_with_threads(ProtocolKind::Extended2pc, &dense_grid(3), sweep_threads());
    assert!(!report.fully_atomic(), "the Sec. 3 observation must reproduce");
}

#[test]
fn sec3_naive_augmented_3pc_violates_atomicity_multisite() {
    let report = sweep_with_threads(ProtocolKind::Naive3pc, &dense_grid(3), sweep_threads());
    assert!(!report.fully_atomic(), "the Sec. 3 observation must reproduce");
}

#[test]
fn two_pc_blocks_but_stays_atomic() {
    let mut grid = dense_grid(3);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    let report = sweep_with_threads(ProtocolKind::Plain2pc, &grid, sweep_threads());
    assert!(report.fully_atomic());
    assert!(report.blocked_count > 0, "2PC must block under some partition");
}

#[test]
fn quorum_baseline_atomic_but_blocking() {
    let mut grid = dense_grid(5);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    grid.delays = vec![DelayModel::Fixed(1000)];
    let report = sweep_with_threads(ProtocolKind::QuorumMajority, &grid, sweep_threads());
    assert!(report.fully_atomic(), "{report:?}");
    assert!(report.blocked_count > 0, "minority groups must block");
}

#[test]
fn mixed_votes_stay_atomic_under_partition() {
    use ptp_protocols::api::Vote;
    let mut grid = dense_grid(3);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    grid.delays = vec![DelayModel::Fixed(1000), DelayModel::Uniform { seed: 3, min: 1, max: 1000 }];
    grid.votes =
        vec![vec![Vote::No, Vote::Yes], vec![Vote::Yes, Vote::No], vec![Vote::No, Vote::No]];
    let report = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, sweep_threads());
    // With a no-vote the transaction must abort everywhere; resilience
    // still means "no mixed decisions, nobody blocked".
    assert!(report.fully_resilient(), "violations: {report:?}");
    assert_eq!(report.all_commit, 0, "a no-vote can never commit");
}
