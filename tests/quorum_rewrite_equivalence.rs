//! Quorum hot-path rewrite equivalence.
//!
//! The Quorum collection machinery was rewritten for speed (piggybacked
//! state reports, early round resolution, incremental tallies, exponential
//! blocked-retry backoff — see `crates/protocols/src/quorum.rs`). The
//! rewrites are one choice: [`QuorumTuning::Baseline`] reproduces the naive
//! pre-rewrite protocol exactly, [`QuorumTuning::Optimized`] (the default)
//! enables everything. This suite pins the equivalence the paper's
//! semantics require:
//!
//! 1. across **all four schedule families** of the `exp_multi_partition`
//!    benchmark grid, both tunings produce identical verdict counts, and
//!    both match the counts frozen in the committed `BENCH_schedule.json`;
//! 2. a permanently-partitioned minority still blocks, but with a
//!    **bounded** number of collection rounds (the retry-storm regression
//!    test) — the naive tuning polls an order of magnitude more often.

use ptp_core::protocols::quorum::QuorumTuning;
use ptp_core::protocols::Verdict;
use ptp_core::{
    sweep_with_session, ProtocolKind, RunOptions, Scenario, ScheduleShape, Session, SweepGrid,
    SweepReport,
};
use ptp_simnet::{DelayModel, ScheduleBuilder, SiteId};

const N: usize = 4;

/// The exact per-family grid of `exp_multi_partition` (all simple
/// boundaries × T/4 instants up to 8T × {permanent, heal-after-3T} × three
/// delay schedules).
fn family_grid(shape: ScheduleShape) -> SweepGrid {
    let mut grid = SweepGrid::standard(N).with_shapes(vec![shape]);
    grid.heals = vec![None, Some(3000)];
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Uniform { seed: 11, min: 1, max: 1000 },
        ScheduleBuilder::with_default(1000).outbound(7, 400).build(),
    ];
    grid
}

/// Sweeps the grid through a quorum cluster running the given tuning.
fn sweep_quorum(grid: &SweepGrid, tuning: QuorumTuning) -> SweepReport {
    let mut session = Session::new(ProtocolKind::QuorumMajority, N);
    for p in session.runner_mut().participants_mut() {
        p.quorum_mut().expect("quorum cluster").set_tuning(tuning);
    }
    sweep_with_session(&mut session, grid)
}

fn verdict_counts(r: &SweepReport) -> (usize, usize, usize, usize) {
    (r.all_commit, r.all_abort, r.blocked_count, r.inconsistent_count)
}

#[test]
fn optimized_tuning_is_verdict_identical_to_baseline_on_every_family() {
    // Verdict counts frozen from the committed BENCH_schedule.json Quorum
    // rows (all_commit, all_abort, blocked, inconsistent), in
    // ScheduleShape::FAMILIES order. The baseline tuning must still
    // reproduce them (it *is* the seed protocol), and the optimized tuning
    // must match it cell-for-cell in aggregate.
    let seed_counts = [
        (827, 191, 368, 0), // simple
        (835, 199, 352, 0), // split-heal-resplit
        (810, 191, 385, 0), // multi-way
        (810, 191, 385, 0), // nested-secession
    ];
    for (shape, seed) in ScheduleShape::FAMILIES.iter().zip(seed_counts) {
        let grid = family_grid(*shape);
        let baseline = sweep_quorum(&grid, QuorumTuning::Baseline);
        let optimized = sweep_quorum(&grid, QuorumTuning::Optimized);
        assert_eq!(baseline.total, grid.size(), "{}", shape.name());
        assert_eq!(optimized.total, grid.size(), "{}", shape.name());
        assert_eq!(
            verdict_counts(&baseline),
            seed,
            "baseline tuning drifted from the committed seed counts on {}",
            shape.name()
        );
        assert_eq!(
            verdict_counts(&optimized),
            seed,
            "optimized tuning diverges from baseline on {}",
            shape.name()
        );
    }
}

#[test]
fn blocked_minority_reaches_blocked_in_a_bounded_number_of_rounds() {
    // {0,1,2} | {3} forever: the majority terminates by quorum, site 3
    // blocks. The backoff rewrite must keep its polling bounded over the
    // default 200T horizon instead of one round every 2T until the end.
    let scenario = Scenario::new(N).partition_g2(vec![SiteId(3)], 1500);
    let mut session = Session::new(ProtocolKind::QuorumMajority, N);
    let result = session.run_with(&scenario, &RunOptions::recording());

    assert!(matches!(result.verdict, Verdict::Blocked { .. }), "{:?}", result.verdict);
    for site in 0..3 {
        assert!(result.outcomes[site].decision.is_some(), "majority site {site} must terminate");
    }
    assert!(result.outcomes[3].decision.is_none(), "minority site must block");

    let minority_rounds =
        result.trace.notes("quorum-collect").filter(|(_, site, _)| *site == SiteId(3)).count();
    assert!(
        (2..=20).contains(&minority_rounds),
        "expected a handful of backed-off collection rounds, got {minority_rounds}"
    );

    // The naive tuning on the same scenario: an unbounded back-to-back
    // retry loop to the horizon. The optimized tuning polls identically
    // through the dense prefix (that is what keeps verdicts pinned), so
    // the savings all come from the exponential tail — still a multiple
    // of the total, pinning that the rewrite removed the storm rather
    // than the scenario being easy.
    let mut naive = Session::new(ProtocolKind::QuorumMajority, N);
    for p in naive.runner_mut().participants_mut() {
        p.quorum_mut().expect("quorum cluster").set_tuning(QuorumTuning::Baseline);
    }
    let naive_result = naive.run_with(&scenario, &RunOptions::recording());
    assert_eq!(naive_result.verdict, result.verdict);
    let naive_rounds = naive_result
        .trace
        .notes("quorum-collect")
        .filter(|(_, site, _)| *site == SiteId(3))
        .count();
    assert!(
        naive_rounds >= 3 * minority_rounds,
        "baseline polled {naive_rounds} rounds vs optimized {minority_rounds}"
    );
}
