//! The sweep engine answers a cell without simulating it when it can prove
//! the verdict: a partition whose first episode starts strictly after the
//! last message of the run was due to land cannot have touched the run
//! (`ptp_core::sweep`, "Proving before simulating"). Brute force — one
//! `Session::verdict` per cell, each from a scenario built here from
//! scratch — is the oracle:
//!
//! * the whole `SweepReport` (totals *and* kept counterexamples) of
//!   `sweep_serial` and of `sweep_with_threads(.., 1 | 2 | 3)` equals the
//!   oracle's fold, for every protocol kind, on random grids over all four
//!   schedule families, transient heals, the pessimistic model, a vote
//!   vector with a `No`, unsorted and duplicated partition instants, and
//!   fixed / seeded / per-link delays;
//! * pruning is live (the dense Theorem 9 grid simulates well under its
//!   size), never fires early (a grid of instants no later than `T`
//!   simulates every cell) and its bound is strict (cells whose instant
//!   *equals* the last landing instant are in the suite, and are where
//!   `>=` in place of `>` goes wrong).
//!
//! The property runs more cases in a release build, which is what CI's
//! "Sweep pruning is sound" step runs; the debug build of tier-1 keeps the
//! engine's `debug_assert!` (a pruned column saw no bounce) in the loop.

#[path = "common/grid.rs"]
mod grid;

use grid::scenario_of;
use proptest::prelude::*;
use ptp_bench::dense_grid;
use ptp_core::{
    all_simple_boundaries, sweep_serial, sweep_with_session, sweep_with_threads, ProtocolKind,
    RunOptions, Scenario, ScheduleShape, Session, SweepGrid, SweepReport,
};
use ptp_protocols::{Verdict, Vote};
use ptp_simnet::{DelayModel, SiteId};

/// Counterexamples a `SweepReport` keeps per category.
const KEEP: usize = 8;

/// Simulates every cell and folds the verdicts the way a serial scan does.
fn brute_force(kind: ProtocolKind, grid: &SweepGrid) -> SweepReport {
    let mut session = Session::new(kind, grid.n);
    let mut report = SweepReport::default();
    for index in 0..grid.size() {
        let spec = grid.scenario(index);
        let verdict = session.verdict(&scenario_of(grid, &spec), &RunOptions::new());
        report.total += 1;
        match verdict {
            Verdict::AllCommit => report.all_commit += 1,
            Verdict::AllAbort => report.all_abort += 1,
            Verdict::Blocked { .. } => {
                report.blocked_count += 1;
                if report.blocked.len() < KEEP {
                    report.blocked.push(spec.describe(verdict));
                }
            }
            Verdict::Inconsistent { .. } => {
                report.inconsistent_count += 1;
                if report.inconsistent.len() < KEEP {
                    report.inconsistent.push(spec.describe(verdict));
                }
            }
        }
    }
    assert_eq!(session.executed(), grid.size() as u64, "the oracle simulates every cell");
    report
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 32 } else { 1024 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn pruned_sweeps_equal_brute_force(
        cluster in (0usize..8, 3usize..6, 0usize..4),
        axes in (
            1u8..16,
            prop::collection::vec(1u8..16, 2..4),
            prop::collection::vec(0u64..65, 6..12),
        ),
        model in (prop::bool::ANY, prop::bool::ANY),
        delays in (1u64..9, 0u64..1000, prop::collection::vec(1u64..1001, 3..4)),
    ) {
        let (kind, n, no_at) = cluster;
        let (shape_mask, g2_masks, instants) = axes;
        let (transient, pessimistic) = model;
        let (fixed, seed, links) = delays;
        let kind = ProtocolKind::ALL[kind];
        let mut grid = SweepGrid::standard(n);
        grid.shapes = (0..4)
            .filter(|i| shape_mask >> i & 1 == 1)
            .map(|i| ScheduleShape::FAMILIES[i])
            .collect();
        let boundaries = all_simple_boundaries(n);
        grid.boundaries =
            g2_masks.iter().map(|&m| boundaries[m as usize % boundaries.len()].clone()).collect();
        // As drawn: unsorted, and duplicated more often than not.
        grid.partition_times = instants.iter().map(|i| i * 125).collect();
        if transient {
            grid = grid.with_transient_heals(1);
        }
        if pessimistic {
            grid = grid.pessimistic();
        }
        grid.delays = vec![
            DelayModel::Fixed(fixed * 125),
            DelayModel::Uniform { seed, min: 1, max: 1000 },
            DelayModel::PerLink {
                links: [((0, 1), links[0]), ((1, 0), links[1]), ((0, 2), links[2])].into(),
                default: 500,
            },
        ];
        let mut mixed = vec![Vote::Yes; n - 1];
        mixed[no_at % (n - 1)] = Vote::No;
        grid.votes = vec![vec![Vote::Yes; n - 1], mixed];

        let oracle = brute_force(kind, &grid);
        prop_assert_eq!(&sweep_serial(kind, &grid), &oracle, "serial, {}", kind.name());
        for threads in [1, 2, 3] {
            prop_assert_eq!(
                &sweep_with_threads(kind, &grid, threads),
                &oracle,
                "{} thread(s), {}",
                threads,
                kind.name()
            );
        }
    }
}

#[test]
fn every_kind_agrees_with_brute_force_where_an_instant_equals_the_last_landing() {
    // Fixed delays land every message on a multiple of T/2 and the instants
    // sit on multiples of T/8, so each (kind, delay) column has a cell whose
    // partition starts exactly when the partition-free run's last message
    // lands — checked below, not assumed. That message bounces: the cell is
    // not the partition-free run, and 2PC / 3PC (whose last message is the
    // decision) block or split there. `>=` in the engine's rule answers
    // those cells from the memo and fails this test.
    for n in [3, 4] {
        let mut grid = dense_grid(n);
        grid.delays = vec![DelayModel::Fixed(1000), DelayModel::Fixed(500)];
        for kind in ProtocolKind::ALL {
            let mut session = Session::new(kind, n);
            for delay in &grid.delays {
                let clean = session.run(&Scenario::new(n).delay(delay.clone()));
                let last_landing = clean.report.last_landing.ticks();
                assert!(
                    grid.partition_times.contains(&last_landing),
                    "{}: no instant at the last landing {last_landing}",
                    kind.name()
                );
            }
            let oracle = brute_force(kind, &grid);
            assert_eq!(sweep_serial(kind, &grid), oracle, "{} at n = {n}", kind.name());
            assert_eq!(sweep_with_threads(kind, &grid, 3), oracle, "{} at n = {n}", kind.name());
        }
    }
}

#[test]
fn pruning_is_live_on_the_dense_theorem_9_grid() {
    let grid = dense_grid(4);
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
    let report = sweep_with_session(&mut session, &grid);
    assert!(report.fully_resilient(), "{report:?}");
    assert_eq!(report.total, grid.size());
    let executed = session.executed() as usize;
    assert!(
        executed * 10 <= grid.size() * 6,
        "simulated {executed} of {} cells: pruning went dead",
        grid.size()
    );
    // It only grows: a second sweep adds its own simulations on top.
    let again = sweep_with_session(&mut session, &grid);
    assert_eq!(again, report);
    assert_eq!(session.executed() as usize, 2 * executed);
}

#[test]
fn pruning_never_fires_while_messages_are_still_in_flight() {
    // Under T/2 and T delays no commit protocol has landed its last message
    // by T (prepare, vote and decision are three legs), so a grid whose
    // instants all sit at or before T has nothing to prove: every cell runs.
    let mut grid = dense_grid(4);
    grid.partition_times = (0..=8).map(|i| i * 125).collect();
    grid.delays = vec![DelayModel::Fixed(1000), DelayModel::Fixed(500)];
    grid.boundaries = vec![vec![SiteId(1)], vec![SiteId(2), SiteId(3)]];
    for kind in ProtocolKind::ALL {
        let mut session = Session::new(kind, 4);
        let report = sweep_with_session(&mut session, &grid);
        assert_eq!(report.total, grid.size());
        assert_eq!(session.executed() as usize, grid.size(), "{}", kind.name());
    }
}
