//! What a sweep cell costs the heap once its session is warm: nothing.
//!
//! A `Session` recycles its cluster, its simulator's event queue, timer
//! slab and fault plan from run to run, and answers a cell no partition
//! episode can reach from the partition-free run it remembers, so a cell
//! should allocate nothing at all, simulated or answered. A counting global
//! allocator holds every protocol kind to that over every cell of
//! `ptp_bench::dense_grid(n)`, n = 3..=6 (the grids of the benchmark's
//! `sim_sweep`), after one warm-up pass over the same cells; the measured
//! pass must still simulate every cell the session cannot answer. Only the
//! cells whose verdict is `AllCommit` or `AllAbort` count: a `Blocked` or
//! `Inconsistent` verdict carries its sites in a vector of its own.

mod common;
#[path = "common/grid.rs"]
mod grid;

use ptp_bench::dense_grid;
use ptp_core::{ProtocolKind, RunOptions, Scenario, Session};
use ptp_protocols::Verdict;

/// Every cell in release; every 17th in debug, where the grids take
/// minutes.
const STRIDE: usize = if cfg!(debug_assertions) { 17 } else { 1 };

#[test]
fn a_warm_session_simulates_a_decided_cell_without_allocating() {
    let options = RunOptions::new();
    let mut allocating = Vec::new();
    for n in 3..=6 {
        let grid = dense_grid(n);
        let specs: Vec<_> = (0..grid.size()).step_by(STRIDE).map(|i| grid.scenario(i)).collect();
        let scenarios: Vec<Scenario> = specs.iter().map(|s| grid::scenario_of(&grid, s)).collect();
        for kind in ProtocolKind::ALL {
            // The cells a session cannot answer: those whose partition starts
            // no later than the last landing of their delay's partition-free
            // run (the grid has one vote vector).
            let last_landing: Vec<u64> = grid
                .delays
                .iter()
                .map(|d| {
                    let clean = Scenario::new(n).delay(d.clone());
                    Session::new(kind, n).run(&clean).report.last_landing.ticks()
                })
                .collect();
            let unanswerable =
                specs.iter().filter(|s| s.at <= last_landing[s.delay_index]).count() as u64;
            let mut session = Session::new(kind, n);
            for scenario in &scenarios {
                session.verdict(scenario, &options);
            }
            let before = session.executed();
            let (mut cells, mut allocations) = (0, 0);
            for scenario in &scenarios {
                let (verdict, count, _) = common::measure(|| session.verdict(scenario, &options));
                if matches!(verdict, Verdict::AllCommit | Verdict::AllAbort) {
                    cells += 1;
                    allocations += count;
                }
            }
            assert!(cells > 0, "{kind:?} at n = {n} decided no cell");
            assert_eq!(
                session.executed() - before,
                unanswerable,
                "{kind:?} at n = {n}: the measured pass simulated other cells than it must"
            );
            if allocations > 0 {
                allocating.push(format!("{kind:?} n={n}: {allocations} over {cells} cells"));
            }
        }
    }
    assert!(allocating.is_empty(), "warm sweep cells allocated: {allocating:#?}");
}
