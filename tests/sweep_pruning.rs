//! A session answers a scenario without simulating it when it can prove
//! the result (`ptp_core::session`, "Proving before simulating"), by two
//! rules: a partition whose first episode starts strictly after the last
//! message of the run was due to land cannot have touched the run (rule 1),
//! and under a fixed delay a run is its slave-relabelled twin's when every
//! slave colour — vote and group in every episode — is as common in both
//! (rule 2). The sweep engine sends every cell through both. Brute force —
//! one `Session::verdict` per cell, each from a fresh session and a
//! scenario built here from scratch, so no memo can answer it — is the
//! oracle:
//!
//! * the whole `SweepReport` (totals *and* kept counterexamples) of
//!   `sweep_serial` and of `sweep_with_threads(.., 1 | 2 | 3)` equals the
//!   oracle's fold, for every protocol kind, on random grids over all four
//!   schedule families, transient heals, the pessimistic model, vote
//!   vectors with a `No` at two different slaves, unsorted and duplicated
//!   partition instants, several boundaries of one size, and two fixed,
//!   one seeded and one per-link delay;
//! * pruning is live (the dense Theorem 9 grid simulates exactly the cells
//!   neither rule answers, and a second sweep through the same session
//!   re-learns nothing), rule 1 never fires early (a grid of instants no
//!   later than `T` simulates every cell) and its bound is strict (cells
//!   whose instant *equals* the last landing instant are in the suite, and
//!   are where `>=` in place of `>` goes wrong), and rule 2 never fires
//!   under seeded or per-link delays, site failures, degraded windows,
//!   envelope faults or a recorded run.
//!
//! The property runs more cases in a release build, which is what CI's
//! "Sweep pruning is sound" step runs; the debug build of tier-1 keeps the
//! session's debug checks (a remembered partition-free run saw no bounce;
//! every symmetric answer is simulated too and must be its relabelled
//! twin) in the loop.

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
use ptp_simnet::{
    DegradeWindow, DelayModel, EnvelopeFault, EnvelopeMatch, FailureSpec, SimTime, SiteId,
};

/// Counterexamples a `SweepReport` keeps per category.
const KEEP: usize = 8;

/// Simulates every cell, each in a session of its own, and folds the
/// verdicts the way a serial scan does.
fn brute_force(kind: ProtocolKind, grid: &SweepGrid) -> SweepReport {
    let mut report = SweepReport::default();
    let mut executed = 0;
    for index in 0..grid.size() {
        let spec = grid.scenario(index);
        let mut session = Session::new(kind, grid.n);
        let verdict = session.verdict(&scenario_of(grid, &spec), &RunOptions::new());
        executed += session.executed();
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
    assert_eq!(executed, grid.size() as u64, "the oracle simulates every cell");
    report
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 32 } else { 1024 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn pruned_sweeps_equal_brute_force(
        cluster in (0usize..8, 3usize..6, (0usize..4, 0usize..4)),
        axes in (
            1u8..16,
            prop::collection::vec(1u8..32, 2..4),
            prop::collection::vec(0u64..65, 6..12),
        ),
        model in (prop::bool::ANY, prop::bool::ANY),
        delays in (1u64..9, 0u64..1000, prop::collection::vec(1u64..1001, 3..4)),
    ) {
        let (kind, n, (no_at, other_no_at)) = cluster;
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
        // A second boundary of the first one's size, so rule 2 has a twin to
        // answer from: the same number of slaves, counted from the last.
        let size = grid.boundaries[0].len();
        grid.boundaries.push((n - size..n).map(|s| SiteId(s as u16)).collect());
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
            DelayModel::Fixed(1),
            DelayModel::Uniform { seed, min: 1, max: 1000 },
            DelayModel::PerLink {
                links: [((0, 1), links[0]), ((1, 0), links[1]), ((0, 2), links[2])].into(),
                default: 500,
            },
        ];
        let no_from = |slave: usize| {
            let mut votes = vec![Vote::Yes; n - 1];
            votes[slave % (n - 1)] = Vote::No;
            votes
        };
        grid.votes = vec![vec![Vote::Yes; n - 1], no_from(no_at), no_from(other_no_at)];

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

/// How many cells of `grid` (one all-yes vote vector) a fresh session must
/// simulate when `kind` sweeps it, rule by rule. Under every delay the cells
/// whose partition starts no later than `L0`, the last landing of that
/// delay's partition-free run, are beyond rule 1; under a fixed delay rule 2
/// answers all of them but the first boundary's of each size (with one vote
/// vector a slave's colour is its side of the cut, so a boundary's size is
/// its class). Each delay's first cell after `L0` is simulated once, to
/// learn the partition-free run.
struct Simulated {
    /// Beyond rule 1 and under a seeded delay: simulated by every sweep.
    seeded: usize,
    /// Beyond rule 1, under a fixed delay, on the first boundary of a class.
    learned_twins: usize,
    /// The runs that teach rule 1, one per delay.
    partition_free: usize,
    /// What rule 1 alone leaves to simulate.
    rule_1_alone: usize,
}

impl Simulated {
    fn of(kind: ProtocolKind, grid: &SweepGrid) -> Simulated {
        assert_eq!(grid.votes, vec![vec![Vote::Yes; grid.n - 1]]);
        assert_eq!((grid.shapes.len(), grid.heals.len()), (1, 1));
        let mut sizes: Vec<usize> = grid.boundaries.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let mut simulated =
            Simulated { seeded: 0, learned_twins: 0, partition_free: 0, rule_1_alone: 0 };
        for delay in &grid.delays {
            let clean = Session::new(kind, grid.n).run(&Scenario::new(grid.n).delay(delay.clone()));
            let last_landing = clean.report.last_landing.ticks();
            let beyond = grid.partition_times.iter().filter(|&&at| at <= last_landing).count();
            simulated.partition_free += usize::from(beyond < grid.partition_times.len());
            simulated.rule_1_alone += beyond * grid.boundaries.len();
            match delay {
                DelayModel::Fixed(_) => simulated.learned_twins += beyond * sizes.len(),
                _ => simulated.seeded += beyond * grid.boundaries.len(),
            }
        }
        simulated.rule_1_alone += simulated.partition_free;
        simulated
    }

    fn first_sweep(&self) -> usize {
        self.seeded + self.learned_twins + self.partition_free
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
    let expected = Simulated::of(ProtocolKind::HuangLi3pc, &grid);
    assert_eq!(executed, expected.first_sweep(), "simulated other cells than the rules leave");
    assert!(
        executed * 10 <= grid.size() * 4,
        "simulated {executed} of {} cells: pruning went dead",
        grid.size()
    );
    // It only grows: a second sweep adds its own simulations on top. The
    // session still remembers the partition-free run of every
    // `(delay, votes)` pair and every twin it learned, so the second sweep
    // simulates exactly the cells neither rule can answer: the first
    // sweep's count less the one learning run per pair and the twins
    // learned on each class's first boundary — the seeded cells.
    let again = sweep_with_session(&mut session, &grid);
    assert_eq!(again, report);
    let pairs = grid.delays.len() * grid.votes.len();
    assert_eq!(expected.partition_free, pairs);
    assert_eq!(session.executed() as usize, 2 * executed - pairs - expected.learned_twins);
}

#[test]
fn both_rules_cut_the_dense_grids_to_the_cells_they_cannot_answer() {
    // Every kind over `dense_grid(3..=6)`, the benchmark's `sim_sweep`
    // pass; n = 3..=4 in debug, where each symmetric answer is simulated
    // as well.
    let sizes = if cfg!(debug_assertions) { 3..=4 } else { 3..=6 };
    let (mut cells, mut rule_1_alone, mut simulated) = (0, 0, 0);
    for n in sizes.clone() {
        let grid = dense_grid(n);
        for kind in ProtocolKind::ALL {
            let mut session = Session::new(kind, n);
            let report = sweep_with_session(&mut session, &grid);
            assert_eq!(report, brute_force(kind, &grid), "{} at n = {n}", kind.name());
            let expected = Simulated::of(kind, &grid);
            assert_eq!(
                session.executed() as usize,
                expected.first_sweep(),
                "{} at n = {n}",
                kind.name()
            );
            cells += grid.size();
            rule_1_alone += expected.rule_1_alone;
            simulated += session.executed() as usize;
        }
    }
    println!(
        "dense_grid({sizes:?}), {} kinds: simulated {simulated} of {cells} cells \
         (rule 1 alone: {rule_1_alone})",
        ProtocolKind::ALL.len()
    );
    if *sizes.end() == 6 {
        assert_eq!(cells, 145_600);
        assert!(simulated <= 36_700, "simulated {simulated} of {cells} cells");
    }
}

#[test]
fn rule_2_never_fires_outside_its_conditions() {
    // Three boundaries of one size, instants no later than T: rule 1 has
    // nothing to prove, and under a fixed delay rule 2 answers the second
    // and third boundary from the first.
    let mut grid = dense_grid(4);
    grid.partition_times = (0..=8).map(|i| i * 125).collect();
    grid.boundaries = vec![vec![SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]];
    let per_boundary = grid.partition_times.len();
    for kind in ProtocolKind::ALL {
        let mut fixed = grid.clone();
        fixed.delays = vec![DelayModel::Fixed(1000)];
        let mut session = Session::new(kind, 4);
        let _ = sweep_with_session(&mut session, &fixed);
        assert_eq!(session.executed() as usize, per_boundary, "{}: twins", kind.name());
        // Seeded and per-link delays: every cell runs.
        let mut other = grid.clone();
        other.delays = vec![
            DelayModel::Uniform { seed: 3, min: 1, max: 1000 },
            DelayModel::PerLink { links: [((0, 1), 300)].into(), default: 700 },
        ];
        let mut session = Session::new(kind, 4);
        let _ = sweep_with_session(&mut session, &other);
        assert_eq!(session.executed() as usize, other.size(), "{}: other delays", kind.name());
        // A failure, a degraded window, an envelope fault or a recording:
        // every run simulates, however often it is asked.
        let faulty: [fn(Scenario) -> Scenario; 3] = [
            |s| s.fail(FailureSpec::crash(SiteId(1), SimTime(50_000))),
            |mut s| {
                s.faults.degrades.push(DegradeWindow::new(SimTime(50_000), None, 1, 10));
                s
            },
            |mut s| {
                s.faults.env_faults.push(EnvelopeFault::drop(EnvelopeMatch::any().nth(100)));
                s
            },
        ];
        let mut session = Session::new(kind, 4);
        let mut runs = 0;
        for _ in 0..2 {
            for g2 in &grid.boundaries {
                let cell = Scenario::new(4).partition_g2(g2.clone(), 500);
                for fault in faulty {
                    let _ = session.run(&fault(cell.clone()));
                    runs += 1;
                }
                let _ = session.run_with(&cell, &RunOptions::recording());
                runs += 1;
                assert_eq!(session.executed(), runs, "{}: {g2:?}", kind.name());
            }
        }
    }
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
