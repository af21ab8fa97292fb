//! A warm `Session` answers a scenario without simulating it when a run it
//! already simulated provably is the scenario's run (`ptp_core::session`,
//! "Proving before simulating"): the partition-free run of its key (rule 1),
//! or, under a fixed delay, a twin with as many slaves of every colour,
//! relabelled (rule 2). Whatever it answers must be what a fresh session —
//! which remembers nothing — computes for the same scenario, field for
//! field: verdict (its site lists included), per-site outcomes, report and
//! trace.
//!
//! Every cell of `ptp_bench::dense_grid(3)` and `dense_grid(4)` (whose fixed
//! delays put a partition instant *on* each column's last landing, checked
//! below), then a schedule-family grid with `Scheduled` and `PerLink`
//! delays, a `No` vote, transient heals and the pessimistic model, then a
//! fixed-delay schedule-family grid of same-size boundaries with a `No` at
//! different slaves, where rule 2 answers, for all eight protocol kinds,
//! with recording off and on. A scenario with a crash or another
//! non-partition fault is never answered from the memo and never teaches
//! it.

#[path = "common/grid.rs"]
mod grid;

use grid::scenario_of;
use ptp_bench::dense_grid;
use ptp_core::{
    ProtocolKind, RunOptions, Scenario, ScenarioResult, ScheduleShape, Session, SweepGrid,
};
use ptp_protocols::Vote;
use ptp_simnet::{
    DegradeWindow, DelayModel, EnvelopeFault, EnvelopeMatch, FailureSpec, SimTime, SiteId,
};

/// Asserts `warm` is `fresh`, field for field.
fn assert_same(warm: &ScenarioResult, fresh: &ScenarioResult, cell: &str) {
    assert_eq!(warm.verdict, fresh.verdict, "verdict, {cell}");
    assert_eq!(warm.outcomes, fresh.outcomes, "outcomes, {cell}");
    let (w, f) = (&warm.report, &fresh.report);
    assert_eq!(w.stop, f.stop, "report.stop, {cell}");
    assert_eq!(w.ended_at, f.ended_at, "report.ended_at, {cell}");
    assert_eq!(w.events, f.events, "report.events, {cell}");
    assert_eq!(w.counters, f.counters, "report.counters, {cell}");
    assert_eq!(w.last_landing, f.last_landing, "report.last_landing, {cell}");
    assert_eq!(warm.trace.events(), fresh.trace.events(), "trace, {cell}");
}

/// Runs every cell of `grid` through the `warm` session, recording off and
/// on in turn, and through a fresh session per cell, and returns how many
/// answers the warm session gave without simulating. The fresh session
/// simulates both of its runs: recording is part of the memo's key.
fn check_grid(warm: &mut Session, kind: ProtocolKind, grid: &SweepGrid) -> u64 {
    let mut answered = 0;
    for index in 0..grid.size() {
        let scenario = scenario_of(grid, &grid.scenario(index));
        let mut fresh = Session::new(kind, grid.n);
        for options in [RunOptions::new(), RunOptions::recording()] {
            let before = warm.executed();
            let answer = warm.run_with(&scenario, &options);
            answered += 1 - (warm.executed() - before);
            let cell = format!("{} cell {index} of n = {}, {options:?}", kind.name(), grid.n);
            assert_same(&answer, &fresh.run_with(&scenario, &options), &cell);
        }
        assert_eq!(fresh.executed(), 2, "the oracle simulates every run");
    }
    answered
}

#[test]
fn a_warm_session_answers_every_dense_grid_cell_as_a_fresh_one_runs_it() {
    for n in [3, 4] {
        let grid = dense_grid(n);
        for kind in ProtocolKind::ALL {
            // The strict bound is exercised: under each fixed delay some
            // cell's partition starts exactly at the last landing.
            for delay in [DelayModel::Fixed(1000), DelayModel::Fixed(500)] {
                let clean = Session::new(kind, n).run(&Scenario::new(n).delay(delay));
                let last_landing = clean.report.last_landing.ticks();
                assert!(
                    grid.partition_times.contains(&last_landing),
                    "{}: no instant at the last landing {last_landing}",
                    kind.name()
                );
            }
            let answered = check_grid(&mut Session::new(kind, n), kind, &grid);
            assert!(answered > 0, "{} at n = {n}: the memo answered nothing", kind.name());
        }
    }
}

#[test]
fn a_warm_session_answers_schedule_families_under_every_delay_kind_and_mode() {
    let mut grid = SweepGrid::schedule_families(4).with_transient_heals(1);
    grid.boundaries = vec![vec![SiteId(1)], vec![SiteId(2), SiteId(3)]];
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    grid.delays = vec![
        DelayModel::Scheduled {
            overrides: [((2, false), 1000), ((4, true), 250)].into(),
            default: 400,
        },
        DelayModel::PerLink {
            links: [((0, 1), 1000), ((1, 0), 200), ((0, 3), 700)].into(),
            default: 500,
        },
    ];
    grid.votes = vec![vec![Vote::Yes; 3], vec![Vote::Yes, Vote::No, Vote::Yes]];
    let grids = [grid.clone(), grid.pessimistic()];
    for kind in ProtocolKind::ALL {
        // One warm session for both models: the mode is part of the key.
        let mut warm = Session::new(kind, 4);
        for grid in &grids {
            let answered = check_grid(&mut warm, kind, grid);
            assert!(answered > 0, "{} {:?}: the memo answered nothing", kind.name(), grid.mode);
        }
    }
}

#[test]
fn a_symmetric_answer_is_the_run_a_fresh_session_simulates() {
    // Five boundaries in two sizes, a `No` at the first or the last slave,
    // two fixed delays, permanent and healing partitions, every schedule
    // family, both models: most cells have a twin. `run` and `run_with`
    // answer alike; `run` asks here.
    let mut grid = SweepGrid::schedule_families(4);
    grid.boundaries = vec![
        vec![SiteId(1)],
        vec![SiteId(2)],
        vec![SiteId(3)],
        vec![SiteId(1), SiteId(2)],
        vec![SiteId(2), SiteId(3)],
    ];
    grid.partition_times = (0..=5).map(|i| i * 500).collect();
    grid.heals = vec![None, Some(1000)];
    grid.delays = vec![DelayModel::Fixed(1000), DelayModel::Fixed(1)];
    grid.votes = vec![
        vec![Vote::Yes; 3],
        vec![Vote::No, Vote::Yes, Vote::Yes],
        vec![Vote::Yes, Vote::Yes, Vote::No],
    ];
    assert_eq!(grid.shapes, ScheduleShape::FAMILIES);
    for grid in [grid.clone(), grid.pessimistic()] {
        for kind in ProtocolKind::ALL {
            // Rule 1 answers a cell whose first episode starts after the
            // last landing of its partition-free run; rule 2 answers the
            // other answered cells.
            let last_landing: Vec<Vec<u64>> = (grid.delays.iter())
                .map(|delay| {
                    let clean = |votes: &Vec<Vote>| {
                        let mut clean = Scenario::new(4).delay(delay.clone()).votes(votes.clone());
                        clean.mode = grid.mode;
                        Session::new(kind, 4).run(&clean).report.last_landing.ticks()
                    };
                    grid.votes.iter().map(clean).collect()
                })
                .collect();
            let mut warm = Session::new(kind, 4);
            let mut symmetric = 0;
            for index in 0..grid.size() {
                let spec = grid.scenario(index);
                let scenario = scenario_of(&grid, &spec);
                let before = warm.executed();
                let answer = warm.run(&scenario);
                if warm.executed() == before
                    && spec.at <= last_landing[spec.delay_index][spec.vote_index]
                {
                    symmetric += 1;
                }
                let cell = format!("{} cell {index}, {:?}", kind.name(), grid.mode);
                assert_same(&answer, &Session::new(kind, 4).run(&scenario), &cell);
            }
            assert!(symmetric > 0, "{} {:?}: rule 2 answered nothing", kind.name(), grid.mode);
        }
    }
}

#[test]
fn a_scenario_with_other_faults_is_never_answered_from_the_memo() {
    for kind in ProtocolKind::ALL {
        let mut session = Session::new(kind, 3);
        let clean = Scenario::new(3);
        let last_landing = session.run(&clean).report.last_landing.ticks();
        let late = clean.clone().partition_g2(vec![SiteId(2)], last_landing + 1);
        // The memo knows this key: a late partition is answered...
        let before = session.executed();
        let _ = session.run(&late);
        assert_eq!(session.executed(), before, "{}", kind.name());
        // ... but not once the scenario also crashes a site, degrades a
        // delay window or faults an envelope after the last landing, and
        // none of those scenarios teaches the memo anything.
        let crash = late.clone().fail(FailureSpec::crash(SiteId(1), SimTime(last_landing + 1)));
        let mut degraded = late.clone();
        degraded.faults.degrades.push(DegradeWindow::new(SimTime(last_landing + 1), None, 1, 10));
        let mut dropped = late.clone();
        dropped.faults.env_faults.push(EnvelopeFault::drop(EnvelopeMatch::any().nth(0)));
        for faulty in [&crash, &degraded, &dropped, &crash, &degraded, &dropped] {
            let before = session.executed();
            let answer = session.run_with(faulty, &RunOptions::recording());
            assert_eq!(session.executed(), before + 1, "{}: {faulty:?}", kind.name());
            let fresh = Session::new(kind, 3).run_with(faulty, &RunOptions::recording());
            assert_same(&answer, &fresh, kind.name());
        }
        // The crash is an event of its own: the memo's answer would have
        // been wrong.
        let crashed = session.run(&crash);
        assert_eq!(crashed.report.counters.crashes, 1, "{}", kind.name());
    }
}
