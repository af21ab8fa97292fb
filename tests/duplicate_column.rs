//! Duplication alone never creates an inconsistency.
//!
//! For every protocol kind at n ∈ {3, 4}, every cell of the standard
//! Theorem 9 grid — widened by a vote axis (all yes; the last slave votes
//! no) and a fourth delay schedule — runs once as it is, then once more for
//! each message of that run, with that one message duplicated at +1 tick
//! and at +`T`. A cell may be `Inconsistent` with a duplicate only if it is
//! `Inconsistent` without one. The column is exhaustive, not sampled.
//!
//! The vote axis is what gives the check teeth: on a unanimous grid a
//! Quorum master that counts votes instead of voters stays atomic, and with
//! the no-vote it does not. A release build runs the whole column (CI's
//! "Duplication alone" step); the debug build of tier-1 runs every
//! [`DEBUG_STRIDE`]th cell.

#[path = "common/grid.rs"]
mod grid;

use grid::scenario_of;
use ptp_core::{ProtocolKind, RunOptions, Session, SweepGrid};
use ptp_protocols::{Verdict, Vote};
use ptp_simnet::{DelayModel, EnvelopeFault, EnvelopeMatch, SimDuration};

/// Ticks per `T` on the standard grid.
const T: u64 = 1000;

/// A debug build checks every this-many-th cell.
const DEBUG_STRIDE: usize = 17;

/// The standard grid at `n`, with the vote axis and a fourth delay.
fn grid(n: usize) -> SweepGrid {
    let mut no = vec![Vote::Yes; n - 1];
    no[n - 2] = Vote::No;
    let mut grid = SweepGrid::standard(n).with_votes(vec![vec![Vote::Yes; n - 1], no]);
    grid.delays.push(DelayModel::Uniform { seed: 11, min: 1, max: T });
    grid
}

/// Every `(cell, message, after)` of `kind` at `n` that a duplicate turns
/// `Inconsistent`, and how many duplicated runs the column took.
fn column(kind: ProtocolKind, n: usize) -> (Vec<(usize, u32, u64)>, usize) {
    let grid = grid(n);
    let stride = if cfg!(debug_assertions) { DEBUG_STRIDE } else { 1 };
    let mut session = Session::new(kind, n);
    let (mut found, mut runs) = (Vec::new(), 0);
    for index in (0..grid.size()).step_by(stride) {
        let mut scenario = scenario_of(&grid, &grid.scenario(index));
        let plain = session.run(&scenario);
        if matches!(plain.verdict, Verdict::Inconsistent { .. }) {
            continue;
        }
        for message in 0..plain.report.counters.sent as u32 {
            for after in [1, T] {
                let twice = EnvelopeMatch::any().nth(message);
                scenario.faults.env_faults =
                    vec![EnvelopeFault::duplicate(twice, SimDuration(after))];
                runs += 1;
                let verdict = session.verdict(&scenario, &RunOptions::new());
                if matches!(verdict, Verdict::Inconsistent { .. }) {
                    found.push((index, message, after));
                }
            }
        }
    }
    (found, runs)
}

#[test]
fn duplicating_any_one_message_never_creates_an_inconsistency() {
    for kind in ProtocolKind::ALL {
        for n in [3, 4] {
            let (found, runs) = column(kind, n);
            assert!(
                runs > grid(n).size() / DEBUG_STRIDE,
                "{} at n = {n}: {runs} runs",
                kind.name()
            );
            assert!(
                found.is_empty(),
                "{} at n = {n}: (cell, message, after) {found:?}",
                kind.name()
            );
        }
    }
}
