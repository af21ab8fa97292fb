//! The reproduction of Huang & Li (ICDE 1987) as one checked artifact,
//! [`paper`] — a registry of every experiment and the claims it asserts,
//! run by the `exp` binary and by `tests/paper.rs`; three of its entries
//! return a committed record — and [`record`], the one writer of all three
//! `BENCH_*.json` records.
//!
//! How fast anything is — sweeps, the database, the sharded store, the
//! live server, the instruments — is the business of the frozen
//! `benchmark/` package alone (ARCHITECTURE.md maps each retired `bench_*`
//! binary to its rungs). `PTP_SWEEP_THREADS` caps the sweep worker count;
//! sweeps are parallel by default and deterministic at any thread count.

pub mod paper;
pub mod record;

use ptp_core::SweepGrid;
use ptp_simnet::DelayModel;

/// The delay schedules used by default across experiments: the slowest
/// admissible network, a half-speed one, a near-instant one, and two seeded
/// random ones.
pub fn standard_delays(t: u64) -> Vec<DelayModel> {
    vec![
        DelayModel::Fixed(t),
        DelayModel::Fixed(t / 2),
        DelayModel::Fixed(1),
        DelayModel::Uniform { seed: 11, min: 1, max: t },
        DelayModel::Uniform { seed: 97, min: t / 2, max: t },
    ]
}

/// A dense sweep grid used by several experiments: all boundaries, T/8
/// partition instants up to 8T, standard delays.
pub fn dense_grid(n: usize) -> SweepGrid {
    let mut grid = SweepGrid::standard(n);
    grid.partition_times = (0..=64).map(|i| i * 125).collect();
    grid.delays = standard_delays(1000);
    grid
}

/// Median of the samples (sorts in place; mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_of(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_delays_count() {
        assert_eq!(standard_delays(1000).len(), 5);
    }

    #[test]
    fn dense_grid_has_dense_times() {
        let g = dense_grid(3);
        assert_eq!(g.partition_times.len(), 65);
        assert_eq!(g.partition_times[1] - g.partition_times[0], 125);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median_of(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_of(&mut [7.0]), 7.0);
    }
}
