//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`) that
//! regenerate every figure and table of Huang & Li (ICDE 1987), and for the
//! two emitters that pin a *claim* in a committed record.
//!
//! Experiment ↔ paper map (see ARCHITECTURE.md for the full index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_fig1_2pc` | Fig. 1 + the 2PC blocking diagnosis |
//! | `exp_fig2_e2pc` | Fig. 2 + the Sec. 3 multisite counterexample |
//! | `exp_fig3_3pc` | Fig. 3 + the naive-augmentation counterexample |
//! | `exp_lemma12_conditions` | Lemmas 1 & 2 |
//! | `exp_lemma3_augmentations` | Lemma 3 |
//! | `exp_fig5_timeouts` | Fig. 5 |
//! | `exp_fig6_probe_bound` | Fig. 6 |
//! | `exp_fig7_wait_w_bound` | Fig. 7 |
//! | `exp_fig9_case_table` | Fig. 9 + the Sec. 6 case table |
//! | `exp_thm9_resilience` | Theorem 9 |
//! | `exp_thm10_generic` | Theorem 10 |
//! | `exp_impossibility` | the Sec. 2 impossibility theorems |
//! | `exp_assumptions` | the Sec. 7 assumption-necessity counterexamples |
//! | `exp_blocking_availability` | Sec. 1–2 motivation (locks + blocking) |
//! | `exp_quorum_baseline` | reference \[5\] baseline comparison |
//! | `exp_multi_partition` | partition-schedule families beyond the paper's model (`BENCH_schedule.json`) |
//! | `exp_shard_availability` | shard-level availability of the sharded store under each schedule family |
//! | `bench_read` | local read paths ≥ 5× the commit-round path (`BENCH_read.json`) |
//! | `bench_campaign` | all-green safe campaigns (protocol cluster, sharded store) + the shrunk 2PC counterexample (`BENCH_campaign.json`) |
//!
//! How fast anything is — sweeps, the database, the sharded store, the
//! live server, the instruments — is the business of the frozen
//! `benchmark/` package alone (ARCHITECTURE.md maps each retired `bench_*`
//! binary to its rungs). The three records above go through [`record`],
//! the one writer. `PTP_SWEEP_THREADS` caps the sweep worker count; sweeps
//! are parallel by default and deterministic at any thread count.

pub mod record;

use ptp_core::report::Table;
use ptp_core::{sweep_with_session, ProtocolKind, SessionPool, SweepGrid, SweepReport};
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

/// The measurement budget in milliseconds: `BENCH_BUDGET_MS` if set (the
/// CI smoke runs set 20), else `default`. Both emitters scale their sample
/// counts from this one knob.
pub fn bench_budget_ms(default: u64) -> u64 {
    std::env::var("BENCH_BUDGET_MS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
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

/// Renders a sweep report as one table row.
pub fn sweep_row(kind: ProtocolKind, report: &SweepReport) -> Vec<String> {
    vec![
        kind.name().to_string(),
        report.total.to_string(),
        report.all_commit.to_string(),
        report.all_abort.to_string(),
        report.blocked_count.to_string(),
        report.inconsistent_count.to_string(),
        if report.fully_resilient() { "YES".into() } else { "no".into() },
    ]
}

/// Runs a set of protocols over one grid and prints the scorecard:
/// [`print_scorecard_pooled`] over clusters of its own.
pub fn print_scorecard(title: &str, kinds: &[ProtocolKind], grid: &SweepGrid) {
    print_scorecard_pooled(&mut SessionPool::new(), title, kinds, grid);
}

/// Prints the scorecard of `kinds` over `grid`, each swept serially through
/// the caller's [`SessionPool`]: every `(kind, n)` cluster is built once for
/// the whole binary and reused across every grid it sweeps, and the line
/// under the table — how many of the cells were simulated rather than
/// proved ([`ptp_core::Session::executed`]) — does not depend on a thread
/// count.
pub fn print_scorecard_pooled(
    pool: &mut SessionPool,
    title: &str,
    kinds: &[ProtocolKind],
    grid: &SweepGrid,
) {
    println!("== {title} ==");
    println!("({} scenarios per protocol)\n", grid.size());
    let mut table = Table::new(vec![
        "protocol",
        "scenarios",
        "all-commit",
        "all-abort",
        "blocked",
        "inconsistent",
        "resilient?",
    ]);
    let mut simulated = 0;
    for &kind in kinds {
        let session = pool.session(kind, grid.n);
        let before = session.executed();
        let report = sweep_with_session(session, grid);
        simulated += session.executed() - before;
        table.row(sweep_row(kind, &report));
    }
    println!("{}", table.render());
    println!("(simulated {simulated} of {} cells)\n", kinds.len() * grid.size());
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
    fn sweep_row_shape() {
        let report = SweepReport::default();
        assert_eq!(sweep_row(ProtocolKind::Plain2pc, &report).len(), 7);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median_of(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_of(&mut [7.0]), 7.0);
    }
}
