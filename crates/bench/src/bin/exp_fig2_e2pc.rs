//! E2 — Fig. 2: the extended two-phase commit protocol.
//!
//! Two parts:
//! 1. At `n = 2`, the Rule (a)/(b) augmentation (derived mechanically from
//!    the concurrency sets, exactly as Skeen & Stonebraker prescribe) makes
//!    the protocol resilient: an exhaustive two-site sweep finds no
//!    violation and no blocking.
//! 2. At `n = 3`, the same protocol breaks — the paper's Sec. 3
//!    observation. The sweep locates the counterexamples; the first one is
//!    replayed and its decisive events printed.

use ptp_bench::{dense_grid, print_scorecard, standard_delays};
use ptp_core::model::dot::to_dot;
use ptp_core::model::protocols::extended_two_phase;
use ptp_core::model::rules::derive_rules_augmentation;
use ptp_core::{
    sweep_threads, sweep_with_threads, PartitionShape, ProtocolKind, Scenario, Session, SweepGrid,
};
use ptp_protocols::api::Vote;
use ptp_protocols::Verdict;

fn main() {
    println!("== E2 / Fig. 2: extended two-phase commit ==\n");

    let derivation = derive_rules_augmentation(&extended_two_phase(2));
    println!("Rule (a)/(b) augmentation derived at n = 2:");
    for ((role, state), d) in &derivation.augmentation.timeout {
        println!("  timeout {role:?}:{state:<3} -> {d}");
    }
    for ((role, state), d) in &derivation.augmentation.ud {
        println!("  UD      {role:?}:{state:<3} -> {d}");
    }
    println!();

    // Part 1: two sites — resilient.
    let mut grid2 = SweepGrid::standard(2);
    grid2.partition_times = (0..=80).map(|i| i * 100).collect();
    grid2.delays = standard_delays(1000);
    print_scorecard(
        "n = 2: the rules are sufficient (Skeen–Stonebraker)",
        &[ProtocolKind::Extended2pc],
        &grid2,
    );

    // Part 2: three sites — the Sec. 3 counterexample.
    let grid3 = dense_grid(3);
    let report = sweep_with_threads(ProtocolKind::Extended2pc, &grid3, sweep_threads());
    println!(
        "n = 3: {} scenarios, {} atomicity violations, {} blocked",
        report.total, report.inconsistent_count, report.blocked_count
    );
    assert!(report.inconsistent_count > 0, "Sec. 3 counterexample must appear");

    let witness = &report.inconsistent[0];
    println!(
        "\nfirst counterexample: G2 = {:?}, partition at {:.2}T, delay model #{}",
        witness.g2,
        witness.at as f64 / 1000.0,
        witness.delay_index
    );
    let mut scenario =
        Scenario::new(3).votes(vec![Vote::Yes; 2]).delay(grid3.delays[witness.delay_index].clone());
    scenario.partition =
        PartitionShape::Simple { g2: witness.g2.clone(), at: witness.at, heal_at: None };
    let result = Session::new(ProtocolKind::Extended2pc, scenario.n).run(&scenario);
    match &result.verdict {
        Verdict::Inconsistent { committed, aborted } => {
            println!("replayed: committed = {committed:?}, aborted = {aborted:?}");
            println!("(the paper's narrative: one slave receives its commit, the cut slave");
            println!(" times out in w and aborts — \"site2 will receive commit2 and commit");
            println!(" while site3 will make a timeout transition and abort\")");
        }
        other => println!("unexpected verdict on replay: {other:?}"),
    }

    println!(
        "\n--- DOT (Fig. 2, augmented) ---\n{}",
        to_dot(&extended_two_phase(3), Some(&derivation.augmentation))
    );
}
