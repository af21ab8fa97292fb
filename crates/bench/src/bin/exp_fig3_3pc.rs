//! E3 — Fig. 3: the three-phase commit protocol and the failure of its
//! naive Rule (a)/(b) augmentation in the multisite case.
//!
//! Verifies the paper's Sec. 3 concurrency-set facts (`abort ∈ C(w3)`,
//! `commit ∈ C(p2)`, `p2 ∈ C(w3)`), derives the naive augmentation
//! (timeout in `w` → abort, timeout in `p` → commit), and exhibits the
//! inconsistent execution the paper describes.

use ptp_bench::dense_grid;
use ptp_core::model::concurrency::ConcurrencySets;
use ptp_core::model::dot::to_dot;
use ptp_core::model::protocols::three_phase;
use ptp_core::model::rules::derive_rules_augmentation;
use ptp_core::model::{GlobalGraph, Role};
use ptp_core::{sweep_threads, sweep_with_threads, ProtocolKind};

fn main() {
    let spec = three_phase(3);
    println!("== E3 / Fig. 3: three-phase commit ==\n");

    let graph = GlobalGraph::explore(&spec);
    let csets = ConcurrencySets::compute(&spec, &graph);
    let w3 = spec.state_ref(2, "w");
    let p2 = spec.state_ref(1, "p");
    println!("Sec. 3 facts, computed over {} reachable global states:", graph.states.len());
    println!("  abort ∈ C(w3): {}", csets.contains_abort(&spec, w3));
    println!("  commit ∈ C(p2): {}", csets.contains_commit(&spec, p2));
    println!("  p2 ∈ C(w3): {}\n", csets.of(w3).contains(&p2));
    assert!(csets.contains_abort(&spec, w3));
    assert!(csets.contains_commit(&spec, p2));
    assert!(csets.of(w3).contains(&p2));

    let derivation = derive_rules_augmentation(&spec);
    let aug = &derivation.augmentation;
    println!("naive Rule (a)/(b) augmentation at n = 3:");
    println!(
        "  timeout slave:w -> {:?} (paper: abort)",
        aug.timeout_for(Role::Slave, "w").unwrap()
    );
    println!(
        "  timeout slave:p -> {:?} (paper: commit)",
        aug.timeout_for(Role::Slave, "p").unwrap()
    );
    println!("  timeout master:p1 -> {:?}", aug.timeout_for(Role::Master, "p1").unwrap());
    println!();

    let report = sweep_with_threads(ProtocolKind::Naive3pc, &dense_grid(3), sweep_threads());
    println!(
        "sweep: {} scenarios, {} atomicity violations (first: G2={:?} at {:.2}T)",
        report.total,
        report.inconsistent_count,
        report.inconsistent[0].g2,
        report.inconsistent[0].at as f64 / 1000.0,
    );
    assert!(report.inconsistent_count > 0);
    println!("\npaper: \"site3 will timeout and abort while site2 will timeout and commit\" —");
    println!("timeout and UD transitions alone cannot fix 3PC (motivating Lemma 3).");

    println!("\n--- DOT (Fig. 3) ---\n{}", to_dot(&spec, None));
}
