//! Secs. 2–4: the commit protocols as finite-state automata (Figs. 1–3),
//! the necessary conditions of Lemmas 1 and 2, and Lemma 3's verdict on
//! every timeout/UD augmentation of 3PC.

use super::{counts, in_t, say, Output};
use crate::{dense_grid, standard_delays};
use ptp_core::model::augment::{enumerate_augmentations, find_augmentation};
use ptp_core::model::concurrency::ConcurrencySets;
use ptp_core::model::dot::to_dot;
use ptp_core::model::partition_exec;
use ptp_core::model::protocols::{
    EXTENDED_TWO_PHASE, FOUR_PHASE, MODIFIED_THREE_PHASE, THREE_PHASE, TWO_PHASE,
};
use ptp_core::model::resilience::check_conditions;
use ptp_core::model::rules::derive_rules_augmentation;
use ptp_core::model::{Augmentation, Decision, GlobalGraph, Role};
use ptp_core::report::Table;
use ptp_core::{
    sweep_threads, sweep_with_session, sweep_with_threads, PartitionShape, ProtocolKind, Scenario,
    Session, SessionPool, SweepGrid,
};
use ptp_protocols::api::Vote;
use ptp_protocols::clusters::fsa_cluster_any;
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::Verdict;
use ptp_simnet::{DelayModel, NetConfig, SimTime, SiteId};

/// E1 — Fig. 1: two-phase commit. `C(w_slave)` holds both a commit and an
/// abort, so 2PC blocks when the master is unreachable — but never
/// decides inconsistently.
pub(super) fn fig1() -> Output {
    let mut o = Output::default();
    let spec = TWO_PHASE.spec(3);
    say!(o, "== E1 / Fig. 1: two-phase commit ==\n");
    say!(o, "{spec}");

    let graph = GlobalGraph::explore(&spec);
    let csets = ConcurrencySets::compute(&spec, &graph);
    say!(o, "reachable global states (n=3): {}\n", graph.states.len());

    let mut table = Table::new(vec!["state", "C(s) ∋ commit", "C(s) ∋ abort"]);
    // The last row is the slave's wait state, the one the claim is about.
    let mut slave_w = (false, false);
    for (site, name) in [(0usize, "w1"), (1usize, "w")] {
        let s = spec.state_ref(site, name);
        slave_w = (csets.contains_commit(&spec, s), csets.contains_abort(&spec, s));
        table.row(vec![format!("site{site}:{name}"), slave_w.0.to_string(), slave_w.1.to_string()]);
    }
    say!(o, "{}", table.render());
    say!(o, "paper: the slave wait state has both a commit and an abort concurrent —");
    say!(o, "the blocking diagnosis behind the move to 3PC.\n");
    o.claim(
        "slave_w_sees_commit_and_abort",
        slave_w == (true, true),
        format!("C(site1:w) ∋ commit: {}, ∋ abort: {}", slave_w.0, slave_w.1),
    );

    // Behavioural witness: partition the slaves away after they voted.
    let scenario = Scenario::new(3).partition_g2(vec![SiteId(1), SiteId(2)], 1500);
    let mut session = Session::new(ProtocolKind::Plain2pc, 3);
    let result = session.run(&scenario);
    say!(o, "partition {{0}} | {{1,2}} at 1.5T: verdict = {:?}", result.verdict);
    o.claim(
        "cut_slaves_block",
        matches!(result.verdict, Verdict::Blocked { .. }),
        format!("{:?}", result.verdict),
    );

    let mut grid = dense_grid(3);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    let report = sweep_with_session(&mut session, &grid);
    o.claim(
        "blocks_but_stays_atomic",
        report.fully_atomic() && report.blocked_count > 0,
        format!("2PC, n = 3, T/2 grid: {}", counts(&report)),
    );

    say!(o, "\n--- DOT (Fig. 1) ---\n{}", to_dot(&spec, None));
    o
}

/// E2 — Fig. 2: extended 2PC. The Rule (a)/(b) augmentation, derived from
/// the concurrency sets, makes it resilient at n = 2; at n = 3 it breaks
/// (the Sec. 3 observation), and the first counterexample replays.
pub(super) fn fig2() -> Output {
    let mut o = Output::default();
    say!(o, "== E2 / Fig. 2: extended two-phase commit ==\n");

    let derivation = derive_rules_augmentation(&EXTENDED_TWO_PHASE.spec(2));
    say!(o, "Rule (a)/(b) augmentation derived at n = 2:");
    for ((role, state), d) in &derivation.augmentation.timeout {
        say!(o, "  timeout {role:?}:{state:<3} -> {d}");
    }
    for ((role, state), d) in &derivation.augmentation.ud {
        say!(o, "  UD      {role:?}:{state:<3} -> {d}");
    }
    say!(o);

    // Part 1: two sites — resilient.
    let mut grid2 = SweepGrid::standard(2);
    grid2.partition_times = (0..=80).map(|i| i * 100).collect();
    grid2.delays = standard_delays(1000);
    let [report2] = o
        .scorecard(
            &mut SessionPool::new(),
            "n = 2: the rules are sufficient (Skeen–Stonebraker)",
            &[ProtocolKind::Extended2pc],
            &grid2,
        )
        .try_into()
        .expect("one protocol, one report");
    o.claim("n2_resilient", report2.fully_resilient(), counts(&report2));

    // Part 2: three sites — the Sec. 3 counterexample.
    let grid3 = dense_grid(3);
    let report = sweep_with_threads(ProtocolKind::Extended2pc, &grid3, sweep_threads());
    say!(
        o,
        "n = 3: {} scenarios, {} atomicity violations, {} blocked",
        report.total,
        report.inconsistent_count,
        report.blocked_count
    );
    o.claim("n3_breaks_atomicity", report.inconsistent_count > 0, counts(&report));

    let mut replayed = None;
    if let Some(witness) = report.inconsistent.first() {
        say!(
            o,
            "\nfirst counterexample: G2 = {:?}, partition at {}, delay model #{}",
            witness.g2,
            in_t(witness.at, 2),
            witness.delay_index
        );
        let mut scenario = Scenario::new(3)
            .votes(vec![Vote::Yes; 2])
            .delay(grid3.delays[witness.delay_index].clone());
        scenario.partition =
            PartitionShape::Simple { g2: witness.g2.clone(), at: witness.at, heal_at: None };
        let verdict = Session::new(ProtocolKind::Extended2pc, 3).run(&scenario).verdict;
        match &verdict {
            Verdict::Inconsistent { committed, aborted } => {
                say!(o, "replayed: committed = {committed:?}, aborted = {aborted:?}");
                say!(o, "(the paper's narrative: one slave receives its commit, the cut slave");
                say!(o, " times out in w and aborts — \"site2 will receive commit2 and commit");
                say!(o, " while site3 will make a timeout transition and abort\")");
            }
            other => say!(o, "unexpected verdict on replay: {other:?}"),
        }
        replayed = Some(verdict);
    }
    o.claim(
        "replay_inconsistent",
        matches!(replayed, Some(Verdict::Inconsistent { .. })),
        format!("first counterexample replays as {replayed:?}"),
    );

    say!(
        o,
        "\n--- DOT (Fig. 2, augmented) ---\n{}",
        to_dot(&EXTENDED_TWO_PHASE.spec(3), Some(&derivation.augmentation))
    );
    o
}

/// E3 — Fig. 3: 3PC, the Sec. 3 concurrency-set facts, and the naive
/// Rule (a)/(b) augmentation (timeout in `w` → abort, in `p` → commit)
/// deciding inconsistently.
pub(super) fn fig3() -> Output {
    let mut o = Output::default();
    let spec = THREE_PHASE.spec(3);
    say!(o, "== E3 / Fig. 3: three-phase commit ==\n");

    let graph = GlobalGraph::explore(&spec);
    let csets = ConcurrencySets::compute(&spec, &graph);
    let w3 = spec.state_ref(2, "w");
    let p2 = spec.state_ref(1, "p");
    let facts = [
        csets.contains_abort(&spec, w3),
        csets.contains_commit(&spec, p2),
        csets.of(w3).contains(&p2),
    ];
    say!(o, "Sec. 3 facts, computed over {} reachable global states:", graph.states.len());
    say!(o, "  abort ∈ C(w3): {}", facts[0]);
    say!(o, "  commit ∈ C(p2): {}", facts[1]);
    say!(o, "  p2 ∈ C(w3): {}\n", facts[2]);
    o.claim(
        "sec3_concurrency_facts",
        facts == [true; 3],
        format!("abort ∈ C(w3), commit ∈ C(p2), p2 ∈ C(w3): {facts:?}"),
    );

    let derivation = derive_rules_augmentation(&spec);
    let aug = &derivation.augmentation;
    let (w, p) = (aug.timeout_for(Role::Slave, "w"), aug.timeout_for(Role::Slave, "p"));
    say!(o, "naive Rule (a)/(b) augmentation at n = 3:");
    say!(o, "  timeout slave:w -> {:?} (paper: abort)", w.unwrap());
    say!(o, "  timeout slave:p -> {:?} (paper: commit)", p.unwrap());
    say!(o, "  timeout master:p1 -> {:?}", aug.timeout_for(Role::Master, "p1").unwrap());
    say!(o);
    o.claim(
        "naive_rules_as_paper",
        (w, p) == (Some(Decision::Abort), Some(Decision::Commit)),
        format!("timeout in w -> {w:?}, in p -> {p:?}"),
    );

    let report = sweep_with_threads(ProtocolKind::Naive3pc, &dense_grid(3), sweep_threads());
    if let Some(first) = report.inconsistent.first() {
        say!(
            o,
            "sweep: {} scenarios, {} atomicity violations (first: G2={:?} at {})",
            report.total,
            report.inconsistent_count,
            first.g2,
            in_t(first.at, 2),
        );
    }
    o.claim("naive_breaks_atomicity", report.inconsistent_count > 0, counts(&report));
    say!(o, "\npaper: \"site3 will timeout and abort while site2 will timeout and commit\" —");
    say!(o, "timeout and UD transitions alone cannot fix 3PC (motivating Lemma 3).");

    say!(o, "\n--- DOT (Fig. 3) ---\n{}", to_dot(&spec, None));
    o
}

/// E4 — Lemmas 1 and 2, checked over every protocol's reachable global
/// states at n = 2, 3 and 4.
pub(super) fn lemma12() -> Output {
    let mut o = Output::default();
    say!(o, "== E4: Lemma 1 & Lemma 2 necessary conditions ==\n");
    say!(o, "Lemma 1: no state may have both a commit and an abort in its concurrency set.");
    say!(o, "Lemma 2: no noncommittable state may have a commit in its concurrency set.\n");

    let mut table = Table::new(vec![
        "protocol",
        "n",
        "lemma-1 violations",
        "lemma-2 violations",
        "conditions hold?",
    ]);
    // Every (protocol, n) whose violations differ from what the paper says.
    let mut wrong: Vec<(String, usize)> = Vec::new();
    for n in [2usize, 3, 4] {
        for spec in [
            TWO_PHASE.spec(n),
            EXTENDED_TWO_PHASE.spec(n),
            THREE_PHASE.spec(n),
            MODIFIED_THREE_PHASE.spec(n),
            FOUR_PHASE.spec(n),
        ] {
            let report = check_conditions(&spec);
            let fails = (!report.lemma1.is_empty(), !report.lemma2.is_empty());
            // What the paper (and Sec. 3) predicts for this protocol.
            let expected = match spec.name.as_str() {
                "2PC" => (n >= 3, true),
                "E2PC" => (n >= 3, n >= 3),
                _ => (false, false),
            };
            if fails != expected {
                wrong.push((spec.name.clone(), n));
            }
            table.row(vec![
                spec.name.clone(),
                n.to_string(),
                report.lemma1.len().to_string(),
                report.lemma2.len().to_string(),
                if report.satisfies_conditions() { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    say!(o, "{}", table.render());

    say!(o, "paper: 2PC fails Lemma 2 at every n and Lemma 1 from n = 3; the extended");
    say!(o, "2PC satisfies both at n = 2 and fails both for n ≥ 3 (the Sec. 3");
    say!(o, "observation); 3PC/M3PC/4PC satisfy both, so a termination protocol *can*");
    say!(o, "make them resilient (and Sec. 5 builds it).");
    let claim = |o: &mut Output, name, protocols: &[&str]| {
        let off: Vec<_> = wrong.iter().filter(|(p, _)| protocols.contains(&p.as_str())).collect();
        let detail = if off.is_empty() {
            format!("{protocols:?} at n = 2, 3, 4: as the paper says")
        } else {
            format!("differs from the paper at {off:?}")
        };
        o.claim(name, off.is_empty(), detail);
    };
    claim(&mut o, "2pc_fails_lemma2_always_lemma1_from_n3", &["2PC"]);
    claim(&mut o, "e2pc_holds_at_n2_fails_both_from_n3", &["E2PC"]);
    claim(&mut o, "3pc_m3pc_4pc_satisfy_both", &["3PC", "M3PC", "4PC"]);
    o
}

/// E5 — Lemma 3: *no* assignment of timeout and undeliverable-message
/// transitions makes 3PC resilient to multisite simple partitioning. All
/// `4^6 = 4096` assignments over 3PC's non-final states are searched for a
/// violation twice: on a timed scenario grid, and by the paper's own
/// untimed adversary ([`partition_exec`]).
pub(super) fn lemma3() -> Output {
    let mut o = Output::default();
    say!(o, "== E5 / Lemma 3: exhaustive augmentation search ==\n");
    let spec = THREE_PHASE.spec(3);
    let augmentations = enumerate_augmentations(&spec);
    let rules_index = find_augmentation(&spec, &derive_rules_augmentation(&spec).augmentation);
    let total = augmentations.len();
    say!(o, "enumerating {total} total timeout/UD assignments over 3PC's non-final states");
    let (b, i, d, v) = (BOUNDARIES.len(), INSTANTS, DELAYS.len(), VOTES.len());
    say!(
        o,
        "scenario grid: {b} boundaries x {i} instants x {d} delay models x {v} vote vectors = {} per assignment\n",
        b * i * d * v
    );
    let mut survivors: Vec<usize> = Vec::new();
    let mut table = Table::new(vec!["assignment #", "violating G2", "partition at"]);
    let mut samples = 0;
    for (i, aug) in augmentations.iter().enumerate() {
        match timed_violation(aug) {
            Some((g2, at)) if samples < 5 || Some(i) == rules_index => {
                samples += 1;
                let tag = if Some(i) == rules_index { " (Rule a/b)" } else { "" };
                table.row(vec![format!("{i}{tag}"), format!("{g2:?}"), in_t(at, 2)]);
            }
            Some(_) => {}
            None => survivors.push(i),
        }
    }
    let broken = total - survivors.len();
    say!(o, "assignments with an atomicity violation: {broken} / {total}");
    say!(o, "assignments surviving the grid:          {}\n", survivors.len());
    say!(o, "sample counterexamples:\n{}", table.render());
    if survivors.is_empty() {
        say!(o, "Lemma 3 reproduced: every augmentation fails somewhere on the grid.");
    } else {
        say!(o, "survivors of this grid: {:?}", &survivors[..survivors.len().min(10)]);
    }
    o.claim(
        "timed_adversary_breaks_all_4096",
        total == 4096 && survivors.is_empty(),
        format!("{broken} of {total} assignments broken"),
    );

    say!(o, "\n-- abstract adversary (ptp_model::partition_exec), exhaustive --");
    let abstract_broken = augmentations
        .iter()
        .filter(|aug| partition_exec::find_violation(&spec, aug).is_some())
        .count();
    say!(
        o,
        "assignments with an abstract violation: {abstract_broken} / {total} (survivors: {})",
        total - abstract_broken
    );
    say!(o, "Both adversaries — the timed bounded-delay one and the paper's untimed");
    say!(o, "one — agree: timeout and undeliverable-message transitions cannot make");
    say!(o, "3PC resilient to multisite simple partitioning.");
    o.claim(
        "abstract_adversary_breaks_all_4096",
        total == 4096 && abstract_broken == total,
        format!("{abstract_broken} of {total} assignments broken"),
    );
    o
}

/// Lemma 3's timed grid: every boundary, T/2 instants from 0 to 8T, two
/// delay schedules, and both unanimous-yes and one-no votes (assignments
/// that blindly commit on every timeout survive all-yes grids but
/// contradict a unilateral abort).
const BOUNDARIES: [&[SiteId]; 3] = [&[SiteId(1)], &[SiteId(2)], &[SiteId(1), SiteId(2)]];
const INSTANTS: usize = 17;
const DELAYS: [DelayModel; 2] = [DelayModel::Fixed(1000), DelayModel::Fixed(500)];
const VOTES: [[Vote; 2]; 2] = [[Vote::Yes, Vote::Yes], [Vote::No, Vote::Yes]];

/// The first cell of Lemma 3's timed grid where 3PC augmented by `aug`
/// decides inconsistently. The cluster is built once and reset per cell.
fn timed_violation(aug: &Augmentation) -> Option<(Vec<SiteId>, u64)> {
    let cluster = fsa_cluster_any(THREE_PHASE.spec(3), &[Vote::Yes; 2], Some(aug.clone()));
    let mut runner = ClusterRunner::new(cluster);
    for g2 in BOUNDARIES {
        for at in (0..INSTANTS as u64).map(|i| i * 500) {
            for delay in &DELAYS {
                for votes in &VOTES {
                    runner.reset(votes);
                    let groups = runner.faults_mut().partition.reset_single(SimTime(at), None, 2);
                    groups[0].extend((0..3u16).map(SiteId).filter(|s| !g2.contains(s)));
                    groups[1].extend_from_slice(g2);
                    let (outcomes, _, _) = runner.run(NetConfig::default(), delay, false);
                    if matches!(Verdict::judge(outcomes), Verdict::Inconsistent { .. }) {
                        return Some((g2.to_vec(), at));
                    }
                }
            }
        }
    }
    None
}
