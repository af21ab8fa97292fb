//! Cross-validation between the formal model and the simulator: the two
//! implementations of "the protocol" must agree.
//!
//! * The FSA-interpreted 3PC and the hand-written termination engine reach
//!   the same decisions in failure-free runs.
//! * Every local state a simulated site passes through exists in the FSA
//!   and is reachable.
//! * Local states observed *simultaneously* in a failure-free simulation
//!   are in each other's computed concurrency sets — the simulator
//!   witnesses the model's `C(s)`, never contradicts it.

use ptp_core::model::concurrency::ConcurrencySets;
use ptp_core::model::protocols::three_phase;
use ptp_core::model::{GlobalGraph, StateRef};
use ptp_core::{run_scenario, ProtocolKind, Scenario};
use ptp_protocols::api::Vote;
use ptp_protocols::runner::run_protocol;
use ptp_protocols::Verdict;
use ptp_simnet::{DelayModel, NetConfig, PartitionEngine, TraceEvent};

#[test]
fn interpreted_and_engine_3pc_agree_failure_free() {
    for seed in 0..10u64 {
        let delay = DelayModel::Uniform { seed, min: 1, max: 1000 };
        let interpreted = run_protocol(
            ProtocolKind::Plain3pc.cluster(4, &[Vote::Yes; 3]),
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &delay,
        );
        let engine = run_scenario(ProtocolKind::HuangLi3pc, &Scenario::new(4).delay(delay));
        assert_eq!(Verdict::judge(&interpreted.outcomes), engine.verdict, "seed {seed}");
    }
}

#[test]
fn interpreted_and_engine_agree_on_no_votes() {
    for votes in [
        [Vote::No, Vote::Yes, Vote::Yes],
        [Vote::Yes, Vote::No, Vote::Yes],
        [Vote::Yes, Vote::Yes, Vote::No],
    ] {
        let interpreted = run_protocol(
            ProtocolKind::Plain3pc.cluster(4, &votes),
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(700),
        );
        let engine = run_scenario(
            ProtocolKind::HuangLi3pc,
            &Scenario::new(4).votes(votes.to_vec()).delay(DelayModel::Fixed(700)),
        );
        assert_eq!(Verdict::judge(&interpreted.outcomes), Verdict::AllAbort);
        assert_eq!(engine.verdict, Verdict::AllAbort);
    }
}

/// Reconstructs per-site state timelines from `enter-state` notes and
/// checks every simultaneously-occupied pair against the model's
/// concurrency sets.
#[test]
fn simulated_concurrency_is_within_model_concurrency_sets() {
    let spec = three_phase(3);
    let graph = GlobalGraph::explore(&spec);
    let csets = ConcurrencySets::compute(&spec, &graph);

    for seed in 0..20u64 {
        let run = run_protocol(
            ProtocolKind::Plain3pc.cluster(3, &[Vote::Yes; 2]),
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &DelayModel::Uniform { seed, min: 1, max: 1000 },
        );
        // Current state per site, updated event by event.
        let mut current: Vec<usize> = vec![0; 3];
        for ev in run.trace.events() {
            if let TraceEvent::Note { site, label: "enter-state", detail, .. } = ev {
                current[site.index()] = *detail as usize;
                // After every transition, all pairs must be mutually
                // concurrent in the model.
                for i in 0..3usize {
                    for j in 0..3usize {
                        if i == j {
                            continue;
                        }
                        let si = StateRef { site: i, state: current[i] };
                        let sj = StateRef { site: j, state: current[j] };
                        assert!(
                            csets.of(si).contains(&sj),
                            "seed {seed}: observed {}:{} concurrent with {}:{} — not in C(s)",
                            i,
                            spec.state_name(si),
                            j,
                            spec.state_name(sj),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_simulated_state_is_reachable_in_the_model() {
    let spec = three_phase(3);
    let graph = GlobalGraph::explore(&spec);
    // Reachable (site, state) pairs from the global graph.
    let mut reachable = std::collections::BTreeSet::new();
    for g in &graph.states {
        for (site, &l) in g.locals.iter().enumerate() {
            reachable.insert((site, l as usize));
        }
    }
    for seed in 0..10u64 {
        let run = run_protocol(
            ProtocolKind::Plain3pc.cluster(3, &[Vote::Yes; 2]),
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &DelayModel::Uniform { seed, min: 1, max: 1000 },
        );
        for ev in run.trace.events() {
            if let TraceEvent::Note { site, label: "enter-state", detail, .. } = ev {
                assert!(
                    reachable.contains(&(site.index(), *detail as usize)),
                    "seed {seed}: site {site} entered unreachable state {detail}"
                );
            }
        }
    }
}

#[test]
fn decisions_match_terminal_global_states() {
    // Failure-free terminal global states of the model are all-commit or
    // all-abort; simulated runs must land in one of them.
    let result = run_scenario(ProtocolKind::Plain3pc, &Scenario::new(3));
    assert_eq!(result.verdict, Verdict::AllCommit);
    let aborted =
        run_scenario(ProtocolKind::Plain3pc, &Scenario::new(3).votes(vec![Vote::No, Vote::Yes]));
    assert_eq!(aborted.verdict, Verdict::AllAbort);
}

#[test]
fn fsa_interpreter_handles_partition_like_sim_engine_under_sec3_conditions() {
    // Both the interpreted naive-augmented 3PC and the model's Sec. 3
    // analysis say the same thing: inconsistency exists at n = 3. (The
    // model predicts it via Rule (a) assignments; the simulator exhibits
    // it.)
    use ptp_core::{sweep, SweepGrid};
    let mut grid = SweepGrid::standard(3);
    grid.partition_times = (0..=16).map(|i| i * 250).collect();
    grid.delays = vec![DelayModel::Fixed(1000)];
    let report = sweep(ProtocolKind::Naive3pc, &grid);
    assert!(!report.fully_atomic());
}
