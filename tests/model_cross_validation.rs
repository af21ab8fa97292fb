//! Cross-validation between the formal model and the simulator: the two
//! implementations of "the protocol" must agree.
//!
//! * The hand-written termination engine reaches the same decisions in
//!   failure-free runs as the FSA interpreted from the same shape's spec:
//!   HL-3PC against 3PC, HL-4PC against the `FOUR_PHASE` the Theorem 10
//!   Lemma checks judge. Every state an engine site reports on the way is a
//!   state of that spec, and a commit passes all of its wait states.
//! * Every local state a simulated site passes through exists in the FSA
//!   and is reachable.
//! * Local states observed *simultaneously* in a failure-free simulation
//!   are in each other's computed concurrency sets — the simulator
//!   witnesses the model's `C(s)`, never contradicts it.

use ptp_core::model::concurrency::ConcurrencySets;
use ptp_core::model::protocols::{ProtocolShape, FOUR_PHASE, MODIFIED_THREE_PHASE, THREE_PHASE};
use ptp_core::model::{Decision, GlobalGraph, StateKind, StateRef};
use ptp_core::{sweep_serial, ProtocolKind, Scenario, Session, SweepGrid};
use ptp_protocols::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use ptp_protocols::clusters::fsa_cluster_any;
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::{AnyParticipant, Verdict};
use ptp_simnet::{DelayModel, NetConfig, SiteId, Trace, TraceEvent};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// One recorded failure-free run of `shape`'s interpreted FSA under `votes`.
fn interpreted(shape: ProtocolShape, votes: &[Vote], delay: &DelayModel) -> (Verdict, Trace) {
    let cluster = fsa_cluster_any(shape.spec(votes.len() + 1), votes, None);
    let mut runner = ClusterRunner::new(cluster);
    let (outcomes, trace, _) = runner.run(NetConfig::default(), delay, true);
    (Verdict::judge(outcomes), trace)
}

/// An engine site that records every state name it reports.
struct Watched {
    inner: AnyParticipant,
    seen: Arc<Mutex<BTreeSet<(usize, &'static str)>>>,
    site: usize,
}

impl Watched {
    fn after<R>(&mut self, handle: impl FnOnce(&mut AnyParticipant) -> R) -> R {
        let result = handle(&mut self.inner);
        self.seen.lock().unwrap().insert((self.site, self.inner.state_name()));
        result
    }
}

impl Participant for Watched {
    fn start(&mut self, out: &mut Vec<Action>) {
        self.after(|p| p.start(out))
    }
    fn on_msg(&mut self, from: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        self.after(|p| p.on_msg(from, msg, out))
    }
    fn on_ud(&mut self, original_dst: SiteId, msg: &CommitMsg, out: &mut Vec<Action>) {
        self.after(|p| p.on_ud(original_dst, msg, out))
    }
    fn on_timer(&mut self, tag: TimerTag, out: &mut Vec<Action>) {
        self.after(|p| p.on_timer(tag, out))
    }
    fn decision(&self) -> Option<Decision> {
        self.inner.decision()
    }
    fn state_name(&self) -> &'static str {
        self.inner.state_name()
    }
    fn reset(&mut self, vote: Vote) {
        self.after(|p| p.reset(vote))
    }
}

/// One failure-free run of the engine `kind` under `votes`; every state a
/// site reports on the way must be a state of `shape`'s spec, and a commit
/// must pass all of its wait states.
fn engine(kind: ProtocolKind, shape: ProtocolShape, votes: &[Vote], delay: &DelayModel) -> Verdict {
    let n = votes.len() + 1;
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let cluster = kind.cluster(n, votes).into_iter().enumerate();
    let watched = cluster.map(|(site, inner)| Watched { inner, seen: seen.clone(), site });
    let mut runner = ClusterRunner::new(watched.collect());
    let (outcomes, _, _) = runner.run(NetConfig::default(), delay, false);
    let spec = shape.spec(n);
    let seen = seen.lock().unwrap();
    for &(site, name) in seen.iter() {
        let states = &spec.sites[site].states;
        assert!(
            states.iter().any(|s| s.name == name),
            "{}: site {site} reported {name:?}, not a state of {}",
            kind.name(),
            spec.name
        );
    }
    let verdict = Verdict::judge(outcomes);
    if verdict == Verdict::AllCommit {
        for (site, ss) in spec.sites.iter().enumerate() {
            for st in ss.states.iter().filter(|s| s.kind == StateKind::Intermediate) {
                assert!(
                    seen.contains(&(site, st.name.as_str())),
                    "site {site} skipped {}",
                    st.name
                );
            }
        }
    }
    verdict
}

/// Each engine kind with the shape it runs and the shape its failure-free
/// runs are compared against.
const PAIRS: [(ProtocolKind, ProtocolShape, ProtocolShape); 2] = [
    (ProtocolKind::HuangLi3pc, MODIFIED_THREE_PHASE, THREE_PHASE),
    (ProtocolKind::HuangLi4pc, FOUR_PHASE, FOUR_PHASE),
];

#[test]
fn interpreted_and_engine_3pc_agree_failure_free() {
    for (kind, runs, compared) in PAIRS {
        for seed in 0..10u64 {
            let delay = DelayModel::Uniform { seed, min: 1, max: 1000 };
            let (interpreted, _) = interpreted(compared, &[Vote::Yes; 3], &delay);
            let engine = engine(kind, runs, &[Vote::Yes; 3], &delay);
            assert_eq!(interpreted, Verdict::AllCommit, "{} seed {seed}", compared.name);
            assert_eq!(interpreted, engine, "{} seed {seed}", kind.name());
        }
    }
}

#[test]
fn interpreted_and_engine_agree_on_no_votes() {
    for (kind, runs, compared) in PAIRS {
        for votes in [
            [Vote::No, Vote::Yes, Vote::Yes],
            [Vote::Yes, Vote::No, Vote::Yes],
            [Vote::Yes, Vote::Yes, Vote::No],
        ] {
            let delay = DelayModel::Fixed(700);
            let (interpreted, _) = interpreted(compared, &votes, &delay);
            assert_eq!(interpreted, Verdict::AllAbort, "{}", compared.name);
            assert_eq!(engine(kind, runs, &votes, &delay), Verdict::AllAbort, "{}", kind.name());
        }
    }
}

/// Reconstructs per-site state timelines from `enter-state` notes and
/// checks every simultaneously-occupied pair against the model's
/// concurrency sets.
#[test]
fn simulated_concurrency_is_within_model_concurrency_sets() {
    let spec = THREE_PHASE.spec(3);
    let graph = GlobalGraph::explore(&spec);
    let csets = ConcurrencySets::compute(&spec, &graph);

    for seed in 0..20u64 {
        let (_, trace) = interpreted(
            THREE_PHASE,
            &[Vote::Yes; 2],
            &DelayModel::Uniform { seed, min: 1, max: 1000 },
        );
        // Current state per site, updated event by event.
        let mut current: Vec<usize> = vec![0; 3];
        for ev in trace.events() {
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
    let spec = THREE_PHASE.spec(3);
    let graph = GlobalGraph::explore(&spec);
    // Reachable (site, state) pairs from the global graph.
    let mut reachable = std::collections::BTreeSet::new();
    for g in &graph.states {
        for (site, &l) in g.locals.iter().enumerate() {
            reachable.insert((site, l as usize));
        }
    }
    for seed in 0..10u64 {
        let (_, trace) = interpreted(
            THREE_PHASE,
            &[Vote::Yes; 2],
            &DelayModel::Uniform { seed, min: 1, max: 1000 },
        );
        for ev in trace.events() {
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
    let mut session = Session::new(ProtocolKind::Plain3pc, 3);
    assert_eq!(session.run(&Scenario::new(3)).verdict, Verdict::AllCommit);
    let aborted = session.run(&Scenario::new(3).votes(vec![Vote::No, Vote::Yes]));
    assert_eq!(aborted.verdict, Verdict::AllAbort);
}

#[test]
fn fsa_interpreter_handles_partition_like_sim_engine_under_sec3_conditions() {
    // Both the interpreted naive-augmented 3PC and the model's Sec. 3
    // analysis say the same thing: inconsistency exists at n = 3. (The
    // model predicts it via Rule (a) assignments; the simulator exhibits
    // it.)
    let mut grid = SweepGrid::standard(3);
    grid.partition_times = (0..=16).map(|i| i * 250).collect();
    grid.delays = vec![DelayModel::Fixed(1000)];
    let report = sweep_serial(ProtocolKind::Naive3pc, &grid);
    assert!(!report.fully_atomic());
}
