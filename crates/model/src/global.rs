//! Global-state reachability.
//!
//! Sec. 2: "The global state of a distributed transaction consists of (1) a
//! global state vector containing the local states of the participating
//! sites, (2) the outstanding messages in the network." This module
//! enumerates every global state reachable in failure-free executions — the
//! universe the paper's concurrency sets and committable classifications are
//! defined over.

use crate::fsa::{Msg, ProtocolSpec};
use std::collections::{HashMap, VecDeque};

/// A global state: local state per site plus outstanding messages.
///
/// `msgs` is a sorted multiset (commit protocols never have two identical
/// outstanding message instances, but the representation tolerates it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalState {
    /// Local state index per site.
    pub locals: Vec<u8>,
    /// Outstanding messages, sorted.
    pub msgs: Vec<Msg>,
}

impl GlobalState {
    /// The initial global state: every site in its initial state, no
    /// messages outstanding.
    pub fn initial(spec: &ProtocolSpec) -> GlobalState {
        GlobalState { locals: vec![0; spec.n()], msgs: Vec::new() }
    }

    /// Applies a transition of `site`: consumes `reads`, produces `writes`,
    /// moves the local state.
    fn apply(&self, site: usize, to: usize, reads: &[Msg], writes: &[Msg]) -> GlobalState {
        let mut next = self.clone();
        for r in reads {
            let pos = next.msgs.iter().position(|m| m == r).expect("read not outstanding");
            next.msgs.remove(pos);
        }
        next.msgs.extend_from_slice(writes);
        next.msgs.sort_unstable();
        next.locals[site] = to as u8;
        next
    }
}

/// An edge in the global-state graph: site `site` took its transition number
/// `transition`, moving global state `from` to `to` (indices into
/// [`GlobalGraph::states`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalEdge {
    /// Source global state index.
    pub from: usize,
    /// Site that moved.
    pub site: usize,
    /// Index of the transition in that site's spec.
    pub transition: usize,
    /// Destination global state index.
    pub to: usize,
}

/// The reachable global-state graph of a protocol.
#[derive(Debug, Clone)]
pub struct GlobalGraph {
    /// All reachable global states; index 0 is the initial state.
    pub states: Vec<GlobalState>,
    /// All transitions between reachable states.
    pub edges: Vec<GlobalEdge>,
}

impl GlobalGraph {
    /// Breadth-first exploration of every reachable global state.
    ///
    /// Commit protocols are finite and acyclic, so this always terminates;
    /// a (generous) safety cap guards against malformed specs.
    pub fn explore(spec: &ProtocolSpec) -> GlobalGraph {
        const CAP: usize = 5_000_000;
        let initial = GlobalState::initial(spec);
        let mut index: HashMap<GlobalState, usize> = HashMap::new();
        index.insert(initial.clone(), 0);
        let mut states = vec![initial];
        let mut edges = Vec::new();
        let mut queue = VecDeque::from([0usize]);

        while let Some(cur) = queue.pop_front() {
            assert!(states.len() < CAP, "global state space exceeded safety cap");
            let g = states[cur].clone();
            for (site, ss) in spec.sites.iter().enumerate() {
                let local = g.locals[site] as usize;
                for (ti, t) in ss.transitions.iter().enumerate() {
                    if t.from != local || !t.enabled_by(&g.msgs) {
                        continue;
                    }
                    let next = g.apply(site, t.to, &t.reads, &t.writes);
                    let next_idx = *index.entry(next.clone()).or_insert_with(|| {
                        states.push(next);
                        queue.push_back(states.len() - 1);
                        states.len() - 1
                    });
                    edges.push(GlobalEdge { from: cur, site, transition: ti, to: next_idx });
                }
            }
        }
        GlobalGraph { states, edges }
    }

    /// Global states with no outgoing edges (completed or deadlocked runs).
    pub fn terminal_states(&self) -> Vec<usize> {
        let mut has_out = vec![false; self.states.len()];
        for e in &self.edges {
            has_out[e.from] = true;
        }
        (0..self.states.len()).filter(|&i| !has_out[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::StateKind;
    use crate::protocols::{THREE_PHASE, TWO_PHASE};

    #[test]
    fn initial_state_is_all_q_no_messages() {
        let spec = TWO_PHASE.spec(3);
        let g = GlobalState::initial(&spec);
        assert_eq!(g.locals, vec![0, 0, 0]);
        assert!(g.msgs.is_empty());
    }

    #[test]
    fn two_phase_two_sites_reachability() {
        let spec = TWO_PHASE.spec(2);
        let graph = GlobalGraph::explore(&spec);
        // Must include the all-commit and all-abort terminal states.
        let c1 = spec.state_ref(0, "c1").state as u8;
        let c = spec.state_ref(1, "c").state as u8;
        let a1 = spec.state_ref(0, "a1").state as u8;
        let a = spec.state_ref(1, "a").state as u8;
        assert!(graph.states.iter().any(|g| g.locals == vec![c1, c] && g.msgs.is_empty()));
        assert!(graph.states.iter().any(|g| g.locals == vec![a1, a] && g.msgs.is_empty()));
    }

    #[test]
    fn terminal_states_are_decision_states() {
        let spec = TWO_PHASE.spec(2);
        let graph = GlobalGraph::explore(&spec);
        for idx in graph.terminal_states() {
            let g = &graph.states[idx];
            // In 2PC with 2 sites every terminal state has both sites in a
            // final state (no lost messages in failure-free executions
            // except unread no-votes, which need >=2 slaves).
            for (site, &l) in g.locals.iter().enumerate() {
                assert!(
                    spec.sites[site].states[l as usize].kind.is_final(),
                    "non-final site in terminal global state: {g:?}"
                );
            }
        }
    }

    #[test]
    fn no_mixed_decisions_in_failure_free_runs() {
        // Atomicity of the base protocols in the absence of failures: no
        // reachable global state has one site committed and another aborted.
        for spec in [TWO_PHASE.spec(3), THREE_PHASE.spec(3)] {
            let graph = GlobalGraph::explore(&spec);
            for g in &graph.states {
                let mut commit = false;
                let mut abort = false;
                for (site, &l) in g.locals.iter().enumerate() {
                    match spec.sites[site].states[l as usize].kind {
                        StateKind::Commit => commit = true,
                        StateKind::Abort => abort = true,
                        _ => {}
                    }
                }
                assert!(!(commit && abort), "mixed decision in {g:?}");
            }
        }
    }

    #[test]
    fn three_phase_graph_is_larger_than_two_phase() {
        let g2 = GlobalGraph::explore(&TWO_PHASE.spec(3));
        let g3 = GlobalGraph::explore(&THREE_PHASE.spec(3));
        assert!(g3.states.len() > g2.states.len());
    }

    #[test]
    fn explore_is_deterministic() {
        let a = GlobalGraph::explore(&THREE_PHASE.spec(3));
        let b = GlobalGraph::explore(&THREE_PHASE.spec(3));
        assert_eq!(a.states, b.states);
        assert_eq!(a.edges.len(), b.edges.len());
    }

    #[test]
    fn apply_consumes_and_produces() {
        let m_in = Msg { kind: 0, src: 0, dst: 1 };
        let m_out = Msg { kind: 1, src: 1, dst: 0 };
        let g = GlobalState { locals: vec![0, 0], msgs: vec![m_in] };
        let next = g.apply(1, 1, &[m_in], &[m_out]);
        assert_eq!(next.locals, vec![0, 1]);
        assert_eq!(next.msgs, vec![m_out]);
    }
}
