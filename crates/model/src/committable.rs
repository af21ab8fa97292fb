//! Committable-state classification (Sec. 3, after Skeen's SIGMOD'81
//! definition): "A local state is called committable if occupancy of that
//! state by any site implies that all sites have voted yes on committing the
//! transaction. Otherwise, it is called noncommittable."

use crate::fsa::{ProtocolSpec, SiteSpec, StateRef};
use crate::global::GlobalGraph;
use std::collections::{BTreeMap, VecDeque};

/// Per-state "yes-implied" flags for one site: `true` for states that can
/// only be reached after the site voted yes (every path from the initial
/// state crosses a `votes_yes` transition).
pub fn yes_implied(site: &SiteSpec) -> Vec<bool> {
    // A state is NOT yes-implied iff it is reachable using only non-voting
    // transitions.
    let mut reachable_without_vote = vec![false; site.states.len()];
    reachable_without_vote[0] = true;
    let mut queue = VecDeque::from([0usize]);
    while let Some(s) = queue.pop_front() {
        for t in site.transitions.iter().filter(|t| t.from == s && !t.votes_yes) {
            if !reachable_without_vote[t.to] {
                reachable_without_vote[t.to] = true;
                queue.push_back(t.to);
            }
        }
    }
    reachable_without_vote.iter().map(|r| !r).collect()
}

/// Committable classification for every local state of every site.
#[derive(Debug, Clone)]
pub struct Committability {
    table: BTreeMap<StateRef, bool>,
}

impl Committability {
    /// Classifies every state by scanning all reachable global states: a
    /// state is committable iff *every* reachable global state containing it
    /// has all sites in yes-implied local states.
    pub fn compute(spec: &ProtocolSpec, graph: &GlobalGraph) -> Self {
        let yes: Vec<Vec<bool>> = spec.sites.iter().map(yes_implied).collect();
        let mut table: BTreeMap<StateRef, bool> = BTreeMap::new();
        // Unreachable states default to committable=true vacuously; reachable
        // ones get falsified by witnesses below.
        for s in spec.all_states() {
            table.insert(s, true);
        }
        for g in &graph.states {
            let all_voted = g.locals.iter().enumerate().all(|(site, &l)| yes[site][l as usize]);
            if !all_voted {
                for (site, &l) in g.locals.iter().enumerate() {
                    table.insert(StateRef { site, state: l as usize }, false);
                }
            }
        }
        Committability { table }
    }

    /// Is `s` committable?
    pub fn is_committable(&self, s: StateRef) -> bool {
        *self.table.get(&s).unwrap_or(&false)
    }

    /// All committable states.
    pub fn committable_states(&self) -> impl Iterator<Item = StateRef> + '_ {
        self.table.iter().filter(|(_, &c)| c).map(|(s, _)| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{THREE_PHASE, TWO_PHASE};

    fn classify(spec: &ProtocolSpec) -> Committability {
        Committability::compute(spec, &GlobalGraph::explore(spec))
    }

    #[test]
    fn yes_implied_for_3pc_slave() {
        let spec = THREE_PHASE.spec(3);
        let flags = yes_implied(&spec.sites[1]);
        let idx = |name: &str| spec.sites[1].state_index(name);
        assert!(!flags[idx("q")]);
        assert!(flags[idx("w")], "w is only reachable by voting yes");
        assert!(flags[idx("p")]);
        assert!(flags[idx("c")]);
        assert!(!flags[idx("a")], "a is reachable by voting no");
    }

    #[test]
    fn yes_implied_for_3pc_master() {
        let spec = THREE_PHASE.spec(3);
        let flags = yes_implied(&spec.sites[0]);
        let idx = |name: &str| spec.sites[0].state_index(name);
        assert!(!flags[idx("q1")]);
        assert!(!flags[idx("w1")], "master has not voted before collecting yes");
        assert!(flags[idx("p1")]);
        assert!(flags[idx("c1")]);
    }

    #[test]
    fn three_pc_prepared_states_are_committable() {
        // The paper: committable states in 3PC are exactly p1, p_i, c1, c_i.
        let spec = THREE_PHASE.spec(3);
        let cl = classify(&spec);
        assert!(cl.is_committable(spec.state_ref(0, "p1")));
        assert!(cl.is_committable(spec.state_ref(0, "c1")));
        assert!(cl.is_committable(spec.state_ref(1, "p")));
        assert!(cl.is_committable(spec.state_ref(1, "c")));
    }

    #[test]
    fn three_pc_wait_states_are_noncommittable() {
        let spec = THREE_PHASE.spec(3);
        let cl = classify(&spec);
        assert!(!cl.is_committable(spec.state_ref(0, "q1")));
        assert!(!cl.is_committable(spec.state_ref(0, "w1")));
        assert!(!cl.is_committable(spec.state_ref(1, "q")));
        assert!(!cl.is_committable(spec.state_ref(1, "w")));
        assert!(!cl.is_committable(spec.state_ref(1, "a")));
    }

    #[test]
    fn two_pc_commit_states_are_committable_wait_not() {
        // The paper (Sec. 3): 2PC's slave w is noncommittable yet has c1 in
        // its concurrency set — the blocking diagnosis.
        let spec = TWO_PHASE.spec(3);
        let cl = classify(&spec);
        assert!(cl.is_committable(spec.state_ref(0, "c1")));
        assert!(cl.is_committable(spec.state_ref(1, "c")));
        assert!(!cl.is_committable(spec.state_ref(1, "w")));
    }

    #[test]
    fn committable_count_3pc() {
        let spec = THREE_PHASE.spec(3);
        let cl = classify(&spec);
        // p1, c1 on the master; p, c on each of the two slaves = 6.
        assert_eq!(cl.committable_states().count(), 6);
    }

    #[test]
    fn multisite_does_not_change_classification() {
        for n in [2, 3, 4] {
            let spec = THREE_PHASE.spec(n);
            let cl = classify(&spec);
            assert!(cl.is_committable(spec.state_ref(0, "p1")), "n={n}");
            assert!(!cl.is_committable(spec.state_ref(1, "w")), "n={n}");
        }
    }
}
