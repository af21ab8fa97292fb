//! Concurrency sets and sender sets (Sec. 2 definitions).
//!
//! * **Concurrency set** `C(s)`: "the set of all local states that are
//!   potentially concurrent with `s` in the execution of P" — computed here
//!   over the reachable global-state graph.
//! * **Sender set** `S(s)`: "{ t | t sends m, m ∈ M }" where `M` is the set
//!   of messages receivable in `s` — computed syntactically from the spec.

use crate::fsa::{ProtocolSpec, StateRef};
use crate::global::GlobalGraph;
use std::collections::{BTreeMap, BTreeSet};

/// Concurrency sets for every local state of every site.
#[derive(Debug, Clone)]
pub struct ConcurrencySets {
    sets: BTreeMap<StateRef, BTreeSet<StateRef>>,
}

impl ConcurrencySets {
    /// Computes `C(s)` for all `s` from the reachable global states.
    pub fn compute(spec: &ProtocolSpec, graph: &GlobalGraph) -> Self {
        let mut sets: BTreeMap<StateRef, BTreeSet<StateRef>> = BTreeMap::new();
        for s in spec.all_states() {
            sets.insert(s, BTreeSet::new());
        }
        for g in &graph.states {
            for i in 0..g.locals.len() {
                let si = StateRef { site: i, state: g.locals[i] as usize };
                let entry = sets.get_mut(&si).expect("state in table");
                for (j, &lj) in g.locals.iter().enumerate() {
                    if i != j {
                        entry.insert(StateRef { site: j, state: lj as usize });
                    }
                }
            }
        }
        ConcurrencySets { sets }
    }

    /// The concurrency set of `s`. Empty when `s` is unreachable.
    pub fn of(&self, s: StateRef) -> &BTreeSet<StateRef> {
        static EMPTY: BTreeSet<StateRef> = BTreeSet::new();
        self.sets.get(&s).unwrap_or(&EMPTY)
    }

    /// Does `C(s)` contain a commit state?
    pub fn contains_commit(&self, spec: &ProtocolSpec, s: StateRef) -> bool {
        self.of(s).iter().any(|t| spec.state_kind(*t) == crate::fsa::StateKind::Commit)
    }

    /// Does `C(s)` contain an abort state?
    pub fn contains_abort(&self, spec: &ProtocolSpec, s: StateRef) -> bool {
        self.of(s).iter().any(|t| spec.state_kind(*t) == crate::fsa::StateKind::Abort)
    }

    /// Iterate over all `(state, concurrency set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&StateRef, &BTreeSet<StateRef>)> {
        self.sets.iter()
    }
}

/// Computes the sender set `S(s)`: every local state (of any site) with an
/// outgoing transition that writes a message readable by some transition out
/// of `s`.
pub fn sender_set(spec: &ProtocolSpec, s: StateRef) -> BTreeSet<StateRef> {
    // M = messages receivable in s.
    let receivable: BTreeSet<_> = spec.sites[s.site]
        .transitions
        .iter()
        .filter(|t| t.from == s.state)
        .flat_map(|t| t.reads.iter().copied())
        .collect();

    let mut senders = BTreeSet::new();
    for (site, ss) in spec.sites.iter().enumerate() {
        for t in &ss.transitions {
            if t.writes.iter().any(|w| receivable.contains(w)) {
                senders.insert(StateRef { site, state: t.from });
            }
        }
    }
    senders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::StateKind;
    use crate::protocols::{THREE_PHASE, TWO_PHASE};

    fn csets(spec: &ProtocolSpec) -> ConcurrencySets {
        ConcurrencySets::compute(spec, &GlobalGraph::explore(spec))
    }

    #[test]
    fn two_pc_slave_wait_has_commit_and_abort_concurrent() {
        // The classic 2PC blocking diagnosis: C(w_slave) contains both c1
        // and a1.
        let spec = TWO_PHASE.spec(3);
        let cs = csets(&spec);
        let w = spec.state_ref(1, "w");
        assert!(cs.contains_commit(&spec, w));
        assert!(cs.contains_abort(&spec, w));
    }

    #[test]
    fn three_pc_slave_wait_has_no_commit_concurrent_at_n2() {
        let spec = THREE_PHASE.spec(2);
        let cs = csets(&spec);
        let w = spec.state_ref(1, "w");
        assert!(!cs.contains_commit(&spec, w));
        // At n=2 not even an abort is concurrent with w: the lone slave
        // voted yes to get there, so the master cannot have aborted.
        assert!(!cs.contains_abort(&spec, w));
    }

    #[test]
    fn three_pc_slave_wait_gains_abort_concurrent_at_n3() {
        // With a second slave, a no-vote elsewhere can abort the master
        // while this slave still waits — abort enters C(w).
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        assert!(cs.contains_abort(&spec, spec.state_ref(1, "w")));
    }

    #[test]
    fn three_pc_multisite_slave_wait_still_no_commit() {
        // Lemma 1 precondition holds for 3PC even with n=3: while slave i is
        // in w, nobody can have committed (the master needs i's ack first).
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        let w = spec.state_ref(1, "w");
        assert!(!cs.contains_commit(&spec, w));
    }

    #[test]
    fn three_pc_slave_prepared_has_commit_concurrent_multisite() {
        // With n>=3, slave 2 in p can coexist with the master in c1 (the
        // master committed after receiving all acks) — the fact behind the
        // Sec. 3 naive-augmentation counterexample (commit ∈ C(p2)).
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        let p = spec.state_ref(1, "p");
        assert!(cs.contains_commit(&spec, p));
    }

    #[test]
    fn paper_sec3_concurrency_facts() {
        // "abort ∈ C(w3), commit ∈ C(p2), p2 ∈ C(w3)".
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        let w3 = spec.state_ref(2, "w");
        let p2 = spec.state_ref(1, "p");
        assert!(cs.contains_abort(&spec, w3));
        assert!(cs.contains_commit(&spec, p2));
        assert!(cs.of(w3).contains(&p2), "p2 must be concurrent with w3");
    }

    #[test]
    fn master_p1_in_3pc_has_no_commit_concurrent() {
        // Nobody can be committed while the master is still in p1 — commits
        // are sent on the p1 -> c1 transition.
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        let p1 = spec.state_ref(0, "p1");
        assert!(!cs.contains_commit(&spec, p1));
    }

    #[test]
    fn concurrency_sets_never_include_own_site() {
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        for (s, set) in cs.iter() {
            assert!(set.iter().all(|t| t.site != s.site));
        }
    }

    #[test]
    fn sender_set_of_slave_wait_in_3pc_is_master_w1() {
        // w reads prepare/abort, both written by transitions out of w1.
        let spec = THREE_PHASE.spec(3);
        let senders = sender_set(&spec, spec.state_ref(1, "w"));
        assert_eq!(senders.len(), 1);
        let only = *senders.iter().next().unwrap();
        assert_eq!(spec.state_name(only), "w1");
    }

    #[test]
    fn sender_set_of_slave_prepared_in_3pc_is_master_p1() {
        let spec = THREE_PHASE.spec(3);
        let senders = sender_set(&spec, spec.state_ref(1, "p"));
        let names: Vec<&str> = senders.iter().map(|s| spec.state_name(*s)).collect();
        assert_eq!(names, vec!["p1"]);
    }

    #[test]
    fn sender_set_of_spontaneous_state_is_empty() {
        // q1's only transition is spontaneous; nothing is receivable there.
        let spec = THREE_PHASE.spec(3);
        assert!(sender_set(&spec, spec.state_ref(0, "q1")).is_empty());
    }

    #[test]
    fn unreachable_state_has_empty_concurrency_set() {
        let spec = THREE_PHASE.spec(3);
        let cs = csets(&spec);
        // All states of 3PC are reachable; check the API contract instead on
        // a state ref we synthesize for site 1 — every real state must have a
        // nonempty set except none here. Just verify `of` never panics.
        for s in spec.all_states() {
            let _ = cs.of(s);
        }
        // Commit states' concurrency sets include other commit states.
        let c = spec.state_ref(1, "c");
        assert!(cs.of(c).iter().any(|t| spec.state_kind(*t) == StateKind::Commit));
    }
}
