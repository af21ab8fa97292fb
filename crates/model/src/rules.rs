//! Mechanical derivation of Skeen & Stonebraker's Rule (a) and Rule (b)
//! (Sec. 2): the timeout and undeliverable-message transitions that make
//! protocols resilient to *two-site* simple partitioning with return of
//! messages.
//!
//! Rule (a): if `C(s)` contains a commit state, `s`'s timeout transition
//! goes to commit; else to abort.
//!
//! Rule (b): if some `t ∈ S(s)` has a timeout transition to commit (abort),
//! then on receipt of an undeliverable message in `s`, go to commit (abort).
//!
//! The derivation here is computed from the reachability analysis, not
//! hard-coded — so the paper's Sec. 3 story can be replayed mechanically:
//! derive the rules at `n = 2` (where they are provably sufficient), apply
//! the augmentation at `n ≥ 3`, and watch atomicity break (experiments E2,
//! E3, E5).

use crate::concurrency::{sender_set, ConcurrencySets};
use crate::fsa::{Augmentation, Decision, ProtocolSpec, Role};
use crate::global::GlobalGraph;

/// A Rule (b) ambiguity: the sender set of a state contains senders whose
/// timeout transitions disagree. None of the protocols in this crate
/// produce one, but the derivation reports them rather than guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleConflict {
    /// The state whose UD transition is ambiguous.
    pub state: (Role, String),
    /// The disagreeing senders and their timeout decisions.
    pub senders: Vec<(String, Decision)>,
}

/// Output of the rule derivation.
#[derive(Debug, Clone)]
pub struct RuleDerivation {
    /// The derived timeout/UD transitions, keyed by role and state name
    /// (slaves are symmetric; the derivation asserts it).
    pub augmentation: Augmentation,
    /// Any Rule (b) ambiguities encountered.
    pub conflicts: Vec<RuleConflict>,
}

/// Derives Rule (a) + Rule (b) augmentation for `spec`.
///
/// # Panics
/// Panics if the slave automata are not symmetric (all protocols here are
/// master–slave with interchangeable slaves).
pub fn derive_rules_augmentation(spec: &ProtocolSpec) -> RuleDerivation {
    let graph = GlobalGraph::explore(spec);
    let csets = ConcurrencySets::compute(spec, &graph);

    let mut aug = Augmentation::default();
    let mut conflicts = Vec::new();

    // Rule (a): timeout transitions, collapsed to (role, state name).
    for s in spec.all_states() {
        if spec.state_kind(s).is_final() {
            continue;
        }
        let decision =
            if csets.contains_commit(spec, s) { Decision::Commit } else { Decision::Abort };
        let key = (spec.role_of(s.site), spec.state_name(s).to_owned());
        if let Some(prev) = aug.timeout.insert(key.clone(), decision) {
            assert_eq!(prev, decision, "slave automata are not symmetric at state {key:?}");
        }
    }

    // Rule (b): UD transitions from the timeout decisions of sender sets.
    for s in spec.all_states() {
        if spec.state_kind(s).is_final() {
            continue;
        }
        let senders = sender_set(spec, s);
        let mut decisions: Vec<(String, Decision)> = Vec::new();
        for t in &senders {
            let key = (spec.role_of(t.site), spec.state_name(*t).to_owned());
            if let Some(d) = aug.timeout.get(&key) {
                decisions.push((spec.state_name(*t).to_owned(), *d));
            }
        }
        decisions.sort();
        decisions.dedup();
        let key = (spec.role_of(s.site), spec.state_name(s).to_owned());
        match decisions.as_slice() {
            [] => {} // nothing receivable here; no UD transition
            ds if ds.iter().all(|(_, d)| *d == ds[0].1) => {
                let prev = aug.ud.insert(key.clone(), ds[0].1);
                if let Some(p) = prev {
                    assert_eq!(p, ds[0].1, "asymmetric UD derivation at {key:?}");
                }
            }
            ds => conflicts.push(RuleConflict { state: key, senders: ds.to_vec() }),
        }
    }

    RuleDerivation { augmentation: aug, conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{EXTENDED_TWO_PHASE, THREE_PHASE, TWO_PHASE};

    #[test]
    fn e2pc_two_site_derivation_matches_paper() {
        // Derived at n=2 (where the rules are necessary and sufficient):
        //   master: timeout w1 -> abort, p1 -> commit; UD w1/p1 -> abort.
        //   slave:  timeout q -> abort, w -> abort; UD w -> abort.
        let d = derive_rules_augmentation(&EXTENDED_TWO_PHASE.spec(2));
        assert!(d.conflicts.is_empty(), "{:?}", d.conflicts);
        let a = &d.augmentation;
        assert_eq!(a.timeout_for(Role::Master, "w1"), Some(Decision::Abort));
        assert_eq!(a.timeout_for(Role::Master, "p1"), Some(Decision::Commit));
        assert_eq!(a.timeout_for(Role::Slave, "q"), Some(Decision::Abort));
        assert_eq!(a.timeout_for(Role::Slave, "w"), Some(Decision::Abort));
        assert_eq!(a.ud_for(Role::Master, "w1"), Some(Decision::Abort));
        assert_eq!(a.ud_for(Role::Master, "p1"), Some(Decision::Abort));
        assert_eq!(a.ud_for(Role::Slave, "w"), Some(Decision::Abort));
    }

    #[test]
    fn plain_2pc_two_site_slave_w_times_out_to_commit() {
        // Without the ack phase, C(w_slave) contains c1 at n=2, so Rule (a)
        // sends the slave's timeout to commit — the historically familiar
        // "presume commit after yes" of the optimistic two-site protocol.
        let d = derive_rules_augmentation(&TWO_PHASE.spec(2));
        assert_eq!(d.augmentation.timeout_for(Role::Slave, "w"), Some(Decision::Commit));
        assert_eq!(d.augmentation.timeout_for(Role::Master, "w1"), Some(Decision::Abort));
    }

    #[test]
    fn naive_3pc_derivation_matches_sec3_observation() {
        // The paper: "the timeout transition from w3 should go to the abort
        // state and the timeout transition from p2 should go to the commit
        // state" (for n=3).
        let d = derive_rules_augmentation(&THREE_PHASE.spec(3));
        assert!(d.conflicts.is_empty());
        let a = &d.augmentation;
        assert_eq!(a.timeout_for(Role::Slave, "w"), Some(Decision::Abort));
        assert_eq!(a.timeout_for(Role::Slave, "p"), Some(Decision::Commit));
        // Master p1 has no commit concurrent -> abort on timeout.
        assert_eq!(a.timeout_for(Role::Master, "p1"), Some(Decision::Abort));
        // Rule (b): slave p reads commit sent from p1; timeout(p1)=abort.
        assert_eq!(a.ud_for(Role::Slave, "p"), Some(Decision::Abort));
    }

    #[test]
    fn no_ud_for_states_that_receive_nothing() {
        let d = derive_rules_augmentation(&THREE_PHASE.spec(3));
        // q1's transition is spontaneous: no sender set, no UD transition.
        assert_eq!(d.augmentation.ud_for(Role::Master, "q1"), None);
    }

    #[test]
    fn final_states_get_no_assignments() {
        let d = derive_rules_augmentation(&THREE_PHASE.spec(3));
        assert_eq!(d.augmentation.timeout_for(Role::Master, "c1"), None);
        assert_eq!(d.augmentation.timeout_for(Role::Slave, "a"), None);
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = derive_rules_augmentation(&THREE_PHASE.spec(3));
        let b = derive_rules_augmentation(&THREE_PHASE.spec(3));
        assert_eq!(a.augmentation, b.augmentation);
    }

    #[test]
    fn slave_symmetry_holds_for_larger_n() {
        // Would panic inside if slaves disagreed.
        let d = derive_rules_augmentation(&THREE_PHASE.spec(5));
        assert!(d.conflicts.is_empty());
    }
}
