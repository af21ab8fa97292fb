//! The Lemma 1 / Lemma 2 necessary conditions, checked mechanically.
//!
//! Lemma 1: a commit protocol can be made resilient to optimistic multisite
//! simple network partitioning **only if** no local state has both a commit
//! and an abort state in its concurrency set.
//!
//! Lemma 2: ... **only if** no local state is noncommittable while having a
//! commit state in its concurrency set.
//!
//! (These generalize Skeen's Fundamental Nonblocking Theorem from site
//! failures to partitions.) Experiment E4 runs this checker over every
//! protocol in the suite: 2PC and E2PC violate the conditions at `n ≥ 3`,
//! 3PC/M3PC/4PC satisfy them.

use crate::committable::Committability;
use crate::concurrency::ConcurrencySets;
use crate::fsa::{ProtocolSpec, StateKind, StateRef};
use crate::global::GlobalGraph;

/// A state with both a commit and an abort potentially concurrent (Lemma 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lemma1Violation {
    /// The offending state.
    pub state: StateRef,
    /// A concurrent commit state.
    pub commit_witness: StateRef,
    /// A concurrent abort state.
    pub abort_witness: StateRef,
}

/// A noncommittable state with a commit potentially concurrent (Lemma 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lemma2Violation {
    /// The offending (noncommittable) state.
    pub state: StateRef,
    /// A concurrent commit state.
    pub commit_witness: StateRef,
}

/// Result of checking both necessary conditions.
#[derive(Debug, Clone, Default)]
pub struct ResilienceReport {
    /// All Lemma 1 violations.
    pub lemma1: Vec<Lemma1Violation>,
    /// All Lemma 2 violations.
    pub lemma2: Vec<Lemma2Violation>,
}

impl ResilienceReport {
    /// True if both necessary conditions hold.
    pub fn satisfies_conditions(&self) -> bool {
        self.lemma1.is_empty() && self.lemma2.is_empty()
    }
}

/// Checks the two necessary conditions against a protocol spec.
pub fn check_conditions(spec: &ProtocolSpec) -> ResilienceReport {
    let graph = GlobalGraph::explore(spec);
    check_conditions_with(spec, &graph)
}

/// Same as [`check_conditions`], reusing an already-explored graph.
pub fn check_conditions_with(spec: &ProtocolSpec, graph: &GlobalGraph) -> ResilienceReport {
    let csets = ConcurrencySets::compute(spec, graph);
    let committability = Committability::compute(spec, graph);
    let mut report = ResilienceReport::default();

    for s in spec.all_states() {
        let cset = csets.of(s);
        let commit_witness =
            cset.iter().copied().find(|t| spec.state_kind(*t) == StateKind::Commit);
        let abort_witness = cset.iter().copied().find(|t| spec.state_kind(*t) == StateKind::Abort);

        if let (Some(cw), Some(aw)) = (commit_witness, abort_witness) {
            report.lemma1.push(Lemma1Violation { state: s, commit_witness: cw, abort_witness: aw });
        }
        if let Some(cw) = commit_witness {
            if !committability.is_committable(s) {
                report.lemma2.push(Lemma2Violation { state: s, commit_witness: cw });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{
        EXTENDED_TWO_PHASE, FOUR_PHASE, MODIFIED_THREE_PHASE, THREE_PHASE, TWO_PHASE,
    };

    #[test]
    fn two_pc_violates_both_lemmas() {
        let spec = TWO_PHASE.spec(3);
        let report = check_conditions(&spec);
        assert!(!report.satisfies_conditions());
        // The violating state must include the slave wait state.
        let w = spec.state_ref(1, "w");
        assert!(report.lemma1.iter().any(|v| v.state == w));
        assert!(report.lemma2.iter().any(|v| v.state == w));
    }

    #[test]
    fn extended_two_pc_violates_lemmas_at_n3() {
        // The paper's Sec. 3 observation: in the multisite case the slave
        // wait state has both a commit (another slave's c) and an abort in
        // its concurrency set, and is noncommittable with a commit
        // concurrent.
        let spec = EXTENDED_TWO_PHASE.spec(3);
        let report = check_conditions(&spec);
        let w = spec.state_ref(1, "w");
        assert!(report.lemma1.iter().any(|v| v.state == w));
        assert!(report.lemma2.iter().any(|v| v.state == w));
    }

    #[test]
    fn extended_two_pc_slave_wait_clean_at_n2() {
        // At n=2 the ack phase keeps commits out of C(w): the Sec. 3 failure
        // is genuinely a multisite phenomenon.
        let spec = EXTENDED_TWO_PHASE.spec(2);
        let graph = GlobalGraph::explore(&spec);
        let csets = ConcurrencySets::compute(&spec, &graph);
        let w = spec.state_ref(1, "w");
        assert!(!csets.contains_commit(&spec, w));
    }

    #[test]
    fn three_pc_satisfies_both_lemmas() {
        for n in [2, 3, 4] {
            let report = check_conditions(&THREE_PHASE.spec(n));
            assert!(report.satisfies_conditions(), "3PC n={n}: {report:?}");
        }
    }

    #[test]
    fn modified_three_pc_satisfies_both_lemmas() {
        for n in [2, 3, 4] {
            let report = check_conditions(&MODIFIED_THREE_PHASE.spec(n));
            assert!(report.satisfies_conditions(), "M3PC n={n}: {report:?}");
        }
    }

    #[test]
    fn four_pc_satisfies_both_lemmas() {
        let report = check_conditions(&FOUR_PHASE.spec(3));
        assert!(report.satisfies_conditions(), "{report:?}");
    }

    #[test]
    fn violations_carry_witnesses() {
        let spec = TWO_PHASE.spec(3);
        let report = check_conditions(&spec);
        for v in &report.lemma1 {
            assert_eq!(spec.state_kind(v.commit_witness), StateKind::Commit);
            assert_eq!(spec.state_kind(v.abort_witness), StateKind::Abort);
        }
        for v in &report.lemma2 {
            assert_eq!(spec.state_kind(v.commit_witness), StateKind::Commit);
        }
    }
}
