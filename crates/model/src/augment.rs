//! Exhaustive enumeration of timeout/UD augmentations — the machinery for
//! experiment E5 (Lemma 3).
//!
//! Lemma 3 says: if a commit protocol is not already resilient to optimistic
//! multisite simple partitioning, then *no* assignment of timeout and
//! undeliverable-message transitions makes it resilient. The paper proves
//! this with an adversary argument; we reproduce it constructively by
//! enumerating **every** possible assignment (each non-final state gets a
//! timeout decision and a UD decision, commit or abort) and exhibiting, for
//! each one, a partition scenario that violates atomicity or blocks a site.
//!
//! Augmentations that *leave a state unassigned* would block outright (a
//! partitioned site in that state can never terminate), so enumerating only
//! total assignments is without loss of generality for the resilience
//! question.

use crate::fsa::{Augmentation, Decision, ProtocolSpec, Role};

/// The per-role non-final state names of a master–slave protocol, in a
/// deterministic order. Panics if slave automata are asymmetric.
pub fn augmentable_states(spec: &ProtocolSpec) -> Vec<(Role, String)> {
    let mut out = Vec::new();
    for (site, role) in [(0usize, Role::Master), (1usize, Role::Slave)] {
        for st in &spec.sites[site].states {
            if !st.kind.is_final() {
                out.push((role, st.name.clone()));
            }
        }
    }
    // Sanity: all other slaves must have the same non-final state names.
    for site in 2..spec.n() {
        let names: Vec<&str> = spec.sites[site]
            .states
            .iter()
            .filter(|s| !s.kind.is_final())
            .map(|s| s.name.as_str())
            .collect();
        let expected: Vec<&str> =
            out.iter().filter(|(r, _)| *r == Role::Slave).map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, expected, "slave automata are not symmetric");
    }
    out
}

/// Enumerates every total timeout/UD assignment over the augmentable states.
///
/// With `k` states there are `4^k` assignments (2 choices for the timeout
/// decision × 2 for the UD decision, per state). For 3PC (`k = 6`) that is
/// 4096 — small enough to sweep exhaustively.
pub fn enumerate_augmentations(spec: &ProtocolSpec) -> Vec<Augmentation> {
    let states = augmentable_states(spec);
    let k = states.len();
    let total = 1usize.checked_shl(2 * k as u32).expect("too many states to enumerate");
    let mut out = Vec::with_capacity(total);
    for bits in 0..total {
        let mut aug = Augmentation::default();
        for (i, key) in states.iter().enumerate() {
            let timeout = if bits >> (2 * i) & 1 == 0 { Decision::Abort } else { Decision::Commit };
            let ud = if bits >> (2 * i + 1) & 1 == 0 { Decision::Abort } else { Decision::Commit };
            aug.timeout.insert(key.clone(), timeout);
            aug.ud.insert(key.clone(), ud);
        }
        out.push(aug);
    }
    out
}

/// The index within [`enumerate_augmentations`]' output that matches a given
/// augmentation on the enumerated states (ignoring extra entries), if any.
/// Used to point at the Rule (a)/(b) assignment inside the Lemma 3 table.
pub fn find_augmentation(spec: &ProtocolSpec, target: &Augmentation) -> Option<usize> {
    let states = augmentable_states(spec);
    let mut bits = 0usize;
    for (i, key) in states.iter().enumerate() {
        match target.timeout.get(key) {
            Some(Decision::Commit) => bits |= 1 << (2 * i),
            Some(Decision::Abort) => {}
            None => return None,
        }
        match target.ud.get(key) {
            Some(Decision::Commit) => bits |= 1 << (2 * i + 1),
            // Treat "no UD assignment" as abort for indexing purposes; the
            // caller decides whether that is acceptable.
            Some(Decision::Abort) | None => {}
        }
    }
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::THREE_PHASE;
    use crate::rules::derive_rules_augmentation;

    #[test]
    fn three_pc_has_six_augmentable_states() {
        let states = augmentable_states(&THREE_PHASE.spec(3));
        let names: Vec<String> = states.iter().map(|(_, n)| n.clone()).collect();
        assert_eq!(names, vec!["q1", "w1", "p1", "q", "w", "p"]);
    }

    #[test]
    fn enumeration_size_is_4_to_the_k() {
        let augs = enumerate_augmentations(&THREE_PHASE.spec(3));
        assert_eq!(augs.len(), 4096);
    }

    #[test]
    fn enumeration_is_exhaustive_and_distinct() {
        let augs = enumerate_augmentations(&THREE_PHASE.spec(3));
        let mut seen = std::collections::HashSet::new();
        for a in &augs {
            let key = format!("{a:?}");
            assert!(seen.insert(key), "duplicate augmentation");
        }
    }

    #[test]
    fn every_augmentation_is_total() {
        let spec = THREE_PHASE.spec(3);
        let augs = enumerate_augmentations(&spec);
        let states = augmentable_states(&spec);
        for a in augs.iter().take(64) {
            for key in &states {
                assert!(a.timeout.contains_key(key));
                assert!(a.ud.contains_key(key));
            }
        }
    }

    #[test]
    fn rules_assignment_is_in_the_enumeration() {
        let spec = THREE_PHASE.spec(3);
        let rules = derive_rules_augmentation(&spec).augmentation;
        let idx = find_augmentation(&spec, &rules).expect("rules assign all states");
        let augs = enumerate_augmentations(&spec);
        let candidate = &augs[idx];
        // Timeout assignments must match exactly.
        for (key, d) in &rules.timeout {
            assert_eq!(candidate.timeout.get(key), Some(d));
        }
    }

    #[test]
    fn index_zero_is_all_abort() {
        let spec = THREE_PHASE.spec(3);
        let augs = enumerate_augmentations(&spec);
        assert!(augs[0].timeout.values().all(|d| *d == Decision::Abort));
        assert!(augs[0].ud.values().all(|d| *d == Decision::Abort));
    }

    #[test]
    fn last_index_is_all_commit() {
        let spec = THREE_PHASE.spec(3);
        let augs = enumerate_augmentations(&spec);
        let last = augs.last().unwrap();
        assert!(last.timeout.values().all(|d| *d == Decision::Commit));
        assert!(last.ud.values().all(|d| *d == Decision::Commit));
    }
}
