//! Abstract (untimed) partition executions — the Lemma 3 adversary as an
//! exhaustive search.
//!
//! The paper's Lemma 3 proof works in the bare formal model: pick any
//! global state `Hⁱ` of a failure-free execution, partition the sites into
//! two groups, return the cross-boundary outstanding messages to their
//! senders, and let each site run to a final state via its base
//! transitions, its undeliverable-message transitions, and its timeout
//! transitions. No clocks — the adversary controls all interleavings and
//! may fire any timeout at any moment.
//!
//! [`find_violation`] explores that whole space mechanically: every
//! reachable failure-free global state × every simple boundary × every
//! interleaving of deliveries, UD receipts and timeouts. It is the
//! untimed, *exhaustive* counterpart of the timed grid search of the
//! `lemma3` experiment (`ptp_bench::paper`): together they show every one of the 4096
//! timeout/UD augmentations of 3PC admits an atomicity violation — both
//! under the paper's adversary and under concrete bounded-delay schedules.

use crate::fsa::{Augmentation, Msg, ProtocolSpec, StateKind};
use crate::global::{GlobalGraph, GlobalState};
use std::collections::{HashSet, VecDeque};

/// A witness that an augmented protocol violates atomicity under some
/// simple partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Index of the pre-partition global state in the exploration graph.
    pub from_global: usize,
    /// The non-master partition group (site indices).
    pub g2: Vec<usize>,
    /// The local states at the violating configuration, per site.
    pub locals: Vec<u8>,
}

/// One post-partition configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Config {
    locals: Vec<u8>,
    /// Deliverable messages (both endpoints on the same side), sorted.
    pool: Vec<Msg>,
    /// Undeliverable messages pending return, keyed by sender: sorted
    /// `(sender, msg)` pairs.
    ud: Vec<(u8, Msg)>,
}

/// Explores every abstract post-partition execution of `spec` + `aug` and
/// returns a witness if some reachable configuration has one site committed
/// and another aborted.
///
/// Sites without a timeout (UD) assignment simply never take that step —
/// they may block, which Lemma 3 separately counts as non-resilient; this
/// search looks for the stronger inconsistency witness.
pub fn find_violation(spec: &ProtocolSpec, aug: &Augmentation) -> Option<Witness> {
    let graph = GlobalGraph::explore(spec);
    let n = spec.n();

    // Every simple boundary: non-empty proper subsets of slaves form G2.
    let slaves: Vec<usize> = (1..n).collect();
    let mut boundaries: Vec<Vec<usize>> = Vec::new();
    for mask in 1u32..(1 << slaves.len()) {
        boundaries.push(
            slaves
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, s)| *s)
                .collect(),
        );
    }

    for (gi, h) in graph.states.iter().enumerate() {
        for g2 in &boundaries {
            if let Some(locals) = explore_partition(spec, aug, h, g2) {
                return Some(Witness { from_global: gi, g2: g2.clone(), locals });
            }
        }
    }
    None
}

/// True if `a` and `b` are on the same side of the boundary.
fn same_side(g2: &[usize], a: usize, b: usize) -> bool {
    g2.contains(&a) == g2.contains(&b)
}

/// BFS over all interleavings after partitioning global state `h` along
/// `g2`. Returns the locals of a violating configuration, if any.
fn explore_partition(
    spec: &ProtocolSpec,
    aug: &Augmentation,
    h: &GlobalState,
    g2: &[usize],
) -> Option<Vec<u8>> {
    // Split the outstanding messages: same-side stay deliverable,
    // cross-boundary bounce back to their senders.
    let mut pool = Vec::new();
    let mut ud = Vec::new();
    for m in &h.msgs {
        if same_side(g2, m.src as usize, m.dst as usize) {
            pool.push(*m);
        } else {
            ud.push((m.src, *m));
        }
    }
    pool.sort_unstable();
    ud.sort_unstable();

    let initial = Config { locals: h.locals.clone(), pool, ud };
    let mut seen: HashSet<Config> = HashSet::new();
    seen.insert(initial.clone());
    let mut queue = VecDeque::from([initial]);

    while let Some(cfg) = queue.pop_front() {
        if violates(spec, &cfg.locals) {
            return Some(cfg.locals);
        }
        for next in successors(spec, aug, g2, &cfg) {
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    None
}

/// One site committed while another aborted?
fn violates(spec: &ProtocolSpec, locals: &[u8]) -> bool {
    let mut commit = false;
    let mut abort = false;
    for (site, &l) in locals.iter().enumerate() {
        match spec.sites[site].states[l as usize].kind {
            StateKind::Commit => commit = true,
            StateKind::Abort => abort = true,
            _ => {}
        }
    }
    commit && abort
}

/// All configurations reachable in one step.
fn successors(spec: &ProtocolSpec, aug: &Augmentation, g2: &[usize], cfg: &Config) -> Vec<Config> {
    let mut out = Vec::new();

    for site in 0..spec.n() {
        let local = cfg.locals[site] as usize;
        let kind = spec.sites[site].states[local].kind;
        if kind.is_final() {
            continue;
        }
        let role = spec.role_of(site);
        let name = &spec.sites[site].states[local].name;

        // (a) Base transitions over the deliverable pool.
        for t in &spec.sites[site].transitions {
            if t.from != local || !t.enabled_by(&cfg.pool) {
                continue;
            }
            let mut next = cfg.clone();
            for r in &t.reads {
                let pos = next.pool.iter().position(|m| m == r).expect("read in pool");
                next.pool.remove(pos);
            }
            for w in &t.writes {
                if same_side(g2, w.src as usize, w.dst as usize) {
                    next.pool.push(*w);
                } else {
                    next.ud.push((w.src, *w));
                }
            }
            next.pool.sort_unstable();
            next.ud.sort_unstable();
            next.locals[site] = t.to as u8;
            out.push(next);
        }

        // (b) Receive one pending undeliverable message.
        if let Some(pos) = cfg.ud.iter().position(|(s, _)| *s as usize == site) {
            let mut next = cfg.clone();
            next.ud.remove(pos);
            if let Some(d) = aug.ud_for(role, name) {
                next.locals[site] = spec.sites[site].decision_state(d) as u8;
            }
            out.push(next);
        }

        // (c) Time out (the adversary may fire it whenever the site is not
        // final).
        if let Some(d) = aug.timeout_for(role, name) {
            let mut next = cfg.clone();
            next.locals[site] = spec.sites[site].decision_state(d) as u8;
            out.push(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::Decision;
    use crate::protocols::THREE_PHASE;
    use crate::rules::derive_rules_augmentation;

    #[test]
    fn rules_augmentation_has_an_abstract_violation() {
        // The Sec. 3 observation, found by the paper's own adversary.
        let spec = THREE_PHASE.spec(3);
        let aug = derive_rules_augmentation(&spec).augmentation;
        let witness = find_violation(&spec, &aug);
        assert!(witness.is_some(), "Rule (a)/(b) 3PC must break abstractly");
    }

    #[test]
    fn witness_is_a_real_mixed_configuration() {
        let spec = THREE_PHASE.spec(3);
        let aug = derive_rules_augmentation(&spec).augmentation;
        let w = find_violation(&spec, &aug).unwrap();
        assert!(violates(&spec, &w.locals));
        assert!(!w.g2.is_empty());
        assert!(!w.g2.contains(&0), "the master defines G1");
    }

    #[test]
    fn all_abort_augmentation_still_breaks() {
        // Timeout/UD everywhere-to-abort conflicts with a commit already
        // sent: partition right after the master's p1 -> c1 transition.
        let spec = THREE_PHASE.spec(3);
        let mut aug = Augmentation::default();
        for (role, name) in
            [(crate::Role::Master, "q1"), (crate::Role::Master, "w1"), (crate::Role::Master, "p1")]
        {
            aug.timeout.insert((role, name.into()), Decision::Abort);
            aug.ud.insert((role, name.into()), Decision::Abort);
        }
        for name in ["q", "w", "p"] {
            aug.timeout.insert((crate::Role::Slave, name.into()), Decision::Abort);
            aug.ud.insert((crate::Role::Slave, name.into()), Decision::Abort);
        }
        assert!(find_violation(&spec, &aug).is_some());
    }

    #[test]
    fn two_site_3pc_with_rules_is_abstractly_safe_modulo_timeout_adversary() {
        // At n = 2 the Skeen–Stonebraker rules are sufficient *in the timed
        // model*. The untimed adversary here is strictly stronger (it may
        // fire a timeout while the triggering message is still deliverable),
        // so it can still fabricate violations; this documents the
        // difference between the two adversaries rather than contradicting
        // the rules' two-site sufficiency.
        let spec = THREE_PHASE.spec(2);
        let aug = derive_rules_augmentation(&spec).augmentation;
        // Either outcome is allowed; the function must simply terminate on
        // the full space.
        let _ = find_violation(&spec, &aug);
    }
}
