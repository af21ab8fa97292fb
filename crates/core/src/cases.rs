//! The Sec. 6 transient-partitioning case analysis, as an executable
//! classifier.
//!
//! The paper enumerates what can happen when a simple partition strikes a
//! three-phase commit in flight, by which messages manage to cross the
//! boundary B:
//!
//! ```text
//! (1)      no prepare passes B                                  wait ≤ —
//! (2)      some, not all, prepares pass B
//!   (2.1)    some acks (from prepared G2 slaves) do not pass     ≤ T
//!   (2.2)    all those acks pass
//!     (2.2.1)  some probes do not pass                           ≤ 4T
//!     (2.2.2)  all probes pass                                   ≤ 5T
//! (3)      all prepares pass B
//!   (3.1)    some acks do not pass                               ≤ T
//!   (3.2)    all acks pass
//!     (3.2.1)  all commits pass                                  (normal)
//!     (3.2.2)  some commits do not pass
//!       (3.2.2.1) some probes (from commit-less G2 slaves) miss  ≤ 4T
//!       (3.2.2.2) all those probes pass                          ∞ → 5T rule
//! ```
//!
//! The waits are the longest time a slave can spend after timing out in `p`
//! before it receives an `UD(probe)`, a commit, or an abort. Case 3.2.2.2
//! is unbounded under the Sec. 5 protocol — which is exactly why Sec. 6 adds
//! the 5T-then-commit rule. Experiment E9 sweeps transient partitions,
//! classifies each run with [`classify`], and reports the measured maxima
//! next to the paper's bounds.

use ptp_simnet::{SiteId, Trace, TraceEvent};

/// The Sec. 6 case labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // names mirror the paper's numbering
pub enum TransientCase {
    Case1,
    Case2_1,
    Case2_2_1,
    Case2_2_2,
    Case3_1,
    Case3_2_1,
    Case3_2_2_1,
    Case3_2_2_2,
    /// The partition struck before any prepare existed (pure phase-1) or
    /// after every commit was delivered — outside the Sec. 6 tree.
    OutsideTree,
}

impl TransientCase {
    /// The paper's stated bound on the post-`p`-timeout wait, in units of
    /// `T` (`None` = unbounded under the Sec. 5 protocol; the Sec. 6 rule
    /// turns it into a 5T commit).
    pub fn paper_bound_t(self) -> Option<u64> {
        match self {
            TransientCase::Case2_1 | TransientCase::Case3_1 => Some(1),
            TransientCase::Case2_2_1 | TransientCase::Case3_2_2_1 => Some(4),
            TransientCase::Case2_2_2 => Some(5),
            TransientCase::Case3_2_2_2 => None,
            TransientCase::Case1 | TransientCase::Case3_2_1 | TransientCase::OutsideTree => Some(0),
        }
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            TransientCase::Case1 => "1",
            TransientCase::Case2_1 => "2.1",
            TransientCase::Case2_2_1 => "2.2.1",
            TransientCase::Case2_2_2 => "2.2.2",
            TransientCase::Case3_1 => "3.1",
            TransientCase::Case3_2_1 => "3.2.1",
            TransientCase::Case3_2_2_1 => "3.2.2.1",
            TransientCase::Case3_2_2_2 => "3.2.2.2",
            TransientCase::OutsideTree => "-",
        }
    }
}

/// Message bookkeeping for one run, relative to a boundary.
#[derive(Debug, Default, Clone)]
struct Crossings {
    prepares_to_g2: usize,
    prepares_to_g2_delivered: usize,
    acks_from_prepared_g2: usize,
    acks_from_prepared_g2_delivered: usize,
    commits_master_to_g2: usize,
    commits_master_to_g2_delivered: usize,
    probes_from_g2: usize,
    probes_from_g2_delivered: usize,
    /// G2 slaves that received a master commit.
    g2_with_commit: Vec<SiteId>,
}

/// Classifies a finished run against the Sec. 6 tree.
///
/// `g2` is the non-master partition group. The trace must come from a
/// 3PC-shaped protocol (message kinds `prepare`, `ack`, `commit`, `probe`).
pub fn classify(trace: &Trace, g2: &[SiteId]) -> TransientCase {
    let is_g2 = |s: SiteId| g2.contains(&s);
    let mut x = Crossings::default();
    let mut prepared_g2: Vec<SiteId> = Vec::new();

    for ev in trace.events() {
        match *ev {
            TraceEvent::Sent { src, dst, kind, .. } => match kind {
                "prepare" if src == SiteId(0) && is_g2(dst) => x.prepares_to_g2 += 1,
                "probe" if is_g2(src) => x.probes_from_g2 += 1,
                "commit" if src == SiteId(0) && is_g2(dst) => x.commits_master_to_g2 += 1,
                "ack" if is_g2(src) => x.acks_from_prepared_g2 += 1,
                _ => {}
            },
            TraceEvent::Delivered { src, dst, kind, .. } => match kind {
                "prepare" if src == SiteId(0) && is_g2(dst) => {
                    x.prepares_to_g2_delivered += 1;
                    prepared_g2.push(dst);
                }
                "probe" if is_g2(src) && dst == SiteId(0) => x.probes_from_g2_delivered += 1,
                "commit" if src == SiteId(0) && is_g2(dst) => {
                    x.commits_master_to_g2_delivered += 1;
                    x.g2_with_commit.push(dst);
                }
                "ack" if is_g2(src) && dst == SiteId(0) => x.acks_from_prepared_g2_delivered += 1,
                _ => {}
            },
            _ => {}
        }
    }

    if x.prepares_to_g2 == 0 {
        return TransientCase::OutsideTree; // partition preceded phase 2
    }
    if x.prepares_to_g2_delivered == 0 {
        return TransientCase::Case1;
    }

    let all_prepares_passed = x.prepares_to_g2_delivered == x.prepares_to_g2;
    let all_acks_passed = x.acks_from_prepared_g2_delivered == x.acks_from_prepared_g2;
    let all_probes_passed = x.probes_from_g2_delivered == x.probes_from_g2;

    if !all_prepares_passed {
        // Case 2: some prepares crossed, some did not.
        if !all_acks_passed {
            TransientCase::Case2_1
        } else if !all_probes_passed {
            TransientCase::Case2_2_1
        } else {
            TransientCase::Case2_2_2
        }
    } else {
        // Case 3: every prepare crossed.
        if !all_acks_passed {
            TransientCase::Case3_1
        } else if x.commits_master_to_g2 > 0
            && x.commits_master_to_g2_delivered == x.commits_master_to_g2
        {
            TransientCase::Case3_2_1
        } else {
            // Some commits did not cross. Distinguish by the probes of the
            // commit-less G2 slaves.
            let commit_less_probes_missing = trace.events().iter().any(|ev| {
                matches!(*ev,
                    TraceEvent::Returned { src, kind: "probe", .. }
                        if g2.contains(&src) && !x.g2_with_commit.contains(&src))
            });
            if commit_less_probes_missing {
                TransientCase::Case3_2_2_1
            } else {
                TransientCase::Case3_2_2_2
            }
        }
    }
}

/// The longest wait, across G2... across *all* slaves, between timing out in
/// `p` (trace note `slave-timeout-p`) and the next terminating stimulus
/// (commit/abort delivery, probe return, or the 5T rule firing), in ticks.
/// Returns `None` if no slave timed out in `p`.
pub fn max_wait_after_p_timeout(trace: &Trace, n: usize) -> Option<u64> {
    let mut max: Option<u64> = None;
    for site in 1..n as u16 {
        let site = SiteId(site);
        let Some((timeout_at, _)) = trace.first_note(site, "slave-timeout-p") else {
            continue;
        };
        // The terminating stimulus: first of commit/abort delivered to the
        // site, UD(probe) returned to it, or its pwait-commit note.
        let mut candidates: Vec<u64> = Vec::new();
        for ev in trace.events() {
            match *ev {
                TraceEvent::Delivered { at, dst, kind, .. }
                    if dst == site && (kind == "commit" || kind == "abort") && at >= timeout_at =>
                {
                    candidates.push(at.ticks());
                }
                TraceEvent::Returned { at, src, kind: "probe", .. }
                    if src == site && at >= timeout_at =>
                {
                    candidates.push(at.ticks());
                }
                TraceEvent::Note { at, site: s, label: "slave-pwait-commit", .. }
                    if s == site && at >= timeout_at =>
                {
                    candidates.push(at.ticks());
                }
                _ => {}
            }
        }
        if let Some(first) = candidates.into_iter().min() {
            let wait = first - timeout_at.ticks();
            max = Some(max.map_or(wait, |m: u64| m.max(wait)));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ProtocolKind, Scenario};
    use crate::session::ScenarioResult;
    use crate::session::SessionPool;
    use ptp_protocols::RunOptions;

    /// Classifier runs all go through one shared cluster: the pool hands
    /// back the `(HuangLi3pc, n)` session for every scenario.
    fn recorded(pool: &mut SessionPool, s: &Scenario) -> ScenarioResult {
        pool.session(ProtocolKind::HuangLi3pc, s.n).run_with(s, &RunOptions::recording())
    }

    #[test]
    fn paper_bounds_table() {
        assert_eq!(TransientCase::Case2_1.paper_bound_t(), Some(1));
        assert_eq!(TransientCase::Case2_2_1.paper_bound_t(), Some(4));
        assert_eq!(TransientCase::Case2_2_2.paper_bound_t(), Some(5));
        assert_eq!(TransientCase::Case3_1.paper_bound_t(), Some(1));
        assert_eq!(TransientCase::Case3_2_2_1.paper_bound_t(), Some(4));
        assert_eq!(TransientCase::Case3_2_2_2.paper_bound_t(), None);
    }

    #[test]
    fn labels_match_paper_numbering() {
        assert_eq!(TransientCase::Case3_2_2_2.label(), "3.2.2.2");
        assert_eq!(TransientCase::Case1.label(), "1");
    }

    #[test]
    fn classifier_cases_over_one_shared_cluster() {
        // One pooled session serves every classifier run in sequence; the
        // cases must come out exactly as they did from one-shot clusters.
        let mut pool = SessionPool::new();

        // Partition at t=0: no prepare was ever sent.
        let s = Scenario::new(3).partition_g2(vec![ptp_simnet::SiteId(2)], 0);
        let r = recorded(&mut pool, &s);
        assert_eq!(classify(&r.trace, &[ptp_simnet::SiteId(2)]), TransientCase::OutsideTree);

        // With fixed delay T: xact 0..1T, yes 1T..2T, prepares sent at 2T
        // arriving at 3T. Partition at 2.5T catches the G2 prepare
        // mid-flight: it bounces and no prepare crosses B.
        let s = Scenario::new(3).partition_g2(vec![ptp_simnet::SiteId(2)], 2500);
        let r = recorded(&mut pool, &s);
        assert_eq!(classify(&r.trace, &[ptp_simnet::SiteId(2)]), TransientCase::Case1);
        assert!(r.verdict.is_resilient());

        // Partition just after commits went out at 4T: commit to G2 is
        // mid-flight and bounces -> case 3.2.2.x.
        let s = Scenario::new(3).partition_g2(vec![ptp_simnet::SiteId(2)], 4500);
        let r = recorded(&mut pool, &s);
        let case = classify(&r.trace, &[ptp_simnet::SiteId(2)]);
        assert!(
            matches!(case, TransientCase::Case3_2_2_1 | TransientCase::Case3_2_2_2),
            "got {case:?}"
        );
        assert!(r.verdict.is_resilient());

        assert_eq!(pool.len(), 1, "every run shared the one cluster");
    }

    #[test]
    fn p_timeout_wait_measured_when_present() {
        let mut pool = SessionPool::new();
        let s = Scenario::new(3).partition_g2(vec![ptp_simnet::SiteId(2)], 4500);
        let r = recorded(&mut pool, &s);
        let wait = max_wait_after_p_timeout(&r.trace, 3);
        assert!(wait.is_some());
        // Sec. 6: never more than 5T.
        assert!(wait.unwrap() <= 5000, "wait {wait:?} exceeds 5T");
    }
}
