//! Per-site outcome records and the consistency verdict.

use ptp_model::Decision;
use ptp_simnet::{SimTime, SiteId};

/// What one site did during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteOutcome {
    /// Final decision, if the site terminated.
    pub decision: Option<Decision>,
    /// When the decision was recorded.
    pub decided_at: Option<SimTime>,
    /// State-name history with timestamps (from participants' notes).
    pub history: Vec<(SimTime, &'static str)>,
}

impl SiteOutcome {
    /// True if the site never reached a decision — the paper's "blocked".
    pub fn blocked(&self) -> bool {
        self.decision.is_none()
    }
}

/// The atomicity verdict over all sites of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every site committed.
    AllCommit,
    /// Every site aborted.
    AllAbort,
    /// Everyone who decided agreed, but some sites never decided.
    Blocked {
        /// The undecided sites.
        undecided: Vec<SiteId>,
        /// What the decided sites chose (`None` if nobody decided).
        agreed: Option<Decision>,
    },
    /// Atomicity violation: some sites committed while others aborted.
    Inconsistent {
        /// Sites that committed.
        committed: Vec<SiteId>,
        /// Sites that aborted.
        aborted: Vec<SiteId>,
    },
}

impl Verdict {
    /// Classifies a slice of outcomes.
    ///
    /// Counts first and collects site ids only for the two verdicts that
    /// carry them, so the all-commit / all-abort bulk of a sweep allocates
    /// nothing.
    pub fn judge(outcomes: &[SiteOutcome]) -> Verdict {
        let sites_with = |decision: Option<Decision>| -> Vec<SiteId> {
            let sites = (0..outcomes.len()).filter(|&i| outcomes[i].decision == decision);
            sites.map(|i| SiteId(i as u16)).collect()
        };
        let count = |decision| outcomes.iter().filter(|o| o.decision == decision).count();
        let (commits, aborts) = (count(Some(Decision::Commit)), count(Some(Decision::Abort)));
        let undecided = outcomes.len() - commits - aborts;
        match (commits, aborts, undecided) {
            (1.., 1.., _) => Verdict::Inconsistent {
                committed: sites_with(Some(Decision::Commit)),
                aborted: sites_with(Some(Decision::Abort)),
            },
            (1.., 0, 0) => Verdict::AllCommit,
            (0, 1.., 0) => Verdict::AllAbort,
            _ => Verdict::Blocked {
                undecided: sites_with(None),
                agreed: if commits > 0 {
                    Some(Decision::Commit)
                } else if aborts > 0 {
                    Some(Decision::Abort)
                } else {
                    None
                },
            },
        }
    }

    /// Resilience in the paper's sense: atomicity preserved *and* nonblocking.
    pub fn is_resilient(&self) -> bool {
        matches!(self, Verdict::AllCommit | Verdict::AllAbort)
    }

    /// Atomicity alone (blocking allowed).
    pub fn is_atomic(&self) -> bool {
        !matches!(self, Verdict::Inconsistent { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(d: Option<Decision>) -> SiteOutcome {
        SiteOutcome { decision: d, decided_at: d.map(|_| SimTime(1)), history: vec![] }
    }

    #[test]
    fn all_commit() {
        let v = Verdict::judge(&vec![outcome(Some(Decision::Commit)); 3]);
        assert_eq!(v, Verdict::AllCommit);
        assert!(v.is_resilient());
        assert!(v.is_atomic());
    }

    #[test]
    fn all_abort() {
        let v = Verdict::judge(&vec![outcome(Some(Decision::Abort)); 2]);
        assert_eq!(v, Verdict::AllAbort);
        assert!(v.is_resilient());
    }

    #[test]
    fn inconsistent_dominates_blocked() {
        let v = Verdict::judge(&[
            outcome(Some(Decision::Commit)),
            outcome(Some(Decision::Abort)),
            outcome(None),
        ]);
        match &v {
            Verdict::Inconsistent { committed, aborted } => {
                assert_eq!(committed, &vec![SiteId(0)]);
                assert_eq!(aborted, &vec![SiteId(1)]);
            }
            other => panic!("expected inconsistent, got {other:?}"),
        }
        assert!(!v.is_atomic());
        assert!(!v.is_resilient());
    }

    #[test]
    fn blocked_with_agreement() {
        let v = Verdict::judge(&[outcome(Some(Decision::Commit)), outcome(None)]);
        assert_eq!(
            v,
            Verdict::Blocked { undecided: vec![SiteId(1)], agreed: Some(Decision::Commit) }
        );
        assert!(v.is_atomic());
        assert!(!v.is_resilient());
    }

    #[test]
    fn blocked_nobody_decided() {
        let v = Verdict::judge(&[outcome(None), outcome(None)]);
        match v {
            Verdict::Blocked { ref undecided, agreed: None } => {
                assert_eq!(undecided.len(), 2);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn blocked_predicate_on_outcomes() {
        assert!(outcome(None).blocked());
        assert!(!outcome(Some(Decision::Commit)).blocked());
    }
}
