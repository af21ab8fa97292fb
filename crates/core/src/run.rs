//! One-shot scenario execution.
//!
//! These free functions build a [`crate::Session`] internally, run it once
//! and discard it — convenient for single scenarios and tests. Anything
//! that executes *many* scenarios (sweeps, experiment loops) should hold a
//! `Session` so the cluster and simulator buffers are built once and
//! reused.

use crate::scenario::{ProtocolKind, Scenario};
use crate::session::Session;
use ptp_protocols::{RunOptions, SiteOutcome, Verdict};
use ptp_simnet::{RunReport, Trace};

/// The result of one scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Atomicity/blocking verdict.
    pub verdict: Verdict,
    /// Per-site outcomes.
    pub outcomes: Vec<SiteOutcome>,
    /// Full network trace (for timing measurements and debugging). Empty
    /// unless the run set [`RunOptions::record`].
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
}

/// Runs `kind` through `scenario` once with typed [`RunOptions`].
pub fn run_scenario_opts(
    kind: ProtocolKind,
    scenario: &Scenario,
    options: &RunOptions,
) -> ScenarioResult {
    Session::new(kind, scenario.n).run_with(scenario, options)
}

/// Runs `kind` through `scenario` once and judges the outcome, recording a
/// full trace (equivalent to [`run_scenario_opts`] with
/// [`RunOptions::recording`]).
pub fn run_scenario(kind: ProtocolKind, scenario: &Scenario) -> ScenarioResult {
    run_scenario_opts(kind, scenario, &RunOptions::recording())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_model::Decision;
    use ptp_protocols::api::Vote;
    use ptp_simnet::SiteId;

    #[test]
    fn every_protocol_commits_failure_free() {
        let s = Scenario::new(3);
        for kind in ProtocolKind::ALL {
            let r = run_scenario(kind, &s);
            assert_eq!(r.verdict, Verdict::AllCommit, "{}", kind.name());
        }
    }

    #[test]
    fn every_protocol_aborts_on_no_vote() {
        let s = Scenario::new(3).votes(vec![Vote::Yes, Vote::No]);
        for kind in ProtocolKind::ALL {
            let r = run_scenario(kind, &s);
            assert_eq!(r.verdict, Verdict::AllAbort, "{}", kind.name());
        }
    }

    #[test]
    fn plain_2pc_blocks_under_partition() {
        // Partition strikes while the slaves wait for the decision: the cut
        // slave can never learn it and blocks (the paper's Sec. 1 story).
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        let r = run_scenario(ProtocolKind::Plain2pc, &s);
        assert!(
            matches!(r.verdict, Verdict::Blocked { .. }),
            "expected blocking, got {:?}",
            r.verdict
        );
    }

    #[test]
    fn huang_li_survives_a_nasty_partition() {
        // Split right as prepares are in flight.
        let s = Scenario::new(4).partition_g2(vec![SiteId(2), SiteId(3)], 2500);
        let r = run_scenario(ProtocolKind::HuangLi3pc, &s);
        assert!(r.verdict.is_resilient(), "{:?}", r.verdict);
    }

    #[test]
    fn huang_li_decides_commit_when_no_partition_interferes() {
        let s = Scenario::new(5);
        let r = run_scenario(ProtocolKind::HuangLi3pc, &s);
        for o in &r.outcomes {
            assert_eq!(o.decision, Some(Decision::Commit));
        }
    }

    #[test]
    fn counters_mode_matches_recording_mode_on_transient_partition() {
        // Recording a trace must never feed back into protocol
        // behaviour: verdict, per-site outcomes and event counters all
        // match; only the trace itself is withheld.
        let s = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 7500)
            .delay(ptp_simnet::DelayModel::Uniform { seed: 42, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let recorded = run_scenario_opts(kind, &s, &RunOptions::recording());
            let quiet = run_scenario_opts(kind, &s, &RunOptions::new());
            assert_eq!(recorded.verdict, quiet.verdict, "{}", kind.name());
            assert_eq!(recorded.outcomes, quiet.outcomes, "{}", kind.name());
            assert_eq!(recorded.report.counters, quiet.report.counters, "{}", kind.name());
            assert_eq!(recorded.report.events, quiet.report.events, "{}", kind.name());
            assert!(!recorded.trace.is_empty(), "{}", kind.name());
            assert!(quiet.trace.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn quorum_minority_blocks() {
        // n=3 majority quorums: the lone slave cut off mid-protocol cannot
        // assemble any quorum and blocks.
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        let r = run_scenario(ProtocolKind::QuorumMajority, &s);
        match r.verdict {
            Verdict::Blocked { ref undecided, .. } => {
                assert_eq!(undecided, &vec![SiteId(2)]);
            }
            ref other => panic!("expected minority blocking, got {other:?}"),
        }
    }
}
