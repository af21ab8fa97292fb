//! The paper's timing bounds (Figs. 5, 6, 7, 9) as enforced invariants:
//! adversarial schedules reconstruct each worst case; randomized sweeps
//! must never exceed the stated bound.

use ptp_core::cases::max_wait_after_p_timeout;
use ptp_core::{ProtocolKind, RunOptions, Scenario, ScenarioResult, Session};
use ptp_simnet::{DelayModel, ScheduleBuilder, SiteId, Trace, TraceEvent};

/// One recorded HL-3PC run of `scenario`.
fn recorded(scenario: &Scenario) -> ScenarioResult {
    Session::new(ProtocolKind::HuangLi3pc, scenario.n).run_with(scenario, &RunOptions::recording())
}

fn probe_gap(trace: &Trace) -> Option<u64> {
    let first_ud = trace.events().iter().find_map(|e| match e {
        TraceEvent::Returned { at, src, kind: "prepare", .. } if *src == SiteId(0) => {
            Some(at.ticks())
        }
        _ => None,
    })?;
    trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Delivered { at, dst, kind: "probe", .. } if *dst == SiteId(0) => {
                Some(at.ticks())
            }
            _ => None,
        })
        .max()
        .map(|last| last.saturating_sub(first_ud))
}

fn max_w_wait(trace: &Trace, n: usize) -> Option<u64> {
    let mut max = None;
    for site in 1..n as u16 {
        let site = SiteId(site);
        let Some((timeout_at, _)) = trace.first_note(site, "slave-timeout-w") else { continue };
        let commit_at = trace.events().iter().find_map(|e| match e {
            TraceEvent::Delivered { at, dst, kind: "commit", .. }
                if *dst == site && *at >= timeout_at =>
            {
                Some(at.ticks())
            }
            _ => None,
        });
        if let Some(c) = commit_at {
            let gap = c - timeout_at.ticks();
            max = Some(max.map_or(gap, |m: u64| m.max(gap)));
        }
    }
    max
}

#[test]
fn fig5_no_spurious_timeouts_failure_free() {
    for delay in [
        DelayModel::Fixed(1000), // every message at the bound
        DelayModel::Fixed(1),
        DelayModel::Uniform { seed: 3, min: 1, max: 1000 },
    ] {
        let result = recorded(&Scenario::new(5).delay(delay));
        let timeouts = result
            .trace
            .events()
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Note { label, .. }
                    if label.starts_with("master-timeout") || label.starts_with("slave-timeout"))
            })
            .count();
        assert_eq!(timeouts, 0);
    }
}

#[test]
fn fig6_adversarial_probe_gap_is_tight_but_bounded() {
    // prepare->2 bounces almost instantly; the G1 slave's probe is as late
    // as the delay bound allows: gap approaches 5T from below.
    let schedule = ScheduleBuilder::with_default(1000).outbound(5, 1).return_leg(5, 1).build();
    let scenario = Scenario::new(3).partition_g2(vec![SiteId(2)], 2001).delay(schedule);
    let result = recorded(&scenario);
    let gap = probe_gap(&result.trace).expect("UD + probe must occur");
    assert!(gap <= 5000, "gap {gap} exceeds 5T");
    assert!(gap >= 4900, "adversarial schedule should approach 5T, got {gap}");
    assert!(result.verdict.is_resilient());
}

#[test]
fn fig6_randomized_probe_gaps_within_5t() {
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
    let recording = RunOptions::recording();
    for seed in 0..25u64 {
        for at in (1500..=3500).step_by(500) {
            let scenario = Scenario::new(3)
                .partition_g2(vec![SiteId(2)], at)
                .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
            let result = session.run_with(&scenario, &recording);
            assert!(result.verdict.is_resilient());
            if let Some(gap) = probe_gap(&result.trace) {
                assert!(gap <= 5000, "seed {seed} at {at}: gap {gap}");
            }
        }
    }
}

#[test]
fn fig7_adversarial_w_wait_is_tight_but_bounded() {
    // The Fig. 7 worst case: the peer's commit reaches the w-waiting slave
    // just inside 6T (see exp_fig7_wait_w_bound for the construction).
    let schedule =
        ScheduleBuilder::with_default(1000).outbound(1, 1).outbound(4, 998).outbound(6, 1).build();
    let scenario = Scenario::new(3).partition_g2(vec![SiteId(1), SiteId(2)], 3000).delay(schedule);
    let result = recorded(&scenario);
    let gap = max_w_wait(&result.trace, 3).expect("w wait must occur");
    assert!(gap <= 6000, "gap {gap} exceeds 6T");
    assert!(gap >= 5900, "adversarial schedule should approach 6T, got {gap}");
    assert!(result.verdict.is_resilient());
}

#[test]
fn fig7_randomized_w_waits_within_6t() {
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
    let recording = RunOptions::recording();
    for seed in 0..25u64 {
        for at in (500..=4000).step_by(500) {
            for g2 in [vec![SiteId(2)], vec![SiteId(1), SiteId(2)]] {
                let scenario = Scenario::new(3).partition_g2(g2, at).delay(DelayModel::Uniform {
                    seed,
                    min: 1,
                    max: 1000,
                });
                let result = session.run_with(&scenario, &recording);
                if let Some(gap) = max_w_wait(&result.trace, 3) {
                    assert!(gap <= 6000, "seed {seed} at {at}: gap {gap}");
                }
            }
        }
    }
}

#[test]
fn fig9_p_timeout_waits_within_5t_even_transient() {
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
    let recording = RunOptions::recording();
    for seed in 0..15u64 {
        for at in (2000..=4500).step_by(500) {
            for heal in [1000u64, 3000, 6000] {
                let scenario = Scenario::new(3)
                    .transient_partition(vec![SiteId(2)], at, at + heal)
                    .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
                let result = session.run_with(&scenario, &recording);
                assert!(result.verdict.is_resilient());
                if let Some(wait) = max_wait_after_p_timeout(&result.trace, 3) {
                    assert!(wait <= 5000, "seed {seed} at {at} heal {heal}: wait {wait}");
                }
            }
        }
    }
}

#[test]
fn decision_latency_bounded_under_any_partition() {
    // End-to-end liveness bound: every site decides within a fixed horizon
    // of the partition (no unbounded waiting anywhere in the protocol).
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
    for at in (0..=6000).step_by(500) {
        let scenario = Scenario::new(4).partition_g2(vec![SiteId(2), SiteId(3)], at);
        let result = session.run(&scenario);
        for (i, o) in result.outcomes.iter().enumerate() {
            let decided = o.decided_at.unwrap_or_else(|| panic!("site {i} undecided"));
            // Commit protocol takes <= 5T failure-free; termination adds at
            // most ~10T of timer chains after the partition.
            assert!(
                decided.ticks() <= at + 15_000,
                "site {i} decided at {decided}, partition at {at}"
            );
        }
    }
    // Nor does cluster size open a gap: the upper half secedes at 2.5T and
    // every site of a 3- to 17-site cluster still decides, consistently.
    for n in [3usize, 5, 9, 17] {
        let g2 = (n as u16 / 2..n as u16).map(SiteId).collect();
        let result =
            Session::new(ProtocolKind::HuangLi3pc, n).run(&Scenario::new(n).partition_g2(g2, 2500));
        assert!(result.verdict.is_resilient(), "n = {n}: {:?}", result.verdict);
    }
}
