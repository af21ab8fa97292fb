//! Partition-schedule equivalence properties.
//!
//! Two pins keep the new multi-episode schedule machinery honest:
//!
//! 1. a **single-episode** two-group schedule is field-identical (verdict,
//!    per-site outcomes, trace, counters) to the legacy
//!    `PartitionShape::Simple` path — i.e. `PartitionEngine::reset_schedule`
//!    generalizes `reset_single` without changing a single behaviour;
//! 2. **multi-episode** schedules replayed through a reused
//!    [`ptp_core::Session`] match fresh one-shot runs, for every protocol —
//!    buffer recycling across schedule rewrites never leaks state.

use proptest::prelude::*;
use ptp_core::{ProtocolKind, RunOptions, Scenario, Session, SessionPool};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{DelayModel, PartitionEngine, PartitionSpec, SimTime, SiteId};

/// The sites `0..n` minus `g2` (G1, master included).
fn complement(n: usize, g2: &[SiteId]) -> Vec<SiteId> {
    (0..n as u16).map(SiteId).filter(|s| !g2.contains(s)).collect()
}

/// Decodes a non-empty proper slave subset from `mask` (wrapped into range).
fn g2_from_mask(n: usize, mask: u64) -> Vec<SiteId> {
    let slaves = n - 1;
    let mask = 1 + mask % ((1u64 << slaves) - 1);
    (0..slaves).filter(|i| mask >> i & 1 == 1).map(|i| SiteId(i as u16 + 1)).collect()
}

/// Field-for-field comparison of two recorded scenario results.
fn assert_results_identical(
    kind: ProtocolKind,
    label: &str,
    a: &ptp_core::ScenarioResult,
    b: &ptp_core::ScenarioResult,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.verdict, &b.verdict, "{} verdict ({})", kind.name(), label);
    prop_assert_eq!(&a.outcomes, &b.outcomes, "{} outcomes ({})", kind.name(), label);
    prop_assert_eq!(a.trace.events(), b.trace.events(), "{} trace ({})", kind.name(), label);
    prop_assert_eq!(&a.report.counters, &b.report.counters, "{} counters ({})", kind.name(), label);
    prop_assert_eq!(a.report.events, b.report.events, "{} event count ({})", kind.name(), label);
    Ok(())
}

/// A randomized valid multi-episode schedule over `n` sites: 1–3 episodes,
/// each regrouping the sites into 2–3 groups (master in group 0), separated
/// by non-overlapping time windows.
fn random_schedule(n: usize, seed: u64) -> PartitionEngine {
    let mut rng = SmallRng::seed_from_u64(seed);
    let episodes = 1 + rng.gen_range(0..=2) as usize;
    let mut schedule = Vec::new();
    let mut t = 250 * rng.gen_range(1..=16); // first split in (0, 4T]
    for e in 0..episodes {
        let group_count = 2 + rng.gen_range(0..=1) as usize;
        let mut groups = vec![Vec::new(); group_count];
        groups[0].push(SiteId(0));
        for site in 1..n as u16 {
            groups[1 + rng.gen_range(0..=(group_count as u64 - 2)) as usize].push(SiteId(site));
        }
        let last = e + 1 == episodes;
        // A final episode heals ~half the time; earlier ones always heal.
        let heal = if last && rng.next_u64() & 1 == 0 {
            None
        } else {
            Some(t + 250 * rng.gen_range(1..=12))
        };
        schedule.push(PartitionSpec { at: SimTime(t), groups, heal_at: heal.map(SimTime) });
        // Next episode starts at or after the heal (sometimes exactly at
        // it — the seamless-regroup case).
        t = heal.unwrap_or(t) + 250 * rng.gen_range(0..=8);
    }
    // Validates order and the no-overlap invariant.
    PartitionEngine::new(schedule)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn single_episode_schedule_matches_legacy_simple_path(
        n in 3usize..=5,
        mask in 0u64..1024,
        at_step in 0u64..=16,
        heal_step in prop::option::of(1u64..=12),
        seed in 0u64..1 << 32,
    ) {
        let g2 = g2_from_mask(n, mask);
        let at = at_step * 500;
        let heal_at = heal_step.map(|h| at + h * 500);
        let delay = DelayModel::Uniform { seed, min: 1, max: 1000 };

        let legacy = match heal_at {
            None => Scenario::new(n).partition_g2(g2.clone(), at),
            Some(h) => Scenario::new(n).transient_partition(g2.clone(), at, h),
        }
        .delay(delay.clone());

        let schedule = Scenario::new(n)
            .partition_schedule(PartitionEngine::new(vec![PartitionSpec {
                at: SimTime(at),
                groups: vec![complement(n, &g2), g2],
                heal_at: heal_at.map(SimTime),
            }]))
            .delay(delay);

        for kind in ProtocolKind::ALL {
            let a = Session::new(kind, n).run_with(&legacy, &RunOptions::recording());
            let b = Session::new(kind, n).run_with(&schedule, &RunOptions::recording());
            assert_results_identical(kind, "single-episode schedule vs Simple", &a, &b)?;
        }
    }

    #[test]
    fn schedule_replay_through_reused_session_matches_one_shot(
        n in 3usize..=5,
        seed in 0u64..1 << 32,
    ) {
        // One pool for the whole property: by the later cases every session
        // has already replayed many different schedules, so this exercises
        // warm-buffer reuse across schedule rewrites, not fresh clusters.
        thread_local! {
            static POOL: std::cell::RefCell<SessionPool> =
                std::cell::RefCell::new(SessionPool::new());
        }
        let scenario = Scenario::new(n)
            .partition_schedule(random_schedule(n, seed))
            .delay(DelayModel::Uniform { seed: seed ^ 0x9e37, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let reused = POOL.with(|pool| {
                pool.borrow_mut().session(kind, n).run_with(&scenario, &RunOptions::recording())
            });
            let fresh = Session::new(kind, n).run_with(&scenario, &RunOptions::recording());
            assert_results_identical(kind, "reused session vs one-shot", &reused, &fresh)?;
        }
    }
}
