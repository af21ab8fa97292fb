//! The session-reuse equivalence property (PR 2 tentpole guarantee):
//!
//! > A [`Session`] reused across 100 randomized scenarios produces
//! > field-identical [`ScenarioResult`]s to fresh one-shot runs, for every
//! > [`ProtocolKind`].
//!
//! Scenarios randomize the partition shape (none / simple / transient /
//! multiple), instant, heal, delay model, vote vector, undeliverable mode
//! and trace mode, all from a seeded [`SmallRng`] so failures replay
//! bit-for-bit. A second, proptest-driven property cross-checks that a
//! pre-warmed session's verdict-only fast path agrees with its full
//! results and with fresh one-shot runs.

use proptest::prelude::*;
use ptp_core::{
    run_scenario_opts, PartitionShape, ProtocolKind, RunOptions, Scenario, ScenarioResult, Session,
};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{DelayModel, PartitionEngine, PartitionSpec, SimTime, SiteId};

const N: usize = 4;
const RUNS_PER_KIND: usize = 100;

fn random_scenario(rng: &mut SmallRng) -> Scenario {
    let mut scenario = Scenario::new(N);

    // Votes: mostly unanimous yes (the interesting case), sometimes mixed.
    if rng.gen_range(0..=3) == 0 {
        scenario.votes =
            (0..N - 1).map(|_| if rng.gen_range(0..=2) == 0 { No } else { Yes }).collect();
    }

    // Delay model.
    scenario = scenario.delay(match rng.gen_range(0..=2) {
        0 => DelayModel::Fixed(1 + rng.gen_range(0..=999)),
        1 => DelayModel::Uniform { seed: rng.gen_range(0..=9_999), min: 1, max: 1000 },
        _ => DelayModel::Fixed(1000),
    });

    // Partition shape.
    let at = rng.gen_range(0..=8999);
    scenario.partition = match rng.gen_range(0..=4) {
        0 => PartitionShape::None,
        1 | 2 => {
            let g2 = random_g2(rng);
            let heal = if rng.gen_range(0..=1) == 0 {
                None
            } else {
                Some(at + 500 + rng.gen_range(0..=7999))
            };
            PartitionShape::Simple { g2, at, heal_at: heal }
        }
        3 => PartitionShape::Simple { g2: random_g2(rng), at, heal_at: None },
        _ => {
            // Multiple partitioning: a schedule in the fault plan.
            scenario.faults.partition = PartitionEngine::new(vec![PartitionSpec {
                at: SimTime(at),
                groups: vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]],
                heal_at: if rng.gen_range(0..=1) == 0 { None } else { Some(SimTime(at + 2000)) },
            }]);
            PartitionShape::None
        }
    };

    if rng.gen_range(0..=5) == 0 {
        scenario = scenario.pessimistic();
    }
    scenario
}

use ptp_core::protocols::Vote::{No, Yes};

fn random_g2(rng: &mut SmallRng) -> Vec<SiteId> {
    let mask = 1 + rng.gen_range(0..=((1u64 << (N - 1)) - 2));
    (0..N - 1).filter(|i| mask >> i & 1 == 1).map(|i| SiteId(i as u16 + 1)).collect()
}

fn assert_identical(kind: ProtocolKind, i: usize, warm: &ScenarioResult, fresh: &ScenarioResult) {
    let tag = format!("{} run #{i}", kind.name());
    assert_eq!(warm.verdict, fresh.verdict, "{tag}: verdict");
    assert_eq!(warm.outcomes, fresh.outcomes, "{tag}: outcomes");
    assert_eq!(warm.trace.events(), fresh.trace.events(), "{tag}: trace");
    assert_eq!(warm.report.stop, fresh.report.stop, "{tag}: stop reason");
    assert_eq!(warm.report.ended_at, fresh.report.ended_at, "{tag}: end instant");
    assert_eq!(warm.report.events, fresh.report.events, "{tag}: event count");
    assert_eq!(warm.report.counters, fresh.report.counters, "{tag}: counters");
}

#[test]
fn session_reused_100_times_matches_one_shot_for_every_kind() {
    for kind in ProtocolKind::ALL {
        // One session per kind, reused for all 100 scenarios; the RNG seed
        // is fixed per kind so every failure is replayable.
        let mut session = Session::new(kind, N);
        let mut rng = SmallRng::seed_from_u64(0xBEEF ^ kind.name().len() as u64);
        for i in 0..RUNS_PER_KIND {
            let scenario = random_scenario(&mut rng);
            let options =
                if rng.gen_range(0..=1) == 0 { RunOptions::recording() } else { RunOptions::new() };
            let warm = session.run_with(&scenario, &options);
            let fresh = run_scenario_opts(kind, &scenario, &options);
            assert_identical(kind, i, &warm, &fresh);
            if !options.record {
                assert!(warm.trace.is_empty(), "{} #{i}: counters mode traced", kind.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Cross-check with independently drawn proptest inputs: warm session
    /// verdicts equal one-shot verdicts for the paper's protocol, and the
    /// verdict-only fast path agrees with the full result. A mismatch is
    /// reported with the shrunk (minimal) instant/seed pair, not the raw
    /// draw.
    #[test]
    fn warm_session_verdict_equals_one_shot(
        at in 0u64..9000,
        g2_mask in 1u64..7,
        seed in 0u64..500,
        heal in prop::option::of(500u64..8000),
    ) {
        let g2: Vec<SiteId> =
            (0..N - 1).filter(|i| g2_mask >> i & 1 == 1).map(|i| SiteId(i as u16 + 1)).collect();
        let mut scenario = Scenario::new(N)
            .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
        scenario.partition =
            PartitionShape::Simple { g2, at, heal_at: heal.map(|h| at + h) };

        let options = RunOptions::new();
        let mut session = Session::new(ProtocolKind::HuangLi3pc, N);
        // Warm the session with an unrelated run first.
        let _ = session.run(&Scenario::new(N));
        let fast = session.verdict(&scenario, &options);
        let full = session.run_with(&scenario, &options);
        let fresh = run_scenario_opts(ProtocolKind::HuangLi3pc, &scenario, &options);
        prop_assert_eq!(&fast, &full.verdict);
        prop_assert_eq!(&full.verdict, &fresh.verdict);
        prop_assert_eq!(full.outcomes, fresh.outcomes);
    }
}
