//! Secs. 5–6: the timing constants the termination protocol rests on —
//! Fig. 5's timeout intervals, Fig. 6's 5T probe bound, Fig. 7's 6T wait
//! in `w`, and the Fig. 9 / Sec. 6 case tree of transient partitions. Each
//! bound is measured twice: on an adversarial schedule built from the
//! paper's own worst case, and over randomized sweeps.

use super::{in_t, say, Output};
use ptp_core::cases::{classify, max_wait_after_p_timeout, TransientCase};
use ptp_core::report::Table;
use ptp_core::{ProtocolKind, RunOptions, Scenario, Session};
use ptp_protocols::api::Vote;
use ptp_protocols::clusters::huang_li_3pc_cluster_with_timing_any;
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::termination::{ProtocolTiming, TerminationVariant};
use ptp_protocols::Verdict;
use ptp_simnet::{DelayModel, NetConfig, ScheduleBuilder, SiteId, Trace, TraceEvent};
use std::collections::BTreeMap;

/// E6 — Fig. 5: with the paper's 2T (master) / 3T (slave) intervals no
/// failure-free run fires a protocol timeout, even when every message
/// takes exactly `T`; undersized timers stay atomic but kill live
/// transactions.
pub(super) fn fig5() -> Output {
    let mut o = Output::default();
    say!(o, "== E6 / Fig. 5: timeout-interval adequacy (master 2T, slave 3T) ==\n");

    let delays: Vec<(&str, DelayModel)> = vec![
        ("all messages exactly T (worst case)", DelayModel::Fixed(1000)),
        ("all messages T/2", DelayModel::Fixed(500)),
        ("near-instant", DelayModel::Fixed(1)),
        ("uniform (0,T], seed 1", DelayModel::Uniform { seed: 1, min: 1, max: 1000 }),
        ("uniform (0,T], seed 2", DelayModel::Uniform { seed: 2, min: 1, max: 1000 }),
        ("uniform (0,T], seed 3", DelayModel::Uniform { seed: 3, min: 1, max: 1000 }),
        ("uniform [T/2,T], seed 3", DelayModel::Uniform { seed: 3, min: 500, max: 1000 }),
    ];
    let mut quiet = 0;
    for n in [4, 5] {
        let mut table = Table::new(vec!["network", "verdict", "spurious timeouts"]);
        for (name, delay) in &delays {
            let (verdict, timeouts) = failure_free(n, ProtocolTiming::default(), delay);
            quiet += usize::from(timeouts == 0 && verdict == Verdict::AllCommit);
            table.row(vec![name.to_string(), format!("{verdict:?}"), timeouts.to_string()]);
        }
        say!(o, "paper constants (2T / 3T): failure-free, n = {n}\n{}", table.render());
    }
    o.claim(
        "paper_constants_never_fire",
        quiet == 2 * delays.len(),
        format!("{quiet} of {} runs (n = 4, 5) commit with no timeout", 2 * delays.len()),
    );

    say!(o, "undersized timers on the all-T network:\n");
    let mut table = Table::new(vec!["timing", "verdict", "spurious timeouts"]);
    let (mut atomic, mut killed) = (true, false);
    for (name, timing) in [
        ("master 1T (< 2T)", ProtocolTiming { master_proto: 1, ..Default::default() }),
        ("slave 2T", ProtocolTiming { slave_proto: 2, ..Default::default() }),
        ("slave 1T (< 2T)", ProtocolTiming { slave_proto: 1, ..Default::default() }),
        ("paper 2T/3T", ProtocolTiming::default()),
    ] {
        let (verdict, timeouts) = failure_free(4, timing, &DelayModel::Fixed(1000));
        atomic &= verdict.is_atomic();
        killed |= verdict == Verdict::AllAbort;
        table.row(vec![name.to_string(), format!("{verdict:?}"), timeouts.to_string()]);
    }
    say!(o, "{}", table.render());
    say!(o, "Undersized timers remain atomic but kill live transactions — the paper's");
    say!(o, "values are the smallest that cover a full round trip. (Note on arming:");
    say!(o, "the paper measures from phase start at the master, this implementation");
    say!(o, "arms on local state entry — so a slave needs 2T from entering w, which");
    say!(o, "is exactly the paper's 3T minus the xact leg it has already absorbed.)");
    o.claim(
        "undersized_timers_atomic_but_abort",
        atomic && killed,
        format!("every timing atomic: {atomic}; a live transaction aborted: {killed}"),
    );
    o
}

/// One failure-free HL-3PC run of `n` sites under `timing`: its verdict
/// and how many protocol timeouts fired.
fn failure_free(n: usize, timing: ProtocolTiming, delay: &DelayModel) -> (Verdict, usize) {
    let parts = huang_li_3pc_cluster_with_timing_any(
        n,
        &vec![Vote::Yes; n - 1],
        TerminationVariant::Transient,
        timing,
    );
    let mut runner = ClusterRunner::new(parts);
    let (outcomes, trace, _) = runner.run(NetConfig::default(), delay, true);
    let timeouts = trace
        .events()
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::Note { label, .. }
                if label.starts_with("master-timeout") || label.starts_with("slave-timeout"))
        })
        .count();
    (Verdict::judge(outcomes), timeouts)
}

/// E7 — Fig. 6: "The longest possible time for a master to receive the
/// probe message after receiving an undeliverable prepare message = 5T",
/// the bound behind the master's 5T collection window.
pub(super) fn fig6() -> Output {
    let mut o = Output::default();
    say!(o, "== E7 / Fig. 6: master's probe-collection bound (paper: 5T) ==\n");
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
    let recording = RunOptions::recording();

    // Adversarial schedule, n = 3, G2 = {2}. Message send order:
    //   0: xact->1   1: xact->2   2: yes 1->0   3: yes 2->0
    //   4: prepare->1   5: prepare->2   6: ack 1->0   7: probe 1->0
    // prepare->2 is caught by the partition at 2T+1 and returned in 1 tick
    // (UD at ~2T); slave 1 receives its prepare at the full 3T, times out at
    // 6T, and its probe takes the full T: arrival 7T. Gap ≈ 5T − ε.
    let schedule = ScheduleBuilder::with_default(1000).outbound(5, 1).return_leg(5, 1).build();
    let scenario = Scenario::new(3).partition_g2(vec![SiteId(2)], 2001).delay(schedule);
    let result = session.run_with(&scenario, &recording);
    let gap = probe_gap(&result.trace);
    say!(
        o,
        "adversarial schedule: gap = {} (paper bound 5T), verdict {:?}",
        in_t(gap.unwrap_or(0), 3),
        result.verdict
    );
    o.claim(
        "adversarial_gap_tight",
        gap.is_some_and(|g| (4900..=5000).contains(&g)) && result.verdict.is_resilient(),
        format!("gap {gap:?} ticks in [4.9T, 5T], verdict {:?}", result.verdict),
    );

    // Randomized sweep.
    let (mut max_gap, mut runs, mut broken) = (0u64, 0usize, 0usize);
    let mut table = Table::new(vec!["seed", "partition at", "gap (T)"]);
    for seed in 0..40u64 {
        for at in (1500..=3500).step_by(250) {
            let scenario = Scenario::new(3)
                .partition_g2(vec![SiteId(2)], at)
                .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
            let result = session.run_with(&scenario, &recording);
            broken += usize::from(!result.verdict.is_resilient());
            let Some(gap) = probe_gap(&result.trace) else { continue };
            runs += 1;
            if gap > max_gap {
                max_gap = gap;
                table.row(vec![seed.to_string(), in_t(at, 2), format!("{:.3}", gap as f64 / 1e3)]);
            }
        }
    }
    say!(o, "\nrandomized sweep: {runs} runs with a UD(prepare)+probe; new maxima:\n");
    say!(o, "{}", table.render());
    say!(
        o,
        "measured max gap = {}  |  paper bound = 5T  |  bound holds: {}",
        in_t(max_gap, 3),
        max_gap <= 5000
    );
    o.claim(
        "random_gaps_within_5t",
        runs > 0 && max_gap <= 5000 && broken == 0,
        format!("max gap {} over {runs} runs; {broken} runs not resilient", in_t(max_gap, 3)),
    );
    o
}

/// Gap (ticks) between the first UD(prepare) at the master and the last
/// probe delivered to it.
fn probe_gap(trace: &Trace) -> Option<u64> {
    let first_ud = trace.events().iter().find_map(|e| match e {
        TraceEvent::Returned { at, src, kind: "prepare", .. } if *src == SiteId(0) => {
            Some(at.ticks())
        }
        _ => None,
    })?;
    let last_probe = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Delivered { at, dst, kind: "probe", .. } if *dst == SiteId(0) => {
                Some(at.ticks())
            }
            _ => None,
        })
        .max()?;
    Some(last_probe.saturating_sub(first_ud))
}

/// E8 — Fig. 7: "The longest possible time for a slave to receive a commit
/// after it times out in state w = 6T" — the window that lets a slave tell
/// "the transaction aborted" from "a committed peer's broadcast is still on
/// its way".
pub(super) fn fig7() -> Output {
    let mut o = Output::default();
    say!(o, "== E8 / Fig. 7: slave's post-w-timeout commit bound (paper: 6T) ==\n");

    // The paper's worst case, n = 3 with G2 = {1, 2} (master alone in G1).
    // Send order: 0: xact->1, 1: xact->2, 2: yes 2->0, 3: yes 1->0,
    // 4: prepare->1, 5: prepare->2, 6: ack 1->0, 7: probe 1->0,
    // 8/9: slave 1's commit broadcast.
    //
    //  * slave 2 gets its xact instantly (votes at t≈0, times out in w at
    //    ~3T);
    //  * slave 1's prepare arrives just before the partition at 3T, its ack
    //    squeaks through to the master, so the master owes it a commit that
    //    can never cross;
    //  * slave 1 times out in p at ~6T, its probe takes T out and T back
    //    (UD at ~8T), and its commit broadcast lands at slave 2 at ~9T —
    //    6T after slave 2's timeout.
    let schedule = ScheduleBuilder::with_default(1000)
        .outbound(1, 1) // xact->2 instantaneous
        .outbound(4, 998) // prepare->1 arrives at 2998, just inside
        .outbound(6, 1) // ack 1->0 delivered at 2999, before the cut
        .build();
    let scenario = Scenario::new(3).partition_g2(vec![SiteId(1), SiteId(2)], 3000).delay(schedule);
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
    let recording = RunOptions::recording();
    let result = session.run_with(&scenario, &recording);
    let gap = max_w_wait(&result.trace, 3);
    say!(
        o,
        "adversarial schedule: commit reached the w-waiting slave {} after its timeout",
        in_t(gap.unwrap_or(0), 3)
    );
    say!(o, "verdict: {:?} (paper bound 6T)", result.verdict);
    o.claim(
        "adversarial_wait_tight",
        gap.is_some_and(|g| (5900..=6000).contains(&g)) && result.verdict.is_resilient(),
        format!("wait {gap:?} ticks in [5.9T, 6T], verdict {:?}", result.verdict),
    );

    // Randomized sweep over boundaries, instants and delay seeds.
    let (mut max_gap, mut waits, mut broken) = (0u64, 0usize, 0usize);
    let mut table = Table::new(vec!["seed", "G2", "partition at", "gap (T)"]);
    for seed in 0..40u64 {
        for at in (500..=4000).step_by(250) {
            for g2 in [vec![SiteId(2)], vec![SiteId(1), SiteId(2)]] {
                let scenario = Scenario::new(3)
                    .partition_g2(g2.clone(), at)
                    .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
                let result = session.run_with(&scenario, &recording);
                broken += usize::from(!result.verdict.is_resilient());
                let Some(gap) = max_w_wait(&result.trace, 3) else { continue };
                waits += 1;
                if gap > max_gap {
                    max_gap = gap;
                    table.row(vec![
                        seed.to_string(),
                        format!("{g2:?}"),
                        in_t(at, 2),
                        format!("{:.3}", gap as f64 / 1e3),
                    ]);
                }
            }
        }
    }
    say!(o, "\nrandomized sweep: {waits} runs where a w-waiting slave later got a commit;");
    say!(o, "new maxima:\n\n{}", table.render());
    say!(
        o,
        "measured max = {}  |  paper bound = 6T  |  bound holds: {}",
        in_t(max_gap, 3),
        max_gap <= 6000
    );
    o.claim(
        "random_waits_within_6t",
        waits > 0 && max_gap <= 6000 && broken == 0,
        format!("max wait {} over {waits} runs; {broken} runs not resilient", in_t(max_gap, 3)),
    );
    o
}

/// For each slave that noted `slave-timeout-w`, the gap to the first commit
/// delivered to it afterwards. Returns the max across slaves.
fn max_w_wait(trace: &Trace, n: usize) -> Option<u64> {
    (1..n as u16)
        .map(SiteId)
        .filter_map(|site| {
            let (timeout_at, _) = trace.first_note(site, "slave-timeout-w")?;
            trace.events().iter().find_map(|e| match e {
                TraceEvent::Delivered { at, dst, kind: "commit", .. }
                    if *dst == site && *at >= timeout_at =>
                {
                    Some(at.ticks() - timeout_at.ticks())
                }
                _ => None,
            })
        })
        .max()
}

/// E9 — Fig. 9 and the Sec. 6 case table: every transient partition of a
/// sweep (boundary × onset × heal × delay schedule: all-`T` and 15 seeds)
/// is classified into the paper's case tree, and the post-`p`-timeout
/// waits are measured against its bounds:
///
/// ```text
/// case      2.1: T     2.2.1: 4T   2.2.2: 5T
/// case      3.1: T     3.2.2.1: 4T   3.2.2.2: unbounded -> 5T commit rule
/// ```
pub(super) fn fig9() -> Output {
    let mut o = Output::default();
    say!(o, "== E9 / Fig. 9 + Sec. 6: transient-partition case table ==\n");

    let mut per_case: BTreeMap<TransientCase, (usize, u64)> = BTreeMap::new();
    let (mut total, mut broken) = (0usize, 0usize);
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
    let recording = RunOptions::recording();
    let random = (0..15).map(|seed| DelayModel::Uniform { seed, min: 1, max: 1000 });
    let delays: Vec<DelayModel> = std::iter::once(DelayModel::Fixed(1000)).chain(random).collect();
    for g2 in [vec![SiteId(2)], vec![SiteId(1)], vec![SiteId(1), SiteId(2)]] {
        for at in (1500..=4750).step_by(250) {
            for heal_after in [500u64, 1000, 1500, 2000, 3000, 5000, 6000, 8000] {
                for delay in delays.iter().cloned() {
                    let scenario = Scenario::new(3)
                        .transient_partition(g2.clone(), at, at + heal_after)
                        .delay(delay);
                    let result = session.run_with(&scenario, &recording);
                    total += 1;
                    broken += usize::from(!result.verdict.is_resilient());
                    let wait = max_wait_after_p_timeout(&result.trace, 3).unwrap_or(0);
                    let entry = per_case.entry(classify(&result.trace, &g2)).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 = entry.1.max(wait);
                }
            }
        }
    }
    let all = if broken == 0 { "all".to_string() } else { format!("{broken} NOT") };
    say!(o, "{total} transient-partition scenarios, {all} resilient.\n");
    o.claim("all_resilient", broken == 0, format!("{broken} of {total} runs not resilient"));

    let mut table = Table::new(vec!["case", "runs", "max wait after p-timeout", "paper bound"]);
    for (case, (count, max_wait)) in &per_case {
        let bound = match case.paper_bound_t() {
            Some(0) => "—".to_string(),
            Some(t) => format!("{t}T"),
            None => "∞ → 5T rule".to_string(),
        };
        table.row(vec![case.label().to_string(), count.to_string(), in_t(*max_wait, 3), bound]);
    }
    say!(o, "{}", table.render());
    say!(o, "All waits ≤ 5T: the Sec. 6 transient rule (commit 5T after the p timeout)");
    say!(o, "bounds case 3.2.2.2, and every other case terminates within its stated bound.");

    let longest = per_case.values().map(|&(_, wait)| wait).max().unwrap_or(0);
    o.claim("waits_within_5t", longest <= 5000, format!("longest wait {}", in_t(longest, 3)));
    // The main branches all appear, and case 3.2.2.2 is where the 5T rule
    // fires: its wait is exactly 5T.
    let named = [
        TransientCase::Case1,
        TransientCase::Case3_1,
        TransientCase::Case3_2_1,
        TransientCase::Case3_2_2_1,
        TransientCase::Case3_2_2_2,
    ];
    let missing: Vec<&str> =
        named.iter().filter(|c| !per_case.contains_key(c)).map(|c| c.label()).collect();
    let wait_3222 = per_case.get(&TransientCase::Case3_2_2_2).map(|&(_, wait)| wait);
    o.claim(
        "case_tree_populated_and_3222_waits_5t",
        missing.is_empty() && wait_3222 == Some(5000),
        format!("cases missing: {missing:?}; case 3.2.2.2 waits {wait_3222:?} ticks"),
    );

    // Partitions during phase 1, before any prepare, sit outside the tree
    // but must still terminate consistently.
    let onsets: Vec<u64> = (0..=1400).step_by(200).collect();
    let outside = onsets.iter().filter(|&&at| {
        let scenario = Scenario::new(3)
            .transient_partition(vec![SiteId(2)], at, at + 2000)
            .delay(DelayModel::Fixed(1000));
        let result = session.run_with(&scenario, &recording);
        result.verdict.is_resilient()
            && classify(&result.trace, &[SiteId(2)]) == TransientCase::OutsideTree
    });
    let outside = outside.count();
    o.claim(
        "phase1_partitions_outside_tree_resilient",
        outside == onsets.len(),
        format!("{outside} of {} onsets in 0..1.4T outside the tree and resilient", onsets.len()),
    );

    // Heals while the master's 5T collection window is open: probes that
    // suddenly cross must not confuse the PB/UD rule.
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
    let heals: Vec<u64> = (500..=8000).step_by(250).collect();
    let healed = heals.iter().filter(|&&heal_after| {
        let scenario = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 2500 + heal_after)
            .delay(DelayModel::Fixed(1000));
        session.run(&scenario).verdict.is_resilient()
    });
    let healed = healed.count();
    o.claim(
        "heal_mid_collection_resilient",
        healed == heals.len(),
        format!(
            "n = 4, G2 = {{2, 3}} cut at 2.5T: {healed} of {} heals 0.5T..8T resilient",
            heals.len()
        ),
    );
    o
}
