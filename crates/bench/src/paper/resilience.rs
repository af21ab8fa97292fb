//! The main results and their boundaries: Theorem 9 (the termination
//! protocol makes 3PC resilient to optimistic multisite simple
//! partitioning), Theorem 10 (the recipe generalizes), the Sec. 2
//! impossibility theorems and the Sec. 7 assumptions, the Sec. 1–2
//! motivation measured in held locks, and the quorum-commit baseline.

use super::{counts, say, Output};
use crate::{dense_grid, standard_delays};
use ptp_core::ddb::cluster::{CommitProtocol, DbCluster};
use ptp_core::ddb::site::TxnSpec;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_core::model::protocols::FOUR_PHASE;
use ptp_core::model::resilience::check_conditions;
use ptp_core::model::Decision;
use ptp_core::report::Table;
use ptp_core::{
    all_simple_boundaries, sweep_threads, sweep_with_session, sweep_with_threads, ProtocolKind,
    Scenario, ScenarioResult, Session, SessionPool, SweepGrid,
};
use ptp_protocols::api::Vote;
use ptp_protocols::Verdict;
use ptp_simnet::{
    DelayModel, FailureSpec, PartitionEngine, PartitionSpec, ScheduleBuilder, SimTime, SiteId,
};
use std::collections::BTreeMap;

/// E10 — Theorem 9: "The termination protocol makes the three-phase commit
/// protocol resilient to optimistic multisite simple network partitioning."
/// Dense grids over every simple boundary × partition instant × heal
/// instant × delay schedule × vote vector, at n = 3, 4 and 5, for both the
/// Sec. 5 (static) and Sec. 6 (transient) variants. Resilient means every
/// site terminates, and all agree. Every `(protocol, n)` cluster is built
/// once, in one [`SessionPool`].
pub(super) fn thm9() -> Output {
    let mut o = Output::default();
    say!(o, "== E10 / Theorem 9: full resilience sweeps ==\n");
    let mut pool = SessionPool::new();
    let hl = [ProtocolKind::HuangLi3pc];

    let reports = o.scorecard(
        &mut pool,
        "n = 3, permanent partitions, T/8 grid",
        &[ProtocolKind::HuangLi3pc, ProtocolKind::HuangLi3pcStatic],
        &dense_grid(3),
    );
    let resilient = reports.iter().all(|r| r.fully_resilient());
    let detail = format!("HL-3PC {}; HL-3PC(static) {}", counts(&reports[0]), counts(&reports[1]));
    o.claim("n3_permanent_resilient", resilient, detail);

    let mut grid = dense_grid(3).with_transient_heals(8);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    let title = "n = 3, transient partitions healing after 0.5T..8T";
    let r = o.scorecard(&mut pool, title, &hl, &grid).remove(0);
    o.claim("n3_transient_resilient", r.fully_resilient(), counts(&r));

    let mut grid = dense_grid(3);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    grid.votes = vec![
        vec![Vote::Yes, Vote::Yes],
        vec![Vote::No, Vote::Yes],
        vec![Vote::Yes, Vote::No],
        vec![Vote::No, Vote::No],
    ];
    let r = o.scorecard(&mut pool, "n = 3, all vote vectors", &hl, &grid).remove(0);
    o.claim("n3_all_votes_resilient", r.fully_resilient(), counts(&r));
    // The grid above includes yes/yes, so its all-commit count cannot say
    // this: a cell with a no vote never commits.
    grid.votes.remove(0);
    let r = sweep_with_session(pool.session(ProtocolKind::HuangLi3pc, 3), &grid);
    let holds = r.all_commit == 0 && r.fully_resilient();
    o.claim("no_vote_never_commits", holds, format!("{} all-commit; {}", r.all_commit, counts(&r)));

    for (n, name) in [(4usize, "n4_permanent_resilient"), (5, "n5_permanent_resilient")] {
        let mut grid = SweepGrid::standard(n);
        grid.partition_times = (0..=32).map(|i| i * 250).collect();
        grid.delays = standard_delays(1000);
        let title = format!("n = {n}, permanent partitions, T/4 grid");
        let r = o.scorecard(&mut pool, &title, &hl, &grid).remove(0);
        o.claim(name, r.fully_resilient(), counts(&r));
    }

    say!(o, "({} distinct clusters built for 5 scorecards — the pool reuses them.)\n", pool.len());
    say!(o, "Theorem 9 holds on every grid: zero atomicity violations, zero blocked");
    say!(o, "sites, under every simple boundary, partition instant, heal instant,");
    say!(o, "delay schedule and vote vector tried.");

    // Bounded, not merely eventual, termination: every site decides within
    // 15T of the partition (the commit protocol takes <= 5T failure-free;
    // termination adds at most ~10T of timer chains), at n = 4 for every
    // onset to 6T and, with the upper half seceding at 2.5T, up to n = 17.
    let mut late = Vec::new();
    let runs = (0..=6000).step_by(500).map(|at| (4, vec![SiteId(2), SiteId(3)], at));
    let halves =
        [3usize, 5, 9, 17].map(|n| (n, (n as u16 / 2..n as u16).map(SiteId).collect(), 2500));
    for (n, g2, at) in runs.chain(halves) {
        let result =
            pool.session(ProtocolKind::HuangLi3pc, n).run(&Scenario::new(n).partition_g2(g2, at));
        let last =
            result.outcomes.iter().map(|o| o.decided_at.map_or(u64::MAX, |t| t.ticks())).max();
        if !result.verdict.is_resilient() || last > Some(at + 15_000) {
            late.push((n, at));
        }
    }
    o.claim(
        "decides_within_15t",
        late.is_empty(),
        format!("17 runs at n = 3..17; (n, onset) deciding late or inconsistently: {late:?}"),
    );
    o
}

/// E11 — Theorem 10: the termination-protocol recipe generalizes to any
/// master–slave commit protocol meeting the Lemma 1/2 conditions, by
/// substituting that protocol's decisive message for "prepare". The
/// engine in `ptp_protocols::termination` *is* that recipe; here it runs a
/// four-phase protocol (an extra `ready/ack2` round): the extra round buys
/// nothing, and costs 2T of failure-free latency.
pub(super) fn thm10() -> Output {
    let mut o = Output::default();
    say!(o, "== E11 / Theorem 10: the generic construction on a 4-phase protocol ==\n");

    let report = check_conditions(&FOUR_PHASE.spec(3));
    let holds = report.satisfies_conditions();
    say!(
        o,
        "4PC Lemma-1 violations: {}, Lemma-2 violations: {} -> conditions {}\n",
        report.lemma1.len(),
        report.lemma2.len(),
        if holds { "hold" } else { "FAIL" }
    );
    o.claim("4pc_satisfies_lemmas", holds, format!("n = 3: conditions hold: {holds}"));

    let mut pool = SessionPool::new();
    let mut grid = dense_grid(3);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    let reports = o.scorecard(
        &mut pool,
        "4PC + generated termination protocol vs the paper's 3PC instance",
        &[ProtocolKind::HuangLi4pc, ProtocolKind::HuangLi3pc],
        &grid,
    );
    o.claim("4pc_resilient", reports[0].fully_resilient(), counts(&reports[0]));

    let mut table = Table::new(vec!["protocol", "failure-free commit latency (last site)"]);
    let latency = [ProtocolKind::HuangLi3pc, ProtocolKind::HuangLi4pc].map(|kind| {
        let result = pool.session(kind, 4).run(&Scenario::new(4));
        let last = result.outcomes.iter().filter_map(|o| o.decided_at).max().expect("all decided");
        table.row(vec![kind.name().to_string(), format!("{:.2}T", last.in_t_units(1000))]);
        last.ticks()
    });
    say!(o, "{}", table.render());
    say!(o, "Both are resilient; the 4-phase variant pays 2T more latency per");
    say!(o, "transaction — supporting the paper's choice of 3PC as the substrate");
    say!(o, "(\"the simplest commit protocol that satisfies both Lemma 1 and Lemma 2\").");
    o.claim(
        "4pc_costs_exactly_2t_more",
        latency[1] == latency[0] + 2000,
        format!("n = 4 failure-free: HL-3PC {} ticks, HL-4PC {} ticks", latency[0], latency[1]),
    );
    o
}

/// E12 — the Sec. 2 impossibility theorems: no protocol survives a
/// partition when messages are *lost* (the pessimistic model), nor a
/// *multiple* partitioning.
pub(super) fn impossibility() -> Output {
    let mut o = Output::default();
    say!(o, "== E12: the impossibility theorems ==\n");

    // Part 1: message loss — and the identical grid with returned messages.
    let mut grid = SweepGrid::standard(3);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    grid.delays = standard_delays(1000);
    let optimistic = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, sweep_threads());
    let report =
        sweep_with_threads(ProtocolKind::HuangLi3pc, &grid.clone().pessimistic(), sweep_threads());
    say!(o, "pessimistic model (messages lost at the boundary), HL-3PC, n = 3:");
    say!(
        o,
        "  {} scenarios: {} atomicity violations, {} blocked",
        report.total,
        report.inconsistent_count,
        report.blocked_count
    );
    if let Some(w) = report.inconsistent.first() {
        say!(
            o,
            "  example violation: G2 = {:?}, partition at {:.2}T, delay model #{}",
            w.g2,
            w.at as f64 / 1000.0,
            w.delay_index
        );
    }
    say!(o, "  (the protocol's whole design leans on undeliverable messages being");
    say!(o, "   returned; silently dropping them re-opens the window the paper's");
    say!(o, "   Lemma 3 adversary exploits)\n");
    let lost = report.inconsistent_count + report.blocked_count;
    o.claim("message_loss_breaks", lost > 0, counts(&report));
    o.claim("returned_messages_resilient", optimistic.fully_resilient(), counts(&optimistic));

    // Part 2: a three-way split of a 4-site cluster. The violation needs
    // asymmetric prepare delivery (one fragment's prepare crosses, another's
    // bounces): randomized delay schedules plus the crafted one, where
    // prepare->2 (message 7: sends 0-2 are xacts, 3-5 the yes replies, 6-8
    // the prepares) arrives just before the cut and prepare->3 is in flight.
    say!(o, "multiple (3-way) partitioning, HL-3PC, n = 4:");
    let three_way = |at: u64| {
        let groups = vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]];
        PartitionEngine::new(vec![PartitionSpec { at: SimTime(at), groups, heal_at: None }])
    };
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
    let crafted = ScheduleBuilder::with_default(1000).outbound(7, 400).build();
    let scenario = Scenario::new(4).delay(crafted).partition_schedule(three_way(2500));
    let crafted = session.run(&scenario).verdict;
    let crafted_breaks = matches!(crafted, Verdict::Inconsistent { .. });
    let mut example =
        crafted_breaks.then(|| ("crafted schedule, split at 2.50T".to_string(), crafted.clone()));
    let (mut violations, mut blocked, mut total) = (usize::from(crafted_breaks), 0, 1);
    for seed in 0..30u64 {
        for at in (1500..=4500).step_by(500) {
            let scenario = Scenario::new(4)
                .delay(DelayModel::Uniform { seed, min: 1, max: 1000 })
                .partition_schedule(three_way(at));
            let verdict = session.run(&scenario).verdict;
            total += 1;
            match verdict {
                Verdict::Inconsistent { .. } => {
                    violations += 1;
                    if example.is_none() {
                        let desc = format!("seed {seed}, split at {:.2}T", at as f64 / 1000.0);
                        example = Some((desc, verdict));
                    }
                }
                Verdict::Blocked { .. } => blocked += 1,
                _ => {}
            }
        }
    }
    say!(o, "  {total} scenarios: {violations} atomicity violations, {blocked} blocked");
    if let Some((desc, v)) = example {
        say!(o, "  example: {desc} -> {v:?}");
        say!(o, "  (a prepared slave alone in its fragment self-commits via UD(probe),");
        say!(o, "   the master commits G1 by the collection rule, but the third fragment");
        say!(o, "   never learns and aborts after its 6T wait — simple partitioning's");
        say!(o, "   two-group structure is essential to Lemma 4)");
    }
    o.claim("crafted_three_way_split_inconsistent", crafted_breaks, format!("{crafted:?}"));
    o.claim(
        "multiple_partitioning_breaks",
        violations > 0,
        format!("{violations} of {total} three-way splits inconsistent"),
    );
    o
}

/// E13 — Sec. 7: why the paper assumes partitions and site failures never
/// occur together. Both of the conclusion's counterexamples, with crash
/// injection — and their crash-free twins, which are resilient.
pub(super) fn assumptions() -> Output {
    let mut o = Output::default();
    say!(o, "== E13 / Sec. 7: the assumptions are necessary ==\n");
    let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);

    // Counterexample 1 — "if the only slave in G2 that receives a prepare
    // message fails before it sends out commit messages, then all slaves in
    // G2 will abort while all participating sites in G1 will commit."
    // G2 = {2, 3}; the schedule delivers slave 2's prepare (message 7) at
    // 2.4T, before the 2.5T cut; slave 3's prepare bounces. Slave 2 then
    // crashes before its UD(ack) would have triggered the commit broadcast.
    let schedule = ScheduleBuilder::with_default(1000).outbound(7, 400).build();
    let twin1 = Scenario::new(4).partition_g2(vec![SiteId(2), SiteId(3)], 2500).delay(schedule);
    let crashing = twin1.clone().fail(FailureSpec::crash(SiteId(2), SimTime(3000)));
    let result = session.run(&crashing);
    outcomes(
        &mut o,
        "counterexample 1 (lone prepared G2 slave crashes before broadcasting)",
        &result,
    );
    say!(o, "  -> the crash had the effect of a lost commit broadcast: G1 committed,");
    say!(o, "     G2's surviving slave aborted. Exactly the paper's point.\n");
    split_claim(&mut o, "ce1_g1_commits_g2_aborts", &result, [0, 1]);

    // Counterexample 2 — "if none of the slaves in G2 receives a prepare
    // message and one of the slaves in G1 fails after receiving a prepare
    // message but before sending a probe message, ..." G2 = {3}; slave 1
    // receives its prepare at 3T and crashes at 3.5T, before its probe (due
    // at ~6T). The master sees slaves − UD = {1, 2} but PB = {2}: the sets
    // differ, so it commits — wrongly concluding a prepare crossed B.
    let twin2 = Scenario::new(4).partition_g2(vec![SiteId(3)], 2500);
    let crashing = twin2.clone().fail(FailureSpec::crash(SiteId(1), SimTime(3500)));
    let result = session.run(&crashing);
    outcomes(
        &mut o,
        "counterexample 2 (G1 slave crashes between prepare receipt and probe)",
        &result,
    );
    say!(o, "  -> the missing probe is indistinguishable from \"his prepare crossed B\",");
    say!(o, "     so the master commits while the cut-off slave aborts.");
    say!(o, "\nBoth crashes act exactly like lost messages — and no protocol survives");
    say!(o, "message loss (Sec. 2). Hence the paper's assumption 3.");
    split_claim(&mut o, "ce2_g1_commits_g2_aborts", &result, [0, 2]);

    // The crash is load-bearing: the same session, the same scenarios
    // without it (no crash leaks into later runs through the reused plan).
    let twins = [&twin1, &twin2].map(|s| session.run(s).verdict);
    o.claim(
        "crash_free_twins_resilient",
        twins.iter().all(Verdict::is_resilient),
        format!("{twins:?}"),
    );
    o
}

/// Writes each site's decision under `label`.
fn outcomes(o: &mut Output, label: &str, result: &ScenarioResult) {
    say!(o, "{label}:");
    for (i, outcome) in result.outcomes.iter().enumerate() {
        match outcome.decision {
            Some(Decision::Commit) => say!(o, "  site {i}: commit"),
            Some(Decision::Abort) => say!(o, "  site {i}: ABORT"),
            None => say!(o, "  site {i}: blocked/crashed"),
        }
    }
    say!(o, "  verdict: {:?}\n", result.verdict);
}

/// A Sec. 7 counterexample as the paper tells it: the G1 sites `g1`
/// commit, site 3 (in G2) aborts, and the verdict is inconsistent.
fn split_claim(o: &mut Output, name: &'static str, result: &ScenarioResult, g1: [usize; 2]) {
    let decided = |i: usize| result.outcomes[i].decision;
    let holds = g1.iter().all(|&i| decided(i) == Some(Decision::Commit))
        && decided(3) == Some(Decision::Abort)
        && matches!(result.verdict, Verdict::Inconsistent { .. });
    o.claim(name, holds, format!("{:?}", result.verdict));
}

/// E14 — the paper's motivation, measured: "the locks acquired by the
/// blocked transaction cannot be relinquished, rendering those data
/// inaccessible to other transactions" (Sec. 2). A three-site bank runs a
/// transfer that is mid-commit when the network partitions.
pub(super) fn blocking() -> Output {
    let mut o = Output::default();
    say!(o, "== E14: blocking renders data inaccessible (the paper's motivation) ==\n");
    say!(o, "One in-flight transfer; partition {{0,1}} | {{2}} at each onset in");
    say!(o, "0.25T steps through the whole commit window; horizon 200T.\n");

    let mut table = Table::new(vec![
        "protocol",
        "site-decisions commit",
        "abort",
        "blocked sites",
        "max lock hold",
        "locks never released",
        "atomicity violations",
    ]);
    // Per protocol: blocked sites, locks never released, violations.
    let mut stuck = BTreeMap::new();
    for protocol in
        [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority]
    {
        let (mut commits, mut aborts, mut blocked, mut never_released, mut violations) =
            (0, 0, 0, 0, 0);
        let mut max_hold = 0u64;
        for at in (0..=24).map(|i| i * 250) {
            let partition = PartitionEngine::new(vec![PartitionSpec::simple(
                SimTime(at),
                vec![SiteId(0), SiteId(1)],
                vec![SiteId(2)],
            )]);
            let run = DbCluster::new(3, protocol)
                .seed(1, Key::from("alice"), Value::from_u64(100))
                .seed(2, Key::from("bob"), Value::from_u64(50))
                .submit(0, transfer(1))
                .partition(partition)
                .run();
            violations += run.metrics.atomicity_violations().len();
            for (decision, _) in run.metrics.decisions.values().flat_map(|d| d.values()) {
                match decision {
                    Decision::Commit => commits += 1,
                    Decision::Abort => aborts += 1,
                }
            }
            blocked += run.blocked.iter().map(Vec::len).sum::<usize>();
            // Horizon = 200T (the NetConfig default).
            for (_, _, ticks, still) in run.metrics.hold_durations(SimTime(200_000)) {
                max_hold = max_hold.max(ticks);
                never_released += usize::from(still);
            }
        }
        table.row(vec![
            protocol.name().to_string(),
            commits.to_string(),
            aborts.to_string(),
            blocked.to_string(),
            format!("{:.2}T", max_hold as f64 / 1000.0),
            never_released.to_string(),
            violations.to_string(),
        ]);
        stuck.insert(protocol.name(), (blocked, never_released, violations));
    }
    say!(o, "{}", table.render());
    say!(o, "2PC and the quorum protocol leave partitioned sites blocked with locks");
    say!(o, "held to the horizon (inaccessible data); the Huang–Li termination");
    say!(o, "protocol terminates every site in bounded time and releases everything —");
    say!(o, "at zero cost to atomicity.");

    let hl = stuck[CommitProtocol::HuangLi.name()];
    let detail = format!("(blocked sites, locks never released, violations) = {hl:?}");
    o.claim("hl3pc_releases_everything", hl == (0, 0, 0), detail);
    let held =
        [CommitProtocol::TwoPhase, CommitProtocol::QuorumMajority].map(|p| stuck[p.name()].1);
    o.claim(
        "2pc_and_quorum_hold_locks",
        held.iter().all(|&n| n > 0),
        format!("locks never released: 2PC {}, Quorum {}", held[0], held[1]),
    );
    o
}

/// The in-flight transfer: alice (site 1) to bob (site 2).
fn transfer(id: u32) -> TxnSpec {
    let mut writes = BTreeMap::new();
    writes.insert(1u16, vec![WriteOp { key: Key::from("alice"), value: Value::from_u64(60) }]);
    writes.insert(2u16, vec![WriteOp { key: Key::from("bob"), value: Value::from_u64(90) }]);
    TxnSpec { id: TxnId(id), writes }
}

/// E15 — the quorum-commit baseline (the paper's reference \[5\], Skeen
/// 1982): quorum termination stays atomic through intersecting quorums but
/// terminates only the side holding a quorum; the paper's protocol
/// terminates *both* sides (without tolerating master failure, which quorum
/// protocols handle — that is the actual trade). Every boundary of a
/// five-site cluster, counted per side, then swept over partition onsets.
pub(super) fn quorum() -> Output {
    let mut o = Output::default();
    say!(o, "== E15: quorum commit vs the termination protocol (n = 5) ==\n");
    say!(o, "Partition at 2.5T (prepares in flight). Majority quorums Vc = Va = 3.\n");

    let mut table = Table::new(vec![
        "G2 (cut from master)",
        "protocol",
        "G1 terminated",
        "G2 terminated",
        "verdict",
    ]);
    let (mut quorum_atomic, mut hl_both, mut quorum_strands) = (true, true, true);
    let mut pool = SessionPool::new();
    for g2 in all_simple_boundaries(5) {
        for kind in [ProtocolKind::QuorumMajority, ProtocolKind::HuangLi3pc] {
            let result =
                pool.session(kind, 5).run(&Scenario::new(5).partition_g2(g2.clone(), 2500));
            // Whether every site on one side of the boundary decided.
            let terminated = |in_g2: bool| {
                let mut side = result.outcomes.iter().enumerate();
                side.all(|(i, o)| g2.contains(&SiteId(i as u16)) != in_g2 || o.decision.is_some())
            };
            let (g1_done, g2_done) = (terminated(false), terminated(true));
            if kind == ProtocolKind::HuangLi3pc {
                hl_both &= g1_done && g2_done && result.verdict.is_atomic();
            } else {
                quorum_atomic &= result.verdict.is_atomic();
                quorum_strands &= !(g1_done && g2_done);
            }
            table.row(vec![
                format!("{:?}", g2.iter().map(|s| s.0).collect::<Vec<_>>()),
                kind.name().to_string(),
                if g1_done { "yes" } else { "NO" }.to_string(),
                if g2_done { "yes" } else { "NO" }.to_string(),
                format!("{:?}", result.verdict),
            ]);
        }
    }
    say!(o, "{}", table.render());

    // Quorum again, at every onset from 0 to 8T in T/2 steps.
    let mut grid = dense_grid(5);
    grid.partition_times = (0..=16).map(|i| i * 500).collect();
    grid.delays = vec![DelayModel::Fixed(1000)];
    let title = "n = 5, every split at 0..8T in T/2 steps";
    let r = o.scorecard(&mut pool, title, &[ProtocolKind::QuorumMajority], &grid).remove(0);
    say!(o, "The quorum protocol strands every minority fragment (and both fragments");
    say!(o, "when neither holds a quorum); the termination protocol terminates all");
    say!(o, "sites in every split — the paper's headline advantage. Its price is the");
    say!(o, "set of Sec. 5.1 assumptions: a reliable master and no concurrent site");
    say!(o, "failures, which quorum commit does not need.");
    let splits = "all 15 splits of n = 5 at 2.5T";
    o.claim("hl3pc_terminates_both_sides", hl_both, format!("{splits} (Theorem 9)"));
    let detail = format!("{splits}: atomic, and some site of each undecided");
    o.claim("quorum_atomic_but_blocks_every_split", quorum_atomic && quorum_strands, detail);
    o.claim("quorum_sweep_atomic_but_blocks", r.fully_atomic() && r.blocked_count > 0, counts(&r));
    o
}
