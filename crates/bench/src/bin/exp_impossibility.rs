//! E12 — the Sec. 2 impossibility theorems, demonstrated:
//!
//! * "There exists no protocol resilient to a network partitioning when
//!   messages are lost."  We run the paper's own protocol under the
//!   *pessimistic* model (undeliverable messages silently dropped instead
//!   of returned) and exhibit atomicity violations.
//! * "There exists no protocol resilient to a multiple network
//!   partitioning."  We split the network into three groups and exhibit
//!   violations — including the tell-tale one where a G2 slave's commit
//!   broadcast cannot reach a third group.

use ptp_bench::standard_delays;
use ptp_core::{
    sweep_threads, sweep_with_threads, ProtocolKind, Scenario, Session, SweepGrid, SweepReport,
};
use ptp_protocols::Verdict;
use ptp_simnet::{PartitionEngine, PartitionSpec, SimTime, SiteId};

fn pessimistic_sweep() -> SweepReport {
    let mut grid = SweepGrid::standard(3).pessimistic();
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    grid.delays = standard_delays(1000);
    sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, sweep_threads())
}

fn main() {
    println!("== E12: the impossibility theorems ==\n");

    // Part 1: message loss.
    let report = pessimistic_sweep();
    println!("pessimistic model (messages lost at the boundary), HL-3PC, n = 3:");
    println!(
        "  {} scenarios: {} atomicity violations, {} blocked",
        report.total, report.inconsistent_count, report.blocked_count
    );
    assert!(
        report.inconsistent_count + report.blocked_count > 0,
        "losing messages must break some scenario"
    );
    if let Some(w) = report.inconsistent.first() {
        println!(
            "  example violation: G2 = {:?}, partition at {:.2}T, delay model #{}",
            w.g2,
            w.at as f64 / 1000.0,
            w.delay_index
        );
    }
    println!("  (the protocol's whole design leans on undeliverable messages being");
    println!("   returned; silently dropping them re-opens the window the paper's");
    println!("   Lemma 3 adversary exploits)\n");

    // Part 2: multiple partitioning. Three-way split of a 4-site cluster.
    // The violation needs asymmetric prepare delivery (one fragment's
    // prepare crosses, another's bounces), so we sweep randomized delay
    // schedules plus the paper-style crafted one: prepare->2 arrives just
    // before the cut, prepare->3 is still in flight.
    println!("multiple (3-way) partitioning, HL-3PC, n = 4:");
    let three_way = |at: u64| {
        let groups = vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]];
        PartitionEngine::new(vec![PartitionSpec { at: SimTime(at), groups, heal_at: None }])
    };
    let mut violations = 0usize;
    let mut blocked = 0usize;
    let mut total = 0usize;
    let mut example: Option<(String, Verdict)> = None;

    // Crafted: message 7 is prepare->2 (sends 0-2 are xacts, 3-5 the yes
    // replies, 6-8 the prepares).
    let crafted = ptp_simnet::ScheduleBuilder::with_default(1000).outbound(7, 400).build();
    let scenario = Scenario::new(4).delay(crafted).partition_schedule(three_way(2500));
    let result = Session::new(ProtocolKind::HuangLi3pc, scenario.n).run(&scenario);
    total += 1;
    if let Verdict::Inconsistent { .. } = result.verdict {
        violations += 1;
        example = Some(("crafted schedule, split at 2.50T".into(), result.verdict.clone()));
    }

    for seed in 0..30u64 {
        for at in (1500..=4500).step_by(500) {
            let scenario = Scenario::new(4)
                .delay(ptp_simnet::DelayModel::Uniform { seed, min: 1, max: 1000 })
                .partition_schedule(three_way(at));
            let result = Session::new(ProtocolKind::HuangLi3pc, scenario.n).run(&scenario);
            total += 1;
            match result.verdict {
                Verdict::Inconsistent { .. } => {
                    violations += 1;
                    if example.is_none() {
                        example = Some((
                            format!("seed {seed}, split at {:.2}T", at as f64 / 1000.0),
                            result.verdict.clone(),
                        ));
                    }
                }
                Verdict::Blocked { .. } => blocked += 1,
                _ => {}
            }
        }
    }
    println!("  {total} scenarios: {violations} atomicity violations, {blocked} blocked");
    assert!(violations > 0, "multiple partitioning must break the protocol");
    if let Some((desc, v)) = example {
        println!("  example: {desc} -> {v:?}");
        println!("  (a prepared slave alone in its fragment self-commits via UD(probe),");
        println!("   the master commits G1 by the collection rule, but the third fragment");
        println!("   never learns and aborts after its 6T wait — simple partitioning's");
        println!("   two-group structure is essential to Lemma 4)");
    }
}
