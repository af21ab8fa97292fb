//! The chaos-campaign claim: the safe family stays green, and 2PC shrinks.
//!
//! Runs seeded campaigns of scenario timelines against the Huang–Li
//! protocol — every one must audit green, first on the flat protocol
//! cluster, then on the sharded store `run_planned` serves (3 × 2, crashes
//! armed too; atomicity, read history, convergence, leaked locks) — and
//! then plain 2PC under the resilience audit, the paper's own motivating
//! failure, whose first counterexample must shrink. It prints a table and
//! writes `BENCH_campaign.json`; the campaign runner's speed is the
//! benchmark's `core.campaign_timelines_per_s` rung, the figures here only
//! say how many timelines stood behind each green verdict.
//!
//! Honors `BENCH_BUDGET_MS`: each green-campaign phase keeps adding
//! batches of timelines until the budget is spent.

use ptp_bench::bench_budget_ms;
use ptp_bench::record::Obj;
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::report::Table;
use ptp_core::{Campaign, CampaignConfig, CampaignReport, ProtocolKind};
use std::time::Instant;

const PROTOCOL: ProtocolKind = ProtocolKind::HuangLi3pc;
const BATCH: usize = 100;
const SEED: u64 = 0xBE_2026;

/// One timed green-campaign batch.
struct GreenRun {
    timelines: usize,
    wall_ms: f64,
}

impl GreenRun {
    fn timelines_per_sec(&self) -> f64 {
        self.timelines as f64 * 1000.0 / self.wall_ms.max(f64::MIN_POSITIVE)
    }
}

/// The shrink-demo phase: a blocking protocol under the resilience audit.
struct ShrinkRun {
    timelines: usize,
    faults: usize,
    shrink_steps: usize,
    shrink_tested: usize,
    original_weight: usize,
    minimal_weight: usize,
    /// Rendered first counterexample: minimal timeline + flight-recorder
    /// event tail of its replay.
    first_rendered: String,
    wall_ms: f64,
}

/// Runs `campaign(seed)` batch after batch until the budget is spent.
fn green_phase(budget_ms: u64, campaign: impl Fn(u64) -> CampaignReport) -> GreenRun {
    let started = Instant::now();
    let mut timelines = 0usize;
    let mut batch = 0u64;
    loop {
        let report = campaign(SEED.wrapping_add(batch));
        assert!(
            report.all_green(),
            "the safe family must stay green while we benchmark: {:?}",
            report.failures.first()
        );
        timelines += report.executed;
        batch += 1;
        if started.elapsed().as_millis() as u64 >= budget_ms {
            break;
        }
    }
    GreenRun { timelines, wall_ms: started.elapsed().as_secs_f64() * 1000.0 }
}

fn shrink_phase() -> ShrinkRun {
    let started = Instant::now();
    let config = CampaignConfig::safe(ProtocolKind::Plain2pc, 4, 40, SEED);
    let campaign = Campaign::new(config);
    let report = campaign.run_with(|result| {
        (!result.verdict.is_resilient()).then(|| format!("2PC not resilient: {:?}", result.verdict))
    });
    assert!(
        !report.all_green(),
        "plain 2PC must block under some sampled partition (Sec. 2 of the paper)"
    );
    let weight = |t: &ptp_core::Timeline| t.events.len() + t.env_faults.len();
    let first = &report.failures[0];
    ShrinkRun {
        timelines: report.executed,
        faults: report.faults_found(),
        shrink_steps: report.failures.iter().map(|f| f.shrink_steps).sum(),
        shrink_tested: report.failures.iter().map(|f| f.shrink_tested).sum(),
        original_weight: weight(&first.original),
        minimal_weight: weight(&first.minimal),
        first_rendered: first.render(),
        wall_ms: started.elapsed().as_secs_f64() * 1000.0,
    }
}

fn flat_batch(seed: u64) -> CampaignReport {
    Campaign::new(CampaignConfig::safe(PROTOCOL, 4, BATCH, seed)).run()
}

fn sharded_batch(seed: u64) -> CampaignReport {
    let mut config = CampaignConfig::safe(PROTOCOL, 6, BATCH, seed);
    config.crashes = true;
    Campaign::new(config).run_planned(&ShardTopology::uniform(6, 3, 2), CommitProtocol::HuangLi)
}

fn record(green: &GreenRun, sharded: &GreenRun, shrink: &ShrinkRun) -> Obj {
    Obj::new()
        .str("benchmark", "campaign")
        .str("protocol", PROTOCOL.name())
        .host()
        .num("green_timelines", green.timelines)
        .fixed("green_wall_ms", green.wall_ms, 3)
        .fixed("timelines_per_sec", green.timelines_per_sec(), 1)
        .obj(
            "sharded",
            Obj::new()
                .str("topology", "uniform(6, 3, 2)")
                .num("timelines", sharded.timelines)
                .fixed("timelines_per_sec", sharded.timelines_per_sec(), 1),
        )
        .obj(
            "shrink_demo",
            Obj::new()
                .str("protocol", ProtocolKind::Plain2pc.name())
                .num("timelines", shrink.timelines)
                .num("faults_found", shrink.faults)
                .num("shrink_steps", shrink.shrink_steps)
                .num("shrink_candidates_tested", shrink.shrink_tested)
                .num("first_original_weight", shrink.original_weight)
                .num("first_minimal_weight", shrink.minimal_weight)
                .fixed("wall_ms", shrink.wall_ms, 3),
        )
}

fn main() {
    let budget_ms = bench_budget_ms(2_000);
    println!("== bench_campaign: seeded chaos campaigns, {budget_ms} ms budget ==");
    println!(
        "safe family (partitions + degrades + duplicates) at n = 4, then with non-master crashes \
         on the 3 x 2 sharded store; {BATCH}-timeline batches\n"
    );

    let green = green_phase(budget_ms, flat_batch);
    let sharded = green_phase(budget_ms, sharded_batch);
    let shrink = shrink_phase();
    assert!(
        shrink.minimal_weight <= shrink.original_weight,
        "shrinking must never grow a counterexample"
    );

    let mut table = Table::new(vec!["phase", "timelines", "wall ms", "timelines/s", "faults"]);
    let green_row = |subject: &str, run: &GreenRun| {
        vec![
            format!("green ({}{subject})", PROTOCOL.name()),
            run.timelines.to_string(),
            format!("{:.1}", run.wall_ms),
            format!("{:.0}", run.timelines_per_sec()),
            "0".into(),
        ]
    };
    table.row(green_row("", &green));
    table.row(green_row(", sharded store 3x2", &sharded));
    table.row(vec![
        "shrink (2PC, resilience audit)".into(),
        shrink.timelines.to_string(),
        format!("{:.1}", shrink.wall_ms),
        format!("{:.0}", shrink.timelines as f64 * 1000.0 / shrink.wall_ms.max(f64::MIN_POSITIVE)),
        shrink.faults.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "first counterexample shrank {} -> {} fault events over {} accepted step(s) \
         ({} candidates executed)",
        shrink.original_weight, shrink.minimal_weight, shrink.shrink_steps, shrink.shrink_tested
    );
    println!("\nfirst counterexample, minimal timeline + flight-recorder tail:");
    println!("{}", shrink.first_rendered);

    record(&green, &sharded, &shrink).write("BENCH_campaign.json");
}
