//! Partition-schedule resilience: where the simple-partition assumption
//! breaks.
//!
//! The paper restricts itself to *simple* (two-group, single-episode)
//! partitioning and proves the termination protocol resilient there
//! (Theorem 9). This experiment is the quantitative generalization of
//! `tests/impossibility.rs::multiple_partitioning_breaks_the_termination_protocol`:
//! it sweeps every protocol over the [`ScheduleShape::FAMILIES`] schedule
//! families — the simple baseline plus split→heal→re-split, three-way
//! splits and nested secessions — and tabulates per-family resilience and
//! atomicity, so the cost of leaving the paper's model is a number, not an
//! anecdote.
//!
//! The delay axis includes the crafted schedule behind the Sec. 2
//! counterexample, so the multi-way family provably contains the paper's
//! own breaking scenario.
//!
//! Writes `BENCH_schedule.json`, one of the three committed behaviour
//! records; CI regenerates it in the bench smoke step.

use ptp_bench::record::Obj;
use ptp_core::report::Table;
use ptp_core::{
    sweep_threads, sweep_with_threads, ProtocolKind, ScheduleShape, SweepGrid, SweepReport,
};
use ptp_simnet::{DelayModel, ScheduleBuilder};
use std::time::Instant;

const N: usize = 4;

/// Protocols worth comparing outside the simple model: the paper's three
/// variants, the blocking baseline and the quorum reference.
const KINDS: [ProtocolKind; 5] = [
    ProtocolKind::Plain2pc,
    ProtocolKind::HuangLi3pc,
    ProtocolKind::HuangLi3pcStatic,
    ProtocolKind::HuangLi4pc,
    ProtocolKind::QuorumMajority,
];

/// One family's grid: all simple boundaries × T/4 instants up to 8T ×
/// {permanent, heal-after-3T} × three delay schedules, with the shape axis
/// pinned to `shape`.
fn family_grid(shape: ScheduleShape) -> SweepGrid {
    let mut grid = SweepGrid::standard(N).with_shapes(vec![shape]);
    grid.heals = vec![None, Some(3000)];
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Uniform { seed: 11, min: 1, max: 1000 },
        // The crafted schedule behind the Sec. 2 multiple-partitioning
        // counterexample: slave 2's prepare crosses into its own fragment.
        ScheduleBuilder::with_default(1000).outbound(7, 400).build(),
    ];
    grid
}

struct Cell {
    kind: ProtocolKind,
    report: SweepReport,
    wall_ms: f64,
}

fn measure_family(shape: ScheduleShape) -> (SweepGrid, Vec<Cell>) {
    let grid = family_grid(shape);
    let threads = sweep_threads();
    let cells = KINDS
        .iter()
        .map(|&kind| {
            let started = Instant::now();
            let report = sweep_with_threads(kind, &grid, threads);
            let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
            assert_eq!(report.total, grid.size());
            Cell { kind, report, wall_ms }
        })
        .collect();
    (grid, cells)
}

fn record(families: &[(ScheduleShape, SweepGrid, Vec<Cell>)]) -> Obj {
    let families = families.iter().map(|(shape, grid, cells)| {
        let protocols = cells.iter().map(|cell| {
            let r = &cell.report;
            Obj::new()
                .str("protocol", cell.kind.name())
                .num("all_commit", r.all_commit)
                .num("all_abort", r.all_abort)
                .num("blocked", r.blocked_count)
                .num("inconsistent", r.inconsistent_count)
                .num("resilient", r.fully_resilient())
                .num("atomic", r.fully_atomic())
                .fixed("wall_ms", cell.wall_ms, 3)
        });
        Obj::new()
            .str("family", shape.name())
            .num("episodes", shape.episode_count())
            .num("scenarios_per_protocol", grid.size())
            .arr("protocols", protocols)
    });
    Obj::new()
        .str("benchmark", "schedule")
        .num("n", N)
        .num("threads", sweep_threads())
        .host()
        .num("protocols", KINDS.len())
        .arr("families", families)
}

fn main() {
    println!("== exp_multi_partition: resilience across partition-schedule families ==");
    println!(
        "n = {N}, {} scenarios per protocol per family, {} worker thread(s)\n",
        family_grid(ScheduleShape::Simple).size(),
        sweep_threads()
    );

    let families: Vec<(ScheduleShape, SweepGrid, Vec<Cell>)> = ScheduleShape::FAMILIES
        .iter()
        .map(|&shape| {
            let (grid, cells) = measure_family(shape);
            (shape, grid, cells)
        })
        .collect();

    let mut table = Table::new(vec![
        "family",
        "protocol",
        "scenarios",
        "all-commit",
        "all-abort",
        "blocked",
        "inconsistent",
        "resilient?",
        "atomic?",
        "wall ms",
    ]);
    for (shape, grid, cells) in &families {
        for cell in cells {
            let r = &cell.report;
            table.row(vec![
                shape.name().to_string(),
                cell.kind.name().to_string(),
                grid.size().to_string(),
                r.all_commit.to_string(),
                r.all_abort.to_string(),
                r.blocked_count.to_string(),
                r.inconsistent_count.to_string(),
                if r.fully_resilient() { "YES".into() } else { "no".into() },
                if r.fully_atomic() { "YES".into() } else { "no".into() },
                format!("{:.1}", cell.wall_ms),
            ]);
        }
    }
    println!("{}", table.render());

    // Sanity anchors: Theorem 9 must hold on the simple family, and the
    // multi-way family must exhibit the Sec. 2 impossibility (it contains
    // the crafted counterexample cell).
    for (shape, _, cells) in &families {
        let hl = cells.iter().find(|c| c.kind == ProtocolKind::HuangLi3pc).expect("HL-3PC ran");
        match shape {
            ScheduleShape::Simple => assert!(
                hl.report.fully_resilient(),
                "Theorem 9 violated on the simple family: {:?}",
                hl.report
            ),
            ScheduleShape::MultiWay { .. } => assert!(
                !hl.report.fully_atomic(),
                "the multi-way family must break atomicity for HL-3PC (Sec. 2): {:?}",
                hl.report
            ),
            _ => {}
        }
    }

    record(&families).write("BENCH_schedule.json");
}
