//! Database-workload throughput baseline.
//!
//! The sibling of `bench_sweep`, one layer down: how fast the ddb cluster
//! driver pushes a 200-transaction workload through each [`CommitProtocol`]
//! with the per-site participant free-lists doing the recycling. Writes
//! `BENCH_ddb.json` next to the working directory so future performance
//! work on the database layer has a recorded trajectory to beat.
//!
//! `CRITERION_BUDGET_MS` caps the per-measurement sampling time (as in the
//! criterion shim), so the CI smoke run finishes in milliseconds while a
//! real baseline run samples enough rounds for a stable median.

use ptp_bench::{criterion_budget_ms, host_fields, json_escape, median_of, write_record};
use ptp_core::ddb::cluster::{CommitProtocol, DbCluster, DbRun};
use ptp_core::ddb::site::TxnSpec;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_core::report::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const SITES: usize = 4;
const TXNS: u32 = 200;
const SUBMIT_SPACING: u64 = 400;
const REPEATS: usize = 4;
const MAX_ROUNDS: usize = 41;

/// The fixed 200-transaction workload: every transaction writes one key on
/// each slave, keys drawn from an 8-key pool per site so a realistic share
/// of transactions contend for locks.
fn workload() -> Vec<(u64, TxnSpec)> {
    (0..TXNS)
        .map(|i| {
            let mut writes = BTreeMap::new();
            for site in 1..SITES as u16 {
                writes.insert(
                    site,
                    vec![WriteOp {
                        key: Key::from(format!("k{}", (i as u64 * 7 + site as u64) % 8)),
                        value: Value::from_u64(i as u64),
                    }],
                );
            }
            (i as u64 * SUBMIT_SPACING, TxnSpec { id: TxnId(i + 1), writes })
        })
        .collect()
}

fn build(protocol: CommitProtocol) -> DbCluster {
    let mut cluster = DbCluster::new(SITES, protocol);
    for (at, spec) in workload() {
        cluster = cluster.submit(at, spec);
    }
    cluster
}

/// One timed observation: `REPEATS` consecutive executions of the workload
/// under one clock read, so a single run's wall time comes out with far
/// less timer/scheduler jitter than timing runs individually.
fn run_block(protocol: CommitProtocol) -> (f64, DbRun) {
    let clusters: Vec<DbCluster> = (0..REPEATS).map(|_| build(protocol)).collect();
    let mut last = None;
    let round = Instant::now();
    for cluster in clusters {
        last = Some(cluster.run());
    }
    let wall = round.elapsed().as_secs_f64() * 1000.0 / REPEATS as f64;
    let run = last.expect("at least one repeat");
    assert!(run.metrics.atomicity_violations().is_empty(), "{}", protocol.name());
    assert_eq!(run.metrics.decisions.len(), TXNS as usize, "every txn must terminate");
    (wall, run)
}

/// Samples wall times within the budget; returns their median and the last
/// run.
fn sample(protocol: CommitProtocol, budget_ms: u64) -> (f64, DbRun) {
    let _ = run_block(protocol); // warmup
    let mut walls = Vec::new();
    let started = Instant::now();
    let mut last = None;
    while walls.is_empty()
        || (walls.len() < MAX_ROUNDS && started.elapsed().as_millis() < budget_ms as u128)
    {
        let (wall, run) = run_block(protocol);
        walls.push(wall);
        last = Some(run);
    }
    (median_of(&mut walls), last.expect("at least one round"))
}

struct Measurement {
    protocol: CommitProtocol,
    wall_ms: f64,
    constructed: usize,
    reused: usize,
}

impl Measurement {
    fn txns_per_sec(&self) -> f64 {
        TXNS as f64 * 1000.0 / self.wall_ms.max(f64::MIN_POSITIVE)
    }
}

fn render_json(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"{}\",", json_escape("ddb_txn_throughput"));
    let _ = writeln!(out, "  {},", host_fields());
    let _ = writeln!(out, "  \"sites\": {SITES},");
    let _ = writeln!(out, "  \"txns\": {TXNS},");
    out.push_str("  \"protocols\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"protocol\": \"{}\", \"wall_ms\": {:.3}, \"txns_per_sec\": {:.1}, \
             \"participants_constructed\": {}, \"participants_reused\": {}",
            json_escape(m.protocol.name()),
            m.wall_ms,
            m.txns_per_sec(),
            m.constructed,
            m.reused
        );
        out.push_str(if i + 1 == measurements.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let budget_ms = criterion_budget_ms(2_000);
    println!("== bench_ddb: {TXNS}-txn workload throughput, n = {SITES} ==");
    println!("budget {budget_ms} ms per measurement\n");

    let protocols =
        [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority];
    let measurements: Vec<Measurement> = protocols
        .iter()
        .map(|&protocol| {
            let (wall_ms, run) = sample(protocol, budget_ms);
            Measurement {
                protocol,
                wall_ms,
                constructed: run.participants_constructed,
                reused: run.participants_reused,
            }
        })
        .collect();

    let mut table = Table::new(vec!["protocol", "wall ms", "txns/s", "constructed", "reused"]);
    for m in &measurements {
        table.row(vec![
            m.protocol.name().to_string(),
            format!("{:.1}", m.wall_ms),
            format!("{:.0}", m.txns_per_sec()),
            m.constructed.to_string(),
            m.reused.to_string(),
        ]);
    }
    println!("{}", table.render());

    write_record("BENCH_ddb.json", &render_json(&measurements));
}
