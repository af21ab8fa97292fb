//! Stage-attributed live latency: where each microsecond of a commit goes.
//!
//! Runs the threaded shard server three times with observability recording
//! on — fault-free, with a mid-run replica partition, and with the
//! lease + anti-entropy read fast path — and writes `BENCH_obs.json`, the
//! **ninth** committed perf record. Each run's `(path, fault-phase,
//! stage)` attribution table must account for ≥ 95% of the latency the
//! end-to-end histograms measured (the spans are consecutive boundary
//! deltas over one timeline, so only saturating truncation can shave
//! anything off); the partition run shows which stage absorbs the fault
//! tail that the fault-free baseline lacks.
//!
//! A fourth pair of short runs measures the Null-vs-Recording goodput
//! delta — the price of leaving the instruments on.
//!
//! `CRITERION_BUDGET_MS` scales the load window as in the sibling benches;
//! the fault-phase assertions only engage at full budget (a 300 ms smoke
//! window leaves too few completions inside the partition window to
//! measure anything).

use ptp_bench::{criterion_budget_ms, host_fields, json_escape, nproc, write_record};
use ptp_core::report::Table;
use ptp_live::{run_server, LeaseConfig, LiveOptions, LiveReport, ObsConfig};
use std::fmt::Write as _;
use std::time::Duration;

const OFFERED_OPS_PER_SEC: f64 = 250.0;

fn base_options(duration: Duration) -> LiveOptions {
    let mut opts = LiveOptions::small(OFFERED_OPS_PER_SEC, duration);
    opts.drain_timeout = Duration::from_secs(20);
    opts.obs = ObsConfig::recording();
    opts
}

/// The partition run: one replica of shard 0 secedes for the middle
/// quarter of the load window, then heals — writes to that group ride the
/// termination protocol while the episode is open.
fn partition_options(duration: Duration) -> LiveOptions {
    let topo = ptp_shard::ShardTopology::uniform(6, 3, 2);
    let replica = topo.group(0)[1];
    let mut opts = base_options(duration);
    opts.partition =
        Some(ptp_livenet::LivePartition::simple(duration / 4, vec![replica], Some(duration / 2)));
    opts
}

/// The lease/anti-entropy run: read-heavy, with the master-lease fast path
/// armed and replicas polling for deltas — the `read-lease` path and sync
/// traffic show up in the attribution table and counters.
fn lease_options(duration: Duration) -> LiveOptions {
    let mut opts = base_options(duration);
    opts.read_fraction = 0.5;
    opts.lease = Some(LeaseConfig::new(Duration::from_millis(8), Duration::from_millis(40)));
    opts.anti_entropy = Some(Duration::from_millis(15));
    opts
}

/// Microseconds the stage table attributed vs the end-to-end histograms'
/// measured total, and the coverage ratio between them.
fn coverage(r: &LiveReport) -> (u64, u64, f64) {
    let measured = r.metrics.hist("write_latency_us").map_or(0, |h| h.sum())
        + r.metrics.hist("read_latency_us").map_or(0, |h| h.sum());
    let attributed = r.stages.attributed_us();
    let pct = if measured == 0 { 100.0 } else { attributed as f64 * 100.0 / measured as f64 };
    (attributed, measured, pct)
}

fn run_json(name: &str, r: &LiveReport) -> String {
    let (attributed, measured, pct) = coverage(r);
    let mut out = String::new();
    let _ = writeln!(out, "    {{\"run\": \"{}\",", json_escape(name));
    let _ = writeln!(out, "    \"achieved_commits_per_sec\": {:.1},", r.achieved_rate);
    let _ = writeln!(
        out,
        "    \"committed\": {}, \"aborted\": {}, \"completed_reads\": {},",
        r.committed, r.aborted, r.completed_reads
    );
    let _ = writeln!(
        out,
        "    \"write_p50_us\": {}, \"write_p99_us\": {}, \"read_p50_us\": {}, \"read_p99_us\": {},",
        r.writes.p50_us, r.writes.p99_us, r.reads.p50_us, r.reads.p99_us
    );
    let _ = writeln!(
        out,
        "    \"attributed_us\": {attributed}, \"measured_us\": {measured}, \
         \"coverage_pct\": {pct:.2},"
    );
    let _ = writeln!(out, "    \"clean_drain\": {}, \"audit_ok\": {},", r.clean_drain, r.audit.ok);
    let _ = writeln!(out, "    \"metrics\": {},", r.metrics.to_json());
    let series = r.series.as_ref().map_or_else(|| "[]".to_string(), |s| s.to_json());
    let _ = writeln!(out, "    \"series\": {series},");
    let _ = write!(out, "    \"stages\": {}}}", r.stages.to_json());
    out
}

fn print_run(name: &str, r: &LiveReport) {
    let (attributed, measured, pct) = coverage(r);
    println!(
        "{name}: {:.0} commits/s, coverage {attributed}/{measured} us = {pct:.1}%",
        r.achieved_rate
    );
    let mut table =
        Table::new(vec!["path", "phase", "stage", "count", "total us", "p50 us", "p99 us"]);
    for ((path, phase, stage), cell) in r.stages.rows() {
        table.row(vec![
            path.to_string(),
            phase.to_string(),
            stage.to_string(),
            cell.count.to_string(),
            cell.total_us.to_string(),
            cell.hist.quantile(0.5).to_string(),
            cell.hist.quantile(0.99).to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    let budget_ms = criterion_budget_ms(2_000);
    let duration = Duration::from_millis(budget_ms.max(300));
    let full_budget = budget_ms >= 1_000;
    println!(
        "== bench_obs: {OFFERED_OPS_PER_SEC} ops/s offered for {duration:?}, recording sinks =="
    );
    println!("3 shards x 2 replicas over 6 sites, HL-3PC; no-fault / partition / lease runs\n");

    let runs = [
        ("no_fault", run_server(&base_options(duration))),
        ("partition", run_server(&partition_options(duration))),
        ("lease_sync", run_server(&lease_options(duration))),
    ];
    for (name, r) in &runs {
        print_run(name, r);
        assert!(r.audit.ok, "{name} audit violations: {:?}", r.audit.violations);
        assert!(r.clean_drain, "{name} run did not drain cleanly");
        let (attributed, measured, pct) = coverage(r);
        assert!(
            pct >= 95.0,
            "{name}: stage table attributes {attributed} of {measured} us ({pct:.1}%), \
             below the 95% accounting floor"
        );
    }

    let partition = &runs[1].1;
    if full_budget {
        let fault_rows: Vec<_> =
            partition.stages.rows().filter(|((_, phase, _), _)| *phase == "fault").collect();
        assert!(
            !fault_rows.is_empty(),
            "the partition run must classify some completions into the fault phase"
        );
        let ((path, _, stage), cell) =
            fault_rows.iter().max_by_key(|(_, c)| c.total_us).expect("nonempty");
        println!(
            "partition tail: {path}/{stage} absorbs {} us across {} ops during the episode",
            cell.total_us, cell.count
        );
    } else {
        println!("(smoke budget: fault-phase tail attribution not asserted)");
    }

    // The price of the instruments: same fault-free load, Null vs Recording.
    let mut null_opts = base_options(duration);
    null_opts.obs = ObsConfig::off();
    let null_run = run_server(&null_opts);
    let recording_rate = runs[0].1.achieved_rate;
    let delta_pct = (null_run.achieved_rate - recording_rate) * 100.0
        / null_run.achieved_rate.max(f64::MIN_POSITIVE);
    println!(
        "\nNull {:.1} vs Recording {recording_rate:.1} commits/s ({delta_pct:+.1}% sink cost)",
        null_run.achieved_rate
    );

    let multi_core = nproc() > 1;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"{}\",", json_escape("obs"));
    let _ = writeln!(out, "  {},", host_fields());
    let _ = writeln!(out, "  \"multi_core_validated\": {multi_core},");
    let _ = writeln!(
        out,
        "  \"multi_core_note\": \"{}\",",
        json_escape(&format!(
            "ROADMAP open item 2: live-stack numbers recorded at nproc = {}; \
             thread-per-site parallelism {} been validated on a multi-core container",
            nproc(),
            if multi_core { "has" } else { "has NOT" }
        ))
    );
    let _ = writeln!(out, "  \"offered_ops_per_sec\": {OFFERED_OPS_PER_SEC},");
    let _ = writeln!(out, "  \"duration_ms\": {},", duration.as_millis());
    let _ = writeln!(
        out,
        "  \"null_overhead\": {{\"null_commits_per_sec\": {:.1}, \
         \"recording_commits_per_sec\": {recording_rate:.1}, \"sink_cost_pct\": {delta_pct:.1}}},",
        null_run.achieved_rate
    );
    out.push_str("  \"runs\": [\n");
    for (i, (name, r)) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&run_json(name, r));
    }
    out.push_str("\n  ]\n}\n");

    write_record("BENCH_obs.json", &out);
}
