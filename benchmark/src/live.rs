//! `live_steady` and `live_partition` — the threaded shard server under an
//! open-loop driver, on real clocks.
//!
//! Both run `run_server` on the `LiveOptions::small` topology (3 shards × 2
//! replicas over 6 sites, HL-3PC, `T` = 20 ms) from one process: the site
//! threads, the router thread and the load driver all live here, so the
//! process's CPU and peak memory are the whole system's.
//!
//! * `live_steady` offers 10 000 ops/s with batching off and free flushes:
//!   every write crosses the single router about five times and
//!   force-writes the WAL per record, reads (20 %) take the shared-lock
//!   path and never touch the router. No faults, no injected cost but `T`.
//! * `live_partition` offers 4 000 ops/s with group commit and coalescing
//!   on (2 ms window, 200 µs flushes), half the operations lease reads,
//!   anti-entropy on, a 256-key vocabulary per shard so writes contend, and
//!   a simple partition `G2 = {1, 4, 5}` over the middle third of the run.

use crate::ladder;
use crate::measure::{cpu_seconds, interpolated_quantile, median};
use crate::report::Report;
use crate::spans::Tracer;
use ptp_live::driver::{self, Schedule};
use ptp_live::{run_server, BatchConfig, LeaseConfig, LiveOptions, LiveReport, ObsConfig};
use ptp_livenet::LivePartition;
use ptp_obs::{
    STAGE_COMMIT_WAIT, STAGE_LOCK_WAIT, STAGE_PROTOCOL, STAGE_QUEUE, STAGE_ROUNDS, STAGE_SERVE,
};
use ptp_shard::{PlanTable, ShardTopology};
use ptp_simnet::SiteId;
use std::time::{Duration, Instant};

/// Which of the two live workloads to run.
#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    Steady,
    Partition,
}

/// The run's options; everything but `seed`, `duration` and `obs` is fixed
/// by the workload.
fn options(mix: Mix, seed: u64, duration: Duration, obs: ObsConfig) -> LiveOptions {
    let rate = match mix {
        Mix::Steady => 10_000.0,
        Mix::Partition => 4_000.0,
    };
    let mut opts = LiveOptions::small(rate, duration);
    opts.seed = seed;
    opts.obs = obs;
    opts.drain_timeout = Duration::from_secs(20);
    match mix {
        Mix::Steady => {
            opts.batch = BatchConfig::off();
            opts.flush_cost = Duration::ZERO;
            opts.keys_per_shard = 4096;
        }
        Mix::Partition => {
            opts.batch = BatchConfig::on(Duration::from_millis(2));
            opts.flush_cost = Duration::from_micros(200);
            opts.read_fraction = 0.5;
            opts.lease =
                Some(LeaseConfig::new(Duration::from_millis(10), Duration::from_millis(150)));
            opts.anti_entropy = Some(Duration::from_millis(50));
            opts.keys_per_shard = 256;
            opts.partition = Some(LivePartition::simple(
                duration / 3,
                vec![SiteId(1), SiteId(4), SiteId(5)],
                Some(duration * 2 / 3),
            ));
        }
    }
    opts
}

/// What `run_server` does before it serves: lay out the topology, find the
/// key vocabulary, generate the full arrival schedule and compile every
/// write's plan.
fn set_up(opts: &LiveOptions, tracer: &Tracer, repeat: u64) -> (ShardTopology, Schedule) {
    tracer.span("setup", repeat, || {
        let topo = tracer.span("shard.topology", repeat, || {
            ShardTopology::uniform(opts.sites, opts.shards, opts.replication)
        });
        let pools = tracer.span("shard.key_pool", repeat, || topo.key_pool(opts.keys_per_shard));
        let schedule =
            tracer.span("live.generate", repeat, || driver::generate(opts, &topo, &pools));
        std::hint::black_box(tracer.span("shard.plan_compile", repeat, || {
            PlanTable::compile(topo.clone(), &schedule.specs)
        }));
        (topo, schedule)
    })
}

/// One served run with the process CPU it took.
struct Served {
    report: LiveReport,
    cpu_secs: f64,
}

impl Served {
    fn cpu_us_per_op(&self) -> f64 {
        let acknowledged = self.report.completed_writes + self.report.completed_reads;
        self.cpu_secs * 1e6 / acknowledged as f64
    }
}

/// What the correctness gates made of one served run.
struct Judgement {
    /// Operations never acknowledged, plus transactions the audit names.
    failed: u64,
    gate_failures: Vec<String>,
    notes: Vec<String>,
}

/// The correctness gates of a served run.
///
/// Audit lines are tolerated — counted as failures, not fatal — only when
/// they stem from a decision split: when the host stalls a thread for more
/// than `T` the paper's bounded-delay assumption breaks, a slave times out
/// and aborts a transaction whose commit the master already acknowledged,
/// and the audit reports the split, then the commit records and values that
/// replica consequently lacks. A line about a transaction with no split (or
/// a key-level line in a run with no split at all), or failures above 0.1 %
/// of the operations, fail the run.
fn judge(live: &LiveReport) -> Judgement {
    let mut judgement = Judgement { failed: 0, gate_failures: Vec::new(), notes: Vec::new() };
    let issued = (live.issued_writes + live.issued_reads) as u64;
    let completed = (live.completed_writes + live.completed_reads) as u64;
    if !live.clean_drain {
        judgement.gate_failures.push(format!(
            "unclean drain: {completed} of {issued} operations acknowledged, or state left in \
             flight at shutdown"
        ));
    }
    let lines = &live.audit.violations;
    fn txn_of(line: &str) -> Option<&str> {
        line.split_once(':').map(|(head, _)| head).filter(|head| head.starts_with("txn"))
    }
    let mut split: Vec<&str> = lines
        .iter()
        .filter(|l| l.contains(" decided ") && l.contains(" but "))
        .filter_map(|l| txn_of(l))
        .collect();
    split.dedup();
    for line in lines {
        let explained = match txn_of(line) {
            Some(txn) => split.contains(&txn),
            None => !split.is_empty() && line.contains("disagree on the value"),
        };
        if !explained {
            judgement
                .gate_failures
                .push(format!("audit violation without a decision split: {line}"));
        }
        judgement.notes.push(format!("audit: {line}"));
    }
    if lines.len() >= 20 {
        judgement.notes.push("the audit keeps 20 lines: the failed count is a lower bound".into());
    }
    judgement.failed = issued - completed + split.len() as u64;
    if judgement.failed * 1000 > issued {
        judgement
            .gate_failures
            .push(format!("{} of {issued} operations failed (limit 0.1 %)", judgement.failed));
    }
    judgement
}

/// Serves `opts` and judges the run; if the run was disturbed — a decision
/// split, an unclean drain, anything unacknowledged — serves once more and
/// reports the second attempt, whatever it shows.
///
/// On this class of host about one 25 s run in ten is stalled for longer
/// than the protocol's timeouts (the write maximum jumps from ≈ 170 ms to
/// 300–400 ms), which breaks the delay bound the paper assumes and says
/// nothing about the program. A fault of the program's own shows on the
/// second attempt too. The discarded attempt is named in the notes.
fn serve(opts: &LiveOptions, report: &mut Report, tracer: &Tracer, op: u64) -> Served {
    let mut attempt = 0;
    loop {
        attempt += 1;
        let cpu_before = cpu_seconds();
        let live = tracer.span("live.run_server", op, || run_server(opts));
        let served = Served { report: live, cpu_secs: cpu_seconds() - cpu_before };
        let judgement = judge(&served.report);
        let disturbed = judgement.failed > 0 || !judgement.gate_failures.is_empty();
        if disturbed && attempt == 1 {
            report.note(format!(
                "attempt 1 discarded as disturbed by the host (write max {} us, {} failed, \
                 {} aborted, clean drain {}); serving again",
                served.report.writes.max_us,
                judgement.failed,
                served.report.aborted,
                served.report.clean_drain,
            ));
            continue;
        }
        report.failed += judgement.failed;
        report.gate_failures.extend(judgement.gate_failures);
        report.notes.extend(judgement.notes);
        return served;
    }
}

/// The untraced run: set-up five times (median), then serve the full
/// schedule once with every sink Null.
pub fn run(mix: Mix, seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let opts = options(mix, seed, Duration::from_secs_f64(seconds), ObsConfig::off());
    let setups: Vec<f64> = (0..5)
        .map(|repeat| {
            let started = Instant::now();
            std::hint::black_box(set_up(&opts, tracer, repeat));
            started.elapsed().as_secs_f64()
        })
        .collect();

    let served = serve(&opts, &mut report, tracer, 0);
    let live = &served.report;
    report.attempted = (live.issued_writes + live.issued_reads) as u64;

    let writes = live.metrics.hist("write_latency_us").expect("write histogram rides along");
    report.set("setup_s", median(&setups));
    report.set(
        "ops_per_s",
        (live.committed + live.completed_reads) as f64 / live.elapsed.as_secs_f64(),
    );
    report.set("write_mean_us", writes.mean());
    report.set("write_p95_us", interpolated_quantile(writes, 0.95));
    report.set("commit_share", live.committed as f64 / live.issued_writes as f64);
    report.note(format!(
        "offered {} ops/s for {seconds} s: {} writes ({} committed, {} aborted) and {} reads \
         issued, {} + {} acknowledged in {:.3} s; write max {} us; cpu {:.2} us/op (a layer \
         metric: see live.cpu_us_per_op); set-up repeats {setups:.3?} s",
        live.offered_rate,
        live.issued_writes,
        live.committed,
        live.aborted,
        live.issued_reads,
        live.completed_writes,
        live.completed_reads,
        live.elapsed.as_secs_f64(),
        live.writes.max_us,
        served.cpu_us_per_op(),
    ));
    report
}

/// Mean microseconds per operation the stage table attributes to `stage`,
/// over rows the filter keeps.
fn stage_mean_us(live: &LiveReport, stage: &str, keep: impl Fn(&str) -> bool) -> f64 {
    let (mut total, mut count) = (0u64, 0u64);
    for ((_, phase, s), cell) in live.stages.rows() {
        if *s == stage && keep(phase) {
            total += cell.total_us;
            count += cell.count;
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// The traced run: the workload at a third of the duration twice — sinks
/// Null, then `ObsConfig::recording()` with 100 ms series bins — and the
/// micro-loops of the layers a live run stands on (`model`, `shard` plan
/// compilation, `livenet`, `obs`).
pub fn run_traced(mix: Mix, seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let duration = Duration::from_secs_f64(seconds / 3.0);
    let quiet = options(mix, seed, duration, ObsConfig::off());
    let mut recording = ObsConfig::recording();
    recording.series_bin = Some(Duration::from_millis(100));
    let loud = options(mix, seed, duration, recording);

    let (topo, schedule) = set_up(&quiet, tracer, 0);
    let untraced = serve(&quiet, &mut report, tracer, 0);
    let traced = serve(&loud, &mut report, tracer, 1);
    report.attempted = (traced.report.issued_writes + traced.report.issued_reads) as u64;

    let live = &traced.report;
    let writes = live.metrics.hist("write_latency_us").expect("write histogram rides along");
    let reads = live.metrics.hist("read_latency_us").expect("read histogram rides along");
    let measured = writes.sum() + reads.sum();
    let coverage = live.stages.attributed_us() as f64 / measured as f64;
    report.gate(coverage >= 0.95, || {
        format!("stage rows cover only {:.1} % of the measured latency", coverage * 100.0)
    });
    let any = |_: &str| true;
    report.set("live.stage_queue_us", stage_mean_us(live, STAGE_QUEUE, any));
    report.set("live.stage_lock_wait_us", stage_mean_us(live, STAGE_LOCK_WAIT, any));
    report.set("live.stage_protocol_us", stage_mean_us(live, STAGE_PROTOCOL, any));
    report.set("live.stage_commit_wait_us", stage_mean_us(live, STAGE_COMMIT_WAIT, any));
    report.set("live.stage_serve_us", stage_mean_us(live, STAGE_SERVE, any));
    report.set(
        "live.stage_protocol_us.fault",
        stage_mean_us(live, STAGE_PROTOCOL, |phase| phase == "fault"),
    );
    report.set("live.stage_coverage", coverage);
    report.set("live.rounds_per_write", stage_mean_us(live, STAGE_ROUNDS, any));
    let commits = live.committed.max(1) as f64;
    report.set("live.flushes_per_commit", live.flushes as f64 / commits);
    report.set(
        "live.coalesce_ratio",
        live.protocol_messages as f64 / live.channel_sends.max(1) as f64,
    );
    report.set(
        "live.lease_read_share",
        live.lease_reads as f64 / (live.completed_reads.max(1)) as f64,
    );
    report.set("live.sync_installs", live.sync_installs as f64);
    report.set("live.read_p50_us", interpolated_quantile(reads, 0.50));
    report.set("live.read_mean_us", reads.mean());
    report.set("live.write_p99_us", interpolated_quantile(writes, 0.99));
    report.set("live.write_max_us", live.writes.max_us as f64);
    report.set("live.audit_violations", live.audit.violations.len() as f64);
    report.set("livenet.sends_per_commit", live.channel_sends as f64 / commits);
    report.set("livenet.msgs_per_commit", live.protocol_messages as f64 / commits);
    report.set("live.cpu_us_per_op", untraced.cpu_us_per_op());
    report.set("obs.trace_overhead", traced.cpu_us_per_op() / untraced.cpu_us_per_op());
    report.note(format!(
        "{} s at {} ops/s, sinks Null then Recording: cpu {:.2} vs {:.2} us/op, write mean \
         {:.0} vs {:.0} us; stage rows cover {:.2} % of {} us measured; {} series bins",
        duration.as_secs_f64(),
        live.offered_rate,
        untraced.cpu_us_per_op(),
        traced.cpu_us_per_op(),
        untraced.report.writes.mean_us,
        live.writes.mean_us,
        coverage * 100.0,
        measured,
        live.series.as_ref().map_or(0, |s| s.bins().len()),
    ));

    report.set("model.spec_build_us", ladder::spec_build_us(tracer));
    let specs = &schedule.specs[..schedule.specs.len().min(4096)];
    report.set(
        "shard.plan_compile_us_per_txn",
        ladder::plan_compile_us_per_txn(&topo, specs, tracer),
    );
    ladder::router_msgs_per_s(&mut report, tracer);
    ladder::protocol_txn_us(&mut report, quiet.t, tracer);
    ladder::hist_record_ns(&mut report, tracer);
    report
}
