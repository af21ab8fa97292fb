//! Live serving baseline: the multi-threaded shard server under sustained
//! open-loop load, batching off vs on.
//!
//! Runs the same offered load twice through `ptp-live` — once with the
//! simulator's per-record force writes and per-message sends, once with
//! group-commit WAL batching and protocol-message coalescing — and writes
//! `BENCH_live.json`, the **sixth** committed perf record. Both runs must
//! pass the storage audit and drain cleanly, and the batched run must
//! coalesce sends and flush less (the point of group commit: the per-flush
//! cost is amortized across every record in the window). Which mode
//! achieves the higher commit rate is reported, not asserted: on a 2-core
//! host the unbatched run often wins at this offered load.
//!
//! The flush cost is a busy-wait standing in for fsync; the offered rate is
//! chosen so that per-record force writes saturate the recorded machine.
//!
//! `CRITERION_BUDGET_MS` scales the load window, as in the sibling benches
//! (the CI smoke run only checks the invariants, not the goodput pin — a
//! 300 ms window on a loaded runner is not a measurement).

use ptp_bench::{criterion_budget_ms, host_fields, json_escape, nproc, write_record};
use ptp_core::report::Table;
use ptp_live::{run_server, BatchConfig, KeySkew, LiveOptions, LiveReport};
use std::fmt::Write as _;
use std::time::Duration;

const OFFERED_OPS_PER_SEC: f64 = 300.0;
const FLUSH_COST: Duration = Duration::from_millis(1);
const BATCH_WINDOW: Duration = Duration::from_millis(10);

fn options(duration: Duration) -> LiveOptions {
    let mut opts = LiveOptions::small(OFFERED_OPS_PER_SEC, duration);
    opts.flush_cost = FLUSH_COST;
    opts.skew = KeySkew::HotKey { hot_fraction: 0.1 };
    opts.drain_timeout = Duration::from_secs(20);
    opts
}

fn mode_json(mode: &str, r: &LiveReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\"mode\": \"{mode}\", \"achieved_commits_per_sec\": {:.1}, \
         \"issued_writes\": {}, \"committed\": {}, \"aborted\": {}, \"completed_reads\": {}, \
         \"write_p50_us\": {}, \"write_p90_us\": {}, \"write_p99_us\": {}, \"write_max_us\": {}, \
         \"read_p50_us\": {}, \"read_p99_us\": {}, \
         \"flushes\": {}, \"channel_sends\": {}, \"protocol_messages\": {}, \
         \"clean_drain\": {}, \"audit_ok\": {}}}",
        r.achieved_rate,
        r.issued_writes,
        r.committed,
        r.aborted,
        r.completed_reads,
        r.writes.p50_us,
        r.writes.p90_us,
        r.writes.p99_us,
        r.writes.max_us,
        r.reads.p50_us,
        r.reads.p99_us,
        r.flushes,
        r.channel_sends,
        r.protocol_messages,
        r.clean_drain,
        r.audit.ok,
    );
    out
}

fn render_json(duration: Duration, off: &LiveReport, on: &LiveReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"{}\",", json_escape("live_serving"));
    let _ = writeln!(out, "  {},", host_fields());
    let _ = writeln!(out, "  \"sites\": 6,");
    let _ = writeln!(out, "  \"shards\": 3,");
    let _ = writeln!(out, "  \"replication\": 2,");
    let _ = writeln!(out, "  \"protocol\": \"{}\",", json_escape("huang-li-3pc"));
    let _ = writeln!(out, "  \"offered_ops_per_sec\": {OFFERED_OPS_PER_SEC},");
    let _ = writeln!(out, "  \"duration_ms\": {},", duration.as_millis());
    let _ = writeln!(out, "  \"flush_cost_us\": {},", FLUSH_COST.as_micros());
    let _ = writeln!(out, "  \"batch_window_us\": {},", BATCH_WINDOW.as_micros());
    out.push_str("  \"modes\": [\n");
    out.push_str(&mode_json("batching_off", off));
    out.push_str(",\n");
    out.push_str(&mode_json("batching_on", on));
    out.push_str("\n  ]\n}\n");
    out
}

fn summarize(mode: &str, r: &LiveReport, table: &mut Table) {
    table.row(vec![
        mode.to_string(),
        format!("{:.0}", r.achieved_rate),
        format!("{}/{}", r.committed, r.issued_writes),
        format!("{}", r.writes.p50_us),
        format!("{}", r.writes.p99_us),
        r.flushes.to_string(),
        format!("{}", r.channel_sends),
        if r.audit.ok { "ok".into() } else { "VIOLATED".into() },
        if r.clean_drain { "yes".into() } else { "NO".into() },
    ]);
}

/// Pins the Null-sink goodput against the committed record. These runs
/// leave `LiveOptions::obs` at its off default, so the measured goodput
/// *is* the observability-disabled number: at full budget on a container
/// of the same width, batched goodput must stay within 5% of the last
/// committed `BENCH_live.json` (one-sided — faster is never a regression).
fn assert_null_sink_goodput(on: &LiveReport, full_budget: bool) {
    let Ok(prior) = std::fs::read_to_string("BENCH_live.json") else {
        println!("no committed BENCH_live.json; skipping the goodput pin");
        return;
    };
    let field = |from: &str, key: &str| -> Option<f64> {
        let rest = &from[from.find(key)? + key.len()..];
        rest.split([',', '}', '\n']).next()?.trim().parse().ok()
    };
    let prior_nproc = field(&prior, "\"nproc\": ");
    let prior_rate = prior
        .find("\"mode\": \"batching_on\"")
        .and_then(|i| field(&prior[i..], "\"achieved_commits_per_sec\": "));
    let (Some(prior_nproc), Some(prior_rate)) = (prior_nproc, prior_rate) else {
        println!("committed BENCH_live.json predates the goodput pin; skipping");
        return;
    };
    if !full_budget || prior_nproc as usize != nproc() {
        println!(
            "goodput pin skipped (full budget: {full_budget}, recorded nproc {prior_nproc} \
             vs {} here); committed record: {prior_rate:.1} commits/s batched",
            nproc()
        );
        return;
    }
    assert!(
        on.achieved_rate >= prior_rate * 0.95,
        "Null-sink goodput regressed beyond noise: {:.1} commits/s batched vs \
         {prior_rate:.1} committed in BENCH_live.json (tolerance 5%)",
        on.achieved_rate
    );
    println!(
        "Null-sink goodput pin: {:.1} commits/s batched vs {prior_rate:.1} committed (within 5%)",
        on.achieved_rate
    );
}

fn main() {
    let budget_ms = criterion_budget_ms(2_000);
    // A live run needs real wall time regardless of budget: at least 300 ms
    // of load so the schedule has enough arrivals to audit meaningfully.
    let duration = Duration::from_millis(budget_ms.max(300));
    let full_budget = budget_ms >= 1_000;
    println!(
        "== bench_live: {OFFERED_OPS_PER_SEC} ops/s offered for {duration:?}, \
         flush cost {FLUSH_COST:?} =="
    );
    println!("3 shards x 2 replicas over 6 sites, HL-3PC, 20% reads, 10% cross-shard\n");

    let off = run_server(&options(duration));
    println!("batching off: {:.0} commits/s achieved, {} flushes", off.achieved_rate, off.flushes);
    let mut on_opts = options(duration);
    on_opts.batch = BatchConfig::on(BATCH_WINDOW);
    let on = run_server(&on_opts);
    println!(
        "batching on : {:.0} commits/s achieved, {} flushes ({:?} window)\n",
        on.achieved_rate, on.flushes, BATCH_WINDOW
    );

    let mut table = Table::new(vec![
        "mode",
        "commits/s",
        "committed",
        "p50 us",
        "p99 us",
        "flushes",
        "sends",
        "audit",
        "drained",
    ]);
    summarize("batching off", &off, &mut table);
    summarize("batching on", &on, &mut table);
    println!("{}", table.render());

    // The invariants hold at any budget.
    for (mode, r) in [("off", &off), ("on", &on)] {
        assert!(r.audit.ok, "batching-{mode} audit violations: {:?}", r.audit.violations);
        assert!(r.clean_drain, "batching-{mode} run did not drain cleanly");
        assert!(r.committed > 0, "batching-{mode} run committed nothing");
    }
    // Coalescing must actually coalesce, and group commit must actually
    // group: fewer sends than messages, fewer flushes than force writes.
    assert!(
        on.channel_sends < on.protocol_messages,
        "coalescing never packed two messages into one send"
    );
    assert!(on.flushes < off.flushes, "group commit should flush less than force-writing");

    // Compare against the committed record *before* overwriting it.
    assert_null_sink_goodput(&on, full_budget);

    write_record("BENCH_live.json", &render_json(duration, &off, &on));
}
