//! The metric catalogue (`BENCHMARK.json` lists the same names) and the
//! result one workload run hands back.

use std::collections::BTreeMap;

/// `(name, unit, bound)` of every end-to-end metric — what an untraced run
/// prints. The bound is the share of the parent's median by which the
/// metric may worsen before a change counts as a regression.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("ops_per_s", "1/s", 0.10),
    ("write_mean_us", "us", 0.05),
    ("write_p95_us", "us", 0.10),
    ("commit_share", "share", 0.02),
    ("peak_rss_mb", "MB", 0.10),
];

/// `(name, unit)` of every per-layer metric — what a traced run prints. A
/// workload reports 0 for the metrics of a layer its path bypasses.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocols.handler_ns", "ns"),
    ("protocols.handler_ns.quorum", "ns"),
    ("protocols.handler_ns.huangli", "ns"),
    ("protocols.msgs_per_txn", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.events_per_scenario", "count"),
    ("simnet.dispatch_overhead_ns", "ns"),
    ("simnet.trace_record_ratio", "ratio"),
    ("core.session_build_us", "us"),
    ("core.sweep_parallel_speedup", "ratio"),
    ("core.campaign_timelines_per_s", "1/s"),
    ("model.spec_build_us", "us"),
    ("ddb.txn_us", "us"),
    ("ddb.wal_append_ns", "ns"),
    ("ddb.wal_flush_ns", "ns"),
    ("ddb.lock_cycle_ns", "ns"),
    ("ddb.storage_apply_ns", "ns"),
    ("ddb.wal_records_per_commit", "count"),
    ("shard.plan_compile_us_per_txn", "us"),
    ("shard.txn_us", "us"),
    ("shard.overhead_vs_ddb", "ratio"),
    ("shard.events_per_txn", "count"),
    ("shard.lease_read_share", "share"),
    ("shard.sync_installs", "count"),
    ("shard.min_availability", "share"),
    ("livenet.router_msgs_per_s", "1/s"),
    ("livenet.sends_per_commit", "count"),
    ("livenet.msgs_per_commit", "count"),
    ("livenet.protocol_txn_us", "us"),
    ("live.stage_queue_us", "us"),
    ("live.stage_lock_wait_us", "us"),
    ("live.stage_protocol_us", "us"),
    ("live.stage_commit_wait_us", "us"),
    ("live.stage_serve_us", "us"),
    ("live.stage_protocol_us.fault", "us"),
    ("live.stage_coverage", "share"),
    ("live.rounds_per_write", "count"),
    ("live.flushes_per_commit", "count"),
    ("live.coalesce_ratio", "ratio"),
    ("live.lease_read_share", "share"),
    ("live.sync_installs", "count"),
    ("live.cpu_us_per_op", "us"),
    ("live.read_p50_us", "us"),
    ("live.read_mean_us", "us"),
    ("live.write_p99_us", "us"),
    ("live.write_max_us", "us"),
    ("live.audit_violations", "count"),
    ("obs.hist_record_ns", "ns"),
    ("obs.trace_overhead", "ratio"),
    ("bench.spans", "count"),
];

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// Correctness gates that did not hold; empty means `correct`.
    pub gate_failures: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context: sample counts, quartiles, verdict tallies.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` for the catalogued metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, ..)| *n == name)
                || PER_LAYER.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Records that a correctness gate failed.
    pub fn fail_gate(&mut self, what: String) {
        self.gate_failures.push(what);
    }

    /// Checks `ok`, recording `what()` as a failed gate otherwise.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail_gate(what());
        }
    }

    /// Adds a line of context.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}
