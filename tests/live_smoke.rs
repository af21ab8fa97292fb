//! End-to-end smoke of the live shard server: a short open-loop run must
//! serve every operation, pass the storage audit, and drain cleanly — with
//! and without group commit, and through a mid-run partition.

use ptp_core::livenet::LivePartition;
use ptp_live::{run_server, BatchConfig, LiveOptions};
use ptp_simnet::SiteId;
use std::time::Duration;

fn base(rate: f64) -> LiveOptions {
    let mut opts = LiveOptions::small(rate, Duration::from_millis(400));
    // Keep the flush spin cheap: this is a correctness smoke, not a
    // measurement.
    opts.flush_cost = Duration::from_micros(50);
    opts
}

#[test]
fn open_loop_run_audits_clean_and_drains() {
    let report = run_server(&base(200.0));
    assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
    assert!(report.audit.strict, "partition-free runs get the strict audit");
    assert!(report.clean_drain, "unclean drain: {report:?}");
    assert_eq!(report.completed_writes, report.issued_writes);
    assert_eq!(report.completed_reads, report.issued_reads);
    assert!(report.committed > 0);
    assert!(report.achieved_rate > 0.0);
}

#[test]
fn group_commit_run_audits_clean_and_drains() {
    let mut opts = base(200.0);
    opts.batch = BatchConfig::on(Duration::from_millis(3));
    let report = run_server(&opts);
    assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
    assert!(report.clean_drain, "unclean drain: {report:?}");
    assert_eq!(report.completed_writes, report.issued_writes);
    assert!(report.committed > 0);
    assert!(report.batching);
    // Coalescing really coalesced: some send carried two messages.
    assert!(
        report.channel_sends < report.protocol_messages,
        "{} sends for {} messages",
        report.channel_sends,
        report.protocol_messages
    );
    // Group commit really grouped: at the same offered load it flushes
    // less than force-writing every record.
    let unbatched = run_server(&base(200.0));
    assert!(
        report.flushes < unbatched.flushes,
        "{} batched flushes vs {} unbatched",
        report.flushes,
        unbatched.flushes
    );
}

#[test]
fn partition_mid_run_still_serves_and_audits() {
    let mut opts = base(150.0);
    opts.batch = BatchConfig::on(Duration::from_millis(3));
    // Cut two sites off for the middle of the load window, then heal.
    opts.partition = Some(LivePartition::simple(
        Duration::from_millis(100),
        vec![SiteId(4), SiteId(5)],
        Some(Duration::from_millis(250)),
    ));
    let report = run_server(&opts);
    // Partition runs use the loose audit: atomicity and no-phantom-writes
    // must hold; replica convergence is exempt while ships can bounce.
    assert!(!report.audit.strict);
    assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
    assert!(report.clean_drain, "unclean drain: {report:?}");
    assert_eq!(report.completed_writes, report.issued_writes);
    assert!(report.committed > 0);
}
