//! A store run keeps its sites' notes, not every envelope and timer.
//!
//! By default a `DbCluster` / `ShardCluster` run records no simulator
//! trace: each site appends the notes it makes to a log beside its
//! metrics, and the run's trace is built from that log. `.recording()`
//! gives back the simulator's whole trace, notes included. This suite runs
//! the families `ddb_golden` and `shard_golden` pin both ways, for every
//! protocol, and holds the default run to the recorded one: the same
//! metrics, storages, WALs, decisions, blocked sets and report, and a
//! trace that is the recorded trace filtered to its notes, event for event.

#[path = "common/flat_family.rs"]
mod flat_family;
#[path = "common/sharded_family.rs"]
mod sharded_family;

use ptp_core::ddb::cluster::{CommitProtocol, DbRun};
use ptp_simnet::TraceEvent;

const PROTOCOLS: [CommitProtocol; 3] =
    [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority];

/// Holds the default run to the recorded one; returns its note count.
fn assert_projection(tag: &str, quiet: &DbRun, recorded: &DbRun) -> usize {
    let same = |what: &str, a: String, b: String| assert!(a == b, "{tag}: {what} differ");
    same("metrics", format!("{:?}", quiet.metrics), format!("{:?}", recorded.metrics));
    same("storages", format!("{:?}", quiet.storages), format!("{:?}", recorded.storages));
    same("wals", format!("{:?}", quiet.wals), format!("{:?}", recorded.wals));
    same("finished", format!("{:?}", quiet.finished), format!("{:?}", recorded.finished));
    same("blocked", format!("{:?}", quiet.blocked), format!("{:?}", recorded.blocked));
    same("reports", format!("{:?}", quiet.report), format!("{:?}", recorded.report));
    let notes: Vec<&TraceEvent> =
        recorded.trace.events().iter().filter(|e| matches!(e, TraceEvent::Note { .. })).collect();
    assert!(notes.len() < recorded.trace.len(), "{tag}: the recorded trace holds envelopes");
    assert!(quiet.trace.events().iter().eq(notes.iter().copied()), "{tag}: notes differ");
    notes.len()
}

#[test]
fn a_flat_store_run_keeps_the_notes_of_its_recorded_twin() {
    for protocol in PROTOCOLS {
        // The family is seeded: two walks yield the same clusters.
        let twins = flat_family::family(protocol).zip(flat_family::family(protocol));
        let mut notes = 0;
        for (i, (quiet, recorded)) in twins.enumerate() {
            let tag = format!("{} flat run {i}", protocol.name());
            notes += assert_projection(&tag, &quiet.run(), &recorded.recording().run());
        }
        assert!(notes > 0, "{}: no run made a note", protocol.name());
    }
}

#[test]
fn a_sharded_store_run_keeps_the_notes_of_its_recorded_twin() {
    for protocol in PROTOCOLS {
        let twins = sharded_family::family(protocol).zip(sharded_family::family(protocol));
        let mut notes = 0;
        for (i, (quiet, recorded)) in twins.enumerate() {
            let tag = format!("{} sharded run {i}", protocol.name());
            notes += assert_projection(&tag, &quiet.run(), &recorded.recording().run());
        }
        assert!(notes > 0, "{}: no run made a note", protocol.name());
    }
}
