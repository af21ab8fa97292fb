//! Golden digests of the flat [`DbCluster`].
//!
//! `DbCluster` used to run on its own site actor (`SiteNode`); it now
//! lowers its workload to a flat plan table and runs on the one plan-routed
//! node every cluster shares. The digests below were generated from the
//! **old** actor — at commit `b1f27ba`, the parent of the change that
//! deleted it — so this suite pins the rewritten `DbCluster` to the retired
//! actor's bytes: `Metrics`, storages, WALs, blocked sets, every event of
//! the whole recorded trace and the simulator's event count, per protocol,
//! over a seeded family wider than the one-shard equivalence suites it
//! replaces (non-uniform, missing and empty per-site write sets; reads, also
//! of absent keys and of nothing; simple and transient partitions around
//! any subset; crash and crash-recover of any site, the master included;
//! duplicated `xact` envelopes).
//!
//! A digest that moves means `DbCluster`'s behaviour moved. Regenerate only
//! for a deliberate behaviour change, and say so in CHANGES.md.

#[path = "common/flat_family.rs"]
mod flat_family;

use flat_family::family;
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_simnet::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(protocol, digest)` as generated at commit `b1f27ba`.
const GOLDEN: [(CommitProtocol, u64); 3] = [
    (CommitProtocol::TwoPhase, 0x4dfd_c4d5_2703_fb3b),
    (CommitProtocol::HuangLi, 0x4ad2_3f82_1c8a_5963),
    (CommitProtocol::QuorumMajority, 0x45a3_256a_8f46_5735),
];

/// FNV-1a over the `{:?}` rendering of everything a run returns.
fn digest(protocol: CommitProtocol, notes: &mut BTreeMap<&'static str, usize>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    for cluster in family(protocol) {
        let run = cluster.recording().run();
        text.clear();
        write!(
            text,
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            run.metrics,
            run.storages,
            run.wals,
            run.blocked,
            run.trace.events(),
            run.report.events
        )
        .expect("writing to a String cannot fail");
        for b in text.bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for event in run.trace.events() {
            if let TraceEvent::Note { label, .. } = event {
                *notes.entry(label).or_default() += 1;
            }
        }
    }
    hash
}

#[test]
fn db_cluster_reproduces_the_retired_site_actor_byte_for_byte() {
    let mut notes = BTreeMap::new();
    let got = GOLDEN.map(|(protocol, _)| (protocol, digest(protocol, &mut notes)));
    assert_eq!(
        got.map(|(p, d)| format!("{} {d:#018x}", p.name())),
        GOLDEN.map(|(p, d)| format!("{} {d:#018x}", p.name()))
    );
    // The family reaches every path the retired suites reached, and more.
    for label in ["lock-wait", "read-wait", "read-served", "parked-abort", "recovered"] {
        assert!(notes.get(label).copied().unwrap_or(0) > 0, "no run hit {label}: {notes:?}");
    }
}
