//! Golden digests of the sharded store with leases and anti-entropy on.
//!
//! [`ddb_golden`](../ddb_golden.rs) pins the flat `DbCluster`, which runs
//! neither chain; this suite pins what it leaves out: a seeded
//! `ShardCluster` family over two topologies — `uniform(6, 3, 2)`, where
//! groups tile the cluster, and `uniform(3, 3, 2)`, where every site masters
//! one shard and replicates another — with `Uniform` delays, single-key and
//! cross-shard writes, reads of seeded and never-written keys, transient
//! and permanent partitions that strand replicas (and, now and then, a
//! master), and crash or crash-recover of replicas and of masters.
//!
//! The digest folds `Metrics`, storages, WALs, blocked sets, every event of
//! the whole recorded trace and the simulator's event count, per protocol. The family reaches
//! the anti-entropy delta install (`sync-installed`), decision replay and
//! ships (`shard-applied`), lease reads and crash recovery — which the test
//! checks, so a family that stops reaching a path fails loudly rather than
//! pinning less.
//!
//! The digests were generated before the anti-entropy exchange answered by
//! an ordered merge over a per-shard version index instead of a scan of the
//! master's whole store, and regenerated once since, when crash recovery
//! stopped presuming abort at a participant (the outcome is the
//! coordinator's; the participant now learns it by decision replay): a
//! digest that moves means the sharded store's behaviour moved. Regenerate
//! only for a deliberate behaviour change, and say so in CHANGES.md.

#[path = "common/sharded_family.rs"]
mod sharded_family;

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::site::ReadPath;
use ptp_simnet::TraceEvent;
use sharded_family::family;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(protocol, digest)`, regenerated when recovery stopped presuming abort
/// at a participant.
const GOLDEN: [(CommitProtocol, u64); 3] = [
    (CommitProtocol::TwoPhase, 0x8fd5_42d4_54bc_5460),
    (CommitProtocol::HuangLi, 0x5cc7_6a1d_c07d_a473),
    (CommitProtocol::QuorumMajority, 0x7fea_732a_60a0_fd08),
];

/// FNV-1a over the `{:?}` rendering of everything a run returns; counts
/// each trace note label and the lease reads into `reached`.
fn digest(protocol: CommitProtocol, reached: &mut BTreeMap<&'static str, usize>) -> u64 {
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
                *reached.entry(label).or_default() += 1;
            }
        }
        let leased = run.metrics.reads.iter().filter(|r| r.path == ReadPath::Lease).count();
        *reached.entry("lease-read").or_default() += leased;
    }
    hash
}

#[test]
fn sharded_store_with_leases_and_anti_entropy_reproduces_its_golden_digests() {
    let mut reached = BTreeMap::new();
    let got = GOLDEN.map(|(protocol, _)| (protocol, digest(protocol, &mut reached)));
    assert_eq!(
        got.map(|(p, d)| format!("{} {d:#018x}", p.name())),
        GOLDEN.map(|(p, d)| format!("{} {d:#018x}", p.name()))
    );
    for label in ["sync-installed", "shard-applied", "lease-read", "recovered"] {
        assert!(reached.get(label).copied().unwrap_or(0) > 0, "no run hit {label}: {reached:?}");
    }
}
