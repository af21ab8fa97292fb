//! Golden digests of the flat [`DbCluster`].
//!
//! `DbCluster` used to run on its own site actor (`SiteNode`); it now
//! lowers its workload to a flat plan table and runs on the one plan-routed
//! node every cluster shares. The digests below were generated from the
//! **old** actor — at commit `b1f27ba`, the parent of the change that
//! deleted it — so this suite pins the rewritten `DbCluster` to the retired
//! actor's bytes: `Metrics`, storages, WALs, blocked sets, every trace
//! event and the simulator's event count, per protocol, over a seeded
//! family wider than the one-shard equivalence suites it replaces
//! (non-uniform, missing and empty per-site write sets; reads, also of
//! absent keys and of nothing; simple and transient partitions around any
//! subset; crash and crash-recover of any site, the master included;
//! duplicated `xact` envelopes).
//!
//! A digest that moves means `DbCluster`'s behaviour moved. Regenerate only
//! for a deliberate behaviour change, and say so in CHANGES.md.

use ptp_core::ddb::cluster::{CommitProtocol, DbCluster};
use ptp_core::ddb::site::{ReadSpec, TxnSpec};
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    DelayModel, EnvelopeFault, EnvelopeMatch, FailureSpec, PartitionEngine, PartitionSpec,
    SimDuration, SimTime, SiteId, TraceEvent,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const RUNS_PER_PROTOCOL: usize = 300;

/// `(protocol, digest)` as generated at commit `b1f27ba`.
const GOLDEN: [(CommitProtocol, u64); 3] = [
    (CommitProtocol::TwoPhase, 0x4dfd_c4d5_2703_fb3b),
    (CommitProtocol::HuangLi, 0x4ad2_3f82_1c8a_5963),
    (CommitProtocol::QuorumMajority, 0x45a3_256a_8f46_5735),
];

/// Read ids live above every write id.
const READ_BASE: u32 = 1000;

fn key(rng: &mut SmallRng, pool: u64) -> Key {
    Key::from(format!("k{}", rng.gen_range(0..=pool - 1)))
}

/// One seeded workload. Keys `k0..k2` are seeded everywhere, `k3` is only
/// ever written and `k4` only ever read (always absent).
fn random_cluster(rng: &mut SmallRng, protocol: CommitProtocol) -> DbCluster {
    let n = 3 + rng.gen_range(0..=2) as u16;
    let mut cluster = DbCluster::new(n as usize, protocol).delay(match rng.gen_range(0..=2) {
        0 => DelayModel::Fixed(1 + rng.gen_range(0..=999)),
        1 => DelayModel::Uniform { seed: rng.gen_range(0..=9_999), min: 1, max: 1000 },
        _ => DelayModel::Fixed(700),
    });
    for site in 0..n {
        for k in 0..3u64 {
            cluster = cluster.seed(site, Key::from(format!("k{k}")), Value::from_u64(k));
        }
    }

    for id in 1..=1 + rng.gen_range(0..=7) as u32 {
        let mut writes = BTreeMap::new();
        for site in 0..n {
            // A site may be absent from the map, present with nothing to
            // write, or hold its own (non-uniform) write set.
            let ops = match rng.gen_range(0..=5) {
                0 => continue,
                1 => Vec::new(),
                _ => (0..=rng.gen_range(0..=2))
                    .map(|_| WriteOp {
                        key: key(rng, 4),
                        value: Value::from_u64(rng.gen_range(0..=999)),
                    })
                    .collect(),
            };
            writes.insert(site, ops);
        }
        cluster = cluster.submit(rng.gen_range(0..=20_000), TxnSpec { id: TxnId(id), writes });
    }
    for i in 0..rng.gen_range(0..=4) as u32 {
        let mut keys: Vec<Key> = (0..rng.gen_range(0..=3)).map(|_| key(rng, 5)).collect();
        keys.sort();
        keys.dedup();
        let spec = ReadSpec { id: TxnId(READ_BASE + i), keys };
        cluster = cluster.submit_read(rng.gen_range(0..=25_000), spec);
    }

    if rng.gen_range(0..=2) == 0 {
        // Any proper non-empty subset on the far side, the master included.
        let mask = 1 + rng.gen_range(0..=(1u64 << n) - 3);
        let (g2, g1): (Vec<SiteId>, Vec<SiteId>) =
            (0..n).map(SiteId).partition(|s| (mask >> s.0) & 1 == 1);
        let at = SimTime(rng.gen_range(0..=12_000));
        let spec = match rng.gen_range(0..=1) {
            0 => PartitionSpec::simple(at, g1, g2),
            _ => PartitionSpec::transient(
                at,
                g1,
                g2,
                at + SimDuration(500 + rng.gen_range(0..=8_000)),
            ),
        };
        cluster = cluster.partition(PartitionEngine::new(vec![spec]));
    }
    if rng.gen_range(0..=2) == 0 {
        let site = SiteId(rng.gen_range(0..=n as u64 - 1) as u16);
        let at = SimTime(500 + rng.gen_range(0..=8_000));
        cluster = cluster.fail(match rng.gen_range(0..=1) {
            0 => FailureSpec::crash(site, at),
            _ => FailureSpec::crash_recover(site, at, at + SimDuration(10_000)),
        });
    }
    if rng.gen_range(0..=3) == 0 {
        cluster = cluster.env_fault(EnvelopeFault::duplicate(
            EnvelopeMatch::kind("xact"),
            SimDuration(1 + rng.gen_range(0..=899)),
        ));
    }
    cluster
}

/// FNV-1a over the `{:?}` rendering of everything a run returns.
fn digest(protocol: CommitProtocol, notes: &mut BTreeMap<&'static str, usize>) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x601D ^ protocol.name().len() as u64);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    for _ in 0..RUNS_PER_PROTOCOL {
        let run = random_cluster(&mut rng, protocol).run();
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
