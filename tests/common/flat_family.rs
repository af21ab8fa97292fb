//! The seeded flat-store family `ddb_golden` pins: [`family`] yields the
//! same `DbCluster`s, in the same order, to every suite that includes it
//! with `#[path = "common/flat_family.rs"] mod flat_family;`.

use ptp_core::ddb::cluster::{CommitProtocol, DbCluster};
use ptp_core::ddb::site::{ReadSpec, TxnSpec};
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    DelayModel, EnvelopeFault, EnvelopeMatch, FailureSpec, PartitionEngine, PartitionSpec,
    SimDuration, SimTime, SiteId,
};
use std::collections::BTreeMap;

/// Runs in one protocol's family.
const RUNS_PER_PROTOCOL: usize = 300;

/// The family of `protocol`, seeded from its name.
pub fn family(protocol: CommitProtocol) -> impl Iterator<Item = DbCluster> {
    let mut rng = SmallRng::seed_from_u64(0x601D ^ protocol.name().len() as u64);
    (0..RUNS_PER_PROTOCOL).map(move |_| random_cluster(&mut rng, protocol))
}

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
