//! The open-loop client driver: a precomputed wall-clock arrival schedule,
//! injected on time *regardless of completions*.
//!
//! Open-loop load generation is what makes the latency record honest: a
//! closed-loop driver (issue, wait, issue) slows down exactly when the
//! system does, hiding queueing delay — the coordinated-omission trap. Here
//! every operation has a scheduled arrival instant fixed before the run
//! starts; if the driver thread falls behind the schedule it catches up by
//! injecting immediately (never skipping), and latency is measured from the
//! *scheduled* arrival, so delay the client would have observed is charged
//! to the system.

use crate::config::{KeySkew, LiveOptions};
use crate::node::{Packet, CLIENT_READ, CLIENT_XACT};
use ptp_ddb::site::DbMsg;
use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_livenet::Inbound;
use ptp_shard::plan::ShardTxnSpec;
use ptp_shard::ShardTopology;
use ptp_simnet::rng::SmallRng;
use ptp_simnet::SiteId;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read operations use transaction ids at or above this; write plans never
/// do, so the two namespaces cannot collide.
pub const READ_BASE: u32 = 0x8000_0000;

/// What one scheduled operation does.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// A planned write transaction (the spec lives in the plan table).
    Write,
    /// A point read of one key, served by its shard master.
    Read(Key),
}

/// One operation of the open-loop schedule.
#[derive(Debug, Clone)]
pub struct ScheduledOp {
    /// Scheduled arrival, relative to run start. Latency is measured from
    /// here.
    pub at: Duration,
    /// The operation id (write plan id, or `READ_BASE + i` for reads).
    pub txn: TxnId,
    /// Write or read.
    pub kind: OpKind,
    /// The site the client talks to (the plan's master / the key's shard
    /// master).
    pub target: SiteId,
}

/// The full precomputed workload: the arrival schedule plus the write
/// transaction specs the plan table compiles.
#[derive(Debug)]
pub struct Schedule {
    /// Operations in arrival order (shared: the driver thread injects them
    /// while the harness times and audits them).
    pub ops: Arc<[ScheduledOp]>,
    /// Write specs, one per `OpKind::Write` op.
    pub specs: Vec<ShardTxnSpec>,
    /// Number of writes in `ops`.
    pub writes: usize,
    /// Number of reads in `ops`.
    pub reads: usize,
}

fn uniform01(rng: &mut SmallRng) -> f64 {
    // 53 random bits → [0, 1): the standard double construction.
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn pick_key(rng: &mut SmallRng, skew: KeySkew, pool: &[Key]) -> Key {
    let hot = matches!(skew, KeySkew::HotKey { hot_fraction } if uniform01(rng) < hot_fraction);
    if hot {
        pool[0].clone()
    } else {
        pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
    }
}

/// Generates the open-loop schedule: exponential inter-arrivals at
/// `offered_rate` over `duration`, reads/writes mixed per `read_fraction`,
/// keys per `skew`, a `cross_shard_fraction` of writes spanning two shards
/// (one key in each).
///
/// Every write touches exactly **one key per involved shard**. That keeps
/// each site's lock acquisition single-key, so a parked transaction never
/// holds locks while waiting — local waits-for graphs cannot cycle, and
/// cross-site waits are broken by the master's protocol timeout (the same
/// discipline `ptp-shard` relies on).
pub fn generate(opts: &LiveOptions, topo: &ShardTopology, pools: &[Vec<Key>]) -> Schedule {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut ops = Vec::new();
    let mut specs = Vec::new();
    let mut at = Duration::ZERO;
    let mut next_write = 1u32;
    let mut next_read = READ_BASE;
    let shards = topo.shards();

    loop {
        // Exponential inter-arrival: -ln(1 - U) / rate.
        let u = uniform01(&mut rng);
        at += Duration::from_secs_f64((-(1.0 - u).ln()) / opts.offered_rate);
        if at >= opts.duration {
            break;
        }
        if uniform01(&mut rng) < opts.read_fraction {
            let shard = (rng.next_u64() % shards as u64) as usize;
            let key = pick_key(&mut rng, opts.skew, &pools[shard]);
            ops.push(ScheduledOp {
                at,
                txn: TxnId(next_read),
                kind: OpKind::Read(key),
                target: topo.master(shard),
            });
            next_read += 1;
        } else {
            let first = (rng.next_u64() % shards as u64) as usize;
            let mut involved = vec![first];
            if shards > 1 && uniform01(&mut rng) < opts.cross_shard_fraction {
                let mut second = (rng.next_u64() % (shards as u64 - 1)) as usize;
                if second >= first {
                    second += 1;
                }
                involved.push(second);
            }
            let txn = TxnId(next_write);
            next_write += 1;
            let writes: Vec<WriteOp> = involved
                .iter()
                .map(|&s| WriteOp {
                    key: pick_key(&mut rng, opts.skew, &pools[s]),
                    value: Value::from_u64(txn.0 as u64),
                })
                .collect();
            let coordinator_shard = *involved.iter().min().expect("at least one shard");
            specs.push(ShardTxnSpec { id: txn, writes });
            ops.push(ScheduledOp {
                at,
                txn,
                kind: OpKind::Write,
                target: topo.master(coordinator_shard),
            });
        }
    }

    let writes = specs.len();
    let reads = ops.len() - writes;
    Schedule { ops: ops.into(), specs, writes, reads }
}

/// The driver thread body: sleeps until each op's scheduled arrival (or
/// injects immediately when behind — open loop, never skipping) and hands
/// it to the target site's mailbox. Client traffic goes straight to the
/// local site, not through the delayed router: the client *is* local to its
/// master.
pub fn run_driver(ops: &[ScheduledOp], site_txs: Vec<Sender<Inbound<Packet>>>, start: Instant) {
    for op in ops {
        let due = start + op.at;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(2)));
        }
        let wire = match &op.kind {
            OpKind::Write => DbMsg::bare(op.txn, CLIENT_XACT),
            OpKind::Read(key) => DbMsg {
                writes: Some(vec![WriteOp { key: key.clone(), value: Value::from_u64(0) }]),
                ..DbMsg::bare(op.txn, CLIENT_READ)
            },
        };
        let _ = site_txs[op.target.index()]
            .send(Inbound::Deliver { src: op.target, msg: Packet(vec![wire]) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> LiveOptions {
        let mut o = LiveOptions::small(500.0, Duration::from_millis(400));
        o.cross_shard_fraction = 0.3;
        o
    }

    #[test]
    fn schedule_is_ordered_and_in_window() {
        let o = opts();
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(&o, &topo, &pools);
        assert!(!s.ops.is_empty());
        assert_eq!(s.writes + s.reads, s.ops.len());
        assert_eq!(s.specs.len(), s.writes);
        for pair in s.ops.windows(2) {
            assert!(pair[0].at <= pair[1].at, "arrivals must be sorted");
        }
        assert!(s.ops.last().unwrap().at < o.duration);
    }

    #[test]
    fn offered_rate_is_roughly_met() {
        let o = opts();
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(&o, &topo, &pools);
        let expected = o.offered_rate * o.duration.as_secs_f64();
        let got = s.ops.len() as f64;
        assert!(
            (expected * 0.6..=expected * 1.4).contains(&got),
            "expected ~{expected} arrivals, got {got}"
        );
    }

    #[test]
    fn writes_touch_one_key_per_shard_and_route_to_the_coordinator() {
        let o = opts();
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(&o, &topo, &pools);
        let mut cross = 0;
        for spec in &s.specs {
            let mut shards: Vec<usize> =
                spec.writes.iter().map(|w| topo.shard_of(&w.key)).collect();
            shards.sort_unstable();
            let mut dedup = shards.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), shards.len(), "one key per involved shard");
            if shards.len() > 1 {
                cross += 1;
            }
            let op = s.ops.iter().find(|op| op.txn == spec.id).expect("every spec is scheduled");
            assert_eq!(op.target, topo.master(shards[0]), "client talks to the coordinator");
        }
        assert!(cross > 0, "some writes should span shards");
    }

    #[test]
    fn hot_key_skew_concentrates_traffic() {
        let mut o = opts();
        o.skew = KeySkew::HotKey { hot_fraction: 0.8 };
        o.read_fraction = 0.0;
        o.cross_shard_fraction = 0.0;
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(&o, &topo, &pools);
        let hot: Vec<&Key> = pools.iter().map(|p| &p[0]).collect();
        let hot_hits =
            s.specs.iter().filter(|spec| hot.contains(&&spec.writes[0].key)).count() as f64;
        let frac = hot_hits / s.specs.len() as f64;
        assert!(frac > 0.6, "hot fraction {frac} too low for 0.8 skew");
    }

    #[test]
    fn read_mix_matches_configured_fraction() {
        let mut o = LiveOptions::small(2_000.0, Duration::from_millis(500));
        o.read_fraction = 0.3;
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(&o, &topo, &pools);
        let fraction = s.reads as f64 / s.ops.len() as f64;
        assert!((0.25..=0.35).contains(&fraction), "read fraction {fraction} far from 0.3");
        // Every read targets its key's shard master — the site that serves
        // it (lease or shared-lock path), not a synthesized placeholder.
        for op in s.ops.iter() {
            if let OpKind::Read(key) = &op.kind {
                assert_eq!(op.target, topo.master(topo.shard_of(key)));
            }
        }
    }

    #[test]
    fn read_ids_stay_in_their_namespace() {
        let o = opts();
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(&o, &topo, &pools);
        for op in s.ops.iter() {
            match op.kind {
                OpKind::Write => assert!(op.txn.0 < READ_BASE),
                OpKind::Read(_) => assert!(op.txn.0 >= READ_BASE),
            }
        }
    }
}
