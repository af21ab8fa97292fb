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
//!
//! The schedule comes out of one generator, `arrivals`. A live run keeps
//! of it only a 16-byte [`ScheduledOp`] per operation and the write plans
//! [`compile`] routes straight out of the generator; [`generate`] collects
//! the same arrivals into a list of specs for whoever wants one.

use crate::config::{KeySkew, LiveOptions};
use crate::node::{Packet, CLIENT_READ, CLIENT_XACT};
use ptp_ddb::plan::{PlanTable, ShardTxnSpec};
use ptp_ddb::site::DbMsg;
use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_ddb::ShardTopology;
use ptp_livenet::Inbound;
use ptp_simnet::rng::SmallRng;
use ptp_simnet::SiteId;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Read operations use transaction ids at or above this; write plans never
/// do, so the two namespaces cannot collide.
pub const READ_BASE: u32 = 0x8000_0000;

/// What one scheduled operation does.
#[derive(Debug, Clone, Copy)]
pub enum OpKind<'p> {
    /// A planned write transaction (its write set lives in the plan table).
    Write,
    /// A point read of one key of the pools, served by its shard master.
    Read(&'p Key),
}

/// One operation of the open-loop schedule, in 16 bytes: its arrival, its
/// id, and one word — a read's key, or a write's target — that the key
/// pools it was generated over read back ([`ScheduledOp::kind`],
/// [`ScheduledOp::target`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Scheduled arrival, in nanoseconds since run start.
    at_ns: u64,
    /// The operation id (write plan id, or `READ_BASE + i` for reads).
    pub txn: TxnId,
    /// A read: its key's index in the pools laid end to end. A write: the
    /// site its client talks to.
    slot: u32,
}

impl ScheduledOp {
    /// Scheduled arrival, relative to run start. Latency is measured from
    /// here.
    pub fn at(&self) -> Duration {
        Duration::from_nanos(self.at_ns)
    }

    fn is_read(&self) -> bool {
        self.txn.0 >= READ_BASE
    }

    /// Write or read — and which key, in `pools`, the pools the schedule
    /// was generated over.
    pub fn kind<'p>(&self, pools: &'p [Vec<Key>]) -> OpKind<'p> {
        match self.is_read() {
            true => OpKind::Read(pooled(pools, self.slot).1),
            false => OpKind::Write,
        }
    }

    /// The site the client talks to: the write plan's master, or the
    /// read key's shard master.
    pub fn target(&self, topo: &ShardTopology, pools: &[Vec<Key>]) -> SiteId {
        match self.is_read() {
            true => topo.master(pooled(pools, self.slot).0),
            false => SiteId(self.slot as u16),
        }
    }
}

/// The shard and the key at `index` of `pools` laid end to end.
fn pooled(pools: &[Vec<Key>], index: u32) -> (usize, &Key) {
    let mut index = index as usize;
    for (shard, pool) in pools.iter().enumerate() {
        match pool.get(index) {
            Some(key) => return (shard, key),
            None => index -= pool.len(),
        }
    }
    panic!("a scheduled read's key lies outside the pools");
}

/// The full precomputed workload: the arrival schedule plus the write
/// transaction specs the plan table compiles.
#[derive(Debug)]
pub struct Schedule {
    /// Operations in arrival order.
    pub ops: Vec<ScheduledOp>,
    /// Write specs, one per write op.
    pub specs: Vec<ShardTxnSpec>,
    /// Number of writes in `ops`.
    pub writes: usize,
    /// Number of reads in `ops`.
    pub reads: usize,
}

/// What a live run keeps of its workload: the arrival schedule and every
/// write's compiled plan — no spec list.
#[derive(Debug)]
pub struct Workload {
    /// Operations in arrival order.
    pub ops: Vec<ScheduledOp>,
    /// One plan per write op.
    pub plans: PlanTable,
    /// Number of writes in `ops`.
    pub writes: usize,
    /// Number of reads in `ops`.
    pub reads: usize,
}

/// The write set of one scheduled write: one key per involved shard, in
/// the order they were drawn.
#[derive(Debug, Clone)]
enum WriteSet {
    One([WriteOp; 1]),
    Two([WriteOp; 2]),
}

impl AsRef<[WriteOp]> for WriteSet {
    fn as_ref(&self) -> &[WriteOp] {
        match self {
            WriteSet::One(writes) => writes,
            WriteSet::Two(writes) => writes,
        }
    }
}

impl From<WriteSet> for Vec<WriteOp> {
    fn from(set: WriteSet) -> Vec<WriteOp> {
        match set {
            WriteSet::One(writes) => writes.into(),
            WriteSet::Two(writes) => writes.into(),
        }
    }
}

/// One arrival of the schedule: its operation and, for a write, its write
/// set.
#[derive(Debug, Clone)]
struct Arrival {
    op: ScheduledOp,
    /// `None` for a read.
    writes: Option<WriteSet>,
}

/// The schedule generator: see [`arrivals`]. Cloning it replays the
/// arrivals still to come.
#[derive(Debug, Clone)]
struct Arrivals<'a> {
    opts: &'a LiveOptions,
    topo: &'a ShardTopology,
    pools: &'a [Vec<Key>],
    rng: SmallRng,
    at: Duration,
    next_write: u32,
    next_read: u32,
}

fn uniform01(rng: &mut SmallRng) -> f64 {
    // 53 random bits → [0, 1): the standard double construction.
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The index of a key drawn per `skew` from a pool of `len` keys.
fn pick(rng: &mut SmallRng, skew: KeySkew, len: usize) -> usize {
    let hot = matches!(skew, KeySkew::HotKey { hot_fraction } if uniform01(rng) < hot_fraction);
    if hot {
        0
    } else {
        (rng.next_u64() % len as u64) as usize
    }
}

/// The open-loop schedule, arrival by arrival: exponential inter-arrivals
/// at `offered_rate` over `duration`, reads/writes mixed per
/// `read_fraction`, keys drawn from `pools` (one pool per shard) per
/// `skew`, a `cross_shard_fraction` of writes spanning two shards (one key
/// in each). Writes are numbered `1..`, reads [`READ_BASE`]`..`.
///
/// Every write touches exactly **one key per involved shard**. That keeps
/// each site's lock acquisition single-key, so a parked transaction never
/// holds locks while waiting — local waits-for graphs cannot cycle, and
/// cross-site waits are broken by the master's protocol timeout (the same
/// discipline the simulated sharded store relies on).
fn arrivals<'a>(
    opts: &'a LiveOptions,
    topo: &'a ShardTopology,
    pools: &'a [Vec<Key>],
) -> Arrivals<'a> {
    Arrivals {
        opts,
        topo,
        pools,
        rng: SmallRng::seed_from_u64(opts.seed ^ 0x9e37_79b9_7f4a_7c15),
        at: Duration::ZERO,
        next_write: 1,
        next_read: READ_BASE,
    }
}

impl Iterator for Arrivals<'_> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let (opts, pools, rng) = (self.opts, self.pools, &mut self.rng);
        // Exponential inter-arrival: -ln(1 - U) / rate. `at` only grows, so
        // once past `duration` the schedule stays over.
        let u = uniform01(rng);
        self.at += Duration::from_secs_f64((-(1.0 - u).ln()) / opts.offered_rate);
        if self.at >= opts.duration {
            return None;
        }
        let at_ns = self.at.as_nanos() as u64;
        let shards = self.topo.shards() as u64;
        if uniform01(rng) < opts.read_fraction {
            let shard = (rng.next_u64() % shards) as usize;
            let key = pick(rng, opts.skew, pools[shard].len());
            let below: usize = pools[..shard].iter().map(Vec::len).sum();
            let slot = u32::try_from(below + key).expect("fewer than 2^32 keys");
            let op = ScheduledOp { at_ns, txn: TxnId(self.next_read), slot };
            self.next_read += 1;
            return Some(Arrival { op, writes: None });
        }
        let first = (rng.next_u64() % shards) as usize;
        let second = (shards > 1 && uniform01(rng) < opts.cross_shard_fraction).then(|| {
            let second = (rng.next_u64() % (shards - 1)) as usize;
            second + usize::from(second >= first)
        });
        let txn = TxnId(self.next_write);
        self.next_write += 1;
        let mut write = |shard: usize| WriteOp {
            key: pools[shard][pick(rng, opts.skew, pools[shard].len())].clone(),
            value: Value::from_u64(txn.0 as u64),
        };
        let (writes, coordinator) = match second {
            None => (WriteSet::One([write(first)]), first),
            Some(second) => (WriteSet::Two([write(first), write(second)]), first.min(second)),
        };
        let slot = self.topo.master(coordinator).index() as u32;
        Some(Arrival { op: ScheduledOp { at_ns, txn, slot }, writes: Some(writes) })
    }
}

/// The schedule as a list: every operation, and the spec of every write.
pub fn generate(opts: &LiveOptions, topo: &ShardTopology, pools: &[Vec<Key>]) -> Schedule {
    let mut specs = Vec::new();
    let ops: Vec<ScheduledOp> = (arrivals(opts, topo, pools))
        .map(|Arrival { op, writes }| {
            if let Some(writes) = writes {
                specs.push(ShardTxnSpec { id: op.txn, writes: writes.into() });
            }
            op
        })
        .collect();
    let writes = specs.len();
    Schedule { reads: ops.len() - writes, ops, specs, writes }
}

/// The schedule a live run serves: every operation, and every write's plan
/// routed as the generator yields it. One walk of the generator sizes the
/// schedule and the plan arenas, a second fills them.
pub fn compile(opts: &LiveOptions, topo: &ShardTopology, pools: &[Vec<Key>]) -> Workload {
    let arrivals = arrivals(opts, topo, pools);
    let (mut count, mut writes, mut items) = (0, 0, 0);
    for arrival in arrivals.clone() {
        count += 1;
        if let Some(set) = &arrival.writes {
            writes += 1;
            items += set.as_ref().len();
        }
    }
    let mut ops = Vec::with_capacity(count);
    let txns = arrivals.filter_map(|Arrival { op, writes }| {
        ops.push(op);
        Some((op.txn, writes?))
    });
    let plans = PlanTable::compile_sized(topo.clone(), txns, writes, items);
    Workload { reads: ops.len() - writes, ops, plans, writes }
}

/// The driver thread body: sleeps until each op's scheduled arrival (or
/// injects immediately when behind — open loop, never skipping) and hands
/// it to the target site's mailbox. Client traffic goes straight to the
/// local site, not through the delayed router: the client *is* local to its
/// master. `topo` and `pools` are what the schedule was generated over.
pub fn run_driver(
    ops: &[ScheduledOp],
    topo: &ShardTopology,
    pools: &[Vec<Key>],
    site_txs: Vec<Sender<Inbound<Packet>>>,
    start: Instant,
) {
    for op in ops {
        let due = start + op.at();
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(2)));
        }
        let wire = match op.kind(pools) {
            OpKind::Write => DbMsg::bare(op.txn, CLIENT_XACT),
            OpKind::Read(key) => DbMsg {
                writes: Some(vec![WriteOp { key: key.clone(), value: Value::from_u64(0) }]),
                ..DbMsg::bare(op.txn, CLIENT_READ)
            },
        };
        let target = op.target(topo, pools);
        let _ = site_txs[target.index()]
            .send(Inbound::Deliver { src: target, msg: Packet(vec![wire]) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_ddb::plan::TxnView;

    fn opts() -> LiveOptions {
        let mut o = LiveOptions::small(500.0, Duration::from_millis(400));
        o.cross_shard_fraction = 0.3;
        o
    }

    /// `o`'s topology, key pools and listed schedule.
    fn listed(o: &LiveOptions) -> (ShardTopology, Vec<Vec<Key>>, Schedule) {
        let topo = ShardTopology::uniform(o.sites, o.shards, o.replication);
        let pools = topo.key_pool(o.keys_per_shard);
        let s = generate(o, &topo, &pools);
        (topo, pools, s)
    }

    #[test]
    fn a_scheduled_op_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<ScheduledOp>(), 16);
    }

    #[test]
    fn schedule_is_ordered_and_in_window() {
        let o = opts();
        let (_, _, s) = listed(&o);
        assert!(!s.ops.is_empty());
        assert_eq!(s.writes + s.reads, s.ops.len());
        assert_eq!(s.specs.len(), s.writes);
        for pair in s.ops.windows(2) {
            assert!(pair[0].at() <= pair[1].at(), "arrivals must be sorted");
        }
        assert!(s.ops.last().unwrap().at() < o.duration);
    }

    #[test]
    fn offered_rate_is_roughly_met() {
        let o = opts();
        let (_, _, s) = listed(&o);
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
        let (topo, pools, s) = listed(&o);
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
            let target = op.target(&topo, &pools);
            assert_eq!(target, topo.master(shards[0]), "client talks to the coordinator");
        }
        assert!(cross > 0, "some writes should span shards");
    }

    #[test]
    fn hot_key_skew_concentrates_traffic() {
        let mut o = opts();
        o.skew = KeySkew::HotKey { hot_fraction: 0.8 };
        o.read_fraction = 0.0;
        o.cross_shard_fraction = 0.0;
        let (_, pools, s) = listed(&o);
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
        let (topo, pools, s) = listed(&o);
        let fraction = s.reads as f64 / s.ops.len() as f64;
        assert!((0.25..=0.35).contains(&fraction), "read fraction {fraction} far from 0.3");
        // Every read targets its key's shard master — the site that serves
        // it (lease or shared-lock path), not a synthesized placeholder.
        for op in s.ops.iter() {
            if let OpKind::Read(key) = op.kind(&pools) {
                assert_eq!(op.target(&topo, &pools), topo.master(topo.shard_of(key)));
            }
        }
    }

    #[test]
    fn read_ids_stay_in_their_namespace() {
        let o = opts();
        let (_, pools, s) = listed(&o);
        for op in s.ops.iter() {
            match op.kind(&pools) {
                OpKind::Write => assert!(op.txn.0 < READ_BASE),
                OpKind::Read(_) => assert!(op.txn.0 >= READ_BASE),
            }
        }
    }

    /// What one operation of the retired schedule did.
    #[derive(Debug, Clone)]
    enum RetiredKind {
        Write,
        Read(Key),
    }

    /// One operation of the retired schedule.
    #[derive(Debug, Clone)]
    struct RetiredOp {
        at: Duration,
        txn: TxnId,
        kind: RetiredKind,
        target: SiteId,
    }

    fn pick_key(rng: &mut SmallRng, skew: KeySkew, pool: &[Key]) -> Key {
        let hot = matches!(skew, KeySkew::HotKey { hot_fraction } if uniform01(rng) < hot_fraction);
        if hot {
            pool[0].clone()
        } else {
            pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
        }
    }

    /// The schedule generator before it became an iterator, kept verbatim
    /// but for the names of its types: the oracle [`arrivals`] must match
    /// op for op and spec for spec.
    fn retired_generate(
        opts: &LiveOptions,
        topo: &ShardTopology,
        pools: &[Vec<Key>],
    ) -> (Vec<RetiredOp>, Vec<ShardTxnSpec>) {
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
                ops.push(RetiredOp {
                    at,
                    txn: TxnId(next_read),
                    kind: RetiredKind::Read(key),
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
                ops.push(RetiredOp {
                    at,
                    txn,
                    kind: RetiredKind::Write,
                    target: topo.master(coordinator_shard),
                });
            }
        }

        (ops, specs)
    }

    /// Every setting the oracle is run under: two seeds, reads none, some
    /// and all, cross-shard writes none, some and all, uniform and hot-key
    /// skew, one key per shard to 4096.
    fn settings() -> Vec<LiveOptions> {
        let mut all = Vec::new();
        for seed in [7, 11] {
            for read_fraction in [0.0, 0.2, 1.0] {
                for cross_shard_fraction in [0.0, 0.1, 1.0] {
                    for skew in [KeySkew::Uniform, KeySkew::HotKey { hot_fraction: 0.7 }] {
                        for keys_per_shard in [1, 64, 4096] {
                            let mut o = LiveOptions::small(2_000.0, Duration::from_millis(300));
                            o.seed = seed;
                            o.read_fraction = read_fraction;
                            o.cross_shard_fraction = cross_shard_fraction;
                            o.skew = skew;
                            o.keys_per_shard = keys_per_shard;
                            all.push(o);
                        }
                    }
                }
            }
        }
        all
    }

    #[test]
    fn the_generator_schedules_what_the_retired_loop_scheduled() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let pools: Vec<Vec<Vec<Key>>> = [1, 64, 4096].map(|n| topo.key_pool(n)).into();
        for o in settings() {
            let pools = &pools[[1, 64, 4096].iter().position(|&n| n == o.keys_per_shard).unwrap()];
            let (retired, retired_specs) = retired_generate(&o, &topo, pools);
            let s = generate(&o, &topo, pools);
            assert!(!retired.is_empty(), "{o:?}");
            assert_eq!(s.ops.len(), retired.len(), "{o:?}");
            assert_eq!((s.writes, s.reads), (retired_specs.len(), retired.len() - s.writes));
            for (op, old) in s.ops.iter().zip(&retired) {
                assert_eq!((op.at(), op.txn), (old.at, old.txn), "{o:?}");
                assert_eq!(op.target(&topo, pools), old.target, "{old:?} under {o:?}");
                match (op.kind(pools), &old.kind) {
                    (OpKind::Write, RetiredKind::Write) => {}
                    (OpKind::Read(key), RetiredKind::Read(old_key)) => assert_eq!(key, old_key),
                    (kind, old_kind) => panic!("{kind:?} for {old_kind:?} under {o:?}"),
                }
            }
            assert_eq!(s.specs.len(), retired_specs.len());
            for (spec, old) in s.specs.iter().zip(&retired_specs) {
                assert_eq!((spec.id, &spec.writes), (old.id, &old.writes), "{o:?}");
            }
        }
    }

    /// Everything a plan routes, as comparable values.
    fn routed(plan: TxnView<'_>, sites: u16) -> impl PartialEq + std::fmt::Debug {
        let staged = (0..sites).map(|site| plan.writes_at(SiteId(site)).map(|w| w.to_vec()));
        let ships = (0..sites).map(|site| plan.ships_from(SiteId(site)).to_vec());
        (
            plan.group().to_vec(),
            plan.shards().to_vec(),
            staged.collect::<Vec<_>>(),
            plan.replicas().collect::<Vec<_>>(),
            ships.collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_live_run_compiles_the_plans_of_the_listed_schedule() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let pools: Vec<Vec<Vec<Key>>> = [1, 64, 4096].map(|n| topo.key_pool(n)).into();
        for o in settings() {
            let pools = &pools[[1, 64, 4096].iter().position(|&n| n == o.keys_per_shard).unwrap()];
            let s = generate(&o, &topo, pools);
            let listed = PlanTable::compile(topo.clone(), &s.specs);
            let live = compile(&o, &topo, pools);
            assert_eq!(live.ops, s.ops, "{o:?}");
            assert_eq!((live.writes, live.reads), (s.writes, s.reads));
            assert_eq!(live.plans.iter().count(), listed.iter().count(), "{o:?}");
            for ((id, plan), (listed_id, listed_plan)) in live.plans.iter().zip(listed.iter()) {
                assert_eq!(id, listed_id);
                assert_eq!(routed(plan, 6), routed(listed_plan, 6), "{id} under {o:?}");
            }
        }
    }
}
