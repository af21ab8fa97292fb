//! The read-path claim: local reads beat the commit round by ≥ 5×.
//!
//! The benchmark's `sim_shard` workload prices the sharded store as a
//! whole; this emitter pins the one ratio that justifies the elastic read
//! path. A 3-shard × 2-replica topology over six sites serves a 960-read
//! workload three ways (large enough that per-read cost, not
//! cluster setup, dominates the wall time) —
//!
//! * `lease` — master leases armed, single-shard reads served on the
//!   lock-free lease fast path;
//! * `lock_local` — no leases, single-shard reads served at the master
//!   under shared locks, still with no protocol round;
//! * `protocol` — cross-shard reads driven through a top-level commit
//!   round over the involved masters.
//!
//! Writes `BENCH_read.json`. The committed record must show the local
//! paths (lease and lock-local) at **≥ 5×** the throughput of the
//! commit-round path on the same topology — the number that justifies
//! routing single-shard reads around the protocol in the first place.
//!
//! `BENCH_BUDGET_MS` caps the per-measurement sampling time.

use ptp_bench::record::Obj;
use ptp_bench::{bench_budget_ms, median_of};
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{TxnId, Value, WriteOp};
use ptp_core::report::Table;
use ptp_shard::{ShardCluster, ShardReadSpec, ShardRun, ShardTopology, ShardTxnSpec};
use std::time::Instant;

const SITES: usize = 6;
const SHARDS: usize = 3;
const REPLICATION: usize = 2;
const READS: u32 = 960;
/// Read ids start above every write id (the plan layer requires disjoint
/// namespaces).
const READ_BASE: u32 = 10_000;
/// First read instant: late enough for the seeding writes to commit and
/// the first lease renewal round to arm every grant.
const READS_FROM: u64 = 8_000;
/// Tight spacing: reads take shared locks only (every write commits before
/// `READS_FROM`), so overlapping rounds cannot conflict — and the whole
/// schedule must finish inside the simulator's 200k-tick horizon.
const SUBMIT_SPACING: u64 = 150;
const REPEATS: usize = 4;
const MAX_ROUNDS: usize = 41;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Lease,
    LockLocal,
    Protocol,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Lease => "lease",
            Mode::LockLocal => "lock_local",
            Mode::Protocol => "protocol",
        }
    }
}

fn topology() -> ShardTopology {
    ShardTopology::uniform(SITES, SHARDS, REPLICATION)
}

/// Seeds one committed write per shard so every read observes data, then
/// the read workload: single-shard reads cycling an 8-key pool for the
/// local modes, all-shard reads (a full commit round over every master)
/// for the protocol mode.
fn build(mode: Mode) -> ShardCluster {
    let topo = topology();
    let pools = topo.key_pool(8);
    let mut cluster = ShardCluster::new(topo, CommitProtocol::HuangLi);
    for (shard, pool) in pools.iter().enumerate().take(SHARDS) {
        cluster = cluster.submit(
            (shard as u64) * 500,
            ShardTxnSpec {
                id: TxnId(shard as u32 + 1),
                writes: (0..8)
                    .map(|k| WriteOp {
                        key: pool[k].clone(),
                        value: Value::from_u64((shard * 8 + k) as u64),
                    })
                    .collect(),
            },
        );
    }
    if mode == Mode::Lease {
        cluster = cluster.leases(2_000, 6_500);
    }
    for i in 0..READS {
        let shard = i as usize % SHARDS;
        let mut keys = vec![pools[shard][(i as usize * 7) % 8].clone()];
        if mode == Mode::Protocol {
            for step in 1..SHARDS {
                let other = (shard + step) % SHARDS;
                keys.push(pools[other][(i as usize * 5) % 8].clone());
            }
        }
        cluster = cluster.submit_read(
            READS_FROM + i as u64 * SUBMIT_SPACING,
            ShardReadSpec { id: TxnId(READ_BASE + i), keys },
        );
    }
    cluster
}

/// One timed observation: `REPEATS` consecutive executions under one clock
/// read (less timer/scheduler jitter than timing runs individually).
fn run_block(mode: Mode) -> (f64, ShardRun) {
    let clusters: Vec<ShardCluster> = (0..REPEATS).map(|_| build(mode)).collect();
    let mut last = None;
    let round = Instant::now();
    for cluster in clusters {
        last = Some(cluster.run());
    }
    let wall = round.elapsed().as_secs_f64() * 1000.0 / REPEATS as f64;
    let run = last.expect("at least one repeat");
    let reads = &run.reads;
    assert_eq!(reads.submitted, READS as usize, "{}: every read must be submitted", mode.name());
    assert_eq!(
        reads.served() + reads.aborted,
        READS as usize,
        "{}: reads left behind",
        mode.name()
    );
    match mode {
        // The fast path carries the bulk; reads that land before the first
        // renewal round arms fall back to the lock path, never the protocol.
        Mode::Lease => {
            assert!(reads.lease * 2 > READS as usize, "lease path barely used: {reads:?}");
            assert_eq!(reads.protocol, 0, "single-shard read took a protocol round: {reads:?}");
        }
        Mode::LockLocal => assert_eq!(reads.lock_local, READS as usize, "{reads:?}"),
        Mode::Protocol => {
            assert_eq!(reads.lease + reads.lock_local, 0, "cross-shard read served locally");
            assert!(reads.protocol * 10 >= READS as usize * 9, "protocol reads lost: {reads:?}");
        }
    }
    (wall, run)
}

fn sample(mode: Mode, budget_ms: u64) -> (f64, ShardRun) {
    let _ = run_block(mode); // warmup
    let mut walls = Vec::new();
    let started = Instant::now();
    let mut last = None;
    while walls.is_empty()
        || (walls.len() < MAX_ROUNDS && started.elapsed().as_millis() < budget_ms as u128)
    {
        let (wall, run) = run_block(mode);
        walls.push(wall);
        last = Some(run);
    }
    (median_of(&mut walls), last.expect("at least one round"))
}

struct Measurement {
    mode: Mode,
    wall_ms: f64,
    run: ShardRun,
}

impl Measurement {
    fn reads_per_sec(&self) -> f64 {
        READS as f64 * 1000.0 / self.wall_ms.max(f64::MIN_POSITIVE)
    }
}

fn record(measurements: &[Measurement], speedups: &[(String, f64)]) -> Obj {
    let paths = measurements.iter().map(|m| {
        let r = &m.run.reads;
        Obj::new()
            .str("path", m.mode.name())
            .fixed("wall_ms", m.wall_ms, 3)
            .fixed("reads_per_sec", m.reads_per_sec(), 1)
            .num("served_lease", r.lease)
            .num("served_lock_local", r.lock_local)
            .num("served_protocol", r.protocol)
            .num("aborted", r.aborted)
            .num("blocked", r.blocked)
    });
    Obj::new()
        .str("benchmark", "shard_read_throughput")
        .host()
        .num("sites", SITES)
        .num("shards", SHARDS)
        .num("replication", REPLICATION)
        .num("reads", READS)
        .arr("paths", paths)
        .obj(
            "speedup_vs_protocol",
            speedups.iter().fold(Obj::new(), |o, (name, x)| o.fixed(name, *x, 2)),
        )
}

fn main() {
    let budget_ms = bench_budget_ms(2_000);
    println!(
        "== bench_read: {READS}-read workload per path, {SHARDS} shards x {REPLICATION} \
         replicas over {SITES} sites =="
    );
    println!("budget {budget_ms} ms per measurement\n");

    let measurements: Vec<Measurement> = [Mode::Lease, Mode::LockLocal, Mode::Protocol]
        .into_iter()
        .map(|mode| {
            let (wall_ms, run) = sample(mode, budget_ms);
            Measurement { mode, wall_ms, run }
        })
        .collect();

    let protocol_rps = measurements
        .iter()
        .find(|m| m.mode == Mode::Protocol)
        .expect("protocol path measured")
        .reads_per_sec();
    let speedups: Vec<(String, f64)> = measurements
        .iter()
        .filter(|m| m.mode != Mode::Protocol)
        .map(|m| (m.mode.name().to_string(), m.reads_per_sec() / protocol_rps))
        .collect();

    let mut table = Table::new(vec![
        "path",
        "wall ms",
        "reads/s",
        "lease",
        "lock-local",
        "protocol",
        "x vs protocol",
    ]);
    for m in &measurements {
        let x = speedups
            .iter()
            .find(|(name, _)| name == m.mode.name())
            .map(|(_, x)| format!("{x:.1}x"))
            .unwrap_or_else(|| "1.0x".into());
        table.row(vec![
            m.mode.name().to_string(),
            format!("{:.1}", m.wall_ms),
            format!("{:.0}", m.reads_per_sec()),
            m.run.reads.lease.to_string(),
            m.run.reads.lock_local.to_string(),
            m.run.reads.protocol.to_string(),
            x,
        ]);
    }
    println!("{}", table.render());

    for (name, x) in &speedups {
        assert!(
            *x >= 5.0,
            "{name} path only {x:.1}x the protocol path — the local read paths must \
             clear 5x to justify routing around the commit round"
        );
    }
    println!("local read paths clear the 5x bar over the commit-round path");

    record(&measurements, &speedups).write("BENCH_read.json");
}
