//! Shard-level availability under partition-schedule families.
//!
//! `exp_multi_partition` measured what schedule families beyond the paper's
//! model do to a *single* replica group; this experiment asks the same
//! question one structural layer up, on the sharded store: a 3-shard ×
//! 2-replica cluster over six sites runs a mixed single-/cross-shard
//! workload while each [`ScheduleShape`] family cuts the cluster along a
//! boundary that strands shard 1's replica and all of shard 2. Per-shard
//! **availability** — the fraction of `(transaction, replica)` slots that
//! reached a decision — then quantifies, protocol by protocol, how much of
//! the store each failure family takes offline:
//!
//! * 2PC blocks every participant the split catches mid-protocol;
//! * HL-3PC terminates both sides of simple splits (availability lost only
//!   where outcome shipping cannot reach a stranded replica);
//! * quorum commit terminates only quorum-side fragments.
//!
//! The cross-shard columns show the same comparison at the top-level
//! coordinator: a split severing two shards' groups is terminated — or
//! measurably blocked — by the paper's protocol one layer up.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{TxnId, Value, WriteOp};
use ptp_core::report::Table;
use ptp_core::ScheduleShape;
use ptp_shard::{ShardCluster, ShardRun, ShardTopology, ShardTxnSpec};
use ptp_simnet::{PartitionEngine, SiteId};

const SITES: usize = 6;
const SHARDS: usize = 3;
const REPLICATION: usize = 2;
/// The boundary every family derives its schedule from: G2 = {3, 4, 5}
/// strands shard 1's replica (site 3) from its master and cuts shard 2's
/// whole group away from the coordinator side.
const G2: [SiteId; 3] = [SiteId(3), SiteId(4), SiteId(5)];
/// Split instant: top-level prepares are in flight (the paper's worst
/// window, scaled to this workload).
const SPLIT_AT: u64 = 2000;

const PROTOCOLS: [CommitProtocol; 3] =
    [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority];

fn topology() -> ShardTopology {
    ShardTopology::uniform(SITES, SHARDS, REPLICATION)
}

/// The fixed workload: per shard, three single-shard transactions spread
/// around the split instant, plus one cross-shard transaction per shard
/// pair in the same window — 13 transactions, every one potentially caught
/// by an episode.
fn workload(topo: &ShardTopology) -> Vec<(u64, ShardTxnSpec)> {
    let pools = topo.key_pool(8);
    let mut out = Vec::new();
    let mut id = 1u32;
    for pool in pools.iter().take(SHARDS) {
        for (j, at) in [0u64, 1600, 6000].into_iter().enumerate() {
            out.push((
                at,
                ShardTxnSpec {
                    id: TxnId(id),
                    writes: vec![WriteOp {
                        key: pool[j].clone(),
                        value: Value::from_u64(id as u64),
                    }],
                },
            ));
            id += 1;
        }
    }
    for (a, b) in [(0usize, 1usize), (1, 2), (0, 2)] {
        out.push((
            1500,
            ShardTxnSpec {
                id: TxnId(id),
                writes: vec![
                    WriteOp { key: pools[a][4].clone(), value: Value::from_u64(id as u64) },
                    WriteOp { key: pools[b][4].clone(), value: Value::from_u64(id as u64) },
                ],
            },
        ));
        id += 1;
    }
    out.push((
        5500,
        ShardTxnSpec {
            id: TxnId(id),
            writes: vec![
                WriteOp { key: pools[0][5].clone(), value: Value::from_u64(id as u64) },
                WriteOp { key: pools[1][5].clone(), value: Value::from_u64(id as u64) },
                WriteOp { key: pools[2][5].clone(), value: Value::from_u64(id as u64) },
            ],
        },
    ));
    out
}

/// Derives the family's concrete partition engine from the shared boundary.
fn engine_for(shape: ScheduleShape) -> PartitionEngine {
    let mut engine = PartitionEngine::always_connected();
    shape.write_schedule(SITES, &G2, SPLIT_AT, None, &mut engine);
    engine
}

fn run_cell(shape: ScheduleShape, protocol: CommitProtocol) -> ShardRun {
    let topo = topology();
    let mut cluster = ShardCluster::new(topo.clone(), protocol).partition(engine_for(shape));
    for (at, spec) in workload(&topo) {
        cluster = cluster.submit(at, spec);
    }
    cluster.run()
}

/// When the simple split **heals**: the stranded sites missed every
/// decision shipped while they were severed, and commit-time shipping
/// never retries. The anti-entropy chain is the only way those slots get
/// credited after the heal — this section measures exactly that delta.
const HEAL_AT: u64 = 12_000;
const SYNC_PERIOD: u64 = 3_000;

fn run_healed(protocol: CommitProtocol, anti_entropy: bool) -> ShardRun {
    let topo = topology();
    let mut engine = PartitionEngine::always_connected();
    ScheduleShape::Simple.write_schedule(SITES, &G2, SPLIT_AT, Some(HEAL_AT), &mut engine);
    let mut cluster = ShardCluster::new(topo.clone(), protocol).partition(engine);
    if anti_entropy {
        cluster = cluster.anti_entropy(SYNC_PERIOD);
    }
    for (at, spec) in workload(&topo) {
        cluster = cluster.submit(at, spec);
    }
    cluster.run()
}

fn healed_replica_section() {
    println!(
        "== healed-replica catch-up: simple split heals at t = {HEAL_AT}, \
         anti-entropy off vs on (period {SYNC_PERIOD}) =="
    );
    let mut table = Table::new(vec![
        "protocol",
        "anti-entropy",
        "avail s0",
        "avail s1",
        "avail s2",
        "min avail",
        "atomic?",
    ]);
    for protocol in PROTOCOLS {
        let off = run_healed(protocol, false);
        let on = run_healed(protocol, true);
        for (label, run) in [("off", &off), ("on", &on)] {
            let min = run.shards.iter().map(|s| s.availability()).fold(1.0, f64::min);
            table.row(vec![
                protocol.name().to_string(),
                label.to_string(),
                format!("{:.3}", run.shards[0].availability()),
                format!("{:.3}", run.shards[1].availability()),
                format!("{:.3}", run.shards[2].availability()),
                format!("{min:.3}"),
                if run.metrics.atomicity_violations().is_empty() {
                    "YES".into()
                } else {
                    "no".into()
                },
            ]);
        }
        // The sync chain can only add credited slots, never remove them.
        for (shard_on, shard_off) in on.shards.iter().zip(&off.shards) {
            assert!(
                shard_on.availability() >= shard_off.availability(),
                "{}: anti-entropy lowered shard {} availability ({:.3} -> {:.3})",
                protocol.name(),
                shard_off.shard,
                shard_off.availability(),
                shard_on.availability()
            );
        }
        // Shard 1 is the stranded-replica shard: its master (site 2) kept
        // committing on the coordinator side while its replica (site 3)
        // was severed, so after the heal the sync chain has real decisions
        // to replay there. Under the paper's protocol the improvement must
        // be strict — the committed acceptance anchor of the read-path PR.
        // (Shard 2's whole group was severed together; no decision exists
        // that anti-entropy could credit, so it is not the yardstick.)
        if protocol == CommitProtocol::HuangLi {
            let (a_on, a_off) = (on.shards[1].availability(), off.shards[1].availability());
            assert!(
                a_on > a_off,
                "HL-3PC: healed-replica availability must strictly improve with \
                 anti-entropy on ({a_off:.3} -> {a_on:.3})"
            );
        }
    }
    println!("{}", table.render());
    println!("Reading the table: with the chain off, slots decided while a replica");
    println!("was severed stay uncredited forever (commit-time shipping never");
    println!("retries). With it on, the first post-heal sync round replays the");
    println!("missed decisions — strictly higher availability under HL-3PC.\n");
}

fn main() {
    println!("== exp_shard_availability: per-shard availability across schedule families ==");
    println!(
        "{SHARDS} shards x {REPLICATION} replicas over {SITES} sites; every family splits \
         along G2 = {{3, 4, 5}} at t = {SPLIT_AT}\n"
    );

    let topo = topology();
    for s in 0..SHARDS {
        println!(
            "  shard {s}: group {:?} (master site {})",
            topo.group(s).iter().map(|x| x.0).collect::<Vec<_>>(),
            topo.master(s).0
        );
    }
    println!();

    let mut table = Table::new(vec![
        "family",
        "protocol",
        "avail s0",
        "avail s1",
        "avail s2",
        "x-committed",
        "x-aborted",
        "x-blocked",
        "atomic?",
        "severed groups",
    ]);

    for shape in ScheduleShape::FAMILIES {
        // A replica group is severed when some episode leaves two of its
        // members unable to talk.
        let engine = engine_for(shape);
        let severed: Vec<usize> = (0..SHARDS)
            .filter(|&s| {
                let group = topo.group(s);
                engine.episodes().iter().any(|e| {
                    group.iter().any(|&a| group.iter().any(|&b| !engine.connected(a, b, e.at)))
                })
            })
            .collect();
        // One run per (family, protocol) cell; the sanity anchors below
        // reuse these instead of re-simulating.
        let runs: Vec<(CommitProtocol, ShardRun)> =
            PROTOCOLS.iter().map(|&protocol| (protocol, run_cell(shape, protocol))).collect();
        for (protocol, run) in &runs {
            let atomic = run.metrics.atomicity_violations().is_empty();
            for shard in &run.shards {
                let a = shard.availability();
                assert!((0.0..=1.0).contains(&a), "availability out of range: {shard:?}");
            }
            table.row(vec![
                shape.name().to_string(),
                protocol.name().to_string(),
                format!("{:.3}", run.shards[0].availability()),
                format!("{:.3}", run.shards[1].availability()),
                format!("{:.3}", run.shards[2].availability()),
                run.cross_shard.committed.to_string(),
                run.cross_shard.aborted.to_string(),
                run.cross_shard.blocked.to_string(),
                if atomic { "YES".into() } else { "no".into() },
                format!("{severed:?}"),
            ]);
            if shape.is_simple() {
                assert!(atomic, "{}: simple split broke atomicity", protocol.name());
            }
        }

        // Sanity anchor grounded in the layer-one results: on the simple
        // family the paper's protocol must decide at least as many
        // (txn, replica) slots as blocking 2PC on every shard.
        if shape.is_simple() {
            let shards_of = |p: CommitProtocol| {
                &runs.iter().find(|(q, _)| *q == p).expect("protocol ran").1.shards
            };
            let (hl_shards, base_shards) =
                (shards_of(CommitProtocol::HuangLi), shards_of(CommitProtocol::TwoPhase));
            for (hl, base) in hl_shards.iter().zip(base_shards) {
                assert!(
                    hl.availability() >= base.availability(),
                    "shard {}: HL-3PC ({:.3}) below 2PC ({:.3})",
                    hl.shard,
                    hl.availability(),
                    base.availability()
                );
            }
        }
    }
    println!("{}", table.render());

    healed_replica_section();

    println!("Reading the table: a simple split leaves HL-3PC terminating both sides");
    println!("(availability lost only where a stranded replica is out of shipping");
    println!("reach), while 2PC's caught participants block and quorum commit");
    println!("strands minority fragments. The multi-way and nested families leave");
    println!("the paper's model: there the termination protocol itself can decide");
    println!("inconsistently — the atomicity column, measured at shard level.");
}
