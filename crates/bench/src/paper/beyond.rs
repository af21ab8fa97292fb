//! Beyond the paper's model. The paper restricts itself to *simple*
//! (two-group, single-episode) partitioning; these two experiments measure
//! what the other [`ScheduleShape::FAMILIES`] — split→heal→re-split,
//! three-way splits, nested secessions — do to one replica group
//! (`multi_partition`, the `BENCH_schedule.json` record) and to the
//! sharded store one layer up (`shard_availability`).

use super::{say, yes_no, Output};
use crate::record::Obj;
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{TxnId, Value, WriteOp};
use ptp_core::report::Table;
use ptp_core::{
    sweep_threads, sweep_with_threads, ProtocolKind, ScheduleShape, SweepGrid, SweepReport,
};
use ptp_shard::{ShardCluster, ShardRun, ShardTopology, ShardTxnSpec};
use ptp_simnet::{DelayModel, PartitionEngine, ScheduleBuilder, SiteId};
use std::time::Instant;

const N: usize = 4;

/// Protocols worth comparing outside the simple model: the paper's three
/// variants, the blocking baseline and the quorum reference.
const KINDS: [ProtocolKind; 5] = [
    ProtocolKind::Plain2pc,
    ProtocolKind::HuangLi3pc,
    ProtocolKind::HuangLi3pcStatic,
    ProtocolKind::HuangLi4pc,
    ProtocolKind::QuorumMajority,
];

/// One family's grid at n = 4: all simple boundaries × T/4 instants up to
/// 8T × {permanent, heal-after-3T} × three delay schedules, with the shape
/// axis pinned to `shape`. The third delay is the crafted schedule behind
/// the Sec. 2 multiple-partitioning counterexample (slave 2's prepare
/// crosses into its own fragment), so the multi-way family provably
/// contains the paper's own breaking scenario.
pub fn family_grid(shape: ScheduleShape) -> SweepGrid {
    let mut grid = SweepGrid::standard(N).with_shapes(vec![shape]);
    grid.heals = vec![None, Some(3000)];
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Uniform { seed: 11, min: 1, max: 1000 },
        ScheduleBuilder::with_default(1000).outbound(7, 400).build(),
    ];
    grid
}

/// Every protocol swept over every schedule family, tabulated per family:
/// the cost of leaving the paper's model as a number, not an anecdote.
/// Returns the `BENCH_schedule.json` record; each sweep's wall time and the
/// worker count go into the record only, so the text is deterministic.
pub(super) fn multi_partition() -> Output {
    let mut o = Output::default();
    say!(o, "== exp_multi_partition: resilience across partition-schedule families ==");
    say!(
        o,
        "n = {N}, {} scenarios per protocol per family\n",
        family_grid(ScheduleShape::Simple).size()
    );

    let mut table = Table::new(vec![
        "family",
        "protocol",
        "scenarios",
        "all-commit",
        "all-abort",
        "blocked",
        "inconsistent",
        "resilient?",
        "atomic?",
    ]);
    let mut families = Vec::new();
    for shape in ScheduleShape::FAMILIES {
        let grid = family_grid(shape);
        let mut protocols = Vec::new();
        for kind in KINDS {
            let started = Instant::now();
            let r = sweep_with_threads(kind, &grid, sweep_threads());
            let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
            table.row(vec![
                shape.name().to_string(),
                kind.name().to_string(),
                r.total.to_string(),
                r.all_commit.to_string(),
                r.all_abort.to_string(),
                r.blocked_count.to_string(),
                r.inconsistent_count.to_string(),
                yes_no(r.fully_resilient()).into(),
                yes_no(r.fully_atomic()).into(),
            ]);
            if kind == ProtocolKind::HuangLi3pc {
                family_claim(&mut o, shape, &r);
            }
            protocols.push(
                Obj::new()
                    .str("protocol", kind.name())
                    .num("all_commit", r.all_commit)
                    .num("all_abort", r.all_abort)
                    .num("blocked", r.blocked_count)
                    .num("inconsistent", r.inconsistent_count)
                    .num("resilient", r.fully_resilient())
                    .num("atomic", r.fully_atomic())
                    .fixed("wall_ms", wall_ms, 3),
            );
        }
        families.push(
            Obj::new()
                .str("family", shape.name())
                .num("episodes", shape.episode_count())
                .num("scenarios_per_protocol", grid.size())
                .arr("protocols", protocols),
        );
    }
    say!(o, "{}", table.render());
    let record = Obj::new()
        .str("benchmark", "schedule")
        .num("n", N)
        .num("threads", sweep_threads())
        .host()
        .num("protocols", KINDS.len())
        .arr("families", families);
    o.record = Some(("BENCH_schedule.json", record));
    o
}

/// The anchors in the paper's own results: Theorem 9 holds on the simple
/// family, and the multi-way family (which holds the crafted Sec. 2 cell)
/// breaks HL-3PC's atomicity.
fn family_claim(o: &mut Output, shape: ScheduleShape, hl: &SweepReport) {
    let detail = format!("HL-3PC on {}: {}", shape.name(), super::counts(hl));
    match shape {
        ScheduleShape::Simple => o.claim("simple_family_resilient", hl.fully_resilient(), detail),
        ScheduleShape::MultiWay { .. } => {
            o.claim("multi_way_family_breaks_atomicity", !hl.fully_atomic(), detail)
        }
        _ => {}
    }
}

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
/// When the simple split heals in the catch-up section.
const HEAL_AT: u64 = 12_000;
const SYNC_PERIOD: u64 = 3_000;

const PROTOCOLS: [CommitProtocol; 3] =
    [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority];

/// Per-shard availability under every schedule family: a 3-shard ×
/// 2-replica store over six sites runs a mixed single-/cross-shard
/// workload while each family cuts it along G2 = {3, 4, 5}. Availability
/// is the fraction of `(transaction, replica)` slots that reached a
/// decision: 2PC blocks every participant the split catches mid-protocol,
/// HL-3PC terminates both sides of simple splits (losing only slots that
/// outcome shipping cannot reach), quorum commit only quorum-side
/// fragments. The cross-shard columns show the same at the top-level
/// coordinator.
pub(super) fn shard_availability() -> Output {
    let mut o = Output::default();
    say!(o, "== exp_shard_availability: per-shard availability across schedule families ==");
    say!(
        o,
        "{SHARDS} shards x {REPLICATION} replicas over {SITES} sites; every family splits \
         along G2 = {{3, 4, 5}} at t = {SPLIT_AT}\n"
    );
    let topo = ShardTopology::uniform(SITES, SHARDS, REPLICATION);
    for s in 0..SHARDS {
        let group: Vec<u16> = topo.group(s).iter().map(|x| x.0).collect();
        say!(o, "  shard {s}: group {group:?} (master site {})", topo.master(s).0);
    }
    say!(o);

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
    let (mut in_range, mut simple_atomic, mut hl_beats_2pc) = (true, true, true);
    for shape in ScheduleShape::FAMILIES {
        let mut engine = PartitionEngine::always_connected();
        shape.write_schedule(SITES, &G2, SPLIT_AT, None, &mut engine);
        // A replica group is severed when some episode leaves two of its
        // members unable to talk.
        let severed: Vec<usize> = (0..SHARDS)
            .filter(|&s| {
                let group = topo.group(s);
                engine.episodes().iter().any(|e| {
                    group.iter().any(|&a| group.iter().any(|&b| !engine.connected(a, b, e.at)))
                })
            })
            .collect();
        let runs = PROTOCOLS.map(|p| run_store(&topo, p, engine.clone(), None));
        for (protocol, run) in PROTOCOLS.iter().zip(&runs) {
            let atomic = run.metrics.atomicity_violations().is_empty();
            in_range &= run.shards.iter().all(|s| (0.0..=1.0).contains(&s.availability()));
            simple_atomic &= atomic || !shape.is_simple();
            table.row(vec![
                shape.name().to_string(),
                protocol.name().to_string(),
                format!("{:.3}", run.shards[0].availability()),
                format!("{:.3}", run.shards[1].availability()),
                format!("{:.3}", run.shards[2].availability()),
                run.cross_shard.committed.to_string(),
                run.cross_shard.aborted.to_string(),
                run.cross_shard.blocked.to_string(),
                yes_no(atomic).into(),
                format!("{severed:?}"),
            ]);
        }
        // Grounded in the one-group results: on the simple family the
        // paper's protocol decides at least as many slots as blocking 2PC,
        // on every shard (`runs` is in `PROTOCOLS` order).
        if shape.is_simple() {
            let (two_pc, hl) = (&runs[0].shards, &runs[1].shards);
            hl_beats_2pc &=
                hl.iter().zip(two_pc).all(|(h, b)| h.availability() >= b.availability());
        }
    }
    say!(o, "{}", table.render());
    o.claim("availability_in_range", in_range, "every shard of every run in [0, 1]");
    o.claim("simple_split_atomic", simple_atomic, "every protocol on the simple family");
    o.claim("hl3pc_at_least_2pc_on_simple", hl_beats_2pc, "per-shard availability, simple family");

    healed_replica_section(&mut o, &topo);

    say!(o, "Reading the table: a simple split leaves HL-3PC terminating both sides");
    say!(o, "(availability lost only where a stranded replica is out of shipping");
    say!(o, "reach), while 2PC's caught participants block and quorum commit");
    say!(o, "strands minority fragments. The multi-way and nested families leave");
    say!(o, "the paper's model: there the termination protocol itself can decide");
    say!(o, "inconsistently — the atomicity column, measured at shard level.");
    o
}

/// When the simple split **heals**, the stranded sites have missed every
/// decision shipped while they were severed, and commit-time shipping
/// never retries: the anti-entropy chain is the only way those slots get
/// credited after the heal. This section measures exactly that delta.
fn healed_replica_section(o: &mut Output, topo: &ShardTopology) {
    say!(
        o,
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
    let (mut never_lower, mut hl_strict) = (true, false);
    for protocol in PROTOCOLS {
        let mut engine = PartitionEngine::always_connected();
        ScheduleShape::Simple.write_schedule(SITES, &G2, SPLIT_AT, Some(HEAL_AT), &mut engine);
        let off = run_store(topo, protocol, engine.clone(), None);
        let on = run_store(topo, protocol, engine, Some(SYNC_PERIOD));
        for (label, run) in [("off", &off), ("on", &on)] {
            let min = run.shards.iter().map(|s| s.availability()).fold(1.0, f64::min);
            table.row(vec![
                protocol.name().to_string(),
                label.to_string(),
                format!("{:.3}", run.shards[0].availability()),
                format!("{:.3}", run.shards[1].availability()),
                format!("{:.3}", run.shards[2].availability()),
                format!("{min:.3}"),
                yes_no(run.metrics.atomicity_violations().is_empty()).into(),
            ]);
        }
        // The sync chain can only add credited slots, never remove them.
        never_lower &=
            on.shards.iter().zip(&off.shards).all(|(a, b)| a.availability() >= b.availability());
        // Shard 1 is the stranded-replica shard: its master (site 2) kept
        // committing on the coordinator side while its replica (site 3) was
        // severed, so after the heal the chain has real decisions to replay
        // there. (Shard 2's whole group was severed together; no decision
        // exists that anti-entropy could credit.)
        if protocol == CommitProtocol::HuangLi {
            hl_strict = on.shards[1].availability() > off.shards[1].availability();
        }
    }
    say!(o, "{}", table.render());
    say!(o, "Reading the table: with the chain off, slots decided while a replica");
    say!(o, "was severed stay uncredited forever (commit-time shipping never");
    say!(o, "retries). With it on, the first post-heal sync round replays the");
    say!(o, "missed decisions — strictly higher availability under HL-3PC.\n");
    o.claim("anti_entropy_never_lowers_availability", never_lower, "every shard, every protocol");
    o.claim("anti_entropy_lifts_hl3pc_stranded_shard", hl_strict, "shard 1, HL-3PC: on > off");
}

/// One run of the fixed workload on the sharded store under `engine`,
/// with anti-entropy every `sync` ticks when set.
fn run_store(
    topo: &ShardTopology,
    protocol: CommitProtocol,
    engine: PartitionEngine,
    sync: Option<u64>,
) -> ShardRun {
    let mut cluster = ShardCluster::new(topo.clone(), protocol).partition(engine);
    if let Some(period) = sync {
        cluster = cluster.anti_entropy(period);
    }
    for (at, spec) in workload(topo) {
        cluster = cluster.submit(at, spec);
    }
    cluster.run()
}

/// The fixed workload: per shard, three single-shard transactions spread
/// around the split instant, plus one cross-shard transaction per shard
/// pair and one across all three — 13 transactions, every one potentially
/// caught by an episode.
fn workload(topo: &ShardTopology) -> Vec<(u64, ShardTxnSpec)> {
    let pools = topo.key_pool(8);
    let mut out = Vec::new();
    let mut txn = |at: u64, keys: &[(usize, usize)]| {
        let id = out.len() as u32 + 1;
        let writes = keys
            .iter()
            .map(|&(shard, k)| WriteOp {
                key: pools[shard][k].clone(),
                value: Value::from_u64(id as u64),
            })
            .collect();
        out.push((at, ShardTxnSpec { id: TxnId(id), writes }));
    };
    for shard in 0..SHARDS {
        for (j, at) in [0u64, 1600, 6000].into_iter().enumerate() {
            txn(at, &[(shard, j)]);
        }
    }
    for (a, b) in [(0usize, 1usize), (1, 2), (0, 2)] {
        txn(1500, &[(a, 4), (b, 4)]);
    }
    txn(5500, &[(0, 5), (1, 5), (2, 5)]);
    out
}
