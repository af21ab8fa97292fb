//! The store that serves, under the two claims its committed records pin:
//! seeded chaos campaigns stay green against the Huang–Li protocol while
//! plain 2PC's counterexample shrinks (`campaign`, `BENCH_campaign.json`),
//! and single-shard reads served locally cost a fraction of the commit
//! round (`read_paths`, `BENCH_read.json`).
//!
//! Both claims are counts: timelines judged, faults found, reads served per
//! path, simulator events dispatched. Wall times go into the records only,
//! as context; how fast anything is, is the frozen benchmark's business.

use super::{say, Output};
use crate::record::Obj;
use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::value::{TxnId, Value, WriteOp};
use ptp_core::report::Table;
use ptp_core::{Campaign, CampaignConfig, CampaignReport, ProtocolKind, Timeline};
use ptp_shard::{ReadReport, ShardCluster, ShardReadSpec, ShardRun, ShardTopology, ShardTxnSpec};
use std::time::Instant;

/// Runs `f` and returns its value and its wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1000.0)
}

/// Items per second of wall time, for a record.
fn per_sec(count: usize, wall_ms: f64) -> f64 {
    count as f64 * 1000.0 / wall_ms.max(f64::MIN_POSITIVE)
}

const PROTOCOL: ProtocolKind = ProtocolKind::HuangLi3pc;
const SEED: u64 = 0xBE_2026;
const FLAT_TIMELINES: usize = 10_000;
const PLANNED_TIMELINES: usize = 200;
const SHRINK_TIMELINES: usize = 40;

/// A green campaign's claim detail: how many timelines stand behind it, and
/// the first failure if there is one.
fn green(report: &CampaignReport) -> String {
    match report.failures.first() {
        None => format!("{} timelines, none failed", report.executed),
        Some(f) => format!(
            "{} of {} timelines failed; first: {}",
            report.failures.len(),
            report.executed,
            f.message
        ),
    }
}

/// Seeded chaos campaigns of scenario timelines against HL-3PC — every one
/// must audit green, first on the flat protocol cluster, then on the
/// sharded store `Campaign::run_planned` serves (3 × 2, crashes armed too:
/// atomicity, read history, convergence, leaked locks) — and then plain
/// 2PC under the resilience audit, the paper's own motivating failure,
/// whose first counterexample must shrink.
pub(super) fn campaign() -> Output {
    let mut o = Output::default();
    say!(o, "== campaign: seeded chaos campaigns, fixed timeline counts, seed {SEED:#x} ==");
    say!(o, "safe family (partitions + degrades + duplicates) at n = 4, then with non-master");
    say!(o, "crashes on the 3 x 2 sharded store; then 2PC under the resilience audit\n");

    let (flat, flat_ms) =
        timed(|| Campaign::new(CampaignConfig::safe(PROTOCOL, 4, FLAT_TIMELINES, SEED)).run());
    let topology = ShardTopology::uniform(6, 3, 2);
    let mut config = CampaignConfig::safe(PROTOCOL, 6, PLANNED_TIMELINES, SEED);
    config.crashes = true;
    let (planned, planned_ms) =
        timed(|| Campaign::new(config).run_planned(&topology, CommitProtocol::HuangLi));
    let (shrink, shrink_ms) = timed(|| {
        let config = CampaignConfig::safe(ProtocolKind::Plain2pc, 4, SHRINK_TIMELINES, SEED);
        Campaign::new(config).run_with(|result| {
            let verdict = &result.verdict;
            (!verdict.is_resilient()).then(|| format!("2PC not resilient: {verdict:?}"))
        })
    });

    let mut table = Table::new(vec!["phase", "timelines", "faults"]);
    let phases = [
        (format!("green ({})", PROTOCOL.name()), &flat),
        (format!("green ({}, sharded store 3x2)", PROTOCOL.name()), &planned),
        ("shrink (2PC, resilience audit)".to_string(), &shrink),
    ];
    for (phase, report) in phases {
        table.row(vec![phase, report.executed.to_string(), report.faults_found().to_string()]);
    }
    say!(o, "{}", table.render());
    o.claim("flat_campaign_green", flat.all_green(), green(&flat));
    o.claim("sharded_campaign_green", planned.all_green(), green(&planned));

    let weight = |t: &Timeline| t.events.len() + t.env_faults.len();
    let steps: usize = shrink.failures.iter().map(|f| f.shrink_steps).sum();
    let tested: usize = shrink.failures.iter().map(|f| f.shrink_tested).sum();
    let (original, minimal) =
        shrink.failures.first().map_or((0, 0), |f| (weight(&f.original), weight(&f.minimal)));
    o.claim(
        "2pc_blocks_under_some_partition",
        !shrink.all_green(),
        format!("{} of {} timelines (Sec. 2 of the paper)", shrink.faults_found(), shrink.executed),
    );
    o.claim(
        "shrinking_never_grows_a_counterexample",
        minimal <= original,
        format!("first counterexample {original} -> {minimal} fault events"),
    );
    if let Some(first) = shrink.failures.first() {
        say!(o, "first counterexample shrank {original} -> {minimal} fault events over {steps}");
        say!(o, "accepted step(s) ({tested} candidates executed); minimal timeline +");
        say!(o, "flight-recorder tail:");
        say!(o, "{}", first.render());
    }

    let record = Obj::new()
        .str("benchmark", "campaign")
        .str("protocol", PROTOCOL.name())
        .host()
        .num("green_timelines", flat.executed)
        .fixed("green_wall_ms", flat_ms, 3)
        .fixed("timelines_per_sec", per_sec(flat.executed, flat_ms), 1)
        .obj(
            "sharded",
            Obj::new()
                .str("topology", "uniform(6, 3, 2)")
                .num("timelines", planned.executed)
                .fixed("timelines_per_sec", per_sec(planned.executed, planned_ms), 1),
        )
        .obj(
            "shrink_demo",
            Obj::new()
                .str("protocol", ProtocolKind::Plain2pc.name())
                .num("timelines", shrink.executed)
                .num("faults_found", shrink.faults_found())
                .num("shrink_steps", steps)
                .num("shrink_candidates_tested", tested)
                .num("first_original_weight", original)
                .num("first_minimal_weight", minimal)
                .fixed("wall_ms", shrink_ms, 3),
        );
    o.record = Some(("BENCH_campaign.json", record));
    o
}

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

/// The three ways the store serves a read.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Master leases armed: single-shard reads on the lock-free fast path.
    Lease,
    /// No leases: single-shard reads at the master under shared locks,
    /// still with no protocol round.
    LockLocal,
    /// Cross-shard reads through a top-level commit round over the
    /// involved masters.
    Protocol,
}

impl Path {
    fn name(self) -> &'static str {
        match self {
            Path::Lease => "lease",
            Path::LockLocal => "lock_local",
            Path::Protocol => "protocol",
        }
    }

    /// Whether `reads` went the way this path serves them, as a claim.
    /// Lease reads that land before the first renewal round arms fall back
    /// to the lock path, never the protocol.
    fn claim(self, reads: &ReadReport) -> (&'static str, bool) {
        let all = READS as usize;
        match self {
            Path::Lease => {
                ("lease_path_carries_the_bulk", reads.lease * 2 > all && reads.protocol == 0)
            }
            Path::LockLocal => ("lock_local_path_serves_every_read", reads.lock_local == all),
            Path::Protocol => (
                "cross_shard_reads_take_the_commit_round",
                reads.lease + reads.lock_local == 0 && reads.protocol * 10 >= all * 9,
            ),
        }
    }

    /// The claim that the commit round costs this local path's work ≥ 5×
    /// over (none for the commit round itself).
    fn bar(self) -> Option<&'static str> {
        match self {
            Path::Lease => Some("commit_round_costs_5x_a_lease_read"),
            Path::LockLocal => Some("commit_round_costs_5x_a_lock_local_read"),
            Path::Protocol => None,
        }
    }

    /// One committed write per shard so every read observes data, then
    /// the read workload: single-shard reads cycling an 8-key pool for the
    /// local paths, all-shard reads (a full commit round over every master)
    /// for the protocol path.
    fn cluster(self) -> ShardCluster {
        let topo = ShardTopology::uniform(SITES, SHARDS, REPLICATION);
        let pools = topo.key_pool(8);
        let mut cluster = ShardCluster::new(topo, CommitProtocol::HuangLi);
        for (shard, pool) in pools.iter().enumerate().take(SHARDS) {
            let writes = (0..8)
                .map(|k| WriteOp {
                    key: pool[k].clone(),
                    value: Value::from_u64((shard * 8 + k) as u64),
                })
                .collect();
            cluster = cluster
                .submit(shard as u64 * 500, ShardTxnSpec { id: TxnId(shard as u32 + 1), writes });
        }
        if self == Path::Lease {
            cluster = cluster.leases(2_000, 6_500);
        }
        for i in 0..READS {
            let shard = i as usize % SHARDS;
            let mut keys = vec![pools[shard][(i as usize * 7) % 8].clone()];
            if self == Path::Protocol {
                for step in 1..SHARDS {
                    keys.push(pools[(shard + step) % SHARDS][(i as usize * 5) % 8].clone());
                }
            }
            let spec = ShardReadSpec { id: TxnId(READ_BASE + i), keys };
            cluster = cluster.submit_read(READS_FROM + i as u64 * SUBMIT_SPACING, spec);
        }
        cluster
    }
}

/// A 3-shard × 2-replica store over six sites serves a 960-read workload
/// three ways. The claim that justifies routing single-shard reads around
/// the protocol: the commit-round path dispatches **≥ 5×** the simulator
/// events per read of each local path, on the same topology.
pub(super) fn read_paths() -> Output {
    let mut o = Output::default();
    say!(o, "== read_paths: a {READS}-read workload per path ==");
    say!(
        o,
        "{SHARDS} shards x {REPLICATION} replicas over {SITES} sites; work is simulator events"
    );
    say!(o, "dispatched per run (the seeding writes included)\n");

    let runs: Vec<(Path, ShardRun, f64)> = [Path::Lease, Path::LockLocal, Path::Protocol]
        .into_iter()
        .map(|path| {
            let cluster = path.cluster();
            let (run, wall_ms) = timed(|| cluster.run());
            (path, run, wall_ms)
        })
        .collect();
    let per_read = |run: &ShardRun| run.report.events as f64 / READS as f64;
    let protocol = per_read(&runs[2].1);

    let mut table = Table::new(vec![
        "path",
        "lease",
        "lock-local",
        "protocol",
        "aborted",
        "blocked",
        "events",
        "events/read",
        "x vs protocol",
    ]);
    let mut left_behind = Vec::new();
    let mut paths = Vec::new();
    let (mut event_ratios, mut speedups) = (Obj::new(), Obj::new());
    let protocol_wall = runs[2].2;
    for (path, run, wall_ms) in &runs {
        let (path, r) = (*path, &run.reads);
        let ratio = protocol / per_read(run);
        table.row(vec![
            path.name().to_string(),
            r.lease.to_string(),
            r.lock_local.to_string(),
            r.protocol.to_string(),
            r.aborted.to_string(),
            r.blocked.to_string(),
            run.report.events.to_string(),
            format!("{:.2}", per_read(run)),
            format!("{ratio:.2}x"),
        ]);
        let (name, holds) = path.claim(r);
        o.claim(name, holds, format!("{r:?}"));
        if r.submitted != READS as usize || r.served() + r.aborted != READS as usize {
            left_behind.push(path.name());
        }
        if let Some(name) = path.bar() {
            let detail =
                format!("{protocol:.2} against {:.2} events per read: {ratio:.2}x", per_read(run));
            o.claim(name, ratio >= 5.0, detail);
            event_ratios = event_ratios.fixed(path.name(), ratio, 2);
            speedups =
                speedups.fixed(path.name(), protocol_wall / wall_ms.max(f64::MIN_POSITIVE), 2);
        }
        paths.push(
            Obj::new()
                .str("path", path.name())
                .num("events", run.report.events)
                .fixed("wall_ms", *wall_ms, 3)
                .fixed("reads_per_sec", per_sec(READS as usize, *wall_ms), 1)
                .num("served_lease", r.lease)
                .num("served_lock_local", r.lock_local)
                .num("served_protocol", r.protocol)
                .num("aborted", r.aborted)
                .num("blocked", r.blocked),
        );
    }
    say!(o, "{}", table.render());
    o.claim(
        "no_read_left_behind",
        left_behind.is_empty(),
        format!("every path submitted {READS} and served or aborted each; short: {left_behind:?}"),
    );

    let record = Obj::new()
        .str("benchmark", "shard_read_throughput")
        .host()
        .num("sites", SITES)
        .num("shards", SHARDS)
        .num("replication", REPLICATION)
        .num("reads", READS)
        .arr("paths", paths)
        .obj("events_ratio_vs_protocol", event_ratios)
        .obj("speedup_vs_protocol", speedups);
    o.record = Some(("BENCH_read.json", record));
    o
}
