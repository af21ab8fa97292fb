//! `sim_shard` — the sharded, replicated store under the deterministic
//! clock, as a closed loop on one thread.
//!
//! One pass runs 40 seeded workload variants under each of 2PC, HL-3PC and
//! Quorum on 3 shards × 2 replicas over 6 sites: 400 writes (every fourth
//! cross-shard) beside 400 single-key reads, master leases and anti-entropy
//! on, and one transient partition that isolates one replica mid-run.
//! `ddb` storage/WAL/locks and `shard` planning/leases/sync do most of the
//! work; the live stack does none.

use crate::ladder::{self, PROTOCOLS};
use crate::measure::{exact_quantile, fnv, median, pick, rng_for, PassClock, FNV_OFFSET};
use crate::report::Report;
use crate::spans::Tracer;
use ptp_core::model::Decision;
use ptp_ddb::cluster::CommitProtocol;
use ptp_ddb::site::ReadPath;
use ptp_ddb::value::{TxnId, Value, WriteOp};
use ptp_shard::{ShardCluster, ShardReadSpec, ShardRun, ShardTopology, ShardTxnSpec, TxnPlan};
use ptp_simnet::{DelayModel, PartitionEngine, PartitionSpec, SimTime, SiteId, TraceEvent};
use std::time::Instant;

const SITES: usize = 6;
const SHARDS: usize = 3;
const REPLICATION: usize = 2;
const KEYS_PER_SHARD: usize = 64;
const VARIANTS: usize = 40;
const WRITES: u32 = 400;
const READS: u32 = 400;
/// Read ids sit above every write id (the plan layer wants them disjoint).
const READ_BASE: u32 = 10_000;
/// One write and one read per 400 ticks: the last submission lands at tick
/// 160 000, inside the simulator's 200 000-tick horizon.
const SPACING: u64 = 400;
const HEAL_AT: u64 = 90_000;
/// Index of HL-3PC, the nonblocking protocol, in [`PROTOCOLS`].
const HL: usize = 1;
const MIN_PASSES: usize = 5;
/// Calibration-kernel runs after each `ShardCluster` run (≈ 5.5 ms), so the
/// kernel samples the machine's speed for about a twelfth of a pass.
const KERNELS_PER_RUN: usize = 4;

/// One seeded workload variant, protocol-independent.
struct Variant {
    writes: Vec<(u64, ShardTxnSpec)>,
    /// The coordinating master of each write, in `writes` order.
    masters: Vec<SiteId>,
    reads: Vec<(u64, ShardReadSpec)>,
    /// The replica the partition isolates, and when.
    isolated: SiteId,
    cut_at: u64,
    /// Message delays are uniform over 0.4 T..=T from this stream (the same
    /// mean as `ShardCluster`'s default fixed 0.7 T, without pinning every
    /// latency to a multiple of it).
    delay_seed: u64,
}

fn topology() -> ShardTopology {
    ShardTopology::uniform(SITES, SHARDS, REPLICATION)
}

fn variants(seed: u64, topo: &ShardTopology) -> Vec<Variant> {
    let pools = topo.key_pool(KEYS_PER_SHARD);
    (0..VARIANTS)
        .map(|v| {
            let mut rng = rng_for(seed, 100 + v as u64);
            let mut writes = Vec::with_capacity(WRITES as usize);
            let mut masters = Vec::with_capacity(WRITES as usize);
            let mut reads = Vec::with_capacity(READS as usize);
            for i in 0..WRITES {
                let shard = pick(&mut rng, SHARDS);
                let value = Value::from_u64(i as u64 + 1);
                let mut ops = vec![WriteOp {
                    key: pools[shard][pick(&mut rng, KEYS_PER_SHARD)].clone(),
                    value: value.clone(),
                }];
                if i % 4 == 0 {
                    let other = (shard + 1 + pick(&mut rng, SHARDS - 1)) % SHARDS;
                    ops.push(WriteOp {
                        key: pools[other][pick(&mut rng, KEYS_PER_SHARD)].clone(),
                        value,
                    });
                }
                let spec = ShardTxnSpec { id: TxnId(i + 1), writes: ops };
                masters.push(TxnPlan::compile(topo, &spec).master());
                writes.push((i as u64 * SPACING + rng.gen_range(0..=199), spec));
            }
            for i in 0..READS {
                let key = pools[pick(&mut rng, SHARDS)][pick(&mut rng, KEYS_PER_SHARD)].clone();
                let spec = ShardReadSpec { id: TxnId(READ_BASE + i), keys: vec![key] };
                reads.push((i as u64 * SPACING + 200 + rng.gen_range(0..=199), spec));
            }
            // Round-robin over the shards, so every seed cuts each replica
            // group equally often; when the cut lands is the seed's choice.
            let isolated = topo.group(v % SHARDS)[1];
            let cut_at = rng.gen_range(40_000..=43_000);
            Variant { writes, masters, reads, isolated, cut_at, delay_seed: rng.next_u64() }
        })
        .collect()
}

fn cluster(topo: &ShardTopology, variant: &Variant, protocol: CommitProtocol) -> ShardCluster {
    let rest = (0..SITES as u16).map(SiteId).filter(|s| *s != variant.isolated).collect();
    let cut = PartitionSpec::transient(
        SimTime(variant.cut_at),
        rest,
        vec![variant.isolated],
        SimTime(HEAL_AT),
    );
    let mut cluster = ShardCluster::new(topo.clone(), protocol)
        .leases(2_000, 6_500)
        .anti_entropy(5_000)
        .delay(DelayModel::Uniform { seed: variant.delay_seed, min: 400, max: 1_000 })
        .partition(PartitionEngine::new(vec![cut]));
    for (at, spec) in &variant.writes {
        cluster = cluster.submit(*at, spec.clone());
    }
    for (at, spec) in &variant.reads {
        cluster = cluster.submit_read(*at, spec.clone());
    }
    cluster
}

/// Exact observations folded over the runs of one pass.
#[derive(Default)]
struct Observed {
    /// One order-sensitive hash per run: every decision with its site and
    /// instant, every served read with its path and instant, the event count.
    digests: Vec<u64>,
    submitted: u64,
    committed: u64,
    /// Writes a protocol's coordinating master never decided.
    undecided: [u64; 3],
    reads_unserved: [u64; 3],
    violations: u64,
    /// Virtual ticks (1 tick = 1 µs, T = 1000) from submission to the
    /// master's decision / the read being served.
    write_latencies: Vec<u64>,
    read_latencies: Vec<u64>,
    events: u64,
    lease_reads: u64,
    served_reads: u64,
    sync_installs: u64,
    min_availability: f64,
}

fn observe(observed: &mut Observed, protocol: usize, variant: &Variant, run: &ShardRun) {
    let mut digest = FNV_OFFSET;
    observed.violations += run.metrics.atomicity_violations().len() as u64;
    for ((_, spec), master) in variant.writes.iter().zip(&variant.masters) {
        observed.submitted += 1;
        let submitted = run.metrics.submitted.get(&spec.id).map(|t| t.ticks());
        match run.metrics.decisions.get(&spec.id).and_then(|sites| sites.get(&master.0)) {
            Some((decision, at)) => {
                observed.committed += u64::from(*decision == Decision::Commit);
                let from = submitted.expect("a decided write was submitted");
                observed.write_latencies.push(at.ticks() - from);
            }
            None => observed.undecided[protocol] += 1,
        }
    }
    for (txn, sites) in &run.metrics.decisions {
        for (site, (decision, at)) in sites {
            fnv(&mut digest, (txn.0 as u64) << 32 | (*site as u64) << 8 | *decision as u64);
            fnv(&mut digest, at.ticks());
        }
    }
    for read in &run.metrics.reads {
        fnv(&mut digest, (read.id.0 as u64) << 8 | read.path as u64);
        fnv(&mut digest, read.at.ticks());
        let from = run.metrics.reads_submitted.get(&read.id).expect("a served read was submitted");
        observed.read_latencies.push(read.at.ticks() - from.ticks());
        observed.lease_reads += u64::from(read.path == ReadPath::Lease);
    }
    fnv(&mut digest, run.report.events);
    observed.digests.push(digest);
    observed.served_reads += run.reads.served() as u64;
    observed.reads_unserved[protocol] += (run.reads.blocked + run.reads.aborted) as u64;
    observed.events += run.report.events;
    observed.sync_installs += run
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Note { label: "sync-installed", .. }))
        .count() as u64;
    if protocol == HL {
        let worst = run.shards.iter().map(|s| s.availability()).fold(1.0, f64::min);
        observed.min_availability = observed.min_availability.min(worst);
    }
}

/// Runs one pass: every variant under every protocol. Times only what
/// happens inside `ShardCluster` (building and running it — the observation
/// bookkeeping between runs is the benchmark's own), each run one cell of
/// `clock`.
fn pass(
    topo: &ShardTopology,
    variants: &[Variant],
    tracer: &Tracer,
    clock: &mut PassClock,
) -> Observed {
    let mut observed = Observed { min_availability: 1.0, ..Observed::default() };
    let number = clock.passes() as u64;
    clock.start_pass();
    tracer.span("pass", number, || {
        for variant in variants {
            for (p, protocol) in PROTOCOLS.into_iter().enumerate() {
                let run = clock.time(|| {
                    tracer.span("shard.cluster_run", number, || {
                        cluster(topo, variant, protocol).run()
                    })
                });
                observe(&mut observed, p, variant, &run);
            }
        }
    });
    observed
}

/// Gates on what must hold in every pass, returns the failed-operation
/// count: operations that contradict a guarantee — an atomicity violation
/// under any protocol, or anything left undecided or unserved under HL-3PC,
/// the nonblocking protocol. 2PC and Quorum blocking inside the partition
/// is the paper's baseline result; it lowers `commit_share`, not this.
fn judge(report: &mut Report, observed: &Observed) -> u64 {
    report
        .gate(observed.violations == 0, || format!("{} atomicity violations", observed.violations));
    report.gate(observed.undecided[HL] == 0 && observed.reads_unserved[HL] == 0, || {
        format!(
            "HL-3PC left {} writes undecided and {} reads unserved",
            observed.undecided[HL], observed.reads_unserved[HL]
        )
    });
    observed.violations + observed.undecided[HL] + observed.reads_unserved[HL]
}

fn ops_per_pass() -> u64 {
    (VARIANTS * PROTOCOLS.len()) as u64 * (WRITES + READS) as u64
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();

    // Set-up: topology, the seeded variants (with each write's plan compiled
    // to find its master), the participant builders, and the cold first
    // pass that every later pass must reproduce. Three times, median.
    let mut setups = Vec::new();
    let mut first = None;
    for repeat in 0..3 {
        let started = Instant::now();
        let built = tracer.span("setup", repeat, || {
            let topo = topology();
            let variants = variants(seed, &topo);
            std::hint::black_box(PROTOCOLS.map(|p| p.participant_builder()));
            let observed = pass(&topo, &variants, tracer, &mut PassClock::new(KERNELS_PER_RUN));
            (topo, variants, observed)
        });
        setups.push(started.elapsed().as_secs_f64());
        match &first {
            None => first = Some(built),
            Some((_, _, reference)) => report.gate(
                reference.digests == built.2.digests
                    && reference.write_latencies == built.2.write_latencies,
                || format!("set-up pass {repeat} did not reproduce pass 0 bit for bit"),
            ),
        }
    }
    let (topo, variants, mut reference) = first.expect("three set-ups ran");
    report.failed = judge(&mut report, &reference);

    let mut clock = PassClock::new(KERNELS_PER_RUN);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || clock.passes() < MIN_PASSES {
        let number = clock.passes();
        let observed = pass(&topo, &variants, tracer, &mut clock);
        report.gate(
            observed.digests == reference.digests
                && observed.write_latencies == reference.write_latencies
                && observed.read_latencies == reference.read_latencies,
            || format!("timed pass {number} did not reproduce the first pass bit for bit"),
        );
    }
    let ops = ops_per_pass();
    let writes = reference.write_latencies.len();
    report.attempted = ops;
    report.set("setup_s", median(&setups));
    report.set("ops_per_s", ops as f64 / clock.reference_secs());
    report
        .set("write_mean_us", reference.write_latencies.iter().sum::<u64>() as f64 / writes as f64);
    report.set("write_p95_us", exact_quantile(&mut reference.write_latencies, 0.95) as f64);
    report.set("commit_share", reference.committed as f64 / reference.submitted as f64);
    report.note(format!(
        "{ops} operations ({} events) a pass; {}",
        reference.events,
        clock.describe()
    ));
    report.note(format!(
        "{writes} write and {} read virtual latency samples; set-up repeats {setups:.3?} s",
        reference.read_latencies.len(),
    ));
    report.note(format!(
        "writes undecided at their master (2PC / HL-3PC / Quorum): {:?}; reads unserved: {:?}",
        reference.undecided, reference.reads_unserved
    ));
    report
}

/// The traced run: passes with a span around every `ShardCluster::run` for
/// a third of the duration, then the micro-loops of the layers this
/// workload runs on (`model`, `ddb`, `shard`).
pub fn run_traced(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let topo = tracer.span("setup.topology", 0, topology);
    let variants = tracer.span("setup.variants", 0, || variants(seed, &topo));
    let mut clock = PassClock::new(KERNELS_PER_RUN);
    let reference = pass(&topo, &variants, tracer, &mut clock);
    report.attempted = ops_per_pass();
    report.failed = judge(&mut report, &reference);

    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds / 3.0 || clock.passes() < 3 {
        let number = clock.passes();
        let observed = pass(&topo, &variants, tracer, &mut clock);
        report.gate(observed.digests == reference.digests, || {
            format!("traced pass {number} did not reproduce the first pass")
        });
    }
    report.note(format!(
        "{} traced passes, {:.4} reference s a pass inside ShardCluster",
        clock.passes(),
        clock.reference_secs()
    ));
    report.set("shard.events_per_txn", reference.events as f64 / ops_per_pass() as f64);
    report.set(
        "shard.lease_read_share",
        reference.lease_reads as f64 / reference.served_reads as f64,
    );
    report.set("shard.sync_installs", reference.sync_installs as f64);
    report.set("shard.min_availability", reference.min_availability);

    report.set("model.spec_build_us", ladder::spec_build_us(tracer));
    ladder::ddb(&mut report, tracer);
    ladder::ddb_to_shard(&mut report, tracer);
    let specs: Vec<ShardTxnSpec> = variants[0].writes.iter().map(|(_, s)| s.clone()).collect();
    report.set(
        "shard.plan_compile_us_per_txn",
        ladder::plan_compile_us_per_txn(&topo, &specs, tracer),
    );
    report
}
