//! The layer ladder: micro-loops that time one layer's public functions in
//! isolation. Every loop runs through [`ns_per_op`] — samples of at least
//! 200 ms, median of 11, results fed to `black_box` — and is measured by
//! the traced run of the workloads that layer serves.

use crate::measure::{median, ns_per_op, MIN_SAMPLE_SECS, SAMPLES};
use crate::report::Report;
use crate::spans::Tracer;
use ptp_core::model::Decision;
use ptp_ddb::cluster::{CommitProtocol, DbCluster};
use ptp_ddb::locks::{LockMode, LockTable};
use ptp_ddb::site::{ParticipantFactory, TxnSpec};
use ptp_ddb::storage::Storage;
use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_ddb::wal::{Record, Wal};
use ptp_livenet::{Inbound, LiveConfig, Outbound, Router, Tagged};
use ptp_obs::LogHistogram;
use ptp_protocols::api::Vote;
use ptp_shard::{PlanTable, ShardCluster, ShardTopology, ShardTxnSpec};
use ptp_simnet::SiteId;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The commit protocols the storage layers can run.
pub const PROTOCOLS: [CommitProtocol; 3] =
    [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority];

/// `model`: building a protocol's participant builder and acquiring the
/// first participant from a fresh pool — what every cluster and every live
/// site thread pays before its first transaction. Mean µs per protocol.
pub fn spec_build_us(tracer: &Tracer) -> f64 {
    let ns = tracer.span("model.spec_build", 0, || {
        ns_per_op(PROTOCOLS.len() as u64, || {
            PROTOCOLS.map(|protocol| {
                let factory = ParticipantFactory::pooled(protocol.participant_builder());
                let mut pool = factory.pool(SiteId(0), 3);
                let slot = pool.acquire(Vote::Yes);
                (pool, slot)
            })
        })
    });
    ns / 1e3
}

/// Records per WAL before it is dropped and rebuilt: the log is an
/// ever-growing `Vec`, so a bounded batch keeps memory flat.
const WAL_BATCH: u64 = 8192;
const KEYS: usize = 64;

fn keys() -> Vec<Key> {
    (0..KEYS).map(|i| Key::from(format!("key-{i}"))).collect()
}

/// `ddb`: the storage stack's primitives, then a whole transaction through
/// the flat single-group cluster.
pub fn ddb(report: &mut Report, tracer: &Tracer) {
    let append = tracer.span("ddb.wal_append", 0, || {
        ns_per_op(WAL_BATCH, || {
            let mut wal = Wal::new();
            for i in 0..WAL_BATCH {
                wal.append(Record::Commit { txn: TxnId(i as u32) });
            }
            wal
        })
    });
    report.set("ddb.wal_append_ns", append);

    // A force write: append plus the flush that makes it durable.
    let flush = tracer.span("ddb.wal_flush", 0, || {
        ns_per_op(WAL_BATCH, || {
            let mut wal = Wal::new();
            for i in 0..WAL_BATCH {
                wal.append_durable(Record::Commit { txn: TxnId(i as u32) });
            }
            wal
        })
    });
    report.set("ddb.wal_flush_ns", flush);

    let pool = keys();
    let lock = tracer.span("ddb.lock_cycle", 0, || {
        let mut locks = LockTable::new();
        ns_per_op(KEYS as u64, || {
            for (i, key) in pool.iter().enumerate() {
                let txn = TxnId(i as u32);
                std::hint::black_box(locks.acquire(txn, key.clone(), LockMode::Exclusive));
                std::hint::black_box(locks.release_all(txn));
            }
        })
    });
    report.set("ddb.lock_cycle_ns", lock);

    let apply = tracer.span("ddb.storage_apply", 0, || {
        let mut storage = Storage::new();
        ns_per_op(KEYS as u64, || {
            for (i, key) in pool.iter().enumerate() {
                let txn = TxnId(i as u32);
                let write = WriteOp { key: key.clone(), value: Value::from_u64(i as u64) };
                storage.stage(txn, vec![write]);
                std::hint::black_box(storage.apply(txn));
            }
        })
    });
    report.set("ddb.storage_apply_ns", apply);
}

/// The single-group baseline workload: 400 one-key writes over a 64-key
/// vocabulary, one every 400 ticks, fully replicated over three sites.
const FLAT_SITES: usize = 3;
const FLAT_TXNS: u32 = 400;

fn flat_writes() -> Vec<(u64, TxnId, Vec<WriteOp>)> {
    let pool = keys();
    (0..FLAT_TXNS)
        .map(|i| {
            let key = pool[(i as usize * 7) % KEYS].clone();
            (i as u64 * 400, TxnId(i + 1), vec![WriteOp { key, value: Value::from_u64(i as u64) }])
        })
        .collect()
}

fn flat_cluster(txns: &[(u64, TxnId, Vec<WriteOp>)]) -> DbCluster {
    let mut cluster = DbCluster::new(FLAT_SITES, CommitProtocol::HuangLi);
    for (at, id, writes) in txns {
        let per_site: BTreeMap<u16, Vec<WriteOp>> =
            (0..FLAT_SITES as u16).map(|s| (s, writes.clone())).collect();
        cluster = cluster.submit(*at, TxnSpec { id: *id, writes: per_site });
    }
    cluster
}

fn one_shard_cluster(txns: &[(u64, TxnId, Vec<WriteOp>)]) -> ShardCluster {
    let topology = ShardTopology::uniform(FLAT_SITES, 1, FLAT_SITES);
    let mut cluster = ShardCluster::new(topology, CommitProtocol::HuangLi);
    for (at, id, writes) in txns {
        cluster = cluster.submit(*at, ShardTxnSpec { id: *id, writes: writes.clone() });
    }
    cluster
}

/// `ddb` → `shard`: the same 400 writes through the flat `DbCluster` and
/// through a one-shard `ShardCluster`, which must agree byte for byte — so
/// the ratio is the sharding layer's own overhead.
pub fn ddb_to_shard(report: &mut Report, tracer: &Tracer) {
    let txns = flat_writes();
    let flat = flat_cluster(&txns).run();
    let sharded = one_shard_cluster(&txns).run();
    let committed = flat
        .metrics
        .decisions
        .values()
        .filter(|sites| sites.get(&0).is_some_and(|(d, _)| *d == Decision::Commit))
        .count();
    report.gate(
        flat.metrics == sharded.metrics && flat.wals == sharded.wals && committed > 0,
        || "one-shard ShardCluster diverged from DbCluster".to_string(),
    );
    let records: usize = flat.wals.iter().map(|w| w.len()).sum();
    report.set("ddb.wal_records_per_commit", records as f64 / committed as f64);

    let ddb_ns = tracer.span("ddb.txn", 0, || {
        ns_per_op(FLAT_TXNS as u64, || flat_cluster(&txns).run().report.events)
    });
    let shard_ns = tracer.span("shard.txn", 0, || {
        ns_per_op(FLAT_TXNS as u64, || one_shard_cluster(&txns).run().report.events)
    });
    report.set("ddb.txn_us", ddb_ns / 1e3);
    report.set("shard.txn_us", shard_ns / 1e3);
    report.set("shard.overhead_vs_ddb", shard_ns / ddb_ns);
}

/// `shard`: compiling the routing plans of `specs` — part of every sharded
/// run's and every live run's set-up. µs per transaction.
pub fn plan_compile_us_per_txn(
    topology: &ShardTopology,
    specs: &[ShardTxnSpec],
    tracer: &Tracer,
) -> f64 {
    let ns = tracer.span("shard.plan_compile", 0, || {
        ns_per_op(specs.len() as u64, || PlanTable::compile(topology.clone(), specs))
    });
    ns / 1e3
}

/// The trivial payload the standalone router pumps.
#[derive(Clone)]
struct Ping(#[allow(dead_code)] u64);

impl Tagged for Ping {
    fn tag(&self) -> &'static str {
        "ping"
    }
}

/// Pumps `msgs` trivial messages through a standalone `Router` with `T` = 0
/// between six sites, as fast as one producer can hand them over, and
/// returns the seconds until the last one is delivered (or `None` if any
/// went missing).
fn pump(msgs: u64) -> Option<f64> {
    let (router_tx, router_rx) = mpsc::channel::<Outbound<Ping>>();
    let (site_txs, site_rxs): (Vec<_>, Vec<_>) =
        (0..6).map(|_| mpsc::channel::<Inbound<Ping>>()).unzip();
    let started = Instant::now();
    let config = LiveConfig { t: Duration::ZERO, run_timeout: Duration::from_secs(60), seed: 7 };
    let router: Router<Ping> = Router::new(config, None, Vec::new(), site_txs, started);
    let handle = std::thread::spawn(move || router.run(router_rx));
    for i in 0..msgs {
        let (src, dst) = (SiteId((i % 6) as u16), SiteId(((i + 1) % 6) as u16));
        router_tx.send(Outbound { src, dst, msg: Ping(i) }).expect("router is up");
    }
    drop(router_tx);
    handle.join().expect("router thread does not panic");
    let secs = started.elapsed().as_secs_f64();
    let delivered: usize = site_rxs.iter().map(|rx| rx.try_iter().count()).sum();
    (delivered as u64 == msgs).then_some(secs)
}

/// `livenet`: the ceiling of the single router thread every live message
/// passes through. The message count is calibrated once so a sample takes
/// at least 200 ms, then held fixed.
pub fn router_msgs_per_s(report: &mut Report, tracer: &Tracer) {
    let mut msgs = 500_000u64;
    let mut rates = Vec::new();
    let mut sample = 0;
    while rates.len() < SAMPLES {
        sample += 1;
        match tracer.span("livenet.router_pump", sample, || pump(msgs)) {
            None => return report.fail_gate(format!("router lost some of {msgs} messages")),
            Some(secs) if secs < MIN_SAMPLE_SECS => {
                msgs = (msgs as f64 * MIN_SAMPLE_SECS * 1.3 / secs) as u64;
                rates.clear();
            }
            Some(secs) => rates.push(msgs as f64 / secs),
        }
    }
    report.set("livenet.router_msgs_per_s", median(&rates));
}

/// `livenet`: one HL-3PC transaction over six site threads and the router
/// at `t`, no storage underneath — the floor under the live write latency.
pub fn protocol_txn_us(report: &mut Report, t: Duration, tracer: &Tracer) {
    use ptp_protocols::clusters::huang_li_3pc_cluster;
    use ptp_protocols::termination::TerminationVariant;
    let samples: Vec<f64> = (0..SAMPLES as u64)
        .map(|sample| {
            tracer.span("livenet.run_live", sample, || {
                // Two transactions per sample keep it above the 200 ms floor
                // at T = 20 ms (one takes about six message legs).
                let started = Instant::now();
                let mut txns = 0u32;
                while txns < 2 || started.elapsed().as_secs_f64() < MIN_SAMPLE_SECS {
                    let cluster =
                        huang_li_3pc_cluster(6, &[Vote::Yes; 5], TerminationVariant::Transient);
                    let outcome = ptp_livenet::run_live(cluster, LiveConfig::with_t(t), None);
                    report.gate(outcome.consistent() && outcome.all_decided(), || {
                        format!("bare live transaction did not terminate cleanly: {outcome:?}")
                    });
                    txns += 1;
                }
                started.elapsed().as_secs_f64() * 1e6 / txns as f64
            })
        })
        .collect();
    report.set("livenet.protocol_txn_us", median(&samples));
}

/// `obs`: recording one latency sample into the log-bucketed histogram.
pub fn hist_record_ns(report: &mut Report, tracer: &Tracer) {
    const BATCH: u64 = 1 << 16;
    let ns = tracer.span("obs.hist_record", 0, || {
        let mut hist = LogHistogram::new();
        let mut v = 0x9e37_79b9u64;
        ns_per_op(BATCH, || {
            for _ in 0..BATCH {
                // A cheap spread of values over ~4 octaves around 50 ms.
                v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                hist.record(10_000 + (v >> 47));
            }
            hist.count()
        })
    });
    report.set("obs.hist_record_ns", ns);
}
