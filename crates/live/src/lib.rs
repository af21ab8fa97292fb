//! # ptp-live — sustained-traffic shard serving over real threads
//!
//! Every workload in this workspace so far ran under the discrete-event
//! simulator. This crate is the serving path the north star asks for: a
//! **long-running, multi-threaded shard server** hosting `ptp-ddb`'s site
//! core — the very `SiteCore` the simulator runs: plan routing, WAL,
//! strict-2PL locks, pooled protocol participants, version-stamped
//! replication, leases, anti-entropy — on one OS thread per site, with
//! messages delayed by the generic `ptp-livenet` router — bounded-delay
//! delivery, live partition episodes, optimistic undeliverable bounces.
//!
//! Load comes from an **open-loop driver** ([`driver`]): arrivals follow a
//! precomputed exponential schedule at a configured offered rate, with
//! uniform or hot-key skew and a read/write mix, injected on the wall clock
//! regardless of completions — so queueing delay lands in the recorded
//! latency instead of silently stretching the run. Latency percentiles come
//! from a hand-rolled log-bucketed histogram ([`ptp_obs::hist`]).
//!
//! Two server-side optimizations are switchable per run ([`BatchConfig`]):
//! **group-commit WAL batching** (one simulated-fsync per batch window,
//! acked per transaction after its commit record's flush) and
//! **protocol-message coalescing** (all envelopes to one destination in a
//! window ride one channel send). The benchmark runs one workload in each
//! mode: `live_steady` with both off, `live_partition` with both on.
//!
//! Live runs are nondeterministic (real threads, real clocks), so
//! correctness is asserted as **invariants**, not replay equality: the
//! post-run [`audit`](LiveReport::audit) is the store's one audit,
//! [`ptp_ddb::audit`] — atomicity (every site and the client ack agree on
//! every decision), WAL discipline (at most one durable commit record per
//! site and transaction, none under an abort; in a fault-free run exactly
//! one per involved replica), no lost or phantom writes (every surviving
//! value traces to a committed writer), replica convergence — around the
//! client ledger's own checks (duplicate and stray acks, read legitimacy);
//! and the run must drain cleanly on shutdown.
//!
//! ```
//! use ptp_live::{run_server, LiveOptions};
//! use std::time::Duration;
//!
//! let report = run_server(&LiveOptions::small(150.0, Duration::from_millis(300)));
//! assert!(report.audit.ok, "{:?}", report.audit.violations);
//! assert!(report.clean_drain);
//! assert_eq!(report.completed_writes, report.issued_writes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod node;

pub use config::{BatchConfig, KeySkew, LeaseConfig, LiveOptions};
pub use node::{Completion, LiveNode, NodeCounters, NodeReport, Packet};
pub use ptp_ddb::audit::AuditReport;
// The `ptp-obs` types that `LiveOptions` / `LiveReport` carry in public
// fields.
pub use ptp_obs::{LatencySummary, ObsConfig, Registry, Series, StageTable};

use driver::{OpKind, ScheduledOp, Workload, READ_BASE};
use ptp_ddb::audit::{audit, SiteRemains, MAX_VIOLATIONS};
use ptp_ddb::plan::PlanTable;
use ptp_ddb::site::ParticipantFactory;
use ptp_ddb::value::{Key, TxnId, Value};
use ptp_ddb::ShardTopology;
use ptp_livenet::{host_time, Inbound, LiveConfig, Outbound, Router};
use ptp_model::Decision;
use ptp_obs::{
    FlightEvent, FlightRecorder, LogHistogram, TxnSpan, STAGE_COMMIT_WAIT, STAGE_LOCK_WAIT,
    STAGE_PROTOCOL, STAGE_QUEUE, STAGE_ROUNDS, STAGE_SERVE,
};
use ptp_simnet::{FaultPlan, SimTime, SiteId};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One operation's acknowledgement, as the harness keeps it.
#[derive(Debug, Clone, Copy)]
struct Ack {
    /// The ack instant, in nanoseconds since the run's `start`.
    at_ns: u64,
    decision: Decision,
}

/// Every acknowledgement of a run, in dense tables sized once from the
/// schedule — the driver numbers writes `1..=W` and reads from
/// [`READ_BASE`] up, so an operation's id is its slot. 16 bytes per write
/// and 40 per read (a returned `Option<Value>` is 24), nothing that
/// rehashes while the run is being timed.
struct Ledger {
    /// The ack of write `id`, at `id - 1`.
    writes: Vec<Option<Ack>>,
    /// The ack of read `READ_BASE + i` and the value it returned, at `i`.
    reads: Vec<Option<(Ack, Option<Value>)>>,
    /// The stage spans the serving masters attached (recording runs only).
    spans: HashMap<u32, TxnSpan>,
    /// Operations acknowledged at least once.
    acked: usize,
    /// Acknowledgements of an operation already acknowledged.
    duplicates: usize,
    /// Acknowledged ids the schedule never issued (the first few).
    strays: Vec<u32>,
}

impl Ledger {
    fn new(writes: usize, reads: usize) -> Ledger {
        Ledger {
            writes: vec![None; writes],
            reads: vec![None; reads],
            spans: HashMap::new(),
            acked: 0,
            duplicates: 0,
            strays: Vec::new(),
        }
    }

    /// The slot of write `id`, if the schedule issued it.
    fn write_slot(&self, id: u32) -> Option<usize> {
        (id as usize).checked_sub(1).filter(|&slot| slot < self.writes.len())
    }

    /// The slot of read `id`, if the schedule issued it.
    fn read_slot(&self, id: u32) -> Option<usize> {
        id.checked_sub(READ_BASE).map(|slot| slot as usize).filter(|&slot| slot < self.reads.len())
    }

    /// Books one completion; the latest ack of an operation wins.
    fn record(&mut self, c: Completion, start: Instant) {
        let id = c.txn.0;
        let at_ns = c.at.saturating_duration_since(start).as_nanos() as u64;
        let ack = Ack { at_ns, decision: c.decision };
        let earlier = if let Some(slot) = self.write_slot(id) {
            self.writes[slot].replace(ack).is_some()
        } else if let Some(slot) = self.read_slot(id) {
            self.reads[slot].replace((ack, c.value)).is_some()
        } else {
            if self.strays.len() < MAX_VIOLATIONS {
                self.strays.push(id);
            }
            return;
        };
        if earlier {
            self.duplicates += 1;
        } else {
            self.acked += 1;
        }
        if let Some(span) = c.span {
            self.spans.insert(id, span);
        }
    }

    /// The ack of operation `id`, if it was acknowledged.
    fn ack(&self, id: TxnId) -> Option<Ack> {
        match self.write_slot(id.0) {
            Some(slot) => self.writes[slot],
            None => self.reads[self.read_slot(id.0)?].as_ref().map(|(ack, _)| *ack),
        }
    }

    /// The value read `id` returned, if it was acknowledged with one.
    fn value_read(&self, id: TxnId) -> Option<&Value> {
        self.reads[self.read_slot(id.0)?].as_ref().and_then(|(_, value)| value.as_ref())
    }

    /// The run's audit: the store's one [`audit`] of every node's remains
    /// under this ledger's acks, inside the ledger's own checks — duplicate
    /// and stray acks first, read legitimacy last.
    fn judge(
        &self,
        ops: &[ScheduledOp],
        plans: &PlanTable,
        pools: &[Vec<Key>],
        reports: &[NodeReport],
        faults: &FaultPlan,
    ) -> AuditReport {
        let sites: Vec<_> = (reports.iter())
            .map(|r| SiteRemains { storage: &r.storage, wal: &r.wal, finished: &r.finished })
            .collect();
        let keys = pools.iter().flatten().map(|key| (key, None));
        let acks = |txn| self.ack(txn).map(|ack| ack.decision);
        let store = audit(plans, &sites, keys, faults, Some(&acks));

        let duplicates = (self.duplicates > 0)
            .then(|| format!("{} operations were acknowledged more than once", self.duplicates));
        let strays = self.strays.iter().map(|id| format!("txn{id} was acked but never issued"));
        let mut violations: Vec<String> =
            duplicates.into_iter().chain(strays).chain(store.violations).collect();

        // Read legitimacy: a returned value must be one an issued write gave
        // that key — the driver writes each writer's id, so the value names
        // the plan to look in (reads of never-written keys return nothing).
        let mut checked_reads = 0usize;
        for op in ops {
            let OpKind::Read(key) = op.kind(pools) else { continue };
            if self.ack(op.txn).is_none() {
                continue;
            }
            checked_reads += 1;
            let Some(v) = self.value_read(op.txn) else { continue };
            let writer = v.as_u64().and_then(|id| plans.get(TxnId(u32::try_from(id).ok()?)));
            if !writer.is_some_and(|plan| plan.wrote(key, v)) && violations.len() < MAX_VIOLATIONS {
                violations
                    .push(format!("read of key {key} returned a value from no issued writer"));
            }
        }
        violations.truncate(MAX_VIOLATIONS);
        AuditReport { ok: violations.is_empty(), checked_reads, violations, ..store }
    }
}

/// Everything a live serving run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// The configured offered load (ops/sec).
    pub offered_rate: f64,
    /// *Committed* writes over the span from run start to the last commit
    /// ack — the goodput the cluster actually sustained (aborts complete
    /// fast; counting them would flatter a saturated run).
    pub achieved_rate: f64,
    /// Writes the driver injected.
    pub issued_writes: usize,
    /// Reads the driver injected.
    pub issued_reads: usize,
    /// Writes that reached a decision and were acked.
    pub completed_writes: usize,
    /// Acked commits.
    pub committed: usize,
    /// Acked aborts.
    pub aborted: usize,
    /// Reads answered.
    pub completed_reads: usize,
    /// Write latency percentiles.
    pub writes: LatencySummary,
    /// Read latency percentiles.
    pub reads: LatencySummary,
    /// Every operation completed and no node held in-flight state at
    /// shutdown.
    pub clean_drain: bool,
    /// The storage audit.
    pub audit: AuditReport,
    /// Wall-clock span of the whole run (load + drain + shutdown).
    pub elapsed: Duration,
    /// Stable-storage flushes across all sites.
    pub flushes: u64,
    /// Channel sends to the router across all sites.
    pub channel_sends: u64,
    /// Protocol messages carried (> `channel_sends` means coalescing
    /// squeezed multiple messages into one send).
    pub protocol_messages: u64,
    /// Whether group commit + coalescing were on.
    pub batching: bool,
    /// Reads served on the master-lease fast path across all sites.
    pub lease_reads: u64,
    /// Reads served under a shared lock across all sites.
    pub lock_reads: u64,
    /// Anti-entropy deltas installed across all sites.
    pub sync_installs: u64,
    /// The run's latency histograms, in microseconds, under
    /// `write_latency_us` and `read_latency_us` (always built).
    pub metrics: Registry,
    /// Stage attribution per (path, fault-phase, stage). Empty unless
    /// [`ObsConfig::spans`] was on.
    pub stages: StageTable,
    /// Per-bin completion counts and latency percentiles (`None` unless a
    /// series bin width was configured).
    pub series: Option<Series>,
    /// The merged flight-recorder dump, produced when the audit failed or
    /// the run failed to drain (and recorders were on).
    pub flight_dump: Option<String>,
}

/// Runs the full live pipeline: compile plans, spawn router + one thread
/// per site + the open-loop driver, serve the offered load, drain, shut
/// down, and audit. See the crate docs for what the report asserts.
pub fn run_server(opts: &LiveOptions) -> LiveReport {
    opts.validate();
    let topo = ShardTopology::uniform(opts.sites, opts.shards, opts.replication);
    let pools = topo.key_pool(opts.keys_per_shard);
    let Workload { ops, plans, writes: issued_writes, reads: issued_reads } =
        driver::compile(opts, &topo, &pools);
    let plans = Arc::new(plans);
    let n = opts.sites;

    let (router_tx, router_rx) = mpsc::channel::<Outbound<Packet>>();
    let (completions_tx, completions_rx) = mpsc::channel::<Completion>();
    let mut site_txs = Vec::with_capacity(n);
    let mut site_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel::<Inbound<Packet>>();
        site_txs.push(tx);
        site_rxs.push(rx);
    }

    let start = Instant::now();
    let live_config =
        LiveConfig { t: opts.t, run_timeout: opts.duration + opts.drain_timeout, seed: opts.seed };
    let faults = opts.fault_plan();
    let router: Router<Packet> =
        Router::with_plan(live_config, faults.clone(), site_txs.clone(), start);
    let router_handle = std::thread::spawn(move || router.run(router_rx));

    let mut node_handles = Vec::with_capacity(n);
    for (i, rx) in site_rxs.into_iter().enumerate() {
        let plans = plans.clone();
        let router_tx = router_tx.clone();
        let completions_tx = completions_tx.clone();
        let opts = opts.clone();
        node_handles.push(std::thread::spawn(move || {
            // Participant builders are Rc-based: construct inside the thread.
            let factory = ParticipantFactory::pooled(opts.protocol.participant_builder());
            let me = SiteId(i as u16);
            LiveNode::new(me, plans, factory, &opts, start, router_tx, completions_tx).run(rx)
        }));
    }
    drop(router_tx);
    drop(completions_tx);

    // The driver thread owns the schedule while it injects it, and hands it
    // back on join.
    let expected = ops.len();
    let driver_txs = site_txs.clone();
    let driver_handle = std::thread::spawn(move || {
        driver::run_driver(&ops, &topo, &pools, driver_txs, start);
        (ops, pools)
    });

    // Collect acks until every scheduled op completed or the drain deadline
    // passes (open loop: the driver never waits, so backlog drains here).
    let deadline = start + opts.duration + opts.drain_timeout;
    let mut ledger = Ledger::new(issued_writes, issued_reads);
    while ledger.acked < expected {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match completions_rx.recv_timeout(deadline - now) {
            Ok(c) => ledger.record(c, start),
            Err(_) => break,
        }
    }

    // Grace: client acks are all in, but cross-shard ships and group-commit
    // finalizations may still be crossing the router; let replicas settle
    // before pulling the plug (a few delay bounds + batch windows — plus a
    // few anti-entropy rounds when the catch-up chain is on, so a healed
    // replica's last missed delta gets polled, answered, and installed).
    let grace = opts.t * 5
        + opts.batch.window * 5
        + Duration::from_millis(30)
        + opts.anti_entropy.map_or(Duration::ZERO, |p| p * 4 + opts.t * 4);
    let grace_deadline = Instant::now() + grace;
    loop {
        let now = Instant::now();
        if now >= grace_deadline {
            break;
        }
        match completions_rx.recv_timeout(grace_deadline - now) {
            Ok(c) => ledger.record(c, start),
            Err(_) => break,
        }
    }

    for tx in &site_txs {
        let _ = tx.send(Inbound::Shutdown);
    }
    let (ops, pools) = driver_handle.join().expect("the driver thread does not panic");
    let mut reports: Vec<NodeReport> = Vec::with_capacity(n);
    for h in node_handles {
        reports.push(h.join().expect("site threads do not panic"));
    }
    drop(site_txs);
    let _ = router_handle.join();
    let elapsed = start.elapsed();

    // Latency, measured from each op's scheduled arrival.
    let mut write_hist = LogHistogram::new();
    let mut read_hist = LogHistogram::new();
    let mut committed = 0usize;
    let mut aborted = 0usize;
    let mut completed_writes = 0usize;
    let mut completed_reads = 0usize;
    let mut last_commit_ns: Option<u64> = None;
    let mut stages = StageTable::new();
    let mut series = opts.obs.series_bin.map(Series::new);
    for op in ops.iter() {
        let Some(Ack { at_ns, decision }) = ledger.ack(op.txn) else { continue };
        let latency = at_ns.saturating_sub(op.at().as_nanos() as u64) / 1_000;
        let kind = op.kind(&pools);
        match kind {
            OpKind::Write => {
                write_hist.record(latency);
                completed_writes += 1;
                match decision {
                    Decision::Commit => {
                        committed += 1;
                        last_commit_ns = last_commit_ns.max(Some(at_ns));
                    }
                    Decision::Abort => aborted += 1,
                }
            }
            OpKind::Read(_) => {
                read_hist.record(latency);
                completed_reads += 1;
            }
        }
        if let Some(s) = &mut series {
            s.record(Duration::from_nanos(at_ns), latency);
        }
        if let Some(span) = ledger.spans.get(&op.txn.0) {
            let acked = Duration::from_nanos(at_ns);
            attribute_span(&mut stages, &faults, op.at(), kind, span, start, acked);
        }
    }
    let achieved_rate = match last_commit_ns {
        Some(done_ns) => committed as f64 / (done_ns as f64 / 1e9).max(1e-9),
        None => 0.0,
    };

    let clean_drain =
        ledger.acked == expected && reports.iter().all(|r| r.in_flight_at_shutdown == 0);
    let audit = ledger.judge(&ops, &plans, &pools, &reports, &faults);

    let mut metrics = Registry::new();
    metrics.merge_hist("write_latency_us", &write_hist);
    metrics.merge_hist("read_latency_us", &read_hist);

    // The flight recorder earns its keep exactly here: an audit failure or
    // a stuck drain dumps the merged event tail of every site.
    let flight_dump = if (!audit.ok
        || ledger.acked != expected
        || reports.iter().any(|r| r.in_flight_at_shutdown > 0))
        && opts.obs.flight_capacity > 0
    {
        let mut events: Vec<FlightEvent> = Vec::new();
        let mut dropped = 0u64;
        for r in &reports {
            if let Some(f) = &r.flight {
                dropped += f.dropped();
                events.extend(f.tail());
            }
        }
        events.sort_by_key(|e| (e.at_us, e.site));
        let reason = if !audit.ok {
            format!(
                "invariant audit failed: {}",
                audit.violations.first().map_or("(no detail)", |v| v.as_str())
            )
        } else {
            format!("run failed to drain: {} of {expected} operations completed", ledger.acked)
        };
        let dump = FlightRecorder::render_dump(&reason, dropped, &events);
        eprintln!("--- flight-recorder dump ---\n{dump}");
        Some(dump)
    } else {
        None
    };

    LiveReport {
        offered_rate: opts.offered_rate,
        achieved_rate,
        issued_writes,
        issued_reads,
        completed_writes,
        committed,
        aborted,
        completed_reads,
        writes: LatencySummary::from_hist(&write_hist),
        reads: LatencySummary::from_hist(&read_hist),
        clean_drain,
        audit,
        elapsed,
        flushes: reports.iter().map(|r| r.counters.flushes).sum(),
        channel_sends: reports.iter().map(|r| r.counters.channel_sends).sum(),
        protocol_messages: reports.iter().map(|r| r.counters.protocol_messages).sum(),
        batching: opts.batch.enabled(),
        lease_reads: reports.iter().map(|r| r.counters.reads_lease).sum(),
        lock_reads: reports.iter().map(|r| r.counters.reads_local).sum(),
        sync_installs: reports.iter().map(|r| r.counters.sync_installs).sum(),
        metrics,
        stages,
        series,
        flight_dump,
    }
}

/// Classifies a completion instant against the run's fault schedule:
/// `"none"` for fault-free runs, else `"before"` / `"fault"` / `"after"`
/// relative to the configured partition episodes and crash windows (the
/// harness knows the schedule; the nodes never do).
fn fault_phase(faults: &FaultPlan, at: SimTime) -> &'static str {
    let episodes = faults.partition.episodes().iter().map(|e| (e.at, e.heal_at));
    let windows = episodes.chain(faults.failures.iter().map(|f| (f.at, f.recover_at)));
    let Some(first) = windows.clone().map(|(from, _)| from).min() else {
        return "none";
    };
    if windows.clone().any(|(from, until)| at >= from && until.is_none_or(|u| at < u)) {
        "fault"
    } else if at < first {
        "before"
    } else {
        "after"
    }
}

/// Turns one completed operation's span into stage-table rows. The stages
/// are consecutive deltas over a single timeline — scheduled arrival →
/// mailbox receive → locks held → protocol decision → ack — so summing the
/// table reconstructs (almost all of) the measured end-to-end latency.
fn attribute_span(
    stages: &mut StageTable,
    faults: &FaultPlan,
    at: Duration,
    kind: OpKind<'_>,
    span: &TxnSpan,
    start: Instant,
    acked: Duration,
) {
    let us = |later: Instant, earlier: Instant| {
        later.saturating_duration_since(earlier).as_micros() as u64
    };
    let phase = fault_phase(faults, host_time(acked));
    let acked = start + acked;
    stages.add(span.path, phase, STAGE_QUEUE, us(span.recv, start + at));
    match kind {
        OpKind::Write => {
            let Some(locked) = span.locked else { return };
            stages.add(span.path, phase, STAGE_LOCK_WAIT, us(locked, span.recv));
            let Some(decided) = span.decided else { return };
            stages.add(span.path, phase, STAGE_PROTOCOL, us(decided, locked));
            stages.add(span.path, phase, STAGE_COMMIT_WAIT, us(acked, decided));
            stages.add(span.path, phase, STAGE_ROUNDS, span.rounds as u64);
        }
        OpKind::Read(_) => {
            if let Some(locked) = span.locked {
                stages.add(span.path, phase, STAGE_LOCK_WAIT, us(locked, span.recv));
            }
            stages.add(span.path, phase, STAGE_SERVE, us(acked, span.locked.unwrap_or(span.recv)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_simnet::rng::SmallRng;
    use ptp_simnet::FailureSpec;

    #[test]
    fn fault_phase_classifies_against_episodes_and_crash_windows() {
        use ptp_simnet::{FailureSpec, PartitionEngine, PartitionSpec};
        assert_eq!(fault_phase(&FaultPlan::default(), SimTime(5)), "none");

        // One healed episode over [100, 200), one crash window over [400, 500).
        let episode =
            PartitionSpec::transient(SimTime(100), vec![SiteId(0)], vec![SiteId(1)], SimTime(200));
        let mut plan = FaultPlan::from(PartitionEngine::new(vec![episode]));
        plan.failures.push(FailureSpec::crash_recover(SiteId(1), SimTime(400), SimTime(500)));
        let phases = [
            (99, "before"),
            (100, "fault"),
            (199, "fault"),
            (200, "after"),
            (399, "after"),
            (400, "fault"),
            (499, "fault"),
            (500, "after"),
        ];
        for (at, phase) in phases {
            assert_eq!(fault_phase(&plan, SimTime(at)), phase, "at {at}");
        }

        // A crash that never recovers keeps the run in the fault phase.
        plan.failures.push(FailureSpec::crash(SiteId(0), SimTime(600)));
        assert_eq!(fault_phase(&plan, SimTime(599)), "after");
        assert_eq!(fault_phase(&plan, SimTime(u64::MAX)), "fault");
    }

    #[test]
    fn small_run_without_batching_is_clean() {
        let mut opts = LiveOptions::small(200.0, Duration::from_millis(400));
        opts.flush_cost = Duration::from_micros(50);
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");
        assert_eq!(report.completed_writes, report.issued_writes);
        assert_eq!(report.completed_reads, report.issued_reads);
        assert!(report.committed > 0, "some writes should commit");
        // Without coalescing, every protocol message is its own send.
        assert_eq!(report.channel_sends, report.protocol_messages);
        assert!(report.writes.p50_us > 0);
    }

    #[test]
    fn small_run_with_batching_is_clean() {
        let mut opts = LiveOptions::small(200.0, Duration::from_millis(400));
        opts.flush_cost = Duration::from_micros(50);
        opts.batch = BatchConfig::on(Duration::from_millis(4));
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");
        assert_eq!(report.completed_writes, report.issued_writes);
        assert!(report.committed > 0);
        assert!(report.batching);
        assert!(report.flushes > 0);
    }

    #[test]
    fn hot_key_contention_still_audits_clean() {
        let mut opts = LiveOptions::small(150.0, Duration::from_millis(400));
        opts.skew = KeySkew::HotKey { hot_fraction: 0.5 };
        opts.flush_cost = Duration::ZERO;
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");
    }

    #[test]
    fn configured_read_fraction_is_served_through_real_paths() {
        // The driver's read mix must be *served*, not just synthesized:
        // every issued read completes through an accounted path (lease or
        // shared-lock), and the issued mix tracks the configured fraction.
        let mut opts = LiveOptions::small(300.0, Duration::from_millis(400));
        opts.read_fraction = 0.4;
        opts.flush_cost = Duration::ZERO;
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");
        let issued = (report.issued_reads + report.issued_writes) as f64;
        let fraction = report.issued_reads as f64 / issued;
        assert!((0.25..=0.55).contains(&fraction), "read mix {fraction} far from 0.4");
        assert_eq!(report.completed_reads, report.issued_reads);
        assert_eq!(
            report.lease_reads + report.lock_reads,
            report.completed_reads as u64,
            "every served read is accounted to a path"
        );
        // Leases are off: nothing may ride the fast path.
        assert_eq!(report.lease_reads, 0);
    }

    #[test]
    fn lease_fast_path_serves_reads_in_a_clean_run() {
        let mut opts = LiveOptions::small(300.0, Duration::from_millis(400));
        opts.read_fraction = 0.5;
        opts.flush_cost = Duration::ZERO;
        // Grants must outlive the renewal round trip (up to 2·t = 40ms of
        // router delay) by a comfortable margin, or they expire in transit.
        opts.lease = Some(LeaseConfig::new(Duration::from_millis(10), Duration::from_millis(150)));
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");
        assert_eq!(
            report.lease_reads + report.lock_reads,
            report.completed_reads as u64,
            "every served read is accounted to a path"
        );
        // With renewals every 8ms and 40ms grants on an unpartitioned
        // cluster, the lease holds for virtually the whole run.
        assert!(
            report.lease_reads > report.lock_reads,
            "lease fast path barely used: {} lease vs {} lock",
            report.lease_reads,
            report.lock_reads
        );
    }

    #[test]
    fn recording_run_attributes_latency_to_stages() {
        let mut opts = LiveOptions::small(250.0, Duration::from_millis(400));
        opts.read_fraction = 0.3;
        opts.flush_cost = Duration::from_micros(50);
        opts.obs = ObsConfig::recording();
        opts.obs.series_bin = Some(Duration::from_millis(100));
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");

        // The stage table accounts for (nearly) all measured latency: the
        // stages are consecutive deltas of one timeline, so only saturating
        // truncation can shave microseconds off.
        assert!(!report.stages.is_empty());
        let measured = report.metrics.hist("write_latency_us").unwrap().sum()
            + report.metrics.hist("read_latency_us").unwrap().sum();
        let attributed = report.stages.attributed_us();
        assert!(
            attributed as f64 >= measured as f64 * 0.95,
            "stage table covers {attributed} of {measured} us"
        );
        // Fault-free runs classify every row as phase "none".
        for ((_, phase, _), _) in report.stages.rows() {
            assert_eq!(*phase, "none");
        }
        // Committed writes crossed the protocol stage on a write path.
        assert!(report.stages.cell("write-single", "none", STAGE_PROTOCOL).is_some());

        // The series saw every completion.
        let series = report.series.expect("series was configured");
        let binned: u64 = series.bins().iter().map(|b| b.count).sum();
        assert_eq!(binned as usize, report.completed_writes + report.completed_reads);

        // A clean run dumps nothing.
        assert!(report.flight_dump.is_none());
    }

    #[test]
    fn null_sink_records_no_stages_or_series() {
        let mut opts = LiveOptions::small(150.0, Duration::from_millis(300));
        opts.flush_cost = Duration::ZERO;
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.stages.is_empty());
        assert!(report.series.is_none());
        assert!(report.flight_dump.is_none());
        // The latency histograms are built either way.
        let writes = report.metrics.hist("write_latency_us").expect("write histogram");
        assert_eq!(writes.count() as usize, report.completed_writes);
    }

    #[test]
    fn failed_drain_dumps_the_flight_recorder() {
        // Permanently crash shard 0's master at t = 0: every operation
        // routed to it is lost, the drain deadline passes unfinished, and
        // the merged flight-recorder tail explains what was in flight.
        let topo = ptp_ddb::ShardTopology::uniform(6, 3, 2);
        let master = topo.master(0);
        let mut opts = LiveOptions::small(200.0, Duration::from_millis(250));
        opts.flush_cost = Duration::ZERO;
        opts.drain_timeout = Duration::from_millis(600);
        opts.faults.failures = vec![ptp_simnet::FailureSpec::crash(master, SimTime(0))];
        opts.obs = ObsConfig::recording();
        let report = run_server(&opts);
        assert!(!report.clean_drain, "the crashed master must strand its operations");
        let dump = report.flight_dump.expect("an undrained run must dump the recorder");
        assert!(dump.contains("\"reason\": \"run failed to drain"), "{dump}");
        assert!(dump.contains("\"events\": ["), "{dump}");
        // Sites other than the dead master were still serving: the merged
        // tail has real traffic in it.
        assert!(
            dump.contains("\"kind\": \"recv\"") || dump.contains("\"kind\": \"send\""),
            "{dump}"
        );
        // Completions that did arrive land in fault phase (a permanent
        // crash window spans the whole run).
        for ((_, phase, _), _) in report.stages.rows() {
            assert_eq!(*phase, "fault");
        }
    }

    #[test]
    fn healed_replica_converges_via_anti_entropy() {
        // A replica is cut while cross-shard commits ship outcomes past it
        // (bounced at the partition boundary, never retried), then heals.
        // With the sync chain on, the replica polls its master and installs
        // the missed versions; every replica pair agrees at shutdown even
        // though the run had a partition.
        let topo = ptp_ddb::ShardTopology::uniform(6, 3, 2);
        let replica = topo.group(0)[1];
        let mut opts = LiveOptions::small(400.0, Duration::from_millis(500));
        opts.read_fraction = 0.0;
        opts.cross_shard_fraction = 1.0;
        opts.flush_cost = Duration::ZERO;
        opts.keys_per_shard = 8;
        opts.anti_entropy = Some(Duration::from_millis(15));
        opts.partition = Some(ptp_livenet::LivePartition::simple(
            Duration::from_millis(100),
            vec![replica],
            Some(Duration::from_millis(300)),
        ));
        let report = run_server(&opts);
        assert!(report.audit.ok, "audit: {:?}", report.audit.violations);
        assert!(report.clean_drain, "unclean drain: {report:?}");
        assert!(report.sync_installs > 0, "the stranded replica must install deltas");
        assert!(
            report.audit.converged,
            "anti-entropy must reconverge every replica after the heal"
        );
    }

    /// The audit `run_server` ran before the store's checks moved into
    /// `ptp_ddb::audit`, kept verbatim but for its name and `diverged`
    /// (it predates the field): the oracle [`Ledger::judge`] must match
    /// line for line.
    ///
    /// The storage audit: checks the invariants listed in the crate docs
    /// against the driver's issue log. Strict mode (no partition) additionally
    /// requires full replica convergence.
    fn retired_audit(
        ops: &[ScheduledOp],
        plans: &PlanTable,
        pools: &[Vec<Key>],
        ledger: &Ledger,
        reports: &[NodeReport],
        strict: bool,
    ) -> AuditReport {
        let mut violations: Vec<String> = Vec::new();
        let mut violate = |msg: String| {
            if violations.len() < MAX_VIOLATIONS {
                violations.push(msg);
            }
        };
        let topo = &plans.topology;

        if ledger.duplicates > 0 {
            violate(format!("{} operations were acknowledged more than once", ledger.duplicates));
        }
        for id in &ledger.strays {
            violate(format!("txn{id} was acked but never issued"));
        }

        // Durable commit records per (site, write id), dropped by a checkpoint
        // or not: one byte each in the ledger's shape (255 stands for more).
        let durable_commits: Vec<Vec<u8>> = (reports.iter())
            .map(|r| {
                let mut per = vec![0u8; ledger.writes.len()];
                for txn in r.wal.durable_commits() {
                    // (Anti-entropy's synthetic installs have ids of their own.)
                    if let Some(slot) = ledger.write_slot(txn.0) {
                        per[slot] = per[slot].saturating_add(1);
                    }
                }
                per
            })
            .collect();

        // Per-write-transaction checks.
        let mut checked_writes = 0usize;
        let mut committed_writers_of: HashMap<Key, Vec<TxnId>> = HashMap::new();
        for (txn, plan) in plans.iter() {
            checked_writes += 1;
            let ack = ledger.ack(txn).map(|ack| ack.decision);

            // Atomicity: every decision recorded anywhere (including the ack)
            // agrees.
            let mut seen: Option<(Decision, String)> = None;
            let mut check = |d: Decision, whom: String, violate: &mut dyn FnMut(String)| {
                match &seen {
                    Some((prev, prev_whom)) if *prev != d => violate(format!(
                        "{txn}: {whom} decided {d:?} but {prev_whom} decided {prev:?}"
                    )),
                    _ => {}
                }
                if seen.is_none() {
                    seen = Some((d, whom));
                }
            };
            if let Some(d) = ack {
                check(d, "client ack".to_string(), &mut violate);
            }
            for r in reports {
                if let Some(d) = r.finished.get(txn) {
                    check(d, format!("site {}", r.site), &mut violate);
                }
            }

            // Duplicated commit records are a violation everywhere; commit
            // records for an aborted transaction too.
            let slot = ledger.write_slot(txn.0).expect("planned writes are scheduled");
            let commits_at = |site: usize| durable_commits[site][slot];
            for (site, r) in reports.iter().enumerate() {
                let count = commits_at(site);
                if count > 1 {
                    violate(format!("{txn}: {count} durable commit records at site {}", r.site));
                }
                if count > 0 && ack == Some(Decision::Abort) {
                    violate(format!(
                        "{txn}: durable commit record at site {} despite abort ack",
                        r.site
                    ));
                }
            }

            if ack == Some(Decision::Commit) {
                for w in plan.items() {
                    committed_writers_of.entry(w.key.clone()).or_default().push(txn);
                }
                if strict {
                    // Durability: every replica of every involved shard holds
                    // exactly one durable commit record and recorded the commit.
                    for &shard in plan.shards() {
                        for &site in topo.group(shard) {
                            let r = &reports[site.index()];
                            let count = commits_at(site.index());
                            if count != 1 {
                                violate(format!(
                                    "{txn}: committed but site {site} holds {count} durable commit records"
                                ));
                            }
                            if r.finished.get(txn) != Some(Decision::Commit) {
                                violate(format!(
                                    "{txn}: committed but site {site} never recorded it"
                                ));
                            }
                        }
                    }
                }
            }
        }

        // Per-key value checks: every surviving value traces to a committed
        // writer (no phantom/lost writes); replica agreement is computed for
        // every run (the `converged` flag) but only violates in strict mode.
        let mut converged = true;
        for (shard, pool) in pools.iter().enumerate() {
            for key in pool {
                let group = topo.group(shard);
                let legitimate = committed_writers_of.get(key);
                let mut first: Option<(SiteId, Option<Value>)> = None;
                for &site in group {
                    let value = reports[site.index()].storage.get(key).cloned();
                    if let Some(v) = &value {
                        let writer = v.as_u64().map(|id| TxnId(id as u32));
                        let ok =
                            writer.is_some_and(|w| legitimate.is_some_and(|ws| ws.contains(&w)));
                        if !ok {
                            violate(format!(
                                "key {key} at site {site} holds a value from no committed writer"
                            ));
                        }
                    }
                    match &first {
                        None => first = Some((site, value)),
                        Some((first_site, fv)) if *fv != value => {
                            converged = false;
                            if strict {
                                violate(format!(
                                    "key {key}: site {site} and site {first_site} disagree on the value"
                                ));
                            }
                        }
                        _ => {}
                    }
                }
                if strict && legitimate.is_some_and(|ws| !ws.is_empty()) {
                    if let Some((_, None)) = &first {
                        violate(format!(
                            "key {key}: committed writes were lost (no value survives)"
                        ));
                    }
                }
            }
        }

        // Read legitimacy: a returned value must come from an issued write to
        // that key (reads of never-written keys legitimately return nothing).
        let mut checked_reads = 0usize;
        let mut writers_of: HashMap<Key, Vec<TxnId>> = HashMap::new();
        for (txn, plan) in plans.iter() {
            for w in plan.items() {
                writers_of.entry(w.key.clone()).or_default().push(txn);
            }
        }
        for op in ops {
            let OpKind::Read(key) = op.kind(pools) else { continue };
            if ledger.ack(op.txn).is_none() {
                continue;
            }
            checked_reads += 1;
            if let Some(v) = ledger.value_read(op.txn) {
                let ok = v
                    .as_u64()
                    .map(|id| TxnId(id as u32))
                    .is_some_and(|w| writers_of.get(key).is_some_and(|ws| ws.contains(&w)));
                if !ok {
                    violate(format!("read of key {key} returned a value from no issued writer"));
                }
            }
        }

        AuditReport {
            ok: violations.is_empty(),
            strict,
            checked_writes,
            checked_reads,
            converged,
            diverged: None,
            violations,
        }
    }

    /// What an audit reads of a run.
    struct ByHand {
        ops: Vec<ScheduledOp>,
        plans: PlanTable,
        pools: Vec<Vec<Key>>,
        ledger: Ledger,
        reports: Vec<NodeReport>,
    }

    impl ByHand {
        /// What `run_server` audits under `faults` — its `diverged` checked
        /// against `converged`, then cleared — and what the retired audit
        /// said.
        fn audits(&self, faults: &FaultPlan) -> (AuditReport, AuditReport) {
            let strict = faults.partition.episodes().is_empty()
                && faults.failures.is_empty()
                && faults.env_faults.is_empty();
            let (ops, plans, pools) = (&self.ops, &self.plans, &self.pools);
            let judged = self.ledger.judge(ops, plans, pools, &self.reports, faults);
            assert_eq!(judged.converged, judged.diverged.is_none());
            (
                AuditReport { diverged: None, ..judged },
                retired_audit(ops, plans, pools, &self.ledger, &self.reports, strict),
            )
        }
    }

    /// A 300-operation schedule served by hand: every write committed and
    /// acknowledged, and each replica of each involved shard holding its
    /// writes, the decision and its log records — `commit_records(site,
    /// txn)` `Commit`s between the `Begin` and the `Applied`; one each is
    /// what a clean strict run leaves behind.
    fn served_by_hand(commit_records: impl Fn(SiteId, TxnId) -> usize) -> ByHand {
        use ptp_ddb::wal::Record;
        let opts = LiveOptions::small(1_000.0, Duration::from_millis(300));
        let topo = ShardTopology::uniform(opts.sites, opts.shards, opts.replication);
        let pools = topo.key_pool(opts.keys_per_shard);
        let schedule = driver::generate(&opts, &topo, &pools);
        let plans = PlanTable::compile(topo.clone(), &schedule.specs);
        let start = Instant::now();
        let mut ledger = Ledger::new(schedule.writes, schedule.reads);
        for op in schedule.ops.iter() {
            let (txn, at) = (op.txn, start + op.at() + Duration::from_millis(1));
            ledger.record(
                Completion { txn, decision: Decision::Commit, value: None, at, span: None },
                start,
            );
        }
        let mut reports: Vec<NodeReport> = (0..opts.sites as u16)
            .map(|site| NodeReport {
                site: SiteId(site),
                storage: Default::default(),
                wal: Default::default(),
                finished: Default::default(),
                in_flight_at_shutdown: 0,
                counters: NodeCounters::default(),
                flight: None,
            })
            .collect();
        for (txn, plan) in plans.iter() {
            let sites = plan.group().iter().copied().chain(plan.replicas());
            for site in sites {
                let r = &mut reports[site.index()];
                let writes = plan.writes_at(site).expect("a member stages").to_vec();
                for w in &writes {
                    r.storage.seed(w.key.clone(), w.value.clone());
                }
                r.wal.append(Record::Begin { txn, writes });
                for _ in 0..commit_records(site, txn) {
                    r.wal.append(Record::Commit { txn });
                }
                r.wal.append_durable(Record::Applied { txn });
                r.finished.insert(txn, Decision::Commit);
            }
        }
        ByHand { ops: schedule.ops, plans, pools, ledger, reports }
    }

    /// Uniform in `0..n`.
    fn pick(rng: &mut SmallRng, n: usize) -> usize {
        rng.gen_range(0..=n as u64 - 1) as usize
    }

    /// How often to plant one kind of remains: none in two cases of three,
    /// else up to `most`.
    fn times(rng: &mut SmallRng, most: usize) -> usize {
        if pick(rng, 3) == 0 {
            1 + pick(rng, most)
        } else {
            0
        }
    }

    /// Random remains planted into a run served by hand: duplicated and
    /// missing commit records (below a checkpoint too), flipped `finished`
    /// entries, foreign values, diverged replicas, missing and abort acks,
    /// reads of legitimate and foreign values, duplicate and stray acks.
    fn planted(rng: &mut SmallRng) -> ByHand {
        let clean = served_by_hand(|_, _| 1);
        let plans: Vec<(TxnId, Vec<SiteId>)> = (clean.plans.iter())
            .map(|(txn, plan)| (txn, plan.group().iter().copied().chain(plan.replicas()).collect()))
            .collect();
        let member = |rng: &mut SmallRng| {
            let (txn, sites) = &plans[pick(rng, plans.len())];
            (sites[pick(rng, sites.len())], *txn)
        };
        let records: HashMap<(SiteId, TxnId), usize> =
            (0..times(rng, 3)).map(|_| (member(rng), pick(rng, 3))).collect();
        let mut run = served_by_hand(|site, txn| records.get(&(site, txn)).copied().unwrap_or(1));
        for r in &mut run.reports {
            if pick(rng, 2) == 1 {
                r.wal.checkpoint();
            }
        }
        for _ in 0..times(rng, 12) {
            let (site, txn) = member(rng);
            run.reports[site.index()].finished.insert(txn, Decision::Abort);
        }
        let topo = &run.plans.topology;
        for _ in 0..times(rng, 3) {
            let pool = &run.pools[pick(rng, run.pools.len())];
            let key = &pool[pick(rng, pool.len())];
            let group = topo.group(topo.shard_of(key));
            let site = group[pick(rng, group.len())];
            let value = match pick(rng, 2) {
                // A foreign value, or one some write carried: a replica that
                // diverged without leaving the writers' values.
                0 => Value::from_u64(0xBAD_FACE),
                _ => Value::from_u64(plans[pick(rng, plans.len())].0 .0 as u64),
            };
            run.reports[site.index()].storage.seed(key.clone(), value);
        }
        let ledger = &mut run.ledger;
        for _ in 0..times(rng, 3) {
            let slot = pick(rng, ledger.writes.len());
            match pick(rng, 2) {
                0 => ledger.writes[slot] = None,
                _ => ledger.writes[slot].iter_mut().for_each(|a| a.decision = Decision::Abort),
            }
        }
        for _ in 0..times(rng, 4) {
            let slot = pick(rng, ledger.reads.len());
            let value = match pick(rng, 2) {
                0 => Value::from_u64(0xBAD_FACE),
                _ => Value::from_u64(pick(rng, ledger.writes.len()) as u64 + 1),
            };
            ledger.reads[slot].iter_mut().for_each(|(_, read)| *read = Some(value.clone()));
        }
        if times(rng, 1) > 0 {
            ledger.duplicates += 1;
            ledger.strays.push(READ_BASE - 1);
        }
        run
    }

    #[test]
    fn the_ledger_audit_says_what_the_retired_audit_said() {
        let mut crashed = FaultPlan::default();
        crashed.failures.push(FailureSpec::crash(SiteId(5), SimTime(0)));
        let cases = if cfg!(debug_assertions) { 48 } else { 400 };
        let (mut failed, mut capped) = (0, 0);
        for case in 0..cases {
            let run = planted(&mut SmallRng::seed_from_u64(case));
            for faults in [&FaultPlan::default(), &crashed] {
                let (now, retired) = run.audits(faults);
                assert_eq!(format!("{now:?}"), format!("{retired:?}"), "case {case}");
                failed += usize::from(!now.ok);
                capped += usize::from(now.violations.len() == MAX_VIOLATIONS);
            }
        }
        assert!(failed > 0 && failed < 2 * cases as usize, "{failed} of {cases} failed");
        assert!(capped > 0, "no case reached the line cap");
    }

    #[test]
    fn a_ledger_slot_is_sixteen_bytes_a_write_and_forty_a_read() {
        assert_eq!(std::mem::size_of::<Option<Ack>>(), 16);
        assert_eq!(std::mem::size_of::<Option<(Ack, Option<Value>)>>(), 40);
    }

    #[test]
    fn ledger_tells_fresh_duplicate_and_stray_acks_apart() {
        let start = Instant::now();
        let ack = |id: u32, value: Option<Value>| Completion {
            txn: TxnId(id),
            decision: Decision::Commit,
            value,
            at: start + Duration::from_micros(id as u64 % 1000),
            span: None,
        };
        let mut ledger = Ledger::new(2, 1);
        ledger.record(ack(1, None), start);
        ledger.record(ack(READ_BASE, Some(Value::from_u64(1))), start);
        ledger.record(ack(1, None), start);
        ledger.record(ack(0, None), start);
        ledger.record(ack(3, None), start);
        ledger.record(ack(READ_BASE + 1, None), start);
        assert_eq!((ledger.acked, ledger.duplicates), (2, 1));
        assert_eq!(ledger.strays, [0, 3, READ_BASE + 1]);
        assert_eq!(ledger.ack(TxnId(1)).map(|a| a.at_ns), Some(1_000));
        assert!(ledger.ack(TxnId(2)).is_none() && ledger.ack(TxnId(3)).is_none());
        assert_eq!(ledger.value_read(TxnId(READ_BASE)).and_then(Value::as_u64), Some(1));
        assert_eq!(ledger.value_read(TxnId(1)), None);
    }
}
