//! The live site thread: [`SiteCore`] — the very site the simulator runs —
//! hosted on an OS thread behind an mpsc mailbox, on the wall clock.
//!
//! The host owns what is about *this* environment and nothing else: the
//! mailbox loop, a wall-clock timer table, the simulated fsync, the client
//! acks ([`Completion`]) and the observability instruments. Two things
//! exist only here:
//!
//! * **Group-commit WAL batching** — with [`BatchConfig::enabled`],
//!   [`Host::flush`] defers: log records stay volatile and flush once per
//!   batch window (paying the simulated stable-storage cost once for the
//!   whole batch); the core acknowledges each committed transaction after
//!   the flush that made its commit record durable. With batching off,
//!   every force point of the simulator (`Begin`, `Commit`, `Applied`,
//!   `Abort`) pays the cost on the spot.
//! * **Protocol-message coalescing** — outgoing messages buffer per
//!   destination and ride one channel send (one [`Packet`]) per window.
//!   The window order is load-bearing: the WAL flushes, the core is told
//!   ([`Hosted::flushed`](ptp_ddb::core::Hosted::flushed) releases what it
//!   held back), *then* the buffers drain — so no vote or decision
//!   physically leaves the site before the log records that precede it are
//!   durable.

use crate::config::{BatchConfig, LiveOptions};
use ptp_ddb::core::{Host, SiteCore, SiteEvent, TimerKey, Via};
use ptp_ddb::plan::{PlanTable, TxnView};
use ptp_ddb::site::{DbMsg, ParticipantFactory, ReadPath};
use ptp_ddb::value::{Decisions, TxnId, Value};
use ptp_ddb::wal::Wal;
use ptp_ddb::{ShardNodeOpts, Storage};
use ptp_livenet::{Inbound, Outbound, Timers};
use ptp_model::Decision;
use ptp_obs::{FlightRecorder, ObsConfig, TxnSpan};
use ptp_simnet::{Payload, SiteId};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use ptp_ddb::core::{CLIENT_READ, CLIENT_XACT};

/// What rides the router between live sites: one or more [`DbMsg`]s — the
/// wire type of the simulator — to the same destination, coalesced into a
/// single channel send with a single sampled delay.
#[derive(Debug, Clone)]
pub struct Packet(pub Vec<DbMsg>);

impl ptp_livenet::Tagged for Packet {
    /// A coalesced packet is matched by its first inner message's kind —
    /// with coalescing off (the fault-injection configuration), every
    /// packet carries exactly one message and this is exact.
    fn tag(&self) -> &'static str {
        self.0.first().map_or("empty", Payload::kind)
    }
}

/// A client-visible operation outcome, sent to the harness as it happens.
#[derive(Debug)]
pub struct Completion {
    /// The operation (write plan or read id).
    pub txn: TxnId,
    /// Commit/abort for writes; reads always "commit".
    pub decision: Decision,
    /// The value a read returned (`None` for writes and missing keys).
    pub value: Option<Value>,
    /// When the acknowledging site completed it.
    pub at: Instant,
    /// Stage boundaries the serving node stamped (`None` unless
    /// [`ObsConfig::spans`] is on).
    pub span: Option<TxnSpan>,
}

/// What a site thread hands back at shutdown.
#[derive(Debug)]
pub struct NodeReport {
    /// The site.
    pub site: SiteId,
    /// Committed storage at shutdown.
    pub storage: Storage,
    /// The WAL at shutdown (after a final window flush).
    pub wal: Wal,
    /// Every decision this site recorded.
    pub finished: Decisions,
    /// Transactions still in flight at shutdown (0 = clean drain).
    pub in_flight_at_shutdown: usize,
    /// What the site counted while it ran.
    pub counters: NodeCounters,
    /// The site's flight recorder (`None` unless a capacity was
    /// configured), carrying the event tail for failure dumps.
    pub flight: Option<FlightRecorder>,
}

/// A site thread's running tallies.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounters {
    /// Stable-storage flushes paid (each cost `flush_cost`).
    pub flushes: u64,
    /// Channel sends to the router.
    pub channel_sends: u64,
    /// Protocol messages carried (≥ `channel_sends` when coalescing).
    pub protocol_messages: u64,
    /// Reads served on the master-lease fast path (no lock round).
    pub reads_lease: u64,
    /// Reads served under a shared lock from committed storage.
    pub reads_local: u64,
    /// Anti-entropy catch-ups this site installed as a replica: replayed
    /// commits and delta batches.
    pub sync_installs: u64,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The core's environment on a site thread (host time = nanoseconds since
/// the run's `start`).
struct ThreadHost {
    me: SiteId,
    plans: Arc<PlanTable>,
    /// The wall-clock timer table: about one armed timer per transaction
    /// in flight, consulted on every pass of the mailbox loop.
    timers: Timers<TimerKey>,
    /// `T`, in host time.
    t: u64,
    batch: BatchConfig,
    flush_cost: Duration,
    outbuf: Vec<Vec<DbMsg>>,
    router: Sender<Outbound<Packet>>,
    completions: Sender<Completion>,
    crashed: bool,
    counters: NodeCounters,
    /// Observability policy: which of the instruments below are live.
    obs: ObsConfig,
    /// Run start: the zero point of host time and flight-recorder stamps.
    start: Instant,
    /// Stage spans of the operations submitted here and still in flight
    /// (populated only with [`ObsConfig::spans`]).
    spans: HashMap<TxnId, TxnSpan>,
    /// The per-site event ring (`None` = the Null path).
    flight: Option<FlightRecorder>,
}

impl ThreadHost {
    /// Records a flight event when the recorder is on (the Null path is a
    /// single branch).
    fn flight_log(&mut self, kind: &'static str, tag: &'static str, a: u64, b: u64) {
        if let Some(f) = &mut self.flight {
            let at_us = self.start.elapsed().as_micros() as u64;
            f.log(at_us, self.me.0 as u64, kind, tag, a, b);
        }
    }

    /// Pays for one stable-storage flush: busy-holds the site for
    /// `flush_cost` (the simulated fsync).
    fn spin_flush(&mut self) {
        if !self.flush_cost.is_zero() {
            let until = Instant::now() + self.flush_cost;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        self.counters.flushes += 1;
    }

    fn drain_outbufs(&mut self) {
        for (dst, buf) in self.outbuf.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.counters.channel_sends += 1;
                let msg = Packet(std::mem::take(buf));
                let _ = self.router.send(Outbound { src: self.me, dst: SiteId(dst as u16), msg });
            }
        }
    }

    /// Acknowledges an operation to its client, closing its span.
    fn ack(&mut self, txn: TxnId, decision: Decision, value: Option<Value>, span: Option<TxnSpan>) {
        let _ =
            self.completions.send(Completion { txn, decision, value, at: Instant::now(), span });
    }
}

impl Host for ThreadHost {
    fn now(&self) -> u64 {
        nanos(self.start.elapsed())
    }

    fn t(&self, units: u64) -> u64 {
        self.t * units
    }

    fn send(&mut self, dst: SiteId, msg: DbMsg) {
        self.counters.protocol_messages += 1;
        self.flight_log("send", msg.kind(), msg.txn.0 as u64, dst.0 as u64);
        // The span of the operation's master counts the messages it sent:
        // the rounds its stage table reports.
        if let Some(span) = self.spans.get_mut(&msg.txn) {
            span.rounds += 1;
        }
        if self.batch.enabled() {
            self.outbuf[dst.index()].push(msg);
        } else {
            self.counters.channel_sends += 1;
            let _ = self.router.send(Outbound { src: self.me, dst, msg: Packet(vec![msg]) });
        }
    }

    fn set_timer(&mut self, key: TimerKey, after: u64) {
        self.timers.set(key, self.now() + after);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.timers.cancel(key);
    }

    fn flush(&mut self, wal: &mut Wal) -> bool {
        if self.batch.enabled() {
            return false; // the window tick flushes
        }
        self.spin_flush();
        wal.flush();
        true
    }

    fn event(&mut self, event: SiteEvent) {
        let now = Instant::now();
        match event {
            SiteEvent::Submitted { txn, read } if self.obs.spans => {
                let write = || self.plans.get(txn).map_or("write-single", TxnView::path_tag);
                let path = if read { "read-local" } else { write() };
                self.spans.insert(txn, TxnSpan::begin(path, now));
            }
            SiteEvent::LockWait { txn, .. } => {
                self.flight_log("lock", "park", txn.0 as u64, 0);
                if let Some(span) = self.spans.get_mut(&txn).filter(|s| s.path == "read-local") {
                    span.path = "read-parked";
                }
            }
            SiteEvent::LocksHeld { txn } => {
                self.flight_log("lock", "grant", txn.0 as u64, 0);
                if let Some(span) = self.spans.get_mut(&txn) {
                    span.locked.get_or_insert(now);
                }
            }
            SiteEvent::Decided { txn, decision } => {
                let tag = if decision == Decision::Commit { "commit" } else { "abort" };
                self.flight_log("decide", tag, txn.0 as u64, 0);
                if let Some(span) = self.spans.get_mut(&txn) {
                    span.decided.get_or_insert(now);
                }
            }
            SiteEvent::Completed { txn, via: Via::Sync | Via::Replay, .. } => {
                self.counters.sync_installs += 1;
                self.flight_log("sync", "install", txn.0 as u64, 0);
            }
            SiteEvent::Completed { txn, decision, master, .. } => {
                let span = self.spans.remove(&txn);
                if master {
                    self.ack(txn, decision, None, span);
                }
            }
            SiteEvent::ReadServed { txn, path, values } => {
                let mut span = self.spans.remove(&txn);
                if path == ReadPath::Lease {
                    self.counters.reads_lease += 1;
                    span = span.map(|s| TxnSpan { path: "read-lease", ..s });
                } else {
                    self.counters.reads_local += 1;
                    self.flight_log("lock", "grant", txn.0 as u64, 1);
                    span = span.map(|s| TxnSpan { locked: s.locked.or(Some(now)), ..s });
                }
                let value = values.into_iter().next().and_then(|(_, value)| value);
                self.ack(txn, Decision::Commit, value, span);
            }
            _ => {}
        }
    }
}

/// One live database site: the core and its thread host.
pub struct LiveNode {
    core: SiteCore,
    host: ThreadHost,
}

impl LiveNode {
    /// A site hosting its slice of the plan table, configured by `opts`.
    /// The factory is built by the caller *inside the site thread*
    /// (participant builders are `Rc`-based and must not cross threads).
    pub fn new(
        me: SiteId,
        plans: Arc<PlanTable>,
        factory: ParticipantFactory,
        opts: &LiveOptions,
        start: Instant,
        router: Sender<Outbound<Packet>>,
        completions: Sender<Completion>,
    ) -> LiveNode {
        let site_opts = ShardNodeOpts {
            lease: opts
                .lease
                .map(|l| ptp_ddb::lease::LeaseConfig::new(nanos(l.period), nanos(l.duration))),
            anti_entropy: opts.anti_entropy.map(nanos),
        };
        let obs = opts.obs;
        let host = ThreadHost {
            me,
            plans: plans.clone(),
            timers: Timers::default(),
            t: nanos(opts.t),
            batch: opts.batch,
            flush_cost: opts.flush_cost,
            outbuf: vec![Vec::new(); plans.topology.sites()],
            router,
            completions,
            crashed: false,
            counters: NodeCounters::default(),
            flight: (obs.flight_capacity > 0).then(|| FlightRecorder::new(obs.flight_capacity)),
            obs,
            start,
            spans: HashMap::new(),
        };
        LiveNode { core: SiteCore::new(me, plans, factory, Default::default(), site_opts), host }
    }

    /// The group-commit window: flush the WAL (making every record appended
    /// since the last window durable), let the core finalize the commits
    /// that flush covered and release what it held back, then drain the
    /// coalescing buffers — in that order, so nothing leaves the site ahead
    /// of its log records. Finalizing can unpark a waiter, whose vote then
    /// waits for its own `Begin` record: that costs one more flush here, not
    /// a whole window there.
    fn window_tick(&mut self) {
        loop {
            if self.core.wal().unflushed() > 0 {
                self.host.spin_flush();
            }
            if !self.core.with(&mut self.host).flushed() {
                break;
            }
        }
        self.host.drain_outbufs();
    }

    /// Fires the timers due at `now`, one at a time: a handler may re-arm or
    /// cancel any of the others, so the table is consulted afresh for each.
    fn fire_due_timers(&mut self, now: u64) {
        while let Some(key) = self.host.timers.pop_due(now) {
            // Due-while-down timers are discarded unfired.
            if !self.host.crashed {
                self.core.with(&mut self.host).on_timer(key);
            }
        }
    }

    /// Runs until `Shutdown` (or every sender hangs up). Returns the
    /// shutdown report after one final window flush, so in-flight group
    /// commits that already decided are finalized rather than stranded.
    pub fn run(mut self, inbox: Receiver<Inbound<Packet>>) -> NodeReport {
        // The first lease renewal round goes out immediately, so grants arm
        // before the first reads arrive.
        self.core.with(&mut self.host).start();
        let window = nanos(self.host.batch.window);
        let mut next_tick = self.host.now() + window;
        loop {
            let now = self.host.now();
            self.fire_due_timers(now);
            if self.host.batch.enabled() && now >= next_tick {
                if !self.host.crashed {
                    self.window_tick();
                }
                next_tick = now + window;
            }
            let mut wake = self.host.timers.next_deadline().unwrap_or(now + 20_000_000);
            if self.host.batch.enabled() {
                wake = wake.min(next_tick);
            }
            match inbox.recv_timeout(Duration::from_nanos(wake.saturating_sub(now))) {
                Ok(Inbound::Deliver { src, msg }) if !self.host.crashed => {
                    for m in msg.0 {
                        self.host.flight_log("recv", m.kind(), m.txn.0 as u64, src.0 as u64);
                        self.core.with(&mut self.host).on_message(src, m);
                    }
                }
                Ok(Inbound::Undeliverable { original_dst, msg }) if !self.host.crashed => {
                    for m in msg.0 {
                        self.core.with(&mut self.host).on_undeliverable(original_dst, m);
                    }
                }
                // Crash: go silent. Volatile state is wiped on recovery, the
                // host's with the core's.
                Ok(Inbound::Crash) => {
                    self.host.flight_log("fault", "crash", 0, 0);
                    self.host.crashed = true;
                }
                Ok(Inbound::Recover) => {
                    self.host.flight_log("fault", "recover", 0, 0);
                    self.host.spans.clear();
                    self.host.timers.clear();
                    self.host.outbuf.iter_mut().for_each(Vec::clear);
                    self.core.with(&mut self.host).recover();
                    self.host.crashed = false;
                }
                Ok(Inbound::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            }
        }
        if self.host.batch.enabled() && !self.host.crashed {
            self.window_tick();
        }
        let (host, in_flight_at_shutdown) = (self.host, self.core.in_flight());
        let (storage, wal, finished) = self.core.into_parts();
        NodeReport {
            site: host.me,
            storage,
            wal,
            finished,
            in_flight_at_shutdown,
            counters: host.counters,
            flight: host.flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_ddb::ShardTopology;
    use std::sync::mpsc;

    const LEASE: TimerKey = TimerKey::Lease(0);
    const SYNC: TimerKey = TimerKey::Sync(0);

    #[test]
    fn timers_due_while_the_site_is_down_are_discarded_unfired() {
        // Site 0 masters shard 0 with leases on: a fired lease timer would
        // solicit its replica through the router.
        let mut opts = LiveOptions::small(100.0, Duration::from_millis(100));
        opts.lease =
            Some(crate::LeaseConfig::new(Duration::from_millis(10), Duration::from_millis(50)));
        let topo = ShardTopology::uniform(opts.sites, opts.shards, opts.replication);
        let plans = Arc::new(PlanTable::compile(topo, &[]));
        let factory = ParticipantFactory::pooled(opts.protocol.participant_builder());
        let (router_tx, router_rx) = mpsc::channel();
        let (completions_tx, _completions_rx) = mpsc::channel();
        let start = Instant::now();
        let mut node =
            LiveNode::new(SiteId(0), plans, factory, &opts, start, router_tx, completions_tx);
        node.host.timers.set(LEASE, 5);
        node.host.timers.set(SYNC, 50);
        node.host.crashed = true;
        node.fire_due_timers(10);
        assert_eq!(node.host.timers.next_deadline(), Some(50), "the due timer is gone");
        assert!(router_rx.try_recv().is_err(), "a crashed site fired a timer");
        // The same timer on a live site does fire.
        node.host.crashed = false;
        node.host.timers.set(LEASE, 5);
        node.fire_due_timers(10);
        assert!(router_rx.try_recv().is_ok(), "the lease round went out");
    }
}
