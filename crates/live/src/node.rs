//! The live site thread: `ptp-ddb`'s planning/storage/protocol stack
//! driven by wall-clock messages and timers instead of the simulator.
//!
//! A [`LiveNode`] mirrors `ptp_ddb::node::ShardNode` — the one simulated
//! site actor, which the flat `DbCluster` runs on too: same plan-routed
//! virtual site ids, same lock/WAL/storage discipline, same cross-shard
//! outcome shipping — re-hosted on an OS thread behind an mpsc mailbox.
//! Two things exist only here:
//!
//! * **Group-commit WAL batching** — with [`BatchConfig::enabled`], log
//!   records are appended volatile and flushed once per batch window
//!   (paying the simulated stable-storage cost once for the whole batch);
//!   each committed transaction is acknowledged individually after the
//!   flush that made its commit record durable. With batching off, every
//!   flush point of the simulator (`Begin`, `Commit`, `Applied`, `Abort`
//!   force writes) pays the cost on the spot.
//! * **Protocol-message coalescing** — outgoing messages buffer per
//!   destination and ride one channel send (one [`Packet`]) per window.
//!   The window flush order is load-bearing: the WAL flushes *before* the
//!   buffers drain, so no vote or decision physically leaves the site
//!   before the log records that precede it are durable.

use crate::config::{BatchConfig, LeaseConfig};
use ptp_ddb::locks::{LockGrant, LockMode, LockTable};
use ptp_ddb::site::{ParticipantFactory, ParticipantPool};
use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_ddb::wal::{Record, Wal};
use ptp_ddb::Storage;
use ptp_livenet::{Inbound, Outbound};
use ptp_model::Decision;
use ptp_obs::{FlightRecorder, ObsConfig, TxnSpan};
use ptp_protocols::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use ptp_shard::plan::PlanTable;
use ptp_shard::{LEASE_ACK, LEASE_RENEW, SHARD_ABORT, SHARD_APPLY, SYNC_REQ, SYNC_RESP};
use ptp_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message kind a client driver injects to submit a planned write
/// transaction at its master.
pub const CLIENT_XACT: &str = "client-xact";
/// Message kind a client driver injects to read one key at its shard
/// master (carries the key as a dummy `WriteOp`).
pub const CLIENT_READ: &str = "client-read";
/// Read operations use transaction ids at or above this; write plans never
/// do, so the two namespaces cannot collide.
pub const READ_BASE: u32 = 0x8000_0000;
/// Synthetic transaction ids for anti-entropy installs: each delta a
/// replica accepts lands in its WAL under a fresh id from this range.
pub const SYNC_APPLY_BASE: u32 = 0xC000_0000;
/// Lease-renewal control ids: `LEASE_CTRL_BASE | round << 8 | shard`. The
/// round byte lets the master discard acks of superseded renewals, so a
/// grant is never anchored later than the renewal its replica answered.
pub const LEASE_CTRL_BASE: u32 = 0xFFFE_0000;
/// Anti-entropy control ids: `SYNC_CTRL_BASE | shard`.
pub const SYNC_CTRL_BASE: u32 = 0xFFFF_0000;

/// One protocol-or-control message between sites.
#[derive(Debug, Clone)]
pub struct WireMsg {
    /// Which transaction this belongs to.
    pub txn: TxnId,
    /// The commit-protocol (or shipping/client) message.
    pub inner: CommitMsg,
    /// Attached write set (`xact` and `shard-apply` carry one; reads carry
    /// their key as a single dummy write).
    pub writes: Option<Vec<WriteOp>>,
    /// Per-key versions assigned by the sending shard master at commit.
    /// Replicas install a shipped write only if its version is newer than
    /// what they already hold — ships to the same key ride independent
    /// delays and can arrive out of commit order (see `LiveNode` docs).
    pub versions: Option<Vec<(Key, u64)>>,
}

/// What rides the router between live sites: one or more [`WireMsg`]s to
/// the same destination, coalesced into a single channel send with a single
/// sampled delay.
#[derive(Debug, Clone)]
pub struct Packet(pub Vec<WireMsg>);

impl ptp_livenet::Tagged for Packet {
    /// A coalesced packet is matched by its first inner message's kind —
    /// with coalescing off (the fault-injection configuration), every
    /// packet carries exactly one message and this is exact.
    fn tag(&self) -> &'static str {
        self.0.first().map_or("empty", |m| ptp_simnet::Payload::kind(&m.inner))
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
    pub finished: BTreeMap<TxnId, Decision>,
    /// Transactions still in flight at shutdown (0 = clean drain).
    pub in_flight_at_shutdown: usize,
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
    /// Anti-entropy deltas this site installed as a replica.
    pub sync_installs: u64,
    /// The site's flight recorder (`None` unless a capacity was
    /// configured), carrying the event tail for failure dumps.
    pub flight: Option<FlightRecorder>,
}

/// Per-transaction protocol state: which pool slot runs it.
struct TxnSlot {
    pool: (u16, u16),
    participant: usize,
}

/// A transaction waiting for locks (mirrors `ptp_ddb::node`'s `Parked`).
enum Parked {
    Xact {
        from: SiteId,
        writes: Vec<WriteOp>,
    },
    Apply {
        writes: Vec<WriteOp>,
        versions: Option<Vec<(Key, u64)>>,
    },
    /// A client read queued behind a conflicting exclusive holder; served
    /// (and acked) the moment its shared grant arrives.
    Read {
        key: Key,
    },
}

/// A decided transaction waiting for the group-commit flush that makes its
/// commit record durable (batching mode only; locks stay held until the
/// window finalizes it).
enum PendingFinal {
    /// Decided by this site's protocol participant (acked/shipped by the
    /// window flush).
    Decide(TxnId),
    /// A shipped cross-shard apply.
    Apply(TxnId),
}

/// One live database site.
pub struct LiveNode {
    me: SiteId,
    n: usize,
    plans: Arc<PlanTable>,
    factory: ParticipantFactory,
    pools: BTreeMap<(u16, u16), ParticipantPool>,
    storage: Storage,
    wal: Wal,
    locks: LockTable,
    slots: BTreeMap<TxnId, TxnSlot>,
    parked: BTreeMap<TxnId, Parked>,
    pending: Vec<PendingFinal>,
    pending_set: BTreeSet<TxnId>,
    finished: BTreeMap<TxnId, Decision>,
    /// Wall-clock protocol timers with re-arm generations (see
    /// `ptp-livenet`'s site runner for why the generation is load-bearing).
    timers: HashMap<(TxnId, TimerTag), (Instant, u64)>,
    generation: u64,
    t: Duration,
    batch: BatchConfig,
    flush_cost: Duration,
    outbuf: Vec<Vec<WireMsg>>,
    /// Per-key write versions. Each key's shard master is the version
    /// authority: it assigns the next version at every commit touching the
    /// key (its lock table serializes them). Everyone else — group slaves
    /// applying through the protocol, replicas installing ships — adopts
    /// the stamped version, and ships older than what is already installed
    /// are skipped. Without this, two ships racing through the router (or a
    /// ship racing a later protocol commit) could install out of commit
    /// order and leave a replica permanently behind the master.
    key_version: HashMap<Key, u64>,
    /// Versions this site assigned (as authority) at commit, keyed by
    /// transaction; attached to every outgoing message of that transaction.
    out_stamps: HashMap<TxnId, Vec<(Key, u64)>>,
    /// Versions received for transactions this site has not yet committed.
    in_stamps: HashMap<TxnId, Vec<(Key, u64)>>,
    router: Sender<Outbound<Packet>>,
    completions: Sender<Completion>,
    crashed: bool,
    flushes: u64,
    channel_sends: u64,
    protocol_messages: u64,
    /// Master-lease configuration (`None` = no read fast path).
    lease: Option<LeaseConfig>,
    /// Anti-entropy polling period (`None` = no replica catch-up chain).
    anti_entropy: Option<Duration>,
    /// As master: per-(shard, replica) grant expiry. The fast path needs
    /// every replica's grant live *now* — a lapsed grant (partition,
    /// crash, or sheer delay) silently demotes reads to the lock path.
    lease_grants: HashMap<(usize, u16), Instant>,
    /// As master: send instants of recent renewal rounds, keyed by
    /// `(shard, round)`. An ack arms a grant anchored at the instant *its*
    /// round went out — a slow ack arms a correspondingly shorter grant,
    /// never one extended past what the replica promised. Rounds older
    /// than a grant lifetime are pruned (their grants would be dead).
    lease_rounds: HashMap<(usize, u8), Instant>,
    lease_round_seq: u8,
    /// As replica: fresh ids for anti-entropy installs.
    sync_seq: u32,
    reads_lease: u64,
    reads_local: u64,
    sync_installs: u64,
    /// Observability policy: which of the instruments below are live.
    obs: ObsConfig,
    /// Run start, the zero point for flight-recorder timestamps.
    start: Instant,
    /// In-flight stage spans (populated only with [`ObsConfig::spans`]).
    spans: HashMap<TxnId, TxnSpan>,
    /// The per-site event ring (`None` = the Null path).
    flight: Option<FlightRecorder>,
}

impl LiveNode {
    /// A site hosting its slice of the plan table. The factory is built by
    /// the caller *inside the site thread* (participant builders are
    /// `Rc`-based and must not cross threads).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: SiteId,
        plans: Arc<PlanTable>,
        factory: ParticipantFactory,
        t: Duration,
        batch: BatchConfig,
        flush_cost: Duration,
        lease: Option<LeaseConfig>,
        anti_entropy: Option<Duration>,
        obs: ObsConfig,
        start: Instant,
        router: Sender<Outbound<Packet>>,
        completions: Sender<Completion>,
    ) -> LiveNode {
        let n = plans.topology.sites();
        assert!(me.index() < n);
        LiveNode {
            me,
            n,
            plans,
            factory,
            pools: BTreeMap::new(),
            storage: Storage::new(),
            wal: Wal::new(),
            locks: LockTable::new(),
            slots: BTreeMap::new(),
            parked: BTreeMap::new(),
            pending: Vec::new(),
            pending_set: BTreeSet::new(),
            finished: BTreeMap::new(),
            timers: HashMap::new(),
            generation: 0,
            t,
            batch,
            flush_cost,
            outbuf: (0..n).map(|_| Vec::new()).collect(),
            key_version: HashMap::new(),
            out_stamps: HashMap::new(),
            in_stamps: HashMap::new(),
            router,
            completions,
            crashed: false,
            flushes: 0,
            channel_sends: 0,
            protocol_messages: 0,
            lease,
            anti_entropy,
            lease_grants: HashMap::new(),
            lease_rounds: HashMap::new(),
            lease_round_seq: 0,
            sync_seq: 0,
            reads_lease: 0,
            reads_local: 0,
            sync_installs: 0,
            flight: (obs.flight_capacity > 0).then(|| FlightRecorder::new(obs.flight_capacity)),
            obs,
            start,
            spans: HashMap::new(),
        }
    }

    // ---- observability ----

    /// Records a flight event when the recorder is on (the Null path is a
    /// single branch).
    fn flight_log(&mut self, kind: &'static str, tag: &'static str, a: u64, b: u64) {
        if let Some(f) = &mut self.flight {
            let at_us = Instant::now().saturating_duration_since(self.start).as_micros() as u64;
            f.log(at_us, self.me.0 as u64, kind, tag, a, b);
        }
    }

    /// Marks the lock-grant boundary on an in-flight span (idempotent: the
    /// first grant instant wins, so an unpark does not overwrite it).
    fn span_mark_locked(&mut self, txn: TxnId, now: Instant) {
        if let Some(s) = self.spans.get_mut(&txn) {
            if s.locked.is_none() {
                s.locked = Some(now);
            }
        }
    }

    /// Marks the protocol-decision boundary on an in-flight span.
    fn span_mark_decided(&mut self, txn: TxnId) {
        if let Some(s) = self.spans.get_mut(&txn) {
            if s.decided.is_none() {
                s.decided = Some(Instant::now());
            }
        }
    }

    // ---- stable storage ----

    /// One stable-storage flush: busy-holds the site for `flush_cost`
    /// (the simulated fsync) and advances the WAL watermark.
    fn spin_flush(&mut self) {
        if !self.flush_cost.is_zero() {
            let until = Instant::now() + self.flush_cost;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        self.wal.flush();
        self.flushes += 1;
    }

    /// A force write: append + immediate flush (the batching-off path,
    /// mirroring the simulator's `append_durable` flush points).
    fn force(&mut self, rec: Record) {
        self.wal.append(rec);
        self.spin_flush();
    }

    // ---- outgoing messages ----

    fn send_wire(&mut self, dst: SiteId, mut msg: WireMsg) {
        // Every message of a committed transaction carries the versions this
        // site assigned as authority, so whatever message triggers the
        // receiver's apply delivers them.
        if msg.versions.is_none() {
            if let Some(stamps) = self.out_stamps.get(&msg.txn) {
                msg.versions = Some(stamps.clone());
            }
        }
        self.protocol_messages += 1;
        if self.flight.is_some() {
            let tag = ptp_simnet::Payload::kind(&msg.inner);
            self.flight_log("send", tag, msg.txn.0 as u64, dst.0 as u64);
        }
        if self.batch.enabled {
            self.outbuf[dst.index()].push(msg);
        } else {
            self.channel_sends += 1;
            let _ = self.router.send(Outbound { src: self.me, dst, msg: Packet(vec![msg]) });
        }
    }

    fn flush_outbufs(&mut self) {
        for dst in 0..self.n {
            if !self.outbuf[dst].is_empty() {
                let msgs = std::mem::take(&mut self.outbuf[dst]);
                self.channel_sends += 1;
                let _ = self.router.send(Outbound {
                    src: self.me,
                    dst: SiteId(dst as u16),
                    msg: Packet(msgs),
                });
            }
        }
    }

    /// The group-commit window: flush the WAL once (making every record
    /// appended since the last window durable), finalize the commits that
    /// flush covered, then drain the coalescing buffers — in that order, so
    /// nothing leaves the site ahead of its log records.
    fn window_tick(&mut self) {
        if self.wal.unflushed() > 0 {
            self.spin_flush();
        }
        for pf in std::mem::take(&mut self.pending) {
            match pf {
                PendingFinal::Decide(txn) => {
                    self.storage.apply(txn);
                    self.wal.append(Record::Applied { txn });
                    self.pending_set.remove(&txn);
                    self.complete_commit(txn);
                }
                PendingFinal::Apply(txn) => {
                    self.storage.apply(txn);
                    self.wal.append(Record::Applied { txn });
                    self.pending_set.remove(&txn);
                    self.finished.insert(txn, Decision::Commit);
                    self.release_and_unpark(txn);
                }
            }
        }
        self.flush_outbufs();
    }

    // ---- per-key write versions ----

    /// Is this site the version authority for `key` (its shard's master)?
    fn is_authority(&self, key: &Key) -> bool {
        let topo = &self.plans.topology;
        topo.master(topo.shard_of(key)) == self.me
    }

    /// Assigns/adopts per-key versions at commit time, *before* the commit
    /// record is appended, so every later outgoing message (and the
    /// deferred group-commit apply) sees them. Authority keys get the next
    /// version (the lock table serializes commits per key, so assignment
    /// order is commit order); stamped keys adopt the master's version;
    /// unstamped non-authority keys (termination-protocol decisions carry
    /// no stamp) fall back to a local bump.
    fn assign_versions(&mut self, txn: TxnId) {
        let writes: Vec<WriteOp> =
            self.storage.staged_writes(txn).map(|ws| ws.to_vec()).unwrap_or_default();
        let stamps_in = self.in_stamps.remove(&txn);
        let mut assigned = Vec::new();
        for w in &writes {
            let authority = self.is_authority(&w.key);
            let stamped = stamps_in
                .as_deref()
                .and_then(|s| s.iter().find(|(k, _)| k == &w.key))
                .map(|(_, v)| *v);
            let cur = self.key_version.entry(w.key.clone()).or_insert(0);
            if authority {
                *cur += 1;
                assigned.push((w.key.clone(), *cur));
            } else if let Some(v) = stamped {
                *cur = (*cur).max(v);
            } else {
                *cur += 1;
            }
        }
        if !assigned.is_empty() {
            self.out_stamps.insert(txn, assigned);
        }
    }

    // ---- protocol plumbing (mirrors ptp_ddb::node::ShardNode) ----

    fn apply_actions(&mut self, txn: TxnId, mut actions: Vec<Action>) {
        let plans = self.plans.clone();
        let Some(plan) = plans.get(txn) else { return };
        let my_v = plan.virtual_of(self.me);
        // Decisions first: a commit assigns this site's version stamps, and
        // the sends emitted by the same action batch must carry them.
        // (Sends are concurrent messages either way; timers of a finished
        // transaction fire as no-ops.)
        actions.sort_by_key(|a| !matches!(a, Action::Decide(_)));
        let mut dispatched = 0u32;
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let dst = plan.group[to.index()];
                    let writes = self.xact_writes_for(plan, &msg, dst, my_v);
                    self.send_wire(dst, WireMsg { txn, inner: msg, writes, versions: None });
                    dispatched += 1;
                }
                Action::Broadcast { msg } => {
                    for (v, &dst) in plan.group.iter().enumerate() {
                        if Some(v) != my_v {
                            let writes = self.xact_writes_for(plan, &msg, dst, my_v);
                            self.send_wire(
                                dst,
                                WireMsg { txn, inner: msg, writes, versions: None },
                            );
                            dispatched += 1;
                        }
                    }
                }
                Action::SetTimer { t_units, tag } => {
                    self.generation += 1;
                    let deadline = Instant::now() + self.t * t_units as u32;
                    self.timers.insert((txn, tag), (deadline, self.generation));
                }
                Action::CancelTimer { tag } => {
                    self.timers.remove(&(txn, tag));
                }
                Action::Decide(decision) => self.finish(txn, decision),
                Action::Note(..) => {}
            }
        }
        // Protocol messages this participant dispatched for the
        // transaction: the round count its span reports.
        if dispatched > 0 && self.obs.spans {
            if let Some(s) = self.spans.get_mut(&txn) {
                s.rounds += dispatched;
            }
        }
    }

    fn xact_writes_for(
        &self,
        plan: &ptp_shard::plan::TxnPlan,
        msg: &CommitMsg,
        dst: SiteId,
        my_v: Option<usize>,
    ) -> Option<Vec<WriteOp>> {
        if my_v != Some(0) || !matches!(msg, CommitMsg::Kind("xact")) {
            return None;
        }
        plan.writes.get(&dst.0).cloned()
    }

    fn cancel_timers_of(&mut self, txn: TxnId) {
        self.timers.retain(|(t, _), _| *t != txn);
    }

    fn ack_if_master(&mut self, txn: TxnId, decision: Decision) {
        // Every site drops its span here (group slaves stamp spans they
        // never ack; only the master's rides the completion).
        let span = self.spans.remove(&txn);
        let plans = self.plans.clone();
        if plans.get(txn).is_some_and(|p| p.master() == self.me) {
            let _ = self.completions.send(Completion {
                txn,
                decision,
                value: None,
                at: Instant::now(),
                span,
            });
        }
    }

    fn ship(&mut self, txn: TxnId, decision: Decision) {
        let plans = self.plans.clone();
        let Some(plan) = plans.get(txn) else { return };
        let Some(targets) = plan.ships.get(&self.me.0) else { return };
        for &replica in targets {
            let (kind, writes) = match decision {
                Decision::Commit => (SHARD_APPLY, plan.replica_writes.get(&replica.0).cloned()),
                Decision::Abort => (SHARD_ABORT, None),
            };
            self.send_wire(
                replica,
                WireMsg { txn, inner: CommitMsg::Kind(kind), writes, versions: None },
            );
        }
    }

    fn release_and_unpark(&mut self, txn: TxnId) {
        let promoted = self.locks.release_all(txn);
        for t in promoted {
            self.try_unpark(t);
        }
    }

    /// The post-durability tail of a local commit: record it, ack the
    /// client (if this site is the plan's master), ship to out-of-group
    /// replicas, free the locks.
    fn complete_commit(&mut self, txn: TxnId) {
        self.finished.insert(txn, Decision::Commit);
        self.ack_if_master(txn, Decision::Commit);
        self.ship(txn, Decision::Commit);
        self.release_and_unpark(txn);
    }

    /// Commits a transaction this site's participant decided (or a sole
    /// voter completed): durable now when batching is off, at the next
    /// window flush when it is on.
    fn commit_locally(&mut self, txn: TxnId) {
        if self.obs.spans {
            self.span_mark_decided(txn);
        }
        self.flight_log("decide", "commit", txn.0 as u64, 0);
        self.assign_versions(txn);
        if self.batch.enabled {
            self.wal.append(Record::Commit { txn });
            self.pending_set.insert(txn);
            self.pending.push(PendingFinal::Decide(txn));
            // Locks stay held and the ack waits for the window flush.
        } else {
            self.force(Record::Commit { txn });
            self.storage.apply(txn);
            self.force(Record::Applied { txn });
            self.complete_commit(txn);
        }
    }

    fn abort_locally(&mut self, txn: TxnId) {
        if self.obs.spans {
            self.span_mark_decided(txn);
        }
        self.flight_log("decide", "abort", txn.0 as u64, 0);
        self.in_stamps.remove(&txn);
        // Presumed abort: the record needs no force write before the ack.
        if self.batch.enabled {
            self.wal.append(Record::Abort { txn });
        } else {
            self.force(Record::Abort { txn });
        }
        self.storage.discard(txn);
        self.finished.insert(txn, Decision::Abort);
        self.ack_if_master(txn, Decision::Abort);
        self.ship(txn, Decision::Abort);
        self.release_and_unpark(txn);
    }

    /// Terminates a protocol transaction: releases its machine and timers,
    /// then runs the decision through the WAL discipline.
    fn finish(&mut self, txn: TxnId, decision: Decision) {
        let Some(slot) = self.slots.remove(&txn) else { return };
        self.cancel_timers_of(txn);
        self.pools.get_mut(&slot.pool).expect("slot pool exists").release(slot.participant);
        match decision {
            Decision::Commit => self.commit_locally(txn),
            Decision::Abort => self.abort_locally(txn),
        }
    }

    fn try_unpark(&mut self, txn: TxnId) {
        let Some(parked) = self.parked.remove(&txn) else { return };
        let all_held = match &parked {
            Parked::Xact { writes, .. } | Parked::Apply { writes, .. } => {
                writes.iter().all(|w| self.locks.holds(txn, &w.key, LockMode::Exclusive))
            }
            Parked::Read { key } => self.locks.holds(txn, key, LockMode::Shared),
        };
        if !all_held {
            self.parked.insert(txn, parked);
            return;
        }
        match parked {
            Parked::Xact { from, writes } => self.begin_local(txn, from, writes),
            Parked::Apply { writes, versions } => self.do_apply(txn, writes, versions),
            Parked::Read { key } => {
                self.reads_local += 1;
                if self.obs.spans {
                    self.span_mark_locked(txn, Instant::now());
                }
                self.flight_log("lock", "grant", txn.0 as u64, 1);
                self.serve_read(txn, &key);
                self.finished.insert(txn, Decision::Commit);
                self.release_and_unpark(txn);
            }
        }
    }

    /// Locks held: log + stage the writes and start the commit protocol
    /// (or commit on the spot for a sole-member group).
    fn begin_local(&mut self, txn: TxnId, from: SiteId, writes: Vec<WriteOp>) {
        if self.obs.spans {
            self.span_mark_locked(txn, Instant::now());
        }
        self.flight_log("lock", "grant", txn.0 as u64, writes.len() as u64);
        self.wal.append(Record::Begin { txn, writes: writes.clone() });
        if !self.batch.enabled {
            self.spin_flush();
        }
        self.storage.stage(txn, writes);

        let plans = self.plans.clone();
        let plan = plans.get(txn).expect("admitted transactions are planned");
        let k = plan.group.len();
        let my_v = plan.virtual_of(self.me).expect("participants are group members");

        if k == 1 {
            self.commit_locally(txn);
            return;
        }

        let pool_key = (my_v as u16, k as u16);
        let factory = self.factory.clone();
        let pool =
            self.pools.entry(pool_key).or_insert_with(|| factory.pool(SiteId(my_v as u16), k));
        let slot = pool.acquire(Vote::Yes);
        let mut out = Vec::new();
        let participant = pool.get_mut(slot);
        participant.start(&mut out);
        if my_v != 0 {
            let from_v = plan.virtual_of(from).unwrap_or(0);
            participant.on_msg(SiteId(from_v as u16), &CommitMsg::Kind("xact"), &mut out);
        }
        self.slots.insert(txn, TxnSlot { pool: pool_key, participant: slot });
        self.apply_actions(txn, out);
    }

    fn guard_duplicate(&self, txn: TxnId) -> bool {
        self.finished.contains_key(&txn)
            || self.slots.contains_key(&txn)
            || self.parked.contains_key(&txn)
            || self.pending_set.contains(&txn)
    }

    fn admit_xact(&mut self, txn: TxnId, from: SiteId, writes: Vec<WriteOp>) {
        if self.guard_duplicate(txn) || self.plans.get(txn).is_none() {
            return;
        }
        if self.obs.spans {
            let path = self.plans.get(txn).expect("checked above").path_tag();
            self.spans.insert(txn, TxnSpan::begin(path, Instant::now()));
        }
        let mut all = true;
        for w in &writes {
            if self.locks.acquire(txn, w.key.clone(), LockMode::Exclusive) == LockGrant::Waiting {
                all = false;
            }
        }
        if all {
            self.begin_local(txn, from, writes);
        } else {
            self.flight_log("lock", "park", txn.0 as u64, writes.len() as u64);
            self.parked.insert(txn, Parked::Xact { from, writes });
        }
    }

    fn admit_apply(&mut self, txn: TxnId, writes: Vec<WriteOp>, versions: Option<Vec<(Key, u64)>>) {
        if self.guard_duplicate(txn) {
            return;
        }
        let mut all = true;
        for w in &writes {
            if self.locks.acquire(txn, w.key.clone(), LockMode::Exclusive) == LockGrant::Waiting {
                all = false;
            }
        }
        if all {
            self.do_apply(txn, writes, versions);
        } else {
            self.parked.insert(txn, Parked::Apply { writes, versions });
        }
    }

    /// Installs a shipped cross-shard commit under the full WAL discipline.
    fn do_apply(&mut self, txn: TxnId, writes: Vec<WriteOp>, versions: Option<Vec<(Key, u64)>>) {
        // Stale-ship filter, under this transaction's held locks: a ship
        // that raced a newer committed write through the router installs
        // nothing for the keys it lost (the commit record still lands —
        // the *decision* is not stale, only the value).
        let mut keep = Vec::with_capacity(writes.len());
        for w in writes {
            let stamped = versions
                .as_deref()
                .and_then(|s| s.iter().find(|(k, _)| k == &w.key))
                .map(|(_, v)| *v);
            let cur = self.key_version.entry(w.key.clone()).or_insert(0);
            match stamped {
                Some(v) if v <= *cur => {}
                Some(v) => {
                    *cur = v;
                    keep.push(w);
                }
                None => {
                    *cur += 1;
                    keep.push(w);
                }
            }
        }
        let writes = keep;
        self.wal.append(Record::Begin { txn, writes: writes.clone() });
        if self.batch.enabled {
            self.storage.stage(txn, writes);
            self.wal.append(Record::Commit { txn });
            self.pending_set.insert(txn);
            self.pending.push(PendingFinal::Apply(txn));
        } else {
            self.spin_flush();
            self.storage.stage(txn, writes);
            self.force(Record::Commit { txn });
            self.storage.apply(txn);
            self.force(Record::Applied { txn });
            self.finished.insert(txn, Decision::Commit);
            self.release_and_unpark(txn);
        }
    }

    fn admit_abort_ship(&mut self, txn: TxnId) {
        if self.guard_duplicate(txn) {
            return;
        }
        self.finished.insert(txn, Decision::Abort);
    }

    // ---- the elastic read path ----

    /// Answers a client read from committed storage.
    fn serve_read(&mut self, txn: TxnId, key: &Key) {
        let span = self.spans.remove(&txn);
        let value = self.storage.get(key).cloned();
        let _ = self.completions.send(Completion {
            txn,
            decision: Decision::Commit,
            value,
            at: Instant::now(),
            span,
        });
    }

    /// Is this site's lease over `shard` live right now? True only at the
    /// shard's master, and only while *every* replica's grant covers the
    /// present instant (an empty replica set is trivially covered,
    /// mirroring `ptp_ddb::lease::LeaseTable`).
    fn lease_valid(&self, shard: usize, now: Instant) -> bool {
        let topo = &self.plans.topology;
        topo.master(shard) == self.me
            && topo.group(shard)[1..]
                .iter()
                .all(|r| self.lease_grants.get(&(shard, r.0)).is_some_and(|exp| *exp >= now))
    }

    /// A client read: lease fast path when the shard lease is live and the
    /// key unlocked (no in-flight commit round), otherwise the shared-lock
    /// path — granted reads serve immediately, conflicting ones park until
    /// the exclusive holder finishes.
    fn admit_read(&mut self, txn: TxnId, key: Key) {
        if self.guard_duplicate(txn) {
            return;
        }
        let now = Instant::now();
        let shard = self.plans.topology.shard_of(&key);
        if self.lease.is_some() && self.lease_valid(shard, now) && !self.locks.is_locked(&key) {
            self.reads_lease += 1;
            if self.obs.spans {
                self.spans.insert(txn, TxnSpan::begin("read-lease", now));
            }
            self.serve_read(txn, &key);
            self.finished.insert(txn, Decision::Commit);
            return;
        }
        if self.lease.is_some() && self.plans.topology.master(shard) == self.me {
            // The fast path was configured but unavailable: lapsed grant
            // (partition/crash/delay) or an in-flight commit on the key.
            self.flight_log("lease", "lapse", shard as u64, txn.0 as u64);
        }
        if self.locks.acquire(txn, key.clone(), LockMode::Shared) == LockGrant::Granted {
            self.reads_local += 1;
            if self.obs.spans {
                let mut span = TxnSpan::begin("read-local", now);
                span.locked = Some(now);
                self.spans.insert(txn, span);
            }
            self.serve_read(txn, &key);
            self.finished.insert(txn, Decision::Commit);
            self.release_and_unpark(txn);
        } else {
            if self.obs.spans {
                self.spans.insert(txn, TxnSpan::begin("read-parked", now));
            }
            self.flight_log("lock", "park", txn.0 as u64, 1);
            self.parked.insert(txn, Parked::Read { key });
        }
    }

    // ---- wall-clock lease + anti-entropy chains ----

    /// One renewal round: each shard this site masters gets a fresh round
    /// id, and every group replica a `LEASE_RENEW`. Acks of superseded
    /// rounds are discarded, so grants anchor at the instant recorded here.
    fn lease_tick(&mut self, now: Instant) {
        let plans = self.plans.clone();
        let topo = &plans.topology;
        self.lease_round_seq = self.lease_round_seq.wrapping_add(1);
        let round = self.lease_round_seq;
        if let Some(cfg) = self.lease {
            self.lease_rounds.retain(|_, sent| *sent + cfg.duration >= now);
        }
        for shard in 0..topo.shards() {
            let group = topo.group(shard);
            if group[0] != self.me || group.len() == 1 {
                continue;
            }
            self.lease_rounds.insert((shard, round), now);
            for &replica in &group[1..] {
                self.send_wire(
                    replica,
                    WireMsg {
                        txn: TxnId(LEASE_CTRL_BASE | (round as u32) << 8 | shard as u32),
                        inner: CommitMsg::Kind(LEASE_RENEW),
                        writes: None,
                        versions: None,
                    },
                );
            }
        }
    }

    /// An ack from `src`: arm its grant, anchored at the acked round's
    /// send instant. Grants only move forward — a reordered older ack must
    /// not shorten a grant a newer ack already armed.
    fn lease_ack(&mut self, src: SiteId, txn: TxnId) {
        let (round, shard) = (((txn.0 >> 8) & 0xFF) as u8, (txn.0 & 0xFF) as usize);
        let Some(cfg) = self.lease else { return };
        if let Some(&sent) = self.lease_rounds.get(&(shard, round)) {
            let expiry = sent + cfg.duration;
            let slot = self.lease_grants.entry((shard, src.0)).or_insert(expiry);
            *slot = (*slot).max(expiry);
            self.flight_log("lease", "grant", shard as u64, src.0 as u64);
        }
    }

    /// One anti-entropy round: for every shard this site replicates (but
    /// does not master), poll the master with this site's version vector
    /// for the shard's keys. A partitioned request bounces; a converged
    /// master answers with silence.
    fn sync_tick(&mut self) {
        let plans = self.plans.clone();
        let topo = &plans.topology;
        for shard in 0..topo.shards() {
            let group = topo.group(shard);
            if group[0] == self.me || !group.contains(&self.me) {
                continue;
            }
            let versions: Vec<(Key, u64)> = self
                .key_version
                .iter()
                .filter(|(k, _)| topo.shard_of(k) == shard)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            self.send_wire(
                group[0],
                WireMsg {
                    txn: TxnId(SYNC_CTRL_BASE | shard as u32),
                    inner: CommitMsg::Kind(SYNC_REQ),
                    writes: None,
                    versions: Some(versions),
                },
            );
        }
    }

    /// The master's side: answer `src`'s version vector with the committed
    /// values it is missing, stamped with their current versions — or with
    /// nothing at all once the replica has caught up. Keys under an
    /// exclusive lock are skipped: their version was assigned but the
    /// commit has not applied yet, so value and stamp would disagree (the
    /// next round picks them up).
    fn handle_sync_req(&mut self, src: SiteId, txn: TxnId, versions: Option<Vec<(Key, u64)>>) {
        let shard = (txn.0 & 0xFFFF) as usize;
        let plans = self.plans.clone();
        let topo = &plans.topology;
        if topo.master(shard) != self.me {
            return;
        }
        let theirs: HashMap<&Key, u64> =
            versions.as_deref().unwrap_or(&[]).iter().map(|(k, v)| (k, *v)).collect();
        let mut delta = Vec::new();
        let mut stamps = Vec::new();
        for (key, &version) in &self.key_version {
            if topo.shard_of(key) != shard
                || version <= theirs.get(key).copied().unwrap_or(0)
                || self.locks.is_locked(key)
            {
                continue;
            }
            if let Some(value) = self.storage.get(key) {
                delta.push(WriteOp { key: key.clone(), value: value.clone() });
                stamps.push((key.clone(), version));
            }
        }
        if delta.is_empty() {
            return; // post-convergence silence
        }
        self.send_wire(
            src,
            WireMsg {
                txn,
                inner: CommitMsg::Kind(SYNC_RESP),
                writes: Some(delta),
                versions: Some(stamps),
            },
        );
    }

    /// The replica's side: install the delta under a fresh synthetic
    /// transaction id, through the ordinary apply discipline — locks, WAL,
    /// and the stale-ship version filter (a delta that lost a race to a
    /// newer ship installs nothing for the keys it lost).
    fn handle_sync_resp(&mut self, writes: Vec<WriteOp>, versions: Option<Vec<(Key, u64)>>) {
        let txn = TxnId(SYNC_APPLY_BASE + self.sync_seq);
        self.sync_seq += 1;
        self.sync_installs += 1;
        self.flight_log("sync", "install", txn.0 as u64, writes.len() as u64);
        self.admit_apply(txn, writes, versions);
    }

    // ---- inbound dispatch ----

    fn handle(&mut self, src: SiteId, wire: WireMsg) {
        let WireMsg { txn, inner, writes, versions } = wire;
        if self.flight.is_some() {
            let tag = ptp_simnet::Payload::kind(&inner);
            self.flight_log("recv", tag, txn.0 as u64, src.0 as u64);
        }
        match inner {
            CommitMsg::Kind(CLIENT_XACT) => {
                let local = self
                    .plans
                    .get(txn)
                    .and_then(|p| p.writes.get(&self.me.0).cloned())
                    .unwrap_or_default();
                self.admit_xact(txn, self.me, local);
                return;
            }
            CommitMsg::Kind(CLIENT_READ) => {
                if let Some(w) = writes.as_deref().and_then(|ws| ws.first()) {
                    self.admit_read(txn, w.key.clone());
                }
                return;
            }
            CommitMsg::Kind(LEASE_RENEW) => {
                // Echo the round back; the master anchors the grant at its
                // own send instant.
                self.send_wire(
                    src,
                    WireMsg {
                        txn,
                        inner: CommitMsg::Kind(LEASE_ACK),
                        writes: None,
                        versions: None,
                    },
                );
                return;
            }
            CommitMsg::Kind(LEASE_ACK) => {
                self.lease_ack(src, txn);
                return;
            }
            CommitMsg::Kind(SYNC_REQ) => {
                self.handle_sync_req(src, txn, versions);
                return;
            }
            CommitMsg::Kind(SYNC_RESP) => {
                self.handle_sync_resp(writes.unwrap_or_default(), versions);
                return;
            }
            CommitMsg::Kind("xact") => {
                self.admit_xact(txn, src, writes.unwrap_or_default());
                return;
            }
            CommitMsg::Kind(SHARD_APPLY) => {
                self.admit_apply(txn, writes.unwrap_or_default(), versions);
                return;
            }
            CommitMsg::Kind(SHARD_ABORT) => {
                self.admit_abort_ship(txn);
                return;
            }
            _ => {}
        }
        // A protocol message of an undecided transaction may carry the
        // master's version stamps; keep the latest for our own commit.
        if let Some(vs) = versions {
            if !self.finished.contains_key(&txn) && !self.pending_set.contains(&txn) {
                self.in_stamps.insert(txn, vs);
            }
        }
        if let Some(slot) = self.slots.get(&txn) {
            let (pool_key, participant) = (slot.pool, slot.participant);
            let plans = self.plans.clone();
            let Some(from_v) = plans.get(txn).and_then(|p| p.virtual_of(src)) else {
                return;
            };
            let mut out = Vec::new();
            self.pools.get_mut(&pool_key).expect("slot pool exists").get_mut(participant).on_msg(
                SiteId(from_v as u16),
                &inner,
                &mut out,
            );
            self.apply_actions(txn, out);
        } else if self.parked.contains_key(&txn) {
            // An abort can reach a transaction still waiting on locks (the
            // master gave up on us); see `ShardNode::abort_parked` in
            // ptp-ddb for why only aborts can.
            if matches!(inner, CommitMsg::Kind("abort"))
                && matches!(self.parked.get(&txn), Some(Parked::Xact { .. }))
            {
                self.parked.remove(&txn);
                self.spans.remove(&txn);
                self.finished.insert(txn, Decision::Abort);
                self.release_and_unpark(txn);
            }
        }
    }

    fn handle_ud(&mut self, original_dst: SiteId, wire: WireMsg) {
        let WireMsg { txn, inner, .. } = wire;
        if let Some(slot) = self.slots.get(&txn) {
            let (pool_key, participant) = (slot.pool, slot.participant);
            let plans = self.plans.clone();
            let Some(dst_v) = plans.get(txn).and_then(|p| p.virtual_of(original_dst)) else {
                return; // a bounced ship has no participant to tell
            };
            let mut out = Vec::new();
            self.pools.get_mut(&pool_key).expect("slot pool exists").get_mut(participant).on_ud(
                SiteId(dst_v as u16),
                &inner,
                &mut out,
            );
            self.apply_actions(txn, out);
        }
    }

    fn fire_due_timers(&mut self, now: Instant) {
        let due: Vec<(TxnId, TimerTag, u64)> = self
            .timers
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= now)
            .map(|((txn, tag), (_, generation))| (*txn, *tag, *generation))
            .collect();
        for (txn, tag, generation) in due {
            if self.timers.get(&(txn, tag)).is_some_and(|(_, g)| *g == generation) {
                self.timers.remove(&(txn, tag));
                if self.crashed {
                    continue; // due-while-down timers are discarded unfired
                }
                if let Some(slot) = self.slots.get(&txn) {
                    let (pool_key, participant) = (slot.pool, slot.participant);
                    let mut out = Vec::new();
                    self.pools
                        .get_mut(&pool_key)
                        .expect("slot pool exists")
                        .get_mut(participant)
                        .on_timer(tag, &mut out);
                    self.apply_actions(txn, out);
                }
            }
        }
    }

    /// Crash: go silent. Volatile state is wiped on recovery (mirroring the
    /// simulator, where `on_recover` performs the Sec. 2 discipline).
    fn crash(&mut self) {
        self.flight_log("fault", "crash", 0, 0);
        self.crashed = true;
    }

    fn recover(&mut self) {
        self.flight_log("fault", "recover", 0, 0);
        // In-flight spans died with the volatile state.
        self.spans.clear();
        for (_, slot) in std::mem::take(&mut self.slots) {
            self.pools.get_mut(&slot.pool).expect("slot pool exists").release(slot.participant);
        }
        self.parked.clear();
        self.pending.clear();
        self.pending_set.clear();
        self.in_stamps.clear();
        self.timers.clear();
        // Grants are volatile: a recovering master re-earns its lease
        // through fresh renewal rounds before fast-path reads resume.
        self.lease_grants.clear();
        self.lease_rounds.clear();
        for buf in &mut self.outbuf {
            buf.clear();
        }
        self.locks = LockTable::new();
        self.storage.crash();
        self.wal.crash();
        let summary = ptp_ddb::recovery::recover(&mut self.storage, &mut self.wal);
        for txn in &summary.redone {
            self.finished.insert(*txn, Decision::Commit);
        }
        for txn in &summary.discarded {
            self.finished.insert(*txn, Decision::Abort);
        }
        self.crashed = false;
    }

    /// Runs until `Shutdown` (or every sender hangs up). Returns the
    /// shutdown report after one final window flush, so in-flight group
    /// commits that already decided are finalized rather than stranded.
    pub fn run(mut self, inbox: Receiver<Inbound<Packet>>) -> NodeReport {
        let mut next_tick = Instant::now() + self.batch.window;
        // Periodic chains fire from the start: the first renewal round goes
        // out immediately so grants arm before the first reads arrive.
        let mut next_lease = self.lease.map(|_| Instant::now());
        let mut next_sync = self.anti_entropy.map(|p| Instant::now() + p);
        loop {
            let now = Instant::now();
            self.fire_due_timers(now);
            if self.batch.enabled && now >= next_tick {
                if !self.crashed {
                    self.window_tick();
                }
                next_tick = now + self.batch.window;
            }
            if let (Some(cfg), Some(due)) = (self.lease, next_lease) {
                if now >= due {
                    if !self.crashed {
                        self.lease_tick(now);
                    }
                    next_lease = Some(now + cfg.period);
                }
            }
            if let (Some(period), Some(due)) = (self.anti_entropy, next_sync) {
                if now >= due {
                    if !self.crashed {
                        self.sync_tick();
                    }
                    next_sync = Some(now + period);
                }
            }

            let mut wait = self
                .timers
                .values()
                .map(|(deadline, _)| *deadline)
                .min()
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(20));
            if self.batch.enabled {
                wait = wait.min(next_tick.saturating_duration_since(now));
            }
            for due in [next_lease, next_sync].into_iter().flatten() {
                wait = wait.min(due.saturating_duration_since(now));
            }

            match inbox.recv_timeout(wait) {
                Ok(Inbound::Deliver { src, msg }) => {
                    if !self.crashed {
                        for m in msg.0 {
                            self.handle(src, m);
                        }
                    }
                }
                Ok(Inbound::Undeliverable { original_dst, msg }) => {
                    if !self.crashed {
                        for m in msg.0 {
                            self.handle_ud(original_dst, m);
                        }
                    }
                }
                Ok(Inbound::Crash) => self.crash(),
                Ok(Inbound::Recover) => self.recover(),
                Ok(Inbound::Shutdown) => break,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if self.batch.enabled && !self.crashed {
            self.window_tick();
        }
        let in_flight = self.slots.len() + self.parked.len() + self.pending.len();
        NodeReport {
            site: self.me,
            storage: self.storage,
            wal: self.wal,
            finished: self.finished,
            in_flight_at_shutdown: in_flight,
            flushes: self.flushes,
            channel_sends: self.channel_sends,
            protocol_messages: self.protocol_messages,
            reads_lease: self.reads_lease,
            reads_local: self.reads_local,
            sync_installs: self.sync_installs,
            flight: self.flight,
        }
    }
}
