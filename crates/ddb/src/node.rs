//! The site actor — the only one: storage engine, WAL, lock table and
//! participant pools, driven by per-transaction *group routing*.
//!
//! A [`ShardNode`] runs whatever its [`PlanTable`] names: every transaction
//! carries its own protocol group. The paper's model ("site 0 coordinates
//! everyone", [`crate::DbCluster`]) is the one-group case
//! ([`PlanTable::flat`]); a sharded store's single- and cross-shard
//! transactions are the general one. Participants run under **virtual**
//! site ids — index `j` within the plan's group vector means virtual
//! `SiteId(j)`, with virtual 0 the master — so the unmodified protocol state
//! machines (2PC FSA, the Huang–Li termination master/slave, quorum sites)
//! coordinate any subset of the cluster at any group size. The node
//! translates on the boundary: outgoing [`Action::Send`]/
//! [`Action::Broadcast`] targets map virtual → physical through the group
//! vector, incoming envelope sources map physical → virtual.
//!
//! On top of the participant path, the node implements the cross-shard
//! outcome shipping of [`crate::plan`]: a group master that decides a
//! cross-shard transaction sends `shard-apply` (with the shard's writes) or
//! `shard-abort` to its out-of-group replicas, which install the decided
//! outcome under their own locks and WAL discipline — committed log
//! shipping, the primary-copy half of the two-level design.

use crate::lease::{LeaseConfig, LeaseTable};
use crate::locks::{LockGrant, LockMode, LockTable};
use crate::plan::{PlanTable, ReadPlan, TxnPlan};
use crate::site::{
    DbMsg, LockHold, Metrics, ParticipantFactory, ParticipantPool, ReadPath, ReadRecord,
    SyncPayload,
};
use crate::storage::Storage;
use crate::value::{Key, TxnId, WriteOp};
use crate::wal::{Record, Wal};
use ptp_model::Decision;
use ptp_protocols::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use ptp_protocols::AnyParticipant;
use ptp_simnet::{Actor, Ctx, Envelope, SimDuration, SimTime, SiteId, TimerHandle};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Message kind a group master ships to its out-of-group replicas when a
/// cross-shard transaction commits (carries the shard's write set).
pub const SHARD_APPLY: &str = "shard-apply";
/// Message kind shipped on a cross-shard abort (no writes; the replica
/// only records the outcome).
pub const SHARD_ABORT: &str = "shard-abort";
/// Lease renewal solicitation, master → replica (per shard).
pub const LEASE_RENEW: &str = "lease-renew";
/// Lease renewal ack, replica → master: arms the replica's grant.
pub const LEASE_ACK: &str = "lease-ack";
/// Anti-entropy request, stranded replica → shard master: carries the
/// replica's per-key version stamps and pending/known transaction ids.
pub const SYNC_REQ: &str = "sync-req";
/// Anti-entropy response, master → replica: missing decisions plus a
/// version-stamped key/value delta.
pub const SYNC_RESP: &str = "sync-resp";

/// Timer-key encoding: `(id + 1) << 8 | tag` ([`timer_key`]). Protocol
/// timers carry the transaction id and the participant's [`TimerTag`];
/// client submission timers carry the transaction id and this low byte.
const CLIENT_TAG: u64 = 0xfe;

/// Client read-submission timers use this low byte (txn-encoded like
/// [`CLIENT_TAG`]).
const READ_TAG: u64 = 0xfd;

/// Lease-renewal chain timers: shard-encoded, this low byte.
const LEASE_TAG: u64 = 0xfc;

/// Anti-entropy chain timers: shard-encoded, this low byte.
const SYNC_TAG: u64 = 0xfb;

/// Transaction-id namespace for control traffic (lease renewals and
/// anti-entropy, keyed `CTRL_BASE + shard`). Disjoint from any workload id.
const CTRL_BASE: u32 = 0xFFFF_0000;

/// Transaction-id namespace for synthetic anti-entropy install batches
/// (`SYNC_BASE + per-node counter`), so delta installs run the normal WAL
/// discipline without colliding with planned transactions.
const SYNC_BASE: u32 = 0xFF00_0000;

fn timer_key(id: u64, tag: u64) -> u64 {
    ((id + 1) << 8) | tag
}

fn ctrl_msg(shard: usize, kind: &'static str) -> DbMsg {
    DbMsg {
        txn: TxnId(CTRL_BASE + shard as u32),
        inner: CommitMsg::Kind(kind),
        writes: None,
        sync: None,
    }
}

/// Opt-in per-node feature knobs (all default off — a default run is
/// byte-identical to the pre-read-path cluster).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardNodeOpts {
    /// Master-lease fast path for local reads.
    pub lease: Option<LeaseConfig>,
    /// Anti-entropy catch-up: replicas poll their shard master every this
    /// many ticks for missed decisions and a version-stamped delta.
    pub anti_entropy: Option<u64>,
}

/// A transaction's routing, resolved from the plan table once per handler
/// call and handed down. Write plans and read plans both route protocol
/// actions through their group vector; only write plans attach xact write
/// sets, touch the WAL or ship.
#[derive(Clone, Copy)]
enum Route<'a> {
    Write(&'a TxnPlan),
    Read(&'a ReadPlan),
}

impl<'a> Route<'a> {
    fn of(plans: &'a PlanTable, txn: TxnId) -> Option<Route<'a>> {
        plans.get(txn).map(Route::Write).or_else(|| plans.get_read(txn).map(Route::Read))
    }

    fn group(self) -> &'a [SiteId] {
        match self {
            Route::Write(plan) => &plan.group,
            Route::Read(read) => &read.group,
        }
    }

    fn virtual_of(self, site: SiteId) -> Option<usize> {
        self.group().iter().position(|&s| s == site)
    }
}

/// Per-transaction protocol state at one site. The participant lives in one
/// of the node's per-`(virtual id, group size)` pools; this records where.
struct TxnSlot {
    /// Index into [`ShardNode::pools`].
    pool: usize,
    participant: usize,
    /// This site's virtual id in the transaction's group.
    my_v: usize,
    timers: HashMap<TimerTag, TimerHandle>,
    hold_index: Option<usize>,
}

/// A transaction's lock-guarded work at this site: begun as soon as it
/// holds every lock, parked in [`ShardNode::parked`] until then.
enum Parked {
    /// An in-flight xact: the commit protocol has not started, so the
    /// master's timeout will abort the transaction if the wait outlasts it.
    Xact { from: SiteId, writes: Vec<WriteOp> },
    /// A *decided* cross-shard commit shipped by a group master: it must
    /// apply as soon as the locks free up (the decision is already durable
    /// at the master — there is nothing left to vote on).
    Apply { writes: Vec<WriteOp> },
    /// A read-only transaction waiting for shared locks on its local keys.
    Read { from: SiteId, keys: Vec<Key> },
}

impl Parked {
    /// The lock mode this work runs under, and the keys it needs.
    fn locks(&self) -> (LockMode, impl Iterator<Item = &Key>) {
        let (mode, writes, keys): (_, &[WriteOp], &[Key]) = match self {
            Parked::Xact { writes, .. } | Parked::Apply { writes } => {
                (LockMode::Exclusive, writes, &[])
            }
            Parked::Read { keys, .. } => (LockMode::Shared, &[], keys),
        };
        (mode, writes.iter().map(|w| &w.key).chain(keys))
    }
}

/// A database site.
pub struct ShardNode {
    me: SiteId,
    plans: Rc<PlanTable>,
    factory: ParticipantFactory,
    /// One participant arena per `(virtual id, group size)` this site plays:
    /// a site can be slave 2 of its own 3-replica group and coordinator of a
    /// 2-master top level at once, and the machines are not interchangeable.
    pools: Vec<((u16, u16), ParticipantPool)>,
    storage: Storage,
    wal: Wal,
    locks: LockTable,
    metrics: Rc<RefCell<Metrics>>,
    slots: BTreeMap<TxnId, TxnSlot>,
    parked: BTreeMap<TxnId, Parked>,
    finished: BTreeMap<TxnId, Decision>,
    /// Transactions this site submits (it is their plan's master): `(tick,
    /// txn)` in submission order. Includes read-only transactions — the
    /// plan table tells them apart.
    workload: Vec<(u64, TxnId)>,
    /// Feature knobs (lease fast path, anti-entropy).
    opts: ShardNodeOpts,
    /// Master-side lease grants per (shard, replica).
    lease: LeaseTable,
    /// Per-key version stamps: bumped on every committed apply. Strict 2PL
    /// serializes each key's applies identically at every group member, so
    /// the counters are comparable across sites; anti-entropy installs
    /// adopt the master's stamps directly. Only the anti-entropy exchange
    /// reads them, so they are kept only while it is on.
    versions: BTreeMap<Key, u64>,
    /// Synthetic ids handed to anti-entropy install batches.
    sync_installs: u32,
    /// Expected next fire time per maintenance chain (timer key), so a
    /// chain re-armed after crash recovery deterministically orphans any
    /// still-pending pre-crash timer.
    chain_next: HashMap<u64, SimTime>,
}

impl ShardNode {
    /// Creates a site. `workload` holds the submissions whose plans name
    /// this site as master/coordinator (reads included).
    pub fn new(
        me: SiteId,
        plans: Rc<PlanTable>,
        factory: ParticipantFactory,
        metrics: Rc<RefCell<Metrics>>,
        workload: Vec<(u64, TxnId)>,
        storage: Storage,
        opts: ShardNodeOpts,
    ) -> ShardNode {
        assert!(me.index() < plans.topology.sites());
        for (_, txn) in &workload {
            let master = plans.master_of(*txn).expect("workload transactions are planned");
            assert_eq!(master, me, "{txn} submitted away from its master");
        }
        ShardNode {
            me,
            plans,
            factory,
            pools: Vec::new(),
            storage,
            wal: Wal::new(),
            locks: LockTable::new(),
            metrics,
            slots: BTreeMap::new(),
            parked: BTreeMap::new(),
            finished: BTreeMap::new(),
            workload,
            opts,
            lease: LeaseTable::new(),
            versions: BTreeMap::new(),
            sync_installs: 0,
            chain_next: HashMap::new(),
        }
    }

    /// Read access to the committed store (post-run inspection).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Read access to the WAL (post-run inspection).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Still-active (undecided, protocol in flight) transactions here.
    pub fn active_txns(&self) -> Vec<TxnId> {
        self.slots.keys().copied().collect()
    }

    /// Participants constructed across all of this site's pools.
    pub fn participants_constructed(&self) -> usize {
        self.pools.iter().map(|(_, pool)| pool.constructed()).sum()
    }

    /// Pool acquisitions served off free-lists across all pools.
    pub fn participants_reused(&self) -> usize {
        self.pools.iter().map(|(_, pool)| pool.reused()).sum()
    }

    // ---- steps every path shares ----

    /// True if this site already knows `txn` (decided, in flight or
    /// parked): a duplicate delivery. The `parked` arm is load-bearing —
    /// re-admitting a parked transaction would enqueue duplicate wait-queue
    /// entries in the lock table and overwrite its [`Parked`] entry.
    fn guard_duplicate(&self, txn: TxnId) -> bool {
        self.finished.contains_key(&txn)
            || self.slots.contains_key(&txn)
            || self.parked.contains_key(&txn)
    }

    /// Drops `txn`'s locks and restarts whatever that promoted: a parked
    /// transaction can hold granted locks (it parks if *any* request waits)
    /// with other waiters queued behind them.
    fn release_and_unpark(&mut self, txn: TxnId, ctx: &mut Ctx<'_, DbMsg>) {
        for t in self.locks.release_all(txn) {
            self.try_unpark(t, ctx);
        }
    }

    /// Write-ahead half of the WAL discipline: force the `Begin` record,
    /// then stage the writes.
    fn stage_locally(&mut self, txn: TxnId, writes: Vec<WriteOp>) {
        self.wal.append(Record::Begin { txn, writes: writes.clone() });
        self.wal.flush();
        self.storage.stage(txn, writes);
    }

    /// Commit half of the WAL discipline (Sec. 2): force the commit record,
    /// apply, then mark applied. (The staged write set may be empty: a site
    /// can participate in a transaction without local writes.)
    fn commit_locally(&mut self, txn: TxnId) {
        if self.opts.anti_entropy.is_some() {
            for w in self.storage.staged_writes(txn).unwrap_or_default() {
                *self.versions.entry(w.key.clone()).or_insert(0) += 1;
            }
        }
        self.wal.append_durable(Record::Commit { txn });
        self.storage.apply(txn);
        self.wal.append_durable(Record::Applied { txn });
    }

    fn record_decision(&self, txn: TxnId, decision: Decision, now: SimTime) {
        let mut m = self.metrics.borrow_mut();
        m.decisions.entry(txn).or_default().insert(self.me.0, (decision, now));
    }

    // ---- protocol plumbing ----

    /// Feeds one event to `txn`'s participant, if it has one in flight, and
    /// applies what the machine emits.
    fn drive(
        &mut self,
        txn: TxnId,
        route: Route<'_>,
        ctx: &mut Ctx<'_, DbMsg>,
        event: impl FnOnce(&mut AnyParticipant, &mut Vec<Action>),
    ) {
        let Some(slot) = self.slots.get(&txn) else { return };
        let my_v = slot.my_v;
        let mut out = Vec::new();
        event(self.pools[slot.pool].1.get_mut(slot.participant), &mut out);
        self.apply_actions(txn, route, my_v, out, ctx);
    }

    fn apply_actions(
        &mut self,
        txn: TxnId,
        route: Route<'_>,
        my_v: usize,
        actions: Vec<Action>,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        let group = route.group();
        // The group master attaches each destination's planned write set to
        // its xact.
        let msg_to = |dst: SiteId, msg: CommitMsg| {
            let writes = match (route, my_v, &msg) {
                (Route::Write(plan), 0, CommitMsg::Kind("xact")) => {
                    plan.writes.get(&dst.0).cloned()
                }
                _ => None,
            };
            DbMsg { txn, inner: msg, writes, sync: None }
        };
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let dst = group[to.index()];
                    ctx.send(dst, msg_to(dst, msg));
                }
                Action::Broadcast { msg } => {
                    for (v, &dst) in group.iter().enumerate() {
                        if v != my_v {
                            ctx.send(dst, msg_to(dst, msg));
                        }
                    }
                }
                Action::SetTimer { t_units, tag } => {
                    let handle =
                        ctx.set_timer(ctx.t(t_units), timer_key(txn.0 as u64, tag.encode()));
                    if let Some(slot) = self.slots.get_mut(&txn) {
                        if let Some(old) = slot.timers.insert(tag, handle) {
                            ctx.cancel_timer(old);
                        }
                    }
                }
                Action::CancelTimer { tag } => {
                    if let Some(slot) = self.slots.get_mut(&txn) {
                        if let Some(old) = slot.timers.remove(&tag) {
                            ctx.cancel_timer(old);
                        }
                    }
                }
                Action::Decide(decision) => self.finish(txn, route, decision, ctx),
                Action::Note(label, detail) => ctx.note(label, detail),
            }
        }
    }

    /// Locks held: start the commit-protocol participant for `txn` and feed
    /// it the xact (a slave votes on it; the master polls its group).
    fn start_participant(
        &mut self,
        txn: TxnId,
        route: Route<'_>,
        from: SiteId,
        hold_index: Option<usize>,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        let k = route.group().len();
        let my_v = route.virtual_of(self.me).expect("participants are group members");
        let key = (my_v as u16, k as u16);
        let pool = self.pools.iter().position(|(have, _)| *have == key).unwrap_or_else(|| {
            self.pools.push((key, self.factory.pool(SiteId(key.0), k)));
            self.pools.len() - 1
        });
        let arena = &mut self.pools[pool].1;
        let participant = arena.acquire(Vote::Yes);
        let mut out = Vec::new();
        let machine = arena.get_mut(participant);
        machine.start(&mut out);
        if my_v != 0 {
            let from_v = route.virtual_of(from).unwrap_or(0);
            machine.on_msg(SiteId(from_v as u16), &CommitMsg::Kind("xact"), &mut out);
        }
        self.slots
            .insert(txn, TxnSlot { pool, participant, my_v, timers: HashMap::new(), hold_index });
        self.apply_actions(txn, route, my_v, out, ctx);
    }

    /// Terminates a protocol transaction locally: tears the participant
    /// down, then settles a write, or serves / aborts a cross-shard read.
    fn finish(
        &mut self,
        txn: TxnId,
        route: Route<'_>,
        decision: Decision,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        let Some(mut slot) = self.slots.remove(&txn) else { return };
        for (_, handle) in slot.timers.drain() {
            ctx.cancel_timer(handle);
        }
        self.pools[slot.pool].1.release(slot.participant);
        let read = match route {
            Route::Write(plan) => return self.settle(txn, plan, decision, slot.hold_index, ctx),
            Route::Read(read) => read,
        };
        // A cross-shard protocol read: snapshot on commit, record the abort
        // at the coordinator — never any WAL, storage, or lock-hold-metric
        // traffic.
        match decision {
            Decision::Commit => {
                let keys = read.keys.get(&self.me.0).map(Vec::as_slice).unwrap_or_default();
                self.serve_read(txn, keys, ReadPath::Protocol, ctx);
            }
            Decision::Abort => {
                if read.master() == self.me {
                    self.metrics.borrow_mut().read_aborts.insert(txn, ctx.now());
                }
                ctx.note("read-aborted", txn.0 as u64);
            }
        }
        self.finished.insert(txn, decision);
        self.release_and_unpark(txn, ctx);
    }

    /// Makes a staged write transaction's decision durable and visible
    /// here — WAL, storage, metrics — then ships the outcome to any
    /// out-of-group replicas this site masters for and frees the locks.
    fn settle(
        &mut self,
        txn: TxnId,
        plan: &TxnPlan,
        decision: Decision,
        hold_index: Option<usize>,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        match decision {
            Decision::Commit => self.commit_locally(txn),
            Decision::Abort => {
                self.wal.append_durable(Record::Abort { txn });
                self.storage.discard(txn);
            }
        }
        let now = ctx.now();
        self.record_decision(txn, decision, now);
        if let Some(idx) = hold_index {
            self.metrics.borrow_mut().lock_holds[idx].to = Some(now);
        }
        self.finished.insert(txn, decision);
        self.ship(txn, plan, decision, ctx);
        self.release_and_unpark(txn, ctx);
    }

    /// Ships a decided cross-shard outcome to this master's out-of-group
    /// replicas (no-op for single-shard transactions and non-masters).
    /// Every ship carries the replica's *complete* planned write set, so a
    /// replica serving several involved shards installs everything from
    /// whichever master's ship arrives first and drops the rest as
    /// duplicates.
    fn ship(&mut self, txn: TxnId, plan: &TxnPlan, decision: Decision, ctx: &mut Ctx<'_, DbMsg>) {
        let Some(targets) = plan.ships.get(&self.me.0) else { return };
        for replica in targets {
            let (kind, writes) = match decision {
                Decision::Commit => (SHARD_APPLY, plan.replica_writes.get(&replica.0).cloned()),
                Decision::Abort => (SHARD_ABORT, None),
            };
            ctx.send(*replica, DbMsg { txn, inner: CommitMsg::Kind(kind), writes, sync: None });
        }
    }

    // ---- admission: lock, then begin or park ----

    /// New lock-guarded work for `txn` — an xact (arrived, or submitted
    /// here), a shipped commit, a read: request every lock, then begin, or
    /// park behind the conflicting holders.
    fn admit(
        &mut self,
        txn: TxnId,
        route: Option<Route<'_>>,
        work: Parked,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        if self.guard_duplicate(txn) {
            return;
        }
        let (mode, keys) = work.locks();
        let mut all = true;
        for key in keys {
            all &= self.locks.acquire(txn, key.clone(), mode) != LockGrant::Waiting;
        }
        if all {
            return self.begin(txn, route, work, ctx);
        }
        let label = match work {
            Parked::Xact { .. } => "lock-wait",
            Parked::Apply { .. } => "apply-wait",
            Parked::Read { .. } => "read-wait",
        };
        ctx.note(label, txn.0 as u64);
        self.parked.insert(txn, work);
    }

    /// Attempts to restart a parked transaction whose locks may now be free.
    fn try_unpark(&mut self, txn: TxnId, ctx: &mut Ctx<'_, DbMsg>) {
        let Some(parked) = self.parked.remove(&txn) else { return };
        let all_held = {
            let (mode, mut keys) = parked.locks();
            keys.all(|k| self.locks.holds(txn, k, mode))
        };
        if !all_held {
            self.parked.insert(txn, parked);
            return;
        }
        let plans = Rc::clone(&self.plans);
        self.begin(txn, Route::of(&plans, txn), parked, ctx);
    }

    /// Every lock is held: run the work.
    fn begin(
        &mut self,
        txn: TxnId,
        route: Option<Route<'_>>,
        work: Parked,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        match (work, route) {
            (Parked::Apply { writes }, _) => self.do_apply(txn, writes, ctx),
            // An xact: stage the writes and start the commit protocol.
            (Parked::Xact { from, writes }, Some(route @ Route::Write(plan))) => {
                self.stage_locally(txn, writes);
                let hold_index = {
                    let mut m = self.metrics.borrow_mut();
                    m.lock_holds.push(LockHold { site: self.me, txn, from: ctx.now(), to: None });
                    Some(m.lock_holds.len() - 1)
                };
                if plan.group.len() == 1 {
                    // A replication-1 shard (or a cross-shard group that
                    // collapsed to one shared master): the only voter is
                    // this site — there is no one to poll — so the
                    // transaction commits locally and ships straight away.
                    self.settle(txn, plan, Decision::Commit, hold_index, ctx);
                } else {
                    self.start_participant(txn, route, from, hold_index, ctx);
                }
            }
            // A read: serve a single-shard one on the spot, or start the
            // top-level protocol participant for a cross-shard snapshot.
            (Parked::Read { from, keys }, Some(route @ Route::Read(read))) => {
                if read.group.len() == 1 {
                    self.serve_read(txn, &keys, ReadPath::LockLocal, ctx);
                    self.finished.insert(txn, Decision::Commit);
                    self.release_and_unpark(txn, ctx);
                } else {
                    self.start_participant(txn, route, from, None, ctx);
                }
            }
            _ => unreachable!("only planned transactions are admitted as xacts or reads"),
        }
    }

    // ---- shipped outcomes and parked aborts ----

    /// A decided cross-shard commit shipped by a group master, its locks
    /// held: install it — full WAL discipline, momentary lock hold.
    fn do_apply(&mut self, txn: TxnId, writes: Vec<WriteOp>, ctx: &mut Ctx<'_, DbMsg>) {
        self.stage_locally(txn, writes);
        self.commit_locally(txn);
        let now = ctx.now();
        self.record_decision(txn, Decision::Commit, now);
        // The hold opens and closes at the apply instant: the replica never
        // voted, so the interval records contention only.
        let hold = LockHold { site: self.me, txn, from: now, to: Some(now) };
        self.metrics.borrow_mut().lock_holds.push(hold);
        self.finished.insert(txn, Decision::Commit);
        ctx.note("shard-applied", txn.0 as u64);
        self.release_and_unpark(txn, ctx);
    }

    /// Records a shipped abort (nothing was ever staged here).
    fn admit_abort_ship(&mut self, txn: TxnId, ctx: &mut Ctx<'_, DbMsg>) {
        if self.guard_duplicate(txn) {
            return;
        }
        self.record_decision(txn, Decision::Abort, ctx.now());
        self.finished.insert(txn, Decision::Abort);
        ctx.note("shard-aborted", txn.0 as u64);
    }

    /// An `abort` reached a transaction still waiting on locks: only a
    /// parked xact or read can be aborted (the coordinator gave up on us);
    /// shipped applies never race their own decision.
    fn abort_parked(&mut self, txn: TxnId, ctx: &mut Ctx<'_, DbMsg>) {
        let is_read = match self.parked.get(&txn) {
            Some(Parked::Read { .. }) => true,
            Some(Parked::Xact { .. }) => false,
            _ => return,
        };
        self.parked.remove(&txn);
        self.finished.insert(txn, Decision::Abort);
        if !is_read {
            self.record_decision(txn, Decision::Abort, ctx.now());
        }
        ctx.note(if is_read { "read-parked-abort" } else { "parked-abort" }, txn.0 as u64);
        self.release_and_unpark(txn, ctx);
    }

    // ---- reads ----

    /// This master submits a read-only transaction: lease fast path when it
    /// holds, the shared-lock (and, cross-shard, protocol) path otherwise.
    fn submit_read(&mut self, txn: TxnId, read: &ReadPlan, ctx: &mut Ctx<'_, DbMsg>) {
        let now = ctx.now();
        self.metrics.borrow_mut().reads_submitted.insert(txn, now);
        ctx.note("read-submitted", txn.0 as u64);
        if !read.is_cross_shard() && self.opts.lease.is_some() {
            let keys = read.keys.get(&self.me.0).map(Vec::as_slice).unwrap_or_default();
            let topology = &self.plans.topology;
            let leased =
                read.shards.iter().all(|&s| self.lease.valid(s, &topology.group(s)[1..], now));
            // The lease proves no *remote* commit is missing; a locked
            // key means a local commit round is mid-flight, so probe —
            // read-only, no queueing — and fall back if anything is
            // held.
            if leased && keys.iter().all(|k| !self.locks.is_locked(k)) {
                self.serve_read(txn, keys, ReadPath::Lease, ctx);
                self.finished.insert(txn, Decision::Commit);
                return;
            }
        }
        self.admit_read(txn, read, self.me, ctx);
    }

    /// Admits a read at a serving master (self-submission or a cross-shard
    /// coordinator's xact): acquire shared locks on the local keys, then
    /// serve (single-shard) or join the top-level protocol round. Reads
    /// never touch the WAL, storage, or lock-hold metrics.
    fn admit_read(&mut self, txn: TxnId, read: &ReadPlan, from: SiteId, ctx: &mut Ctx<'_, DbMsg>) {
        if read.virtual_of(self.me).is_some() {
            let keys = read.keys.get(&self.me.0).cloned().unwrap_or_default();
            self.admit(txn, Some(Route::Read(read)), Parked::Read { from, keys }, ctx);
        }
    }

    /// Snapshots `keys` from committed storage and reports the read.
    fn serve_read(&mut self, txn: TxnId, keys: &[Key], path: ReadPath, ctx: &mut Ctx<'_, DbMsg>) {
        let values = keys.iter().map(|k| (k.clone(), self.storage.get(k).cloned())).collect();
        self.metrics.borrow_mut().reads.push(ReadRecord {
            id: txn,
            site: self.me,
            at: ctx.now(),
            path,
            values,
        });
        ctx.note("read-served", txn.0 as u64);
    }

    // ---- maintenance chains: leases and anti-entropy ----

    /// Arms (or re-arms) a maintenance chain timer and records its expected
    /// fire instant; [`ShardNode::chain_fire`] drops orphaned chains.
    fn arm_chain(&mut self, key: u64, after: u64, ctx: &mut Ctx<'_, DbMsg>) {
        self.chain_next.insert(key, SimTime(ctx.now().ticks() + after));
        ctx.set_timer(SimDuration(after), key);
    }

    /// True if a firing chain timer is the live chain (and consumes the
    /// expectation — a duplicate chain landing on the same tick dies).
    fn chain_fire(&mut self, key: u64, ctx: &mut Ctx<'_, DbMsg>) -> bool {
        self.chain_next.remove(&key) == Some(ctx.now())
    }

    /// Arms every maintenance chain this site runs: a lease chain per
    /// multi-member shard it masters, an anti-entropy chain per shard it
    /// replicates. At start the first lease solicitation goes out right
    /// away (`solicit`); after a recovery the chains are only re-armed
    /// (`chain_next` orphans any pre-crash timer still pending).
    fn arm_chains(&mut self, solicit: bool, ctx: &mut Ctx<'_, DbMsg>) {
        let plans = Rc::clone(&self.plans);
        let topology = &plans.topology;
        if let Some(cfg) = self.opts.lease {
            for shard in 0..topology.shards() {
                if topology.master(shard) != self.me || topology.group(shard).len() == 1 {
                    continue;
                }
                if solicit {
                    self.lease_tick(shard, ctx);
                } else {
                    self.arm_chain(timer_key(shard as u64, LEASE_TAG), cfg.period, ctx);
                }
            }
        }
        if let Some(period) = self.opts.anti_entropy {
            for shard in 0..topology.shards() {
                if topology.master(shard) != self.me && topology.group(shard).contains(&self.me) {
                    self.arm_chain(timer_key(shard as u64, SYNC_TAG), period, ctx);
                }
            }
        }
    }

    /// Master side of a lease period: solicit acks from every replica of
    /// `shard` and re-arm the chain.
    fn lease_tick(&mut self, shard: usize, ctx: &mut Ctx<'_, DbMsg>) {
        let Some(cfg) = self.opts.lease else { return };
        for &replica in &self.plans.topology.group(shard)[1..] {
            ctx.send(replica, ctrl_msg(shard, LEASE_RENEW));
        }
        self.arm_chain(timer_key(shard as u64, LEASE_TAG), cfg.period, ctx);
    }

    /// Replica side of anti-entropy: report version stamps and transaction
    /// ids to the shard master, and re-arm the chain.
    fn sync_tick(&mut self, shard: usize, ctx: &mut Ctx<'_, DbMsg>) {
        let Some(period) = self.opts.anti_entropy else { return };
        let topology = &self.plans.topology;
        let versions: Vec<(Key, u64)> = self
            .versions
            .iter()
            .filter(|(k, _)| topology.shard_of(k) == shard)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let pending: Vec<TxnId> = self.slots.keys().chain(self.parked.keys()).copied().collect();
        let known: Vec<TxnId> = self.finished.keys().copied().collect();
        let payload = SyncPayload { versions, pending, known, decisions: Vec::new() };
        ctx.send(
            topology.master(shard),
            DbMsg { sync: Some(Box::new(payload)), ..ctrl_msg(shard, SYNC_REQ) },
        );
        self.arm_chain(timer_key(shard as u64, SYNC_TAG), period, ctx);
    }

    /// Master side of anti-entropy: answer a replica's request with the
    /// decisions it is missing and a version-stamped delta of `shard`'s
    /// keys. Nothing is sent when the replica is already converged.
    fn handle_sync_req(
        &mut self,
        shard: usize,
        from: SiteId,
        req: &SyncPayload,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        let plans = &self.plans;
        if plans.topology.master(shard) != self.me {
            return;
        }
        let replica_versions: BTreeMap<&Key, u64> =
            req.versions.iter().map(|(k, v)| (k, *v)).collect();
        let mut delta = Vec::new();
        let mut stamps = Vec::new();
        for (k, v) in self.storage.iter() {
            if plans.topology.shard_of(k) != shard {
                continue;
            }
            let mine = self.versions.get(k).copied().unwrap_or(0);
            if mine > replica_versions.get(k).copied().unwrap_or(0) {
                delta.push(WriteOp { key: k.clone(), value: v.clone() });
                stamps.push((k.clone(), mine));
            }
        }
        let mut decisions: Vec<(TxnId, Decision)> = Vec::new();
        for t in &req.pending {
            if let Some(d) = self.finished.get(t) {
                decisions.push((*t, *d));
            }
        }
        // Decisions the replica never even saw (its ship bounced off the
        // partition): any finished transaction of this shard that planned
        // the replica in, minus what it already knows.
        for (t, d) in &self.finished {
            if req.pending.contains(t)
                || req.known.contains(t)
                || decisions.iter().any(|(x, _)| x == t)
            {
                continue;
            }
            let Some(plan) = plans.get(*t) else { continue };
            if !plan.shards.contains(&shard) {
                continue;
            }
            if plan.writes.contains_key(&from.0) || plan.replica_writes.contains_key(&from.0) {
                decisions.push((*t, *d));
            }
        }
        if delta.is_empty() && decisions.is_empty() {
            return;
        }
        let payload =
            SyncPayload { versions: stamps, pending: Vec::new(), known: Vec::new(), decisions };
        ctx.send(
            from,
            DbMsg {
                writes: Some(delta),
                sync: Some(Box::new(payload)),
                ..ctrl_msg(shard, SYNC_RESP)
            },
        );
    }

    /// Replica side of a sync response: replay missed decisions first (they
    /// unblock parked state and credit availability), then install the
    /// still-newer delta under a synthetic transaction with full WAL
    /// discipline, adopting the master's stamps.
    fn handle_sync_resp(
        &mut self,
        writes: Option<Vec<WriteOp>>,
        payload: &SyncPayload,
        ctx: &mut Ctx<'_, DbMsg>,
    ) {
        for (t, d) in &payload.decisions {
            self.apply_sync_decision(*t, *d, ctx);
        }
        let delta = writes.unwrap_or_default();
        let mut install = Vec::new();
        let mut stamps = Vec::new();
        for (w, (k, v)) in delta.iter().zip(payload.versions.iter()) {
            debug_assert_eq!(&w.key, k, "delta and stamps are index-aligned");
            if self.versions.get(k).copied().unwrap_or(0) >= *v {
                continue; // a decision replay or racing ship already caught up
            }
            if self.locks.is_locked(&w.key) {
                continue; // an in-flight transaction owns it; next round
            }
            install.push(w.clone());
            stamps.push((k.clone(), *v));
        }
        if install.is_empty() {
            return;
        }
        let txn = TxnId(SYNC_BASE + self.sync_installs);
        self.sync_installs += 1;
        self.stage_locally(txn, install);
        self.commit_locally(txn);
        self.versions.extend(stamps);
        ctx.note("sync-installed", txn.0 as u64);
    }

    /// Installs one master-reported decision for a transaction this replica
    /// missed: force-terminate an in-flight slot, unblock a parked entry,
    /// or install/record an outcome it never saw.
    fn apply_sync_decision(&mut self, txn: TxnId, decision: Decision, ctx: &mut Ctx<'_, DbMsg>) {
        if self.finished.contains_key(&txn) {
            return;
        }
        let plans = Rc::clone(&self.plans);
        if self.slots.contains_key(&txn) {
            // The master's durable outcome is authoritative; finish the
            // local participant with it.
            let route = Route::of(&plans, txn).expect("in-flight transactions are planned");
            self.finish(txn, route, decision, ctx);
            return;
        }
        let me = self.me.0;
        let local_writes = || {
            let plan = plans.get(txn)?;
            plan.writes.get(&me).or_else(|| plan.replica_writes.get(&me)).cloned()
        };
        if let Some(parked) = self.parked.remove(&txn) {
            self.release_and_unpark(txn, ctx);
            match (parked, decision) {
                (Parked::Read { .. }, _) => {
                    // A parked read the master somehow decided: nothing was
                    // snapshotted here; just close it out.
                    self.finished.insert(txn, decision);
                }
                (_, Decision::Abort) => self.admit_abort_ship(txn, ctx),
                (Parked::Xact { .. } | Parked::Apply { .. }, Decision::Commit) => {
                    let writes = local_writes().unwrap_or_default();
                    self.admit(txn, None, Parked::Apply { writes }, ctx);
                }
            }
            return;
        }
        if plans.get(txn).is_none() {
            return;
        }
        match decision {
            Decision::Commit => {
                if let Some(writes) = local_writes() {
                    self.admit(txn, None, Parked::Apply { writes }, ctx);
                }
            }
            Decision::Abort => self.admit_abort_ship(txn, ctx),
        }
    }
}

impl Actor<DbMsg> for ShardNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
        for &(at, txn) in &self.workload {
            let tag = if self.plans.get_read(txn).is_some() { READ_TAG } else { CLIENT_TAG };
            ctx.set_timer(SimDuration(at), timer_key(txn.0 as u64, tag));
        }
        self.arm_chains(true, ctx);
    }

    fn on_message(&mut self, env: Envelope<DbMsg>, ctx: &mut Ctx<'_, DbMsg>) {
        let DbMsg { txn, inner, writes, sync } = env.payload;
        let plans = Rc::clone(&self.plans);
        match inner {
            CommitMsg::Kind("xact") => match Route::of(&plans, txn) {
                Some(Route::Read(read)) => self.admit_read(txn, read, env.src, ctx),
                route @ Some(Route::Write(_)) => {
                    let work = Parked::Xact { from: env.src, writes: writes.unwrap_or_default() };
                    self.admit(txn, route, work, ctx);
                }
                None => {}
            },
            CommitMsg::Kind(SHARD_APPLY) => {
                self.admit(txn, None, Parked::Apply { writes: writes.unwrap_or_default() }, ctx)
            }
            CommitMsg::Kind(SHARD_ABORT) => self.admit_abort_ship(txn, ctx),
            CommitMsg::Kind(LEASE_RENEW) => {
                // Replica side: ack the solicitation straight back.
                ctx.send(
                    env.src,
                    DbMsg { txn, inner: CommitMsg::Kind(LEASE_ACK), writes: None, sync: None },
                );
            }
            CommitMsg::Kind(LEASE_ACK) => {
                if let Some(cfg) = self.opts.lease {
                    let shard = (txn.0 - CTRL_BASE) as usize;
                    let expiry = SimTime(ctx.now().ticks() + cfg.duration);
                    self.lease.grant(shard, env.src, expiry);
                }
            }
            CommitMsg::Kind(SYNC_REQ) => {
                if let Some(req) = sync {
                    self.handle_sync_req((txn.0 - CTRL_BASE) as usize, env.src, &req, ctx);
                }
            }
            CommitMsg::Kind(SYNC_RESP) => {
                if let Some(payload) = sync {
                    self.handle_sync_resp(writes, &payload, ctx);
                }
            }
            _ if self.slots.contains_key(&txn) => {
                let route = Route::of(&plans, txn).expect("in-flight transactions are planned");
                // A sender outside this transaction's group is ignored.
                if let Some(from_v) = route.virtual_of(env.src) {
                    self.drive(txn, route, ctx, |p, out| {
                        p.on_msg(SiteId(from_v as u16), &inner, out)
                    });
                }
            }
            CommitMsg::Kind("abort") => self.abort_parked(txn, ctx),
            _ => {}
        }
    }

    /// A message of `txn`'s round came back: tell its participant, write
    /// round and cross-shard read round alike. (A bounced ship or control
    /// message has no participant to tell.)
    fn on_undeliverable(&mut self, env: Envelope<DbMsg>, ctx: &mut Ctx<'_, DbMsg>) {
        let DbMsg { txn, inner, .. } = env.payload;
        let plans = Rc::clone(&self.plans);
        let Some(route) = Route::of(&plans, txn) else { return };
        if let Some(dst_v) = route.virtual_of(env.dst) {
            self.drive(txn, route, ctx, |p, out| p.on_ud(SiteId(dst_v as u16), &inner, out));
        }
    }

    fn on_timer(&mut self, raw: u64, ctx: &mut Ctx<'_, DbMsg>) {
        let id = (raw >> 8).saturating_sub(1);
        let low = raw & 0xff;
        if low == LEASE_TAG || low == SYNC_TAG {
            if !self.chain_fire(raw, ctx) {
                return; // orphaned chain (superseded across a recovery)
            }
            if low == LEASE_TAG {
                self.lease_tick(id as usize, ctx);
            } else {
                self.sync_tick(id as usize, ctx);
            }
            return;
        }
        let txn = TxnId(id as u32);
        let plans = Rc::clone(&self.plans);
        match (low, Route::of(&plans, txn)) {
            (CLIENT_TAG, route @ Some(Route::Write(plan))) => {
                self.metrics.borrow_mut().submitted.insert(txn, ctx.now());
                ctx.note("txn-submitted", txn.0 as u64);
                let writes = plan.writes.get(&self.me.0).cloned().unwrap_or_default();
                self.admit(txn, route, Parked::Xact { from: self.me, writes }, ctx);
            }
            (READ_TAG, Some(Route::Read(read))) => self.submit_read(txn, read, ctx),
            (_, Some(route)) => {
                let Some(tag) = TimerTag::decode(low) else { return };
                if let Some(slot) = self.slots.get_mut(&txn) {
                    slot.timers.remove(&tag);
                }
                self.drive(txn, route, ctx, |p, out| p.on_timer(tag, out));
            }
            (_, None) => {}
        }
    }

    /// The crash wipes this site's volatile state, so its in-flight
    /// lock-hold intervals end *now* — leaving them open would bill a
    /// crashed site's locks to the full horizon and corrupt E14's
    /// blocked-lock accounting. Pure metrics bookkeeping; the state itself
    /// is torn down in [`ShardNode::on_recover`].
    fn on_crash(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
        let now = ctx.now();
        let mut m = self.metrics.borrow_mut();
        for slot in self.slots.values() {
            if let Some(idx) = slot.hold_index {
                if m.lock_holds[idx].to.is_none() {
                    m.lock_holds[idx].to = Some(now);
                }
            }
        }
    }

    /// Crash recovery (Sec. 2's single-site discipline): volatile state —
    /// staged writes, unflushed log records, in-flight protocol
    /// participants, lock table, leases — is gone; the durable log decides
    /// what to redo and what to presume aborted. Parked shipped applies are
    /// lost with the rest of the volatile state — the replica stays stale,
    /// which the per-shard availability metrics surface.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
        for (_, slot) in std::mem::take(&mut self.slots) {
            self.pools[slot.pool].1.release(slot.participant);
        }
        self.parked.clear();
        self.locks = LockTable::new();
        self.lease.clear();
        self.storage.crash();
        self.wal.crash();
        let summary = crate::recovery::recover(&mut self.storage, &mut self.wal);
        if self.opts.anti_entropy.is_some() {
            // Version stamps are volatile: recount them from the durable
            // log (committed transactions' Begin keys). A post-crash
            // under-count only costs a redundant — idempotent —
            // anti-entropy transfer.
            self.versions.clear();
            self.sync_installs = 0;
            let mut begin_keys: BTreeMap<TxnId, &[WriteOp]> = BTreeMap::new();
            for rec in self.wal.durable() {
                match rec {
                    Record::Begin { txn, writes } => {
                        if txn.0 >= SYNC_BASE && txn.0 < CTRL_BASE {
                            self.sync_installs = self.sync_installs.max(txn.0 - SYNC_BASE + 1);
                        }
                        begin_keys.insert(*txn, writes);
                    }
                    Record::Commit { txn } => {
                        for w in begin_keys.get(txn).copied().unwrap_or_default() {
                            *self.versions.entry(w.key.clone()).or_insert(0) += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        // Maintenance chains may have been suppressed while down.
        self.arm_chains(false, ctx);
        let now = ctx.now();
        for txn in &summary.redone {
            self.record_decision(*txn, Decision::Commit, now);
            self.finished.insert(*txn, Decision::Commit);
        }
        for txn in &summary.discarded {
            self.finished.insert(*txn, Decision::Abort);
        }
        ctx.note("recovered", (summary.redone.len() + summary.discarded.len()) as u64);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::TxnSpec;
    use crate::value::Value;
    use ptp_protocols::termination::{PhasePlan, TerminationSlave, TerminationVariant};
    use ptp_simnet::{DelayModel, NetConfig, PartitionEngine, ScheduleBuilder, Simulation, Trace};

    fn xact(txn: u32, keys: &[&str]) -> DbMsg {
        let writes = keys
            .iter()
            .map(|k| WriteOp { key: Key::from(*k), value: Value::from_u64(1) })
            .collect();
        DbMsg { txn: TxnId(txn), inner: CommitMsg::Kind("xact"), writes: Some(writes), sync: None }
    }

    /// Master stand-in at site 0: fires a scripted burst of messages at the
    /// slave and ignores everything the slave's protocol sends back.
    struct ScriptedMaster(Vec<DbMsg>);

    impl Actor<DbMsg> for ScriptedMaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
            for msg in self.0.drain(..) {
                ctx.send(SiteId(1), msg);
            }
        }
        fn on_message(&mut self, _env: Envelope<DbMsg>, _ctx: &mut Ctx<'_, DbMsg>) {}
    }

    /// Runs `script` against one slave (site 1 of a flat two-site cluster
    /// planning transactions 1..=3) and hands the slave to `check`.
    fn run_slave(script: Vec<DbMsg>, delay: &DelayModel, check: impl FnOnce(&ShardNode, &Trace)) {
        let factory = ParticipantFactory::pooled(Rc::new(|site, _n| {
            TerminationSlave::new(
                PhasePlan::three_phase(),
                site,
                Vote::Yes,
                TerminationVariant::Transient,
            )
            .into()
        }));
        let specs = (1..=3).map(|id| TxnSpec { id: TxnId(id), writes: BTreeMap::new() });
        let slave = ShardNode::new(
            SiteId(1),
            Rc::new(PlanTable::flat(2, specs, [])),
            factory,
            Rc::new(RefCell::new(Metrics::default())),
            Vec::new(),
            Storage::new(),
            ShardNodeOpts::default(),
        );
        let actors: Vec<Box<dyn Actor<DbMsg>>> =
            vec![Box::new(ScriptedMaster(script)), Box::new(slave)];
        let partition = PartitionEngine::always_connected();
        let sim = Simulation::new(NetConfig::default(), actors, partition, delay, vec![]);
        let (actors, trace, _) = sim.run();
        check(actors[1].as_any().and_then(|a| a.downcast_ref::<ShardNode>()).unwrap(), &trace);
    }

    #[test]
    fn duplicate_xact_for_parked_txn_is_ignored() {
        // txn 1 takes the lock on "k"; txn 2 parks behind it; the duplicate
        // xact for parked txn 2 must not re-acquire (which would enqueue a
        // second wait-queue entry and overwrite the parked entry).
        let script = vec![xact(1, &["k"]), xact(2, &["k"]), xact(2, &["k"])];
        run_slave(script, &DelayModel::Fixed(100), |node, trace| {
            assert_eq!(trace.notes("lock-wait").count(), 1, "the duplicate xact re-parked txn 2");
            assert_eq!(node.locks.waiting_count(), 0, "stale wait-queue entries remain");
            assert!(node.parked.is_empty());
            assert!(node.slots.is_empty());
            // Both transactions terminated (abandoned by the silent master,
            // so both abort) — and txn 2 reused txn 1's pooled participant.
            assert_eq!(node.finished.len(), 2);
            assert_eq!(node.participants_constructed(), 1);
            assert_eq!(node.participants_reused(), 1);
        });
    }

    #[test]
    fn parked_abort_promotes_waiters_queued_behind_its_granted_locks() {
        // txn 1 takes k1. txn 2 wants [k1, k2]: k2 is granted, k1 waits, so
        // it parks *holding* k2. txn 3 wants k2 and queues behind txn 2.
        // The master then aborts parked txn 2: releasing its locks promotes
        // txn 3, which must actually start (regression: the promoted list
        // was dropped, stranding txn 3 in `parked` forever).
        let abort_two =
            DbMsg { txn: TxnId(2), inner: CommitMsg::Kind("abort"), writes: None, sync: None };
        let script = vec![xact(1, &["k1"]), xact(2, &["k1", "k2"]), xact(3, &["k2"]), abort_two];
        // Deliver in script order: msg i arrives at (i + 1) * 100.
        let delay = ScheduleBuilder::with_default(100)
            .outbound(1, 200)
            .outbound(2, 300)
            .outbound(3, 400)
            .build();
        run_slave(script, &delay, |node, trace| {
            assert!(
                trace.first_note(SiteId(1), "parked-abort").is_some(),
                "txn 2 must be aborted while parked"
            );
            assert!(node.parked.is_empty(), "txn 3 stranded in parked: promotion dropped");
            // txn 3 began (WAL Begin) once txn 2's release promoted it, and
            // — abandoned by the silent master — terminated via its own
            // timeout.
            assert!(
                node.wal
                    .durable()
                    .iter()
                    .any(|r| matches!(r, Record::Begin { txn, .. } if *txn == TxnId(3))),
                "txn 3 never began"
            );
            assert_eq!(node.finished.get(&TxnId(2)), Some(&Decision::Abort));
            assert!(node.finished.contains_key(&TxnId(3)), "txn 3 must terminate");
            assert_eq!(node.locks.waiting_count(), 0);
        });
    }
}
