//! The site core — **the** implementation of a database site: storage
//! engine, WAL, lock table and participant pools, driven by
//! per-transaction *group routing*, written once and hosted twice (the
//! simulator's [`crate::node::ShardNode`], `ptp-live`'s site threads).
//!
//! A [`SiteCore`] is sans-IO: it reaches its environment only through the
//! [`Host`] it is handed on every call — the clock, the network, timers,
//! stable storage and one event sink — and never asks which host that is.
//!
//! It runs whatever its [`PlanTable`] names: every transaction carries its
//! own protocol group. The paper's model ("site 0 coordinates everyone",
//! [`crate::DbCluster`]) is the one-group case ([`PlanTable::flat`]); a
//! sharded store's single- and cross-shard transactions are the general
//! one. Participants run under **virtual** site ids — index `j` within the
//! plan's group vector means virtual `SiteId(j)`, with virtual 0 the
//! master — so the unmodified protocol state machines (2PC FSA, the
//! Huang–Li termination master/slave, quorum sites) coordinate any subset
//! of the cluster at any group size. The core translates on the boundary:
//! outgoing [`Action::Send`]/[`Action::Broadcast`] targets map virtual →
//! physical through the group vector, incoming sources map physical →
//! virtual.
//!
//! On top of the participant path sit the cross-shard outcome shipping of
//! [`crate::plan`] (a group master that decides a cross-shard transaction
//! sends `shard-apply`, with the shard's writes, or `shard-abort` to its
//! out-of-group replicas, which install the decided outcome under their own
//! locks and WAL discipline), master-lease reads ([`crate::lease`]) and the
//! anti-entropy exchange that lets a stranded replica catch up.
//!
//! **Version stamps.** Each key's shard master is its version authority: it
//! assigns the next version at every commit touching the key (its lock
//! table serializes them), *before* the commit record is logged, and every
//! later message of the transaction that can install a value — the commit
//! round, the ships, a replayed decision, a sync delta — carries the
//! stamps. Everyone else adopts them, and a ship older than what is
//! installed is skipped: ships to one key ride independent delays and can
//! overtake each other. Stamps exist only where something reads them (a
//! plan ships, or anti-entropy is on). A site keeps them per shard, ordered
//! by key: an anti-entropy round is one merge of the replica's range of a
//! shard against the master's, and costs storage and lock-table probes
//! only for the keys the replica is behind on.
//!
//! **Durability.** Every force point goes through [`Host::flush`]. While a
//! host defers it (group commit), nothing the core sends leaves and no
//! commit becomes visible: messages wait in the outbox, decided commits
//! wait with their locks held, until [`Hosted::flushed`].
//!
//! **Maps.** A handler finds its transaction by id, so every map keyed by
//! id that is only probed — participant slots, parked work, the stamps
//! this site assigned, the lock table's keys per transaction, staged
//! writes — is an [`IdMap`], and where one is listed (`active_txns`, a
//! sync request's pending ids, recovery freeing participants, the
//! storage's `Debug`) it is sorted first. A map stays ordered only where
//! its order is read: committed storage (digests), the per-shard version
//! index (the sync merge), `owed` (replay order). `finished` is ordered
//! too: a hashed one costs a long run more memory than its probes save.
//!
//! **Log reclaim.** The core checkpoints its own WAL
//! ([`Wal::checkpoint`]) as transactions complete, whenever the log has
//! grown by more than a fixed floor and more than the last checkpoint left
//! in play: a finished transaction costs the log a 4-byte commit id, and a
//! recovery scan costs what is in flight. No host takes part.

use crate::lease::{LeaseConfig, LeaseTable};
use crate::locks::{LockGrant, LockMode, LockTable};
use crate::plan::{PlanTable, ReadView, Staged, TxnView};
use crate::site::{DbMsg, ParticipantFactory, ParticipantPool, ReadPath, Stamps, SyncPayload};
use crate::storage::Storage;
use crate::value::{IdMap, Key, TxnId, Value, WriteOp};
use crate::wal::{Record, Wal};
use ptp_model::Decision;
use ptp_protocols::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use ptp_protocols::AnyParticipant;
use ptp_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Message kind a client injects at a plan's master to submit it.
pub const CLIENT_XACT: &str = "client-xact";
/// Message kind a client injects at a shard master to read keys there
/// (carried as dummy writes): a read with no plan is a local one.
pub const CLIENT_READ: &str = "client-read";
/// Message kind a group master ships to its out-of-group replicas when a
/// cross-shard transaction commits (carries the shard's write set).
pub const SHARD_APPLY: &str = "shard-apply";
/// Message kind shipped on a cross-shard abort (no writes; the replica
/// only records the outcome).
pub const SHARD_ABORT: &str = "shard-abort";
/// Lease renewal solicitation, master → replica (per shard and round).
pub const LEASE_RENEW: &str = "lease-renew";
/// Lease renewal ack, replica → master: arms the replica's grant.
pub const LEASE_ACK: &str = "lease-ack";
/// Anti-entropy request, replica → shard master: carries the replica's
/// per-key version stamps and pending/newly-known transaction ids.
pub const SYNC_REQ: &str = "sync-req";
/// Anti-entropy response, master → replica: missing decisions plus a
/// version-stamped key/value delta.
pub const SYNC_RESP: &str = "sync-resp";

/// Transaction-id namespace for control traffic (lease renewals and
/// anti-entropy): `CTRL_BASE | round << 16 | shard`. Disjoint from any
/// workload id.
const CTRL_BASE: u32 = 0xFF00_0000;

/// Transaction-id namespace for synthetic anti-entropy install batches
/// (`SYNC_BASE + per-site counter`), so delta installs run the normal WAL
/// discipline without colliding with planned transactions.
const SYNC_BASE: u32 = 0xFE00_0000;

/// The log is not checkpointed for fewer reclaimable records than this: a
/// short run's log stays whole, and a long run's costs a bounded scan.
const CHECKPOINT_FLOOR: usize = 1024;

/// A control message of `kind` for `(shard, round)`.
fn ctrl_msg(kind: &'static str, shard: usize, round: u8) -> DbMsg {
    assert!(shard <= 0xFFFF, "control ids address at most 65536 shards");
    DbMsg::bare(TxnId(CTRL_BASE | (round as u32) << 16 | shard as u32), kind)
}

/// The `(shard, round)` a control message addresses, if `txn` is a control
/// id naming a shard of `plans`.
fn ctrl_target(plans: &PlanTable, txn: TxnId) -> Option<(usize, u8)> {
    let shard = (txn.0 & 0xFFFF) as usize;
    (txn.0 >= CTRL_BASE && shard < plans.topology.shards()).then_some((shard, (txn.0 >> 16) as u8))
}

/// What a timer the core arms is for; hosts map it onto their own timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKey {
    /// A commit-protocol timer of one transaction's participant.
    Protocol(TxnId, TimerTag),
    /// The lease-renewal chain of a shard this site masters.
    Lease(usize),
    /// The anti-entropy chain of a shard this site replicates.
    Sync(usize),
}

/// How an outcome became final at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// Decided by this site's protocol participant (or a sole voter).
    Protocol,
    /// Shipped by the group master that decided it.
    Ship,
    /// A missed decision replayed by the anti-entropy exchange.
    Replay,
    /// An anti-entropy delta installed under a synthetic transaction.
    Sync,
    /// The coordinator aborted it while it still waited for locks here.
    ParkedAbort,
    /// Redone from the durable log by crash recovery.
    Redo,
}

/// What happens at a site, reported through [`Host::event`] at the instant
/// it does: the simulated host writes `Metrics` and trace notes from these,
/// the live host spans, the flight recorder and client acks.
///
/// `txn` is the transaction, `decision` its outcome; `master` says this site
/// is the plan's master (the one its client waits on), `coordinator` that it
/// coordinates the read, `parked` that the read still waited for its locks.
#[allow(missing_docs)] // fields documented collectively above
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteEvent {
    /// A client submitted `txn` here (`read`: a read-only transaction).
    Submitted { txn: TxnId, read: bool },
    /// `txn`'s work queued behind conflicting lock holders; `work` is
    /// `"lock-wait"` (an xact), `"apply-wait"` (a shipped commit) or
    /// `"read-wait"`.
    LockWait { txn: TxnId, work: &'static str },
    /// An xact holds every lock: writes staged, the commit round begins.
    LocksHeld { txn: TxnId },
    /// A write reached its decision here (not yet durable, nor visible).
    Decided { txn: TxnId, decision: Decision },
    /// An outcome is durable and visible here; its locks are about to go.
    Completed { txn: TxnId, decision: Decision, via: Via, master: bool },
    /// A read was served from committed storage (`None` = key absent).
    ReadServed { txn: TxnId, path: ReadPath, values: Vec<(Key, Option<Value>)> },
    /// A cross-shard read's protocol round aborted.
    ReadAborted { txn: TxnId, parked: bool, coordinator: bool },
    /// Crash recovery finished: this many transactions redone or discarded.
    Recovered(usize),
    /// A protocol state machine's trace annotation.
    Note(&'static str, u64),
}

/// The environment of a [`SiteCore`]: everything it cannot do itself.
pub trait Host {
    /// The current instant, in the host's time units (simulation ticks;
    /// nanoseconds of wall clock).
    fn now(&self) -> u64;
    /// `units`·`T` — the network's longest end-to-end delay — in the same
    /// units.
    fn t(&self, units: u64) -> u64;
    /// Hands `msg` to the network.
    fn send(&mut self, dst: SiteId, msg: DbMsg);
    /// Arms the timer `key` to fire [`Hosted::on_timer`] `after` from
    /// now, replacing the one armed under the same key, if any.
    fn set_timer(&mut self, key: TimerKey, after: u64);
    /// Cancels the timer `key`, if armed.
    fn cancel_timer(&mut self, key: TimerKey);
    /// A force point: make everything appended to `wal` durable. `true` =
    /// done, it is; `false` = the host flushes later (its group-commit
    /// window) and then calls [`Hosted::flushed`].
    fn flush(&mut self, wal: &mut Wal) -> bool;
    /// Something happened (see [`SiteEvent`]).
    fn event(&mut self, event: SiteEvent);
}

/// Opt-in per-site feature knobs (all default off — a default run is
/// byte-identical to the pre-read-path cluster).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardNodeOpts {
    /// Master-lease fast path for local reads.
    pub lease: Option<LeaseConfig>,
    /// Anti-entropy catch-up: replicas poll their shard master this often
    /// (in the host's time units) for missed decisions and a
    /// version-stamped delta.
    pub anti_entropy: Option<u64>,
}

/// A transaction's routing, resolved from the plan table once per handler
/// call and handed down. Write plans and read plans both route protocol
/// actions through their group; only write plans attach xact write sets,
/// touch the WAL or ship.
#[derive(Clone, Copy)]
enum Route<'a> {
    Write(TxnView<'a>),
    Read(ReadView<'a>),
}

impl<'a> Route<'a> {
    fn of(plans: &'a PlanTable, txn: TxnId) -> Option<Route<'a>> {
        plans.get(txn).map(Route::Write).or_else(|| plans.get_read(txn).map(Route::Read))
    }

    fn group(self) -> &'a [SiteId] {
        match self {
            Route::Write(plan) => plan.group(),
            Route::Read(read) => read.group(),
        }
    }

    fn virtual_of(self, site: SiteId) -> Option<usize> {
        self.group().iter().position(|&s| s == site)
    }

    fn write(self) -> Option<TxnView<'a>> {
        match self {
            Route::Write(plan) => Some(plan),
            Route::Read(_) => None,
        }
    }
}

/// Per-transaction protocol state at one site. The participant lives in one
/// of the core's per-`(virtual id, group size)` pools; this records where.
struct TxnSlot {
    /// Index into [`Hosted::pools`].
    pool: usize,
    participant: usize,
    /// This site's virtual id in the transaction's group.
    my_v: usize,
    /// Armed protocol timers, one bit per [`TimerTag::index`].
    armed: u8,
    /// The stamps the latest protocol message carried, for our own commit.
    stamps: Option<Stamps>,
}

/// A transaction's lock-guarded work at this site: begun as soon as it
/// holds every lock, parked in [`Hosted::parked`] until then.
enum Work {
    /// An in-flight xact: the commit protocol has not started, so the
    /// master's timeout will abort the transaction if the wait outlasts it.
    Xact { writes: Vec<WriteOp> },
    /// A *decided* commit shipped by a group master (or replayed by
    /// anti-entropy): it must apply as soon as the locks free up — the
    /// decision is already durable at the master, there is nothing left to
    /// vote on.
    Apply { writes: Vec<WriteOp>, stamps: Option<Stamps>, via: Via },
    /// A read-only transaction waiting for shared locks on its local keys.
    Read { keys: Vec<Key> },
}

impl Work {
    /// The lock mode this work runs under, and the keys it needs.
    fn locks(&self) -> (LockMode, impl Iterator<Item = &Key>) {
        let (mode, writes, keys): (_, &[WriteOp], &[Key]) = match self {
            Work::Xact { writes, .. } | Work::Apply { writes, .. } => {
                (LockMode::Exclusive, writes, &[])
            }
            Work::Read { keys, .. } => (LockMode::Shared, &[], keys),
        };
        (mode, writes.iter().map(|w| &w.key).chain(keys))
    }
}

/// The stamp `stamps` carries for `key`, if any.
fn stamp_of(stamps: &Option<Stamps>, key: &Key) -> Option<u64> {
    stamps.as_deref()?.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// A [`SiteCore`] on its host, for one call ([`SiteCore::with`]): the site,
/// with the plan table and the host lent to every step.
pub struct Hosted<'a, H: Host> {
    site: &'a mut Site,
    plans: &'a PlanTable,
    host: &'a mut H,
}

/// A database site, minus its environment.
pub struct SiteCore {
    plans: Arc<PlanTable>,
    site: Site,
}

/// Everything [`SiteCore`] owns but the plan table (split off so a call can
/// borrow the plans shared and the rest mutably).
struct Site {
    me: SiteId,
    factory: ParticipantFactory,
    /// One participant arena per `(virtual id, group size)` this site plays:
    /// a site can be slave 2 of its own 3-replica group and coordinator of a
    /// 2-master top level at once, and the machines are not interchangeable.
    pools: Vec<((u16, u16), ParticipantPool)>,
    storage: Storage,
    wal: Wal,
    /// How many records the last WAL checkpoint left in the log (the
    /// transactions then in play).
    wal_tail: usize,
    locks: LockTable,
    slots: IdMap<TxnId, TxnSlot>,
    parked: IdMap<TxnId, Work>,
    /// Ordered, though only probed on the event path: a hashed map would
    /// cost a long run's memory more than its lookups save.
    finished: BTreeMap<TxnId, Decision>,
    /// Commits decided but not durable yet (the host deferred the flush):
    /// applied, acknowledged and shipped — and their locks released — by
    /// [`Hosted::flushed`], in decision order.
    pending: Vec<(TxnId, Via)>,
    /// A force point is waiting for the host's deferred flush: outgoing
    /// messages queue in `outbox`, so no vote or decision leaves the site
    /// ahead of the log records that precede it.
    held: bool,
    outbox: Vec<(SiteId, DbMsg)>,
    opts: ShardNodeOpts,
    /// Master-side lease rounds and grants.
    lease: LeaseTable,
    /// Whether anything can read version stamps: a plan ships (the
    /// stale-ship filter) or anti-entropy is on (the delta comparison).
    stamping: bool,
    /// Per-key versions, one key-ordered index per shard: assigned here for
    /// the keys this site masters, adopted for the rest (see the module
    /// docs). A shard's index is what a sync request sends and what the
    /// master merges it against, as it stands.
    versions: Vec<BTreeMap<Key, u64>>,
    /// The stamps this site assigned, as authority, per transaction.
    out_stamps: IdMap<TxnId, Stamps>,
    /// Synthetic ids handed to anti-entropy install batches (a plain
    /// counter: it survives a crash so the ids in the log stay unique).
    sync_installs: u32,
    /// As replica, per shard replicated: ids finished since the last sync
    /// request to that shard's master (taken back if the request bounces).
    unreported: BTreeMap<usize, Vec<TxnId>>,
    /// As master, per `(shard, replica)`: the finished transactions of the
    /// shard that plan the replica in and that it has not reported knowing —
    /// what a sync response replays.
    owed: BTreeMap<(usize, u16), BTreeSet<TxnId>>,
}

impl SiteCore {
    /// Creates site `me` over `storage`, running `plans`.
    pub fn new(
        me: SiteId,
        plans: Arc<PlanTable>,
        factory: ParticipantFactory,
        storage: Storage,
        opts: ShardNodeOpts,
    ) -> SiteCore {
        let topology = &plans.topology;
        assert!(me.index() < topology.sites());
        // The shards whose master this site polls (none with anti-entropy off).
        let replicated = (0..topology.shards()).filter(|&s| {
            opts.anti_entropy.is_some()
                && topology.master(s) != me
                && topology.group(s).contains(&me)
        });
        let site = Site {
            me,
            factory,
            pools: Vec::new(),
            storage,
            wal: Wal::new(),
            wal_tail: 0,
            locks: LockTable::new(),
            slots: IdMap::default(),
            parked: IdMap::default(),
            finished: BTreeMap::new(),
            pending: Vec::new(),
            held: false,
            outbox: Vec::new(),
            opts,
            lease: LeaseTable::new(),
            stamping: opts.anti_entropy.is_some() || plans.ships(),
            versions: vec![BTreeMap::new(); topology.shards()],
            out_stamps: IdMap::default(),
            sync_installs: 0,
            unreported: replicated.map(|s| (s, Vec::new())).collect(),
            owed: BTreeMap::new(),
        };
        SiteCore { plans, site }
    }

    /// The plan table this site routes by.
    pub fn plans(&self) -> &Arc<PlanTable> {
        &self.plans
    }

    /// Read access to the committed store.
    pub fn storage(&self) -> &Storage {
        &self.site.storage
    }

    /// Read access to the WAL.
    pub fn wal(&self) -> &Wal {
        &self.site.wal
    }

    /// Transactions with a commit protocol still in flight here, ascending.
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self.site.slots.keys().copied().collect();
        txns.sort_unstable();
        txns
    }

    /// Transactions in flight, waiting for locks, or waiting for a flush.
    pub fn in_flight(&self) -> usize {
        self.site.slots.len() + self.site.parked.len() + self.site.pending.len()
    }

    /// Across this site's pools: participants constructed, and pool
    /// acquisitions served off the free-lists.
    pub fn participants(&self) -> (usize, usize) {
        let pools = self.site.pools.iter();
        pools.fold((0, 0), |(c, r), (_, p)| (c + p.constructed(), r + p.reused()))
    }

    /// The site's durable remains: storage, WAL and recorded outcomes.
    pub fn into_parts(self) -> (Storage, Wal, BTreeMap<TxnId, Decision>) {
        (self.site.storage, self.site.wal, self.site.finished)
    }

    /// The core on `host`, ready for one of the calls below.
    pub fn with<'a, H: Host>(&'a mut self, host: &'a mut H) -> Hosted<'a, H> {
        Hosted { site: &mut self.site, plans: &self.plans, host }
    }
}

impl<H: Host> Hosted<'_, H> {
    // ---- steps every path shares ----

    /// True if this site already knows `txn` (decided, in flight, parked,
    /// or awaiting its flush): a duplicate delivery. The `parked` arm is
    /// load-bearing — re-admitting a parked transaction would enqueue
    /// duplicate wait-queue entries in the lock table and overwrite its
    /// [`Work`] entry.
    fn known(&self, txn: TxnId) -> bool {
        self.site.finished.contains_key(&txn)
            || self.site.slots.contains_key(&txn)
            || self.site.parked.contains_key(&txn)
            || self.site.pending.iter().any(|(t, _)| *t == txn)
    }

    /// Sends `msg`, or queues it behind the deferred flush.
    fn send(&mut self, dst: SiteId, msg: DbMsg) {
        if self.site.held {
            self.site.outbox.push((dst, msg));
        } else {
            self.host.send(dst, msg);
        }
    }

    /// A force point: logs `rec` and asks the host for durability. Returns
    /// whether it is durable already; if not, sends are held from here on.
    fn force(&mut self, rec: Record) -> bool {
        self.site.wal.append(rec);
        let durable = self.host.flush(&mut self.site.wal);
        self.site.held |= !durable;
        durable
    }

    /// Drops `txn`'s locks and restarts whatever that promoted: a parked
    /// transaction can hold granted locks (it parks if *any* request waits)
    /// with other waiters queued behind them.
    fn release_and_unpark(&mut self, txn: TxnId) {
        for t in self.site.locks.release_all(txn) {
            self.try_unpark(t);
        }
    }

    /// Write-ahead half of the WAL discipline: force the `Begin` record,
    /// then stage the writes.
    fn stage(&mut self, txn: TxnId, writes: Vec<WriteOp>) {
        self.force(Record::Begin { txn, writes: writes.clone() });
        self.site.storage.stage(txn, writes);
    }

    /// Commit half of the WAL discipline (Sec. 2): force the commit record;
    /// once it is durable, [`Hosted::finalize`]. (The staged write set may be
    /// empty: a site can participate in a transaction without local writes.)
    fn commit_staged(&mut self, txn: TxnId, via: Via, plan: Option<TxnView<'_>>) {
        let durable = self.force(Record::Commit { txn });
        self.committed(txn, via, plan, durable);
    }

    /// The commit record is logged: finalize now if it is durable already,
    /// else once the host has flushed.
    fn committed(&mut self, txn: TxnId, via: Via, plan: Option<TxnView<'_>>, durable: bool) {
        if durable {
            self.finalize(txn, via, plan);
        } else {
            self.site.pending.push((txn, via));
        }
    }

    /// The commit record is durable: apply, mark applied, complete.
    fn finalize(&mut self, txn: TxnId, via: Via, plan: Option<TxnView<'_>>) {
        self.site.storage.apply(txn);
        // Redo-avoidance only: nothing waits for this record.
        self.site.wal.append(Record::Applied { txn });
        self.host.flush(&mut self.site.wal);
        self.complete(txn, Decision::Commit, via, plan);
    }

    /// An outcome is final here: record and report it, ship it to any
    /// out-of-group replicas this site masters for, free the locks. (A delta
    /// install is no decision of its own, and took no locks.)
    fn complete(&mut self, txn: TxnId, decision: Decision, via: Via, plan: Option<TxnView<'_>>) {
        if via != Via::Sync {
            self.conclude(txn, decision, plan);
        }
        let master = plan.is_some_and(|p| p.master() == self.site.me);
        self.host.event(SiteEvent::Completed { txn, decision, via, master });
        if let (Via::Protocol, Some(plan)) = (via, plan) {
            self.ship(txn, plan, decision);
        }
        self.release_and_unpark(txn);
        self.checkpoint_if_due();
    }

    /// A finished transaction's log records are dead weight once its
    /// `Applied`/`Abort` is durable (Sec. 2 keeps the log for redo alone):
    /// checkpoint the WAL when what it has grown by since the last time
    /// exceeds both a fixed floor and the tail then left in play — so a
    /// record is scanned O(1) times, and the log stays proportional to the
    /// work in flight.
    fn checkpoint_if_due(&mut self) {
        let site = &mut *self.site;
        let grown = site.wal.held().saturating_sub(site.wal_tail);
        if grown > CHECKPOINT_FLOOR.max(site.wal_tail) {
            site.wal_tail = site.wal.checkpoint();
        }
    }

    /// Records `txn`'s outcome, and keeps the anti-entropy books: as
    /// replica it is news for the next sync request, as master see
    /// [`Hosted::owe`].
    fn conclude(&mut self, txn: TxnId, decision: Decision, plan: Option<TxnView<'_>>) {
        self.site.finished.insert(txn, decision);
        for news in self.site.unreported.values_mut() {
            news.push(txn);
        }
        self.owe(txn, plan);
    }

    /// As master of a shard of `plan`, this site owes finished `txn`'s
    /// decision to every replica of that shard the plan names.
    fn owe(&mut self, txn: TxnId, plan: Option<TxnView<'_>>) {
        let Some(plan) = plan.filter(|_| self.site.opts.anti_entropy.is_some()) else { return };
        for &shard in plan.shards() {
            let group = self.plans.topology.group(shard);
            if group[0] != self.site.me {
                continue;
            }
            for replica in &group[1..] {
                if plan.writes_at(*replica).is_some() {
                    self.site.owed.entry((shard, replica.0)).or_default().insert(txn);
                }
            }
        }
    }

    // ---- version stamps ----

    /// Assigns/adopts `txn`'s per-key versions at commit time, *before* the
    /// commit record is logged. Keys this site masters get the next version
    /// (the lock table serializes commits per key, so assignment order is
    /// commit order); the rest adopt the `received` stamp, or fall back to
    /// a local bump (a termination-protocol decision carries none).
    /// Returns the stamps assigned here.
    fn assign_versions(&mut self, txn: TxnId, received: Option<Stamps>) -> Option<Stamps> {
        let topology = &self.plans.topology;
        let mut assigned = Vec::new();
        for w in self.site.storage.staged_writes(txn).unwrap_or_default() {
            let shard = topology.shard_of(&w.key);
            let held = self.site.versions[shard].entry(w.key.clone()).or_insert(0);
            if topology.master(shard) == self.site.me {
                *held += 1;
                assigned.push((w.key.clone(), *held));
            } else {
                *held = stamp_of(&received, &w.key).map_or(*held + 1, |stamp| stamp.max(*held));
            }
        }
        let stamps: Stamps = (!assigned.is_empty()).then(|| assigned.into())?;
        self.site.out_stamps.insert(txn, stamps.clone());
        Some(stamps)
    }

    // ---- protocol plumbing ----

    /// Feeds one event to `txn`'s participant, if it has one in flight, and
    /// applies what the machine emits.
    fn drive(
        &mut self,
        txn: TxnId,
        route: Route<'_>,
        event: impl FnOnce(&mut AnyParticipant, &mut Vec<Action>),
    ) {
        let Some(slot) = self.site.slots.get(&txn) else { return };
        let my_v = slot.my_v;
        let mut out = Vec::new();
        event(self.site.pools[slot.pool].1.get_mut(slot.participant), &mut out);
        self.apply_actions(txn, route, my_v, out);
    }

    fn apply_actions(&mut self, txn: TxnId, route: Route<'_>, my_v: usize, actions: Vec<Action>) {
        let group = route.group();
        // A commit decided in this batch is stamped and logged up front: a
        // master announces its decision *before* it records it, and those
        // sends must carry the stamps, and wait with everything else if the
        // host defers the flush. (The batch keeps its order: what is sent
        // when is the protocol's behaviour.)
        let commits = |a: &Action| matches!(a, Action::Decide(Decision::Commit));
        let (mut stamps, mut logged) = (None, None);
        if route.write().is_some() && actions.iter().any(commits) {
            if self.site.stamping {
                let received = self.site.slots.get_mut(&txn).and_then(|slot| slot.stamps.take());
                stamps = self.assign_versions(txn, received);
            }
            logged = Some(self.force(Record::Commit { txn }));
        }
        // The group master attaches each destination's planned write set to
        // its xact.
        let msg_to = |dst: SiteId, msg: CommitMsg| {
            let writes = match (route, my_v, &msg) {
                (Route::Write(plan), 0, CommitMsg::Kind("xact")) => {
                    plan.writes_at(dst).map(Staged::to_vec)
                }
                _ => None,
            };
            DbMsg { txn, inner: msg, writes, sync: None }.stamped(stamps.as_ref())
        };
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let dst = group[to.index()];
                    self.send(dst, msg_to(dst, msg));
                }
                Action::Broadcast { msg } => {
                    for (v, &dst) in group.iter().enumerate() {
                        if v != my_v {
                            self.send(dst, msg_to(dst, msg));
                        }
                    }
                }
                Action::SetTimer { t_units, tag } => {
                    if let Some(slot) = self.site.slots.get_mut(&txn) {
                        slot.armed |= 1 << tag.index();
                    }
                    // (With the slot gone — armed after the decision — the
                    // timer fires as a no-op.)
                    let after = self.host.t(t_units);
                    self.host.set_timer(TimerKey::Protocol(txn, tag), after);
                }
                Action::CancelTimer { tag } => {
                    if let Some(slot) = self.site.slots.get_mut(&txn) {
                        slot.armed &= !(1 << tag.index());
                    }
                    self.host.cancel_timer(TimerKey::Protocol(txn, tag));
                }
                Action::Decide(decision) => self.finish(txn, route, decision, logged),
                Action::Note(label, detail) => self.host.event(SiteEvent::Note(label, detail)),
            }
        }
    }

    /// Locks held: start the commit-protocol participant for `txn` and feed
    /// it the xact its group's master — virtual site 0 — sent (a slave votes
    /// on it; the master polls its group).
    fn start_participant(&mut self, txn: TxnId, route: Route<'_>) {
        let k = route.group().len();
        let my_v = route.virtual_of(self.site.me).expect("participants are group members");
        let key = (my_v as u16, k as u16);
        let pool = self.site.pools.iter().position(|(have, _)| *have == key).unwrap_or_else(|| {
            self.site.pools.push((key, self.site.factory.pool(SiteId(key.0), k)));
            self.site.pools.len() - 1
        });
        let arena = &mut self.site.pools[pool].1;
        let participant = arena.acquire(Vote::Yes);
        let mut out = Vec::new();
        let machine = arena.get_mut(participant);
        machine.start(&mut out);
        if my_v != 0 {
            machine.on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
        }
        self.site.slots.insert(txn, TxnSlot { pool, participant, my_v, armed: 0, stamps: None });
        self.apply_actions(txn, route, my_v, out);
    }

    /// Terminates a protocol transaction locally: tears the participant
    /// down, then settles a write, or serves / aborts a cross-shard read.
    fn finish(&mut self, txn: TxnId, route: Route<'_>, decision: Decision, logged: Option<bool>) {
        let Some(slot) = self.site.slots.remove(&txn) else { return };
        for tag in (1..=TimerTag::COUNT as u64).filter_map(TimerTag::decode) {
            if slot.armed & (1 << tag.index()) != 0 {
                self.host.cancel_timer(TimerKey::Protocol(txn, tag));
            }
        }
        self.site.pools[slot.pool].1.release(slot.participant);
        let read = match route {
            Route::Write(plan) => return self.settle(txn, plan, decision, logged),
            Route::Read(read) => read,
        };
        // A cross-shard protocol read: snapshot on commit, report the abort
        // — never any WAL, storage, or lock-hold traffic.
        match decision {
            Decision::Commit => {
                let keys = read.keys_at(self.site.me).into_iter().flatten();
                self.serve_read(txn, keys, ReadPath::Protocol);
            }
            Decision::Abort => {
                let coordinator = read.master() == self.site.me;
                self.host.event(SiteEvent::ReadAborted { txn, parked: false, coordinator });
            }
        }
        self.site.finished.insert(txn, decision);
        self.release_and_unpark(txn);
    }

    /// Runs a staged write transaction's decision through the WAL
    /// discipline; [`Hosted::complete`] follows once it is durable. Commits
    /// come here with their versions assigned, and — `logged` says how
    /// durably — perhaps with their commit record written.
    fn settle(&mut self, txn: TxnId, plan: TxnView<'_>, decision: Decision, logged: Option<bool>) {
        self.host.event(SiteEvent::Decided { txn, decision });
        match (decision, logged) {
            (Decision::Commit, Some(durable)) => {
                self.committed(txn, Via::Protocol, Some(plan), durable)
            }
            (Decision::Commit, None) => self.commit_staged(txn, Via::Protocol, Some(plan)),
            (Decision::Abort, _) => {
                // Presumed abort: nothing waits for this record.
                self.site.wal.append(Record::Abort { txn });
                self.host.flush(&mut self.site.wal);
                self.site.storage.discard(txn);
                self.complete(txn, Decision::Abort, Via::Protocol, Some(plan));
            }
        }
    }

    /// Ships a decided cross-shard outcome to this master's out-of-group
    /// replicas (no-op for single-shard transactions and non-masters).
    /// Every ship carries the replica's *complete* planned write set, so a
    /// replica serving several involved shards installs everything from
    /// whichever master's ship arrives first and drops the rest as
    /// duplicates.
    fn ship(&mut self, txn: TxnId, plan: TxnView<'_>, decision: Decision) {
        // The stamps outlive the ships only while anti-entropy may replay
        // the decision.
        let stamps = match self.site.opts.anti_entropy {
            Some(_) => self.site.out_stamps.get(&txn).cloned(),
            None => self.site.out_stamps.remove(&txn),
        };
        for &replica in plan.ships_from(self.site.me) {
            let msg = match decision {
                Decision::Commit => {
                    let writes = plan.writes_at(replica).map(Staged::to_vec);
                    DbMsg { writes, ..DbMsg::bare(txn, SHARD_APPLY) }.stamped(stamps.as_ref())
                }
                Decision::Abort => DbMsg::bare(txn, SHARD_ABORT),
            };
            self.send(replica, msg);
        }
    }

    // ---- admission: lock, then begin or park ----

    /// New lock-guarded work for `txn` — an xact (arrived, or submitted
    /// here), a shipped commit, a read: request every lock, then begin, or
    /// park behind the conflicting holders.
    fn admit(&mut self, txn: TxnId, route: Option<Route<'_>>, work: Work) {
        if self.known(txn) {
            return;
        }
        let (mode, keys) = work.locks();
        let mut all = true;
        for key in keys {
            all &= self.site.locks.acquire(txn, key.clone(), mode) != LockGrant::Waiting;
        }
        if all {
            return self.begin(txn, route, work);
        }
        let label = match work {
            Work::Xact { .. } => "lock-wait",
            Work::Apply { .. } => "apply-wait",
            Work::Read { .. } => "read-wait",
        };
        self.host.event(SiteEvent::LockWait { txn, work: label });
        self.site.parked.insert(txn, work);
    }

    /// Attempts to restart a parked transaction whose locks may now be free.
    fn try_unpark(&mut self, txn: TxnId) {
        let Some(work) = self.site.parked.remove(&txn) else { return };
        let all_held = {
            let (mode, mut keys) = work.locks();
            keys.all(|k| self.site.locks.holds(txn, k, mode))
        };
        if !all_held {
            self.site.parked.insert(txn, work);
            return;
        }
        self.begin(txn, Route::of(self.plans, txn), work);
    }

    /// Every lock is held: run the work.
    fn begin(&mut self, txn: TxnId, route: Option<Route<'_>>, work: Work) {
        match (work, route) {
            (Work::Apply { writes, stamps, via }, _) => self.do_apply(txn, writes, stamps, via),
            // An xact: stage the writes and start the commit protocol.
            (Work::Xact { writes }, Some(route @ Route::Write(plan))) => {
                self.stage(txn, writes);
                self.host.event(SiteEvent::LocksHeld { txn });
                if plan.group().len() == 1 {
                    // A replication-1 shard (or a cross-shard group that
                    // collapsed to one shared master): the only voter is
                    // this site — there is no one to poll — so the
                    // transaction commits locally and ships straight away.
                    if self.site.stamping {
                        self.assign_versions(txn, None);
                    }
                    self.settle(txn, plan, Decision::Commit, None);
                } else {
                    self.start_participant(txn, route);
                }
            }
            // A cross-shard read joins the top-level protocol round for an
            // atomic snapshot; any other is served on the spot.
            (Work::Read { .. }, Some(route @ Route::Read(read))) if read.is_cross_shard() => {
                self.start_participant(txn, route)
            }
            (Work::Read { keys }, _) => {
                self.serve_read(txn, &keys, ReadPath::LockLocal);
                self.site.finished.insert(txn, Decision::Commit);
                self.release_and_unpark(txn);
            }
            (Work::Xact { .. }, _) => unreachable!("only planned writes are admitted as xacts"),
        }
    }

    // ---- shipped outcomes and parked aborts ----

    /// A decided commit shipped by a group master, its locks held: install
    /// it — full WAL discipline, momentary lock hold. The stale-ship filter
    /// runs here, under the held locks: a ship that lost a race against a
    /// newer committed write installs nothing for the keys it lost (the
    /// commit record still lands — the *decision* is not stale, only the
    /// value).
    fn do_apply(&mut self, txn: TxnId, mut writes: Vec<WriteOp>, stamps: Option<Stamps>, via: Via) {
        if self.site.stamping {
            let (topology, versions) = (&self.plans.topology, &mut self.site.versions);
            writes.retain(|w| {
                let index = &mut versions[topology.shard_of(&w.key)];
                let held = index.get(&w.key).copied().unwrap_or(0);
                let version = stamp_of(&stamps, &w.key).unwrap_or(held + 1);
                if version > held {
                    index.insert(w.key.clone(), version);
                }
                version > held
            });
        }
        self.stage(txn, writes);
        self.commit_staged(txn, via, None);
    }

    /// Records a shipped abort (nothing was ever staged here).
    fn admit_abort_ship(&mut self, txn: TxnId) {
        if self.known(txn) {
            return;
        }
        self.conclude(txn, Decision::Abort, None);
        let (decision, via) = (Decision::Abort, Via::Ship);
        self.host.event(SiteEvent::Completed { txn, decision, via, master: false });
    }

    /// An `abort` reached a transaction still waiting on locks: only a
    /// parked xact or read can be aborted (the coordinator gave up on us);
    /// shipped applies never race their own decision.
    fn abort_parked(&mut self, txn: TxnId, route: Option<Route<'_>>) {
        match self.site.parked.get(&txn) {
            Some(Work::Xact { .. }) => {
                self.site.parked.remove(&txn);
                let plan = route.and_then(Route::write);
                self.complete(txn, Decision::Abort, Via::ParkedAbort, plan);
            }
            Some(Work::Read { .. }) => {
                self.site.parked.remove(&txn);
                self.site.finished.insert(txn, Decision::Abort);
                self.host.event(SiteEvent::ReadAborted { txn, parked: true, coordinator: false });
                self.release_and_unpark(txn);
            }
            _ => {}
        }
    }

    // ---- submissions and reads ----

    /// A client submits planned `txn` here, its master: a write is admitted
    /// as this master's own xact, a read takes the read path.
    pub fn submit(&mut self, txn: TxnId) {
        match Route::of(self.plans, txn) {
            Some(route @ Route::Write(plan)) => {
                self.host.event(SiteEvent::Submitted { txn, read: false });
                let writes = plan.writes_at(self.site.me).map(Staged::to_vec).unwrap_or_default();
                self.admit(txn, Some(route), Work::Xact { writes });
            }
            Some(Route::Read(read)) => {
                let keys = read.keys_at(self.site.me).map(Staged::to_vec).unwrap_or_default();
                self.submit_read(txn, Some(read), keys);
            }
            None => {}
        }
    }

    /// A read-only transaction over `keys`, submitted here: the lease fast
    /// path when it holds, the shared-lock (and, cross-shard, protocol)
    /// path otherwise. A read without a plan is a local one.
    fn submit_read(&mut self, txn: TxnId, read: Option<ReadView<'_>>, keys: Vec<Key>) {
        self.host.event(SiteEvent::Submitted { txn, read: true });
        if self.site.opts.lease.is_some() && !read.is_some_and(ReadView::is_cross_shard) {
            let (topology, now) = (&self.plans.topology, self.host.now());
            // The lease proves no *remote* commit is missing; a locked key
            // means a local commit round is mid-flight, so probe — read-only,
            // no queueing — and fall back if anything is held.
            let leased = keys.iter().all(|k| {
                let shard = topology.shard_of(k);
                let group = topology.group(shard);
                group[0] == self.site.me
                    && self.site.lease.valid(shard, &group[1..], now)
                    && !self.site.locks.is_locked(k)
            });
            if leased {
                self.serve_read(txn, &keys, ReadPath::Lease);
                self.site.finished.insert(txn, Decision::Commit);
                return;
            }
        }
        self.admit(txn, read.map(Route::Read), Work::Read { keys });
    }

    /// Snapshots `keys` from committed storage and reports the read.
    fn serve_read<'k>(
        &mut self,
        txn: TxnId,
        keys: impl IntoIterator<Item = &'k Key>,
        path: ReadPath,
    ) {
        let snapshot = |k: &Key| (k.clone(), self.site.storage.get(k).cloned());
        let values = keys.into_iter().map(snapshot).collect();
        self.host.event(SiteEvent::ReadServed { txn, path, values });
    }

    // ---- maintenance chains: leases and anti-entropy ----

    /// Starts (after a crash: restarts) every maintenance chain this site
    /// runs: a lease chain per multi-member shard it masters — the first
    /// solicitation goes out right away — and an anti-entropy chain per
    /// shard it replicates.
    pub fn start(&mut self) {
        let topology = &self.plans.topology;
        for shard in 0..topology.shards() {
            if topology.master(shard) == self.site.me && topology.group(shard).len() > 1 {
                self.lease_tick(shard);
            }
        }
        if let Some(period) = self.site.opts.anti_entropy {
            for &shard in self.site.unreported.keys() {
                self.host.set_timer(TimerKey::Sync(shard), period);
            }
        }
    }

    /// Master side of a lease period: open a renewal round, solicit acks
    /// from every replica of `shard`, and re-arm the chain.
    fn lease_tick(&mut self, shard: usize) {
        let Some(cfg) = self.site.opts.lease else { return };
        let round = self.site.lease.open_round(shard, self.host.now(), cfg);
        for &replica in &self.plans.topology.group(shard)[1..] {
            self.send(replica, ctrl_msg(LEASE_RENEW, shard, round));
        }
        self.host.set_timer(TimerKey::Lease(shard), cfg.period);
    }

    /// Replica side of anti-entropy: report version stamps, undecided ids
    /// and newly finished ids to the shard master, and re-arm the chain.
    fn sync_tick(&mut self, shard: usize) {
        let Some(period) = self.site.opts.anti_entropy else { return };
        let versions: Stamps =
            self.site.versions[shard].iter().map(|(k, v)| (k.clone(), *v)).collect();
        // In flight, then parked, each ascending.
        let mut pending: Vec<TxnId> = self.site.slots.keys().copied().collect();
        pending.sort_unstable();
        let in_flight = pending.len();
        pending.extend(self.site.parked.keys());
        pending[in_flight..].sort_unstable();
        let known = self.site.unreported.get_mut(&shard).map(std::mem::take).unwrap_or_default();
        let payload = SyncPayload { versions, pending, known, decisions: Vec::new() };
        let msg = DbMsg { sync: Some(Box::new(payload)), ..ctrl_msg(SYNC_REQ, shard, 0) };
        self.send(self.plans.topology.master(shard), msg);
        self.host.set_timer(TimerKey::Sync(shard), period);
    }

    /// Master side of anti-entropy: answer a replica's request with the
    /// decisions it is missing and a version-stamped delta of `shard`'s
    /// keys. Nothing is sent when the replica is already converged, nor to
    /// anyone but a replica of `shard`.
    ///
    /// The delta is one ordered merge of the request's ascending stamps
    /// against this shard's version index: storage and the lock table are
    /// consulted only for the keys the replica is behind on.
    fn handle_sync_req(&mut self, shard: usize, from: SiteId, req: &SyncPayload) {
        let group = self.plans.topology.group(shard);
        if group[0] != self.site.me || !group[1..].contains(&from) {
            return;
        }
        let owed = self.site.owed.entry((shard, from.0)).or_default();
        for t in &req.known {
            owed.remove(t);
        }
        // Decisions of transactions the replica still has in flight, then
        // those it never even saw (its ship bounced off the partition).
        let missing = owed.iter().filter(|t| !req.pending.contains(t));
        let decisions: Vec<(TxnId, Decision, Option<Stamps>)> = req
            .pending
            .iter()
            .chain(missing)
            .filter_map(|t| {
                Some((*t, *self.site.finished.get(t)?, self.site.out_stamps.get(t).cloned()))
            })
            .collect();
        let mut delta = Vec::new();
        let mut stamps = Vec::new();
        let mut theirs = req.versions.iter().peekable();
        for (k, &mine) in &self.site.versions[shard] {
            // The replica's stamp for `k` (0 if it sent none); a key it
            // repeats counts at its last stamp. Stamps out of order are
            // passed over as 0: the delta can only grow, never miss a key.
            let mut held = 0;
            while let Some((key, v)) = theirs.next_if(|(key, _)| key <= k) {
                if key == k {
                    held = *v;
                }
            }
            // A locked key's version may be assigned with its commit not
            // applied yet — value and stamp would disagree; next round.
            if mine <= held || self.site.locks.is_locked(k) {
                continue;
            }
            if let Some(value) = self.site.storage.get(k) {
                delta.push(WriteOp { key: k.clone(), value: value.clone() });
                stamps.push((k.clone(), mine));
            }
        }
        if delta.is_empty() && decisions.is_empty() {
            return;
        }
        let payload = SyncPayload { versions: stamps.into(), decisions, ..SyncPayload::default() };
        let msg = DbMsg {
            writes: Some(delta),
            sync: Some(Box::new(payload)),
            ..ctrl_msg(SYNC_RESP, shard, 0)
        };
        self.send(from, msg);
    }

    /// Replica side of a sync response: replay missed decisions first (they
    /// unblock parked state and credit availability), then install the
    /// still-newer delta under a synthetic transaction with full WAL
    /// discipline, adopting the master's stamps. Only `shard`'s master is
    /// heard, and only at a replica of `shard`.
    fn handle_sync_resp(
        &mut self,
        shard: usize,
        from: SiteId,
        delta: Vec<WriteOp>,
        payload: SyncPayload,
    ) {
        let group = self.plans.topology.group(shard);
        if group[0] != from || !group[1..].contains(&self.site.me) {
            return;
        }
        for (txn, decision, stamps) in payload.decisions {
            self.apply_sync_decision(shard, txn, decision, stamps);
        }
        let (index, locks) = (&mut self.site.versions[shard], &self.site.locks);
        let mut install = Vec::new();
        for (w, (k, v)) in delta.into_iter().zip(payload.versions.iter().cloned()) {
            debug_assert_eq!(w.key, k, "delta and stamps are index-aligned");
            // Skip what a decision replay or racing ship already caught up,
            // and what an in-flight transaction owns (next round).
            if index.get(&k).copied().unwrap_or(0) < v && !locks.is_locked(&k) {
                index.insert(k, v);
                install.push(w);
            }
        }
        if install.is_empty() {
            return;
        }
        let txn = TxnId(SYNC_BASE + self.site.sync_installs);
        self.site.sync_installs += 1;
        self.stage(txn, install);
        self.commit_staged(txn, Via::Sync, None);
    }

    /// Installs one master-reported decision for a transaction this replica
    /// missed: force-terminate an in-flight slot, unblock a parked entry,
    /// or install/record an outcome it never saw.
    fn apply_sync_decision(
        &mut self,
        shard: usize,
        txn: TxnId,
        decision: Decision,
        stamps: Option<Stamps>,
    ) {
        if self.site.finished.contains_key(&txn) {
            // Known already (this site reported it before the master had
            // finished it, the master lost its books in a crash, or the
            // outcome raced this reply): say so in the next request.
            if let Some(news) = self.site.unreported.get_mut(&shard) {
                news.push(txn);
            }
            return;
        }
        let route = Route::of(self.plans, txn);
        if let (Some(slot), Some(route)) = (self.site.slots.get_mut(&txn), route) {
            // The master's durable outcome is authoritative; finish the
            // local participant with it.
            let received = stamps.or(slot.stamps.take());
            if self.site.stamping && decision == Decision::Commit && route.write().is_some() {
                self.assign_versions(txn, received);
            }
            return self.finish(txn, route, decision, None);
        }
        if let Some(parked) = self.site.parked.remove(&txn) {
            self.release_and_unpark(txn);
            if let Work::Read { .. } = parked {
                // A parked read the master somehow decided: nothing was
                // snapshotted here; just close it out.
                self.site.finished.insert(txn, decision);
                return;
            }
        }
        match (decision, route.and_then(Route::write)) {
            (Decision::Commit, Some(plan)) => {
                if let Some(writes) = plan.writes_at(self.site.me) {
                    let writes = writes.to_vec();
                    self.admit(txn, None, Work::Apply { writes, stamps, via: Via::Replay });
                }
            }
            (Decision::Abort, Some(_)) => self.admit_abort_ship(txn),
            (_, None) => {}
        }
    }

    // ---- the host's entry points ----

    /// A message from `src` arrived.
    pub fn on_message(&mut self, src: SiteId, msg: DbMsg) {
        let DbMsg { txn, inner, writes, sync } = msg;
        let route = Route::of(self.plans, txn);
        match inner {
            CommitMsg::Kind(CLIENT_XACT) => self.submit(txn),
            CommitMsg::Kind(CLIENT_READ) => {
                let keys = writes.unwrap_or_default().into_iter().map(|w| w.key).collect();
                self.submit_read(txn, None, keys);
            }
            CommitMsg::Kind("xact") => match route {
                // A cross-shard read's coordinator polls this serving
                // master: shared locks on the local keys, then the round.
                Some(Route::Read(read)) if read.virtual_of(self.site.me).is_some() => {
                    let keys = read.keys_at(self.site.me).map(Staged::to_vec).unwrap_or_default();
                    self.admit(txn, route, Work::Read { keys });
                }
                Some(Route::Write(_)) => {
                    self.admit(txn, route, Work::Xact { writes: writes.unwrap_or_default() });
                }
                _ => {}
            },
            CommitMsg::Kind(SHARD_APPLY) => {
                let (writes, stamps) = (writes.unwrap_or_default(), sync.map(|body| body.versions));
                self.admit(txn, None, Work::Apply { writes, stamps, via: Via::Ship });
            }
            CommitMsg::Kind(SHARD_ABORT) => self.admit_abort_ship(txn),
            // Replica side: echo the round straight back.
            CommitMsg::Kind(LEASE_RENEW) => self.send(src, DbMsg::bare(txn, LEASE_ACK)),
            CommitMsg::Kind(LEASE_ACK) => {
                if let (Some(cfg), Some((shard, round))) =
                    (self.site.opts.lease, ctrl_target(self.plans, txn))
                {
                    self.site.lease.ack(shard, round, src, cfg);
                }
            }
            CommitMsg::Kind(SYNC_REQ) => {
                if let (Some(req), Some((shard, _))) = (sync, ctrl_target(self.plans, txn)) {
                    self.handle_sync_req(shard, src, &req);
                }
            }
            CommitMsg::Kind(SYNC_RESP) => {
                if let (Some(payload), Some((shard, _))) = (sync, ctrl_target(self.plans, txn)) {
                    self.handle_sync_resp(shard, src, writes.unwrap_or_default(), *payload);
                }
            }
            _ => match (self.site.slots.get_mut(&txn), route) {
                (Some(slot), Some(route)) => {
                    if let Some(body) = sync {
                        slot.stamps = Some(body.versions);
                    }
                    // A sender outside this transaction's group is ignored.
                    if let Some(from_v) = route.virtual_of(src) {
                        self.drive(txn, route, |p, out| {
                            p.on_msg(SiteId(from_v as u16), &inner, out)
                        });
                    }
                }
                _ if inner == CommitMsg::Kind("abort") => self.abort_parked(txn, route),
                _ => {}
            },
        }
    }

    /// A message to `dst` came back undeliverable: tell its transaction's
    /// participant, write round and cross-shard read round alike. A bounced
    /// sync request takes its news back for the next one; a bounced ship or
    /// lease message has no one to tell.
    pub fn on_undeliverable(&mut self, dst: SiteId, msg: DbMsg) {
        let DbMsg { txn, inner, sync, .. } = msg;
        if inner == CommitMsg::Kind(SYNC_REQ) {
            let news =
                ctrl_target(self.plans, txn).and_then(|(s, _)| self.site.unreported.get_mut(&s));
            if let (Some(req), Some(news)) = (sync, news) {
                news.extend(req.known);
            }
            return;
        }
        let Some(route) = Route::of(self.plans, txn) else { return };
        if let Some(dst_v) = route.virtual_of(dst) {
            self.drive(txn, route, |p, out| p.on_ud(SiteId(dst_v as u16), &inner, out));
        }
    }

    /// The timer armed under `key` fired.
    pub fn on_timer(&mut self, key: TimerKey) {
        match key {
            TimerKey::Lease(shard) => self.lease_tick(shard),
            TimerKey::Sync(shard) => self.sync_tick(shard),
            TimerKey::Protocol(txn, tag) => {
                let Some(route) = Route::of(self.plans, txn) else { return };
                if let Some(slot) = self.site.slots.get_mut(&txn) {
                    slot.armed &= !(1 << tag.index());
                }
                self.drive(txn, route, |p, out| p.on_timer(tag, out));
            }
        }
    }

    /// The flush a [`Host::flush`] deferred has happened: everything logged
    /// so far is durable. Releases the held messages, then makes the
    /// waiting commits visible, in decision order. Returns whether that left
    /// a new force point waiting (a finalized commit can unpark a waiter,
    /// whose `Begin` record then holds its vote back): the host may flush
    /// again at once rather than make it wait a window.
    pub fn flushed(&mut self) -> bool {
        self.site.wal.flush();
        self.site.held = false;
        for (dst, msg) in std::mem::take(&mut self.site.outbox) {
            self.host.send(dst, msg);
        }
        for (txn, via) in std::mem::take(&mut self.site.pending) {
            let plan = self.plans.get(txn).filter(|_| via == Via::Protocol);
            self.finalize(txn, via, plan);
        }
        self.site.held
    }

    /// Crash recovery (Sec. 2's single-site discipline): volatile state —
    /// staged writes, unflushed log records, in-flight participants, parked
    /// work, held messages, lock table, leases, stamps — is gone; the
    /// durable log decides what to redo and what to presume aborted. Parked
    /// shipped applies are lost with the rest: the replica stays stale
    /// until anti-entropy (or a later ship) catches it up.
    pub fn recover(&mut self) {
        // In id order: the free-lists decide which machine a later
        // transaction gets.
        let mut slots: Vec<(TxnId, TxnSlot)> = self.site.slots.drain().collect();
        slots.sort_unstable_by_key(|(txn, _)| *txn);
        for (_, slot) in slots {
            self.site.pools[slot.pool].1.release(slot.participant);
        }
        self.site.parked.clear();
        self.site.pending.clear();
        self.site.outbox.clear();
        self.site.held = false;
        self.site.locks = LockTable::new();
        self.site.lease.clear();
        self.site.out_stamps.clear();
        self.site.unreported.values_mut().for_each(Vec::clear);
        self.site.owed.clear();
        self.site.storage.crash();
        self.site.wal.crash();
        let summary = crate::recovery::recover(&mut self.site.storage, &mut self.site.wal);
        if self.site.stamping {
            // Version stamps are volatile: recount them from the durable
            // log (committed transactions' Begin keys — exact for the keys
            // this site masters). A post-crash under-count elsewhere only
            // costs a redundant — idempotent — anti-entropy transfer.
            let (topology, versions) = (&self.plans.topology, &mut self.site.versions);
            versions.iter_mut().for_each(BTreeMap::clear);
            for (key, version) in self.site.wal.committed_writes() {
                versions[topology.shard_of(&key)].insert(key, version);
            }
        }
        // Maintenance chains may have died while the site was down.
        self.start();
        // What this master finished before the crash is owed afresh: the
        // record of who knows it was volatile.
        for txn in self.site.finished.keys().copied().collect::<Vec<_>>() {
            self.owe(txn, self.plans.get(txn));
        }
        for &txn in &summary.redone {
            self.conclude(txn, Decision::Commit, self.plans.get(txn));
            let (decision, via) = (Decision::Commit, Via::Redo);
            self.host.event(SiteEvent::Completed { txn, decision, via, master: false });
        }
        for &txn in &summary.discarded {
            self.conclude(txn, Decision::Abort, self.plans.get(txn));
        }
        self.host.event(SiteEvent::Recovered(summary.redone.len() + summary.discarded.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CommitProtocol;
    use crate::plan::ShardTxnSpec;
    use crate::site::TxnSpec;
    use crate::topology::ShardTopology;
    use ptp_simnet::Payload;

    /// A host that records what the core does to it; time moves by hand.
    #[derive(Default)]
    struct Script {
        now: u64,
        /// What [`Host::flush`] answers.
        durable: bool,
        sent: Vec<(SiteId, DbMsg)>,
        timers: Vec<(TimerKey, u64)>,
        events: Vec<SiteEvent>,
    }

    impl Host for Script {
        fn now(&self) -> u64 {
            self.now
        }
        fn t(&self, units: u64) -> u64 {
            units * 1000
        }
        fn send(&mut self, dst: SiteId, msg: DbMsg) {
            self.sent.push((dst, msg));
        }
        fn set_timer(&mut self, key: TimerKey, after: u64) {
            self.cancel_timer(key);
            self.timers.push((key, self.now + after));
        }
        fn cancel_timer(&mut self, key: TimerKey) {
            self.timers.retain(|(k, _)| *k != key);
        }
        fn flush(&mut self, wal: &mut Wal) -> bool {
            if self.durable {
                wal.flush();
            }
            self.durable
        }
        fn event(&mut self, event: SiteEvent) {
            self.events.push(event);
        }
    }

    impl Script {
        fn durable() -> Script {
            Script { durable: true, ..Script::default() }
        }

        /// Fires every armed timer in deadline order until none is left.
        fn run_timers(&mut self, core: &mut SiteCore) {
            while let Some(&(key, at)) = self.timers.iter().min_by_key(|(_, at)| *at) {
                self.cancel_timer(key);
                self.now = at;
                core.with(self).on_timer(key);
            }
        }

        fn completed(&self, txn: u32) -> Option<(Decision, Via)> {
            self.events.iter().find_map(|e| match e {
                SiteEvent::Completed { txn: t, decision, via, .. } if t.0 == txn => {
                    Some((*decision, *via))
                }
                _ => None,
            })
        }
    }

    fn w(key: &str, value: u64) -> WriteOp {
        WriteOp { key: Key::from(key), value: Value::from_u64(value) }
    }

    fn xact(txn: u32, keys: &[&str]) -> DbMsg {
        DbMsg {
            writes: Some(keys.iter().map(|k| w(k, 1)).collect()),
            ..DbMsg::bare(TxnId(txn), "xact")
        }
    }

    fn site(me: u16, plans: PlanTable, protocol: CommitProtocol, opts: ShardNodeOpts) -> SiteCore {
        let factory = ParticipantFactory::pooled(protocol.participant_builder());
        SiteCore::new(SiteId(me), Arc::new(plans), factory, Storage::new(), opts)
    }

    /// The first `key-{i}` that `topology` routes to `shard`.
    fn key_in(topology: &ShardTopology, shard: usize) -> Key {
        let mut keys = (0..512).map(|i| Key::from(format!("key-{i}")));
        keys.find(|k| topology.shard_of(k) == shard).expect("probe key")
    }

    /// Slave 1 of a flat two-site cluster planning transactions 1..=3,
    /// under a master that sends what the test says and nothing else.
    fn flat_slave() -> SiteCore {
        let specs = (1..=3).map(|id| TxnSpec { id: TxnId(id), writes: BTreeMap::new() });
        let plans = PlanTable::flat(2, specs, []);
        site(1, plans, CommitProtocol::HuangLi, ShardNodeOpts::default())
    }

    #[test]
    fn duplicate_xact_for_parked_txn_is_ignored() {
        // txn 1 takes the lock on "k"; txn 2 parks behind it; the duplicate
        // xact for parked txn 2 must not re-acquire (which would enqueue a
        // second wait-queue entry and overwrite the parked entry).
        let (mut core, mut host) = (flat_slave(), Script::durable());
        for msg in [xact(1, &["k"]), xact(2, &["k"]), xact(2, &["k"])] {
            core.with(&mut host).on_message(SiteId(0), msg);
        }
        host.run_timers(&mut core);
        let waits = host.events.iter().filter(|e| matches!(e, SiteEvent::LockWait { .. })).count();
        assert_eq!(waits, 1, "the duplicate xact re-parked txn 2");
        assert_eq!(core.site.locks.waiting_count(), 0, "stale wait-queue entries remain");
        // Both transactions terminated (abandoned by the silent master, so
        // both abort) — and txn 2 reused txn 1's pooled participant.
        assert_eq!(core.in_flight(), 0);
        assert_eq!(core.site.finished.len(), 2);
        assert_eq!(core.participants(), (1, 1));
    }

    #[test]
    fn parked_abort_promotes_waiters_queued_behind_its_granted_locks() {
        // txn 1 takes k1. txn 2 wants [k1, k2]: k2 is granted, k1 waits, so
        // it parks *holding* k2. txn 3 wants k2 and queues behind txn 2.
        // The master then aborts parked txn 2: releasing its locks promotes
        // txn 3, which must actually start (regression: the promoted list
        // was dropped, stranding txn 3 in `parked` forever).
        let (mut core, mut host) = (flat_slave(), Script::durable());
        let abort_two = DbMsg::bare(TxnId(2), "abort");
        for msg in [xact(1, &["k1"]), xact(2, &["k1", "k2"]), xact(3, &["k2"]), abort_two] {
            core.with(&mut host).on_message(SiteId(0), msg);
        }
        assert_eq!(host.completed(2), Some((Decision::Abort, Via::ParkedAbort)));
        assert!(core.site.parked.is_empty(), "txn 3 stranded in parked: promotion dropped");
        // txn 3 began (WAL Begin) once txn 2's release promoted it, and —
        // abandoned by the silent master — terminates via its own timeout.
        let began = |r: &Record| matches!(r, Record::Begin { txn, .. } if *txn == TxnId(3));
        assert!(core.wal().durable().iter().any(began), "txn 3 never began");
        host.run_timers(&mut core);
        assert_eq!(core.site.finished.get(&TxnId(2)), Some(&Decision::Abort));
        assert!(core.site.finished.contains_key(&TxnId(3)), "txn 3 must terminate");
        assert_eq!(core.site.locks.waiting_count(), 0);
    }

    /// Site 2 of 2 shards × 2 replicas over 4 sites — master of shard 1,
    /// slave of the cross-shard transaction 1's top-level group `[0, 2]`,
    /// shipper to replica 3 — on a host that defers every flush, having
    /// received the xact, flushed, and received 2PC's `commit`.
    fn decided_but_unflushed() -> (SiteCore, Script, Key) {
        let topology = ShardTopology::uniform(4, 2, 2);
        let (k0, k1) = (key_in(&topology, 0), key_in(&topology, 1));
        let writes = [&k0, &k1].map(|k| WriteOp { key: k.clone(), value: Value::from_u64(9) });
        let spec = ShardTxnSpec { id: TxnId(1), writes: writes.to_vec() };
        let plans = PlanTable::compile(topology, &[spec]);
        let xact = DbMsg { writes: Some(vec![writes[1].clone()]), ..DbMsg::bare(TxnId(1), "xact") };
        let mut core = site(2, plans, CommitProtocol::TwoPhase, ShardNodeOpts::default());
        let mut host = Script::default();

        core.with(&mut host).on_message(SiteId(0), xact);
        assert!(host.sent.is_empty(), "the vote left before its Begin record was durable");
        core.with(&mut host).flushed();
        assert_eq!(host.sent.len(), 1, "the vote leaves with the flush");
        assert_eq!(host.sent[0].0, SiteId(0));

        core.with(&mut host).on_message(SiteId(0), DbMsg::bare(TxnId(1), "commit"));
        assert!(host
            .events
            .contains(&SiteEvent::Decided { txn: TxnId(1), decision: Decision::Commit }));
        assert_eq!(host.sent.len(), 1, "the ship left before its commit record was durable");
        assert_eq!(host.completed(1), None, "acknowledged before durable");
        assert!(core.site.locks.is_locked(&k1), "locks stay held until the flush");
        assert_eq!(core.storage().get(&k1), None, "visible before durable");
        (core, host, k1)
    }

    #[test]
    fn deferred_flush_holds_votes_ships_and_acks_until_flushed() {
        let (mut core, mut host, k1) = decided_but_unflushed();
        core.with(&mut host).flushed();
        assert_eq!(host.completed(1), Some((Decision::Commit, Via::Protocol)));
        let (to, ship) = host.sent.last().expect("the ship");
        assert_eq!((*to, ship.kind()), (SiteId(3), SHARD_APPLY));
        // This master stamped its key's first version; the ship carries it.
        let stamps = &ship.sync.as_ref().expect("a stamped ship").versions;
        assert_eq!(stamps[..], [(k1.clone(), 1)]);
        assert!(!core.site.locks.is_locked(&k1));
        assert_eq!(core.storage().get(&k1).and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn deferred_flush_holds_a_masters_decision_until_flushed() {
        // A master announces its decision in the same breath as it records
        // it — the announcement first. It must still wait for the record.
        let writes: BTreeMap<u16, Vec<WriteOp>> =
            [(0, vec![w("k", 1)]), (1, vec![w("k", 1)])].into();
        let plans = PlanTable::flat(2, [TxnSpec { id: TxnId(1), writes }], []);
        let mut core = site(0, plans, CommitProtocol::TwoPhase, ShardNodeOpts::default());
        let mut host = Script::default();
        core.with(&mut host).submit(TxnId(1));
        assert!(host.sent.is_empty(), "the xact left before its Begin record was durable");
        core.with(&mut host).flushed();
        assert_eq!(host.sent.len(), 1);
        core.with(&mut host).on_message(SiteId(1), DbMsg::bare(TxnId(1), "yes"));
        assert!(host
            .events
            .contains(&SiteEvent::Decided { txn: TxnId(1), decision: Decision::Commit }));
        assert_eq!(host.sent.len(), 1, "the decision left before its commit record was durable");
        assert_eq!(host.completed(1), None, "acknowledged before durable");
        core.with(&mut host).flushed();
        assert_eq!(
            host.sent.last().map(|(to, msg)| (*to, msg.kind())),
            Some((SiteId(1), "commit"))
        );
        assert_eq!(host.completed(1), Some((Decision::Commit, Via::Protocol)));
    }

    #[test]
    fn crash_before_the_deferred_flush_loses_the_commit_and_frees_the_locks() {
        let (mut core, mut host, k1) = decided_but_unflushed();
        core.with(&mut host).recover();
        core.with(&mut host).flushed();
        // The commit record was never flushed: recovery presumes abort.
        assert_eq!(core.site.finished.get(&TxnId(1)), Some(&Decision::Abort));
        assert_eq!(core.storage().get(&k1), None);
        assert!(!core.site.locks.is_locked(&k1));
        assert_eq!(core.in_flight(), 0);
        assert_eq!(host.sent.len(), 1, "nothing of the lost commit ever left");
        assert_eq!(host.completed(1), None);
    }

    /// Master 0 of one shard replicated at `[0, 1]`, leases on, started at
    /// instant 0; returns the first renewal round's id.
    fn lease_master() -> (SiteCore, Script, TxnId) {
        let plans = PlanTable::compile(ShardTopology::uniform(2, 1, 2), &[]);
        let lease = Some(LeaseConfig::new(10, 100));
        let opts = ShardNodeOpts { lease, anti_entropy: None };
        let (mut core, mut host) =
            (site(0, plans, CommitProtocol::HuangLi, opts), Script::durable());
        core.with(&mut host).start();
        let (to, renew) = host.sent.pop().expect("the first round goes out at start");
        assert_eq!((to, renew.kind()), (SiteId(1), LEASE_RENEW));
        (core, host, renew.txn)
    }

    /// Reads "k" at `now`; reports the path that served it.
    fn read_at(core: &mut SiteCore, host: &mut Script, now: u64, id: u32) -> ReadPath {
        host.now = now;
        let read = DbMsg { writes: Some(vec![w("k", 0)]), ..DbMsg::bare(TxnId(id), CLIENT_READ) };
        core.with(host).on_message(SiteId(0), read);
        match host.events.last() {
            Some(SiteEvent::ReadServed { path, .. }) => *path,
            other => panic!("read {id} was not served: {other:?}"),
        }
    }

    #[test]
    fn a_slow_ack_arms_a_grant_that_expires_a_duration_after_the_rounds_send() {
        let (mut core, mut host, round) = lease_master();
        host.now = 60;
        core.with(&mut host).on_message(SiteId(1), DbMsg::bare(round, LEASE_ACK));
        assert_eq!(read_at(&mut core, &mut host, 100, 1001), ReadPath::Lease);
        assert_eq!(
            read_at(&mut core, &mut host, 101, 1002),
            ReadPath::LockLocal,
            "60 + 100 is late"
        );
    }

    #[test]
    fn an_ack_of_a_superseded_round_arms_nothing() {
        let (mut core, mut host, round) = lease_master();
        // The next round goes out after the first one's grants would be dead.
        host.now = 150;
        core.with(&mut host).on_timer(TimerKey::Lease(0));
        host.now = 160;
        core.with(&mut host).on_message(SiteId(1), DbMsg::bare(round, LEASE_ACK));
        assert_eq!(read_at(&mut core, &mut host, 160, 1001), ReadPath::LockLocal);
    }

    #[test]
    fn a_bounced_known_report_is_sent_again_in_the_next_round() {
        let plans = PlanTable::compile(ShardTopology::uniform(2, 1, 2), &[]);
        let opts = ShardNodeOpts { lease: None, anti_entropy: Some(50) };
        let (mut core, mut host) =
            (site(1, plans, CommitProtocol::HuangLi, opts), Script::durable());
        core.with(&mut host).start();
        core.with(&mut host).on_message(SiteId(0), DbMsg::bare(TxnId(7), SHARD_ABORT));
        let round = |core: &mut SiteCore, host: &mut Script| {
            core.with(host).on_timer(TimerKey::Sync(0));
            let (to, req) = host.sent.pop().expect("a sync request");
            assert_eq!((to, req.kind()), (SiteId(0), SYNC_REQ));
            req
        };
        let first = round(&mut core, &mut host);
        assert_eq!(first.sync.as_ref().expect("a sync body").known, vec![TxnId(7)]);
        core.with(&mut host).on_undeliverable(SiteId(0), first);
        let second = round(&mut core, &mut host);
        assert_eq!(second.sync.as_ref().expect("a sync body").known, vec![TxnId(7)], "taken back");
        let third = round(&mut core, &mut host);
        assert!(third.sync.expect("a sync body").known.is_empty(), "reported once it got through");
    }

    /// Site `me` of `uniform(3, 3, 2)` — groups `[0, 1]`, `[2, 0]`, `[1, 2]`:
    /// every site masters one shard and replicates another — anti-entropy on.
    fn overlapping(me: u16) -> SiteCore {
        let plans = PlanTable::compile(ShardTopology::uniform(3, 3, 2), &[]);
        let opts = ShardNodeOpts { lease: None, anti_entropy: Some(50) };
        site(me, plans, CommitProtocol::HuangLi, opts)
    }

    #[test]
    fn a_sync_request_from_anyone_but_a_replica_of_the_shard_gets_no_answer() {
        // Master 0 of shard 0 holds a version replica 1 has not seen.
        let mut core = overlapping(0);
        let k = key_in(&core.plans().topology, 0);
        core.site.storage.seed(k.clone(), Value::from_u64(5));
        core.site.versions[0].insert(k, 1);
        let request = |shard| DbMsg { sync: Some(Box::default()), ..ctrl_msg(SYNC_REQ, shard, 0) };
        let mut host = Script::durable();
        // Site 2 replicates no shard site 0 masters; site 0 masters shard 0.
        for (from, shard) in [(2, 0), (0, 0)] {
            core.with(&mut host).on_message(SiteId(from), request(shard));
        }
        assert!(host.sent.is_empty(), "a stray request was answered: {:?}", host.sent);
        assert!(core.site.owed.is_empty(), "a stray requester is owed decisions");
        core.with(&mut host).on_message(SiteId(1), request(0));
        let answered: Vec<_> = host.sent.iter().map(|(to, msg)| (*to, msg.kind())).collect();
        assert_eq!(answered, [(SiteId(1), SYNC_RESP)], "the shard's replica is answered");
    }

    #[test]
    fn a_sync_response_from_anyone_but_the_shards_master_installs_nothing() {
        // Site 1 replicates shard 0 (master 0) and masters shard 2.
        let mut core = overlapping(1);
        let topology = core.plans().topology.clone();
        let response = |shard| {
            let k = key_in(&topology, shard);
            let payload = SyncPayload { versions: [(k.clone(), 1)].into(), ..Default::default() };
            let delta = vec![WriteOp { key: k, value: Value::from_u64(7) }];
            let sync = Some(Box::new(payload));
            DbMsg { writes: Some(delta), sync, ..ctrl_msg(SYNC_RESP, shard, 0) }
        };
        let mut host = Script::durable();
        // Not shard 0's master; shard 1's master, but site 1 is no replica
        // of it; a replica of shard 2, which site 1 masters.
        for (from, shard) in [(2, 0), (2, 1), (2, 2)] {
            core.with(&mut host).on_message(SiteId(from), response(shard));
        }
        assert!(core.storage().is_empty() && core.wal().is_empty(), "a stray delta was installed");
        assert!(host.events.is_empty(), "{:?}", host.events);
        core.with(&mut host).on_message(SiteId(0), response(0));
        assert_eq!(host.completed(SYNC_BASE), Some((Decision::Commit, Via::Sync)));
        assert_eq!(core.storage().get(&key_in(&topology, 0)), Some(&Value::from_u64(7)));
    }

    /// The master's answer to `req` as `handle_sync_req` computed it before
    /// the per-shard version index — a scan of the whole store against a map
    /// of the request, `versions` being the master's one flat version map —
    /// kept as the oracle of the merge that replaced it.
    fn scanned_answer(
        core: &SiteCore,
        versions: &BTreeMap<Key, u64>,
        shard: usize,
        from: SiteId,
        req: &SyncPayload,
    ) -> Option<DbMsg> {
        let (site, topology) = (&core.site, &core.plans.topology);
        let mut owed = site.owed.get(&(shard, from.0)).cloned().unwrap_or_default();
        for t in &req.known {
            owed.remove(t);
        }
        let missing = owed.iter().filter(|t| !req.pending.contains(t));
        let decisions: Vec<(TxnId, Decision, Option<Stamps>)> = req
            .pending
            .iter()
            .chain(missing)
            .filter_map(|t| Some((*t, *site.finished.get(t)?, site.out_stamps.get(t).cloned())))
            .collect();
        let replica_versions: BTreeMap<&Key, u64> =
            req.versions.iter().map(|(k, v)| (k, *v)).collect();
        let mut delta = Vec::new();
        let mut stamps = Vec::new();
        for (k, v) in site.storage.iter() {
            let mine = versions.get(k).copied().unwrap_or(0);
            if mine > replica_versions.get(k).copied().unwrap_or(0)
                && topology.shard_of(k) == shard
                && !site.locks.is_locked(k)
            {
                delta.push(WriteOp { key: k.clone(), value: v.clone() });
                stamps.push((k.clone(), mine));
            }
        }
        if delta.is_empty() && decisions.is_empty() {
            return None;
        }
        let payload = SyncPayload { versions: stamps.into(), decisions, ..SyncPayload::default() };
        let sync = Some(Box::new(payload));
        Some(DbMsg { writes: Some(delta), sync, ..ctrl_msg(SYNC_RESP, shard, 0) })
    }

    #[test]
    fn the_sync_merge_answers_exactly_what_the_store_scan_did() {
        use ptp_simnet::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x5C4A_2026);
        let mut draw = |n: u64| rng.gen_range(0..=n - 1);
        let topologies = [(3, 3, 2), (6, 3, 2), (2, 1, 2), (4, 2, 3)];
        // How often each case the merge must get right came up.
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for _ in 0..400 {
            let (n, shards, r) = topologies[draw(4) as usize];
            let topology = ShardTopology::uniform(n, shards, r);
            let shard = draw(shards as u64) as usize;
            let group = topology.group(shard).to_vec();
            let from = group[1 + draw(r as u64 - 1) as usize];
            let mut core = site(
                group[0].0,
                PlanTable::compile(topology.clone(), &[]),
                CommitProtocol::HuangLi,
                ShardNodeOpts { lease: None, anti_entropy: Some(50) },
            );
            if topology.shards_of_site(group[0]).len() > 1 {
                *seen.entry("master replicates another shard").or_default() += 1;
            }

            // The master's versions, store and locks over every shard's keys.
            let keys: Vec<Key> = topology.key_pool(5).concat();
            let mut flat = BTreeMap::new();
            for (i, k) in keys.iter().enumerate() {
                if draw(4) != 0 {
                    flat.insert(k.clone(), [0, 1, 2, 4][draw(4) as usize]);
                }
                if draw(4) != 0 {
                    core.site.storage.seed(k.clone(), Value::from_u64(i as u64));
                }
                if draw(5) == 0 {
                    let mode = [LockMode::Shared, LockMode::Exclusive][draw(2) as usize];
                    core.site.locks.acquire(TxnId(500 + i as u32), k.clone(), mode);
                }
            }
            for (k, v) in &flat {
                core.site.versions[topology.shard_of(k)].insert(k.clone(), *v);
            }
            // The decisions it has, owes, and stamped.
            for t in (1..=6).map(TxnId) {
                if let Some(d) =
                    [None, Some(Decision::Commit), Some(Decision::Abort)][draw(3) as usize]
                {
                    core.site.finished.insert(t, d);
                }
                if draw(2) == 0 {
                    core.site.owed.entry((shard, from.0)).or_default().insert(t);
                }
                if draw(3) == 0 {
                    core.site.out_stamps.insert(t, [(keys[0].clone(), t.0 as u64)].into());
                }
            }

            // The replica's request: stamps ascending over keys of its shard,
            // now and then of another, and of keys the master never heard of.
            let mut theirs = Vec::new();
            for k in &keys {
                if (topology.shard_of(k) == shard || draw(8) == 0) && draw(3) != 0 {
                    theirs.push((k.clone(), draw(6)));
                }
            }
            for i in 0..draw(3) {
                theirs.push((Key::from(format!("stray-{i}")), 1 + draw(4)));
            }
            theirs.sort();
            theirs.dedup_by(|a, b| a.0 == b.0);
            let pending = (1..=8).map(TxnId).filter(|_| draw(3) == 0).collect();
            let known = (1..=8).map(TxnId).filter(|_| draw(3) == 0).collect();
            let req =
                SyncPayload { versions: theirs.into(), pending, known, decisions: Vec::new() };

            for (k, &mine) in flat.iter().filter(|(k, _)| topology.shard_of(k) == shard) {
                let held = req.versions.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
                *seen.entry("both sides").or_default() += usize::from(held.is_some());
                *seen.entry("master only").or_default() += usize::from(held.is_none());
                *seen.entry("version 0").or_default() += usize::from(mine == 0);
                if mine > held.unwrap_or(0) {
                    let case = match (core.site.locks.is_locked(k), core.storage().get(k)) {
                        (true, _) => "behind but locked",
                        (false, None) => "behind but never stored",
                        (false, Some(_)) => "behind and sent",
                    };
                    *seen.entry(case).or_default() += 1;
                }
            }
            let replica_only = req.versions.iter().filter(|(k, _)| !flat.contains_key(k)).count();
            *seen.entry("replica only").or_default() += replica_only;

            let expected = scanned_answer(&core, &flat, shard, from, &req);
            let mut host = Script::durable();
            let msg = DbMsg { sync: Some(Box::new(req)), ..ctrl_msg(SYNC_REQ, shard, 0) };
            core.with(&mut host).on_message(from, msg);
            assert_eq!(host.sent, expected.into_iter().map(|m| (from, m)).collect::<Vec<_>>());
        }
        for case in [
            "master replicates another shard",
            "both sides",
            "master only",
            "replica only",
            "version 0",
            "behind but locked",
            "behind but never stored",
            "behind and sent",
        ] {
            assert!(seen.get(case).copied().unwrap_or(0) > 20, "{case} too rare: {seen:?}");
        }
    }

    #[test]
    fn the_core_checkpoints_its_own_log_and_recovers_the_same_versions() {
        // One site, one shard, no one to poll: every submission commits on
        // the spot, three log records each. Anti-entropy on, so versions
        // are stamped — and recounted from the log after a crash.
        let txns = 4 * CHECKPOINT_FLOOR as u32;
        let specs: Vec<ShardTxnSpec> = (1..=txns)
            .map(|id| ShardTxnSpec { id: TxnId(id), writes: vec![w(&format!("k{}", id % 7), 1)] })
            .collect();
        let plans = PlanTable::compile(ShardTopology::uniform(1, 1, 1), &specs);
        let opts = ShardNodeOpts { lease: None, anti_entropy: Some(50) };
        let (mut core, mut host) =
            (site(0, plans, CommitProtocol::HuangLi, opts), Script::durable());
        for id in 1..=txns {
            core.with(&mut host).submit(TxnId(id));
        }
        assert_eq!(host.completed(txns), Some((Decision::Commit, Via::Protocol)));
        let wal = core.wal();
        assert_eq!((wal.len(), wal.unflushed()), (3 * txns as usize, 0), "positions are logical");
        assert!(wal.held() <= CHECKPOINT_FLOOR + 3, "{} records held", wal.held());
        assert_eq!(wal.durable_commits().count(), txns as usize);
        let versions = core.site.versions.clone();
        assert_eq!(versions.iter().flat_map(BTreeMap::values).sum::<u64>(), txns as u64);
        core.with(&mut host).recover();
        assert_eq!(core.site.versions, versions, "recounted across the checkpoints");
        assert_eq!(host.events.last(), Some(&SiteEvent::Recovered(0)));
    }

    #[test]
    #[should_panic(expected = "65536 shards")]
    fn control_ids_reject_a_shard_they_cannot_address() {
        let _ = ctrl_msg(LEASE_RENEW, 0x1_0000, 0);
    }

    // ---- hashed maps leak no order ----

    /// Slave 1 of a flat two-site cluster planning transactions 1..=13, anti-
    /// entropy on, with 9, 3 and 7 in flight (one key each) and 10 and 8
    /// parked behind 9 and 3 — ids whose hash order is not ascending.
    fn slave_with_hashed_ids() -> (SiteCore, Script) {
        let specs = (1..=13).map(|id| TxnSpec { id: TxnId(id), writes: BTreeMap::new() });
        let opts = ShardNodeOpts { lease: None, anti_entropy: Some(50) };
        let mut core = site(1, PlanTable::flat(2, specs, []), CommitProtocol::HuangLi, opts);
        let mut host = Script::durable();
        for (txn, key) in [(9, "k9"), (3, "k3"), (7, "k7"), (10, "k9"), (8, "k3")] {
            core.with(&mut host).on_message(SiteId(0), xact(txn, &[key]));
        }
        let ids = |keys: Vec<&TxnId>| keys.into_iter().map(|t| t.0).collect::<Vec<_>>();
        let hashed =
            [ids(core.site.slots.keys().collect()), ids(core.site.parked.keys().collect())];
        assert!(hashed.iter().all(|ids| !ids.is_sorted()), "pick ids the hasher does not sort");
        (core, host)
    }

    #[test]
    fn no_hash_order_in_active_txns() {
        let (core, _) = slave_with_hashed_ids();
        assert_eq!(core.active_txns(), [TxnId(3), TxnId(7), TxnId(9)]);
    }

    #[test]
    fn no_hash_order_in_a_sync_requests_pending_ids() {
        let (mut core, mut host) = slave_with_hashed_ids();
        core.with(&mut host).on_timer(TimerKey::Sync(0));
        let (_, req) = host.sent.pop().expect("a sync request");
        let pending: Vec<u32> =
            req.sync.expect("a sync body").pending.iter().map(|t| t.0).collect();
        assert_eq!(pending, [3, 7, 9, 8, 10], "in flight ascending, then parked ascending");
    }

    #[test]
    fn no_hash_order_in_recovery_freeing_participants() {
        let (mut core, mut host) = slave_with_hashed_ids();
        let participant = |core: &SiteCore, txn| core.site.slots[&TxnId(txn)].participant;
        let [nine, seven, three] = [9, 7, 3].map(|txn| participant(&core, txn));
        core.with(&mut host).recover();
        // Freed in id order, so the free-list hands back the highest first.
        for (txn, key) in [(11, "a"), (12, "b"), (13, "c")] {
            core.with(&mut host).on_message(SiteId(0), xact(txn, &[key]));
        }
        assert_eq!([11, 12, 13].map(|txn| participant(&core, txn)), [nine, seven, three]);
    }

    #[test]
    fn no_hash_order_in_storage_debug() {
        let mut storage = Storage::new();
        let mut ordered = BTreeMap::new();
        for txn in [9, 3, 7, 8, 2, 12, 1] {
            storage.stage(TxnId(txn), vec![w("k", txn as u64)]);
            ordered.insert(TxnId(txn), vec![w("k", txn as u64)]);
        }
        let derived = format!("Storage {{ committed: {{}}, staged: {ordered:?} }}");
        assert_eq!(format!("{storage:?}"), derived);
    }
}
