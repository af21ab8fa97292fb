//! The simulated site: [`crate::core::SiteCore`] hosted as a `ptp-simnet`
//! actor — the only `impl Actor<DbMsg>` in the workspace, under the flat
//! [`crate::DbCluster`] and the sharded [`crate::ShardCluster`] alike.
//!
//! The host is thin. It lends the core the simulator's clock, network and
//! timers (a [`TimerKey`] becomes the `u64` tag the trace shows), flushes
//! the WAL on the spot (simulated stable storage is free), submits the
//! workload from pre-loaded timers, and writes the run's [`RunLog`] — the
//! shared [`Metrics`] and the sites' notes — from the core's
//! [`SiteEvent`]s.

use crate::core::{Host, Hosted, SiteCore, SiteEvent, TimerKey, Via};
use crate::plan::PlanTable;
use crate::site::{DbMsg, LockHold, Metrics, ParticipantFactory, ReadRecord};
use crate::storage::Storage;
use crate::value::{IdMap, TxnId};
use crate::wal::Wal;
use ptp_model::Decision;
use ptp_protocols::api::TimerTag;
use ptp_simnet::{Actor, Ctx, Envelope, SimDuration, SiteId, TimerHandle, TraceEvent};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

pub use crate::core::{
    ShardNodeOpts, LEASE_ACK, LEASE_RENEW, SHARD_ABORT, SHARD_APPLY, SYNC_REQ, SYNC_RESP,
};

/// Timer-tag encoding: `(id + 1) << 8 | low` ([`timer_tag`]). Protocol
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

fn timer_tag(id: u64, low: u64) -> u64 {
    ((id + 1) << 8) | low
}

fn encode(key: TimerKey) -> u64 {
    match key {
        TimerKey::Protocol(txn, tag) => timer_tag(txn.0 as u64, tag.encode()),
        TimerKey::Lease(shard) => timer_tag(shard as u64, LEASE_TAG),
        TimerKey::Sync(shard) => timer_tag(shard as u64, SYNC_TAG),
    }
}

/// What a run's sites write as they go, shared by every [`ShardNode`] of
/// the run.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Decisions, submissions, lock-hold intervals, served reads.
    pub metrics: Metrics,
    /// Every note the sites made, in the order they made it — `None` when
    /// the simulator records the whole trace, where the notes land beside
    /// the envelopes and timers.
    pub notes: Option<Vec<TraceEvent>>,
}

/// The core's environment during one handler call.
struct SimHost<'a, 'c> {
    ctx: &'a mut Ctx<'c, DbMsg>,
    log: &'a RefCell<RunLog>,
    timers: &'a mut IdMap<u64, TimerHandle>,
    holds: &'a mut IdMap<TxnId, usize>,
}

impl Host for SimHost<'_, '_> {
    fn now(&self) -> u64 {
        self.ctx.now().ticks()
    }

    fn t(&self, units: u64) -> u64 {
        self.ctx.t(units).0
    }

    fn send(&mut self, dst: SiteId, msg: DbMsg) {
        self.ctx.send(dst, msg);
    }

    fn set_timer(&mut self, key: TimerKey, after: u64) {
        let tag = encode(key);
        let handle = self.ctx.set_timer(SimDuration(after), tag);
        if let Some(old) = self.timers.insert(tag, handle) {
            self.ctx.cancel_timer(old);
        }
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        if let Some(old) = self.timers.remove(&encode(key)) {
            self.ctx.cancel_timer(old);
        }
    }

    fn flush(&mut self, wal: &mut Wal) -> bool {
        wal.flush();
        true
    }

    /// Writes the event's metrics, then its note.
    fn event(&mut self, event: SiteEvent) {
        let (now, me) = (self.ctx.now(), self.ctx.me());
        let mut log = self.log.borrow_mut();
        let RunLog { metrics: m, notes } = &mut *log;
        let (label, detail) = match event {
            SiteEvent::Submitted { txn, read: false } => {
                m.submitted.insert(txn, now);
                ("txn-submitted", txn.0 as u64)
            }
            SiteEvent::Submitted { txn, read: true } => {
                m.reads_submitted.insert(txn, now);
                ("read-submitted", txn.0 as u64)
            }
            SiteEvent::LockWait { txn, work } => (work, txn.0 as u64),
            SiteEvent::LocksHeld { txn } => {
                self.holds.insert(txn, m.lock_holds.len());
                return m.lock_holds.push(LockHold { site: me, txn, from: now, to: None });
            }
            SiteEvent::Decided { .. } => return,
            SiteEvent::Completed { txn, via: Via::Sync, .. } => ("sync-installed", txn.0 as u64),
            SiteEvent::Completed { txn, decision, via, .. } => {
                m.decisions.entry(txn).or_default().insert(me.0, (decision, now));
                match (via, decision) {
                    (Via::Ship | Via::Replay, Decision::Commit) => {
                        // The hold opens and closes at the apply instant:
                        // the replica never voted, so the interval records
                        // contention only.
                        m.lock_holds.push(LockHold { site: me, txn, from: now, to: Some(now) });
                        ("shard-applied", txn.0 as u64)
                    }
                    (Via::Ship | Via::Replay, Decision::Abort) => ("shard-aborted", txn.0 as u64),
                    (Via::ParkedAbort, _) => ("parked-abort", txn.0 as u64),
                    _ => {
                        if let Some(hold) = self.holds.remove(&txn) {
                            m.lock_holds[hold].to = Some(now);
                        }
                        return;
                    }
                }
            }
            SiteEvent::ReadServed { txn, path, values } => {
                m.reads.push(ReadRecord { id: txn, site: me, at: now, path, values });
                ("read-served", txn.0 as u64)
            }
            SiteEvent::ReadAborted { txn, parked: true, .. } => ("read-parked-abort", txn.0 as u64),
            SiteEvent::ReadAborted { txn, coordinator, .. } => {
                if coordinator {
                    m.read_aborts.insert(txn, now);
                }
                ("read-aborted", txn.0 as u64)
            }
            SiteEvent::Recovered(txns) => ("recovered", txns as u64),
            SiteEvent::Note(label, detail) => (label, detail),
        };
        // The simulator counts the note, and keeps it when it records.
        self.ctx.note(label, detail);
        if let Some(notes) = notes {
            notes.push(TraceEvent::Note { at: now, site: me, label, detail });
        }
    }
}

/// A simulated database site.
pub struct ShardNode {
    core: SiteCore,
    log: Rc<RefCell<RunLog>>,
    /// Transactions this site submits (it is their plan's master): `(tick,
    /// txn)` in submission order. Includes read-only transactions — the
    /// plan table tells them apart.
    workload: Vec<(u64, TxnId)>,
    /// The simulator handle of each armed timer, by tag. (An entry whose
    /// timer died with a crash is stale, not wrong: handles are
    /// generation-stamped, cancelling one is a no-op.)
    timers: IdMap<u64, TimerHandle>,
    /// Index into [`Metrics::lock_holds`] of each open hold interval.
    holds: IdMap<TxnId, usize>,
}

impl ShardNode {
    /// Creates a site. `workload` holds the submissions whose plans name
    /// this site as master/coordinator (reads included); the caller routes
    /// them ([`crate::cluster::run_sites`] resolves each master once).
    pub fn new(
        me: SiteId,
        plans: Arc<PlanTable>,
        factory: ParticipantFactory,
        log: Rc<RefCell<RunLog>>,
        workload: Vec<(u64, TxnId)>,
        storage: Storage,
        opts: ShardNodeOpts,
    ) -> ShardNode {
        debug_assert!(
            workload.iter().all(|(_, txn)| plans.master_of(*txn) == Some(me)),
            "a transaction is submitted away from its master"
        );
        let core = SiteCore::new(me, plans, factory, storage, opts);
        ShardNode { core, log, workload, timers: IdMap::default(), holds: IdMap::default() }
    }

    /// The hosted core, to inspect and take apart after the run.
    pub fn into_core(self) -> SiteCore {
        self.core
    }

    /// Runs `call` on the core, hosted for this handler.
    fn hosted(&mut self, ctx: &mut Ctx<'_, DbMsg>, call: impl FnOnce(Hosted<'_, SimHost<'_, '_>>)) {
        let ShardNode { core, log, timers, holds, .. } = self;
        call(core.with(&mut SimHost { ctx, log, timers, holds }));
    }
}

impl Actor<DbMsg> for ShardNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
        for &(at, txn) in &self.workload {
            let low = if self.core.plans().get_read(txn).is_some() { READ_TAG } else { CLIENT_TAG };
            ctx.set_timer(SimDuration(at), timer_tag(txn.0 as u64, low));
        }
        self.hosted(ctx, |mut core| core.start());
    }

    fn on_message(&mut self, env: Envelope<DbMsg>, ctx: &mut Ctx<'_, DbMsg>) {
        self.hosted(ctx, |mut core| core.on_message(env.src, env.payload));
    }

    fn on_undeliverable(&mut self, env: Envelope<DbMsg>, ctx: &mut Ctx<'_, DbMsg>) {
        self.hosted(ctx, |mut core| core.on_undeliverable(env.dst, env.payload));
    }

    fn on_timer(&mut self, raw: u64, ctx: &mut Ctx<'_, DbMsg>) {
        self.timers.remove(&raw);
        let id = (raw >> 8).saturating_sub(1);
        self.hosted(ctx, |mut core| match raw & 0xff {
            CLIENT_TAG | READ_TAG => core.submit(TxnId(id as u32)),
            LEASE_TAG => core.on_timer(TimerKey::Lease(id as usize)),
            SYNC_TAG => core.on_timer(TimerKey::Sync(id as usize)),
            low => {
                if let Some(tag) = TimerTag::decode(low) {
                    core.on_timer(TimerKey::Protocol(TxnId(id as u32), tag));
                }
            }
        });
    }

    /// The crash wipes this site's volatile state, so its in-flight
    /// lock-hold intervals end *now* — leaving them open would bill a
    /// crashed site's locks to the full horizon and corrupt E14's
    /// blocked-lock accounting. Pure metrics bookkeeping; the state itself
    /// is torn down in [`Hosted::recover`].
    fn on_crash(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
        let m = &mut self.log.borrow_mut().metrics;
        // Every hold ends at the same instant: the map's order is not read.
        for (_, hold) in std::mem::take(&mut self.holds) {
            m.lock_holds[hold].to = Some(ctx.now());
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, DbMsg>) {
        self.hosted(ctx, |mut core| core.recover());
    }
}
