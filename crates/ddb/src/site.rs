//! The vocabulary of a database site: the wire format, the workload specs,
//! the participant pool and the shared run metrics. The site *logic* that
//! speaks it — storage engine + WAL + lock manager + one embedded
//! commit-protocol participant per in-flight distributed transaction — is
//! [`crate::core::SiteCore`], hosted by the simulator
//! ([`crate::node::ShardNode`]) and by `ptp-live`'s site threads alike.
//!
//! Sites speak [`DbMsg`] — the one wire type, simulated or live: the commit
//! protocol's messages wrapped with a transaction id (and, on `xact`, the
//! destination site's write set, which is how the paper's "Xact" message
//! carries "the transaction"). In the paper's model site 0 is the master
//! for every transaction; [`crate::DbCluster`] schedules client submissions
//! there.
//!
//! Lifecycle of a transaction at a slave:
//! 1. `xact` arrives with the local write set → acquire exclusive locks
//!    (strict 2PL). If a lock is busy, the xact parks in the lock queue —
//!    the commit protocol for it has not started, so the master's 2T
//!    timeout will eventually abort the transaction (timeout-based deadlock
//!    and overload resolution).
//! 2. Locks granted → `Begin` WAL record, writes staged, the protocol
//!    participant is created and fed the xact (it votes).
//! 3. The participant's `Decide(Commit)` → durable `Commit` record → apply
//!    writes → `Applied` record → release locks. `Decide(Abort)` → durable
//!    `Abort` record → discard → release locks.
//!
//! Every lock-hold interval is reported to the cluster metrics — the data
//! behind experiment E14's availability comparison.

use crate::value::{Key, TxnId, Value, WriteOp};
use ptp_model::Decision;
use ptp_protocols::api::{CommitMsg, Participant, Vote};
use ptp_protocols::AnyParticipant;
use ptp_simnet::{Payload, SimTime, SiteId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-key version stamps, each assigned by its key's shard master at
/// commit: shared by every message of the transaction that carries them.
pub type Stamps = Arc<[(Key, u64)]>;

/// The wire format of the distributed database: commit-protocol messages
/// multiplexed by transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbMsg {
    /// Which transaction this belongs to.
    pub txn: TxnId,
    /// The commit-protocol (or shipping / control / client) message.
    pub inner: CommitMsg,
    /// On `xact`: the destination site's write set; on `shard-apply`: the
    /// replica's. Anti-entropy `sync-resp` reuses the field for its
    /// key/value delta, `client-read` for its keys (as dummy writes).
    pub writes: Option<Vec<WriteOp>>,
    /// Everything about versions: the anti-entropy body of `sync-req` /
    /// `sync-resp`, and — on a commit-round or ship message, any message
    /// that can make the receiver install a value — the stamps the sender
    /// assigned as shard master ([`DbMsg::stamped`]). Boxed so the common
    /// protocol messages don't pay for its size.
    pub sync: Option<Box<SyncPayload>>,
}

impl DbMsg {
    /// A bare message of `kind` for `txn`: no writes, no version body.
    pub fn bare(txn: TxnId, kind: &'static str) -> DbMsg {
        DbMsg { txn, inner: CommitMsg::Kind(kind), writes: None, sync: None }
    }

    /// This message carrying `stamps` (if any): a replica installs a
    /// shipped write only if its stamp is newer than what it holds — ships
    /// to one key ride independent delays and can arrive out of commit
    /// order.
    pub fn stamped(self, stamps: Option<&Stamps>) -> DbMsg {
        let body =
            |s: &Stamps| Box::new(SyncPayload { versions: s.clone(), ..SyncPayload::default() });
        DbMsg { sync: stamps.map(body), ..self }
    }
}

impl Payload for DbMsg {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Anti-entropy exchange body. A stranded replica sends its per-key version
/// stamps plus its undecided and newly decided transaction ids
/// (`sync-req`); the master answers with the decisions the replica is
/// missing and a version-stamped key/value delta (`sync-resp`, delta in
/// [`DbMsg::writes`], stamps aligned index-wise in `versions`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyncPayload {
    /// Per-key version stamps: the replica's view in a request, the
    /// master's authoritative stamps for the delta in a response, the
    /// sender's own assignments on a commit-round or ship message.
    pub versions: Stamps,
    /// Request only: transactions the replica has in flight (undecided).
    pub pending: Vec<TxnId>,
    /// Request only: transactions the replica finished since its previous
    /// request to this master (the master keeps the union), so the master
    /// does not repeat decisions the replica has.
    pub known: Vec<TxnId>,
    /// Response only: the decisions the replica is missing, each with the
    /// stamps its master assigned (`None` for aborts and after a master
    /// crash).
    pub decisions: Vec<(TxnId, Decision, Option<Stamps>)>,
}

/// A read-only transaction: a set of keys snapshotted together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSpec {
    /// Globally unique id (disjoint from write-transaction ids).
    pub id: TxnId,
    /// Keys to read.
    pub keys: Vec<Key>,
}

/// Which path served a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Master-lease fast path: lease valid and keys unlocked — served
    /// straight from committed storage with zero lock-table work.
    Lease,
    /// Shared locks acquired locally at the master; no protocol round.
    LockLocal,
    /// Cross-shard read through a top-level commit-protocol instance.
    Protocol,
}

/// One served read, reported to metrics by the serving site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// The read transaction.
    pub id: TxnId,
    /// The serving site.
    pub site: SiteId,
    /// When the values were snapshotted.
    pub at: SimTime,
    /// Which path served it.
    pub path: ReadPath,
    /// The observed values (`None` = key absent).
    pub values: Vec<(Key, Option<Value>)>,
}

/// Builder producing a fresh protocol participant for a site: the
/// protocol roster's [`ptp_protocols::SiteBuilder`] (`site == SiteId(0)`
/// yields a master, anything else a slave voting as told).
///
/// Participants are produced as enum-dispatched [`AnyParticipant`]s, so the
/// per-transaction slot stores the state machine inline — no boxing per
/// in-flight transaction.
pub type ParticipantBuilder = ptp_protocols::SiteBuilder;

/// A shared pool handle: the participant builder, cloned to every
/// site of a cluster. Each site derives its own [`ParticipantPool`] from it
/// ([`ParticipantFactory::pool`]), because participants carry their site
/// identity and cannot migrate between sites.
#[derive(Clone)]
pub struct ParticipantFactory {
    builder: ParticipantBuilder,
}

impl ParticipantFactory {
    /// A factory whose pools keep finished participants on a free-list and
    /// `reset` them for the next transaction.
    pub fn pooled(builder: ParticipantBuilder) -> ParticipantFactory {
        ParticipantFactory { builder }
    }

    /// The per-site pool for `me` in a cluster of `n`.
    pub fn pool(&self, me: SiteId, n: usize) -> ParticipantPool {
        ParticipantPool {
            builder: self.builder.clone(),
            me,
            n,
            arena: Vec::new(),
            free: Vec::new(),
            constructed: 0,
            reused: 0,
        }
    }
}

/// A per-site arena of protocol participants with a free-list of slots.
///
/// Participants live in a stable arena and are addressed by index, so a
/// transaction's state machine is never moved after construction: `acquire`
/// pops a free slot and [`Participant::reset`]s it *in place* instead of
/// constructing per transaction, and `release` just parks the index. (An
/// earlier free-list design moved the participant value in and out of the
/// pool; two 192-byte enum moves per transaction cost more than some
/// protocols' entire allocation-free constructors.) Reuse is
/// behaviour-neutral because `reset` restores the freshly-constructed state
/// — `tests/session_reuse.rs` pins that for every protocol kind, and
/// `tests/ddb_golden.rs` pins a pooled cluster's output byte for byte.
pub struct ParticipantPool {
    builder: ParticipantBuilder,
    me: SiteId,
    n: usize,
    arena: Vec<AnyParticipant>,
    free: Vec<u32>,
    constructed: usize,
    reused: usize,
}

impl ParticipantPool {
    /// The slot of a participant ready to run one transaction voting
    /// `vote`: a freed slot reset in place when one is available, a freshly
    /// built arena entry otherwise.
    pub fn acquire(&mut self, vote: Vote) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.reused += 1;
                self.arena[idx as usize].reset(vote);
                idx as usize
            }
            None => {
                self.constructed += 1;
                self.arena.push((self.builder)(self.me, self.n, vote));
                self.arena.len() - 1
            }
        }
    }

    /// Parks a finished (or crash-wiped) slot for the next transaction.
    pub fn release(&mut self, slot: usize) {
        self.free.push(slot as u32);
    }

    /// The participant in `slot`.
    pub fn get_mut(&mut self, slot: usize) -> &mut AnyParticipant {
        &mut self.arena[slot]
    }

    /// Total participants constructed since the pool was built.
    pub fn constructed(&self) -> usize {
        self.constructed
    }

    /// Total acquisitions served by resetting a freed slot in place.
    pub fn reused(&self) -> usize {
        self.reused
    }
}

/// A transaction the cluster driver submits at the master.
#[derive(Debug, Clone)]
pub struct TxnSpec {
    /// Globally unique id.
    pub id: TxnId,
    /// Write set per site index.
    pub writes: BTreeMap<u16, Vec<WriteOp>>,
}

/// One lock-hold interval, reported to metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockHold {
    /// The holding site.
    pub site: SiteId,
    /// The holding transaction.
    pub txn: TxnId,
    /// When the locks were acquired.
    pub from: SimTime,
    /// When they were released (`None` = still held at simulation end — a
    /// blocked transaction).
    pub to: Option<SimTime>,
}

/// Shared run metrics, written by all sites.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Per transaction, per site: decision and its instant.
    pub decisions: BTreeMap<TxnId, BTreeMap<u16, (Decision, SimTime)>>,
    /// Submission instants (master side).
    pub submitted: BTreeMap<TxnId, SimTime>,
    /// All lock-hold intervals.
    pub lock_holds: Vec<LockHold>,
    /// Served read-only transactions (write metrics above stay untouched by
    /// reads — the read-equivalence suite pins that).
    pub reads: Vec<ReadRecord>,
    /// Read submission instants (serving-master side).
    pub reads_submitted: BTreeMap<TxnId, SimTime>,
    /// Reads whose protocol round aborted (cross-shard reads only).
    pub read_aborts: BTreeMap<TxnId, SimTime>,
}

impl Metrics {
    /// Did any two sites decide a transaction differently?
    pub fn atomicity_violations(&self) -> Vec<TxnId> {
        self.decisions
            .iter()
            .filter(|(_, per_site)| {
                let mut kinds = per_site.values().map(|(d, _)| *d);
                let first = kinds.next();
                first.is_some_and(|f| kinds.any(|d| d != f))
            })
            .map(|(t, _)| *t)
            .collect()
    }

    /// Lock-hold duration for each interval, with `horizon` standing in for
    /// still-held locks. Returns `(txn, site, ticks, still_held)` tuples.
    pub fn hold_durations(&self, horizon: SimTime) -> Vec<(TxnId, SiteId, u64, bool)> {
        self.lock_holds
            .iter()
            .map(|h| {
                let end = h.to.unwrap_or(horizon);
                (h.txn, h.site, end.ticks().saturating_sub(h.from.ticks()), h.to.is_none())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Key, Value};
    use ptp_protocols::api::Action;
    use ptp_protocols::ProtocolKind;

    #[test]
    fn pool_resets_released_slots_in_place() {
        let factory = ParticipantFactory::pooled(ProtocolKind::HuangLi3pc.builder());
        let mut pool = factory.pool(SiteId(1), 2);
        let slot = pool.acquire(Vote::Yes);
        assert_eq!((pool.constructed(), pool.reused()), (1, 0));
        pool.release(slot);
        assert_eq!(pool.acquire(Vote::Yes), slot, "freed slot is recycled");
        assert_eq!((pool.constructed(), pool.reused()), (1, 1));
    }

    #[test]
    fn a_built_and_a_recycled_slot_vote_alike() {
        // The builder takes the vote a fresh slot runs with; a recycled slot
        // gets it through `reset`. Either way a no-voting slave says no.
        let factory = ParticipantFactory::pooled(ProtocolKind::HuangLi3pc.builder());
        let mut pool = factory.pool(SiteId(1), 3);
        let votes = |pool: &mut ParticipantPool, slot: usize| {
            let mut out = Vec::new();
            pool.get_mut(slot).start(&mut out);
            pool.get_mut(slot).on_msg(SiteId(0), &CommitMsg::Kind("xact"), &mut out);
            out
        };
        let fresh = pool.acquire(Vote::No);
        let said = votes(&mut pool, fresh);
        pool.release(fresh);
        let recycled = pool.acquire(Vote::No);
        assert_eq!(recycled, fresh);
        assert_eq!(votes(&mut pool, recycled), said);
        let no = Action::Send { to: SiteId(0), msg: CommitMsg::Kind("no") };
        assert!(said.contains(&no), "{said:?}");
    }

    #[test]
    fn db_msg_kind_delegates() {
        assert_eq!(DbMsg::bare(TxnId(1), "prepare").kind(), "prepare");
    }

    #[test]
    fn metrics_detect_violations() {
        let mut m = Metrics::default();
        m.decisions.entry(TxnId(1)).or_default().insert(0, (Decision::Commit, SimTime(5)));
        m.decisions.entry(TxnId(1)).or_default().insert(1, (Decision::Abort, SimTime(6)));
        assert_eq!(m.atomicity_violations(), vec![TxnId(1)]);
    }

    #[test]
    fn metrics_hold_durations_account_for_blocked() {
        let mut m = Metrics::default();
        m.lock_holds.push(LockHold {
            site: SiteId(1),
            txn: TxnId(1),
            from: SimTime(100),
            to: Some(SimTime(600)),
        });
        m.lock_holds.push(LockHold {
            site: SiteId(2),
            txn: TxnId(1),
            from: SimTime(100),
            to: None,
        });
        let d = m.hold_durations(SimTime(10_000));
        assert_eq!(d[0], (TxnId(1), SiteId(1), 500, false));
        assert_eq!(d[1], (TxnId(1), SiteId(2), 9_900, true));
    }

    #[test]
    fn txn_spec_carries_per_site_writes() {
        let mut writes = BTreeMap::new();
        writes.insert(1u16, vec![WriteOp { key: Key::from("a"), value: Value::from_u64(1) }]);
        let spec = TxnSpec { id: TxnId(9), writes };
        assert_eq!(spec.writes[&1].len(), 1);
    }
}
