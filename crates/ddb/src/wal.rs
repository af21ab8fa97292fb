//! Write-ahead logging with simulated stable storage.
//!
//! The paper's Sec. 2 describes the single-site recovery discipline this
//! module implements: "If a commit decision is made, a commit log which
//! contains the current state of the transaction (e.g. the update
//! information) will be stored in stable storage ... If failures occur at
//! any time before the commit log is stored, then immediately upon recovery
//! the site will abort the transaction. If failures occur after the commit
//! log is stored but before the updates are finished, all the updates will
//! be applied again when the site recovers. Because update operations are
//! idempotent ... the above scheme ensures the atomicity of the
//! transaction."
//!
//! Stable storage is simulated: records become durable only after
//! [`Wal::flush`]; a crash ([`Wal::crash`]) discards everything beyond the
//! flushed watermark, exactly like losing the OS page cache.

use crate::value::{Decisions, Key, TxnId, WriteOp};
use ptp_model::Decision;
use std::collections::BTreeMap;
use std::fmt;

/// A log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Transaction began at this site with the given write set (the "update
    /// information" the paper's commit log carries).
    Begin {
        /// The transaction.
        txn: TxnId,
        /// Its local write set.
        writes: Vec<WriteOp>,
    },
    /// The commit decision is durable. Redo must apply the writes.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// All writes are applied to the database; redo is no longer needed.
    Applied {
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction aborted; its staged writes are void.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
}

impl Record {
    fn txn(&self) -> TxnId {
        match self {
            Record::Begin { txn, .. }
            | Record::Commit { txn }
            | Record::Applied { txn }
            | Record::Abort { txn } => *txn,
        }
    }
}

/// What recovery decides for one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Commit record durable, apply missing: redo these writes (idempotent).
    Redo(Vec<WriteOp>),
    /// No durable commit record: the transaction is presumed aborted.
    Discard,
    /// Fully applied or aborted before the crash; nothing to do.
    Complete,
}

/// What a [`Wal::checkpoint`] keeps of the records it dropped — durable,
/// like them: it survives [`Wal::crash`]. Only the transactions still in
/// play cost records; history costs this.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Records dropped so far, so that positions stay logical.
    dropped: usize,
    /// The ids of the dropped `Commit` records, as a set (every id marked
    /// committed) — what an audit of "one durable commit record per
    /// committed transaction" counts ([`Wal::durable_commits`]).
    commits: Decisions,
    /// The id of every dropped `Commit` record beyond its transaction's
    /// first: a doubled record is what that audit looks for.
    repeats: Vec<TxnId>,
    /// Per key, how many dropped committed transactions wrote it — what a
    /// recovering site's version recount reads ([`Wal::committed_writes`]).
    /// Bounded by the key vocabulary.
    writes: BTreeMap<Key, u64>,
}

/// The write-ahead log of one site.
///
/// Positions are **logical**: [`Wal::len`], [`Wal::watermark`] and
/// [`Wal::unflushed`] count every record ever appended, whether or not a
/// [checkpoint](Wal::checkpoint) has dropped it since.
///
/// `PartialEq` compares records *and* the durable watermark (and what the
/// checkpoints kept), so equality is full stable-storage equivalence — what
/// the recovery-idempotency and sharded-equivalence suites pin. A log that
/// never checkpointed compares, and renders under `{:?}`, as its records
/// and watermark alone.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct Wal {
    /// The records still held: every volatile one, and the durable ones the
    /// last checkpoint found in play.
    records: Vec<Record>,
    /// Records at logical positions `< flushed` are on stable storage.
    flushed: usize,
    checkpoint: Checkpoint,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("Wal");
        out.field("records", &self.records).field("flushed", &self.flushed);
        if self.checkpoint != Checkpoint::default() {
            out.field("checkpoint", &self.checkpoint);
        }
        out.finish()
    }
}

impl Wal {
    /// An empty log.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Appends a record (volatile until [`Wal::flush`]).
    pub fn append(&mut self, rec: Record) {
        self.records.push(rec);
    }

    /// Forces everything appended so far to stable storage. Returns the
    /// number of newly durable records.
    pub fn flush(&mut self) -> usize {
        let newly = self.len() - self.flushed;
        self.flushed = self.len();
        newly
    }

    /// Appends and immediately flushes — the "force write" used for commit
    /// decisions.
    pub fn append_durable(&mut self, rec: Record) {
        self.append(rec);
        self.flush();
    }

    /// Simulates a crash: all volatile records vanish.
    pub fn crash(&mut self) {
        self.records.truncate(self.held_durable());
    }

    /// How many of the held records are durable.
    fn held_durable(&self) -> usize {
        self.flushed - self.checkpoint.dropped
    }

    /// The durable records still held (what recovery sees): all of them
    /// until the first [`Wal::checkpoint`], afterwards those of the
    /// transactions it found in play, and whatever became durable since.
    pub fn durable(&self) -> &[Record] {
        &self.records[..self.held_durable()]
    }

    /// Records appended but not yet flushed — what a group-commit batcher
    /// inspects to decide whether a window flush has work to do.
    pub fn unflushed(&self) -> usize {
        self.len() - self.flushed
    }

    /// The durable watermark: records `< watermark()` are on stable
    /// storage. Group commit acks a transaction once its commit record's
    /// index falls below this.
    pub fn watermark(&self) -> usize {
        self.flushed
    }

    /// Total records ever appended and not lost to a crash, volatile ones
    /// included.
    pub fn len(&self) -> usize {
        self.checkpoint.dropped + self.records.len()
    }

    /// True if nothing was ever logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records physically held: what the log costs in memory, and what a
    /// checkpoint or a recovery scan visits.
    pub fn held(&self) -> usize {
        self.records.len()
    }

    /// Drops the durable records of every transaction that is durably
    /// complete — its `Applied` or `Abort` record is on stable storage, so
    /// recovery has nothing left to do for it (Sec. 2) — and folds what
    /// later readers still need of them into the [`Checkpoint`]: the id of
    /// each dropped `Commit` record (a bit in a word of 64 ids, but for a
    /// repeat), and per key the writes of the dropped transactions that had
    /// one (each transaction's `Begin` keys once).
    /// Volatile records and transactions still in play are untouched, and
    /// positions stay logical. Costs one pass over the held records;
    /// returns how many are left.
    pub fn checkpoint(&mut self) -> usize {
        const COMMITTED: u8 = 1;
        const COMPLETE: u8 = 2;
        let durable = self.held_durable();
        // What the durable records say of each transaction, as an id-sorted
        // table (a handful of entries per transaction in play: no map).
        let mut states: Vec<(TxnId, u8)> = (self.records[..durable].iter())
            .filter_map(|rec| match rec {
                Record::Begin { .. } => None,
                Record::Commit { txn } => Some((*txn, COMMITTED)),
                Record::Applied { txn } | Record::Abort { txn } => Some((*txn, COMPLETE)),
            })
            .collect();
        states.sort_unstable();
        states.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 |= next.1;
            }
            same
        });
        let state_of = |txn: TxnId| {
            states.binary_search_by_key(&txn, |&(t, _)| t).map_or(0, |at| states[at].1)
        };
        let Checkpoint { dropped, commits, repeats, writes } = &mut self.checkpoint;
        let mut at = 0;
        self.records.retain(|rec| {
            at += 1;
            let state = if at <= durable { state_of(rec.txn()) } else { 0 };
            if state & COMPLETE == 0 {
                return true;
            }
            match rec {
                Record::Begin { writes: set, .. } if state & COMMITTED != 0 => {
                    for w in set {
                        // (No `entry`: cloning a key bumps a refcount every
                        // site thread shares.)
                        match writes.get_mut(&w.key) {
                            Some(count) => *count += 1,
                            None => drop(writes.insert(w.key.clone(), 1)),
                        }
                    }
                }
                Record::Commit { txn } => {
                    let repeat = commits.insert(*txn, Decision::Commit).is_some();
                    if repeat {
                        repeats.push(*txn);
                    }
                }
                _ => {}
            }
            *dropped += 1;
            false
        });
        self.records.len()
    }

    /// The transaction of every durable `Commit` record, one item per
    /// record but not in log order: those a checkpoint dropped, ascending,
    /// then their repeats, then those still held.
    pub fn durable_commits(&self) -> impl Iterator<Item = TxnId> + '_ {
        let held = self.durable().iter().filter_map(|rec| match rec {
            Record::Commit { txn } => Some(*txn),
            _ => None,
        });
        let Checkpoint { commits, repeats, .. } = &self.checkpoint;
        commits.keys().chain(repeats.iter().copied()).chain(held)
    }

    /// Per key, how many durably committed transactions wrote it: a
    /// transaction's `Begin` keys count once its `Commit` record is
    /// durable. What a recovering site recounts its version stamps from.
    pub fn committed_writes(&self) -> BTreeMap<Key, u64> {
        let mut counts = self.checkpoint.writes.clone();
        let mut begun: BTreeMap<TxnId, &[WriteOp]> = BTreeMap::new();
        for rec in self.durable() {
            match rec {
                Record::Begin { txn, writes } => {
                    begun.insert(*txn, writes);
                }
                Record::Commit { txn } => {
                    for w in begun.get(txn).copied().unwrap_or_default() {
                        *counts.entry(w.key.clone()).or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }
        counts
    }

    /// Scans the durable records still held and decides, per transaction,
    /// what recovery must do (the paper's Sec. 2 discipline). Transactions
    /// a checkpoint dropped were complete, and are not listed.
    pub fn recovery_plan(&self) -> BTreeMap<TxnId, RecoveryAction> {
        #[derive(Default)]
        struct St {
            writes: Vec<WriteOp>,
            committed: bool,
            applied: bool,
            aborted: bool,
        }
        let mut per: BTreeMap<TxnId, St> = BTreeMap::new();
        for rec in self.durable() {
            let st = per.entry(rec.txn()).or_default();
            match rec {
                Record::Begin { writes, .. } => st.writes = writes.clone(),
                Record::Commit { .. } => st.committed = true,
                Record::Applied { .. } => st.applied = true,
                Record::Abort { .. } => st.aborted = true,
            }
        }
        per.into_iter()
            .map(|(txn, st)| {
                let action = if st.applied || st.aborted {
                    RecoveryAction::Complete
                } else if st.committed {
                    RecoveryAction::Redo(st.writes)
                } else {
                    RecoveryAction::Discard
                };
                (txn, action)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Key, Value};
    use proptest::prelude::*;

    fn w(key: &str, v: u64) -> WriteOp {
        WriteOp { key: Key::from(key), value: Value::from_u64(v) }
    }

    #[test]
    fn unflushed_records_lost_on_crash() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(1), writes: vec![w("a", 1)] });
        wal.crash();
        assert!(wal.is_empty());
        assert!(wal.recovery_plan().is_empty());
    }

    #[test]
    fn flushed_records_survive_crash() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(1), writes: vec![w("a", 1)] });
        wal.flush();
        wal.append(Record::Commit { txn: TxnId(1) });
        wal.crash(); // commit record was volatile
        assert_eq!(wal.durable().len(), 1);
        assert_eq!(wal.recovery_plan()[&TxnId(1)], RecoveryAction::Discard);
    }

    #[test]
    fn committed_unapplied_is_redone() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(7), writes: vec![w("a", 1), w("b", 2)] });
        wal.append_durable(Record::Commit { txn: TxnId(7) });
        wal.crash();
        match &wal.recovery_plan()[&TxnId(7)] {
            RecoveryAction::Redo(ws) => assert_eq!(ws.len(), 2),
            other => panic!("expected redo, got {other:?}"),
        }
    }

    #[test]
    fn applied_transaction_is_complete() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(7), writes: vec![w("a", 1)] });
        wal.append(Record::Commit { txn: TxnId(7) });
        wal.append_durable(Record::Applied { txn: TxnId(7) });
        assert_eq!(wal.recovery_plan()[&TxnId(7)], RecoveryAction::Complete);
    }

    #[test]
    fn aborted_transaction_is_complete() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(3), writes: vec![w("a", 1)] });
        wal.append_durable(Record::Abort { txn: TxnId(3) });
        assert_eq!(wal.recovery_plan()[&TxnId(3)], RecoveryAction::Complete);
    }

    #[test]
    fn flush_counts_new_records() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(1), writes: vec![] });
        wal.append(Record::Commit { txn: TxnId(1) });
        assert_eq!(wal.flush(), 2);
        assert_eq!(wal.flush(), 0);
    }

    #[test]
    fn unflushed_and_watermark_track_group_commit_state() {
        let mut wal = Wal::new();
        assert_eq!(wal.unflushed(), 0);
        assert_eq!(wal.watermark(), 0);
        wal.append(Record::Begin { txn: TxnId(1), writes: vec![] });
        wal.append(Record::Commit { txn: TxnId(1) });
        assert_eq!(wal.unflushed(), 2);
        assert_eq!(wal.watermark(), 0);
        wal.flush();
        assert_eq!(wal.unflushed(), 0);
        assert_eq!(wal.watermark(), 2);
        wal.append(Record::Applied { txn: TxnId(1) });
        assert_eq!(wal.unflushed(), 1);
        wal.crash(); // volatile tail vanishes; watermark holds
        assert_eq!(wal.unflushed(), 0);
        assert_eq!(wal.watermark(), 2);
    }

    #[test]
    fn multiple_transactions_plan_independently() {
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(1), writes: vec![w("a", 1)] });
        wal.append(Record::Begin { txn: TxnId(2), writes: vec![w("b", 2)] });
        wal.append(Record::Commit { txn: TxnId(1) });
        wal.flush();
        let plan = wal.recovery_plan();
        assert!(matches!(plan[&TxnId(1)], RecoveryAction::Redo(_)));
        assert_eq!(plan[&TxnId(2)], RecoveryAction::Discard);
    }

    /// Transaction `id`'s whole committed lifecycle, durable.
    fn applied(wal: &mut Wal, id: u32, writes: Vec<WriteOp>) {
        wal.append(Record::Begin { txn: TxnId(id), writes });
        wal.append(Record::Commit { txn: TxnId(id) });
        wal.append_durable(Record::Applied { txn: TxnId(id) });
    }

    #[test]
    fn checkpoint_drops_complete_transactions_and_recovery_scans_only_the_tail() {
        let mut wal = Wal::new();
        for id in 1..=100 {
            applied(&mut wal, id, vec![w("a", id as u64)]);
        }
        wal.append(Record::Begin { txn: TxnId(200), writes: vec![w("b", 1)] });
        wal.append_durable(Record::Abort { txn: TxnId(200) });
        // In play: one committed-unapplied, one merely begun, one volatile.
        wal.append(Record::Begin { txn: TxnId(301), writes: vec![w("c", 1)] });
        wal.append(Record::Commit { txn: TxnId(301) });
        wal.append_durable(Record::Begin { txn: TxnId(302), writes: vec![w("d", 1)] });
        wal.append(Record::Begin { txn: TxnId(303), writes: vec![] });
        let (len, watermark, unflushed) = (wal.len(), wal.watermark(), wal.unflushed());
        assert_eq!((len, unflushed), (306, 1));
        let before = wal.recovery_plan();
        assert_eq!(before.len(), 103);

        assert_eq!(wal.checkpoint(), 4);
        // Positions are logical: nothing a group-commit batcher reads moved.
        assert_eq!((wal.len(), wal.watermark(), wal.unflushed()), (len, watermark, unflushed));
        // Recovery visits the live tail only, and decides it as before.
        assert_eq!(wal.durable().len(), 3);
        let after = wal.recovery_plan();
        assert_eq!(after.keys().copied().collect::<Vec<_>>(), [TxnId(301), TxnId(302)]);
        assert!(after.iter().all(|(txn, action)| before[txn] == *action));
        // What the dropped records said that is still read.
        assert_eq!(wal.durable_commits().count(), 101);
        assert_eq!(wal.committed_writes(), [(Key::from("a"), 100), (Key::from("c"), 1)].into());
        // The checkpoint is durable; the volatile tail is not.
        wal.crash();
        assert_eq!((wal.len(), wal.held()), (len - 1, 3));
        assert_eq!(wal.durable_commits().count(), 101);
        // A second checkpoint with nothing newly complete changes nothing.
        let same = wal.clone();
        assert_eq!(wal.checkpoint(), 3);
        assert_eq!(wal, same);
    }

    #[test]
    fn a_log_that_never_checkpointed_renders_as_records_and_watermark() {
        let mut wal = Wal::new();
        wal.append_durable(Record::Commit { txn: TxnId(1) });
        assert_eq!(format!("{wal:?}"), "Wal { records: [Commit { txn: TxnId(1) }], flushed: 1 }");
        // A checkpoint that found nothing to drop kept nothing either.
        wal.checkpoint();
        assert_eq!(format!("{wal:?}"), "Wal { records: [Commit { txn: TxnId(1) }], flushed: 1 }");
        wal.append_durable(Record::Applied { txn: TxnId(1) });
        wal.checkpoint();
        assert!(format!("{wal:?}").contains("checkpoint: Checkpoint { dropped: 2"));
    }

    #[test]
    fn every_dropped_commit_record_is_still_counted() {
        // A duplicated commit record is what an audit looks for: dropping
        // the transaction must not hide it.
        let mut wal = Wal::new();
        wal.append(Record::Begin { txn: TxnId(1), writes: vec![w("a", 1)] });
        wal.append(Record::Commit { txn: TxnId(1) });
        wal.append(Record::Commit { txn: TxnId(1) });
        wal.append_durable(Record::Applied { txn: TxnId(1) });
        assert_eq!(wal.checkpoint(), 0);
        assert_eq!(wal.durable_commits().collect::<Vec<_>>(), [TxnId(1), TxnId(1)]);
    }

    proptest! {
        /// A log that checkpoints at random and its twin that never does
        /// (whose durable `Commit` records, in log order, are what the
        /// checkpoint's retired `Vec<TxnId>` and the held tail listed) run
        /// one script of appends, doubled commit records, flushes and
        /// crashes: both count the same ids, repeats included.
        #[test]
        fn checkpointed_commit_ids_are_the_retired_vec_as_a_sorted_multiset(
            script in prop::collection::vec((0u8..7, 0u32..40), 0..240),
        ) {
            let (mut wal, mut twin) = (Wal::new(), Wal::new());
            for (op, id) in script {
                // Ids 61 apart: most transactions have a word of their own.
                let txn = TxnId(id * 61);
                let record = match op {
                    0 => Some(Record::Begin { txn, writes: vec![w("a", id as u64)] }),
                    1 | 2 => Some(Record::Commit { txn }),
                    3 => Some(Record::Applied { txn }),
                    4 => {
                        wal.flush();
                        twin.flush();
                        None
                    }
                    5 => {
                        wal.crash();
                        twin.crash();
                        None
                    }
                    _ => {
                        wal.checkpoint();
                        None
                    }
                };
                if let Some(record) = record {
                    wal.append(record.clone());
                    twin.append(record);
                }
            }
            let retired: Vec<TxnId> = (twin.durable().iter())
                .filter_map(|rec| match rec {
                    Record::Commit { txn } => Some(*txn),
                    _ => None,
                })
                .collect();
            let sorted = |mut ids: Vec<TxnId>| {
                ids.sort_unstable();
                ids
            };
            prop_assert_eq!(sorted(wal.durable_commits().collect()), sorted(retired));
        }
    }
}
