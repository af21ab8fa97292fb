//! Pins the claim in `crates/ddb/src/recovery.rs`'s doc comment:
//!
//! > Idempotent: recovering twice leaves identical state.
//!
//! A property test drives randomized per-transaction write sets through
//! randomized log lifecycles (how far each transaction got before the
//! crash, and what was flushed), crashes, and checks that `recover` twice
//! is exactly `recover` once — storage **and** WAL field-identical — and
//! that a second crash between the two recoveries changes nothing either
//! (recovery writes its own effects durably). The same holds across WAL
//! checkpoints wherever they fall — before the crash, between the two
//! recoveries, after them: a checkpointed history recovers to the storage,
//! the summary, the commit records and the version recount of its
//! never-checkpointed twin.

use proptest::prelude::*;
use ptp_core::ddb::recovery::recover;
use ptp_core::ddb::storage::Storage;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_core::ddb::wal::{Record, Wal};
use ptp_simnet::rng::SmallRng;

/// How far a transaction's lifecycle got before the crash.
#[derive(Debug, Clone, Copy)]
enum Progress {
    /// `Begin` appended only.
    Begun,
    /// `Begin` + `Commit` (commit durable, apply missing — the redo case).
    Committed,
    /// `Begin` + `Commit` + `Applied` (complete).
    Applied,
    /// `Begin` + `Abort` (complete).
    Aborted,
}

/// Builds one randomized site history: seeds, staged transactions in
/// assorted lifecycle stages, a randomized flush watermark, then a crash.
fn build_site(seed: u64, txn_count: usize) -> (Storage, Wal) {
    build_site_with(seed, txn_count, |_, _| {})
}

/// [`build_site`], with `after_txn(i, wal)` run once transaction `i` has
/// logged what it will (the history itself does not depend on it).
fn build_site_with(
    seed: u64,
    txn_count: usize,
    mut after_txn: impl FnMut(usize, &mut Wal),
) -> (Storage, Wal) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut storage = Storage::new();
    let mut wal = Wal::new();
    for k in 0..3u64 {
        storage.seed(Key::from(format!("k{k}")), Value::from_u64(k));
    }
    for i in 0..txn_count {
        let txn = TxnId(i as u32 + 1);
        let writes: Vec<WriteOp> = (0..=rng.gen_range(0..=2))
            .map(|_| WriteOp {
                key: Key::from(format!("k{}", rng.gen_range(0..=3))),
                value: Value::from_u64(rng.gen_range(0..=999)),
            })
            .collect();
        let progress = match rng.gen_range(0..=3) {
            0 => Progress::Begun,
            1 => Progress::Committed,
            2 => Progress::Applied,
            _ => Progress::Aborted,
        };
        wal.append(Record::Begin { txn, writes: writes.clone() });
        storage.stage(txn, writes);
        // Some begins never make it to stable storage at all.
        if rng.gen_range(0..=3) > 0 {
            wal.flush();
        }
        match progress {
            Progress::Begun => {}
            Progress::Committed => wal.append_durable(Record::Commit { txn }),
            Progress::Applied => {
                wal.append_durable(Record::Commit { txn });
                storage.apply(txn);
                wal.append_durable(Record::Applied { txn });
            }
            Progress::Aborted => {
                wal.append_durable(Record::Abort { txn });
                storage.discard(txn);
            }
        }
        after_txn(i, &mut wal);
    }
    storage.crash();
    wal.crash();
    (storage, wal)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn recovering_twice_is_recovering_once(
        seed in 0u64..1_000_000,
        txn_count in 1usize..8,
    ) {
        // Path A: crash → recover once.
        let (mut storage_once, mut wal_once) = build_site(seed, txn_count);
        let first = recover(&mut storage_once, &mut wal_once);

        // Path B: the same history, recovered twice back to back.
        let (mut storage_twice, mut wal_twice) = build_site(seed, txn_count);
        let b_first = recover(&mut storage_twice, &mut wal_twice);
        prop_assert_eq!(&first, &b_first, "same crash must recover the same way");
        let second = recover(&mut storage_twice, &mut wal_twice);

        // The second pass finds only Complete transactions: it redoes and
        // discards nothing, and leaves storage and WAL field-identical.
        prop_assert!(second.redone.is_empty(), "second recovery redid {:?}", second.redone);
        prop_assert!(
            second.discarded.is_empty(),
            "second recovery discarded {:?}",
            second.discarded
        );
        prop_assert_eq!(&storage_once, &storage_twice, "storage diverged");
        prop_assert_eq!(&wal_once, &wal_twice, "WAL diverged");
    }

    #[test]
    fn crash_between_recoveries_changes_nothing(
        seed in 0u64..1_000_000,
        txn_count in 1usize..8,
    ) {
        // Recovery force-writes its own effects (`Applied`/`Abort` records),
        // so crash → recover → crash → recover ≡ crash → recover.
        let (mut storage_once, mut wal_once) = build_site(seed, txn_count);
        let _ = recover(&mut storage_once, &mut wal_once);

        let (mut storage_twice, mut wal_twice) = build_site(seed, txn_count);
        let _ = recover(&mut storage_twice, &mut wal_twice);
        storage_twice.crash();
        wal_twice.crash();
        let again = recover(&mut storage_twice, &mut wal_twice);

        prop_assert!(again.redone.is_empty() && again.discarded.is_empty());
        prop_assert_eq!(&storage_once, &storage_twice, "storage diverged");
        prop_assert_eq!(&wal_once, &wal_twice, "WAL diverged");
    }

    #[test]
    fn checkpoints_anywhere_change_nothing_recovery_reads(
        seed in 0u64..1_000_000,
        txn_count in 1usize..8,
        // Bit `i`: checkpoint after transaction `i`; bits 8 and 9: between
        // the two recoveries, and after them.
        checkpoints in 0u32..1 << 10,
    ) {
        let due = |bit: usize| checkpoints >> bit & 1 == 1;
        let same_log = |plain: &Wal, kept: &Wal| -> Result<(), TestCaseError> {
            prop_assert_eq!(
                (plain.len(), plain.watermark(), plain.unflushed()),
                (kept.len(), kept.watermark(), kept.unflushed()),
                "logical positions"
            );
            let commits = |wal: &Wal| {
                let mut commits: Vec<TxnId> = wal.durable_commits().collect();
                commits.sort();
                commits
            };
            prop_assert_eq!(commits(plain), commits(kept), "durable commit records");
            prop_assert_eq!(plain.committed_writes(), kept.committed_writes(), "version recount");
            Ok(())
        };

        // The never-checkpointed twin, and the same history checkpointed
        // before the crash (the volatile tail is lost either way).
        let (mut storage, mut wal) = build_site(seed, txn_count);
        let (mut kept_storage, mut kept) = build_site_with(seed, txn_count, |i, wal| {
            if due(i) {
                wal.checkpoint();
            }
        });
        prop_assert_eq!(&storage, &kept_storage);
        same_log(&wal, &kept)?;

        let summary = recover(&mut storage, &mut wal);
        prop_assert_eq!(&summary, &recover(&mut kept_storage, &mut kept), "same crash, same recovery");
        prop_assert_eq!(&storage, &kept_storage, "storage diverged");
        same_log(&wal, &kept)?;

        // Between the recoveries; then crash and recover again: nothing.
        if due(8) {
            kept.checkpoint();
        }
        kept_storage.crash();
        kept.crash();
        let again = recover(&mut kept_storage, &mut kept);
        prop_assert!(again.redone.is_empty() && again.discarded.is_empty());
        if due(9) {
            prop_assert_eq!(kept.checkpoint(), 0, "every transaction is complete");
        }
        prop_assert_eq!(&storage, &kept_storage, "storage diverged");
        same_log(&wal, &kept)?;

        // Recovering the checkpointed log twice is recovering it once.
        let once = (kept_storage.clone(), kept.clone());
        let _ = recover(&mut kept_storage, &mut kept);
        prop_assert_eq!(&once, &(kept_storage, kept), "recovering twice diverged");
    }

    #[test]
    fn recovery_resurrects_no_uncommitted_and_loses_no_committed_write(
        seed in 0u64..1_000_000,
        txn_count in 1usize..8,
    ) {
        // Cross-check the plan against the durable log directly: every
        // durably committed transaction is redone or already applied;
        // everything else is discarded.
        let (mut storage, mut wal) = build_site(seed, txn_count);
        let committed: Vec<TxnId> = wal
            .durable()
            .iter()
            .filter_map(|r| match r {
                Record::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let summary = recover(&mut storage, &mut wal);
        for txn in &summary.redone {
            prop_assert!(committed.contains(txn), "{txn} redone without a commit record");
        }
        for txn in &summary.discarded {
            prop_assert!(!committed.contains(txn), "{txn} discarded despite a commit record");
        }
    }
}
