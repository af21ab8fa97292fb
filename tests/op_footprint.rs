//! What a *finished* transaction costs a site in memory.
//!
//! The paper's Sec. 2 keeps a commit log for one purpose — redo after a
//! crash — so a transaction whose `Applied`/`Abort` record is durable owes
//! the log nothing. The site core checkpoints its own WAL as transactions
//! complete: what stays behind per finished transaction is its decision —
//! two bits of the `finished` record — and one bit of the checkpoint's
//! commit-id set, not three 32-byte records and a write-set allocation. A
//! counting global allocator pins the heap a whole `SiteCore` keeps alive
//! after a long run, per transaction it finished; that the log it holds is
//! a bounded tail, not the run; and that a run four times as long costs no
//! more per transaction, and a few bytes for each one it adds. (Before the
//! checkpoint: ≈ 140–230 bytes per finished transaction per site, the log
//! alone three quarters of it. With a tree entry per decision and a 4-byte
//! id per commit record: 41 at 10 000 transactions, 24 at 40 000, and 19
//! per transaction added; with words of 64 ids: 26, 9 and 3.)
//!
//! With anti-entropy on, a shard master also keeps the version stamps it
//! assigned while a replica is still owed the decision, and drops them once
//! the last one reports it known: the same bounds hold. (When the stamps
//! stayed for the whole run: 58, 42 and 36.5.)

mod common;

use ptp_core::ddb::cluster::{run_sites, CommitProtocol, SimNet};
use ptp_core::ddb::plan::{PlanTable, ShardTxnSpec};
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_core::ddb::wal::RecoveryAction;
use ptp_core::ddb::ShardNodeOpts;
use ptp_model::Decision;
use ptp_simnet::{DelayModel, FaultPlan, NetConfig, SimTime};
use std::sync::Arc;

const TXNS: usize = 10_000;
/// A run this many times longer keeps no more per finished transaction.
const LONGER: usize = 4;
/// Ticks between submissions: a few transactions in flight at a time.
const SPACING: u64 = 400;
const LIVE_BYTES_PER_FINISHED: usize = 32;
/// What each transaction of the longer run beyond the first `TXNS` adds.
const BYTES_PER_EXTRA_FINISHED: usize = 8;

/// Runs `release` and returns what it gave back: its result, and the heap
/// bytes it freed on balance.
fn freed_by<T>(release: impl FnOnce() -> T) -> (T, usize) {
    let (result, tally) = common::measure(release);
    (result, usize::try_from(-tally.bytes).expect("releasing frees more than it allocates"))
}

#[test]
fn a_finished_transaction_leaves_a_site_its_decision_and_a_commit_id() {
    keeps_a_few_bytes_per_finished_transaction(ShardNodeOpts::default());
}

#[test]
fn with_anti_entropy_on_a_finished_transaction_leaves_no_stamps_behind() {
    keeps_a_few_bytes_per_finished_transaction(ShardNodeOpts {
        anti_entropy: Some(5_000),
        ..ShardNodeOpts::default()
    });
}

fn keeps_a_few_bytes_per_finished_transaction(opts: ShardNodeOpts) {
    let (freed, finished) = kept_by_sites(TXNS, opts);
    let each = freed / finished;
    assert!(
        each <= LIVE_BYTES_PER_FINISHED,
        "six sites keep {freed} heap bytes alive after finishing {finished} transactions: {each} each"
    );
    // A longer run spreads what every run keeps over more transactions,
    // and adds little per transaction of its own.
    let (longer, more) = kept_by_sites(LONGER * TXNS, opts);
    assert!(longer / more <= each, "{longer} bytes for {more} finished transactions");
    let extra = longer.saturating_sub(freed) / (more - finished);
    assert!(extra <= BYTES_PER_EXTRA_FINISHED, "{extra} bytes per extra finished transaction");
}

/// Runs `txns` writes through six sites under `opts` and returns the heap
/// bytes the sites keep alive and the transactions they finished.
fn kept_by_sites(txns: usize, opts: ShardNodeOpts) -> (usize, usize) {
    let topo = ShardTopology::uniform(6, 3, 2);
    let pools = topo.key_pool(64);
    // Every tenth transaction spans two shards, over all three pairs.
    let keys_of = |i: usize| -> Vec<Key> {
        let key = |shard: usize| pools[shard % 3][i / 3 % 64].clone();
        match i % 10 {
            0 => vec![key(i), key(i + 1 + i / 10 % 2)],
            _ => vec![key(i)],
        }
    };
    let specs: Vec<ShardTxnSpec> = (0..txns)
        .map(|i| {
            let write = |key| WriteOp { key, value: Value::from_u64(i as u64) };
            ShardTxnSpec {
                id: TxnId(i as u32 + 1),
                writes: keys_of(i).into_iter().map(write).collect(),
            }
        })
        .collect();
    let plans = Arc::new(PlanTable::compile(topo, &specs));
    let submissions: Vec<(u64, TxnId)> =
        specs.iter().zip(0..).map(|(spec, i)| (i * SPACING, spec.id)).collect();
    let horizon = SimTime(txns as u64 * SPACING + 100_000);
    let net = SimNet {
        config: NetConfig { max_time: horizon, ..NetConfig::default() },
        faults: FaultPlan::default(),
        delay: DelayModel::Fixed(700),
        record: false,
    };

    let (sites, metrics, trace, report) =
        run_sites(plans.clone(), &submissions, [], CommitProtocol::HuangLi, opts, net);
    assert!(metrics.atomicity_violations().is_empty());
    assert_eq!(metrics.decisions.len(), txns, "every transaction was decided");
    drop((metrics, trace, report));

    // The plan table outlives the sites (`plans` is held here): what taking
    // them apart frees is their own.
    let (finished, freed) = freed_by(|| {
        let mut finished = 0;
        for site in sites {
            assert_eq!(site.in_flight(), 0);
            let (_, wal, decided) = site.into_parts();
            finished += decided.len();
            // The log holds a bounded tail of a run it counted in full, and
            // nothing in it is left for recovery to do.
            assert_eq!(wal.len(), wal.watermark());
            assert!(wal.len() > 2 * decided.len(), "{} records logged", wal.len());
            assert!(wal.held() * 8 < wal.len(), "{} of {} held", wal.held(), wal.len());
            let commits = decided.iter().filter(|(_, d)| *d == Decision::Commit).count();
            assert_eq!(wal.durable_commits().count(), commits, "one commit record each");
            assert!(wal.recovery_plan().values().all(|todo| *todo == RecoveryAction::Complete));
        }
        finished
    });
    // Two replicas finish a single-shard write, two masters and two
    // replicas a cross-shard one (but for an abort that found a master
    // still waiting for its locks: that one is not shipped on).
    let everywhere = txns / 10 * 9 * 2 + txns / 10 * 4;
    assert!((everywhere * 9 / 10..=everywhere).contains(&finished), "{finished} finished");
    (freed, finished)
}
