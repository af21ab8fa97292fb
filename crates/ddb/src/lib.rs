//! # ptp-ddb — a distributed database substrate for the commit protocols
//!
//! The paper's subject is transaction atomicity in a *distributed database
//! system*; this crate supplies the database so the protocols are exercised
//! the way the paper's introduction motivates: transactions acquire locks,
//! stage writes through a write-ahead log, and a blocked commit protocol
//! visibly "renders those data inaccessible to other transactions"
//! (Sec. 2).
//!
//! * [`storage`] — per-site versioned key-value store with staged write
//!   sets and idempotent apply.
//! * [`wal`] — write-ahead log over simulated stable storage, implementing
//!   the paper's Sec. 2 commit-log discipline.
//! * [`recovery`] — crash recovery by log replay (redo committed, discard
//!   uncommitted).
//! * [`locks`] — strict two-phase locking with FIFO queues.
//! * [`site`] — a site's vocabulary: the `DbMsg` wire format, workload
//!   specs, the participant pool, the shared run `Metrics`.
//! * [`topology`] / [`plan`] — replica groups and per-transaction routing:
//!   which sites run a transaction's commit protocol, what each stages,
//!   who gets the outcome shipped — one interned shape per distinct set of
//!   involved shards, a 16-byte row per transaction over one write arena,
//!   read through `Copy` views. [`PlanTable::flat`] is the paper's
//!   one-group model; `PlanTable::compile` routes by key over shards.
//! * [`lineariz`] — the read-history oracle beside the plans it judges:
//!   every served read against the per-key commit points of the writes.
//! * [`core`] — **the** site: a sans-IO [`SiteCore`] holding storage, WAL,
//!   locks and one embedded commit-protocol participant per transaction,
//!   routed by plan, version-stamping what it commits; with [`lease`],
//!   master-lease reads and anti-entropy catch-up. It reaches its
//!   environment only through the [`Host`] trait.
//! * [`node`] — the core's simulator host, the only `ptp-simnet` actor that
//!   speaks `DbMsg` (the other host is `ptp-live`'s site thread).
//! * [`cluster`] — the one simulated store builder: protocol, fault plan,
//!   delays and network held once, the workload addressed by site
//!   ([`DbCluster`], the paper's one-group model) or by key
//!   ([`ShardCluster`], the sharded store), one simulation and one
//!   [`DbRun`] either way. (`ptp-shard` re-exports the sharded half under
//!   its old paths.)
//!
//! ```
//! use ptp_ddb::cluster::{CommitProtocol, DbCluster};
//! use ptp_ddb::site::TxnSpec;
//! use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
//! use std::collections::BTreeMap;
//!
//! let mut writes = BTreeMap::new();
//! writes.insert(1u16, vec![WriteOp { key: Key::from("k"), value: Value::from_u64(7) }]);
//! let run = DbCluster::new(3, CommitProtocol::HuangLi)
//!     .submit(0, TxnSpec { id: TxnId(1), writes })
//!     .run();
//! assert!(run.metrics.atomicity_violations().is_empty());
//! assert_eq!(run.storages[1].get(&Key::from("k")).unwrap().as_u64(), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod cluster;
pub mod core;
pub mod lease;
pub mod lineariz;
pub mod locks;
pub mod node;
pub mod plan;
pub mod recovery;
pub mod site;
pub mod storage;
pub mod topology;
pub mod value;
pub mod wal;

pub use cluster::{CommitProtocol, DbCluster, DbRun, ShardCluster};
pub use core::{Host, Hosted, ShardNodeOpts, SiteCore, SiteEvent, TimerKey, Via};
pub use node::ShardNode;
pub use plan::{PlanTable, PlanView, ReadView, TxnPlan, TxnView};
pub use site::{
    DbMsg, LockHold, Metrics, ParticipantBuilder, ParticipantFactory, ParticipantPool, ReadPath,
    ReadRecord, ReadSpec, Stamps, SyncPayload, TxnSpec,
};
pub use storage::Storage;
pub use topology::ShardTopology;
pub use value::{Key, TxnId, Value, WriteOp};
pub use wal::{Record, RecoveryAction, Wal};
