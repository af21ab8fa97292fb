//! # ptp-shard — the sharded store's old paths, re-exported
//!
//! The sharded, partially-replicated store lives in `ptp-ddb`: the shard
//! map ([`topology`]), the router ([`plan`]), the one site core with its
//! simulator host ([`node`]), master leases ([`lease`]), the read-history
//! oracle ([`lineariz`]) and the one store builder ([`cluster`]), whose
//! key-addressed face is [`ShardCluster`] and whose one-group case is the
//! flat `ptp_ddb::DbCluster`. This crate declares nothing of its own: it
//! keeps every `ptp_shard::…` path the frozen benchmark imports resolving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ptp_ddb::{cluster, lease, lineariz, node, plan, topology};

pub use cluster::{CrossShardReport, ReadReport, ShardCluster, ShardMetrics, ShardRun};
pub use lease::{LeaseConfig, LeaseTable};
pub use lineariz::{check_read_history, ReadViolation};
pub use node::{
    ShardNode, ShardNodeOpts, LEASE_ACK, LEASE_RENEW, SHARD_ABORT, SHARD_APPLY, SYNC_REQ, SYNC_RESP,
};
pub use plan::{PlanTable, ReadView, ShardReadSpec, ShardTxnSpec, TxnPlan, TxnView};
pub use ptp_ddb::site::Metrics;
pub use topology::ShardTopology;
