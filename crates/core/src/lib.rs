//! # ptp-core — the public API of the Huang–Li 1987 reproduction
//!
//! A termination protocol makes a commit protocol live through network
//! partitions: when timeouts and returned messages reveal that the network
//! has split, every site must still terminate its transaction — consistently
//! with every other site, on both sides of the boundary. Huang & Li (ICDE
//! 1987) designed such a protocol for the three-phase commit protocol under
//! *optimistic simple partitioning* (undeliverable messages return to their
//! senders); this workspace reproduces the whole paper. See README.md for
//! the quickstart and ARCHITECTURE.md for the system inventory and the
//! experiment ↔ paper map.
//!
//! This crate is the front door:
//!
//! * [`Scenario`] describes a cluster and its network conditions; what is
//!   injected into the run is its `faults`, one [`simnet::FaultPlan`] (the
//!   same value the database clusters and, scaled to nanoseconds, the live
//!   router read), which a [`Timeline`] lowers to in one pass;
//! * [`Session`] builds a protocol cluster **once** and executes any number
//!   of scenarios through it, reusing every buffer across runs — the one
//!   way a protocol scenario runs (one scenario is
//!   `Session::new(kind, n).run(&scenario)`);
//! * [`SessionPool`] keys sessions by `(kind, n)` so flows that interleave
//!   several protocols or cluster sizes share clusters the same way;
//! * [`RunOptions`] says whether a run records its trace;
//! * [`ProtocolKind`] is the protocol roster, re-exported from
//!   `ptp-protocols`: the one place any protocol's sites are built;
//! * [`sweep_serial`] / [`sweep_with_threads`] (with [`sweep_threads`]) /
//!   [`sweep_with_session`] grid over schedule shapes × boundaries ×
//!   partition instants × heal instants × delay schedules and report every
//!   atomicity violation or blocked site, identically at any worker count;
//! * [`Scenario::partition_schedule`] generalizes the paper's single
//!   simple partition to ordered multi-episode, multi-group schedules, and
//!   [`ScheduleShape`] enumerates whole families of them in sweeps;
//! * [`cases`] classifies transient-partition runs into the paper's Sec. 6
//!   case tree and measures the per-case worst-case waits.
//!
//! ```
//! use ptp_core::{ProtocolKind, RunOptions, Scenario, Session};
//! use ptp_simnet::SiteId;
//!
//! // One session, many scenarios: the cluster, the simulator's event heap
//! // and the partition engine's buffers are all built once.
//! let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
//! for at in [500u64, 1500, 2500, 3500] {
//!     // Cut slave 2 off at tick `at` (2500 = prepares in flight).
//!     let scenario = Scenario::new(3).partition_g2(vec![SiteId(2)], at);
//!     let result = session.run(&scenario);
//!     assert!(result.verdict.is_resilient());
//! }
//!
//! // Need the full event trace? Say so in the options.
//! let result = session.run_with(
//!     &Scenario::new(3).partition_g2(vec![SiteId(2)], 2500),
//!     &RunOptions::recording(),
//! );
//! assert!(!result.trace.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cases;
pub mod report;
pub mod scenario;
pub mod session;
pub mod sweep;
pub mod timeline;

pub use campaign::{Campaign, CampaignConfig, CampaignFailure, CampaignReport};
pub use scenario::{PartitionShape, ProtocolKind, Scenario};
pub use session::{ScenarioResult, Session, SessionPool};
pub use sweep::{
    all_simple_boundaries, sweep_serial, sweep_threads, sweep_with_session, sweep_with_threads,
    ScenarioDesc, ScenarioSpec, ScheduleShape, SweepGrid, SweepReport,
};
pub use timeline::{ScenarioBuilder, TimedEvent, Timeline, TimelineEvent};

// The typed execution options, re-exported from `ptp-protocols` so most
// callers need only this crate.
pub use ptp_protocols::RunOptions;

// Re-export the lower layers so examples and downstream users need only one
// dependency.
pub use ptp_ddb as ddb;
pub use ptp_livenet as livenet;
pub use ptp_model as model;
pub use ptp_protocols as protocols;
pub use ptp_simnet as simnet;
