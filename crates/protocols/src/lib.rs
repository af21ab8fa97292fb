//! # ptp-protocols — runnable commit protocols and the Huang–Li termination
//! protocol
//!
//! Every protocol the paper discusses, as sans-IO state machines driven by
//! the `ptp-simnet` discrete-event network:
//!
//! * **Interpreted protocols** ([`interp::FsaParticipant`]): execute any
//!   `ptp-model` FSA spec literally — plain 2PC (Fig. 1), extended 2PC
//!   (Fig. 2, with the Rule (a)/(b) augmentation derived mechanically),
//!   3PC (Fig. 3), and each of the 4096 Lemma 3 augmentations.
//! * **The termination protocol** ([`termination`]): the paper's Sec. 5.3
//!   master/slave pseudocode, implemented as Theorem 10's generic
//!   master–slave engine and instantiated for the modified 3PC (Fig. 8) and
//!   a four-phase protocol. Both the Sec. 5 (static) and Sec. 6 (transient)
//!   variants.
//! * **Quorum commit** ([`quorum`]): the Skeen 1982 baseline that blocks in
//!   minority partitions.
//!
//! [`kind::ProtocolKind`] is the protocol roster: the one place that builds
//! a protocol's sites ([`ProtocolKind::builder`] for one site of any group
//! size, [`ProtocolKind::cluster`] for a whole flat, enum-dispatched
//! [`AnyParticipant`] vector — see [`dispatch`]), for the simulator, the
//! database and the tests alike; [`clusters`] keeps the few clusters no
//! kind names (any FSA augmentation, stretched timers, a boxed form).
//! [`runner::ClusterRunner`] is the reusable execution harness
//! (`ptp_core::Session` wraps it); [`options::RunOptions`] says whether a
//! run records its trace; [`runner::run_protocol`] /
//! [`runner::run_protocol_opts`] are the one-shot conveniences;
//! [`outcome::Verdict`] judges atomicity and blocking.
//!
//! ```
//! use ptp_protocols::api::Vote;
//! use ptp_protocols::outcome::Verdict;
//! use ptp_protocols::runner::ClusterRunner;
//! use ptp_protocols::{ProtocolKind, RunOptions};
//! use ptp_simnet::{DelayModel, NetConfig, SimTime, SiteId};
//!
//! // Three sites, built once; the runner replays them through any number
//! // of partition scenarios, reusing every buffer.
//! let cluster = ProtocolKind::HuangLi3pc.cluster(3, &[Vote::Yes; 2]);
//! let mut runner = ClusterRunner::new(cluster);
//! for at in [1500u64, 2500, 3500] {
//!     runner.reset(&[Vote::Yes; 2]);
//!     // The network splits {master, site1} | {site2} at tick `at`.
//!     let groups = runner.faults_mut().partition.reset_single(SimTime(at), None, 2);
//!     groups[0].extend([SiteId(0), SiteId(1)]);
//!     groups[1].push(SiteId(2));
//!     let run = runner.run(NetConfig::default(), &DelayModel::Fixed(900), &RunOptions::new());
//!     let verdict = Verdict::judge(&run.outcomes);
//!     assert!(verdict.is_resilient(), "{verdict:?}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod clusters;
pub mod dispatch;
pub mod interp;
pub mod kind;
pub mod options;
pub mod outcome;
pub mod quorum;
pub mod runner;
pub mod termination;
pub mod timing;

pub use api::{Action, CommitMsg, Participant, TimerTag, Vote};
pub use dispatch::AnyParticipant;
pub use kind::{ProtocolKind, SiteBuilder};
pub use options::RunOptions;
pub use outcome::{SiteOutcome, Verdict};
pub use quorum::{QuorumConfig, QuorumTuning};
pub use runner::{run_protocol, run_protocol_opts, ClusterRunner, ProtocolRun};
pub use termination::{PhasePlan, TerminationMaster, TerminationSlave, TerminationVariant};
