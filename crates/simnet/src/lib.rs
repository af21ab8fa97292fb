//! # ptp-simnet — deterministic discrete-event network simulation
//!
//! The network substrate assumed by Huang & Li (ICDE 1987): a message-passing
//! network whose longest end-to-end delay is `T`, which can undergo *simple*
//! (two-group), *multiple* (more groups), or *transient* (healing) partitions,
//! and which — in the paper's **optimistic model** — returns undeliverable
//! messages to their senders instead of losing them.
//!
//! Everything is deterministic: events are ordered by `(time, insertion
//! sequence)` and all randomness flows from seeded delay models, so any
//! counterexample an experiment finds is replayable bit-for-bit.
//!
//! ## Structure
//!
//! * [`time`] — virtual clock types ([`SimTime`], [`SimDuration`]).
//! * [`message`] — [`SiteId`], [`MsgId`], [`Envelope`].
//! * [`delay`] — per-message delay models bounded by `T` (fixed / seeded
//!   uniform / per-link / adversarial schedules).
//! * [`partition`] — partition episodes and the connectivity oracle.
//! * [`failure`] — crash/recover injection (for the Sec. 7 counterexamples).
//! * [`envfault`] — envelope-level faults (duplicate / reorder / drop by
//!   match predicate) and degraded-network delay windows.
//! * [`faults`] — [`FaultPlan`]: the four above as one value in host time,
//!   the only fault description the simulator (and the live router) reads.
//! * [`event`] — the deterministic event queue.
//! * [`net`] — the [`Simulation`] engine, [`Actor`] trait and [`Ctx`] handle.
//! * [`trace`] — complete execution logs and measurement helpers.
//! * [`prof`] — event-attribution profiling ([`ProfSink`], [`Profile`]).
//!
//! ## Example
//!
//! ```
//! use ptp_simnet::{
//!     Actor, Ctx, DelayModel, Envelope, NetConfig, PartitionEngine, Simulation, SiteId,
//! };
//!
//! struct Greeter;
//! impl Actor<&'static str> for Greeter {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
//!         if ctx.me() == SiteId(0) {
//!             ctx.send(SiteId(1), "hello");
//!         }
//!     }
//!     fn on_message(&mut self, env: Envelope<&'static str>, ctx: &mut Ctx<'_, &'static str>) {
//!         ctx.note("got", env.id.0);
//!     }
//! }
//!
//! let sim = Simulation::new(
//!     NetConfig::default(),
//!     vec![Box::new(Greeter), Box::new(Greeter)],
//!     PartitionEngine::always_connected(),
//!     &DelayModel::Fixed(500),
//! );
//! let (_actors, trace, report) = sim.run();
//! assert_eq!(trace.first_note(SiteId(1), "got").unwrap().0.ticks(), 500);
//! assert_eq!(report.events, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod envfault;
pub mod event;
pub mod failure;
pub mod faults;
pub mod message;
pub mod net;
pub mod partition;
pub mod prof;
pub mod rng;
pub mod time;
mod timers;
pub mod trace;

pub use delay::{DelayModel, Leg, ScheduleBuilder};
pub use envfault::{DegradeWindow, EnvelopeAction, EnvelopeFault, EnvelopeMatch};
pub use failure::FailureSpec;
pub use faults::FaultPlan;
pub use message::{Disposition, Envelope, MsgId, SiteId};
pub use net::{
    Actor, Ctx, NetConfig, Payload, RunReport, SimScratch, Simulation, StopReason, TimerHandle,
};
pub use partition::{PartitionEngine, PartitionMode, PartitionSpec};
pub use prof::{ProfEntry, ProfKey, ProfSink, Profile};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceCounters, TraceEvent, TraceSink};
