//! # ptp-model — the Skeen–Stonebraker formal model, executable
//!
//! Huang & Li's paper reasons about commit protocols in the formal model of
//! Skeen & Stonebraker (IEEE TSE 1983): each site is a finite state
//! automaton, the network is a shared message pool, and a global state is a
//! vector of local states plus the outstanding messages. This crate makes
//! that model executable so the paper's definitions and lemmas become
//! checkable computations:
//!
//! | Paper concept | Here |
//! |---|---|
//! | Commit protocol FSAs (Figs. 1, 2, 3, 8) | [`protocols`] shapes, [`protocols::ProtocolShape::spec`] |
//! | Global states / reachability | [`global::GlobalGraph`] |
//! | Concurrency set `C(s)` | [`concurrency::ConcurrencySets`] |
//! | Sender set `S(s)` | [`concurrency::sender_set`] |
//! | Committable states | [`committable::Committability`] |
//! | Lemma 1 & 2 necessary conditions | [`resilience::check_conditions`] |
//! | Rule (a)/(b) timeout & UD augmentation | [`rules::derive_rules_augmentation`] |
//! | Lemma 3's space of augmentations | [`augment::enumerate_augmentations`] |
//! | Figure rendering | [`dot::to_dot`] |
//!
//! ## Example: the 2PC blocking diagnosis, mechanically
//!
//! ```
//! use ptp_model::protocols::TWO_PHASE;
//! use ptp_model::resilience::check_conditions;
//!
//! let report = check_conditions(&TWO_PHASE.spec(3));
//! // 2PC violates both necessary conditions: its slave wait state has both
//! // a commit and an abort in its concurrency set, and is noncommittable
//! // with a commit concurrent.
//! assert!(!report.satisfies_conditions());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod committable;
pub mod concurrency;
pub mod dot;
pub mod fsa;
pub mod global;
pub mod partition_exec;
pub mod protocols;
pub mod resilience;
pub mod rules;

pub use fsa::{
    Augmentation, Decision, Msg, ProtocolSpec, Role, SiteSpec, StateDef, StateKind, StateRef,
    Transition,
};
pub use global::{GlobalEdge, GlobalGraph, GlobalState};
