//! Message-delay models.
//!
//! The paper's only assumption about the network is that every message is
//! delivered within `T`, the longest end-to-end propagation delay (Fig. 5).
//! Everything below `T` is adversary-controlled, so the simulator lets
//! experiments pick delays per message: fixed, seeded-random, per-link, or an
//! explicit per-message schedule (used to reconstruct the exact worst-case
//! executions of Figs. 6, 7 and 9).
//!
//! All models are deterministic given their construction parameters, which
//! makes every simulation replayable. The network clamps whatever a model
//! returns into `[1, T]` ticks so the paper's delivery bound always holds.

use crate::message::{MsgId, SiteId};
use crate::rng::SmallRng;
use std::collections::BTreeMap;

/// Which leg of a message's journey a delay is being sampled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Sender towards destination.
    Outbound,
    /// Boundary bounce back to the sender (undeliverable-message return).
    Return,
}

/// A deterministic source of per-message delays, in ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this many ticks (per leg).
    Fixed(u64),
    /// Delays drawn uniformly from `[min, max]` by a seeded RNG.
    ///
    /// Sampling order is the network's send/return order, which is
    /// deterministic, so a `(seed, min, max)` triple fully determines an
    /// execution.
    Uniform {
        /// RNG seed.
        seed: u64,
        /// Minimum delay in ticks (inclusive).
        min: u64,
        /// Maximum delay in ticks (inclusive).
        max: u64,
    },
    /// Explicit per-message overrides (keyed by [`MsgId`] and leg), falling
    /// back to `default` ticks. This is the adversary's tool: experiments
    /// name individual messages and stretch exactly the ones the paper's
    /// timing diagrams stretch.
    Scheduled {
        /// `(msg id, is_return_leg) -> ticks`.
        overrides: BTreeMap<(u64, bool), u64>,
        /// Ticks for every message not named in `overrides`.
        default: u64,
    },
    /// Per-(src, dst) link delays, falling back to `default`.
    PerLink {
        /// `(src, dst) -> ticks`. Asymmetric links are allowed.
        links: BTreeMap<(u16, u16), u64>,
        /// Ticks for links not present in the map.
        default: u64,
    },
}

impl DelayModel {
    /// Builds the stateful sampler for one simulation run.
    pub(crate) fn sampler(&self) -> DelaySampler {
        match self {
            DelayModel::Fixed(d) => DelaySampler::Fixed(*d),
            DelayModel::Uniform { seed, min, max } => DelaySampler::Uniform {
                rng: SmallRng::seed_from_u64(*seed),
                min: *min,
                max: (*max).max(*min),
            },
            DelayModel::Scheduled { overrides, default } => {
                DelaySampler::Scheduled { overrides: overrides.clone(), default: *default }
            }
            DelayModel::PerLink { links, default } => {
                DelaySampler::PerLink { links: links.clone(), default: *default }
            }
        }
    }
}

/// Stateful per-run delay sampler. Created fresh for every simulation so that
/// a `DelayModel` value can be reused across runs with identical results.
#[derive(Debug)]
pub(crate) enum DelaySampler {
    Fixed(u64),
    Uniform { rng: SmallRng, min: u64, max: u64 },
    Scheduled { overrides: BTreeMap<(u64, bool), u64>, default: u64 },
    PerLink { links: BTreeMap<(u16, u16), u64>, default: u64 },
}

impl DelaySampler {
    /// Samples the delay for one leg of one message, in ticks (unclamped; the
    /// network clamps to `[1, T]`).
    pub(crate) fn sample(&mut self, id: MsgId, src: SiteId, dst: SiteId, leg: Leg) -> u64 {
        match self {
            DelaySampler::Fixed(d) => *d,
            DelaySampler::Uniform { rng, min, max } => rng.gen_range(*min..=*max),
            DelaySampler::Scheduled { overrides, default } => {
                *overrides.get(&(id.0, matches!(leg, Leg::Return))).unwrap_or(default)
            }
            DelaySampler::PerLink { links, default } => {
                *links.get(&(src.0, dst.0)).unwrap_or(default)
            }
        }
    }
}

/// Builder for [`DelayModel::Scheduled`], the adversarial schedule.
#[derive(Debug, Default, Clone)]
pub struct ScheduleBuilder {
    overrides: BTreeMap<(u64, bool), u64>,
    default: u64,
}

impl ScheduleBuilder {
    /// Starts a schedule whose unnamed messages take `default` ticks.
    pub fn with_default(default: u64) -> Self {
        ScheduleBuilder { overrides: BTreeMap::new(), default }
    }

    /// Pins the outbound delay of the `n`-th message sent (0-based send order).
    pub fn outbound(mut self, msg_index: u64, ticks: u64) -> Self {
        self.overrides.insert((msg_index, false), ticks);
        self
    }

    /// Pins the return-leg delay of the `n`-th message sent.
    pub fn return_leg(mut self, msg_index: u64, ticks: u64) -> Self {
        self.overrides.insert((msg_index, true), ticks);
        self
    }

    /// Finishes the schedule.
    pub fn build(self) -> DelayModel {
        DelayModel::Scheduled { overrides: self.overrides, default: self.default }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_all(model: &DelayModel, n: u64) -> Vec<u64> {
        let mut s = model.sampler();
        (0..n).map(|i| s.sample(MsgId(i), SiteId(1), SiteId(2), Leg::Outbound)).collect()
    }

    #[test]
    fn fixed_is_constant() {
        assert_eq!(sample_all(&DelayModel::Fixed(42), 5), vec![42; 5]);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let m = DelayModel::Uniform { seed: 7, min: 1, max: 1000 };
        assert_eq!(sample_all(&m, 20), sample_all(&m, 20));
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = DelayModel::Uniform { seed: 9, min: 10, max: 20 };
        for d in sample_all(&m, 200) {
            assert!((10..=20).contains(&d));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DelayModel::Uniform { seed: 1, min: 1, max: 1_000_000 };
        let b = DelayModel::Uniform { seed: 2, min: 1, max: 1_000_000 };
        assert_ne!(sample_all(&a, 10), sample_all(&b, 10));
    }

    #[test]
    fn schedule_overrides_specific_messages() {
        let m = ScheduleBuilder::with_default(100).outbound(3, 999).return_leg(3, 500).build();
        let mut s = m.sampler();
        assert_eq!(s.sample(MsgId(2), SiteId(1), SiteId(2), Leg::Outbound), 100);
        assert_eq!(s.sample(MsgId(3), SiteId(1), SiteId(2), Leg::Outbound), 999);
        assert_eq!(s.sample(MsgId(3), SiteId(1), SiteId(2), Leg::Return), 500);
    }

    #[test]
    fn per_link_uses_link_map() {
        let mut links = BTreeMap::new();
        links.insert((1u16, 2u16), 7u64);
        let m = DelayModel::PerLink { links, default: 3 };
        let mut s = m.sampler();
        assert_eq!(s.sample(MsgId(0), SiteId(1), SiteId(2), Leg::Outbound), 7);
        assert_eq!(s.sample(MsgId(0), SiteId(2), SiteId(1), Leg::Outbound), 3);
    }

    #[test]
    fn sampler_reset_between_runs() {
        let m = DelayModel::Uniform { seed: 5, min: 1, max: 100 };
        let first: Vec<u64> = sample_all(&m, 5);
        let second: Vec<u64> = sample_all(&m, 5);
        assert_eq!(first, second, "fresh sampler must replay identically");
    }
}
