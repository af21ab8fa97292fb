//! Network partitioning: the failure class the paper is about.
//!
//! Terminology (Sec. 2):
//! * **simple partitioning** — sites split into exactly two groups with no
//!   communication between them;
//! * **multiple partitioning** — more than two groups (provably hopeless,
//!   reproduced by experiment E12);
//! * **transient partitioning** — the network heals before all affected
//!   transactions have terminated (Sec. 6);
//! * **optimistic model** — undeliverable messages are returned to their
//!   senders; **pessimistic model** — they are lost.

use crate::message::SiteId;
use crate::time::SimTime;

/// Whether undeliverable messages are returned or lost.
///
/// # Examples
///
/// ```
/// use ptp_simnet::PartitionMode;
///
/// // The paper works in the optimistic model; it is the default.
/// assert_eq!(PartitionMode::default(), PartitionMode::Optimistic);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// The paper's assumption 1: undeliverable messages come back to the
    /// sender (within `2T` of the original send in this simulator).
    #[default]
    Optimistic,
    /// Undeliverable messages vanish. The Skeen–Stonebraker impossibility
    /// theorem says no protocol is resilient in this model.
    Pessimistic,
}

/// A partition episode: at `at`, the sites split into `groups`; if `heal_at`
/// is set, full connectivity returns at that instant (transient partitioning).
///
/// # Examples
///
/// ```
/// use ptp_simnet::{PartitionSpec, SimTime, SiteId};
///
/// // Sites {0, 1} lose contact with site 2 at t = 1500, forever.
/// let spec = PartitionSpec::simple(SimTime(1500), vec![SiteId(0), SiteId(1)], vec![SiteId(2)]);
/// assert!(spec.is_simple());
///
/// // The same split, healing at t = 4000 (Sec. 6's transient case).
/// let spec =
///     PartitionSpec::transient(SimTime(1500), vec![SiteId(0), SiteId(1)], vec![SiteId(2)], SimTime(4000));
/// assert_eq!(spec.heal_at, Some(SimTime(4000)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// When the partition occurs.
    pub at: SimTime,
    /// The connectivity groups. Two groups = simple partitioning; more =
    /// multiple partitioning. Sites not listed anywhere are unreachable from
    /// everyone (treated as a singleton group).
    pub groups: Vec<Vec<SiteId>>,
    /// When the partition heals, if it does.
    pub heal_at: Option<SimTime>,
}

impl PartitionSpec {
    /// A simple (two-group) partition that never heals.
    pub fn simple(at: SimTime, group_a: Vec<SiteId>, group_b: Vec<SiteId>) -> Self {
        PartitionSpec { at, groups: vec![group_a, group_b], heal_at: None }
    }

    /// A simple partition that heals at `heal_at` (Sec. 6's transient case).
    pub fn transient(
        at: SimTime,
        group_a: Vec<SiteId>,
        group_b: Vec<SiteId>,
        heal_at: SimTime,
    ) -> Self {
        PartitionSpec { at, groups: vec![group_a, group_b], heal_at: Some(heal_at) }
    }

    /// True if this is a simple (exactly two group) partition.
    pub fn is_simple(&self) -> bool {
        self.groups.len() == 2
    }

    /// Index of the group containing `site`, if any.
    fn group_of(&self, site: SiteId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&site))
    }
}

/// Evaluates connectivity questions against an ordered **schedule** of
/// partition episodes.
///
/// Episodes may not overlap in time; [`PartitionEngine::new`] checks this.
/// (The paper's assumption 2 rules out a second partition before the first
/// one's transactions terminate; the engine supports sequential episodes —
/// cascading splits, staggered heals, regroupings — precisely so experiments
/// can quantify where that assumption is load-bearing.)
///
/// Repeated-run workloads rewrite one engine in place instead of building a
/// new one per run: [`PartitionEngine::reset_single`] for the classic
/// one-episode case, [`PartitionEngine::reset_schedule`] +
/// [`PartitionEngine::episode_groups`] for multi-episode schedules. Both
/// recycle the episode and group buffers, so the sweep hot path stays
/// allocation-free in steady state.
///
/// # Examples
///
/// A split → heal → re-split schedule, written twice through the same
/// engine (second write reuses every buffer):
///
/// ```
/// use ptp_simnet::{PartitionEngine, SimTime, SiteId};
///
/// let mut engine = PartitionEngine::always_connected();
/// for round in 0..2 {
///     engine.reset_schedule(2);
///     let g = engine.episode_groups(0, SimTime(1000), Some(SimTime(3000)), 2);
///     g[0].extend([SiteId(0), SiteId(1)]);
///     g[1].push(SiteId(2));
///     let g = engine.episode_groups(1, SimTime(5000), None, 2);
///     g[0].extend([SiteId(0), SiteId(1)]);
///     g[1].push(SiteId(2));
///     assert!(!engine.connected(SiteId(0), SiteId(2), SimTime(2000)), "round {round}");
///     assert!(engine.connected(SiteId(0), SiteId(2), SimTime(4000)), "healed");
///     assert!(!engine.connected(SiteId(0), SiteId(2), SimTime(6000)), "re-split");
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PartitionEngine {
    episodes: Vec<PartitionSpec>,
}

impl PartitionEngine {
    /// Creates an engine from episodes, validating that they are disjoint in
    /// time and sorted by start.
    ///
    /// # Panics
    /// Panics if two episodes overlap in time.
    pub fn new(mut episodes: Vec<PartitionSpec>) -> Self {
        episodes.sort_by_key(|e| e.at);
        for pair in episodes.windows(2) {
            let end = pair[0].heal_at.expect("an unhealed partition must be the last episode");
            assert!(end <= pair[1].at, "partition episodes overlap in time");
        }
        PartitionEngine { episodes }
    }

    /// No partitions at all.
    pub fn always_connected() -> Self {
        PartitionEngine { episodes: Vec::new() }
    }

    /// Removes every episode in place: the engine reports full connectivity
    /// afterwards, exactly like [`PartitionEngine::always_connected`].
    pub fn clear(&mut self) {
        self.episodes.clear();
    }

    /// Reconfigures the engine in place as a **single** episode starting at
    /// `at` (healing at `heal_at`, if given) with exactly `group_count`
    /// connectivity groups, and returns the group buffers for the caller to
    /// fill. Existing group vectors are cleared and reused, so a scenario
    /// session can rewrite its engine for every grid cell without
    /// reallocating — this is the buffer-reuse path behind
    /// `ptp_core::Session`.
    ///
    /// A single episode needs no overlap validation, so the resulting engine
    /// is always well formed once the caller has filled the groups.
    pub fn reset_single(
        &mut self,
        at: SimTime,
        heal_at: Option<SimTime>,
        group_count: usize,
    ) -> &mut [Vec<SiteId>] {
        self.reset_schedule(1);
        self.episode_groups(0, at, heal_at, group_count)
    }

    /// Reconfigures the engine in place as an ordered **multi-episode
    /// schedule** of exactly `episode_count` episodes, generalizing
    /// [`PartitionEngine::reset_single`]'s buffer recycling: surviving
    /// episode records and their group vectors are reused, so a scenario
    /// session can rewrite its engine for every grid cell without
    /// reallocating.
    ///
    /// After this call every episode `0..episode_count` **must** be written
    /// through [`PartitionEngine::episode_groups`], in index order, before
    /// the engine is queried. Kept episodes have their heal instants
    /// stamped out here, so an out-of-order write trips `episode_groups`'
    /// predecessor check ("an unhealed partition must be the last episode")
    /// instead of validating against a stale header — the in-order
    /// discipline, and with it the no-overlap invariant that
    /// [`PartitionEngine::new`] checks for the allocating path, is
    /// enforced, not just documented.
    pub fn reset_schedule(&mut self, episode_count: usize) {
        self.episodes.truncate(episode_count);
        for episode in &mut self.episodes {
            episode.heal_at = None;
        }
        self.episodes.resize_with(episode_count, || PartitionSpec {
            at: SimTime(0),
            groups: Vec::new(),
            heal_at: None,
        });
    }

    /// Rewrites episode `index` of the current schedule to start at `at`
    /// (healing at `heal_at`, if given) with exactly `group_count`
    /// connectivity groups, and returns the cleared group buffers for the
    /// caller to fill. Existing group vectors are recycled.
    ///
    /// A degenerate heal instant (`heal_at <= at`) is tolerated, exactly as
    /// [`PartitionEngine::new`] tolerates it in a final episode: the
    /// episode's active window is empty, so it never partitions anything.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the schedule set up by
    /// [`PartitionEngine::reset_schedule`], or if the episode would overlap
    /// its predecessor (episode `index - 1` must heal at or before `at`; an
    /// unhealed — or not-yet-rewritten — predecessor means this write is
    /// out of order).
    pub fn episode_groups(
        &mut self,
        index: usize,
        at: SimTime,
        heal_at: Option<SimTime>,
        group_count: usize,
    ) -> &mut [Vec<SiteId>] {
        assert!(
            index < self.episodes.len(),
            "episode index {index} outside the {}-episode schedule",
            self.episodes.len()
        );
        if index > 0 {
            let end = self.episodes[index - 1]
                .heal_at
                .expect("an unhealed partition must be the last episode");
            assert!(end <= at, "partition episodes overlap in time");
        }
        let episode = &mut self.episodes[index];
        episode.at = at;
        episode.heal_at = heal_at;
        let groups = &mut episode.groups;
        for g in groups.iter_mut() {
            g.clear();
        }
        groups.truncate(group_count);
        groups.resize_with(group_count, Vec::new);
        groups
    }

    /// The scheduled episodes, in time order.
    pub fn episodes(&self) -> &[PartitionSpec] {
        &self.episodes
    }

    /// The episode active at `now`, if any.
    pub fn active_at(&self, now: SimTime) -> Option<&PartitionSpec> {
        self.episodes.iter().find(|e| e.at <= now && e.heal_at.is_none_or(|h| now < h))
    }

    /// Can a message travel from `a` to `b` at instant `now`?
    pub fn connected(&self, a: SiteId, b: SiteId, now: SimTime) -> bool {
        if a == b {
            return true;
        }
        match self.active_at(now) {
            None => true,
            Some(ep) => match (ep.group_of(a), ep.group_of(b)) {
                (Some(ga), Some(gb)) => ga == gb,
                // A site missing from every group is isolated.
                _ => false,
            },
        }
    }

    /// The fate of a message from `a` to `b` sent at `sent_at` with
    /// scheduled delivery at `delivery_at`: `None` if it gets through,
    /// `Some(instant)` when it bounces. If an episode that severs the pair
    /// is active at `sent_at` ([`PartitionEngine::connected`] says no), it
    /// bounces at `delivery_at`, its scheduled arrival at the wall; else if
    /// an episode that severs the pair starts in `(sent_at, delivery_at]`,
    /// it bounces at that episode's start. One scan of the episode schedule
    /// answers both: the network asks this for every message sent.
    pub fn bounce_instant(
        &self,
        a: SiteId,
        b: SiteId,
        sent_at: SimTime,
        delivery_at: SimTime,
    ) -> Option<SimTime> {
        if a == b {
            return None;
        }
        // Episodes are disjoint and sorted by start (`new` sorts and
        // validates; `episode_groups` enforces in-order writes), so the
        // first relevant episode decides.
        for e in &self.episodes {
            if e.at > delivery_at {
                break;
            }
            let severed = || match (e.group_of(a), e.group_of(b)) {
                (Some(ga), Some(gb)) => ga != gb,
                // A site missing from every group is isolated.
                _ => true,
            };
            if e.at <= sent_at {
                // Active at send time (or already healed).
                if e.heal_at.is_none_or(|h| sent_at < h) && severed() {
                    return Some(delivery_at);
                }
            } else if severed() {
                // Starts mid-flight, in (sent_at, delivery_at].
                return Some(e.at);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u16) -> SiteId {
        SiteId(i)
    }

    fn simple_at(at: u64) -> PartitionSpec {
        PartitionSpec::simple(SimTime(at), vec![s(1), s(2)], vec![s(3)])
    }

    #[test]
    fn connected_before_partition() {
        let eng = PartitionEngine::new(vec![simple_at(100)]);
        assert!(eng.connected(s(1), s(3), SimTime(99)));
        assert!(!eng.connected(s(1), s(3), SimTime(100)));
        assert!(eng.connected(s(1), s(2), SimTime(100)));
    }

    #[test]
    fn self_loop_always_connected() {
        let eng = PartitionEngine::new(vec![simple_at(0)]);
        assert!(eng.connected(s(3), s(3), SimTime(50)));
    }

    #[test]
    fn heal_restores_connectivity() {
        let eng = PartitionEngine::new(vec![PartitionSpec::transient(
            SimTime(10),
            vec![s(1)],
            vec![s(2)],
            SimTime(20),
        )]);
        assert!(!eng.connected(s(1), s(2), SimTime(15)));
        assert!(eng.connected(s(1), s(2), SimTime(20)));
    }

    #[test]
    fn unlisted_site_is_isolated() {
        let eng =
            PartitionEngine::new(vec![PartitionSpec::simple(SimTime(0), vec![s(1)], vec![s(2)])]);
        assert!(!eng.connected(s(1), s(9), SimTime(5)));
        assert!(!eng.connected(s(9), s(2), SimTime(5)));
    }

    #[test]
    fn multiple_partitioning_three_groups() {
        let eng = PartitionEngine::new(vec![PartitionSpec {
            at: SimTime(0),
            groups: vec![vec![s(1)], vec![s(2)], vec![s(3)]],
            heal_at: None,
        }]);
        assert!(!eng.connected(s(1), s(2), SimTime(1)));
        assert!(!eng.connected(s(2), s(3), SimTime(1)));
        assert!(!eng.connected(s(1), s(3), SimTime(1)));
    }

    #[test]
    fn sequential_episodes_allowed() {
        let eng = PartitionEngine::new(vec![
            PartitionSpec::transient(SimTime(0), vec![s(1)], vec![s(2)], SimTime(10)),
            PartitionSpec::transient(SimTime(20), vec![s(1), s(2)], vec![], SimTime(30)),
        ]);
        assert!(!eng.connected(s(1), s(2), SimTime(5)));
        assert!(eng.connected(s(1), s(2), SimTime(15)));
        assert!(eng.connected(s(1), s(2), SimTime(25)));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_episodes_rejected() {
        PartitionEngine::new(vec![
            PartitionSpec::transient(SimTime(0), vec![s(1)], vec![s(2)], SimTime(50)),
            PartitionSpec::simple(SimTime(25), vec![s(1)], vec![s(2)]),
        ]);
    }

    #[test]
    #[should_panic(expected = "unhealed")]
    fn episode_after_a_permanent_split_rejected() {
        PartitionEngine::new(vec![
            PartitionSpec::simple(SimTime(0), vec![s(1)], vec![s(2)]),
            PartitionSpec::simple(SimTime(25), vec![s(1)], vec![s(2)]),
        ]);
    }

    #[test]
    fn reset_schedule_matches_allocating_constructor() {
        // The in-place schedule writer must produce an engine identical to
        // PartitionEngine::new over the same episodes.
        let episodes = vec![
            PartitionSpec::transient(SimTime(10), vec![s(1), s(2)], vec![s(3)], SimTime(40)),
            PartitionSpec {
                at: SimTime(40),
                groups: vec![vec![s(1)], vec![s(2)], vec![s(3)]],
                heal_at: Some(SimTime(80)),
            },
            PartitionSpec::simple(SimTime(100), vec![s(1), s(3)], vec![s(2)]),
        ];
        let allocated = PartitionEngine::new(episodes.clone());

        let mut reused = PartitionEngine::always_connected();
        // Write a throwaway schedule first so the second write exercises
        // buffer recycling rather than fresh allocation.
        let _ = reused.reset_single(SimTime(5), None, 2);
        reused.reset_schedule(episodes.len());
        for (i, ep) in episodes.iter().enumerate() {
            let bufs = reused.episode_groups(i, ep.at, ep.heal_at, ep.groups.len());
            for (buf, group) in bufs.iter_mut().zip(&ep.groups) {
                buf.extend_from_slice(group);
            }
        }
        assert_eq!(reused.episodes(), allocated.episodes());
        for t in [0u64, 20, 50, 90, 150] {
            for (a, b) in [(s(1), s(2)), (s(1), s(3)), (s(2), s(3))] {
                assert_eq!(
                    reused.connected(a, b, SimTime(t)),
                    allocated.connected(a, b, SimTime(t)),
                    "connectivity diverged at t={t} for {a:?}-{b:?}"
                );
            }
        }
    }

    #[test]
    fn reset_schedule_shrinks_a_longer_schedule() {
        let mut eng = PartitionEngine::always_connected();
        eng.reset_schedule(3);
        for i in 0..3u64 {
            let bufs = eng.episode_groups(
                i as usize,
                SimTime(i * 20),
                (i < 2).then(|| SimTime(i * 20 + 10)),
                2,
            );
            bufs[0].push(s(1));
            bufs[1].push(s(2));
        }
        assert_eq!(eng.episodes().len(), 3);
        // Rewrite as a single permanent episode: the stale tail must be gone.
        let groups = eng.reset_single(SimTime(5), None, 2);
        groups[0].push(s(1));
        groups[1].push(s(2));
        assert_eq!(eng.episodes().len(), 1);
        assert!(eng.connected(s(1), s(2), SimTime(0)));
        assert!(!eng.connected(s(1), s(2), SimTime(100)));
    }

    #[test]
    fn degenerate_heal_is_a_tolerated_no_op() {
        // heal_at == at was accepted (and inert) before the schedule
        // refactor; the legacy reset_single path must keep tolerating it.
        let mut eng = PartitionEngine::always_connected();
        let groups = eng.reset_single(SimTime(2000), Some(SimTime(2000)), 2);
        groups[0].push(s(1));
        groups[1].push(s(2));
        for t in [0u64, 1999, 2000, 5000] {
            assert!(eng.connected(s(1), s(2), SimTime(t)), "empty window active at t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "unhealed")]
    fn out_of_order_episode_write_is_rejected() {
        let mut eng = PartitionEngine::always_connected();
        // Leave a healed episode 0 behind from a previous schedule...
        let _ = eng.reset_single(SimTime(0), Some(SimTime(50)), 2);
        eng.reset_schedule(2);
        // ...then try to write episode 1 first: the stale heal instant has
        // been stamped out, so this cannot validate against it.
        let _ = eng.episode_groups(1, SimTime(100), None, 2);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn episode_groups_rejects_overlap() {
        let mut eng = PartitionEngine::always_connected();
        eng.reset_schedule(2);
        let _ = eng.episode_groups(0, SimTime(0), Some(SimTime(50)), 2);
        let _ = eng.episode_groups(1, SimTime(25), None, 2);
    }

    #[test]
    #[should_panic(expected = "unhealed")]
    fn episode_groups_rejects_unhealed_predecessor() {
        let mut eng = PartitionEngine::always_connected();
        eng.reset_schedule(2);
        let _ = eng.episode_groups(0, SimTime(0), None, 2);
        let _ = eng.episode_groups(1, SimTime(25), None, 2);
    }

    #[test]
    fn back_to_back_episodes_switch_seamlessly() {
        // A nested secession: ep1 heals exactly when ep2 begins, so there is
        // no reconnect instant in between.
        let mut eng = PartitionEngine::always_connected();
        eng.reset_schedule(2);
        let g = eng.episode_groups(0, SimTime(10), Some(SimTime(30)), 2);
        g[0].push(s(1));
        g[1].extend([s(2), s(3)]);
        let g = eng.episode_groups(1, SimTime(30), None, 3);
        g[0].push(s(1));
        g[1].push(s(2));
        g[2].push(s(3));
        assert!(eng.connected(s(2), s(3), SimTime(20)), "same fragment during ep1");
        assert!(!eng.connected(s(2), s(3), SimTime(30)), "seceded at the boundary instant");
        assert!(!eng.connected(s(1), s(2), SimTime(30)), "still cut from G1");
    }

    #[test]
    fn is_simple_classification() {
        assert!(simple_at(0).is_simple());
        let multi = PartitionSpec {
            at: SimTime(0),
            groups: vec![vec![s(1)], vec![s(2)], vec![s(3)]],
            heal_at: None,
        };
        assert!(!multi.is_simple());
    }
}
