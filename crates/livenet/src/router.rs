//! The router thread: wall-clock message delays, partition episodes, site
//! crashes, and the optimistic undeliverable-message return.
//!
//! The delivery core is generic over the payload type `M`: the protocol
//! harness in this crate routes bare [`ptp_protocols::api::CommitMsg`]s,
//! while `ptp-live` routes coalesced multi-message envelopes through the
//! *same* router — one delay-queue implementation serves both runtimes.

use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    EnvelopeAction, FailureSpec, FaultPlan, PartitionEngine, PartitionSpec, SimTime, SiteId,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Global parameters of a live run.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// The longest end-to-end delay `T`, in wall-clock time. Each message
    /// leg is delayed uniformly in `(T/10, T]`.
    pub t: Duration,
    /// Give up after this much wall time (blocked baselines never decide).
    pub run_timeout: Duration,
    /// RNG seed for delay sampling (scheduling jitter keeps runs
    /// nondeterministic regardless).
    pub seed: u64,
}

impl LiveConfig {
    /// Configuration with the given `T` and a 60T run timeout.
    pub fn with_t(t: Duration) -> LiveConfig {
        LiveConfig { t, run_timeout: t * 60, seed: 7 }
    }
}

/// A wall-clock offset since the run started, as router host time
/// (nanoseconds) — the unit every instant of the router's
/// [`FaultPlan`] is in.
pub fn host_time(offset: Duration) -> SimTime {
    SimTime(offset.as_nanos() as u64)
}

/// A partition schedule stated in wall-clock [`Duration`]s since the run
/// started: thin constructors over nanosecond [`PartitionSpec`]s, covering
/// the same families as the simulator's `ScheduleShape` (simple split,
/// split→heal→re-split, multi-way, nested secession).
///
/// The constructors list only the *seceding* groups, because they do not
/// know the cluster size; [`LivePartition::complete`] adds every episode's
/// rest group once `n` is known (the router and `ptp-live`'s `run_server`
/// do), after which the schedule follows the simulator's one rule — a site
/// in no group is isolated — like any other [`PartitionEngine`].
#[derive(Debug, Clone)]
pub struct LivePartition {
    /// Ordered and non-overlapping ([`PartitionEngine::new`] checked).
    schedule: PartitionEngine,
}

impl LivePartition {
    fn episode(from: Duration, until: Option<Duration>, groups: Vec<Vec<SiteId>>) -> PartitionSpec {
        PartitionSpec { at: host_time(from), groups, heal_at: until.map(host_time) }
    }

    fn of(episodes: Vec<PartitionSpec>) -> LivePartition {
        LivePartition { schedule: PartitionEngine::new(episodes) }
    }

    /// The single-episode schedule of the original harness: `g2` splits
    /// from the rest `after` the start, healing at `heal_after` (from the
    /// start) if given.
    pub fn simple(after: Duration, g2: Vec<SiteId>, heal_after: Option<Duration>) -> LivePartition {
        Self::of(vec![Self::episode(after, heal_after, vec![g2])])
    }

    /// Split→heal→re-split: `first` secedes during `[split_at, heal_at)`,
    /// connectivity returns, then `second` secedes from `resplit_at` on.
    pub fn split_heal_resplit(
        first: Vec<SiteId>,
        split_at: Duration,
        heal_at: Duration,
        second: Vec<SiteId>,
        resplit_at: Duration,
    ) -> LivePartition {
        Self::of(vec![
            Self::episode(split_at, Some(heal_at), vec![first]),
            Self::episode(resplit_at, None, vec![second]),
        ])
    }

    /// A single multi-way split: from `at` on, each listed group (plus the
    /// rest, together) can only talk within itself.
    pub fn multi_way(at: Duration, groups: Vec<Vec<SiteId>>) -> LivePartition {
        Self::of(vec![Self::episode(at, None, groups)])
    }

    /// Nested secession: `g2` secedes at `at`; at `then_at` a `splinter`
    /// (a subset of `g2`) secedes *again*, leaving three groups.
    pub fn nested_secession(
        at: Duration,
        g2: Vec<SiteId>,
        then_at: Duration,
        splinter: Vec<SiteId>,
    ) -> LivePartition {
        let remainder: Vec<SiteId> = g2.iter().copied().filter(|s| !splinter.contains(s)).collect();
        Self::of(vec![
            Self::episode(at, Some(then_at), vec![g2]),
            Self::episode(then_at, None, vec![remainder, splinter]),
        ])
    }

    /// The schedule for a cluster of `n` sites: every episode gains, as its
    /// first group, the sites of `0..n` it lists nowhere (if any) — the
    /// group the `Duration` constructors leave implicit.
    pub fn complete(self, n: usize) -> PartitionEngine {
        let mut episodes = self.schedule.episodes().to_vec();
        for episode in &mut episodes {
            let rest: Vec<SiteId> = (0..n as u16)
                .map(SiteId)
                .filter(|s| !episode.groups.iter().any(|g| g.contains(s)))
                .collect();
            if !rest.is_empty() {
                episode.groups.insert(0, rest);
            }
        }
        PartitionEngine::new(episodes)
    }
}

/// Message-kind tagging for envelope-fault matching.
///
/// The router matches [`ptp_simnet::EnvelopeFault`]s by the same
/// `&'static str` kind tags the simulator uses (`"xact"`, `"prepare"`,
/// ...). Payload types implement this explicitly: `ptp-livenet` tags bare
/// `CommitMsg`s, `ptp-live` tags its coalesced `Packet`s by their first
/// inner message.
pub trait Tagged {
    /// The kind tag envelope faults match against.
    fn tag(&self) -> &'static str;
}

/// A message handed to the router by a site (or an injecting client).
#[derive(Debug)]
pub struct Outbound<M> {
    /// Sending site.
    pub src: SiteId,
    /// Destination site.
    pub dst: SiteId,
    /// The payload.
    pub msg: M,
}

/// What sites receive from the router (or the run harness).
#[derive(Debug)]
pub enum Inbound<M> {
    /// A delivered message.
    Deliver {
        /// The sender.
        src: SiteId,
        /// The payload.
        msg: M,
    },
    /// One of the site's own messages came back undeliverable.
    Undeliverable {
        /// Where the message was headed.
        original_dst: SiteId,
        /// The payload.
        msg: M,
    },
    /// The site just crashed: drop volatile state, go silent.
    Crash,
    /// The site recovered and may process traffic again.
    Recover,
    /// The run is over: exit the site thread.
    Shutdown,
}

#[derive(Debug)]
enum Sched<M> {
    /// The forward leg of a message. The flag marks a network-fabricated
    /// duplicate: a ghost copy that hits the partition boundary vanishes
    /// instead of bouncing, because the return-undeliverable service is
    /// per *send* — a fabricated bounce would tell the sender its message
    /// never arrived when the original was in fact delivered.
    Deliver(Outbound<M>, bool),
    /// The bounced return leg of an undeliverable message.
    Bounce(Outbound<M>),
    /// Tell a site it crashed.
    Crash(SiteId),
    /// Tell a site it recovered.
    Recover(SiteId),
}

#[derive(Debug)]
struct Scheduled<M> {
    due: Instant,
    seq: u64,
    what: Sched<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The router: owns the delay queue and reads the run's [`FaultPlan`],
/// whose instants are nanoseconds since `started`. Generic over the payload
/// type — see the module docs.
pub struct Router<M> {
    config: LiveConfig,
    faults: FaultPlan,
    site_txs: Vec<Sender<Inbound<M>>>,
    started: Instant,
}

impl<M: Send + Clone + Tagged> Router<M> {
    /// A router delivering through `site_txs`, with delays and schedules
    /// measured from `started`; `partition` is completed for the
    /// `site_txs.len()` sites, `crashes` are in [`host_time`].
    pub fn new(
        config: LiveConfig,
        partition: Option<LivePartition>,
        crashes: Vec<FailureSpec>,
        site_txs: Vec<Sender<Inbound<M>>>,
        started: Instant,
    ) -> Router<M> {
        let partition = partition.map(|p| p.complete(site_txs.len())).unwrap_or_default();
        let faults = FaultPlan { partition, failures: crashes, ..FaultPlan::default() };
        Router::with_plan(config, faults, site_txs, started)
    }

    /// A router under a whole [`FaultPlan`] in [`host_time`] (a timeline's
    /// `faults().scaled(T_ns, t_unit)`, say).
    pub fn with_plan(
        config: LiveConfig,
        faults: FaultPlan,
        site_txs: Vec<Sender<Inbound<M>>>,
        started: Instant,
    ) -> Router<M> {
        Router { config, faults, site_txs, started }
    }

    fn host_time(&self, now: Instant) -> SimTime {
        host_time(now.duration_since(self.started))
    }

    fn sample_delay(&self, rng: &mut SmallRng, at: SimTime) -> Duration {
        if let Some(w) = self.faults.degraded(at) {
            return Duration::from_nanos(rng.gen_range(w.min..=w.max).max(1));
        }
        let t = self.config.t.as_micros() as u64;
        Duration::from_micros(rng.gen_range(t / 10..=t).max(1))
    }

    /// Runs until every sender hangs up and the queue drains.
    pub fn run(self, inbox: Receiver<Outbound<M>>) {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut queue: BinaryHeap<Reverse<Scheduled<M>>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut open = true;
        // Per-fault match ordinals for `EnvelopeMatch::nth`.
        let mut env_hits = vec![0u32; self.faults.env_faults.len()];

        // Crash/recover control messages are ordinary queue entries with
        // exact (unsampled) due instants.
        for f in &self.faults.failures {
            seq += 1;
            queue.push(Reverse(Scheduled {
                due: self.started + Duration::from_nanos(f.at.0),
                seq,
                what: Sched::Crash(f.site),
            }));
            if let Some(r) = f.recover_at {
                seq += 1;
                queue.push(Reverse(Scheduled {
                    due: self.started + Duration::from_nanos(r.0),
                    seq,
                    what: Sched::Recover(f.site),
                }));
            }
        }

        loop {
            // Drain whatever is due.
            let now = Instant::now();
            while queue.peek().is_some_and(|Reverse(s)| s.due <= now) {
                let Reverse(s) = queue.pop().expect("peeked");
                let at = self.host_time(s.due);
                match s.what {
                    Sched::Deliver(out, ghost) => {
                        if self.faults.down(out.src, at) || self.faults.down(out.dst, at) {
                            // Message loss: a crashed endpoint neither sends
                            // nor receives (mirrors the simulator).
                        } else if !self.faults.partition.connected(out.src, out.dst, at) {
                            // Hit the partition boundary: schedule the
                            // optimistic return leg — unless this copy is a
                            // ghost duplicate, which the network silently
                            // loses (mirrors the simulator).
                            if !ghost {
                                let due = s.due + self.sample_delay(&mut rng, at);
                                seq += 1;
                                queue.push(Reverse(Scheduled {
                                    due,
                                    seq,
                                    what: Sched::Bounce(out),
                                }));
                            }
                        } else {
                            let _ = self.site_txs[out.dst.index()]
                                .send(Inbound::Deliver { src: out.src, msg: out.msg });
                        }
                    }
                    Sched::Bounce(out) => {
                        if !self.faults.down(out.src, at) {
                            let _ = self.site_txs[out.src.index()].send(Inbound::Undeliverable {
                                original_dst: out.dst,
                                msg: out.msg,
                            });
                        }
                    }
                    Sched::Crash(site) => {
                        let _ = self.site_txs[site.index()].send(Inbound::Crash);
                    }
                    Sched::Recover(site) => {
                        let _ = self.site_txs[site.index()].send(Inbound::Recover);
                    }
                }
            }

            if !open && queue.is_empty() {
                return;
            }

            // Wait for new traffic or the next due entry.
            let timeout = queue
                .peek()
                .map(|Reverse(s)| s.due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            match inbox.recv_timeout(timeout) {
                Ok(out) => {
                    let now = Instant::now();
                    let mut due = now + self.sample_delay(&mut rng, self.host_time(now));
                    // Envelope faults are matched at send time, like the
                    // simulator's `Core::send` hook.
                    let mut dropped = false;
                    let mut duplicate_at: Option<Instant> = None;
                    for (i, fault) in self.faults.env_faults.iter().enumerate() {
                        if !fault.matches.covers(out.msg.tag(), out.src, out.dst) {
                            continue;
                        }
                        let ordinal = env_hits[i];
                        env_hits[i] += 1;
                        if fault.matches.nth.is_some_and(|n| n != ordinal) {
                            continue;
                        }
                        match fault.action {
                            EnvelopeAction::Drop => dropped = true,
                            EnvelopeAction::Duplicate { after } => {
                                duplicate_at = Some(due + Duration::from_nanos(after.0));
                            }
                            EnvelopeAction::Delay { by } => due += Duration::from_nanos(by.0),
                        }
                    }
                    if dropped {
                        continue;
                    }
                    if let Some(dup_due) = duplicate_at {
                        let clone = Outbound { src: out.src, dst: out.dst, msg: out.msg.clone() };
                        seq += 1;
                        queue.push(Reverse(Scheduled {
                            due: dup_due,
                            seq,
                            what: Sched::Deliver(clone, true),
                        }));
                    }
                    seq += 1;
                    queue.push(Reverse(Scheduled { due, seq, what: Sched::Deliver(out, false) }));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn s(i: u16) -> SiteId {
        SiteId(i)
    }

    #[test]
    fn completed_simple_partition_is_the_simulators_transient_spec() {
        // Satellite 1's pin: after completion there is one meaning for an
        // unlisted site (the simulator's), so `simple(a, g2, h)` for `n`
        // sites answers `connected` exactly like `transient(rest, g2)` at
        // the same ns instants — `at` and `heal_at` themselves included
        // (`at ≤ now < heal_at` on both sides).
        let (at, heal) = (ms(10), ms(30));
        let live = LivePartition::simple(at, vec![s(2), s(4)], Some(heal)).complete(5);
        let sim = PartitionEngine::new(vec![PartitionSpec::transient(
            host_time(at),
            vec![s(0), s(1), s(3)],
            vec![s(2), s(4)],
            host_time(heal),
        )]);
        assert_eq!(live.episodes(), sim.episodes());
        let (at, heal) = (host_time(at).0, host_time(heal).0);
        for now in [0, at - 1, at, at + 1, heal - 1, heal, heal + 1] {
            for a in 0..6 {
                for b in 0..6 {
                    assert_eq!(
                        live.connected(s(a), s(b), SimTime(now)),
                        sim.connected(s(a), s(b), SimTime(now)),
                        "{a}-{b} at {now} ns"
                    );
                }
            }
        }
        // Site 5 is outside the cluster the schedule was completed for: in
        // no group, hence isolated while the episode is open — the
        // simulator's rule, not a silent member of the rest.
        assert!(!live.connected(s(0), s(5), SimTime(at)));
        assert!(live.connected(s(0), s(5), SimTime(heal)));
        // A permanent split never heals.
        let forever = LivePartition::simple(ms(10), vec![s(2)], None).complete(3);
        assert!(!forever.connected(s(0), s(2), SimTime(u64::MAX)));
    }

    #[test]
    fn split_heal_resplit_schedule() {
        let p =
            LivePartition::split_heal_resplit(vec![s(2), s(3)], ms(10), ms(30), vec![s(1)], ms(50))
                .complete(4);
        assert_eq!(p.episodes().len(), 2);
        let at = |v| host_time(ms(v));
        assert!(!p.connected(s(0), s(2), at(15)));
        assert!(p.connected(s(0), s(2), at(40)), "healed between episodes");
        assert!(!p.connected(s(0), s(1), at(60)));
        assert!(p.connected(s(0), s(2), at(60)), "second split severs its g2 only");
    }

    #[test]
    fn multi_way_keeps_the_unlisted_sites_together() {
        let p = LivePartition::multi_way(ms(10), vec![vec![s(1)], vec![s(2)]]).complete(4);
        let now = host_time(ms(20));
        assert!(!p.connected(s(1), s(2), now));
        assert!(!p.connected(s(0), s(1), now));
        // Unlisted sites share the rest group.
        assert!(p.connected(s(0), s(3), now));
    }

    #[test]
    fn nested_secession_splits_the_splinter() {
        let p = LivePartition::nested_secession(ms(10), vec![s(2), s(3)], ms(30), vec![s(3)])
            .complete(5);
        let at = |v| host_time(ms(v));
        assert!(p.connected(s(2), s(3), at(20)), "still one seceded group");
        assert!(!p.connected(s(2), s(3), at(30)), "splinter seceded again, at the boundary");
        assert!(!p.connected(s(0), s(2), at(40)));
        // The rest group is whoever neither episode lists, both times.
        assert!(p.connected(s(0), s(4), at(20)));
        assert!(p.connected(s(1), s(4), at(40)));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_episodes_rejected() {
        let _ = LivePartition::split_heal_resplit(vec![s(1)], ms(10), ms(40), vec![s(2)], ms(30));
    }

    #[test]
    fn config_defaults() {
        let c = LiveConfig::with_t(Duration::from_millis(10));
        assert_eq!(c.run_timeout, Duration::from_millis(600));
    }
}
