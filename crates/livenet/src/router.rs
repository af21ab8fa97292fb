//! The router thread: wall-clock message delays, partition episodes, site
//! crashes, and the optimistic undeliverable-message return — routed by the
//! simulator's rules, read off the same [`FaultPlan`]: envelope faults
//! through [`FaultPlan::match_send`], the partition through
//! [`PartitionEngine::bounce_instant`] at send time.
//!
//! The delivery core is generic over the payload type `M`: the protocol
//! harness in this crate routes bare [`ptp_protocols::api::CommitMsg`]s,
//! while `ptp-live` routes coalesced multi-message envelopes through the
//! *same* router — one delay-queue implementation serves both runtimes.

use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    FailureSpec, FaultPlan, PartitionEngine, PartitionSpec, SimDuration, SimTime, SiteId,
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
/// started: thin constructors over nanosecond [`PartitionSpec`]s for a
/// simple split and split→heal→re-split. Any other schedule (multi-way,
/// nested, anything a simulator `ScheduleShape` or timeline names) is
/// stated as a [`FaultPlan`] — a timeline's `live_faults`.
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
    /// A message lands at its destination.
    Deliver(Outbound<M>),
    /// A message that hit the partition boundary is back at its sender.
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

/// The router's delay queue: entries due at a host-time instant, ties in
/// scheduling order.
struct Agenda<M> {
    heap: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    started: Instant,
}

impl<M> Agenda<M> {
    fn push(&mut self, at: SimTime, what: Sched<M>) {
        self.seq += 1;
        let due = self.started + Duration::from_nanos(at.0);
        self.heap.push(Reverse(Scheduled { due, seq: self.seq, what }));
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

    /// One leg's delay for a send at `at`: uniform in `(T/10, T]`, or in
    /// the degrade window covering `at`.
    fn sample_delay(&self, rng: &mut SmallRng, at: SimTime) -> SimDuration {
        if let Some(w) = self.faults.degraded(at) {
            return SimDuration(rng.gen_range(w.min..=w.max).max(1));
        }
        let t = self.config.t.as_micros() as u64;
        SimDuration(rng.gen_range(t / 10..=t).max(1) * 1000)
    }

    /// Schedules one copy of a message sent at `sent` and due to land at
    /// `arrival`: its delivery, or — if the partition severs it on the way
    /// ([`PartitionEngine::bounce_instant`]: at the wall if it was sent into
    /// an open partition, at the cut if one opened mid-flight) — its return
    /// to the sender one sampled leg after the bounce. A `ghost` (the
    /// network's duplicate) that hits the wall vanishes instead: the
    /// return-undeliverable service is per *send*, and a fabricated bounce
    /// would tell the sender its message never arrived when the original
    /// was in fact delivered.
    fn route(
        &self,
        agenda: &mut Agenda<M>,
        rng: &mut SmallRng,
        out: Outbound<M>,
        sent: SimTime,
        arrival: SimTime,
        ghost: bool,
    ) {
        match self.faults.partition.bounce_instant(out.src, out.dst, sent, arrival) {
            None => agenda.push(arrival, Sched::Deliver(out)),
            Some(_) if ghost => {}
            Some(bounce_at) => {
                let back = bounce_at + self.sample_delay(rng, sent);
                agenda.push(back, Sched::Bounce(out));
            }
        }
    }

    /// Runs until every sender hangs up and the queue drains.
    pub fn run(self, inbox: Receiver<Outbound<M>>) {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut agenda = Agenda { heap: BinaryHeap::new(), seq: 0, started: self.started };
        let mut open = true;
        // Per-fault match ordinals for `EnvelopeMatch::nth`.
        let mut env_hits = vec![0u32; self.faults.env_faults.len()];

        // Crash/recover control messages are ordinary queue entries with
        // exact (unsampled) due instants.
        for f in &self.faults.failures {
            agenda.push(f.at, Sched::Crash(f.site));
            if let Some(r) = f.recover_at {
                agenda.push(r, Sched::Recover(f.site));
            }
        }

        loop {
            // Drain whatever is due.
            let now = Instant::now();
            while agenda.heap.peek().is_some_and(|Reverse(s)| s.due <= now) {
                let Reverse(s) = agenda.heap.pop().expect("peeked");
                let at = self.host_time(s.due);
                match s.what {
                    // A crashed site receives nothing; what it sent before
                    // crashing still lands (mirrors the simulator).
                    Sched::Deliver(out) => {
                        if !self.faults.down(out.dst, at) {
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

            if !open && agenda.heap.is_empty() {
                return;
            }

            // Wait for new traffic or the next due entry.
            let timeout = agenda
                .heap
                .peek()
                .map(|Reverse(s)| s.due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            match inbox.recv_timeout(timeout) {
                Ok(out) => {
                    // Everything about a send is decided now, as in the
                    // simulator's `Core::send`: its delay, its envelope
                    // faults, and whether the partition delivers or bounces
                    // each copy.
                    let sent = self.host_time(Instant::now());
                    let arrival = sent + self.sample_delay(&mut rng, sent);
                    let Some((extra, duplicate_after)) =
                        self.faults.match_send(&mut env_hits, out.msg.tag(), out.src, out.dst)
                    else {
                        continue;
                    };
                    let arrival = arrival + extra;
                    let copy = duplicate_after
                        .map(|after| (Outbound { msg: out.msg.clone(), ..out }, arrival + after));
                    self.route(&mut agenda, &mut rng, out, sent, arrival, false);
                    if let Some((copy, at)) = copy {
                        self.route(&mut agenda, &mut rng, copy, sent, at, true);
                    }
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
    #[should_panic(expected = "overlap")]
    fn overlapping_episodes_rejected() {
        let _ = LivePartition::split_heal_resplit(vec![s(1)], ms(10), ms(40), vec![s(2)], ms(30));
    }

    /// A payload for router tests: a numbered ping.
    #[derive(Debug, Clone)]
    struct Ping(u32);

    impl Tagged for Ping {
        fn tag(&self) -> &'static str {
            "ping"
        }
    }

    /// Routes `pings` numbered pings from site 0 to site 1 under `faults` at
    /// T = 1 ms, lets the router drain, and returns what each site received.
    fn exchange(faults: FaultPlan, pings: u32) -> [Vec<(&'static str, u32)>; 2] {
        use std::sync::mpsc;
        let (tx0, rx0) = mpsc::channel();
        let (tx1, rx1) = mpsc::channel();
        let router =
            Router::with_plan(LiveConfig::with_t(ms(1)), faults, vec![tx0, tx1], Instant::now());
        let (inbox_tx, inbox) = mpsc::channel();
        let handle = std::thread::spawn(move || router.run(inbox));
        for i in 0..pings {
            inbox_tx.send(Outbound { src: s(0), dst: s(1), msg: Ping(i) }).expect("router alive");
        }
        drop(inbox_tx);
        handle.join().expect("router thread");
        let log = |rx: Receiver<Inbound<Ping>>| {
            rx.try_iter()
                .map(|got| match got {
                    Inbound::Deliver { msg, .. } => ("delivered", msg.0),
                    Inbound::Undeliverable { msg, .. } => ("returned", msg.0),
                    Inbound::Crash => ("crash", 0),
                    Inbound::Recover => ("recover", 0),
                    Inbound::Shutdown => ("shutdown", 0),
                })
                .collect()
        };
        [log(rx0), log(rx1)]
    }

    fn env_faults(env_faults: Vec<ptp_simnet::EnvelopeFault>) -> FaultPlan {
        FaultPlan { env_faults, ..FaultPlan::default() }
    }

    #[test]
    fn a_send_into_an_open_partition_comes_back_though_it_heals_first() {
        // The ping leaves while {0} | {1} is open and is delayed to land 50 ms
        // after the heal: it hit the wall at send time, so it bounces (the
        // simulator's rule), rather than being judged at its arrival.
        use ptp_simnet::{EnvelopeFault, EnvelopeMatch};
        let split = PartitionSpec::transient(SimTime(0), vec![s(0)], vec![s(1)], host_time(ms(50)));
        let mut faults = env_faults(vec![EnvelopeFault::delay(
            EnvelopeMatch::kind("ping"),
            SimDuration(ms(100).as_nanos() as u64),
        )]);
        faults.partition = PartitionEngine::new(vec![split]);
        let [master, slave] = exchange(faults, 1);
        assert_eq!(master, [("returned", 0)]);
        assert!(slave.is_empty(), "{slave:?}");
    }

    #[test]
    fn a_dropped_send_is_not_counted_by_later_faults() {
        // [drop nth 0, duplicate nth 0]: the first ping is dropped before the
        // duplicate sees it, so the second ping is the duplicate's 0th and
        // lands twice.
        use ptp_simnet::{EnvelopeFault, EnvelopeMatch};
        let ping = || EnvelopeMatch::kind("ping");
        let faults = env_faults(vec![
            EnvelopeFault::drop(ping().nth(0)),
            EnvelopeFault::duplicate(ping().nth(0), SimDuration(ms(20).as_nanos() as u64)),
        ]);
        let [master, slave] = exchange(faults, 2);
        assert!(master.is_empty(), "{master:?}");
        assert_eq!(slave, [("delivered", 1), ("delivered", 1)]);
    }

    #[test]
    fn a_send_made_before_its_sender_crashes_still_lands() {
        // Site 0 crashes 20 ms in; its ping, sent at once and delayed to land
        // 60 ms in, is on the wire and arrives (the simulator drops only at a
        // down receiver).
        use ptp_simnet::{EnvelopeFault, EnvelopeMatch};
        let mut faults = env_faults(vec![EnvelopeFault::delay(
            EnvelopeMatch::kind("ping"),
            SimDuration(ms(60).as_nanos() as u64),
        )]);
        faults.failures.push(FailureSpec::crash(s(0), host_time(ms(20))));
        let [master, slave] = exchange(faults, 1);
        assert_eq!(master, [("crash", 0)]);
        assert_eq!(slave, [("delivered", 0)]);
    }

    #[test]
    fn config_defaults() {
        let c = LiveConfig::with_t(Duration::from_millis(10));
        assert_eq!(c.run_timeout, Duration::from_millis(600));
    }
}
