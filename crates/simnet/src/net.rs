//! The simulation engine: actors, contexts, and the event loop.

use crate::delay::{DelayModel, DelaySampler, Leg};
use crate::event::{EventKind, EventQueue};
use crate::faults::FaultPlan;
use crate::message::{Envelope, MsgId, SiteId};
use crate::partition::PartitionMode;
use crate::time::{SimDuration, SimTime};
use crate::timers::TimerSlab;
use crate::trace::{Trace, TraceCounters, TraceEvent};

/// A message payload the network can carry.
///
/// The only thing the network itself needs from a payload is a static tag
/// for the trace (`"prepare"`, `"probe"`, ...); routing never inspects
/// contents.
pub trait Payload: Clone + std::fmt::Debug + 'static {
    /// Message-kind tag recorded in traces.
    fn kind(&self) -> &'static str;
}

impl Payload for &'static str {
    fn kind(&self) -> &'static str {
        self
    }
}

impl Payload for () {
    fn kind(&self) -> &'static str {
        "unit"
    }
}

/// Global simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Ticks per `T` (the longest end-to-end delay, the paper's time unit).
    pub t_unit: u64,
    /// Optimistic (return undeliverables) or pessimistic (drop) partitions.
    pub mode: PartitionMode,
    /// Hard horizon; events past it are not dispatched. Guards against
    /// protocols that never quiesce.
    pub max_time: SimTime,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            t_unit: 1000,
            mode: PartitionMode::Optimistic,
            max_time: SimTime(1000 * 200), // 200 T is far beyond any protocol bound
        }
    }
}

impl NetConfig {
    /// `n` times the `T` unit as a duration — `cfg.t(3)` is the paper's `3T`.
    #[inline]
    pub fn t(&self, n: u64) -> SimDuration {
        SimDuration(self.t_unit * n)
    }
}

/// A deterministic, single-threaded simulated process.
///
/// Handlers run to completion; all effects go through the [`Ctx`].
pub trait Actor<P: Payload> {
    /// Called once at `t=0`, before any message flows.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// A message arrived.
    fn on_message(&mut self, env: Envelope<P>, ctx: &mut Ctx<'_, P>);

    /// One of this site's own messages bounced off a partition boundary and
    /// came back (optimistic model only). `env.dst` is the site that never
    /// received it.
    fn on_undeliverable(&mut self, _env: Envelope<P>, _ctx: &mut Ctx<'_, P>) {}

    /// A previously armed timer fired (and was not cancelled).
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, P>) {}

    /// The site just crashed. This is a *bookkeeping* hook — the site is
    /// already marked down when it runs, so implementations must not send
    /// messages or arm timers here; close out externally visible accounting
    /// (e.g. metric intervals for state the crash wipes) and nothing else.
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// The site recovered from a crash.
    fn on_recover(&mut self, _ctx: &mut Ctx<'_, P>) {}
}

/// Handle to an armed timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub u64);

/// Everything an actor may do during a handler: inspect time, send messages,
/// and manage timers.
pub struct Ctx<'a, P: Payload> {
    core: &'a mut Core<P>,
    me: SiteId,
}

impl<P: Payload> Ctx<'_, P> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This actor's site id.
    #[inline]
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Simulation configuration (for `T`-based timer arithmetic).
    #[inline]
    pub fn config(&self) -> &NetConfig {
        &self.core.config
    }

    /// `n * T` as a duration.
    #[inline]
    pub fn t(&self, n: u64) -> SimDuration {
        self.core.config.t(n)
    }

    /// Sends `payload` to `dst`. Self-sends are delivered (after the sampled
    /// delay) without partition interference.
    pub fn send(&mut self, dst: SiteId, payload: P) {
        self.core.send(self.me, dst, payload);
    }

    /// Sends `payload` to every site in `dsts` except self — cloning for
    /// all targets but the last, which receives the original by move. With
    /// `k` targets that is `k - 1` clones instead of `k`, which matters on
    /// the sweep hot path where every protocol round broadcasts.
    pub fn send_to_all(&mut self, dsts: &[SiteId], payload: P) {
        let me = self.me;
        let Some(last) = dsts.iter().rposition(|&d| d != me) else {
            return;
        };
        for &d in &dsts[..last] {
            if d != me {
                self.core.send(me, d, payload.clone());
            }
        }
        self.core.send(me, dsts[last], payload);
    }

    /// Arms a timer that fires `after` from now, delivering `tag` to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerHandle {
        self.core.set_timer(self.me, after, tag)
    }

    /// Cancels a timer if it has not fired yet.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.core.cancel_timer(self.me, handle);
    }

    /// Records a free-form annotation in the trace. Protocol code uses this
    /// for state transitions and decisions; the timing experiments measure
    /// gaps between notes.
    pub fn note(&mut self, label: &'static str, detail: u64) {
        let at = self.core.now;
        let site = self.me;
        self.core.trace(|c| c.notes += 1, || TraceEvent::Note { at, site, label, detail });
    }
}

/// Shared simulator internals (everything except the actors themselves, so
/// handler dispatch can borrow an actor and the core disjointly).
struct Core<P: Payload> {
    config: NetConfig,
    now: SimTime,
    queue: EventQueue<P>,
    next_msg: u64,
    timers: TimerSlab,
    crashed: Vec<bool>,
    /// The run's faults, in ticks. The partition engine is the connectivity
    /// oracle; crashes were turned into queue events at construction;
    /// degrade windows and envelope faults (usually none) apply at send time.
    faults: FaultPlan,
    sampler: DelaySampler,
    /// The run's event log; `None` when only the counters are kept.
    trace: Option<Trace>,
    counters: TraceCounters,
    /// Per-fault count of sends matching the fault's field filters, for
    /// `nth` ordinals. Parallel to `faults.env_faults`.
    env_hits: Vec<u32>,
    /// Latest `delivery_at` handed to [`Core::route`] so far.
    last_landing: SimTime,
}

impl<P: Payload> Core<P> {
    /// Routes one event to the counters and, when the run records one, the
    /// trace.
    ///
    /// The counter bump and the trace record are split so the event struct
    /// is only *built* when a trace will keep it: the sweep hot path records
    /// none, and assembling a [`TraceEvent`] per send/delivery/timer just to
    /// discard it was measurable in the event-dispatch profile.
    #[inline]
    fn trace(&mut self, bump: impl FnOnce(&mut TraceCounters), ev: impl FnOnce() -> TraceEvent) {
        bump(&mut self.counters);
        if let Some(trace) = &mut self.trace {
            trace.push(ev());
        }
    }

    /// Remaps a sampled delay when `now` falls inside a degrade window.
    /// The sampler has already advanced either way, so adding or removing
    /// windows never shifts the random stream the rest of the run sees.
    #[inline]
    fn degraded(&self, id: MsgId, raw: u64) -> u64 {
        self.faults.degraded(self.now).map_or(raw, |w| w.remap(id.0, raw))
    }

    fn send(&mut self, src: SiteId, dst: SiteId, payload: P) {
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        let kind = payload.kind();
        let env = Envelope { id, src, dst, sent_at: self.now, payload };
        let at = self.now;
        self.trace(|c| c.sent += 1, || TraceEvent::Sent { at, id, src, dst, kind });

        let raw = self.sampler.sample(id, src, dst, Leg::Outbound);
        let out = self.degraded(id, raw).clamp(1, self.config.t_unit);
        let mut delivery_at = self.now + SimDuration(out);

        // Envelope faults, matched at send time (the one matcher the live
        // router calls too). A `Drop` wins outright; `Delay` pushes the
        // delivery instant; `Duplicate` schedules a second copy (same
        // message id — the *network* duplicated it) after the fully delayed
        // arrival.
        let Some((extra, duplicate_after)) =
            self.faults.match_send(&mut self.env_hits, kind, src, dst)
        else {
            self.trace(|c| c.dropped += 1, || TraceEvent::Dropped { at, id, src, dst, kind });
            return;
        };
        delivery_at += extra;

        match duplicate_after {
            None => self.route(env, delivery_at, false),
            Some(after) => {
                let dup_at = delivery_at + after;
                self.route(env.clone(), delivery_at, false);
                self.route(env, dup_at, true);
            }
        }
    }

    /// Hands one in-flight envelope to the partition oracle and schedules
    /// its delivery, bounce, or drop.
    ///
    /// `ghost` marks a network-fabricated duplicate. The paper's
    /// return-undeliverable service is sound only per *send*: a slave that
    /// sees its yes vote bounce may unilaterally abort because the master
    /// cannot have received it. A ghost copy bouncing off a partition must
    /// therefore vanish silently — returning it would fabricate exactly the
    /// signal that rule relies on, after the original was delivered.
    fn route(&mut self, env: Envelope<P>, delivery_at: SimTime, ghost: bool) {
        let (id, src, dst, kind) = (env.id, env.src, env.dst, env.payload.kind());
        let at = self.now;
        self.last_landing = self.last_landing.max(delivery_at);
        // Does the message cross a partition boundary, and if so when does
        // it bounce?
        //
        // * Disconnected already at send time: the message travels out and
        //   bounces at the boundary — bounce instant is the scheduled
        //   delivery instant (it spent its outbound delay reaching the wall).
        // * Partition starts mid-flight: it was "outstanding ... at the time
        //   partitioning occurs" (Lemma 3's setup) and bounces at the
        //   partition instant.
        //
        // Either way the return leg adds at most `T`, so an undeliverable
        // message is back at its sender within `2T` of sending — the bound
        // the Fig. 6 timing analysis uses.
        match self.faults.partition.bounce_instant(src, dst, self.now, delivery_at) {
            None => {
                self.queue.push(delivery_at, EventKind::Deliver(env));
            }
            Some(bounce_at) => match self.config.mode {
                PartitionMode::Optimistic if !ghost => {
                    let raw = self.sampler.sample(id, src, dst, Leg::Return);
                    let ret = self.degraded(id, raw).clamp(1, self.config.t_unit);
                    self.queue.push(bounce_at + SimDuration(ret), EventKind::ReturnUd(env));
                }
                _ => {
                    self.trace(
                        |c| c.dropped += 1,
                        || TraceEvent::Dropped { at, id, src, dst, kind },
                    );
                }
            },
        }
    }

    fn set_timer(&mut self, site: SiteId, after: SimDuration, tag: u64) -> TimerHandle {
        let timer = self.timers.arm();
        let fire_at = self.now + after;
        let at = self.now;
        self.trace(
            |c| c.timers_set += 1,
            || TraceEvent::TimerSet { at, site, timer, tag, fire_at },
        );
        self.queue.push(fire_at, EventKind::Timer { site, timer, tag });
        TimerHandle(timer)
    }

    fn cancel_timer(&mut self, site: SiteId, handle: TimerHandle) {
        if self.timers.cancel(handle.0) {
            let at = self.now;
            self.trace(
                |c| c.timers_cancelled += 1,
                || TraceEvent::TimerCancelled { at, site, timer: handle.0 },
            );
        }
    }
}

/// The simulator's reusable buffers: event heap, timer slab, crash flags,
/// and the fault plan (whose partition-group vectors and fault lists a
/// session rewrites between runs).
///
/// A simulation built with [`Simulation::with_scratch`] and finished with
/// [`Simulation::run_recycling`] hands these back so the next run starts
/// with warm allocations instead of fresh ones. Every buffer is reset to a
/// fresh-construction state on reuse, so a recycled run is bit-identical to
/// a cold one — determinism never depends on which path built the
/// simulation.
#[derive(Debug)]
pub struct SimScratch<P: Payload> {
    queue: EventQueue<P>,
    timers: TimerSlab,
    crashed: Vec<bool>,
    /// The next run's faults. Callers rewrite the plan in place between
    /// runs (e.g. [`crate::PartitionEngine::reset_single`] on its partition
    /// engine), or simply assign a new one.
    pub faults: FaultPlan,
}

impl<P: Payload> SimScratch<P> {
    /// Fresh, empty scratch with no faults armed.
    pub fn new() -> SimScratch<P> {
        SimScratch {
            queue: EventQueue::with_capacity(0),
            timers: TimerSlab::with_capacity(0),
            crashed: Vec::new(),
            faults: FaultPlan::default(),
        }
    }
}

impl<P: Payload> Default for SimScratch<P> {
    fn default() -> Self {
        SimScratch::new()
    }
}

/// Why the event loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No events left: the system quiesced.
    Quiescent,
    /// The configured horizon was reached with events still pending.
    Horizon,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Simulated instant of the last dispatched event.
    pub ended_at: SimTime,
    /// Number of dispatched events.
    pub events: u64,
    /// Per-category trace tallies, kept whether or not the run records a
    /// trace.
    pub counters: TraceCounters,
    /// The latest instant any routed message was *scheduled* to land at its
    /// destination — forward legs only, delayed and duplicated copies
    /// included, whether or not a partition then bounced or dropped it;
    /// [`SimTime::ZERO`] if nothing was sent. A partition episode starting
    /// strictly after this instant cannot have touched the run:
    /// [`crate::PartitionEngine::bounce_instant`] only looks at episodes
    /// with `at <= delivery_at`.
    pub last_landing: SimTime,
}

/// A configured simulation: actors plus network behaviour.
///
/// Build with [`Simulation::new`], then [`Simulation::run`]. The actors are
/// returned to the caller afterwards so protocol outcomes can be read off
/// their final state. The actor vector is one concrete type and dispatches
/// statically (the protocol session runner's `ProtocolActor`, the
/// database's `ShardNode`); a caller wanting several behaviours writes an
/// enum over them.
pub struct Simulation<P: Payload, A: Actor<P>> {
    core: Core<P>,
    actors: Vec<A>,
}

impl<P: Payload, A: Actor<P>> Simulation<P, A> {
    /// Creates a simulation over `actors` (site `i` is `actors[i]`) under
    /// `faults` (a whole [`FaultPlan`] in ticks, or just a
    /// [`crate::PartitionEngine`]) that records the full [`Trace`].
    ///
    /// ```
    /// use ptp_simnet::{
    ///     DelayModel, EnvelopeFault, EnvelopeMatch, FaultPlan, NetConfig, SimDuration, Simulation,
    /// };
    /// # use ptp_simnet::{Actor, Ctx, Envelope, SiteId};
    /// # struct Pinger;
    /// # impl Actor<&'static str> for Pinger {
    /// #     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
    /// #         if ctx.me() == SiteId(0) { ctx.send(SiteId(1), "ping"); }
    /// #     }
    /// #     fn on_message(&mut self, _: Envelope<&'static str>, _: &mut Ctx<'_, &'static str>) {}
    /// # }
    /// // Deliver every "ping" twice, the copy 100 ticks later.
    /// let mut faults = FaultPlan::default();
    /// faults.env_faults.push(EnvelopeFault::duplicate(EnvelopeMatch::kind("ping"), SimDuration(100)));
    /// let sim = Simulation::new(
    ///     NetConfig::default(),
    ///     vec![Pinger, Pinger],
    ///     faults,
    ///     &DelayModel::Fixed(500),
    /// );
    /// let (_, trace, _) = sim.run();
    /// assert_eq!(trace.deliveries_to(SiteId(1), "ping").count(), 2);
    /// ```
    pub fn new(
        config: NetConfig,
        actors: Vec<A>,
        faults: impl Into<FaultPlan>,
        delay: &DelayModel,
    ) -> Self {
        let mut scratch = SimScratch::new();
        scratch.faults = faults.into();
        Simulation::with_scratch(config, actors, delay, true, scratch)
    }

    /// Creates a simulation that reuses the buffers of a previous run.
    ///
    /// The faults are taken from `scratch.faults` (configure the plan
    /// before calling); every other buffer is reset to a fresh state, so
    /// the run is indistinguishable from one built by [`Simulation::new`].
    /// With `record` off — verdict-only workloads such as the resilience
    /// sweeps — no trace events are stored and the run returns an empty
    /// [`Trace`]; event tallies are still in [`RunReport::counters`].
    /// Finish with [`Simulation::run_recycling`] to get the scratch back.
    pub fn with_scratch(
        config: NetConfig,
        actors: Vec<A>,
        delay: &DelayModel,
        record: bool,
        scratch: SimScratch<P>,
    ) -> Self {
        let n = actors.len();
        let SimScratch { mut queue, mut timers, mut crashed, faults } = scratch;
        // Broadcast peaks put O(n²) deliveries plus O(n) timers in flight;
        // reserving once here keeps the heap from reallocating mid-run.
        queue.reset(n * n + 4 * n + 2 * faults.failures.len() + 8);
        timers.reset();
        crashed.clear();
        crashed.resize(n, false);
        for f in &faults.failures {
            assert!(f.site.index() < n, "failure spec names unknown site {}", f.site);
            queue.push(f.at, EventKind::Crash(f.site));
            if let Some(r) = f.recover_at {
                queue.push(r, EventKind::Recover(f.site));
            }
        }
        Simulation {
            core: Core {
                config,
                now: SimTime::ZERO,
                queue,
                next_msg: 0,
                timers,
                crashed,
                env_hits: vec![0; faults.env_faults.len()],
                faults,
                sampler: delay.sampler(),
                trace: record.then(Trace::default),
                counters: TraceCounters::default(),
                last_landing: SimTime::ZERO,
            },
            actors,
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.actors.len()
    }

    /// [`Simulation::run`], additionally returning the reusable buffers for
    /// the next [`Simulation::with_scratch`] construction.
    pub fn run_recycling(self) -> (Vec<A>, Trace, RunReport, SimScratch<P>) {
        let (actors, trace, report, core) = self.run_inner();
        let scratch = SimScratch {
            queue: core.queue,
            timers: core.timers,
            crashed: core.crashed,
            faults: core.faults,
        };
        (actors, trace, report, scratch)
    }

    /// Runs every actor's `on_start`, then dispatches events until quiescence
    /// or the horizon. Returns the actors, the trace, and a report.
    pub fn run(self) -> (Vec<A>, Trace, RunReport) {
        let (actors, trace, report, _) = self.run_inner();
        (actors, trace, report)
    }

    fn run_inner(mut self) -> (Vec<A>, Trace, RunReport, Core<P>) {
        // Start hooks, in site order at t=0.
        for i in 0..self.actors.len() {
            self.with_actor(i, |actor, ctx| actor.on_start(ctx));
        }

        let mut events: u64 = 0;
        let mut ended_at = SimTime::ZERO;
        let stop = loop {
            let Some(ev) = self.core.queue.pop() else {
                break StopReason::Quiescent;
            };
            if ev.at > self.core.config.max_time {
                break StopReason::Horizon;
            }
            debug_assert!(ev.at >= self.core.now, "time must be monotone");
            self.core.now = ev.at;
            ended_at = ev.at;
            events += 1;
            match ev.kind {
                EventKind::Deliver(env) => {
                    let dst = env.dst;
                    let (at, id, src, kind) = (ev.at, env.id, env.src, env.payload.kind());
                    if self.core.crashed[dst.index()] {
                        self.core.trace(
                            |c| c.dropped += 1,
                            || TraceEvent::Dropped { at, id, src, dst, kind },
                        );
                        continue;
                    }
                    self.core.trace(
                        |c| c.delivered += 1,
                        || TraceEvent::Delivered { at, id, src, dst, kind },
                    );
                    self.with_actor(dst.index(), |actor, ctx| actor.on_message(env, ctx));
                }
                EventKind::ReturnUd(env) => {
                    let src = env.src;
                    let (at, id, dst, kind) = (ev.at, env.id, env.dst, env.payload.kind());
                    if self.core.crashed[src.index()] {
                        self.core.trace(
                            |c| c.dropped += 1,
                            || TraceEvent::Dropped { at, id, src, dst, kind },
                        );
                        continue;
                    }
                    self.core.trace(
                        |c| c.returned += 1,
                        || TraceEvent::Returned { at, id, src, dst, kind },
                    );
                    self.with_actor(src.index(), |actor, ctx| actor.on_undeliverable(env, ctx));
                }
                EventKind::Timer { site, timer, tag } => {
                    // Consume the slot either way; a handle never fires twice.
                    let at = ev.at;
                    let live = self.core.timers.fire(timer);
                    if !live || self.core.crashed[site.index()] {
                        self.core.trace(
                            |c| c.timers_suppressed += 1,
                            || TraceEvent::TimerSuppressed { at, site, timer, tag },
                        );
                        continue;
                    }
                    self.core.trace(
                        |c| c.timers_fired += 1,
                        || TraceEvent::TimerFired { at, site, timer, tag },
                    );
                    self.with_actor(site.index(), |actor, ctx| actor.on_timer(tag, ctx));
                }
                EventKind::Crash(site) => {
                    self.core.crashed[site.index()] = true;
                    let at = ev.at;
                    self.core.trace(|c| c.crashes += 1, || TraceEvent::Crashed { at, site });
                    self.with_actor(site.index(), |actor, ctx| actor.on_crash(ctx));
                }
                EventKind::Recover(site) => {
                    self.core.crashed[site.index()] = false;
                    let at = ev.at;
                    self.core.trace(|c| c.recoveries += 1, || TraceEvent::Recovered { at, site });
                    self.with_actor(site.index(), |actor, ctx| actor.on_recover(ctx));
                }
            }
        };

        let report = RunReport {
            stop,
            ended_at,
            events,
            counters: self.core.counters,
            last_landing: self.core.last_landing,
        };
        let Simulation { mut core, actors } = self;
        let trace = core.trace.take().unwrap_or_default();
        (actors, trace, report, core)
    }

    /// Dispatch through disjoint borrows: the handler gets the actor and a
    /// `Ctx` over the core simultaneously (separate fields of `self`), so
    /// no per-event move of the actor is needed. The old take-and-put-back
    /// scheme copied the full actor struct — several hundred bytes for an
    /// enum-dispatched protocol site — twice per dispatched event, which
    /// the event profile showed as pure overhead.
    #[inline]
    fn with_actor(&mut self, idx: usize, f: impl FnOnce(&mut A, &mut Ctx<'_, P>)) {
        let mut ctx = Ctx { core: &mut self.core, me: SiteId(idx as u16) };
        f(&mut self.actors[idx], &mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureSpec;
    use crate::partition::{PartitionEngine, PartitionSpec};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Test actor: replies "pong" to "ping", records everything it sees on a
    /// shared board.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Board {
        delivered: Vec<(u16, &'static str, u64)>, // (to, kind, at)
        ud: Vec<(u16, &'static str, u64)>,        // (sender, kind, at)
        timers: Vec<(u16, u64, u64)>,             // (site, tag, at)
    }

    struct Echo {
        board: Rc<RefCell<Board>>,
        peer: Option<SiteId>,
        starts_ping: bool,
    }

    impl Actor<&'static str> for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
            if self.starts_ping {
                ctx.send(self.peer.unwrap(), "ping");
            }
        }
        fn on_message(&mut self, env: Envelope<&'static str>, ctx: &mut Ctx<'_, &'static str>) {
            self.board.borrow_mut().delivered.push((ctx.me().0, env.payload, ctx.now().ticks()));
            if env.payload == "ping" {
                ctx.send(env.src, "pong");
            }
        }
        fn on_undeliverable(
            &mut self,
            env: Envelope<&'static str>,
            ctx: &mut Ctx<'_, &'static str>,
        ) {
            self.board.borrow_mut().ud.push((ctx.me().0, env.payload, ctx.now().ticks()));
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, &'static str>) {
            self.board.borrow_mut().timers.push((ctx.me().0, tag, ctx.now().ticks()));
        }
    }

    fn two_site(
        partition: PartitionEngine,
        mode: PartitionMode,
    ) -> (Rc<RefCell<Board>>, Trace, RunReport) {
        let board = Rc::new(RefCell::new(Board::default()));
        let a = Echo { board: board.clone(), peer: Some(SiteId(1)), starts_ping: true };
        let b = Echo { board: board.clone(), peer: None, starts_ping: false };
        let config = NetConfig { mode, ..NetConfig::default() };
        let sim = Simulation::new(config, vec![a, b], partition, &DelayModel::Fixed(100));
        let (_, trace, report) = sim.run();
        (board, trace, report)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (board, _, report) =
            two_site(PartitionEngine::always_connected(), PartitionMode::Optimistic);
        let b = board.borrow();
        assert_eq!(b.delivered, vec![(1, "ping", 100), (0, "pong", 200)]);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.events, 2);
    }

    #[test]
    fn partition_at_zero_returns_message_optimistic() {
        let part = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(0),
            vec![SiteId(0)],
            vec![SiteId(1)],
        )]);
        let (board, trace, _) = two_site(part, PartitionMode::Optimistic);
        let b = board.borrow();
        assert!(b.delivered.is_empty());
        // Bounce at scheduled delivery (100) + return leg (100).
        assert_eq!(b.ud, vec![(0, "ping", 200)]);
        assert_eq!(trace.returns_to(SiteId(0), "ping").count(), 1);
    }

    #[test]
    fn partition_at_zero_drops_message_pessimistic() {
        let part = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(0),
            vec![SiteId(0)],
            vec![SiteId(1)],
        )]);
        let (board, trace, _) = two_site(part, PartitionMode::Pessimistic);
        let b = board.borrow();
        assert!(b.delivered.is_empty());
        assert!(b.ud.is_empty());
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::Dropped { .. })));
    }

    #[test]
    fn mid_flight_partition_bounces_at_partition_instant() {
        // ping sent at t=0 with delay 100; partition at t=50 → bounce at 50,
        // return leg 100 → UD at 150.
        let part = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(50),
            vec![SiteId(0)],
            vec![SiteId(1)],
        )]);
        let (board, _, _) = two_site(part, PartitionMode::Optimistic);
        assert_eq!(board.borrow().ud, vec![(0, "ping", 150)]);
    }

    #[test]
    fn heal_before_send_means_delivery() {
        let part = PartitionEngine::new(vec![PartitionSpec::transient(
            SimTime(0),
            vec![SiteId(0)],
            vec![SiteId(1)],
            SimTime(1),
        )]);
        // Send happens at t=0 while partitioned → bounced even though the
        // network heals at t=1 (the message already hit the wall).
        let (board, _, _) = two_site(part, PartitionMode::Optimistic);
        assert_eq!(board.borrow().ud.len(), 1);
    }

    struct TimerActor {
        board: Rc<RefCell<Board>>,
        cancel_second: bool,
    }
    impl Actor<&'static str> for TimerActor {
        fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
            ctx.set_timer(SimDuration(10), 1);
            let h = ctx.set_timer(SimDuration(20), 2);
            if self.cancel_second {
                ctx.cancel_timer(h);
            }
        }
        fn on_message(&mut self, _: Envelope<&'static str>, _: &mut Ctx<'_, &'static str>) {}
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, &'static str>) {
            self.board.borrow_mut().timers.push((ctx.me().0, tag, ctx.now().ticks()));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let board = Rc::new(RefCell::new(Board::default()));
        let sim = Simulation::new(
            NetConfig::default(),
            vec![TimerActor { board: board.clone(), cancel_second: false }],
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(1),
        );
        sim.run();
        assert_eq!(board.borrow().timers, vec![(0, 1, 10), (0, 2, 20)]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let board = Rc::new(RefCell::new(Board::default()));
        let sim = Simulation::new(
            NetConfig::default(),
            vec![TimerActor { board: board.clone(), cancel_second: true }],
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(1),
        );
        let (_, trace, _) = sim.run();
        assert_eq!(board.borrow().timers, vec![(0, 1, 10)]);
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::TimerSuppressed { .. })));
    }

    #[test]
    fn crashed_site_drops_messages_and_timers() {
        let board = Rc::new(RefCell::new(Board::default()));
        let a = Echo { board: board.clone(), peer: Some(SiteId(1)), starts_ping: true };
        let b = Echo { board: board.clone(), peer: None, starts_ping: false };
        let sim = Simulation::new(
            NetConfig::default(),
            vec![a, b],
            FaultPlan {
                failures: vec![FailureSpec::crash(SiteId(1), SimTime(50))],
                ..FaultPlan::default()
            },
            &DelayModel::Fixed(100),
        );
        let (_, trace, _) = sim.run();
        assert!(board.borrow().delivered.is_empty());
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Crashed { site, .. } if *site == SiteId(1))));
    }

    #[test]
    fn crash_hook_runs_at_crash_instant_and_recover_after() {
        struct CrashWatcher {
            board: Rc<RefCell<Vec<(&'static str, u64)>>>,
        }
        impl Actor<&'static str> for CrashWatcher {
            fn on_message(&mut self, _: Envelope<&'static str>, _: &mut Ctx<'_, &'static str>) {}
            fn on_crash(&mut self, ctx: &mut Ctx<'_, &'static str>) {
                self.board.borrow_mut().push(("crash", ctx.now().ticks()));
            }
            fn on_recover(&mut self, ctx: &mut Ctx<'_, &'static str>) {
                self.board.borrow_mut().push(("recover", ctx.now().ticks()));
            }
        }
        let board = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulation::new(
            NetConfig::default(),
            vec![CrashWatcher { board: board.clone() }],
            FaultPlan {
                failures: vec![FailureSpec::crash_recover(SiteId(0), SimTime(40), SimTime(90))],
                ..FaultPlan::default()
            },
            &DelayModel::Fixed(1),
        );
        sim.run();
        assert_eq!(*board.borrow(), vec![("crash", 40), ("recover", 90)]);
    }

    #[test]
    fn horizon_stops_runaway() {
        struct Looper;
        impl Actor<&'static str> for Looper {
            fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
                ctx.set_timer(SimDuration(10), 0);
            }
            fn on_message(&mut self, _: Envelope<&'static str>, _: &mut Ctx<'_, &'static str>) {}
            fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_, &'static str>) {
                ctx.set_timer(SimDuration(10), 0); // re-arm forever
            }
        }
        let config = NetConfig { max_time: SimTime(1000), ..NetConfig::default() };
        let sim = Simulation::new(
            config,
            vec![Looper],
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(1),
        );
        let (_, _, report) = sim.run();
        assert_eq!(report.stop, StopReason::Horizon);
        assert!(report.ended_at <= SimTime(1000));
    }

    #[test]
    fn delay_clamped_to_t() {
        // A 10_000-tick "delay" with t_unit=1000 must be clamped to 1000.
        let board = Rc::new(RefCell::new(Board::default()));
        let a = Echo { board: board.clone(), peer: Some(SiteId(1)), starts_ping: true };
        let b = Echo { board: board.clone(), peer: None, starts_ping: false };
        let sim = Simulation::new(
            NetConfig::default(),
            vec![a, b],
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(10_000),
        );
        sim.run();
        assert_eq!(board.borrow().delivered[0], (1, "ping", 1000));
    }

    #[test]
    fn recycled_scratch_replays_identically() {
        // Two ping-pong runs through the same scratch (the second reusing
        // the first's warm buffers) must produce identical traces and
        // reports — and match a cold run.
        let part = || {
            PartitionEngine::new(vec![PartitionSpec::transient(
                SimTime(150),
                vec![SiteId(0)],
                vec![SiteId(1)],
                SimTime(400),
            )])
        };
        let run_once = |scratch: SimScratch<&'static str>| {
            let board = Rc::new(RefCell::new(Board::default()));
            let a = Echo { board: board.clone(), peer: Some(SiteId(1)), starts_ping: true };
            let b = Echo { board: board.clone(), peer: None, starts_ping: false };
            let actors = vec![a, b];
            let sim = Simulation::with_scratch(
                NetConfig::default(),
                actors,
                &DelayModel::Fixed(100),
                true,
                scratch,
            );
            let (_, trace, report, scratch) = sim.run_recycling();
            (trace, report.events, scratch)
        };
        let mut scratch = SimScratch::new();
        scratch.faults.partition = part();
        let (cold_trace, cold_events, mut scratch) = run_once(scratch);
        scratch.faults.partition = part();
        let (warm_trace, warm_events, _) = run_once(scratch);
        assert_eq!(cold_trace.events(), warm_trace.events());
        assert_eq!(cold_events, warm_events);
    }

    fn faulted_two_site(
        faults: &[crate::envfault::EnvelopeFault],
        degrades: &[crate::envfault::DegradeWindow],
    ) -> (Rc<RefCell<Board>>, Trace, RunReport) {
        let board = Rc::new(RefCell::new(Board::default()));
        let a = Echo { board: board.clone(), peer: Some(SiteId(1)), starts_ping: true };
        let b = Echo { board: board.clone(), peer: None, starts_ping: false };
        let plan = FaultPlan {
            env_faults: faults.to_vec(),
            degrades: degrades.to_vec(),
            ..FaultPlan::default()
        };
        let sim = Simulation::new(NetConfig::default(), vec![a, b], plan, &DelayModel::Fixed(100));
        let (_, trace, report) = sim.run();
        (board, trace, report)
    }

    #[test]
    fn envelope_drop_loses_the_message_silently() {
        use crate::envfault::{EnvelopeFault, EnvelopeMatch};
        let (board, trace, _) =
            faulted_two_site(&[EnvelopeFault::drop(EnvelopeMatch::kind("ping"))], &[]);
        let b = board.borrow();
        // Unlike a partition bounce, nothing comes back to the sender.
        assert!(b.delivered.is_empty());
        assert!(b.ud.is_empty());
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::Dropped { .. })));
    }

    #[test]
    fn envelope_duplicate_delivers_twice_with_the_same_id() {
        use crate::envfault::{EnvelopeFault, EnvelopeMatch};
        let (board, trace, _) = faulted_two_site(
            &[EnvelopeFault::duplicate(EnvelopeMatch::kind("ping"), SimDuration(40))],
            &[],
        );
        let b = board.borrow();
        // Original at 100, copy at 140; site 1 answers each ping.
        assert_eq!(b.delivered[0], (1, "ping", 100));
        assert_eq!(b.delivered[1], (1, "ping", 140));
        let ids: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Delivered { id, dst, .. } if *dst == SiteId(1) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], ids[1], "the network duplicated one message");
    }

    #[test]
    fn envelope_delay_reorders_past_later_traffic() {
        use crate::envfault::{EnvelopeFault, EnvelopeMatch};
        // Delay the ping by 500: the pong reply (sent at 600, delivered at
        // 700) lands after it, but a second undelayed ping would overtake.
        let (board, _, _) = faulted_two_site(
            &[EnvelopeFault::delay(EnvelopeMatch::kind("ping"), SimDuration(500))],
            &[],
        );
        assert_eq!(board.borrow().delivered, vec![(1, "ping", 600), (0, "pong", 700)]);
    }

    #[test]
    fn nth_ordinal_hits_only_that_match() {
        use crate::envfault::{EnvelopeFault, EnvelopeMatch};
        // Only the 1st (0-based) "ping" would be dropped; the ping-pong
        // exchange sends exactly one ping, so nothing is lost.
        let (board, _, _) =
            faulted_two_site(&[EnvelopeFault::drop(EnvelopeMatch::kind("ping").nth(1))], &[]);
        assert_eq!(board.borrow().delivered, vec![(1, "ping", 100), (0, "pong", 200)]);
    }

    #[test]
    fn degrade_window_slows_covered_sends_only() {
        use crate::envfault::DegradeWindow;
        // Window covers t=0 (the ping) but not t>=50 (the pong at 100):
        // ping is remapped into [900, 900], pong keeps its sampled 100.
        let (board, _, _) =
            faulted_two_site(&[], &[DegradeWindow::new(SimTime(0), Some(SimTime(50)), 900, 900)]);
        assert_eq!(board.borrow().delivered, vec![(1, "ping", 900), (0, "pong", 1000)]);
    }

    #[test]
    fn last_landing_is_the_last_delivery_of_a_clean_run() {
        let (board, _, report) =
            two_site(PartitionEngine::always_connected(), PartitionMode::Optimistic);
        assert_eq!(board.borrow().delivered.last(), Some(&(0, "pong", 200)));
        assert_eq!(report.last_landing, SimTime(200));
    }

    #[test]
    fn last_landing_of_a_bounced_send_is_its_scheduled_forward_landing() {
        // Ping sent at 0 towards a landing at 100; the split at 50 bounces
        // it mid-flight and it is back at 150 — none of which moves the
        // instant it was scheduled to land. Same when it is dropped.
        for mode in [PartitionMode::Optimistic, PartitionMode::Pessimistic] {
            let part = PartitionEngine::new(vec![PartitionSpec::simple(
                SimTime(50),
                vec![SiteId(0)],
                vec![SiteId(1)],
            )]);
            let (board, _, report) = two_site(part, mode);
            assert!(board.borrow().delivered.is_empty());
            assert_eq!(report.last_landing, SimTime(100), "{mode:?}");
        }
    }

    #[test]
    fn last_landing_follows_delayed_and_duplicated_copies() {
        use crate::envfault::{EnvelopeFault, EnvelopeMatch};
        // The pong is sent at 100 and would land at 200.
        let (_, _, delayed) = faulted_two_site(
            &[EnvelopeFault::delay(EnvelopeMatch::kind("pong"), SimDuration(500))],
            &[],
        );
        assert_eq!(delayed.last_landing, SimTime(700));
        let (board, _, duplicated) = faulted_two_site(
            &[EnvelopeFault::duplicate(EnvelopeMatch::kind("pong"), SimDuration(40))],
            &[],
        );
        assert_eq!(board.borrow().delivered.last(), Some(&(0, "pong", 240)));
        assert_eq!(duplicated.last_landing, SimTime(240));
    }

    #[test]
    fn last_landing_is_zero_without_sends_and_starts_over_on_a_recycled_scratch() {
        let run = |starts_ping: bool, scratch: SimScratch<&'static str>| {
            let board = Rc::new(RefCell::new(Board::default()));
            let a = Echo { board: board.clone(), peer: Some(SiteId(1)), starts_ping };
            let b = Echo { board, peer: None, starts_ping: false };
            let actors = vec![a, b];
            let sim = Simulation::with_scratch(
                NetConfig::default(),
                actors,
                &DelayModel::Fixed(100),
                false,
                scratch,
            );
            let (_, _, report, scratch) = sim.run_recycling();
            (report, scratch)
        };
        let (silent, scratch) = run(false, SimScratch::new());
        assert_eq!((silent.events, silent.last_landing), (0, SimTime::ZERO));
        let (busy, scratch) = run(true, scratch);
        assert_eq!(busy.last_landing, SimTime(200));
        let (silent_again, _) = run(false, scratch);
        assert_eq!(silent_again.last_landing, SimTime::ZERO);
    }

    #[test]
    fn no_faults_armed_is_byte_identical_to_default_construction() {
        let (plain_board, plain_trace, _) =
            two_site(PartitionEngine::always_connected(), PartitionMode::Optimistic);
        let (armed_board, armed_trace, _) = faulted_two_site(&[], &[]);
        assert_eq!(*plain_board.borrow(), *armed_board.borrow());
        assert_eq!(plain_trace.events(), armed_trace.events());
    }

    #[test]
    fn note_lands_in_trace() {
        struct Noter;
        impl Actor<&'static str> for Noter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
                ctx.note("hello", 42);
            }
            fn on_message(&mut self, _: Envelope<&'static str>, _: &mut Ctx<'_, &'static str>) {}
        }
        let sim = Simulation::new(
            NetConfig::default(),
            vec![Noter],
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(1),
        );
        let (_, trace, _) = sim.run();
        assert_eq!(trace.first_note(SiteId(0), "hello"), Some((SimTime(0), 42)));
    }
}
