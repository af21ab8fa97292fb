//! Wiring participants to the simulated network.
//!
//! The centrepiece is [`ClusterRunner`]: a **reusable** harness that owns
//! the actor adapters, the simulator's recycled buffers
//! ([`ptp_simnet::SimScratch`]) and an outcome scratch vector, so running a
//! cluster through thousands of scenarios allocates per run only what a
//! single simulation inherently needs. It is generic over the participant
//! type — `ClusterRunner<AnyParticipant>` (what `ptp_core::Session` uses)
//! dispatches protocol events without any vtable; `ClusterRunner<Box<dyn
//! Participant>>` keeps the historical heterogeneous clusters working.
//!
//! One-shot conveniences remain: [`run_protocol`] (records a full trace)
//! and [`run_protocol_opts`] (typed [`RunOptions`]).

use crate::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use crate::options::{RunOptions, TraceMode};
use crate::outcome::SiteOutcome;
use ptp_model::Decision;
use ptp_simnet::{
    Actor, Ctx, DelayModel, Envelope, FaultPlan, NetConfig, ProfKey, ProfSink, Profile, RunReport,
    SimScratch, Simulation, SiteId, TimerHandle, Trace,
};
use std::sync::Arc;

/// Adapter: drives a [`Participant`] as a `ptp-simnet` [`Actor`].
///
/// Each adapter owns its site's [`SiteOutcome`] (sites never write each
/// other's outcomes, so no shared board is needed), a dense timer table
/// indexed by [`TimerTag`], and a reusable action buffer — all recycled
/// across runs by [`ClusterRunner`].
struct ProtocolActor<P> {
    inner: P,
    all_sites: Arc<[SiteId]>,
    outcome: SiteOutcome,
    timers: [Option<TimerHandle>; TimerTag::COUNT],
    pending: Vec<Action>,
    /// Event-attribution sink. [`ProfSink::Null`] by default; *not* cleared
    /// by [`ProtocolActor::begin_run`], so a recording sink accumulates
    /// attribution across every run until [`ClusterRunner::take_profile`]
    /// drains it — sweep-wide breakdowns come from exactly this.
    prof: ProfSink,
}

impl<P: Participant> ProtocolActor<P> {
    fn new(inner: P, all_sites: Arc<[SiteId]>) -> Self {
        ProtocolActor {
            inner,
            all_sites,
            outcome: SiteOutcome::default(),
            timers: [None; TimerTag::COUNT],
            pending: Vec::new(),
            prof: ProfSink::Null,
        }
    }

    /// Clears the per-run adapter state (the participant itself is reset by
    /// the caller, which knows the votes). Buffers keep their capacity.
    fn begin_run(&mut self) {
        self.outcome.decision = None;
        self.outcome.decided_at = None;
        self.outcome.history.clear();
        self.timers = [None; TimerTag::COUNT];
    }

    /// Runs one participant handler through the reusable action buffer and
    /// applies the resulting effects.
    ///
    /// `event`/`kind` attribute the handler for profiling; with the null
    /// sink (the sweep default) the only overhead is one branch — no clock
    /// reads, no allocation.
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_, CommitMsg>,
        event: &'static str,
        kind: &'static str,
        f: impl FnOnce(&mut P, &mut Vec<Action>),
    ) {
        let mut out = std::mem::take(&mut self.pending);
        if self.prof.is_recording() {
            // Phase is sampled *before* the handler runs: the cost of an
            // event belongs to the state that had to process it.
            let phase = self.inner.state_name();
            let begun = std::time::Instant::now();
            f(&mut self.inner, &mut out);
            let nanos = begun.elapsed().as_nanos() as u64;
            self.prof.record(ProfKey { event, kind, phase, site: ctx.me() }, nanos);
        } else {
            f(&mut self.inner, &mut out);
        }
        self.apply(&mut out, ctx);
        self.pending = out;
    }

    fn apply(&mut self, actions: &mut Vec<Action>, ctx: &mut Ctx<'_, CommitMsg>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => ctx.send(to, msg),
                Action::Broadcast { msg } => ctx.send_to_all(&self.all_sites, msg),
                Action::SetTimer { t_units, tag } => {
                    if let Some(old) = self.timers[tag.index()].take() {
                        ctx.cancel_timer(old);
                    }
                    let handle = ctx.set_timer(ctx.t(t_units), tag.encode());
                    self.timers[tag.index()] = Some(handle);
                }
                Action::CancelTimer { tag } => {
                    if let Some(old) = self.timers[tag.index()].take() {
                        ctx.cancel_timer(old);
                    }
                }
                Action::Decide(decision) => {
                    // First decision wins; a second one would be a protocol
                    // bug, surfaced by the debug assertion.
                    debug_assert!(
                        self.outcome.decision.is_none() || self.outcome.decision == Some(decision),
                        "site {} changed its decision",
                        ctx.me()
                    );
                    if self.outcome.decision.is_none() {
                        self.outcome.decision = Some(decision);
                        self.outcome.decided_at = Some(ctx.now());
                        ctx.note(
                            "decided",
                            match decision {
                                Decision::Commit => 1,
                                Decision::Abort => 0,
                            },
                        );
                    }
                }
                Action::Note(label, detail) => {
                    self.outcome.history.push((ctx.now(), label));
                    ctx.note(label, detail);
                }
            }
        }
    }
}

impl<P: Participant> Actor<CommitMsg> for ProtocolActor<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CommitMsg>) {
        self.dispatch(ctx, "start", "-", |p, out| p.start(out));
    }

    fn on_message(&mut self, env: Envelope<CommitMsg>, ctx: &mut Ctx<'_, CommitMsg>) {
        let kind = ptp_simnet::Payload::kind(&env.payload);
        self.dispatch(ctx, "deliver", kind, |p, out| p.on_msg(env.src, &env.payload, out));
    }

    fn on_undeliverable(&mut self, env: Envelope<CommitMsg>, ctx: &mut Ctx<'_, CommitMsg>) {
        let kind = ptp_simnet::Payload::kind(&env.payload);
        self.dispatch(ctx, "ud", kind, |p, out| p.on_ud(env.dst, &env.payload, out));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, CommitMsg>) {
        let Some(tag) = TimerTag::decode(tag) else { return };
        self.timers[tag.index()] = None;
        self.dispatch(ctx, "timer", tag.name(), |p, out| p.on_timer(tag, out));
    }
}

/// Result of running a commit protocol through one scenario.
#[derive(Debug)]
pub struct ProtocolRun {
    /// Per-site outcomes (index = site id).
    pub outcomes: Vec<SiteOutcome>,
    /// Full network trace.
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
}

/// A reusable protocol-execution harness: build once, run many scenarios.
///
/// ```
/// use ptp_protocols::clusters::huang_li_3pc_cluster_any;
/// use ptp_protocols::options::RunOptions;
/// use ptp_protocols::runner::ClusterRunner;
/// use ptp_protocols::termination::TerminationVariant;
/// use ptp_protocols::api::Vote;
/// use ptp_protocols::Verdict;
/// use ptp_simnet::{DelayModel, NetConfig, SimTime, SiteId};
///
/// let cluster = huang_li_3pc_cluster_any(3, &[Vote::Yes; 2], TerminationVariant::Transient);
/// let mut runner = ClusterRunner::new(cluster);
/// for at in [0u64, 1500, 2500, 4500] {
///     runner.reset(&[Vote::Yes; 2]);
///     let groups = runner.faults_mut().partition.reset_single(SimTime(at), None, 2);
///     groups[0].extend([SiteId(0), SiteId(1)]);
///     groups[1].push(SiteId(2));
///     let run = runner.run(NetConfig::default(), &DelayModel::Fixed(900), &RunOptions::new());
///     assert!(Verdict::judge(&run.outcomes).is_resilient());
/// }
/// ```
pub struct ClusterRunner<P: Participant> {
    actors: Vec<ProtocolActor<P>>,
    /// Recycled simulator buffers; `None` only transiently while a run is in
    /// flight.
    scratch: Option<SimScratch<CommitMsg>>,
    /// The previous run's outcomes, swapped out of the actors so both
    /// buffers (and their history capacity) ping-pong between runs.
    outcomes: Vec<SiteOutcome>,
}

impl<P: Participant> ClusterRunner<P> {
    /// Builds the harness around a participant vector (site `i` =
    /// `participants[i]`, site 0 the master).
    pub fn new(participants: Vec<P>) -> Self {
        let n = participants.len();
        assert!(n >= 2, "a cluster needs a master and at least one slave");
        let all_sites: Arc<[SiteId]> = (0..n as u16).map(SiteId).collect();
        ClusterRunner {
            actors: participants
                .into_iter()
                .map(|p| ProtocolActor::new(p, all_sites.clone()))
                .collect(),
            scratch: Some(SimScratch::new()),
            outcomes: vec![SiteOutcome::default(); n],
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.actors.len()
    }

    /// The participants, in site order.
    pub fn participants(&self) -> impl Iterator<Item = &P> {
        self.actors.iter().map(|a| &a.inner)
    }

    /// Mutable access to the participants (for custom re-initialisation
    /// between runs; most callers want [`ClusterRunner::reset`]).
    pub fn participants_mut(&mut self) -> impl Iterator<Item = &mut P> {
        self.actors.iter_mut().map(|a| &mut a.inner)
    }

    /// Resets every participant for a fresh run: the master (site 0) and one
    /// vote per slave, matching the cluster constructors' convention.
    pub fn reset(&mut self, votes: &[Vote]) {
        assert_eq!(votes.len() + 1, self.actors.len(), "one vote per slave");
        for (i, actor) in self.actors.iter_mut().enumerate() {
            actor.inner.reset(if i == 0 { Vote::Yes } else { votes[i - 1] });
        }
    }

    /// The fault plan the next run will use, in ticks. Rewrite it in place
    /// — its partition engine through [`ptp_simnet::PartitionEngine::clear`],
    /// [`ptp_simnet::PartitionEngine::reset_single`] or `reset_schedule` +
    /// episode writes, its fault lists like any `Vec` — to reuse every
    /// buffer across runs, or assign a whole new plan. It persists from run
    /// to run until rewritten.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.scratch.as_mut().expect("scratch present between runs").faults
    }

    /// The outcomes of the most recent run (empty defaults before any run).
    pub fn last_outcomes(&self) -> &[SiteOutcome] {
        &self.outcomes
    }

    /// Switches event-attribution profiling on or off for subsequent runs.
    ///
    /// While on, every actor's [`ProfSink`] records across runs (profiles
    /// are *not* cleared between scenarios) until drained by
    /// [`ClusterRunner::take_profile`].
    pub fn set_profiling(&mut self, on: bool) {
        for actor in &mut self.actors {
            actor.prof = if on { ProfSink::recording() } else { ProfSink::Null };
        }
    }

    /// Drains and merges every actor's accumulated profile. Profiling stays
    /// on (with fresh, empty sinks) if it was on.
    pub fn take_profile(&mut self) -> Profile {
        let mut merged = Profile::default();
        for actor in &mut self.actors {
            let was_recording = actor.prof.is_recording();
            let sink = std::mem::take(&mut actor.prof);
            merged.merge(&sink.into_profile());
            if was_recording {
                actor.prof = ProfSink::recording();
            }
        }
        merged
    }

    /// Runs the cluster once under the plan in [`ClusterRunner::faults_mut`],
    /// returning the outcomes by reference — the zero-copy path the sweep
    /// engine uses.
    ///
    /// The caller is responsible for having [`ClusterRunner::reset`] the
    /// participants and written the fault plan; any horizon override must
    /// already be folded into `config` (see [`RunOptions::apply_horizon`]).
    pub fn run_borrowed(
        &mut self,
        config: NetConfig,
        delay: &DelayModel,
        trace: TraceMode,
    ) -> (&[SiteOutcome], Trace, RunReport) {
        for actor in &mut self.actors {
            actor.begin_run();
        }
        let actors = std::mem::take(&mut self.actors);
        let scratch = self.scratch.take().expect("scratch present between runs");
        let sim = Simulation::with_scratch(config, actors, delay, trace.sink(), scratch);
        let (actors, trace, report, scratch) = sim.run_recycling();
        self.actors = actors;
        self.scratch = Some(scratch);
        for (slot, actor) in self.outcomes.iter_mut().zip(&mut self.actors) {
            std::mem::swap(slot, &mut actor.outcome);
        }
        (&self.outcomes, trace, report)
    }

    /// Runs the cluster once under typed [`RunOptions`], returning owned
    /// outcomes.
    pub fn run(
        &mut self,
        config: NetConfig,
        delay: &DelayModel,
        options: &RunOptions,
    ) -> ProtocolRun {
        let config = options.apply_horizon(config);
        let (outcomes, trace, report) = self.run_borrowed(config, delay, options.trace);
        ProtocolRun { outcomes: outcomes.to_vec(), trace, report }
    }
}

/// One-shot execution of `participants` (site `i` = `participants[i]`,
/// site 0 the master) under `faults` (a whole [`FaultPlan`] in ticks, or
/// just a [`ptp_simnet::PartitionEngine`]) with typed [`RunOptions`].
///
/// Builds a [`ClusterRunner`], runs it once and discards it; workloads that
/// run many scenarios should keep a runner (or a `ptp_core::Session`)
/// instead.
pub fn run_protocol_opts<P: Participant>(
    participants: Vec<P>,
    config: NetConfig,
    faults: impl Into<FaultPlan>,
    delay: &DelayModel,
    options: &RunOptions,
) -> ProtocolRun {
    let mut runner = ClusterRunner::new(participants);
    *runner.faults_mut() = faults.into();
    runner.run(config, delay, options)
}

/// Runs `participants` under the given network conditions, recording a full
/// trace (the timing experiments measure over it). Equivalent to
/// [`run_protocol_opts`] with [`RunOptions::recording`].
pub fn run_protocol<P: Participant>(
    participants: Vec<P>,
    config: NetConfig,
    faults: impl Into<FaultPlan>,
    delay: &DelayModel,
) -> ProtocolRun {
    run_protocol_opts(participants, config, faults, delay, &RunOptions::recording())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Vote;
    use crate::interp::FsaParticipant;
    use crate::outcome::Verdict;
    use ptp_model::protocols::two_phase;
    use ptp_simnet::{PartitionEngine, PartitionSpec, SimTime};

    fn two_pc_parts(votes: &[Vote]) -> Vec<FsaParticipant> {
        let spec = Arc::new(two_phase(votes.len() + 1));
        (0..spec.n())
            .map(|site| {
                let vote = if site == 0 { Vote::Yes } else { votes[site - 1] };
                FsaParticipant::new(spec.clone(), site, vote, None)
            })
            .collect()
    }

    fn run_2pc(votes: &[Vote]) -> ProtocolRun {
        run_protocol(
            two_pc_parts(votes),
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(300),
        )
    }

    #[test]
    fn failure_free_2pc_commits_on_unanimous_yes() {
        let run = run_2pc(&[Vote::Yes, Vote::Yes]);
        assert_eq!(Verdict::judge(&run.outcomes), Verdict::AllCommit);
    }

    #[test]
    fn failure_free_2pc_aborts_on_any_no() {
        let run = run_2pc(&[Vote::Yes, Vote::No]);
        assert_eq!(Verdict::judge(&run.outcomes), Verdict::AllAbort);
    }

    #[test]
    fn decision_timestamps_recorded() {
        let run = run_2pc(&[Vote::Yes, Vote::Yes]);
        for o in &run.outcomes {
            assert!(o.decided_at.is_some());
        }
        // Master decides before the slaves receive the commit message.
        assert!(run.outcomes[0].decided_at <= run.outcomes[1].decided_at);
    }

    #[test]
    fn boxed_participants_still_run() {
        let boxed: Vec<Box<dyn Participant>> = two_pc_parts(&[Vote::Yes, Vote::Yes])
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn Participant>)
            .collect();
        let run = run_protocol(
            boxed,
            NetConfig::default(),
            PartitionEngine::always_connected(),
            &DelayModel::Fixed(300),
        );
        assert_eq!(Verdict::judge(&run.outcomes), Verdict::AllCommit);
    }

    #[test]
    fn reused_runner_matches_one_shot_runs() {
        // The tentpole guarantee at this layer: a runner reused across runs
        // (with participant resets in between) is indistinguishable from
        // fresh one-shot executions — outcomes, trace and report.
        let mut runner = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        let votes_grid = [[Vote::Yes, Vote::Yes], [Vote::No, Vote::Yes], [Vote::Yes, Vote::Yes]];
        for votes in votes_grid {
            runner.reset(&votes);
            runner.faults_mut().partition.clear();
            let reused =
                runner.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::recording());
            let fresh = run_2pc(&votes);
            assert_eq!(reused.outcomes, fresh.outcomes);
            assert_eq!(reused.trace.events(), fresh.trace.events());
            assert_eq!(reused.report.events, fresh.report.events);
            assert_eq!(reused.report.counters, fresh.report.counters);
        }
    }

    #[test]
    fn runner_partition_buffers_are_reused() {
        let mut runner = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        for at in [500u64, 1500] {
            runner.reset(&[Vote::Yes, Vote::Yes]);
            let groups = runner.faults_mut().partition.reset_single(SimTime(at), None, 2);
            groups[0].extend([SiteId(0), SiteId(1)]);
            groups[1].push(SiteId(2));
            let run = runner.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::new());
            assert!(run.trace.is_empty(), "counters mode records no trace");
            // Plain 2PC under partition: never inconsistent.
            assert!(Verdict::judge(&run.outcomes).is_atomic());
        }
    }

    #[test]
    fn runner_replays_multi_episode_schedules_in_place() {
        // Split → heal → re-split replayed through one reused runner: the
        // schedule write path must recycle buffers run after run and match
        // a fresh engine built by PartitionEngine::new.
        let mut runner = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        for round in 0..3u64 {
            let at = 500 + round * 250;
            runner.reset(&[Vote::Yes, Vote::Yes]);
            let engine = &mut runner.faults_mut().partition;
            engine.reset_schedule(2);
            let g = engine.episode_groups(0, SimTime(at), Some(SimTime(at + 2000)), 2);
            g[0].extend([SiteId(0), SiteId(1)]);
            g[1].push(SiteId(2));
            let g = engine.episode_groups(1, SimTime(at + 4000), None, 2);
            g[0].extend([SiteId(0), SiteId(1)]);
            g[1].push(SiteId(2));
            let expected = PartitionEngine::new(vec![
                PartitionSpec::transient(
                    SimTime(at),
                    vec![SiteId(0), SiteId(1)],
                    vec![SiteId(2)],
                    SimTime(at + 2000),
                ),
                PartitionSpec::simple(
                    SimTime(at + 4000),
                    vec![SiteId(0), SiteId(1)],
                    vec![SiteId(2)],
                ),
            ]);
            assert_eq!(runner.faults_mut().partition.episodes(), expected.episodes());

            let reused =
                runner.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::new());
            let fresh = run_protocol_opts(
                two_pc_parts(&[Vote::Yes, Vote::Yes]),
                NetConfig::default(),
                expected,
                &DelayModel::Fixed(300),
                &RunOptions::new(),
            );
            assert_eq!(reused.outcomes, fresh.outcomes, "round {round}");
            assert_eq!(reused.report.counters, fresh.report.counters, "round {round}");
            // 2PC across any partition schedule: atomic (it may block, it
            // never lies).
            assert!(Verdict::judge(&reused.outcomes).is_atomic());
        }
    }

    #[test]
    fn profiling_attributes_events_and_leaves_outcomes_alone() {
        let mut base = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        base.reset(&[Vote::Yes, Vote::Yes]);
        base.faults_mut().partition.clear();
        let plain = base.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::new());

        let mut prof = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        prof.set_profiling(true);
        prof.reset(&[Vote::Yes, Vote::Yes]);
        prof.faults_mut().partition.clear();
        let profiled = prof.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::new());
        assert_eq!(plain.outcomes, profiled.outcomes, "profiling must not perturb the run");

        let profile = prof.take_profile();
        assert!(!profile.is_empty());
        // Every network delivery the report counted is attributed.
        let delivers: u64 =
            profile.entries().filter(|(k, _)| k.event == "deliver").map(|(_, e)| e.count).sum();
        assert_eq!(delivers, profiled.report.counters.delivered);
        // Kinds come from the payload tags; phases from state names.
        assert!(profile.by_kind().iter().any(|(k, _)| *k == "yes"));
        assert!(profile.entries().all(|(k, _)| !k.phase.is_empty()));

        // take_profile drains but keeps recording; a second run refills it.
        assert!(prof.take_profile().is_empty());
        prof.reset(&[Vote::Yes, Vote::Yes]);
        prof.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::new());
        assert!(!prof.take_profile().is_empty());

        // Turning profiling off leaves the null sink in place.
        prof.set_profiling(false);
        prof.reset(&[Vote::Yes, Vote::Yes]);
        prof.run(NetConfig::default(), &DelayModel::Fixed(300), &RunOptions::new());
        assert!(prof.take_profile().is_empty());
    }

    #[test]
    fn options_horizon_cuts_the_run_short() {
        // A partitioned bare 2PC quiesces late; a 1T horizon must stop it.
        let parts = two_pc_parts(&[Vote::Yes, Vote::Yes]);
        let partition = PartitionEngine::new(vec![PartitionSpec::simple(
            SimTime(0),
            vec![SiteId(0), SiteId(1)],
            vec![SiteId(2)],
        )]);
        let run = run_protocol_opts(
            parts,
            NetConfig::default(),
            partition,
            &DelayModel::Fixed(1000),
            &RunOptions::new().horizon_t(1),
        );
        assert!(run.report.ended_at <= SimTime(1000));
    }
}
