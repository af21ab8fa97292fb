//! Wiring participants to the simulated network.
//!
//! The centrepiece is [`ClusterRunner`]: a **reusable** harness that owns
//! the actor adapters, the simulator's recycled buffers
//! ([`ptp_simnet::SimScratch`]) and an outcome scratch vector, so running a
//! cluster through thousands of scenarios allocates per run only what a
//! single simulation inherently needs. It is generic over the participant
//! type: `ClusterRunner<AnyParticipant>` (what `ptp_core::Session` uses)
//! dispatches protocol events without any vtable, and a test can run an
//! oracle machine of its own through the same harness.
//!
//! It is the one way a protocol cluster runs in the simulator: build it,
//! [`ClusterRunner::reset`] the votes, write [`ClusterRunner::faults_mut`],
//! [`ClusterRunner::run`]. A scenario-level caller goes through
//! `ptp_core::Session`, which does exactly that.

use crate::api::{Action, CommitMsg, Participant, TimerTag, Vote};
use crate::outcome::SiteOutcome;
use ptp_model::Decision;
use ptp_simnet::{
    Actor, Ctx, DelayModel, Envelope, FaultPlan, NetConfig, Profile, RunReport, SimScratch,
    Simulation, SiteId, TimerHandle, Trace,
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
    /// Handler time, while profiling is on (`None` by default); *not*
    /// cleared by [`ProtocolActor::begin_run`], so it accumulates across
    /// every run until [`ClusterRunner::take_profile`] drains it — sweep-wide
    /// totals come from exactly this.
    prof: Option<Profile>,
}

impl<P: Participant> ProtocolActor<P> {
    fn new(inner: P, all_sites: Arc<[SiteId]>) -> Self {
        ProtocolActor {
            inner,
            all_sites,
            outcome: SiteOutcome::default(),
            timers: [None; TimerTag::COUNT],
            pending: Vec::new(),
            prof: None,
        }
    }

    /// Clears the per-run adapter state (the participant itself is reset by
    /// the caller, which knows the votes). Buffers keep their capacity.
    fn begin_run(&mut self) {
        self.outcome = SiteOutcome::default();
        self.timers = [None; TimerTag::COUNT];
    }

    /// Runs one participant handler through the reusable action buffer and
    /// applies the resulting effects.
    ///
    /// With profiling off (the sweep default) the only overhead is one
    /// branch — no clock reads.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, CommitMsg>, f: impl FnOnce(&mut P, &mut Vec<Action>)) {
        let mut out = std::mem::take(&mut self.pending);
        if let Some(profile) = &mut self.prof {
            let begun = std::time::Instant::now();
            f(&mut self.inner, &mut out);
            profile.record(begun.elapsed().as_nanos() as u64);
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
                Action::Note(label, detail) => ctx.note(label, detail),
            }
        }
    }
}

impl<P: Participant> Actor<CommitMsg> for ProtocolActor<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CommitMsg>) {
        self.dispatch(ctx, |p, out| p.start(out));
    }

    fn on_message(&mut self, env: Envelope<CommitMsg>, ctx: &mut Ctx<'_, CommitMsg>) {
        self.dispatch(ctx, |p, out| p.on_msg(env.src, &env.payload, out));
    }

    fn on_undeliverable(&mut self, env: Envelope<CommitMsg>, ctx: &mut Ctx<'_, CommitMsg>) {
        self.dispatch(ctx, |p, out| p.on_ud(env.dst, &env.payload, out));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, CommitMsg>) {
        let Some(tag) = TimerTag::decode(tag) else { return };
        self.timers[tag.index()] = None;
        self.dispatch(ctx, |p, out| p.on_timer(tag, out));
    }
}

/// A reusable protocol-execution harness: build once, run many scenarios.
///
/// ```
/// use ptp_protocols::api::Vote;
/// use ptp_protocols::runner::ClusterRunner;
/// use ptp_protocols::{ProtocolKind, Verdict};
/// use ptp_simnet::{DelayModel, NetConfig, SimTime, SiteId};
///
/// let cluster = ProtocolKind::HuangLi3pc.cluster(3, &[Vote::Yes; 2]);
/// let mut runner = ClusterRunner::new(cluster);
/// for at in [0u64, 1500, 2500, 4500] {
///     runner.reset(&[Vote::Yes; 2]);
///     let groups = runner.faults_mut().partition.reset_single(SimTime(at), None, 2);
///     groups[0].extend([SiteId(0), SiteId(1)]);
///     groups[1].push(SiteId(2));
///     let (outcomes, _, _) = runner.run(NetConfig::default(), &DelayModel::Fixed(900), false);
///     assert!(Verdict::judge(outcomes).is_resilient());
/// }
/// ```
pub struct ClusterRunner<P: Participant> {
    actors: Vec<ProtocolActor<P>>,
    /// Recycled simulator buffers; `None` only transiently while a run is in
    /// flight.
    scratch: Option<SimScratch<CommitMsg>>,
    /// The previous run's outcomes, copied out of the actors.
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

    /// Switches handler-time profiling on or off for subsequent runs.
    ///
    /// While on, every actor's [`Profile`] accumulates across runs (it is
    /// *not* cleared between scenarios) until drained by
    /// [`ClusterRunner::take_profile`].
    pub fn set_profiling(&mut self, on: bool) {
        for actor in &mut self.actors {
            actor.prof = on.then(Profile::default);
        }
    }

    /// Drains and merges every actor's accumulated profile. Profiling stays
    /// on (with empty profiles) if it was on.
    pub fn take_profile(&mut self) -> Profile {
        let mut merged = Profile::default();
        for profile in self.actors.iter_mut().filter_map(|actor| actor.prof.as_mut()) {
            merged.merge(&std::mem::take(profile));
        }
        merged
    }

    /// Runs the cluster once under the plan in [`ClusterRunner::faults_mut`],
    /// returning the outcomes by reference; the trace is empty unless
    /// `record` is set.
    ///
    /// The caller is responsible for having [`ClusterRunner::reset`] the
    /// participants and written the fault plan; `config.max_time` is the
    /// horizon.
    pub fn run(
        &mut self,
        config: NetConfig,
        delay: &DelayModel,
        record: bool,
    ) -> (&[SiteOutcome], Trace, RunReport) {
        for actor in &mut self.actors {
            actor.begin_run();
        }
        let actors = std::mem::take(&mut self.actors);
        let scratch = self.scratch.take().expect("scratch present between runs");
        let sim = Simulation::with_scratch(config, actors, delay, record, scratch);
        let (actors, trace, report, scratch) = sim.run_recycling();
        self.actors = actors;
        self.scratch = Some(scratch);
        for (slot, actor) in self.outcomes.iter_mut().zip(&self.actors) {
            *slot = actor.outcome;
        }
        (&self.outcomes, trace, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Vote;
    use crate::interp::FsaParticipant;
    use crate::outcome::Verdict;
    use ptp_model::protocols::TWO_PHASE;
    use ptp_simnet::{PartitionEngine, PartitionSpec, SimTime};

    type Run = (Vec<SiteOutcome>, Trace, RunReport);

    fn two_pc_parts(votes: &[Vote]) -> Vec<FsaParticipant> {
        let spec = Arc::new(TWO_PHASE.spec(votes.len() + 1));
        (0..spec.n())
            .map(|site| {
                let vote = if site == 0 { Vote::Yes } else { votes[site - 1] };
                FsaParticipant::new(spec.clone(), site, vote, None)
            })
            .collect()
    }

    /// Runs `runner` once under its current plan at 300 ticks a message.
    fn run<P: Participant>(runner: &mut ClusterRunner<P>, record: bool) -> Run {
        let (outcomes, trace, report) =
            runner.run(NetConfig::default(), &DelayModel::Fixed(300), record);
        (outcomes.to_vec(), trace, report)
    }

    /// A fresh 2PC cluster, connected throughout, recorded.
    fn run_2pc(votes: &[Vote]) -> Run {
        run(&mut ClusterRunner::new(two_pc_parts(votes)), true)
    }

    #[test]
    fn failure_free_2pc_commits_on_unanimous_yes() {
        let (outcomes, _, _) = run_2pc(&[Vote::Yes, Vote::Yes]);
        assert_eq!(Verdict::judge(&outcomes), Verdict::AllCommit);
    }

    #[test]
    fn failure_free_2pc_aborts_on_any_no() {
        let (outcomes, _, _) = run_2pc(&[Vote::Yes, Vote::No]);
        assert_eq!(Verdict::judge(&outcomes), Verdict::AllAbort);
    }

    #[test]
    fn decision_timestamps_recorded() {
        let (outcomes, _, _) = run_2pc(&[Vote::Yes, Vote::Yes]);
        for o in &outcomes {
            assert!(o.decided_at.is_some());
        }
        // Master decides before the slaves receive the commit message.
        assert!(outcomes[0].decided_at <= outcomes[1].decided_at);
    }

    #[test]
    fn reused_runner_matches_fresh_runners() {
        // A runner reused across runs (with participant resets in between)
        // is indistinguishable from a fresh one: outcomes, trace and report.
        let mut runner = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        let votes_grid = [[Vote::Yes, Vote::Yes], [Vote::No, Vote::Yes], [Vote::Yes, Vote::Yes]];
        for votes in votes_grid {
            runner.reset(&votes);
            runner.faults_mut().partition.clear();
            let reused = run(&mut runner, true);
            let fresh = run_2pc(&votes);
            assert_eq!(reused.0, fresh.0);
            assert_eq!(reused.1.events(), fresh.1.events());
            assert_eq!(reused.2.events, fresh.2.events);
            assert_eq!(reused.2.counters, fresh.2.counters);
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
            let (outcomes, trace, _) = run(&mut runner, false);
            assert!(trace.is_empty(), "counters mode records no trace");
            // Plain 2PC under partition: never inconsistent.
            assert!(Verdict::judge(&outcomes).is_atomic());
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

            let reused = run(&mut runner, false);
            let mut fresh_runner = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
            *fresh_runner.faults_mut() = expected.into();
            let fresh = run(&mut fresh_runner, false);
            assert_eq!(reused.0, fresh.0, "round {round}");
            assert_eq!(reused.2.counters, fresh.2.counters, "round {round}");
            // 2PC across any partition schedule: atomic (it may block, it
            // never lies).
            assert!(Verdict::judge(&reused.0).is_atomic());
        }
    }

    #[test]
    fn profile_total_counts_every_dispatch_and_leaves_the_run_alone() {
        const N: usize = 4;
        let delay = DelayModel::Uniform { seed: 7, min: 1, max: 1000 };
        let split_run = |runner: &mut ClusterRunner<crate::AnyParticipant>,
                         split: Option<SimTime>| {
            runner.reset(&[Vote::Yes; N - 1]);
            let partition = &mut runner.faults_mut().partition;
            match split {
                None => partition.clear(),
                Some(at) => {
                    let groups = partition.reset_single(at, None, 2);
                    groups[0].extend([SiteId(0), SiteId(1)]);
                    groups[1].extend([SiteId(2), SiteId(3)]);
                }
            }
            let (outcomes, trace, report) = runner.run(NetConfig::default(), &delay, true);
            (outcomes.to_vec(), trace, report)
        };
        for kind in crate::ProtocolKind::ALL {
            let name = kind.name();
            let mut plain = ClusterRunner::new(kind.cluster(N, &[Vote::Yes; N - 1]));
            let mut profiled = ClusterRunner::new(kind.cluster(N, &[Vote::Yes; N - 1]));
            profiled.set_profiling(true);
            // A clean run, and one whose split at T / 2 bounces messages.
            for split in [None, Some(SimTime(500))] {
                let (quiet, timed) =
                    (split_run(&mut plain, split), split_run(&mut profiled, split));
                assert_eq!(quiet.0, timed.0, "{name} {split:?}");
                assert_eq!(quiet.2.counters, timed.2.counters, "{name} {split:?}");
                assert_eq!(quiet.1.events(), timed.1.events(), "{name} {split:?}");
                let c = timed.2.counters;
                assert_eq!(c.crashes, 0);
                assert_eq!(c.returned > 0, split.is_some(), "{name} {split:?}: {c:?}");
                // One handler call per start, delivery, return and fired timer.
                let dispatched = N as u64 + c.delivered + c.returned + c.timers_fired;
                let total = profiled.take_profile().total();
                assert_eq!(total.count, dispatched, "{name} {split:?}: {c:?}");
            }
        }

        let mut prof = ClusterRunner::new(two_pc_parts(&[Vote::Yes, Vote::Yes]));
        prof.set_profiling(true);
        prof.reset(&[Vote::Yes, Vote::Yes]);
        run(&mut prof, false);
        assert!(!prof.take_profile().is_empty());

        // take_profile drains but keeps recording; a second run refills it.
        assert!(prof.take_profile().is_empty());
        prof.reset(&[Vote::Yes, Vote::Yes]);
        run(&mut prof, false);
        assert!(!prof.take_profile().is_empty());

        // Turning profiling off stops the recording.
        prof.set_profiling(false);
        prof.reset(&[Vote::Yes, Vote::Yes]);
        run(&mut prof, false);
        assert!(prof.take_profile().is_empty());
    }
}
