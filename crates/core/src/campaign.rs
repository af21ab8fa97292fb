//! Randomized chaos campaigns over the timeline DSL.
//!
//! A campaign is one loop — *sample timeline `i` → judge → on failure
//! [`shrink`] → replay the minimum recording and keep its flight tail* —
//! over one of two subjects: the **protocol cluster** ([`Campaign::run`] /
//! [`Campaign::run_with`]: one transaction through a flat [`Session`],
//! audited for atomicity by default) or the **planned store**
//! ([`Campaign::run_planned`]: a seeded [`Workload`] served by a
//! [`ShardCluster`] — the one store builder, whose one-group case is the
//! flat database — under the whole lowered [`Timeline::faults`]).
//!
//! A planned run gets the live run's store audit, [`ptp_ddb::audit`]
//! (atomicity, WAL discipline, provenance), then what only the simulator
//! tells: read history, leaked locks and blocked transactions.
//!
//! Everything is deterministic from the campaign seed: timeline `i` of a
//! campaign is always the same [`Timeline`] (see [`Campaign::timeline`]),
//! so a failure report's `(seed, index)` pair replays bit-for-bit.
//!
//! The default fault family stays inside the paper's model for the
//! Huang–Li protocols: two-group partitions with heals, degraded-delay
//! windows (delays still bounded by `T`) and envelope duplicates. Site
//! crashes are the one opt-in class ([`CampaignConfig::crashes`]), only at
//! sites that master no shard (a crashed coordinator is outside the
//! model). The family is one rule, which the sampler draws through and the
//! shrinker filters its candidates by:
//!
//! > at most one two-group partition; a crash only in full connectivity;
//! > and no crash from the partition's onset until 6·`T` after its heal.
//!
//! A crash during a partition is the paper's Sec. 7 impossibility, and so
//! is one inside the termination protocol's window after a heal (a G1
//! slave that crashes before its probe counts as prepared-in-G2); the
//! window is Fig. 7's 6T bound (`exp fig7`). So a shrunk
//! minimum stays a timeline of the family sampled.
//!
//! The flat subject ([`Campaign::run`]) with crashes on stays ungated: the
//! protocol-only simulator has no crash recovery, so a down participant
//! silently loses what lands on it — message loss, outside the model. Over
//! 200 000 timelines HL-3PC fails 155 times with no window and still 123
//! at any window (even 100T); Quorum goes from 161 to 99. Some have no
//! partition at all (HL-3PC's timeline 446: slave 1 down over 2241–3889
//! and 4924–6578, and the cluster splits). The planned store recovers
//! crashed sites from their logs; its campaigns are gated fully armed.
//!
//! # Examples
//!
//! ```
//! use ptp_core::{Campaign, CampaignConfig, ProtocolKind};
//!
//! let config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 25, 0xC0FFEE);
//! let report = Campaign::new(config).run();
//! assert_eq!(report.executed, 25);
//! assert!(report.all_green(), "{:?}", report.failures);
//! ```

use crate::scenario::ProtocolKind;
use crate::session::{ScenarioResult, Session};
use crate::timeline::{ScenarioBuilder, TimedEvent, Timeline, TimelineEvent};
use ptp_ddb::audit::audit;
use ptp_ddb::cluster::{CommitProtocol, DbRun, ShardCluster};
use ptp_ddb::lineariz::check_read_history;
use ptp_ddb::plan::{ShardReadSpec, ShardTxnSpec};
use ptp_ddb::topology::ShardTopology;
use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_obs::{FlightEvent, FlightRecorder};
use ptp_protocols::RunOptions;
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{
    DelayModel, EnvelopeFault, EnvelopeMatch, NetConfig, SimDuration, SimTime, SiteId, Trace,
    TraceEvent,
};

/// What a [`Campaign`] samples and how much of it.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The protocol the flat cluster runs ([`Campaign::run_planned`] is
    /// told its store's commit protocol directly).
    pub kind: ProtocolKind,
    /// Cluster size.
    pub n: usize,
    /// How many timelines to sample and execute.
    pub timelines: usize,
    /// The campaign seed; every timeline derives deterministically from it.
    pub seed: u64,
    /// Sample crash/recover pairs of sites that master nothing, under the
    /// family's crash rule (see the module docs). Degraded-delay windows
    /// (bands within `T`) and envelope duplicates are always sampled.
    pub crashes: bool,
}

impl CampaignConfig {
    /// The model-respecting fault family: partitions, heals, degrades and
    /// envelope duplicates — everything the Huang–Li protocols are designed
    /// to survive, so an audited failure is a real finding.
    pub fn safe(kind: ProtocolKind, n: usize, timelines: usize, seed: u64) -> CampaignConfig {
        CampaignConfig { kind, n, timelines, seed, crashes: false }
    }
}

/// Most timed events a sampled timeline holds (envelope faults aside).
const MAX_EVENTS: u64 = 6;

/// The family's crash window: no crash from a partition's onset until this
/// many `T` after its heal — Fig. 7's bound on how long after its `w`
/// timeout a slave may still learn a commit (`exp fig7`).
const CRASH_WINDOW_T: u64 = 6;

/// The safe family as one rule over a timeline's events in time order (see
/// the module docs): the sampler asks it what it may draw next, and the
/// shrinker drops every candidate it does not admit.
struct Family {
    t_unit: u64,
    /// `None` before the partition, `Some(None)` while it is open and
    /// `Some(Some(heal))` after.
    partition: Option<Option<u64>>,
    /// The sites down now.
    down: Vec<SiteId>,
}

impl Family {
    fn new(t_unit: u64) -> Family {
        Family { t_unit, partition: None, down: Vec::new() }
    }

    /// Does every event of `timeline` stay inside the family?
    fn admits_all(timeline: &Timeline) -> bool {
        let mut family = Family::new(timeline.t_unit);
        timeline.events.iter().all(|event| family.admits(event))
    }

    /// The one partition opens only in full connectivity.
    fn may_partition(&self) -> bool {
        self.partition.is_none() && self.down.is_empty()
    }

    /// No crash from the partition's onset until [`CRASH_WINDOW_T`] after
    /// its heal.
    fn may_crash(&self, at: u64) -> bool {
        let window = CRASH_WINDOW_T * self.t_unit;
        self.partition.is_none_or(|heal| heal.is_some_and(|heal| at >= heal + window))
    }

    /// Takes `event` as the timeline's next one; false if it leaves the
    /// family.
    fn admits(&mut self, event: &TimedEvent) -> bool {
        let admitted = match &event.event {
            TimelineEvent::Partition(groups) => groups.len() == 2 && self.may_partition(),
            TimelineEvent::Crash(_) => self.may_crash(event.at),
            _ => true,
        };
        match &event.event {
            TimelineEvent::Partition(_) => self.partition = Some(None),
            TimelineEvent::Heal if self.partition == Some(None) => {
                self.partition = Some(Some(event.at));
            }
            TimelineEvent::Crash(site) => self.down.push(*site),
            TimelineEvent::Recover(site) => self.down.retain(|down| down != site),
            _ => {}
        }
        admitted
    }
}

/// One audited failure: the sampled timeline that tripped the audit and
/// the minimal counterexample shrinking reduced it to.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Which sampled timeline failed.
    pub index: usize,
    /// Its derived seed (replay with [`Campaign::timeline`] or directly).
    pub seed: u64,
    /// The audit's violation message for the *original* timeline.
    pub message: String,
    /// The timeline as sampled.
    pub original: Timeline,
    /// The still-failing minimal counterexample.
    pub minimal: Timeline,
    /// What of the sampled [`Workload`] the minimal counterexample still
    /// needs (`None`: a protocol campaign, which serves none).
    pub workload: Option<Workload>,
    /// Accepted shrinking steps.
    pub shrink_steps: usize,
    /// Candidate executions the shrinker spent.
    pub shrink_tested: usize,
    /// Flight-recorder dump of the minimal counterexample's event tail:
    /// the minimal timeline is replayed once in recording mode and the
    /// last [`FLIGHT_TAIL`] network/fault events are rendered in the same
    /// JSON dump format the live stack emits on audit failure.
    pub flight: String,
}

impl CampaignFailure {
    /// Renders the failure for a human: the violation, the minimal
    /// counterexample timeline, and the flight-recorder tail of its
    /// replay — everything needed to understand the finding without
    /// re-running the campaign.
    pub fn render(&self) -> String {
        format!(
            "timeline {} (seed {:#x}): {}\nminimal counterexample ({} shrink step(s), \
             {} candidate(s) tested):\n{:#?}\n{}flight recorder:\n{}",
            self.index,
            self.seed,
            self.message,
            self.shrink_steps,
            self.shrink_tested,
            self.minimal,
            self.workload.as_ref().map(|w| format!("{w:#?}\n")).unwrap_or_default(),
            self.flight,
        )
    }
}

/// What a [`Campaign::run`] produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Timelines sampled and executed.
    pub executed: usize,
    /// Every audited failure, shrunk.
    pub failures: Vec<CampaignFailure>,
}

impl CampaignReport {
    /// True when no timeline tripped the audit.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of distinct failing timelines found.
    pub fn faults_found(&self) -> usize {
        self.failures.len()
    }
}

/// Shrinker budget: candidate executions per failing timeline.
const SHRINK_BUDGET: usize = 256;

/// How many trailing events of the minimal counterexample's replay the
/// flight dump keeps.
pub const FLIGHT_TAIL: usize = 64;

/// The seeded read/write mix the planned store serves under one timeline:
/// a deterministic function of the timeline's seed and the topology, so
/// `(seed, index)` replays bit-for-bit.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Initial `(key, value)` pairs, installed at every replica of the
    /// key's shard.
    pub seeds: Vec<(Key, Value)>,
    /// Write transactions: `(submit tick, spec)`; one or two keys each, so
    /// single- and cross-shard routes both occur.
    pub writes: Vec<(u64, ShardTxnSpec)>,
    /// Read-only transactions: `(submit tick, spec)`.
    pub reads: Vec<(u64, ShardReadSpec)>,
    /// The healthy network's delay model (`Fixed` or `Uniform`, within `T`).
    pub delay: DelayModel,
}

/// Read ids live above every write id so the two namespaces cannot
/// collide.
const READ_BASE: u32 = 1000;

impl Workload {
    /// Samples the workload over `topology` from `seed`.
    pub fn sample(seed: u64, topology: &ShardTopology) -> Workload {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F4E_AD50_u64.rotate_left(17));
        let per_shard = 4usize.div_ceil(topology.shards()).max(2);
        let keys: Vec<Key> = topology.key_pool(per_shard).into_iter().flatten().collect();
        let seeds = keys.iter().zip(0..).map(|(k, i)| (k.clone(), Value::from_u64(i))).collect();
        let pick = |rng: &mut SmallRng| {
            let mut ks: Vec<Key> = (0..=rng.gen_range(0..=1))
                .map(|_| keys[rng.gen_range(0..=keys.len() as u64 - 1) as usize].clone())
                .collect();
            ks.sort();
            ks.dedup();
            ks
        };

        let writes = (1..=1 + rng.gen_range(0..=5) as u32)
            .map(|id| {
                let at = rng.gen_range(0..=20_000);
                let writes = pick(&mut rng)
                    .into_iter()
                    .map(|key| WriteOp {
                        key,
                        value: Value::from_u64(1000 * id as u64 + rng.gen_range(0..=999)),
                    })
                    .collect();
                (at, ShardTxnSpec { id: TxnId(id), writes })
            })
            .collect();
        let reads = (0..2 + rng.gen_range(0..=6) as u32)
            .map(|i| {
                let at = rng.gen_range(0..=30_000);
                (at, ShardReadSpec { id: TxnId(READ_BASE + i), keys: pick(&mut rng) })
            })
            .collect();
        let delay = match rng.gen_range(0..=1) {
            0 => DelayModel::Fixed(rng.gen_range(1..=1000)),
            _ => DelayModel::Uniform { seed: rng.gen_range(0..=9_999), min: 1, max: 1000 },
        };
        Workload { seeds, writes, reads, delay }
    }
}

/// What one pass of the campaign loop executes and, on failure, shrinks.
#[derive(Debug, Clone)]
struct Case {
    timeline: Timeline,
    workload: Option<Workload>,
}

impl Case {
    /// The two halves of a case the planned subject sampled.
    fn planned(&self) -> (&Timeline, &Workload) {
        let workload = self.workload.as_ref().expect("the planned subject samples a workload");
        (&self.timeline, workload)
    }

    /// Strictly-smaller mutations: every [`candidates`] mutation of the
    /// timeline under the same workload, then the same timeline with one
    /// write, then one read, dropped.
    fn candidates(&self) -> Vec<Case> {
        let mut out: Vec<Case> = candidates(&self.timeline)
            .into_iter()
            .map(|timeline| Case { timeline, workload: self.workload.clone() })
            .collect();
        let Some(workload) = &self.workload else { return out };
        let mut push = |workload| out.push(Case { timeline: self.timeline.clone(), workload });
        for i in 0..workload.writes.len() {
            let mut less = workload.clone();
            less.writes.remove(i);
            push(Some(less));
        }
        for i in 0..workload.reads.len() {
            let mut less = workload.clone();
            less.reads.remove(i);
            push(Some(less));
        }
        out
    }
}

/// What a campaign points its timelines at. The loop
/// ([`Campaign::drive`]) asks it for nothing else.
trait Subject {
    /// Sites the sampler may crash: those that master no shard — a crashed
    /// coordinator is outside the paper's model.
    fn crashable(&self) -> Vec<SiteId>;
    /// The workload served under the timeline sampled from `seed`, if the
    /// subject serves one.
    fn workload(&self, _seed: u64) -> Option<Workload> {
        None
    }
    /// Executes `case`; a violation message if it fails the audit.
    fn judge(&mut self, case: &Case) -> Option<String>;
    /// Executes `case` once more, recording, for the flight dump.
    fn replay(&mut self, case: &Case) -> Trace;
}

/// Every site of a flat `n`-site cluster but its master, site 0.
fn slaves(n: usize) -> Vec<SiteId> {
    (1..n as u16).map(SiteId).collect()
}

/// The protocol cluster: one transaction through a flat [`Session`].
struct Flat<F> {
    session: Session,
    audit: F,
}

impl<F: FnMut(&ScenarioResult) -> Option<String>> Subject for Flat<F> {
    fn crashable(&self) -> Vec<SiteId> {
        slaves(self.session.sites())
    }

    fn judge(&mut self, case: &Case) -> Option<String> {
        (self.audit)(&self.session.run(&case.timeline.scenario()))
    }

    fn replay(&mut self, case: &Case) -> Trace {
        self.session.run_with(&case.timeline.scenario(), &RunOptions::recording()).trace
    }
}

/// The planned store: a [`Workload`] routed over `topology` and served by a
/// [`ShardCluster`] with leases and anti-entropy on.
struct Planned {
    topology: ShardTopology,
    protocol: CommitProtocol,
}

impl Planned {
    fn execute(&self, case: &Case) -> DbRun {
        self.store(case).run()
    }

    /// The store that serves `case`.
    fn store(&self, case: &Case) -> ShardCluster {
        let (timeline, workload) = case.planned();
        let t = timeline.t_unit;
        let mut store = ShardCluster::new(self.topology.clone(), self.protocol)
            .leases(2 * t, 13 * t / 2)
            .anti_entropy(4 * t)
            .delay(workload.delay.clone());
        store.faults = timeline.faults();
        store.config = NetConfig {
            t_unit: t,
            max_time: SimTime(t * timeline.horizon_t),
            ..NetConfig::default()
        };
        for (key, value) in &workload.seeds {
            store = store.seed(key.clone(), value.clone());
        }
        for (at, spec) in &workload.writes {
            store = store.submit(*at, spec.clone());
        }
        for (at, spec) in &workload.reads {
            store = store.submit_read(*at, spec.clone());
        }
        store
    }

    /// The oracles: the store [`audit`], read history and — for the
    /// termination protocol on a timeline that ends healed (2PC and Quorum
    /// block by design) — converged replicas and nothing left held.
    fn verdict(&self, case: &Case, run: &DbRun) -> Option<String> {
        let (timeline, workload) = case.planned();
        let faults = timeline.faults();
        let seeds = workload.seeds.iter().map(|(key, value)| (key, Some(value)));
        let store = audit(&run.plans, &run.remains(), seeds, &faults, None);
        if let Some(violation) = store.violations.first() {
            return Some(format!("audit: {violation}"));
        }
        let specs = workload.writes.iter().map(|(_, spec)| spec);
        let unread = check_read_history(&self.topology, &workload.seeds, specs, &run.metrics);
        if let Some(violation) = unread.first() {
            return Some(format!("read history: {violation:?}"));
        }
        let healed = faults.partition.episodes().iter().all(|e| e.heal_at.is_some())
            && faults.failures.iter().all(|f| f.recover_at.is_some());
        if self.protocol != CommitProtocol::HuangLi || !healed {
            return None;
        }
        if let Some((key, site)) = store.diverged {
            return Some(format!("convergence: {site} differs from its master on {key:?}"));
        }
        if let Some(hold) = run.metrics.lock_holds.iter().find(|h| h.to.is_none()) {
            return Some(format!("leaked lock: {hold:?}"));
        }
        let blocked = run.blocked.iter().position(|txns| !txns.is_empty())?;
        Some(format!("blocked at the horizon: site {blocked} holds {:?}", run.blocked[blocked]))
    }
}

impl Subject for Planned {
    fn crashable(&self) -> Vec<SiteId> {
        let topology = &self.topology;
        let masters = |site: &SiteId| (0..topology.shards()).any(|s| topology.master(s) == *site);
        (0..topology.sites() as u16).map(SiteId).filter(|site| !masters(site)).collect()
    }

    fn workload(&self, seed: u64) -> Option<Workload> {
        Some(Workload::sample(seed, &self.topology))
    }

    fn judge(&mut self, case: &Case) -> Option<String> {
        self.verdict(case, &self.execute(case))
    }

    fn replay(&mut self, case: &Case) -> Trace {
        self.store(case).recording().run().trace
    }
}

/// A seeded chaos campaign. See the module docs.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// A campaign over `config`.
    pub fn new(config: CampaignConfig) -> Campaign {
        assert!(config.n >= 2 && config.timelines >= 1);
        Campaign { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The seed timeline `index` is sampled from — a pure function of the
    /// campaign seed, so reports replay deterministically.
    pub fn timeline_seed(&self, index: usize) -> u64 {
        self.config.seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Samples timeline `index` of a protocol campaign (deterministic
    /// replay: the same campaign always yields the same timeline at the
    /// same index). A planned campaign's timeline `index` differs only in
    /// which sites its crash events name.
    pub fn timeline(&self, index: usize) -> Timeline {
        self.sample(index, &slaves(self.config.n))
    }

    /// [`Campaign::timeline`] with the crash draw taken from `crashable`.
    fn sample(&self, index: usize, crashable: &[SiteId]) -> Timeline {
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(self.timeline_seed(index));
        let blank = ScenarioBuilder::new(cfg.n).build(); // the default T and horizon
        let mut family = Family::new(blank.t_unit);
        let (mut events, mut env_faults) = (Vec::new(), Vec::new());
        let mut t: u64 = 0;
        for _ in 0..rng.gen_range(0..=MAX_EVENTS) {
            t += rng.gen_range(400..=2600);
            let event = match rng.gen_range(0..=3) {
                0 if family.partition == Some(None) => Some(TimelineEvent::Heal),
                0 if family.may_partition() => {
                    Some(TimelineEvent::Partition(self.sample_groups(&mut rng)))
                }
                1 if cfg.crashes => match family.down.first() {
                    Some(&site) => Some(TimelineEvent::Recover(site)),
                    None if family.may_crash(t) && !crashable.is_empty() => {
                        let site = rng.gen_range(0..=crashable.len() as u64 - 1) as usize;
                        Some(TimelineEvent::Crash(crashable[site]))
                    }
                    None => None,
                },
                2 => {
                    let min = rng.gen_range(1..=900);
                    let max = rng.gen_range(min..=1000);
                    Some(TimelineEvent::Degrade { min, max })
                }
                3 => {
                    const KINDS: [&str; 5] = ["xact", "yes", "prepare", "ack", "commit"];
                    let kind = KINDS[rng.gen_range(0..=(KINDS.len() - 1) as u64) as usize];
                    let after = SimDuration(rng.gen_range(100..=1500));
                    env_faults.push(EnvelopeFault::duplicate(EnvelopeMatch::kind(kind), after));
                    None
                }
                _ => None, // crashes off, or the family admits no such event: empty slot
            };
            if let Some(event) = event.map(|event| TimedEvent { at: t, event }) {
                assert!(family.admits(&event), "the sampler drew outside its family: {event:?}");
                events.push(event);
            }
        }
        // A crashed site that never recovers and never partitions is fine;
        // an open partition is a permanent split — both valid timelines.
        Timeline::try_new(cfg.n, blank.t_unit, blank.horizon_t, events, env_faults)
            .expect("a sampled timeline is well formed")
    }

    /// Runs the campaign with the default atomicity audit: any
    /// `Verdict::Inconsistent` outcome is a failure.
    pub fn run(&self) -> CampaignReport {
        self.run_with(|result| {
            (!result.verdict.is_atomic()).then(|| format!("{:?}", result.verdict))
        })
    }

    /// Runs the campaign with a custom audit: `audit` returns a violation
    /// message for a failing run, `None` for a clean one. Every failure is
    /// shrunk (event removal, envelope-fault removal, time halving) until
    /// no smaller timeline still trips the audit or the budget runs out.
    pub fn run_with<F>(&self, audit: F) -> CampaignReport
    where
        F: FnMut(&ScenarioResult) -> Option<String>,
    {
        self.drive(Flat { session: Session::new(self.config.kind, self.config.n), audit })
    }

    /// Runs the campaign's timelines against the **store that serves**:
    /// each is lowered whole by [`Timeline::faults`] — partitions, crashes,
    /// degrades and envelope faults — onto a [`ShardCluster`] over `topology`
    /// (`uniform(n, 1, n)` is the flat database), leases and anti-entropy
    /// on, serving the [`Workload`] sampled from the timeline's seed. A run
    /// fails on the store [`audit`]'s first violation (atomicity, WAL
    /// discipline, provenance), on a read no linearization of the committed
    /// writes explains, and — `HuangLi` on a timeline that ends healed — on
    /// unconverged replicas or a lock or transaction still held at the
    /// horizon. Failures shrink over the timeline *and* the workload's
    /// writes and reads.
    ///
    /// # Panics
    ///
    /// Panics unless `topology` spans the campaign's `n` sites.
    pub fn run_planned(
        &self,
        topology: &ShardTopology,
        protocol: CommitProtocol,
    ) -> CampaignReport {
        assert_eq!(topology.sites(), self.config.n, "the topology must span the campaign's sites");
        self.drive(Planned { topology: topology.clone(), protocol })
    }

    /// The one campaign loop.
    fn drive(&self, mut subject: impl Subject) -> CampaignReport {
        let crashable = subject.crashable();
        let mut failures = Vec::new();
        for index in 0..self.config.timelines {
            let seed = self.timeline_seed(index);
            let case =
                Case { timeline: self.sample(index, &crashable), workload: subject.workload(seed) };
            let Some(message) = subject.judge(&case) else { continue };
            let (minimal, shrink_steps, shrink_tested) =
                shrink(case.clone(), SHRINK_BUDGET, Case::candidates, |candidate| {
                    subject.judge(candidate).is_some()
                });
            let reason =
                format!("campaign counterexample (timeline {index}, seed {seed:#x}): {message}");
            let flight = flight_dump(&subject.replay(&minimal), &reason);
            failures.push(CampaignFailure {
                index,
                seed,
                message,
                original: case.timeline,
                minimal: minimal.timeline,
                workload: minimal.workload,
                shrink_steps,
                shrink_tested,
                flight,
            });
        }
        CampaignReport { executed: self.config.timelines, failures }
    }

    /// Two-group cover of the cluster: a random nonempty set of slaves
    /// secedes, everyone else (always including the master) stays.
    fn sample_groups(&self, rng: &mut SmallRng) -> Vec<Vec<SiteId>> {
        let n = self.config.n as u16;
        let mut g2: Vec<SiteId> =
            (1..n).map(SiteId).filter(|_| rng.gen_range(0..=1) == 1).collect();
        if g2.is_empty() {
            g2.push(SiteId(rng.gen_range(1..=(n - 1) as u64) as u16));
        }
        let g1 = (0..n).map(SiteId).filter(|s| !g2.contains(s)).collect();
        vec![g1, g2]
    }
}

/// Renders the last [`FLIGHT_TAIL`] network/fault events of the minimal
/// counterexample's recorded replay as a flight-recorder dump — the same
/// format the live stack prints on audit failure, so one set of eyes (and
/// one set of parsing scripts) reads both.
fn flight_dump(trace: &Trace, reason: &str) -> String {
    let events: Vec<FlightEvent> = trace.events().iter().filter_map(flight_event).collect();
    let keep = events.len().min(FLIGHT_TAIL);
    let dropped = (events.len() - keep) as u64;
    FlightRecorder::render_dump(reason, dropped, &events[events.len() - keep..])
}

/// Projects a simulator [`TraceEvent`] onto the flight-recorder event
/// shape. Timer bookkeeping (set / cancel / suppress) is elided — the
/// tail exists to show *what the network did*, and timer arms would crowd
/// out the deliveries that explain a verdict. `at_us` carries simulated
/// time units (the simulator's tick), not wall-clock microseconds.
fn flight_event(e: &TraceEvent) -> Option<FlightEvent> {
    let ev = |at: ptp_simnet::SimTime, site: u64, kind, tag, a, b| {
        Some(FlightEvent { at_us: at.0, site, kind, tag, a, b })
    };
    match *e {
        TraceEvent::Sent { at, id, src, dst, kind } => {
            ev(at, src.0 as u64, "send", kind, id.0, dst.0 as u64)
        }
        TraceEvent::Delivered { at, id, src, dst, kind } => {
            ev(at, dst.0 as u64, "recv", kind, id.0, src.0 as u64)
        }
        TraceEvent::Returned { at, id, src, dst, kind } => {
            ev(at, src.0 as u64, "return", kind, id.0, dst.0 as u64)
        }
        TraceEvent::Dropped { at, id, src, dst, kind } => {
            ev(at, dst.0 as u64, "drop", kind, id.0, src.0 as u64)
        }
        TraceEvent::TimerFired { at, site, timer, tag } => {
            ev(at, site.0 as u64, "timer", "fire", timer, tag)
        }
        TraceEvent::Crashed { at, site } => ev(at, site.0 as u64, "fault", "crash", 0, 0),
        TraceEvent::Recovered { at, site } => ev(at, site.0 as u64, "fault", "recover", 0, 0),
        TraceEvent::Note { at, site, label, detail } => {
            ev(at, site.0 as u64, "note", label, detail, 0)
        }
        TraceEvent::TimerSet { .. }
        | TraceEvent::TimerCancelled { .. }
        | TraceEvent::TimerSuppressed { .. } => None,
    }
}

/// Greedy restart-on-improvement shrinking, mirroring the loop in
/// `crates/proptest`: try every candidate of the current minimum; the first
/// one that still fails becomes the new minimum and the pass restarts, until
/// a pass finds none or `budget` candidates have been executed. Returns the
/// minimum, the accepted steps and the candidates tested.
///
/// # Examples
///
/// ```
/// use ptp_core::campaign::shrink;
///
/// // "Fails" while it still holds a 7: everything else can go.
/// let smaller = |v: &Vec<u32>| (0..v.len()).map(|i| [&v[..i], &v[i + 1..]].concat()).collect();
/// let (minimal, steps, _) = shrink(vec![3, 7, 9, 4], 64, smaller, |v| v.contains(&7));
/// assert_eq!((minimal, steps), (vec![7], 3));
/// ```
pub fn shrink<T>(
    original: T,
    budget: usize,
    mut candidates: impl FnMut(&T) -> Vec<T>,
    mut still_fails: impl FnMut(&T) -> bool,
) -> (T, usize, usize) {
    let mut minimal = original;
    let mut steps = 0usize;
    let mut tested = 0usize;
    'passes: loop {
        for candidate in candidates(&minimal) {
            if tested >= budget {
                break 'passes;
            }
            tested += 1;
            if still_fails(&candidate) {
                minimal = candidate;
                steps += 1;
                continue 'passes;
            }
        }
        break;
    }
    (minimal, steps, tested)
}

/// Strictly-smaller mutations of `timeline` — drop one envelope fault, drop
/// one event, halve every event instant — keeping those
/// [`Timeline::try_new`] accepts and the family admits.
fn candidates(timeline: &Timeline) -> Vec<Timeline> {
    let mut out = Vec::new();
    let mut push = |events: Vec<TimedEvent>, env_faults| {
        let (n, t_unit, horizon_t) = (timeline.n, timeline.t_unit, timeline.horizon_t);
        match Timeline::try_new(n, t_unit, horizon_t, events, env_faults) {
            Ok(t) if Family::admits_all(&t) => out.push(t),
            _ => {}
        }
    };
    for i in 0..timeline.env_faults.len() {
        let mut env = timeline.env_faults.clone();
        env.remove(i);
        push(timeline.events.clone(), env);
    }
    for i in 0..timeline.events.len() {
        let mut events = timeline.events.clone();
        events.remove(i);
        push(events, timeline.env_faults.clone());
    }
    if timeline.events.iter().any(|e| e.at > 1) {
        let halved = timeline
            .events
            .iter()
            .map(|e| TimedEvent { at: e.at / 2, event: e.event.clone() })
            .collect();
        push(halved, timeline.env_faults.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic() {
        let c = Campaign::new(CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 10, 42));
        for i in 0..10 {
            assert_eq!(c.timeline(i), c.timeline(i), "timeline {i}");
        }
        let again = Campaign::new(CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 10, 42));
        assert_eq!(c.timeline(3), again.timeline(3));
    }

    #[test]
    fn different_seeds_sample_different_timelines() {
        let a = Campaign::new(CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 1, 1));
        let b = Campaign::new(CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 1, 2));
        let differ = (0..16).any(|i| a.timeline(i) != b.timeline(i));
        assert!(differ, "16 consecutive identical timelines across seeds");
    }

    #[test]
    fn sampled_timelines_always_validate() {
        // build() inside timeline() would panic on an invalid schedule; a
        // broad sweep over seeds and configs is the regression net.
        for seed in 0..40 {
            let mut cfg = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 5, 1, seed);
            cfg.crashes = true;
            let c = Campaign::new(cfg);
            for i in 0..4 {
                let tl = c.timeline(i);
                assert!(tl.events.len() <= 6 + tl.env_faults.len());
            }
        }
    }

    #[test]
    fn blocking_protocol_fails_and_shrinks_to_a_minimal_counterexample() {
        // 2PC blocks under any mid-protocol partition (the paper's Sec. 1
        // story), so a resilience audit is a known-failing oracle: the
        // campaign must find failures AND shrink them below the originals.
        let config = CampaignConfig::safe(ProtocolKind::Plain2pc, 4, 30, 7);
        let report = Campaign::new(config)
            .run_with(|r| (!r.verdict.is_resilient()).then(|| format!("{:?}", r.verdict)));
        assert!(!report.all_green(), "2PC must block somewhere in 30 timelines");
        let f = report.failures.iter().find(|f| f.shrink_steps > 0).expect("some failure shrinks");
        assert!(f.minimal.events.len() <= f.original.events.len());
        let weight = |t: &Timeline| {
            t.events.len()
                + t.env_faults.len()
                + t.events.iter().map(|e| e.at as usize).sum::<usize>()
        };
        assert!(weight(&f.minimal) < weight(&f.original), "shrinking must reduce the timeline");
        // The minimal counterexample still fails its own audit.
        let result = Session::new(ProtocolKind::Plain2pc, 4).run(&f.minimal.scenario());
        assert!(!result.verdict.is_resilient(), "{:?}", result.verdict);
    }

    #[test]
    fn counterexample_carries_a_flight_dump() {
        // Every shrunk counterexample replays its minimal timeline and
        // keeps the event tail — the campaign-side half of the "both
        // failure paths produce a flight dump" guarantee (the live stack's
        // audit/drain path is pinned in `ptp-live`).
        let config = CampaignConfig::safe(ProtocolKind::Plain2pc, 4, 30, 7);
        let report = Campaign::new(config)
            .run_with(|r| (!r.verdict.is_resilient()).then(|| format!("{:?}", r.verdict)));
        assert!(!report.all_green(), "2PC must block somewhere in 30 timelines");
        for f in &report.failures {
            assert!(
                f.flight.contains("\"reason\": \"campaign counterexample (timeline"),
                "{}",
                f.flight
            );
            assert!(f.flight.contains("\"events\": ["), "{}", f.flight);
            assert!(
                f.flight.contains("\"kind\": \"send\"") && f.flight.contains("\"kind\": \"recv\""),
                "a blocked run must still have sent and received something: {}",
                f.flight
            );
        }
        let rendered = report.failures[0].render();
        for needle in ["minimal counterexample", "flight recorder:", "\"events\": ["] {
            assert!(rendered.contains(needle), "{rendered}");
        }
    }

    /// The planned store with every case condemned unheard.
    struct Condemned(Planned);

    impl Subject for Condemned {
        fn crashable(&self) -> Vec<SiteId> {
            self.0.crashable()
        }

        fn workload(&self, seed: u64) -> Option<Workload> {
            self.0.workload(seed)
        }

        fn judge(&mut self, _: &Case) -> Option<String> {
            Some("condemned".into())
        }

        fn replay(&mut self, case: &Case) -> Trace {
            self.0.replay(case)
        }
    }

    #[test]
    fn a_planned_counterexample_carries_its_message_lines() {
        // A store run keeps only its sites' notes unless it records; the
        // replay behind a planned flight dump records, so the dump shows
        // what the network did.
        let topology = ShardTopology::uniform(6, 3, 2);
        let campaign = Campaign::new(db_config(2, 7));
        let report = campaign.drive(Condemned(planned(topology, CommitProtocol::HuangLi)));
        assert_eq!(report.failures.len(), 2);
        for f in &report.failures {
            assert!(
                f.flight.contains("\"kind\": \"send\"") && f.flight.contains("\"kind\": \"recv\""),
                "a planned replay must keep its envelopes: {}",
                f.flight
            );
        }
    }

    #[test]
    fn safe_family_is_green_for_the_paper_protocol() {
        let config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 15, 0xBADC0DE);
        let report = Campaign::new(config).run();
        assert!(report.all_green(), "{:#?}", report.failures);
    }
    /// FNV-1a over the `{:?}` of timelines `0..64` of the benchmark's
    /// campaign.
    fn stream_digest(crashes: bool) -> u64 {
        let mut config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 64, 0xBE_2026);
        config.crashes = crashes;
        let campaign = Campaign::new(config);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..64 {
            for b in format!("{:?}", campaign.timeline(i)).bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn the_flat_stream_is_the_one_sampled_before_subjects_existed() {
        // Without crashes: the digest computed at the commit before the
        // crash draw went through the crashable set — the crash arm draws
        // nothing when crashes are off. With crashes: re-pinned when the
        // family's crash window began refusing draws after a heal.
        assert_eq!(stream_digest(false), 0xe8d3_ab23_5dac_f84e);
        assert_eq!(stream_digest(true), 0x37f6_100e_4971_6859);
    }

    /// A four-site timeline: `groups` split at `at` and heal at `heal`,
    /// then `crash` goes down at `down`.
    fn post_heal_crash(
        groups: Vec<Vec<SiteId>>,
        (at, heal): (u64, u64),
        (crash, down): (SiteId, u64),
    ) -> Timeline {
        ScenarioBuilder::new(4)
            .at(at)
            .partition(groups)
            .at(heal)
            .heal()
            .at(down)
            .crash(crash)
            .build()
    }

    #[test]
    fn the_family_refuses_the_crashes_first_filed_after_a_heal() {
        let s = |ids: &[u16]| ids.iter().copied().map(SiteId).collect::<Vec<_>>();
        // HL-3PC's timeline 3117 and Quorum's 447 on `uniform(4, 1, 4)`, as
        // first filed: a slave crashes 725 and 1654 ticks after the heal.
        let hl_3117 =
            post_heal_crash(vec![s(&[0, 1, 2]), s(&[3])], (2861, 4337), (SiteId(1), 5062));
        let quorum_447 =
            post_heal_crash(vec![s(&[0, 2, 3]), s(&[1])], (1115, 2124), (SiteId(2), 3778));
        for timeline in [&hl_3117, &quorum_447] {
            assert!(!Family::admits_all(timeline), "{timeline:?}");
        }
        // The same crash 6 T after the heal is inside the family.
        let late = post_heal_crash(vec![s(&[0, 1, 2]), s(&[3])], (2861, 4337), (SiteId(1), 10_337));
        assert!(Family::admits_all(&late));
    }

    #[test]
    fn the_shrinker_keeps_only_candidates_inside_the_family() {
        let split = vec![vec![SiteId(0), SiteId(1), SiteId(2)], vec![SiteId(3)]];
        let timeline = ScenarioBuilder::new(4)
            .at(1000)
            .partition(split)
            .at(3000)
            .heal()
            .at(9000)
            .crash(SiteId(1))
            .at(12_000)
            .recover(SiteId(1))
            .build();
        assert!(Family::admits_all(&timeline));
        // Dropping the heal leaves a crash during a permanent partition, and
        // halving every instant pulls the crash inside the window: the family
        // refuses both. Dropping the partition or the crash leaves a heal or
        // a recovery with nothing to end. What is left: no recovery.
        let kept = candidates(&timeline);
        let dropped = |i: usize| {
            let mut events = timeline.events.clone();
            events.remove(i);
            events
        };
        let kept_events: Vec<_> = kept.iter().map(|t| t.events.clone()).collect();
        assert_eq!(kept_events, vec![dropped(3)]);
    }

    /// Fails every case and remembers each timeline it was asked to judge.
    struct Doomed(Vec<Timeline>);

    impl Subject for Doomed {
        fn crashable(&self) -> Vec<SiteId> {
            slaves(4)
        }

        fn judge(&mut self, case: &Case) -> Option<String> {
            self.0.push(case.timeline.clone());
            Some("doctored".into())
        }

        fn replay(&mut self, _: &Case) -> Trace {
            Trace::default()
        }
    }

    #[test]
    fn a_doctored_failure_shrinks_inside_the_family() {
        let mut config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 64, 0xC1_2026);
        config.crashes = true;
        let mut subject = Doomed(Vec::new());
        let campaign = Campaign::new(config);
        let crashable = subject.crashable();
        for index in 0..64 {
            let case = Case { timeline: campaign.sample(index, &crashable), workload: None };
            let (minimal, _, _) =
                shrink(case, SHRINK_BUDGET, Case::candidates, |c| subject.judge(c).is_some());
            assert!(Family::admits_all(&minimal.timeline));
        }
        let judged = &subject.0;
        assert!(judged
            .iter()
            .any(|t| t.events.iter().any(|e| { matches!(e.event, TimelineEvent::Crash(_)) })));
        assert!(judged.iter().all(Family::admits_all), "the shrinker left the family");
    }

    /// The safe family with crashes armed.
    fn db_config(timelines: usize, seed: u64) -> CampaignConfig {
        let mut config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, timelines, seed);
        config.crashes = true;
        config
    }

    fn planned(topology: ShardTopology, protocol: CommitProtocol) -> Planned {
        Planned { topology, protocol }
    }

    #[test]
    fn only_sites_that_master_no_shard_may_crash() {
        let sites = |ids: &[u16]| ids.iter().copied().map(SiteId).collect::<Vec<_>>();
        let sharded = planned(ShardTopology::uniform(6, 3, 2), CommitProtocol::HuangLi);
        assert_eq!(sharded.crashable(), sites(&[1, 3, 5]));
        let flat_db = planned(ShardTopology::uniform(4, 1, 4), CommitProtocol::HuangLi);
        assert_eq!(flat_db.crashable(), sites(&[1, 2, 3]));
        let flat = Flat { session: Session::new(ProtocolKind::HuangLi3pc, 4), audit: |_: &_| None };
        assert_eq!(flat.crashable(), flat_db.crashable());
    }

    #[test]
    fn workload_sampling_is_deterministic_and_mixes_routes() {
        let topology = ShardTopology::uniform(6, 3, 2);
        let (a, b) = (Workload::sample(42, &topology), Workload::sample(42, &topology));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{:?}", Workload::sample(43, &topology)));
        let shards = |spec: &ShardTxnSpec| {
            let mut shards: Vec<usize> =
                spec.writes.iter().map(|w| topology.shard_of(&w.key)).collect();
            shards.dedup();
            shards.len()
        };
        let spans: Vec<usize> = (0..32)
            .flat_map(|seed| Workload::sample(seed, &topology).writes)
            .map(|(_, spec)| shards(&spec))
            .collect();
        assert!(spans.contains(&1) && spans.contains(&2), "single- and cross-shard: {spans:?}");
    }

    #[test]
    fn the_flat_database_is_green_on_atomicity_and_read_history() {
        let topology = ShardTopology::uniform(4, 1, 4);
        for protocol in
            [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority]
        {
            let campaign = Campaign::new(db_config(15, 0xDBA_0D17));
            let report = campaign.run_planned(&topology, protocol);
            assert_eq!(report.executed, 15);
            assert!(report.all_green(), "{protocol:?}: {}", report.failures[0].render());
            // The oracle must have had reads to judge.
            let subject = planned(topology.clone(), protocol);
            let served: usize = (0..15)
                .map(|i| {
                    let workload = subject.workload(campaign.timeline_seed(i));
                    subject
                        .execute(&Case { timeline: campaign.timeline(i), workload })
                        .metrics
                        .reads
                        .len()
                })
                .sum();
            assert!(served > 0, "{protocol:?}: the audit must see served reads");
        }
    }

    /// The planned store judged on a history whose first served read was
    /// overwritten with a value no write ever carried.
    struct Doctored(Planned);

    impl Subject for Doctored {
        fn crashable(&self) -> Vec<SiteId> {
            self.0.crashable()
        }

        fn workload(&self, seed: u64) -> Option<Workload> {
            self.0.workload(seed)
        }

        fn judge(&mut self, case: &Case) -> Option<String> {
            let mut run = self.0.execute(case);
            for (_, observed) in
                run.metrics.reads.first_mut().into_iter().flat_map(|r| &mut r.values)
            {
                *observed = Some(Value::from_u64(0xBAD_FACE));
            }
            self.0.verdict(case, &run)
        }

        fn replay(&mut self, case: &Case) -> Trace {
            self.0.replay(case)
        }
    }

    #[test]
    fn a_doctored_history_fails_the_oracle_and_shrinks_to_one_read() {
        // The checker must not be vacuous, and a planned failure must go
        // through the same shrink → replay → flight path as a protocol one.
        let topology = ShardTopology::uniform(4, 1, 4);
        let campaign = Campaign::new(db_config(8, 7));
        let report = campaign.drive(Doctored(planned(topology, CommitProtocol::HuangLi)));
        assert!(!report.all_green(), "every run that serves a read must fail");
        for f in &report.failures {
            assert!(f.message.starts_with("read history:"), "{}", f.message);
            let workload = f.workload.as_ref().expect("a planned failure carries its workload");
            assert!(f.minimal.events.is_empty() && f.minimal.env_faults.is_empty(), "{f:?}");
            assert_eq!((workload.writes.len(), workload.reads.len()), (0, 1), "{workload:?}");
            assert!(f.shrink_steps > 0 && f.shrink_tested >= f.shrink_steps);
            assert!(f.flight.contains("\"reason\": \"campaign counterexample (timeline"));
            assert!(f.render().contains("reads: ["), "{}", f.render());
        }
    }

    #[test]
    fn a_healed_timeline_is_also_judged_on_convergence_and_leaked_locks() {
        let topology = ShardTopology::uniform(4, 1, 4);
        let key = topology.key_pool(1)[0][0].clone();
        let write = |id: u32, value| ShardTxnSpec {
            id: TxnId(id),
            writes: vec![WriteOp { key: key.clone(), value: Value::from_u64(value) }],
        };
        let split = vec![vec![SiteId(0), SiteId(1), SiteId(2)], vec![SiteId(3)]];
        // The split aborts the first write; the second commits after the heal.
        let workload = Some(Workload {
            seeds: vec![(key.clone(), Value::from_u64(0))],
            writes: vec![(0, write(1, 7)), (20_000, write(2, 8))],
            reads: Vec::new(),
            delay: DelayModel::Fixed(700),
        });
        let healed = Case {
            timeline: ScenarioBuilder::new(4)
                .at(1500)
                .partition(split.clone())
                .at(9000)
                .heal()
                .build(),
            workload: workload.clone(),
        };
        let subject = planned(topology.clone(), CommitProtocol::HuangLi);
        let clean = subject.execute(&healed);
        assert_eq!(subject.verdict(&healed, &clean), None);

        // A replica holding a value nobody wrote, one that never caught up,
        // and a lock nobody released.
        let mut foreign = subject.execute(&healed);
        foreign.storages[3].seed(key.clone(), Value::from_u64(0xBAD_FACE));
        let message = subject.verdict(&healed, &foreign).expect("a foreign value must fail");
        let expected = format!("audit: key {key} at site site3 holds a value from no committed");
        assert!(message.starts_with(&expected), "{message}");
        let mut stale = subject.execute(&healed);
        stale.storages[3].seed(key, Value::from_u64(0));
        let message = subject.verdict(&healed, &stale).expect("a stale replica must fail");
        assert!(message.starts_with("convergence: site3"), "{message}");
        let mut leaked = subject.execute(&healed);
        leaked.metrics.lock_holds[0].to = None;
        let message = subject.verdict(&healed, &leaked).expect("a held lock must fail");
        assert!(message.starts_with("leaked lock"), "{message}");

        // Neither is asked of a split that never heals, nor of a protocol
        // that blocks by design.
        let open =
            Case { timeline: ScenarioBuilder::new(4).at(1500).partition(split).build(), workload };
        assert_eq!(subject.verdict(&open, &leaked), None);
        let two_phase = planned(topology, CommitProtocol::TwoPhase);
        assert_eq!(two_phase.verdict(&healed, &leaked), None);
    }
}
