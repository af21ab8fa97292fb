//! Scenario execution: the one way a protocol scenario runs.
//!
//! `Session::new(kind, n)` builds the protocol cluster **once** —
//! enum-dispatched, one flat allocation — and `session.run(&scenario)`
//! resets and reuses it, together with the simulator's event queue, timer
//! slab and the fault plan's group and list buffers, for every subsequent run.
//! The sweep engine runs each worker's grid cells through one session, so
//! the steady-state hot path performs no per-cell cluster construction, no
//! per-site allocation, and no G1/G2 vector rebuilds.
//!
//! A single scenario is `Session::new(kind, scenario.n).run(&scenario)`.
//!
//! Determinism is unaffected: a reused session produces field-identical
//! [`ScenarioResult`]s (outcomes, verdict, trace, report) to a fresh
//! session's first run — the property suite checks this for every
//! [`ProtocolKind`].
//!
//! ## Proving before simulating
//!
//! A partition acts only on messages outstanding when it occurs (Lemma 3's
//! set-up; [`ptp_simnet::PartitionEngine::bounce_instant`] ignores every
//! episode with `e.at > delivery_at`), and under a fixed delay slaves that
//! vote alike and sit on the same side of every cut are interchangeable.
//! So many cells of a grid are a run the session has already simulated,
//! either verbatim or up to a relabelling of slaves. The session keeps two
//! rules, here and nowhere else, and answers such cells without simulating,
//! whichever of [`Session::run`], [`Session::run_with`] and
//! [`Session::verdict`] asks. A scenario with site failures, degraded-delay
//! windows or envelope faults always simulates and teaches nothing: both
//! rules speak of partitions only.
//!
//! ### Rule 1: the partition-free run
//!
//! > If a scenario's first episode starts strictly after `L0`, the latest
//! > instant any message of its own run was scheduled to land
//! > ([`RunReport::last_landing`]), then that run *is* the partition-free
//! > run of its key — everything else the run reads: votes, delay model,
//! > `T`, horizon, [`ptp_simnet::PartitionMode`] and [`RunOptions::record`]
//! > — and it is the run of every scenario with the same key whose first
//! > episode starts after `L0`.
//!
//! Proof. (1) Every send of such a run has `delivery_at <= L0 < at <= e.at`
//! for every episode `e`, so `bounce_instant` answers `None` for each, as it
//! does under an empty schedule: the run is the partition-free run `P`, event
//! for event — the same outcomes, report and trace, since the schedule is
//! read only when a message is routed. (2) A scenario with the same key and
//! first episode at `at' > L0` replays `P` for as long as none of its sends
//! bounces, and every send of `P` has `delivery_at <= L0 < at'`, so none
//! does. (3) Boundary, shape, heal and mode only say what an episode does to
//! a message it reaches; none is reached. ∎
//!
//! The session learns `(L0, verdict, outcomes, report, trace)` per key from
//! the first run it simulates that satisfies the rule — there is no
//! pre-pass and no extra run — and answers later scenarios of the key from
//! it. The bound is strict: a message landing *at* the partition instant
//! bounces. The memo holds the [`Session::PARTITION_FREE_RUNS`] most
//! recently learned keys.
//!
//! ### Rule 2: the slave-relabelled twin
//!
//! A slave's *colour* is its vote together with its group in every episode
//! of the schedule (the index of the first group that lists it, or
//! "unlisted", which isolates it). The master, site 0, is not coloured: it
//! keeps its own place.
//!
//! > If a scenario injects partitions only, uses [`DelayModel::Fixed`] and
//! > records no trace, and the session has simulated a *twin* — a scenario
//! > with the same key (delay, `T`, horizon, mode, each episode's instant
//! > and heal, the master's group in each) and the same number of slaves of
//! > every colour — then the scenario's run is the twin's relabelled by
//! > `σ`, the map that keeps every colour and keeps site order within each
//! > colour: `outcomes[σ(i)] = twin[i]`, the verdict judged from those
//! > outcomes, the report as the twin's.
//!
//! Argument. Let `W` be the twin and `S` the scenario. (1) *Sites.* The
//! roster builds site `σ(i)` of `S` with the vote of site `i` of `W` (the
//! colour holds the vote), and a protocol site reads its own id only to
//! tell master from slave and to address replies: no state machine of the
//! roster singles a slave out by number. (2) *Links.* A fixed delay gives
//! every message the same `d >= 1` ticks, whoever sends it; an episode cuts
//! a pair of sites by their group indices alone, and `σ` keeps every
//! slave's group in every episode and the master's is part of the key, so
//! a message `i → j` of `W` lands, bounces or is dropped exactly when
//! `σ(i) → σ(j)` of `S` does. (3) *Instants.* By induction over instants,
//! every site `σ(i)` of `S` receives at each instant the same multiset of
//! deliveries, returns and timer expiries, from the relabelled senders, as
//! site `i` of `W`: what it does at an instant depends on what it received
//! before (the hypothesis) and on what lands now, and a message sent at an
//! instant lands `d >= 1` ticks later, never within it. What `σ` does not
//! keep is the *order* of one site's events within one instant when their
//! senders differ in colour: the event queue delivers same-instant messages
//! in send order, which follows site order across colours. So the rule
//! stands on one more property of the roster: a site's handling of the
//! events of one instant — its next state, its decision and when, and the
//! multiset of what it sends — does not depend on their order. (4)
//! *Report.* Event and message counts are sums over sites, and the stop
//! reason, the last event's instant and the last landing are instants of
//! the run, so `σ` leaves the report as it is. The trace is not: it lists
//! events in queue order under site ids, which is why the rule requires
//! `record` off. Seeded, scheduled and per-link delays, site failures,
//! degraded windows and envelope faults all draw on or name a link, a site
//! or a send order, and are outside the rule.
//!
//! Property (3) is the protocols', so it is checked rather than proved: a
//! debug build simulates every symmetric answer as well and asserts that
//! the simulation is the relabelled twin in outcomes and report, so every
//! debug sweep checks the rule on its own cells, and `tests/sweep_pruning.rs`
//! folds a fresh session per cell as oracle over random grids. The session
//! learns a twin from every simulated run the rule covers that rule 1 does
//! not, and holds the [`Session::SYMMETRIC_RUNS`] most recently learned.
//!
//! Both memos are looked up by key hash (a fixed-capacity ring indexed by an
//! open-addressed table), overwrite their oldest entry in place once full,
//! and so a warm session answers and learns without allocating.
//! [`Session::executed`] counts only the runs actually simulated.

use crate::scenario::{PartitionShape, ProtocolKind, Scenario};
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::{AnyParticipant, RunOptions, SiteOutcome, Verdict, Vote};
use ptp_simnet::{DelayModel, PartitionMode, RunReport, SimTime, SiteId, Trace};

/// The result of one scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Atomicity/blocking verdict.
    pub verdict: Verdict,
    /// Per-site outcomes.
    pub outcomes: Vec<SiteOutcome>,
    /// Full network trace (for timing measurements and debugging). Empty
    /// unless the run set [`RunOptions::record`].
    pub trace: Trace,
    /// Simulator report.
    pub report: RunReport,
}

/// A reusable execution session: one protocol kind, one cluster size, many
/// scenarios.
///
/// ```
/// use ptp_core::{ProtocolKind, RunOptions, Scenario, Session};
/// use ptp_simnet::SiteId;
///
/// let mut session = Session::new(ProtocolKind::HuangLi3pc, 4);
/// for at in [0u64, 1500, 2500, 4500] {
///     let scenario = Scenario::new(4).partition_g2(vec![SiteId(3)], at);
///     let result = session.run(&scenario);
///     assert!(result.verdict.is_resilient(), "t={at}: {:?}", result.verdict);
/// }
/// // Need the full trace? Ask for it per run:
/// let recorded = session.run_with(
///     &Scenario::new(4).partition_g2(vec![SiteId(3)], 2500),
///     &RunOptions::recording(),
/// );
/// assert!(!recorded.trace.is_empty());
/// ```
pub struct Session {
    kind: ProtocolKind,
    n: usize,
    runner: ClusterRunner<AnyParticipant>,
    executed: u64,
    /// Rule 1's memo: the partition-free runs learned so far (module docs,
    /// "Proving before simulating").
    partition_free: Memo<PartitionFreeRun>,
    /// Rule 2's memo: the twins learned so far.
    twins: Memo<Twin>,
    /// The current scenario's rule-2 key and canonical slave order.
    signature: Signature,
    /// The outcomes of the last symmetric answer, relabelled.
    relabelled: Vec<SiteOutcome>,
}

/// One learned partition-free run: its key (everything the run reads but
/// the partition schedule), its last landing instant `L0` and its result.
struct PartitionFreeRun {
    votes: Vec<Vote>,
    delay: DelayModel,
    t_unit: u64,
    horizon_t: u64,
    mode: PartitionMode,
    record: bool,
    last_landing: SimTime,
    verdict: Verdict,
    outcomes: Vec<SiteOutcome>,
    report: RunReport,
    trace: Trace,
}

impl PartitionFreeRun {
    /// Was this run learned under `scenario`'s key?
    fn has_key_of(&self, scenario: &Scenario, options: &RunOptions) -> bool {
        self.delay == scenario.delay
            && self.votes == scenario.votes
            && self.t_unit == scenario.t_unit
            && self.horizon_t == scenario.horizon_t
            && self.mode == scenario.mode
            && self.record == options.record
    }
}

/// The hash of rule 1's key of `scenario` under `options`. A scheduled or
/// per-link delay hashes by its default and size only; the lookup compares
/// whole keys.
fn partition_free_hash(scenario: &Scenario, options: &RunOptions) -> u64 {
    let delay = match &scenario.delay {
        DelayModel::Fixed(d) => [0, *d, 0, 0],
        DelayModel::Uniform { seed, min, max } => [1, *seed, *min, *max],
        DelayModel::Scheduled { overrides, default } => [2, *default, overrides.len() as u64, 0],
        DelayModel::PerLink { links, default } => [3, *default, links.len() as u64, 0],
    };
    let words = delay.into_iter().chain([
        scenario.t_unit,
        scenario.horizon_t,
        scenario.mode as u64,
        u64::from(options.record),
    ]);
    hash_words(words.chain(scenario.votes.iter().map(|&v| v as u64)))
}

/// A well-mixed 64-bit hash of `words` (FxHash steps, a SplitMix64 finish).
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = words
        .into_iter()
        .fold(0u64, |h, w| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ h >> 31
}

/// One learned twin: its rule-2 key and its result, outcomes in canonical
/// order (the master's, then the slaves' in [`Signature::order`]).
struct Twin {
    key: Vec<u64>,
    outcomes: Vec<SiteOutcome>,
    report: RunReport,
}

/// Most episodes a rule-2 key encodes: a colour packs the vote in bit 0 and
/// one byte per episode above it.
const COLOURED_EPISODES: usize = 7;

/// Rule 2's view of one scenario: its key and its slaves in canonical order.
#[derive(Default)]
struct Signature {
    /// Delay, `T`, horizon, mode, episode count, then per episode its
    /// instant, heal (flag and instant) and the master's group, then the
    /// slaves' colours in ascending order.
    key: Vec<u64>,
    /// `(colour, site)` of every slave, sorted: by colour, and by site
    /// within a colour. The `j`-th entries of two scenarios with one key
    /// are `σ`-images of each other.
    order: Vec<(u64, u16)>,
    hash: u64,
}

impl Signature {
    /// Writes `scenario`'s key and canonical order; false when rule 2 does
    /// not cover the scenario.
    fn sign(&mut self, scenario: &Scenario, options: &RunOptions) -> bool {
        let DelayModel::Fixed(d) = scenario.delay else { return false };
        if options.record || !partitions_only(scenario) {
            return false;
        }
        let episodes = match &scenario.partition {
            PartitionShape::Simple { .. } => 1,
            PartitionShape::None => scenario.faults.partition.episodes().len(),
        };
        if episodes > COLOURED_EPISODES {
            return false;
        }
        self.key.clear();
        let mode = scenario.mode as u64;
        self.key.extend([d, scenario.t_unit, scenario.horizon_t, mode, episodes as u64]);
        self.order.clear();
        self.order.extend(scenario.votes.iter().zip(1..).map(|(&v, site)| (v as u64, site)));
        let coloured = match &scenario.partition {
            PartitionShape::Simple { g2, at, heal_at } => {
                let sides = |site| Some(usize::from(g2.contains(&site)));
                self.episode(0, *at, *heal_at, sides)
            }
            PartitionShape::None => {
                scenario.faults.partition.episodes().iter().enumerate().all(|(i, e)| {
                    let group = |site| e.groups.iter().position(|g| g.contains(&site));
                    self.episode(i, e.at.ticks(), e.heal_at.map(SimTime::ticks), group)
                })
            }
        };
        if !coloured {
            return false;
        }
        self.order.sort_unstable();
        self.key.extend(self.order.iter().map(|&(colour, _)| colour));
        self.hash = hash_words(self.key.iter().copied());
        true
    }

    /// Appends episode `e` to the key and each slave's group in it to its
    /// colour; false if a group index does not fit a byte.
    fn episode(
        &mut self,
        e: usize,
        at: u64,
        heal_at: Option<u64>,
        group_of: impl Fn(SiteId) -> Option<usize>,
    ) -> bool {
        // 0 is "unlisted", group `g` is `g + 1`.
        let code = |site| group_of(site).map_or(Some(0), |g| u8::try_from(g + 1).ok());
        let Some(master) = code(SiteId(0)) else { return false };
        self.key.extend([at, u64::from(heal_at.is_some()), heal_at.unwrap_or(0), master.into()]);
        for (colour, site) in &mut self.order {
            let Some(group) = code(SiteId(*site)) else { return false };
            *colour |= u64::from(group) << (1 + 8 * e);
        }
        true
    }

    /// `outcomes` of a run of the signed scenario, in canonical order.
    fn canonical(&self, outcomes: &[SiteOutcome], into: &mut Vec<SiteOutcome>) {
        into.clear();
        into.push(outcomes[0]);
        into.extend(self.order.iter().map(|&(_, site)| outcomes[usize::from(site)]));
    }

    /// A twin's canonical `outcomes` relabelled onto the signed scenario's
    /// sites: `into[σ(i)] = twin[i]`.
    fn relabel(&self, canonical: &[SiteOutcome], into: &mut Vec<SiteOutcome>) {
        into.clear();
        into.resize(canonical.len(), SiteOutcome::default());
        into[0] = canonical[0];
        for (&(_, site), &outcome) in self.order.iter().zip(&canonical[1..]) {
            into[usize::from(site)] = outcome;
        }
    }
}

/// A free slot of [`Memo::index`].
const EMPTY: u32 = u32::MAX;

/// A fixed-capacity memo of learned runs, looked up by key hash: a ring of
/// at most `capacity` entries that overwrites its oldest once full, and an
/// open-addressed index (linear probing, twice the capacity, a power of
/// two) from a hash to its ring slot. The index is sized on the first
/// learned run and the ring grows with what is learned, so an empty session
/// allocates nothing for a memo.
struct Memo<E> {
    capacity: usize,
    /// `(hash, entry)` in ring order.
    entries: Vec<(u64, E)>,
    /// The ring slot a run learned into a full memo overwrites: the oldest.
    oldest: usize,
    index: Vec<u32>,
}

impl<E> Memo<E> {
    fn new(capacity: usize) -> Memo<E> {
        assert!(capacity > 0 && capacity < EMPTY as usize);
        Memo { capacity, entries: Vec::new(), oldest: 0, index: Vec::new() }
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The ring slot of the entry filed under `hash` that `is_key` accepts.
    fn find(&self, hash: u64, is_key: impl Fn(&E) -> bool) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mut probe = hash as usize & self.mask();
        loop {
            let slot = self.index[probe];
            if slot == EMPTY {
                return None;
            }
            let (h, entry) = &self.entries[slot as usize];
            if *h == hash && is_key(entry) {
                return Some(slot as usize);
            }
            probe = (probe + 1) & self.mask();
        }
    }

    fn get(&self, slot: usize) -> &E {
        &self.entries[slot].1
    }

    /// Files a run learned under `hash`: while there is room `None`, and the
    /// caller [`Memo::push`]es it; once full the oldest entry, re-filed under
    /// `hash`, for the caller to overwrite in place.
    fn recycle(&mut self, hash: u64) -> Option<&mut E> {
        if self.entries.len() < self.capacity {
            return None;
        }
        let slot = self.oldest;
        self.oldest = (slot + 1) % self.capacity;
        self.unindex(slot);
        self.entries[slot].0 = hash;
        self.index_slot(slot);
        Some(&mut self.entries[slot].1)
    }

    fn push(&mut self, hash: u64, entry: E) {
        assert!(self.entries.len() < self.capacity, "a full memo recycles");
        if self.index.is_empty() {
            self.index = vec![EMPTY; (2 * self.capacity).next_power_of_two()];
        }
        self.entries.push((hash, entry));
        self.index_slot(self.entries.len() - 1);
    }

    fn home(&self, slot: u32) -> usize {
        self.entries[slot as usize].0 as usize & self.mask()
    }

    fn index_slot(&mut self, slot: usize) {
        let mut probe = self.home(slot as u32);
        while self.index[probe] != EMPTY {
            probe = (probe + 1) & self.mask();
        }
        self.index[probe] = slot as u32;
    }

    /// Takes `slot` out of the index by backward-shift deletion: every later
    /// entry of its probe run that may sit in the hole moves into it, so no
    /// run is broken and no tombstone is left.
    fn unindex(&mut self, slot: usize) {
        let mask = self.mask();
        let mut hole = self.home(slot as u32);
        while self.index[hole] as usize != slot {
            hole = (hole + 1) & mask;
        }
        let mut probe = hole;
        loop {
            probe = (probe + 1) & mask;
            let moved = self.index[probe];
            if moved == EMPTY {
                break;
            }
            // It may move if the hole lies on its way from its home.
            let home = self.home(moved);
            if probe.wrapping_sub(home) & mask >= probe.wrapping_sub(hole) & mask {
                self.index[hole] = moved;
                hole = probe;
            }
        }
        self.index[hole] = EMPTY;
    }
}

/// Rule 1: a schedule whose first episode starts at `first` (`None`: no
/// episode) cannot reach a run whose last message was due to land at
/// `last_landing`. Strictly: a message landing *at* the partition instant
/// bounces.
fn out_of_reach(first: Option<SimTime>, last_landing: SimTime) -> bool {
    first.is_none_or(|at| at > last_landing)
}

/// Does `scenario` inject partitions only? A site failure, a degraded-delay
/// window or an envelope fault is outside what either rule speaks of.
fn partitions_only(scenario: &Scenario) -> bool {
    let faults = &scenario.faults;
    faults.failures.is_empty() && faults.degrades.is_empty() && faults.env_faults.is_empty()
}

/// When `scenario`'s first partition episode starts; `None` if it has none.
fn first_episode(scenario: &Scenario) -> Option<SimTime> {
    match &scenario.partition {
        PartitionShape::Simple { at, .. } => Some(SimTime(*at)),
        PartitionShape::None => scenario.faults.partition.episodes().iter().map(|e| e.at).min(),
    }
}

/// What the memos know of a scenario.
enum Recall {
    /// Rule 1: the partition-free run in this slot is the scenario's.
    PartitionFree(usize),
    /// Rule 2: the scenario's run is a twin's, whose outcomes are now in
    /// [`Session::relabelled`] and whose report this is.
    Twin(RunReport),
    /// Neither: simulate; `signed` if rule 2 covers the scenario, so the
    /// run is to be learned as a twin.
    Unknown { signed: bool },
}

impl Session {
    /// How many partition-free runs a session remembers: enough for every
    /// `(delay, votes)` pair of `ptp_bench::dense_grid(n)` (5) and of the
    /// Theorem 9 scorecards that share one pooled session (20) at once.
    /// Learning one more forgets the oldest.
    pub const PARTITION_FREE_RUNS: usize = 32;

    /// How many twins a session remembers: enough for every fixed-delay key
    /// of `ptp_bench::dense_grid(6)` at once (3 delays × 65 instants × 5
    /// boundary sizes = 975). Learning one more forgets the oldest.
    pub const SYMMETRIC_RUNS: usize = 1024;

    /// Builds the cluster for `kind` with `n` sites (site 0 the master).
    /// Votes are supplied per run by each scenario.
    pub fn new(kind: ProtocolKind, n: usize) -> Session {
        assert!(n >= 2);
        let votes = vec![Vote::Yes; n - 1];
        let runner = ClusterRunner::new(kind.cluster(n, &votes));
        Session {
            kind,
            n,
            runner,
            executed: 0,
            partition_free: Memo::new(Self::PARTITION_FREE_RUNS),
            twins: Memo::new(Self::SYMMETRIC_RUNS),
            signature: Signature::default(),
            relabelled: Vec::with_capacity(n),
        }
    }

    /// The protocol this session runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The cluster size.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// How many simulations this session has run since it was built. It only
    /// grows. The session answers a scenario without simulating it when it
    /// can prove the result (module docs, "Proving before simulating"), and
    /// such an answer does not count, so reading this before and after a
    /// sweep tells how many of the grid's cells were actually run.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Switches handler-time profiling on or off for subsequent runs (see
    /// [`ptp_simnet::Profile`]). Off by default; while on, samples
    /// accumulate across runs until [`Session::take_profile`].
    pub fn set_profiling(&mut self, on: bool) {
        self.runner.set_profiling(on);
    }

    /// Drains the profile accumulated since profiling was switched on (or
    /// last drained). Empty unless [`Session::set_profiling`] is on.
    pub fn take_profile(&mut self) -> ptp_simnet::Profile {
        self.runner.take_profile()
    }

    /// Runs `scenario` with default options (no trace, counters only — the
    /// fast path; [`ScenarioResult::trace`] comes back empty). Use
    /// [`Session::run_with`] and [`RunOptions::recording`] when the trace
    /// itself is needed.
    pub fn run(&mut self, scenario: &Scenario) -> ScenarioResult {
        self.run_with(scenario, &RunOptions::new())
    }

    /// Runs `scenario` under typed [`RunOptions`], to the scenario's own
    /// horizon — or, when a run the session remembers provably is this run
    /// (module docs), answers from it without simulating: a partition-free
    /// run's verdict, outcomes, report and trace as they are, a twin's
    /// outcomes relabelled, the verdict judged from them and its report.
    ///
    /// # Panics
    ///
    /// If `scenario.n` differs from the session's cluster size.
    pub fn run_with(&mut self, scenario: &Scenario, options: &RunOptions) -> ScenarioResult {
        match self.recall(scenario, options) {
            Recall::PartitionFree(slot) => {
                let run = self.partition_free.get(slot);
                ScenarioResult {
                    verdict: run.verdict.clone(),
                    outcomes: run.outcomes.clone(),
                    trace: run.trace.clone(),
                    report: run.report,
                }
            }
            Recall::Twin(report) => ScenarioResult {
                verdict: Verdict::judge(&self.relabelled),
                outcomes: self.relabelled.clone(),
                trace: Trace::default(),
                report,
            },
            Recall::Unknown { signed } => {
                let (verdict, trace, report) = self.simulate(scenario, options, signed);
                let outcomes = self.runner.last_outcomes().to_vec();
                ScenarioResult { verdict, outcomes, trace, report }
            }
        }
    }

    /// Runs `scenario` and returns only the verdict — the sweep hot path:
    /// no outcome vector, no trace, nothing cloned. Answered from the memos
    /// as [`Session::run_with`] is.
    pub fn verdict(&mut self, scenario: &Scenario, options: &RunOptions) -> Verdict {
        match self.recall(scenario, options) {
            Recall::PartitionFree(slot) => self.partition_free.get(slot).verdict.clone(),
            Recall::Twin(_) => Verdict::judge(&self.relabelled),
            Recall::Unknown { signed } => self.simulate(scenario, options, signed).0,
        }
    }

    /// What the memos know of `scenario`: rule 1 is asked first, then rule 2.
    fn recall(&mut self, scenario: &Scenario, options: &RunOptions) -> Recall {
        if !partitions_only(scenario) {
            return Recall::Unknown { signed: false };
        }
        // A key is learned at most once (see `remember`), so the one run of
        // the key is the only one that can answer.
        let hash = partition_free_hash(scenario, options);
        if let Some(slot) = self.partition_free.find(hash, |run| run.has_key_of(scenario, options))
        {
            if out_of_reach(first_episode(scenario), self.partition_free.get(slot).last_landing) {
                return Recall::PartitionFree(slot);
            }
        }
        if !self.signature.sign(scenario, options) {
            return Recall::Unknown { signed: false };
        }
        let signature = &self.signature;
        let Some(slot) = self.twins.find(signature.hash, |twin| twin.key == signature.key) else {
            return Recall::Unknown { signed: true };
        };
        let twin = self.twins.get(slot);
        signature.relabel(&twin.outcomes, &mut self.relabelled);
        let report = twin.report;
        if cfg!(debug_assertions) {
            self.check_twin(scenario, &report);
        }
        Recall::Twin(report)
    }

    /// Simulates a symmetric answer's scenario without counting or learning
    /// it, and asserts that the run is the relabelled twin (module docs,
    /// rule 2, property (3)). Debug builds only.
    fn check_twin(&mut self, scenario: &Scenario, report: &RunReport) {
        let executed = self.executed;
        let (_, simulated) = self.execute(scenario, &RunOptions::new());
        self.executed = executed;
        assert!(
            self.runner.last_outcomes() == self.relabelled && simulated == *report,
            "{} at n = {}: the relabelled twin is not the run of {scenario:?}:\n\
             simulated {:?}, {simulated:?}\nanswered  {:?}, {report:?}",
            self.kind.name(),
            self.n,
            self.runner.last_outcomes(),
            self.relabelled,
        );
    }

    /// Simulates `scenario`, and remembers the run: as a partition-free run
    /// when no episode can have reached it, else as a twin when `signed`.
    fn simulate(
        &mut self,
        scenario: &Scenario,
        options: &RunOptions,
        signed: bool,
    ) -> (Verdict, Trace, RunReport) {
        let (trace, report) = self.execute(scenario, options);
        let verdict = Verdict::judge(self.runner.last_outcomes());
        if partitions_only(scenario) && out_of_reach(first_episode(scenario), report.last_landing) {
            // Nothing but partitions, and none reached the run: it cannot
            // have lost or returned a message.
            debug_assert!(
                report.counters.returned == 0 && report.counters.dropped == 0,
                "no episode reached the run, yet {:?}",
                report.counters
            );
            self.remember(scenario, options, &verdict, &trace, report);
        } else if signed {
            self.learn_twin(report);
        }
        (verdict, trace, report)
    }

    /// Stores the partition-free run just simulated, overwriting the oldest
    /// run once the memo is full. An overwrite reuses that run's buffers, so
    /// a warm session learns without allocating.
    fn remember(
        &mut self,
        scenario: &Scenario,
        options: &RunOptions,
        verdict: &Verdict,
        trace: &Trace,
        report: RunReport,
    ) {
        let hash = partition_free_hash(scenario, options);
        // The key cannot be known yet: a scenario its run did not answer
        // starts no later than that run's last landing, and then so does its
        // own run's, whether or not an episode reached it.
        debug_assert!(self
            .partition_free
            .find(hash, |run| run.has_key_of(scenario, options))
            .is_none());
        let outcomes = self.runner.last_outcomes();
        if let Some(run) = self.partition_free.recycle(hash) {
            run.votes.clone_from(&scenario.votes);
            run.delay.clone_from(&scenario.delay);
            (run.t_unit, run.horizon_t, run.mode) =
                (scenario.t_unit, scenario.horizon_t, scenario.mode);
            run.record = options.record;
            run.last_landing = report.last_landing;
            run.verdict.clone_from(verdict);
            run.outcomes.clear();
            run.outcomes.extend_from_slice(outcomes);
            run.report = report;
            run.trace.clone_from(trace);
        } else {
            let run = PartitionFreeRun {
                votes: scenario.votes.clone(),
                delay: scenario.delay.clone(),
                t_unit: scenario.t_unit,
                horizon_t: scenario.horizon_t,
                mode: scenario.mode,
                record: options.record,
                last_landing: report.last_landing,
                verdict: verdict.clone(),
                outcomes: outcomes.to_vec(),
                report,
                trace: trace.clone(),
            };
            self.partition_free.push(hash, run);
        }
    }

    /// Stores the run just simulated as the twin of its signature (which
    /// [`Session::recall`] found unknown), overwriting the oldest twin in
    /// place once the memo is full.
    fn learn_twin(&mut self, report: RunReport) {
        let (signature, outcomes) = (&self.signature, self.runner.last_outcomes());
        if let Some(twin) = self.twins.recycle(signature.hash) {
            twin.key.clone_from(&signature.key);
            signature.canonical(outcomes, &mut twin.outcomes);
            twin.report = report;
        } else {
            let mut twin = Twin { key: signature.key.clone(), outcomes: Vec::new(), report };
            signature.canonical(outcomes, &mut twin.outcomes);
            self.twins.push(signature.hash, twin);
        }
    }

    fn execute(&mut self, scenario: &Scenario, options: &RunOptions) -> (Trace, RunReport) {
        assert_eq!(
            scenario.n, self.n,
            "scenario has {} sites but the session was built for {}",
            scenario.n, self.n
        );
        self.executed += 1;
        self.runner.reset(&scenario.votes);
        scenario.write_faults(self.runner.faults_mut());
        let (_, trace, report) =
            self.runner.run(scenario.net_config(), &scenario.delay, options.record);
        (trace, report)
    }
}

/// A lazily built collection of [`Session`]s keyed by `(kind, n)`.
///
/// Flows that interleave several protocols or cluster sizes — the Sec. 6
/// case classifier, the quorum baseline, protocol-comparison tables — hold
/// one pool and route every run through it, so each distinct cluster is
/// built exactly once for the whole flow instead of once per call site.
///
/// ```
/// use ptp_core::{ProtocolKind, Scenario, SessionPool};
/// use ptp_simnet::SiteId;
///
/// let mut pool = SessionPool::new();
/// for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::QuorumMajority] {
///     for at in [1500u64, 2500] {
///         let scenario = Scenario::new(5).partition_g2(vec![SiteId(4)], at);
///         let result = pool.session(kind, 5).run(&scenario);
///         assert!(result.verdict.is_atomic());
///     }
/// }
/// assert_eq!(pool.len(), 2); // one cluster per kind, reused across runs
/// ```
#[derive(Default)]
pub struct SessionPool {
    sessions: std::collections::BTreeMap<(ProtocolKind, usize), Session>,
}

impl SessionPool {
    /// An empty pool; sessions are built on first request.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// The session for `(kind, n)`, building it on first use.
    pub fn session(&mut self, kind: ProtocolKind, n: usize) -> &mut Session {
        self.sessions.entry((kind, n)).or_insert_with(|| Session::new(kind, n))
    }

    /// Number of distinct clusters built so far.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Has no session been built yet?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_model::Decision;
    use ptp_simnet::{DelayModel, SiteId};

    /// A fresh session's one run of `scenario`, recorded.
    fn fresh(kind: ProtocolKind, scenario: &Scenario) -> ScenarioResult {
        Session::new(kind, scenario.n).run_with(scenario, &RunOptions::recording())
    }

    #[test]
    fn every_protocol_commits_failure_free() {
        let s = Scenario::new(3);
        for kind in ProtocolKind::ALL {
            assert_eq!(fresh(kind, &s).verdict, Verdict::AllCommit, "{}", kind.name());
        }
    }

    #[test]
    fn every_protocol_aborts_on_no_vote() {
        let s = Scenario::new(3).votes(vec![Vote::Yes, Vote::No]);
        for kind in ProtocolKind::ALL {
            assert_eq!(fresh(kind, &s).verdict, Verdict::AllAbort, "{}", kind.name());
        }
    }

    #[test]
    fn plain_2pc_blocks_under_partition() {
        // Partition strikes while the slaves wait for the decision: the cut
        // slave can never learn it and blocks (the paper's Sec. 1 story).
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        let r = fresh(ProtocolKind::Plain2pc, &s);
        assert!(
            matches!(r.verdict, Verdict::Blocked { .. }),
            "expected blocking, got {:?}",
            r.verdict
        );
    }

    #[test]
    fn huang_li_survives_a_nasty_partition() {
        // Split right as prepares are in flight.
        let s = Scenario::new(4).partition_g2(vec![SiteId(2), SiteId(3)], 2500);
        let r = fresh(ProtocolKind::HuangLi3pc, &s);
        assert!(r.verdict.is_resilient(), "{:?}", r.verdict);
    }

    #[test]
    fn huang_li_decides_commit_when_no_partition_interferes() {
        let r = fresh(ProtocolKind::HuangLi3pc, &Scenario::new(5));
        for o in &r.outcomes {
            assert_eq!(o.decision, Some(Decision::Commit));
        }
    }

    #[test]
    fn counters_mode_matches_recording_mode_on_transient_partition() {
        // Recording a trace must never feed back into protocol
        // behaviour: verdict, per-site outcomes and event counters all
        // match; only the trace itself is withheld.
        let s = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 7500)
            .delay(DelayModel::Uniform { seed: 42, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let recorded = fresh(kind, &s);
            let quiet = Session::new(kind, 4).run(&s);
            assert_eq!(recorded.verdict, quiet.verdict, "{}", kind.name());
            assert_eq!(recorded.outcomes, quiet.outcomes, "{}", kind.name());
            assert_eq!(recorded.report.counters, quiet.report.counters, "{}", kind.name());
            assert_eq!(recorded.report.events, quiet.report.events, "{}", kind.name());
            assert!(!recorded.trace.is_empty(), "{}", kind.name());
            assert!(quiet.trace.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn quorum_minority_blocks() {
        // n=3 majority quorums: the lone slave cut off mid-protocol cannot
        // assemble any quorum and blocks.
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        match fresh(ProtocolKind::QuorumMajority, &s).verdict {
            Verdict::Blocked { ref undecided, .. } => {
                assert_eq!(undecided, &vec![SiteId(2)]);
            }
            ref other => panic!("expected minority blocking, got {other:?}"),
        }
    }

    #[test]
    fn warm_session_matches_a_fresh_one_for_every_kind() {
        let s = Scenario::new(4)
            .transient_partition(vec![SiteId(2), SiteId(3)], 2500, 7500)
            .delay(DelayModel::Uniform { seed: 42, min: 1, max: 1000 });
        for kind in ProtocolKind::ALL {
            let mut session = Session::new(kind, 4);
            // Run twice through the same session: the second (warm) run must
            // match a fresh session's first in every field.
            let _ = session.run_with(&s, &RunOptions::recording());
            let warm = session.run_with(&s, &RunOptions::recording());
            let fresh = fresh(kind, &s);
            assert_eq!(warm.verdict, fresh.verdict, "{}", kind.name());
            assert_eq!(warm.outcomes, fresh.outcomes, "{}", kind.name());
            assert_eq!(warm.trace.events(), fresh.trace.events(), "{}", kind.name());
            assert_eq!(warm.report.counters, fresh.report.counters, "{}", kind.name());
            assert_eq!(warm.report.events, fresh.report.events, "{}", kind.name());
        }
    }

    #[test]
    fn session_runs_interleaved_shapes() {
        // Partitioned, clean, multiple, transient — buffer reuse across
        // shape changes must not leak state between runs.
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let partitioned = Scenario::new(3).partition_g2(vec![SiteId(2)], 2500);
        let clean = Scenario::new(3);
        let transient = Scenario::new(3).transient_partition(vec![SiteId(1)], 1000, 9000);
        for s in [&partitioned, &clean, &transient, &clean, &partitioned] {
            let r = session.run(s);
            assert!(r.verdict.is_resilient(), "{:?}", r.verdict);
            let fresh = Session::new(ProtocolKind::HuangLi3pc, 3).run(s);
            assert_eq!(r.verdict, fresh.verdict);
            assert_eq!(r.outcomes, fresh.outcomes);
        }
    }

    #[test]
    fn verdict_path_matches_full_path() {
        let s = Scenario::new(3).partition_g2(vec![SiteId(2)], 2100);
        let mut session = Session::new(ProtocolKind::Plain2pc, 3);
        let v = session.verdict(&s, &RunOptions::new());
        let full = session.run(&s);
        assert_eq!(v, full.verdict);
        assert!(matches!(v, Verdict::Blocked { .. }));
    }

    #[test]
    fn a_partition_after_the_last_landing_is_answered_without_simulating() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let clean = session.run(&Scenario::new(3));
        let last_landing = clean.report.last_landing.ticks();
        let late = Scenario::new(3).partition_g2(vec![SiteId(2)], last_landing + 1);
        let answer = session.run(&late);
        assert_eq!(session.executed(), 1, "answered from the partition-free run");
        assert_eq!((&answer.verdict, &answer.outcomes), (&clean.verdict, &clean.outcomes));
        assert_eq!(answer.report.events, clean.report.events);
        assert_eq!(session.verdict(&late, &RunOptions::new()), clean.verdict);
        assert_eq!(session.executed(), 1);
        // Strict: a partition at the last landing bounces that message.
        let _ = session.run(&Scenario::new(3).partition_g2(vec![SiteId(2)], last_landing));
        assert_eq!(session.executed(), 2);
        // Recording is part of the key: the first recorded run simulates,
        // the second is answered, trace and all.
        let recorded = session.run_with(&late, &RunOptions::recording());
        let again = session.run_with(&late, &RunOptions::recording());
        assert_eq!(session.executed(), 3);
        assert!(!again.trace.is_empty());
        assert_eq!(again.trace.events(), recorded.trace.events());
    }

    #[test]
    fn the_memo_forgets_its_oldest_run_beyond_its_bound() {
        let mut session = Session::new(ProtocolKind::Plain2pc, 3);
        let clean = |d: u64| Scenario::new(3).delay(DelayModel::Fixed(d));
        let bound = Session::PARTITION_FREE_RUNS as u64;
        for round in 0..2 {
            for d in 1..=bound {
                let _ = session.run(&clean(d));
            }
            assert_eq!(session.executed(), bound, "round {round}: all remembered");
        }
        // One more key forgets the oldest, and only it, however recently the
        // oldest was asked for.
        let _ = session.run(&clean(1));
        let _ = session.run(&clean(bound + 1));
        let _ = session.run(&clean(2));
        assert_eq!(session.executed(), bound + 1);
        let _ = session.run(&clean(1));
        assert_eq!(session.executed(), bound + 2, "the oldest was forgotten");
        // Re-learning it forgot the next oldest.
        let _ = session.run(&clean(3));
        assert_eq!(session.executed(), bound + 2);
        let _ = session.run(&clean(2));
        assert_eq!(session.executed(), bound + 3);
    }

    #[test]
    fn the_memo_index_finds_exactly_what_its_ring_holds() {
        // A FIFO of (hash, key) pairs is the oracle. Hashes are drawn from
        // a range narrower than the index, so probe runs collide, wrap
        // round the table's end and lose members to backward shifts.
        let mut rng = ptp_simnet::rng::SmallRng::seed_from_u64(50);
        for capacity in [1, 2, 3, 8, 32] {
            let mut memo: Memo<u64> = Memo::new(capacity);
            let mut oracle = std::collections::VecDeque::new();
            let hash_of = |key: u64| key % (capacity as u64 + 3) * 0x9e37_79b9;
            for _ in 0..4000 {
                let key = rng.gen_range(0..=(4 * capacity as u64));
                let hash = hash_of(key);
                let found = memo.find(hash, |&k| k == key).map(|slot| *memo.get(slot));
                let expected = oracle.iter().find(|&&(_, k)| k == key).map(|&(_, k)| k);
                assert_eq!(found, expected, "capacity {capacity}, key {key}");
                if found.is_none() {
                    if oracle.len() == capacity {
                        oracle.pop_front();
                    }
                    oracle.push_back((hash, key));
                    match memo.recycle(hash) {
                        Some(entry) => *entry = key,
                        None => memo.push(hash, key),
                    }
                }
                let indexed = memo.index.iter().filter(|&&slot| slot != EMPTY).count();
                assert_eq!(indexed, oracle.len(), "capacity {capacity}: one index slot per entry");
            }
        }
    }

    #[test]
    fn default_run_skips_the_trace() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let quiet = session.run(&Scenario::new(3));
        assert!(quiet.trace.is_empty());
        let recorded = session.run_with(&Scenario::new(3), &RunOptions::recording());
        assert!(!recorded.trace.is_empty());
        assert_eq!(quiet.report.counters, recorded.report.counters);
    }

    #[test]
    #[should_panic(expected = "sites")]
    fn wrong_cluster_size_panics() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let _ = session.run(&Scenario::new(4));
    }

    #[test]
    fn session_pool_builds_each_cluster_once_and_matches_a_fresh_session() {
        let mut pool = SessionPool::new();
        assert!(pool.is_empty());
        let scenarios = [Scenario::new(3).partition_g2(vec![SiteId(2)], 2500), Scenario::new(3)];
        for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::Plain2pc, ProtocolKind::HuangLi3pc] {
            for s in &scenarios {
                let pooled = pool.session(kind, 3).run(s);
                let fresh = fresh(kind, s);
                assert_eq!(pooled.verdict, fresh.verdict, "{}", kind.name());
                assert_eq!(pooled.outcomes, fresh.outcomes, "{}", kind.name());
            }
        }
        // Two distinct kinds at one size: exactly two clusters ever built.
        assert_eq!(pool.len(), 2);
        let _ = pool.session(ProtocolKind::HuangLi3pc, 4);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn vote_changes_take_effect_across_runs() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let yes = session.run(&Scenario::new(3));
        assert_eq!(yes.verdict, Verdict::AllCommit);
        let no = session.run(&Scenario::new(3).votes(vec![Vote::Yes, Vote::No]));
        assert_eq!(no.verdict, Verdict::AllAbort);
        let yes_again = session.run(&Scenario::new(3));
        assert_eq!(yes_again.verdict, Verdict::AllCommit);
    }
}
