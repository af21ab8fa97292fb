//! Resilience sweeps: exhaustive grids over partition boundaries, partition
//! instants, heal instants, and delay schedules.
//!
//! This is the experimental engine behind Theorem 9's claim (E10): the
//! paper proves the termination protocol resilient; we *test* it against
//! every simple boundary × a dense grid of partition times × several delay
//! schedules, and report any scenario whose verdict is not
//! all-commit/all-abort. The same engine condemns the baselines (E2, E3,
//! E5) by exhibiting their counterexample scenarios.
//!
//! ## Execution model
//!
//! Every grid cell is independent (each simulation is seeded from its own
//! `DelayModel`), so the engine enumerates cells by flat index
//! ([`SweepGrid::scenario`]) and fans contiguous index blocks out across a
//! scoped thread pool. Workers fold their blocks into partial
//! [`SweepReport`]s which are reduced **in block order**, so
//! [`sweep_with_threads`] returns bit-identical reports — kept
//! counterexamples included — to [`sweep_serial`] at any thread count (pass
//! [`sweep_threads`] for the machine's). There are three ways in and no
//! others: [`sweep_serial`], [`sweep_with_session`] (a caller's session)
//! and [`sweep_with_threads`]. Each worker owns one
//! [`crate::Session`] (the cluster and simulator buffers are built once per
//! worker, not once per cell) plus one [`Scenario`] scratch buffer per
//! delay model of the grid (votes and G2 are rewritten in place, a delay
//! model is never cloned per cell), and runs
//! cells through the verdict-only fast path — so the steady-state hot path
//! performs no cluster construction, no participant boxing, no G1/G2
//! rebuild, and no trace allocation.
//!
//! ### Proving before simulating
//!
//! A partition that starts after a run's last message has landed cannot
//! touch the run, so about half the cells of a grid that runs partition
//! instants out to `8T` are the partition-free run over again. The engine
//! does not decide that itself: every cell goes through
//! [`crate::Session::verdict`], and the session answers such a cell from
//! the partition-free run it already simulated (the rule and its proof are
//! in [`mod@crate::session`], "Proving before simulating"). Reports are
//! unchanged by construction (`tests/sweep_pruning.rs` folds a fresh
//! session's [`crate::Session::verdict`] per cell as oracle); only
//! [`crate::Session::executed`] tells how many cells were simulated, and
//! since each worker's session learns on its own that count is kept out of
//! [`SweepReport`].

use crate::scenario::{PartitionShape, ProtocolKind, Scenario};
use crate::session::Session;
use ptp_protocols::api::Vote;
use ptp_protocols::{RunOptions, Verdict};
use ptp_simnet::{DelayModel, PartitionEngine, PartitionMode, SimTime, SiteId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Every simple boundary for `n` sites: the non-master group G2 ranges over
/// all non-empty proper subsets of the slaves. (The master defines G1,
/// Sec. 5.2.)
pub fn all_simple_boundaries(n: usize) -> Vec<Vec<SiteId>> {
    let slaves: Vec<SiteId> = (1..n as u16).map(SiteId).collect();
    let mut out = Vec::new();
    // Non-empty subsets of slaves; G2 = subset. G2 = all slaves is allowed
    // (master alone in G1).
    for mask in 1..(1u32 << slaves.len()) {
        let g2: Vec<SiteId> = slaves
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, s)| *s)
            .collect();
        out.push(g2);
    }
    out
}

/// A family of partition *schedules*, parameterized by one grid cell's
/// boundary (`g2`), partition instant and heal delay. The sweep engine
/// enumerates these alongside the classic axes, so one grid can compare the
/// paper's simple partitioning against the multi-episode / multi-group
/// generalizations that break its assumptions.
///
/// For every shape the grid's heal axis governs the **final** episode
/// (relative to that episode's start); earlier episodes derive their
/// instants from the shape's own parameters.
///
/// # Examples
///
/// ```
/// use ptp_core::ScheduleShape;
/// use ptp_simnet::{PartitionEngine, SimTime, SiteId};
///
/// // Derive the concrete schedule a nested secession implies for the
/// // boundary G2 = {2, 3} of a 4-site cluster, split at t = 2000.
/// let shape = ScheduleShape::NestedSecession { after: 1500 };
/// let mut schedule = PartitionEngine::always_connected();
/// shape.write_schedule(4, &[SiteId(2), SiteId(3)], 2000, None, &mut schedule);
/// assert_eq!(schedule.episodes().len(), 2);
/// assert_eq!(schedule.episodes()[0].groups.len(), 2); // [G1 | G2]
/// assert_eq!(schedule.episodes()[1].groups.len(), 3); // [G1 | {2} | {3}]
/// assert_eq!(schedule.episodes()[1].at, SimTime(3500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleShape {
    /// The paper's model: one episode, two groups `[G1 | G2]` — exactly
    /// what the legacy single-episode (`reset_single`) path replays.
    Simple,
    /// Split `[G1 | G2]` at `at`, heal `heal_after` ticks later, then split
    /// along the same boundary again `resplit_after` ticks after the heal.
    /// Sec. 6's repeated-transient-partition story as a schedule.
    SplitHealResplit {
        /// Ticks from the split to the heal.
        heal_after: u64,
        /// Ticks from the heal to the second split.
        resplit_after: u64,
    },
    /// One episode, `1 + g2_groups` groups: G2 is dealt round-robin into
    /// `g2_groups` fragments (`g2_groups >= 2` gives the multiple
    /// partitioning of experiment E12).
    MultiWay {
        /// Number of fragments G2 shatters into.
        g2_groups: usize,
    },
    /// Nested secession: simple split `[G1 | G2]` at `at`; `after` ticks
    /// later the tail half of G2 secedes from its own fragment, giving
    /// three groups with no reconnect instant in between.
    NestedSecession {
        /// Ticks from the first split to the inner secession.
        after: u64,
    },
}

impl ScheduleShape {
    /// The default schedule families [`SweepGrid::schedule_families`]
    /// enumerates: the simple baseline plus three multi-episode /
    /// multi-group generalizations.
    pub const FAMILIES: [ScheduleShape; 4] = [
        ScheduleShape::Simple,
        ScheduleShape::SplitHealResplit { heal_after: 1500, resplit_after: 1500 },
        ScheduleShape::MultiWay { g2_groups: 2 },
        ScheduleShape::NestedSecession { after: 1500 },
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleShape::Simple => "simple",
            ScheduleShape::SplitHealResplit { .. } => "split-heal-resplit",
            ScheduleShape::MultiWay { .. } => "multi-way",
            ScheduleShape::NestedSecession { .. } => "nested-secession",
        }
    }

    /// Episodes the derived schedule will have.
    pub fn episode_count(self) -> usize {
        match self {
            ScheduleShape::Simple | ScheduleShape::MultiWay { .. } => 1,
            ScheduleShape::SplitHealResplit { .. } | ScheduleShape::NestedSecession { .. } => 2,
        }
    }

    /// True for shapes that leave the paper's simple-partitioning model
    /// (more than one episode, or more than two groups).
    pub fn is_simple(self) -> bool {
        matches!(self, ScheduleShape::Simple)
    }

    /// Writes the concrete schedule this shape derives from one grid cell —
    /// boundary `g2` (G1 is the complement in `0..n`), partition instant
    /// `at`, final-episode heal delay `heal` — into `schedule` in place,
    /// recycling its episode and group buffers.
    pub fn write_schedule(
        self,
        n: usize,
        g2: &[SiteId],
        at: u64,
        heal: Option<u64>,
        schedule: &mut PartitionEngine,
    ) {
        let heal_from = |at: u64| heal.map(|h| SimTime(at + h));
        fn fill_g1(buf: &mut Vec<SiteId>, n: usize, g2: &[SiteId]) {
            buf.extend((0..n as u16).map(SiteId).filter(|s| !g2.contains(s)));
        }
        match self {
            ScheduleShape::Simple => {
                schedule.reset_schedule(1);
                let bufs = schedule.episode_groups(0, SimTime(at), heal_from(at), 2);
                fill_g1(&mut bufs[0], n, g2);
                bufs[1].extend_from_slice(g2);
            }
            ScheduleShape::SplitHealResplit { heal_after, resplit_after } => {
                assert!(heal_after > 0, "the first episode must heal before the re-split");
                schedule.reset_schedule(2);
                let bufs =
                    schedule.episode_groups(0, SimTime(at), Some(SimTime(at + heal_after)), 2);
                fill_g1(&mut bufs[0], n, g2);
                bufs[1].extend_from_slice(g2);
                let at2 = at + heal_after + resplit_after;
                let bufs = schedule.episode_groups(1, SimTime(at2), heal_from(at2), 2);
                fill_g1(&mut bufs[0], n, g2);
                bufs[1].extend_from_slice(g2);
            }
            ScheduleShape::MultiWay { g2_groups } => {
                assert!(g2_groups >= 1, "G2 must shatter into at least one fragment");
                schedule.reset_schedule(1);
                let bufs = schedule.episode_groups(0, SimTime(at), heal_from(at), 1 + g2_groups);
                fill_g1(&mut bufs[0], n, g2);
                for (i, site) in g2.iter().enumerate() {
                    bufs[1 + i % g2_groups].push(*site);
                }
            }
            ScheduleShape::NestedSecession { after } => {
                assert!(after > 0, "the secession must follow the first split");
                schedule.reset_schedule(2);
                let bufs = schedule.episode_groups(0, SimTime(at), Some(SimTime(at + after)), 2);
                fill_g1(&mut bufs[0], n, g2);
                bufs[1].extend_from_slice(g2);
                let at2 = at + after;
                let bufs = schedule.episode_groups(1, SimTime(at2), heal_from(at2), 3);
                fill_g1(&mut bufs[0], n, g2);
                let head = g2.len().div_ceil(2);
                bufs[1].extend_from_slice(&g2[..head]);
                bufs[2].extend_from_slice(&g2[head..]);
            }
        }
    }
}

/// The grid of scenarios a sweep explores.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Cluster size.
    pub n: usize,
    /// Schedule families to try (default: just [`ScheduleShape::Simple`],
    /// the paper's model — existing grids are unchanged).
    pub shapes: Vec<ScheduleShape>,
    /// G2 groups to try (default: all simple boundaries).
    pub boundaries: Vec<Vec<SiteId>>,
    /// Partition instants in ticks (default: every T/4 from 0 to 8T).
    pub partition_times: Vec<u64>,
    /// Heal delays in ticks after the partition instant (`None` entries mean
    /// a permanent partition).
    pub heals: Vec<Option<u64>>,
    /// Delay models to try.
    pub delays: Vec<DelayModel>,
    /// Vote vectors to try (default: unanimous yes — the interesting case
    /// for partition resilience).
    pub votes: Vec<Vec<Vote>>,
    /// Optimistic or pessimistic undeliverable handling.
    pub mode: PartitionMode,
}

impl SweepGrid {
    /// The default grid for `n` sites with `t_unit = 1000`: all boundaries,
    /// partition times every T/4 up to 8T, permanent partitions, three delay
    /// schedules, unanimous yes.
    pub fn standard(n: usize) -> SweepGrid {
        let t = 1000u64;
        SweepGrid {
            n,
            shapes: vec![ScheduleShape::Simple],
            boundaries: all_simple_boundaries(n),
            partition_times: (0..=32).map(|i| i * t / 4).collect(),
            heals: vec![None],
            delays: vec![
                DelayModel::Fixed(t),
                DelayModel::Fixed(t / 2),
                DelayModel::Uniform { seed: 7, min: 1, max: t },
            ],
            votes: vec![vec![Vote::Yes; n - 1]],
            mode: PartitionMode::Optimistic,
        }
    }

    /// The standard grid extended over every default schedule family
    /// ([`ScheduleShape::FAMILIES`]): the simple baseline plus
    /// split→heal→re-split, three-way splits and nested secessions, each
    /// derived from the same boundary/instant/heal axes.
    pub fn schedule_families(n: usize) -> SweepGrid {
        let mut grid = SweepGrid::standard(n);
        grid.shapes = ScheduleShape::FAMILIES.to_vec();
        grid
    }

    /// Replaces the schedule-family axis.
    pub fn with_shapes(mut self, shapes: Vec<ScheduleShape>) -> SweepGrid {
        self.shapes = shapes;
        self
    }

    /// Adds transient-partition cases: heal after each given multiple of
    /// T/2 up to `max_heal_t * 2` steps.
    pub fn with_transient_heals(mut self, max_heal_t: u64) -> SweepGrid {
        self.heals =
            std::iter::once(None).chain((1..=max_heal_t * 2).map(|i| Some(i * 500))).collect();
        self
    }

    /// Replaces the vote grid.
    pub fn with_votes(mut self, votes: Vec<Vec<Vote>>) -> SweepGrid {
        self.votes = votes;
        self
    }

    /// Switches to the pessimistic (message-loss) model — experiment E12.
    pub fn pessimistic(mut self) -> SweepGrid {
        self.mode = PartitionMode::Pessimistic;
        self
    }

    /// Number of scenarios the grid will run, if it fits in `usize`.
    ///
    /// Five-way products overflow easily (a few hundred entries per axis
    /// already exceed `u64` territory on 32-bit hosts), so the arithmetic
    /// is checked.
    pub fn checked_size(&self) -> Option<usize> {
        self.shapes
            .len()
            .checked_mul(self.boundaries.len())?
            .checked_mul(self.partition_times.len())?
            .checked_mul(self.heals.len())?
            .checked_mul(self.delays.len())?
            .checked_mul(self.votes.len())
    }

    /// Number of scenarios the grid will run, saturating at `usize::MAX`
    /// instead of silently wrapping on overflow. Callers sizing real sweeps
    /// should prefer [`SweepGrid::checked_size`]; a saturated grid cannot
    /// actually be executed.
    pub fn size(&self) -> usize {
        self.checked_size().unwrap_or(usize::MAX)
    }

    /// Decodes flat cell index `index` (row-major over shapes × boundaries
    /// × partition times × heals × delays × votes — with a single
    /// [`ScheduleShape::Simple`] shape this is the exact order the old
    /// nested loops used) into a borrowed scenario description.
    ///
    /// # Panics
    ///
    /// If `index >= self.size()`.
    pub fn scenario(&self, index: usize) -> ScenarioSpec<'_> {
        assert!(index < self.size(), "scenario index {index} out of range");
        let mut rest = index;
        let vote_index = rest % self.votes.len();
        rest /= self.votes.len();
        let delay_index = rest % self.delays.len();
        rest /= self.delays.len();
        let heal = self.heals[rest % self.heals.len()];
        rest /= self.heals.len();
        let at = self.partition_times[rest % self.partition_times.len()];
        rest /= self.partition_times.len();
        let g2 = &self.boundaries[rest % self.boundaries.len()];
        rest /= self.boundaries.len();
        let shape = self.shapes[rest];
        ScenarioSpec { shape, g2, at, heal, delay_index, vote_index }
    }
}

/// One grid cell, decoded by [`SweepGrid::scenario`]: everything needed to
/// run the scenario, borrowed from the grid (no per-cell allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec<'g> {
    /// The schedule family the cell instantiates.
    pub shape: ScheduleShape,
    /// The G2 group.
    pub g2: &'g [SiteId],
    /// Partition instant (ticks).
    pub at: u64,
    /// Heal delay after the **final** episode's start (`None` = permanent).
    /// For single-episode shapes that episode starts at `at`, matching the
    /// old nested loops exactly.
    pub heal: Option<u64>,
    /// Index into the grid's delay list.
    pub delay_index: usize,
    /// Index into the grid's vote list.
    pub vote_index: usize,
}

impl ScenarioSpec<'_> {
    /// When this cell's final episode starts: `at` for single-episode
    /// shapes, later for the two-episode families (mirrors
    /// [`ScheduleShape::write_schedule`]'s derivation).
    pub fn final_episode_at(&self) -> u64 {
        match self.shape {
            ScheduleShape::Simple | ScheduleShape::MultiWay { .. } => self.at,
            ScheduleShape::SplitHealResplit { heal_after, resplit_after } => {
                self.at + heal_after + resplit_after
            }
            ScheduleShape::NestedSecession { after } => self.at + after,
        }
    }

    /// Absolute heal instant of the final episode — for the Simple shape,
    /// exactly what the old nested loops computed.
    pub fn heal_at(&self) -> Option<u64> {
        self.heal.map(|h| self.final_episode_at() + h)
    }

    /// Materialises the owned per-scenario record for reporting, attaching
    /// the observed verdict.
    pub fn describe(&self, verdict: Verdict) -> ScenarioDesc {
        ScenarioDesc {
            shape: self.shape,
            g2: self.g2.to_vec(),
            at: self.at,
            heal_at: self.heal_at(),
            delay_index: self.delay_index,
            vote_index: self.vote_index,
            verdict,
        }
    }
}

/// Compact identification of one failing scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioDesc {
    /// The schedule family the cell instantiated.
    pub shape: ScheduleShape,
    /// The G2 group.
    pub g2: Vec<SiteId>,
    /// Partition instant (ticks).
    pub at: u64,
    /// Heal instant (ticks), if transient.
    pub heal_at: Option<u64>,
    /// Index into the grid's delay list.
    pub delay_index: usize,
    /// Index into the grid's vote list.
    pub vote_index: usize,
    /// The verdict observed.
    pub verdict: Verdict,
}

/// Aggregated sweep results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Scenarios run.
    pub total: usize,
    /// Scenarios where every site committed.
    pub all_commit: usize,
    /// Scenarios where every site aborted.
    pub all_abort: usize,
    /// Scenarios with undecided sites (first few kept for reporting).
    pub blocked: Vec<ScenarioDesc>,
    /// Scenarios violating atomicity (first few kept for reporting).
    pub inconsistent: Vec<ScenarioDesc>,
    /// Counts beyond the kept examples.
    pub blocked_count: usize,
    /// Counts beyond the kept examples.
    pub inconsistent_count: usize,
}

impl SweepReport {
    /// Resilient on the whole grid: atomic and nonblocking everywhere.
    pub fn fully_resilient(&self) -> bool {
        self.blocked_count == 0 && self.inconsistent_count == 0
    }

    /// Atomicity held everywhere (blocking allowed).
    pub fn fully_atomic(&self) -> bool {
        self.inconsistent_count == 0
    }

    /// Folds one cell's verdict in, materialising a [`ScenarioDesc`] (and
    /// its G2 clone) only for kept counterexamples — the all-commit /
    /// all-abort bulk of a healthy sweep stays allocation-free.
    fn record_cell(&mut self, spec: &ScenarioSpec<'_>, verdict: Verdict) {
        self.total += 1;
        match verdict {
            Verdict::AllCommit => self.all_commit += 1,
            Verdict::AllAbort => self.all_abort += 1,
            Verdict::Blocked { .. } => {
                self.blocked_count += 1;
                if self.blocked.len() < KEEP {
                    self.blocked.push(spec.describe(verdict));
                }
            }
            Verdict::Inconsistent { .. } => {
                self.inconsistent_count += 1;
                if self.inconsistent.len() < KEEP {
                    self.inconsistent.push(spec.describe(verdict));
                }
            }
        }
    }

    /// Merges `other` (covering strictly later cell indices) into `self`,
    /// preserving the first-`KEEP` kept-example semantics of a serial scan.
    fn absorb(&mut self, other: SweepReport) {
        self.total += other.total;
        self.all_commit += other.all_commit;
        self.all_abort += other.all_abort;
        self.blocked_count += other.blocked_count;
        self.inconsistent_count += other.inconsistent_count;
        for desc in other.blocked {
            if self.blocked.len() < KEEP {
                self.blocked.push(desc);
            }
        }
        for desc in other.inconsistent {
            if self.inconsistent.len() < KEEP {
                self.inconsistent.push(desc);
            }
        }
    }
}

/// Kept counterexamples per category (the rest are only counted).
const KEEP: usize = 8;

/// Cells per work unit handed to a sweep worker. Large enough that the
/// shared counter is touched rarely, small enough to load-balance the
/// uneven cost of blocked-vs-clean scenarios.
const BLOCK: usize = 64;

/// Grids below this size run serially whatever the thread count — thread
/// spawn/teardown would dominate.
const PARALLEL_THRESHOLD: usize = 2 * BLOCK;

/// Per-sweep scenario scratch: one [`Scenario`] per delay model of the grid,
/// reused across every cell, so votes/G2 buffers are recycled instead of
/// reallocated ~`grid.size()` times and no delay model is cloned per cell
/// (the delay index varies second fastest in the decode order). The session
/// it drives is supplied per call — owned by a worker
/// ([`sweep_with_threads`]) or borrowed from a caller's
/// [`crate::SessionPool`] ([`sweep_with_session`]).
struct CellState {
    scenarios: Vec<Scenario>,
    options: RunOptions,
}

impl CellState {
    fn new(grid: &SweepGrid) -> CellState {
        let scenario = |delay: &DelayModel| {
            let mut scenario = Scenario::new(grid.n).delay(delay.clone());
            scenario.mode = grid.mode;
            scenario
        };
        CellState {
            scenarios: grid.delays.iter().map(scenario).collect(),
            options: RunOptions::new(),
        }
    }

    fn run(&mut self, session: &mut Session, grid: &SweepGrid, spec: &ScenarioSpec<'_>) -> Verdict {
        let scenario = &mut self.scenarios[spec.delay_index];
        scenario.votes.clear();
        scenario.votes.extend_from_slice(&grid.votes[spec.vote_index]);
        match spec.shape {
            // The legacy single-episode fast path: rewrite the Simple shape
            // (and, through it, the engine's `reset_single` buffers) in
            // place, exactly as before the schedule axis existed.
            ScheduleShape::Simple => match &mut scenario.partition {
                PartitionShape::Simple { g2, at, heal_at } => {
                    g2.clear();
                    g2.extend_from_slice(spec.g2);
                    *at = spec.at;
                    *heal_at = spec.heal_at();
                }
                other => {
                    *other = PartitionShape::Simple {
                        g2: spec.g2.to_vec(),
                        at: spec.at,
                        heal_at: spec.heal_at(),
                    };
                }
            },
            // Multi-episode / multi-group families: rewrite the schedule of
            // the scenario's fault plan in place (episode and group buffers
            // recycled).
            shape => {
                scenario.partition = PartitionShape::None;
                let schedule = &mut scenario.faults.partition;
                shape.write_schedule(grid.n, spec.g2, spec.at, spec.heal, schedule);
            }
        }
        session.verdict(scenario, &self.options)
    }
}

/// The worker count to hand [`sweep_with_threads`]: the
/// `PTP_SWEEP_THREADS` environment variable if set, else the machine's
/// available parallelism.
pub fn sweep_threads() -> usize {
    std::env::var("PTP_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs the grid on the calling thread, in flat-index order.
pub fn sweep_serial(kind: ProtocolKind, grid: &SweepGrid) -> SweepReport {
    let mut session = Session::new(kind, grid.n);
    sweep_with_session(&mut session, grid)
}

/// Runs the grid serially through a caller-owned [`Session`] — the
/// [`crate::SessionPool`] path: flows that sweep several grids over the
/// same `(kind, n)` clusters (the Theorem 9 scorecards, for instance) hold
/// one pool and reuse each cluster across every grid instead of rebuilding
/// it per sweep. Produces reports identical to [`sweep_serial`].
///
/// # Panics
///
/// If the session's cluster size differs from `grid.n`.
pub fn sweep_with_session(session: &mut Session, grid: &SweepGrid) -> SweepReport {
    assert_eq!(
        session.sites(),
        grid.n,
        "grid has {} sites but the session was built for {}",
        grid.n,
        session.sites()
    );
    let mut report = SweepReport::default();
    let mut cells = CellState::new(grid);
    for index in 0..grid.size() {
        let spec = grid.scenario(index);
        let verdict = cells.run(session, grid, &spec);
        report.record_cell(&spec, verdict);
    }
    report
}

/// Runs the grid across `threads` workers (1 = serial), or serially when
/// the grid is too small to amortise thread startup.
///
/// Workers claim contiguous `BLOCK`-sized index ranges from a shared
/// counter and fold each into a partial [`SweepReport`]; the partials are
/// then reduced in ascending block order, which makes the result — totals
/// *and* the first-`KEEP` kept counterexamples — bit-identical to
/// [`sweep_serial`] regardless of scheduling.
pub fn sweep_with_threads(kind: ProtocolKind, grid: &SweepGrid, threads: usize) -> SweepReport {
    let total = grid.size();
    assert!(total < usize::MAX, "sweep grid size overflows usize");
    let blocks = total.div_ceil(BLOCK.max(1));
    let threads = threads.clamp(1, blocks.max(1));
    if threads <= 1 || total < PARALLEL_THRESHOLD {
        return sweep_serial(kind, grid);
    }

    let next_block = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, SweepReport)>();
    let mut report = SweepReport::default();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next_block = &next_block;
            scope.spawn(move || {
                let mut session = Session::new(kind, grid.n);
                let mut cells = CellState::new(grid);
                loop {
                    let block = next_block.fetch_add(1, Ordering::Relaxed);
                    if block >= blocks {
                        break;
                    }
                    let start = block * BLOCK;
                    let end = (start + BLOCK).min(total);
                    let mut partial = SweepReport::default();
                    for index in start..end {
                        let spec = grid.scenario(index);
                        let verdict = cells.run(&mut session, grid, &spec);
                        partial.record_cell(&spec, verdict);
                    }
                    if tx.send((block, partial)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Eager in-order reduction on the caller's thread, overlapped with
        // the workers: absorb each block the moment every earlier block has
        // been absorbed, parking out-of-order arrivals in a small reorder
        // buffer. Memory stays bounded by scheduling skew (versus buffering
        // all O(blocks) partials and sorting at the end) and the result is
        // still byte-identical to a serial scan.
        let mut pending: std::collections::BTreeMap<usize, SweepReport> =
            std::collections::BTreeMap::new();
        let mut next_merge = 0usize;
        for (block, partial) in rx.iter() {
            pending.insert(block, partial);
            while let Some(ready) = pending.remove(&next_merge) {
                report.absorb(ready);
                next_merge += 1;
            }
        }
        debug_assert!(pending.is_empty(), "all blocks must merge once senders hang up");
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_enumerate_all_slave_subsets() {
        let b = all_simple_boundaries(4);
        // 2^3 - 1 non-empty subsets of {1,2,3}.
        assert_eq!(b.len(), 7);
        assert!(b.contains(&vec![SiteId(3)]));
        assert!(b.contains(&vec![SiteId(1), SiteId(2), SiteId(3)]));
    }

    #[test]
    fn grid_size_is_product() {
        let g = SweepGrid::standard(3);
        let expected = g.shapes.len()
            * g.boundaries.len()
            * g.partition_times.len()
            * g.heals.len()
            * g.delays.len()
            * g.votes.len();
        assert_eq!(g.size(), expected);
        assert_eq!(g.size(), 297);
        // The schedule-family grid multiplies in the shape axis.
        assert_eq!(SweepGrid::schedule_families(3).size(), 297 * ScheduleShape::FAMILIES.len());
    }

    #[test]
    fn huang_li_resilient_on_a_small_grid() {
        // A fast smoke version of E10; the full grid runs in the
        // integration suite and experiment binary.
        let mut grid = SweepGrid::standard(3);
        grid.partition_times = (0..=8).map(|i| i * 500).collect();
        grid.delays = vec![DelayModel::Fixed(1000)];
        let report = sweep_serial(ProtocolKind::HuangLi3pc, &grid);
        assert!(report.fully_resilient(), "{report:?}");
        assert_eq!(report.total, grid.size());
    }

    #[test]
    fn extended_2pc_breaks_somewhere_on_the_grid() {
        // E2: the Sec. 3 observation — some multisite scenario violates
        // atomicity.
        let mut grid = SweepGrid::standard(3);
        grid.partition_times = (0..=16).map(|i| i * 250).collect();
        grid.delays = vec![DelayModel::Fixed(1000)];
        let report = sweep_serial(ProtocolKind::Extended2pc, &grid);
        assert!(!report.fully_atomic(), "E2PC should violate atomicity at n=3");
    }

    #[test]
    fn naive_3pc_breaks_somewhere_on_the_grid() {
        let mut grid = SweepGrid::standard(3);
        grid.partition_times = (0..=16).map(|i| i * 250).collect();
        grid.delays = vec![DelayModel::Fixed(1000)];
        let report = sweep_serial(ProtocolKind::Naive3pc, &grid);
        assert!(!report.fully_atomic(), "naive 3PC should violate atomicity at n=3");
    }

    #[test]
    fn plain_2pc_blocks_on_the_grid() {
        let mut grid = SweepGrid::standard(3);
        grid.partition_times = (0..=8).map(|i| i * 500).collect();
        grid.delays = vec![DelayModel::Fixed(1000)];
        let report = sweep_serial(ProtocolKind::Plain2pc, &grid);
        assert!(report.blocked_count > 0);
        assert!(report.fully_atomic(), "2PC blocks but never lies");
    }

    #[test]
    fn scenario_decode_matches_nested_loop_order() {
        // The flat index must enumerate exactly what the old 5-deep nested
        // loops enumerated, in the same order.
        let grid = SweepGrid::standard(3)
            .with_transient_heals(2)
            .with_votes(vec![vec![Vote::Yes, Vote::Yes], vec![Vote::No, Vote::Yes]])
            .with_shapes(vec![
                ScheduleShape::Simple,
                ScheduleShape::NestedSecession { after: 1000 },
            ]);
        let mut index = 0usize;
        for &shape in &grid.shapes {
            for g2 in &grid.boundaries {
                for &at in &grid.partition_times {
                    for &heal in &grid.heals {
                        for delay_index in 0..grid.delays.len() {
                            for vote_index in 0..grid.votes.len() {
                                let spec = grid.scenario(index);
                                assert_eq!(spec.shape, shape);
                                assert_eq!(spec.g2, g2.as_slice());
                                assert_eq!(spec.at, at);
                                assert_eq!(spec.heal, heal);
                                assert_eq!(spec.delay_index, delay_index);
                                assert_eq!(spec.vote_index, vote_index);
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(index, grid.size());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scenario_index_out_of_range_panics() {
        let grid = SweepGrid::standard(3);
        let _ = grid.scenario(grid.size());
    }

    #[test]
    fn size_is_overflow_safe() {
        let mut grid = SweepGrid::standard(3);
        // Five axes of 2^16 entries each: the true product (2^80) cannot
        // fit in a u64/usize; the old unchecked multiply silently wrapped.
        let n = 1usize << 16;
        grid.boundaries = vec![vec![SiteId(1)]; n];
        grid.partition_times = vec![0; n];
        grid.heals = vec![None; n];
        grid.delays = vec![DelayModel::Fixed(1); n];
        grid.votes = vec![vec![Vote::Yes, Vote::Yes]; n];
        assert_eq!(grid.checked_size(), None);
        assert_eq!(grid.size(), usize::MAX);
    }

    /// Field-for-field equality of two sweep reports, with panic messages
    /// that name the diverging field.
    fn assert_reports_identical(serial: &SweepReport, parallel: &SweepReport) {
        assert_eq!(serial.total, parallel.total, "total");
        assert_eq!(serial.all_commit, parallel.all_commit, "all_commit");
        assert_eq!(serial.all_abort, parallel.all_abort, "all_abort");
        assert_eq!(serial.blocked_count, parallel.blocked_count, "blocked_count");
        assert_eq!(serial.inconsistent_count, parallel.inconsistent_count, "inconsistent_count");
        assert_eq!(serial.blocked, parallel.blocked, "kept blocked examples");
        assert_eq!(serial.inconsistent, parallel.inconsistent, "kept inconsistent examples");
        assert_eq!(serial, parallel, "whole report");
    }

    #[test]
    fn parallel_sweep_identical_to_serial_on_standard_grid() {
        // The tentpole determinism guarantee: any thread count, same bytes.
        let grid = SweepGrid::standard(4);
        let serial = sweep_serial(ProtocolKind::HuangLi3pc, &grid);
        for threads in [2, 4, 7] {
            let parallel = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, threads);
            assert_reports_identical(&serial, &parallel);
        }
        assert_eq!(serial.total, grid.size());
        assert!(serial.fully_resilient(), "{serial:?}");
    }

    #[test]
    fn parallel_sweep_preserves_kept_examples_of_blocking_protocol() {
        // 2PC blocks all over this grid, so the first-8 kept examples are
        // actually exercised (not just empty-vs-empty).
        let mut grid = SweepGrid::standard(4);
        grid.partition_times = (0..=16).map(|i| i * 250).collect();
        grid.delays = vec![DelayModel::Fixed(1000), DelayModel::Fixed(500)];
        let serial = sweep_serial(ProtocolKind::Plain2pc, &grid);
        assert!(serial.blocked_count > KEEP, "grid too clean to test kept lists");
        assert_eq!(serial.blocked.len(), KEEP);
        let parallel = sweep_with_threads(ProtocolKind::Plain2pc, &grid, 4);
        assert_reports_identical(&serial, &parallel);
    }

    #[test]
    fn schedule_families_enumerate_distinct_multi_episode_shapes() {
        // The acceptance floor: at least three distinct non-simple shapes,
        // each deriving a structurally different schedule from one cell.
        let grid = SweepGrid::schedule_families(4);
        let multi: Vec<ScheduleShape> =
            grid.shapes.iter().copied().filter(|s| !s.is_simple()).collect();
        assert!(multi.len() >= 3, "need ≥3 multi-episode families, got {multi:?}");

        let g2 = [SiteId(2), SiteId(3)];
        let mut derived = Vec::new();
        for shape in &multi {
            let mut schedule = PartitionEngine::always_connected();
            shape.write_schedule(4, &g2, 2000, None, &mut schedule);
            let episodes = schedule.episodes().to_vec();
            assert!(
                episodes.len() > 1 || episodes.iter().any(|e| e.groups.len() > 2),
                "{} stayed inside the simple model: {episodes:?}",
                shape.name()
            );
            derived.push(episodes);
        }
        // Structurally distinct: no two families derive the same schedule.
        for i in 0..derived.len() {
            for j in i + 1..derived.len() {
                assert_ne!(derived[i], derived[j], "{} == {}", multi[i].name(), multi[j].name());
            }
        }
    }

    #[test]
    fn described_heal_instant_matches_the_derived_schedule() {
        // ScenarioDesc must name the heal instant that actually occurs in
        // the run: the final episode's, which for two-episode shapes is
        // later than `at + heal`.
        let g2 = [SiteId(2), SiteId(3)];
        for shape in ScheduleShape::FAMILIES {
            let spec = ScenarioSpec {
                shape,
                g2: &g2,
                at: 2000,
                heal: Some(3000),
                delay_index: 0,
                vote_index: 0,
            };
            let mut schedule = PartitionEngine::always_connected();
            shape.write_schedule(4, &g2, spec.at, spec.heal, &mut schedule);
            let last = schedule.episodes().last().unwrap();
            let heal_at = last.heal_at.map(SimTime::ticks);
            assert_eq!(spec.final_episode_at(), last.at.ticks(), "{}", shape.name());
            assert_eq!(spec.heal_at(), heal_at, "{}", shape.name());
            let desc = spec.describe(Verdict::AllCommit);
            assert_eq!(desc.heal_at, heal_at, "{}", shape.name());
        }
    }

    #[test]
    fn single_fragment_multiway_pins_schedule_path_to_legacy_path() {
        // MultiWay { g2_groups: 1 } derives exactly the single [G1 | G2]
        // episode the Simple shape replays through `reset_single` — but
        // through the schedule machinery. Sweeping both over the same grid
        // must agree cell-for-cell (only the recorded shape tag differs).
        let mut simple = SweepGrid::standard(3).with_transient_heals(1);
        simple.partition_times = (0..=8).map(|i| i * 500).collect();
        simple.delays = vec![DelayModel::Fixed(1000), DelayModel::Fixed(500)];
        let schedule = simple.clone().with_shapes(vec![ScheduleShape::MultiWay { g2_groups: 1 }]);
        for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::Plain2pc] {
            let legacy = sweep_serial(kind, &simple);
            let pinned = sweep_serial(kind, &schedule);
            assert_eq!(legacy.total, pinned.total);
            assert_eq!(legacy.all_commit, pinned.all_commit, "{}", kind.name());
            assert_eq!(legacy.all_abort, pinned.all_abort, "{}", kind.name());
            assert_eq!(legacy.blocked_count, pinned.blocked_count, "{}", kind.name());
            assert_eq!(legacy.inconsistent_count, pinned.inconsistent_count, "{}", kind.name());
            for (a, b) in legacy.blocked.iter().zip(&pinned.blocked) {
                assert_eq!(
                    (&a.g2, a.at, a.heal_at, a.delay_index),
                    (&b.g2, b.at, b.heal_at, b.delay_index)
                );
                assert_eq!(a.verdict, b.verdict);
            }
        }
    }

    #[test]
    fn parallel_schedule_sweep_identical_to_serial() {
        // Determinism on a schedule grid at the kept thread counts.
        let mut grid = SweepGrid::schedule_families(4);
        grid.partition_times = (0..=8).map(|i| i * 500).collect();
        grid.delays =
            vec![DelayModel::Fixed(1000), DelayModel::Uniform { seed: 7, min: 1, max: 1000 }];
        let serial = sweep_serial(ProtocolKind::HuangLi3pc, &grid);
        for threads in [2, 4, 7] {
            let parallel = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, threads);
            assert_reports_identical(&serial, &parallel);
        }
        assert_eq!(serial.total, grid.size());
    }

    #[test]
    fn pooled_session_sweep_matches_serial_across_grids() {
        // One SessionPool session swept over two different grids (the
        // Theorem 9 experiment's pattern) must reproduce the fresh-session
        // reports.
        let mut pool = crate::SessionPool::new();
        let mut dense = SweepGrid::standard(3);
        dense.partition_times = (0..=8).map(|i| i * 500).collect();
        dense.delays = vec![DelayModel::Fixed(1000)];
        let transient = dense.clone().with_transient_heals(2);
        for kind in [ProtocolKind::HuangLi3pc, ProtocolKind::Plain2pc] {
            for grid in [&dense, &transient] {
                let pooled = sweep_with_session(pool.session(kind, 3), grid);
                let fresh = sweep_serial(kind, grid);
                assert_reports_identical(&fresh, &pooled);
            }
        }
        assert_eq!(pool.len(), 2, "one cluster per kind across all four sweeps");
    }

    #[test]
    #[should_panic(expected = "sites")]
    fn pooled_session_sweep_rejects_size_mismatch() {
        let mut session = Session::new(ProtocolKind::HuangLi3pc, 3);
        let _ = sweep_with_session(&mut session, &SweepGrid::standard(4));
    }

    #[test]
    fn single_thread_parallel_is_serial() {
        let mut grid = SweepGrid::standard(3);
        grid.partition_times = vec![0, 2500];
        grid.delays = vec![DelayModel::Fixed(1000)];
        let a = sweep_with_threads(ProtocolKind::HuangLi3pc, &grid, 1);
        let b = sweep_serial(ProtocolKind::HuangLi3pc, &grid);
        assert_reports_identical(&b, &a);
    }
}
