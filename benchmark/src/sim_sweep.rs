//! `sim_sweep` — the paper's own experiment as a closed loop on one thread.
//!
//! One pass sweeps all eight protocol kinds over the dense Theorem 9 grid
//! (every simple boundary × 65 partition instants × 5 delay schedules) for
//! n = 3..=6: 145 600 scenarios. The `protocols` handlers, the `simnet`
//! dispatcher and the `core` sessions do all the work; storage, sharding
//! and the live stack do none.

use crate::measure::{
    exact_quantile, fnv, median, ns_per_op, rng_for, PassClock, FNV_OFFSET, SAMPLES,
};
use crate::report::Report;
use crate::spans::Tracer;
use ptp_bench::dense_grid;
use ptp_core::{
    sweep_serial, sweep_with_session, sweep_with_threads, Campaign, CampaignConfig, PartitionShape,
    ProtocolKind, RunOptions, Scenario, Session, SweepGrid, SweepReport,
};
use ptp_protocols::Verdict;
use ptp_simnet::DelayModel;
use std::time::Instant;

/// The kinds Theorem 9/10 promise are resilient on this grid.
const HUANG_LI: [ProtocolKind; 3] =
    [ProtocolKind::HuangLi3pc, ProtocolKind::HuangLi3pcStatic, ProtocolKind::HuangLi4pc];

/// Fewest timed passes a run reports a median over.
const MIN_PASSES: usize = 5;

/// The dense grids for n = 3..=6, one grid per simple boundary: 56 grids
/// whose union is exactly `dense_grid(3..=6)`. The seed reaches the two
/// randomized delay schedules of every grid — each (n, boundary) gets its
/// own pair of delay streams — so a `--seed` sweeps its own message timings
/// over the same boundaries and partition instants, and no single stream
/// weighs on the results the way one per n would.
pub fn grids(seed: u64) -> Vec<SweepGrid> {
    let mut rng = rng_for(seed, 1);
    let mut grids = Vec::new();
    for n in 3..=6 {
        let dense = dense_grid(n);
        for boundary in &dense.boundaries {
            let mut grid = dense.clone();
            grid.boundaries = vec![boundary.clone()];
            for delay in &mut grid.delays {
                if let DelayModel::Uniform { seed, .. } = delay {
                    *seed = rng.next_u64();
                }
            }
            grids.push(grid);
        }
    }
    grids
}

/// Verdict tallies in the shape `SweepReport` counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    total: usize,
    all_commit: usize,
    all_abort: usize,
    blocked: usize,
    inconsistent: usize,
}

impl Tally {
    fn of(report: &SweepReport) -> Tally {
        Tally {
            total: report.total,
            all_commit: report.all_commit,
            all_abort: report.all_abort,
            blocked: report.blocked_count,
            inconsistent: report.inconsistent_count,
        }
    }
}

/// What the untimed reference pass observed, cell by cell.
struct Reference {
    /// One tally per (kind, grid), in pass order.
    tallies: Vec<Tally>,
    /// Virtual ticks (1 tick = 1 µs, T = 1000) from submission at tick 0 to
    /// the last deciding site's decision, one per scenario where any site
    /// decided.
    latencies: Vec<u64>,
    /// The subset of `latencies` from scenarios whose delay schedule is
    /// drawn from the seed. Under the three fixed schedules every latency is
    /// a multiple of T/2 and every quantile sits on a plateau (the p99 of the
    /// whole population is a timer constant, 10 T, whatever the seed), so the
    /// quantiles are read here; the mean is over all of `latencies`.
    seeded_latencies: Vec<u64>,
    events: u64,
    messages: u64,
    /// Order-sensitive hash of every site's decision and decision instant.
    digest: u64,
}

/// Runs every cell of every grid through `Session::run`, which (unlike the
/// verdict-only sweep path) hands back per-site outcomes and the simulator
/// report — the source of the virtual latencies and exact counts.
fn reference_pass(grids: &[SweepGrid], options: &RunOptions, tracer: &Tracer) -> Reference {
    // Sized up front: a vector that grows by doubling leaves the peak memory
    // to the allocator's mood.
    let cells: usize = grids.iter().map(|g| g.size()).sum::<usize>() * ProtocolKind::ALL.len();
    let mut reference = Reference {
        tallies: Vec::new(),
        latencies: Vec::with_capacity(cells),
        seeded_latencies: Vec::with_capacity(cells),
        events: 0,
        messages: 0,
        digest: FNV_OFFSET,
    };
    for kind in ProtocolKind::ALL {
        let mut session = None;
        for grid in grids {
            let session = session_for(&mut session, kind, grid.n, tracer, 0);
            let mut tally = Tally::default();
            let mut scenario = Scenario::new(grid.n);
            scenario.mode = grid.mode;
            let mut delay_index = usize::MAX;
            tracer.span("core.session_run_grid", 0, || {
                for index in 0..grid.size() {
                    let spec = grid.scenario(index);
                    if delay_index != spec.delay_index {
                        scenario.delay = grid.delays[spec.delay_index].clone();
                        delay_index = spec.delay_index;
                    }
                    scenario.votes.clone_from(&grid.votes[spec.vote_index]);
                    scenario.partition = PartitionShape::Simple {
                        g2: spec.g2.to_vec(),
                        at: spec.at,
                        heal_at: spec.heal_at(),
                    };
                    let result = session.run_with(&scenario, options);
                    tally.total += 1;
                    match result.verdict {
                        Verdict::AllCommit => tally.all_commit += 1,
                        Verdict::AllAbort => tally.all_abort += 1,
                        Verdict::Blocked { .. } => tally.blocked += 1,
                        Verdict::Inconsistent { .. } => tally.inconsistent += 1,
                    }
                    let mut last = None;
                    for outcome in &result.outcomes {
                        let at = outcome.decided_at.map(|t| t.ticks());
                        fnv(&mut reference.digest, outcome.decision.map_or(0, |d| 1 + d as u64));
                        fnv(&mut reference.digest, at.unwrap_or(u64::MAX));
                        last = last.max(at);
                    }
                    reference.latencies.extend(last);
                    if matches!(scenario.delay, DelayModel::Uniform { .. }) {
                        reference.seeded_latencies.extend(last);
                    }
                    reference.events += result.report.events;
                    reference.messages += result.report.counters.sent;
                    std::hint::black_box(&result.trace);
                }
            });
            reference.tallies.push(tally);
        }
    }
    reference
}

/// The session for `(kind, n)`: kept while consecutive grids share `n`,
/// rebuilt when `n` changes — one `Session::new` per kind and cluster size
/// per pass, exactly what `sweep_serial` over `dense_grid(n)` builds.
fn session_for<'s>(
    slot: &'s mut Option<Session>,
    kind: ProtocolKind,
    n: usize,
    tracer: &Tracer,
    pass: u64,
) -> &'s mut Session {
    if slot.as_ref().map(Session::sites) != Some(n) {
        *slot = Some(tracer.span("core.session_new", pass, || Session::new(kind, n)));
    }
    slot.as_mut().expect("just built")
}

/// One pass of the timed loop: `sweep(session, grid)` for every kind and
/// every grid, each (kind, grid) — with the session it may have to build —
/// one timed cell of `clock`.
fn sweep_pass<R>(
    grids: &[SweepGrid],
    tracer: &Tracer,
    clock: &mut PassClock,
    name: &'static str,
    mut sweep: impl FnMut(&mut Session, &SweepGrid) -> R,
) -> Vec<R> {
    let pass = clock.passes() as u64;
    clock.start_pass();
    tracer.span("pass", pass, || {
        let mut out = Vec::with_capacity(ProtocolKind::ALL.len() * grids.len());
        for kind in ProtocolKind::ALL {
            let mut session = None;
            for grid in grids {
                out.push(clock.time(|| {
                    let session = session_for(&mut session, kind, grid.n, tracer, pass);
                    tracer.span(name, pass, || sweep(session, grid))
                }));
            }
        }
        out
    })
}

/// The profiled counterpart of `sweep_with_session` (what `sweep_profiled`
/// does around its own session).
fn sweep_profiling(session: &mut Session, grid: &SweepGrid) -> (SweepReport, ptp_simnet::Profile) {
    session.set_profiling(true);
    let report = sweep_with_session(session, grid);
    (report, session.take_profile())
}

/// Checks the paper's guarantee on the reference tallies and counts the
/// scenarios that break it.
fn judge(report: &mut Report, grids: &[SweepGrid], reference: &Reference) -> u64 {
    let mut broken = 0u64;
    let mut cells = reference.tallies.iter();
    for kind in ProtocolKind::ALL {
        let mut sum = Tally::default();
        for grid in grids {
            let t = cells.next().expect("one tally per kind and grid");
            sum.total += t.total;
            sum.all_commit += t.all_commit;
            sum.all_abort += t.all_abort;
            sum.blocked += t.blocked;
            sum.inconsistent += t.inconsistent;
            if HUANG_LI.contains(&kind) && t.blocked + t.inconsistent > 0 {
                broken += (t.blocked + t.inconsistent) as u64;
                report.fail_gate(format!(
                    "{} is not fully resilient at n = {}, G2 = {:?}: {t:?}",
                    kind.name(),
                    grid.n,
                    grid.boundaries[0]
                ));
            }
        }
        report.note(format!(
            "{}: {} scenarios, {} commit, {} abort, {} blocked, {} inconsistent",
            kind.name(),
            sum.total,
            sum.all_commit,
            sum.all_abort,
            sum.blocked,
            sum.inconsistent
        ));
    }
    broken
}

/// The untraced run: set-up (three times, median), then timed passes for
/// `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();

    // Set-up: build the grids and run the cold reference pass, which also
    // builds one session per (kind, n). Repeated so `setup_s` is a median,
    // and so the exact observations are checked to repeat bit for bit.
    let mut setups = Vec::new();
    let mut first: Option<(Vec<SweepGrid>, Reference)> = None;
    for repeat in 0..3 {
        let started = Instant::now();
        let (g, r) = tracer.span("setup", repeat, || {
            let g = grids(seed);
            let r = reference_pass(&g, &RunOptions::new(), tracer);
            (g, r)
        });
        setups.push(started.elapsed().as_secs_f64());
        match &first {
            None => first = Some((g, r)),
            Some((_, reference)) => report.gate(
                reference.digest == r.digest
                    && reference.tallies == r.tallies
                    && reference.latencies == r.latencies,
                || format!("reference pass {repeat} did not reproduce pass 0 bit for bit"),
            ),
        }
    }
    let (grids, mut reference) = first.expect("three set-ups ran");
    let scenarios: usize = reference.tallies.iter().map(|t| t.total).sum();
    let broken = judge(&mut report, &grids, &reference);

    // Timed passes, every sink Null.
    let mut clock = PassClock::new(1);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || clock.passes() < MIN_PASSES {
        let pass = clock.passes();
        let reports =
            sweep_pass(&grids, tracer, &mut clock, "core.sweep_with_session", sweep_with_session);
        let tallies: Vec<Tally> = reports.iter().map(Tally::of).collect();
        report.gate(tallies == reference.tallies, || {
            format!("timed pass {pass} disagrees with the reference verdict counts")
        });
    }
    let commits: usize = reference.tallies.iter().map(|t| t.all_commit).sum();
    let samples = reference.latencies.len();
    let mean = reference.latencies.iter().sum::<u64>() as f64 / samples as f64;

    report.attempted = scenarios as u64;
    report.failed = broken;
    report.set("setup_s", median(&setups));
    report.set("ops_per_s", scenarios as f64 / clock.reference_secs());
    report.set("write_mean_us", mean);
    report.set("write_p95_us", exact_quantile(&mut reference.seeded_latencies, 0.95) as f64);
    report.set("commit_share", commits as f64 / scenarios as f64);
    report.note(format!("{scenarios} scenarios a pass; {}", clock.describe()));
    report.note(format!(
        "{samples} virtual latency samples ({} under seeded delays); set-up repeats {setups:.3?} s",
        reference.seeded_latencies.len()
    ));
    report
}

/// The traced run: profiled passes for a third of the duration, the
/// recording-sink comparison, and the micro-loops of the layers this
/// workload runs on (`protocols`, `simnet`, `core`, `model`).
pub fn run_traced(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let grids = tracer.span("setup.grids", 0, || grids(seed));
    let reference = tracer
        .span("setup.reference_pass", 0, || reference_pass(&grids, &RunOptions::new(), tracer));
    let scenarios: usize = reference.tallies.iter().map(|t| t.total).sum();
    report.attempted = scenarios as u64;
    report.failed = judge(&mut report, &grids, &reference);

    // Null-sink passes and profiled passes, alternating, for a third of the
    // untraced duration in total.
    let (mut null_clock, mut prof_clock) = (PassClock::new(1), PassClock::new(1));
    let mut total = ptp_simnet::Profile::default();
    let (mut quorum, mut huangli) =
        (ptp_simnet::Profile::default(), ptp_simnet::Profile::default());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds / 3.0 || null_clock.passes() < 2 {
        let pass = null_clock.passes();
        let reports = sweep_pass(
            &grids,
            tracer,
            &mut null_clock,
            "core.sweep_with_session",
            sweep_with_session,
        );
        let profiled =
            sweep_pass(&grids, tracer, &mut prof_clock, "core.sweep_profiled", sweep_profiling);
        let mut cells = profiled.iter();
        for kind in ProtocolKind::ALL {
            for _ in &grids {
                let (_, profile) = cells.next().expect("one profile per kind and grid");
                total.merge(profile);
                match kind {
                    ProtocolKind::QuorumMajority => quorum.merge(profile),
                    ProtocolKind::HuangLi3pc => huangli.merge(profile),
                    _ => {}
                }
            }
        }
        let same = reports.iter().map(Tally::of).eq(reference.tallies.iter().copied())
            && profiled.iter().map(|(r, _)| Tally::of(r)).eq(reference.tallies.iter().copied());
        report.gate(same, || format!("traced pass {pass} disagrees with the reference verdicts"));
    }
    let per_handler = |p: &ptp_simnet::Profile| p.total().nanos as f64 / p.total().count as f64;
    let null_pass = null_clock.reference_secs();
    let ns_per_event = null_pass * 1e9 / reference.events as f64;
    // Profiled handler time per dispatched event of a pass, brought to
    // reference seconds by the profiled passes' own scale: the handlers'
    // share of `ns_per_event`; the rest is the simulator's own dispatch.
    let handler_ns_per_event =
        total.total().nanos as f64 / prof_clock.passes() as f64 / reference.events as f64
            * (prof_clock.reference_secs() / prof_clock.wall_secs());
    report.set("protocols.handler_ns", per_handler(&total));
    report.set("protocols.handler_ns.quorum", per_handler(&quorum));
    report.set("protocols.handler_ns.huangli", per_handler(&huangli));
    report.set("protocols.msgs_per_txn", reference.messages as f64 / scenarios as f64);
    report.set("simnet.ns_per_event", ns_per_event);
    report.set("simnet.events_per_scenario", reference.events as f64 / scenarios as f64);
    report.set("simnet.dispatch_overhead_ns", ns_per_event - handler_ns_per_event);
    report.note(format!(
        "{} null-sink passes ({null_pass:.4} reference s) alternated with {} profiled passes \
         ({:.4} reference s); {} events per pass",
        null_clock.passes(),
        prof_clock.passes(),
        prof_clock.reference_secs(),
        reference.events
    ));

    // Recording sink against the null sink, same cells, same code path.
    let small = &grids[..10]; // n = 3 and n = 4
    let ratio = {
        let mut nulls = Vec::new();
        let mut recordings = Vec::new();
        for round in 0..3 {
            let t = Instant::now();
            let null = tracer.span("simnet.trace_null", round, || {
                reference_pass(small, &RunOptions::new(), tracer)
            });
            nulls.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let recorded = tracer.span("simnet.trace_record", round, || {
                reference_pass(small, &RunOptions::recording(), tracer)
            });
            recordings.push(t.elapsed().as_secs_f64());
            report.gate(null.digest == recorded.digest, || {
                "recording the trace changed the decisions".to_string()
            });
        }
        median(&recordings) / median(&nulls)
    };
    report.set("simnet.trace_record_ratio", ratio);

    let build_ns = tracer.span("core.session_build", 0, || {
        ns_per_op(ProtocolKind::ALL.len() as u64, || {
            ProtocolKind::ALL.map(|kind| Session::new(kind, 6))
        })
    });
    report.set("core.session_build_us", build_ns / 1e3);

    let threads = ptp_obs::nproc();
    let speedup = tracer.span("core.sweep_parallel", 0, || {
        let big = &dense_grid(6);
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            let t = Instant::now();
            let a = sweep_serial(ProtocolKind::HuangLi3pc, big);
            serial.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let b = sweep_with_threads(ProtocolKind::HuangLi3pc, big, threads);
            parallel.push(t.elapsed().as_secs_f64());
            report.gate(a == b, || "parallel sweep differs from serial sweep".to_string());
        }
        median(&serial) / median(&parallel)
    });
    report.set("core.sweep_parallel_speedup", speedup);
    report.note(format!("parallel sweep measured with {threads} thread(s)"));

    let timelines = 20_000;
    let campaign_secs = tracer.span("core.campaign", 0, || {
        let mut secs = Vec::new();
        for _ in 0..SAMPLES {
            let campaign =
                Campaign::new(CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, timelines, seed));
            let t = Instant::now();
            let outcome = campaign.run();
            secs.push(t.elapsed().as_secs_f64());
            report.gate(outcome.all_green() && outcome.executed == timelines, || {
                format!("campaign found {} faults", outcome.faults_found())
            });
        }
        median(&secs)
    });
    report.set("core.campaign_timelines_per_s", timelines as f64 / campaign_secs);

    report.set("model.spec_build_us", crate::ladder::spec_build_us(tracer));
    report
}
