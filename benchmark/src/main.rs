//! The repository's benchmark: one command, four workloads, six
//! end-to-end metrics, a per-layer ladder and a traced run. See README.md
//! next to this package for what each workload and metric means.
//!
//! ```text
//! ptp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ptp-benchmark                      # every workload, one fresh process each
//! ptp-benchmark --traced             # the same, then each workload's traced run
//! ptp-benchmark --quick              # 2 s smoke of every workload, NOT comparable
//! ptp-benchmark --selfcheck 5        # two interleaved sets of 5 runs, spread table
//! ```
//!
//! A single-workload run prints its metrics by name with units and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.

mod ladder;
mod live;
mod measure;
mod report;
mod selfcheck;
mod sim_shard;
mod sim_sweep;
mod spans;

use report::{Report, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The workloads, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 4] = ["sim_sweep", "sim_shard", "live_steady", "live_partition"];

/// Seconds one run measures unless `--seconds` says otherwise (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 25.0;
const QUICK_SECONDS: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => {
                args.quick = true;
                args.seconds = QUICK_SECONDS;
            }
            "--selfcheck" => {
                let n: usize = value("a run count")?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if n < 2 {
                    return Err("--selfcheck needs at least 2 runs per set".to_string());
                }
                args.selfcheck = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let traced = tracer.enabled();
    tracer.span("process", 0, || match (name, traced) {
        ("sim_sweep", false) => sim_sweep::run(seed, seconds, tracer),
        ("sim_sweep", true) => sim_sweep::run_traced(seed, seconds, tracer),
        ("sim_shard", false) => sim_shard::run(seed, seconds, tracer),
        ("sim_shard", true) => sim_shard::run_traced(seed, seconds, tracer),
        ("live_steady", false) => live::run(live::Mix::Steady, seed, seconds, tracer),
        ("live_steady", true) => live::run_traced(live::Mix::Steady, seed, seconds, tracer),
        ("live_partition", false) => live::run(live::Mix::Partition, seed, seconds, tracer),
        ("live_partition", true) => live::run_traced(live::Mix::Partition, seed, seconds, tracer),
        _ => unreachable!("workload names are validated on the command line"),
    })
}

/// Writes the traced run's spans next to this package, whatever the
/// working directory is.
fn write_spans(workload: &str, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload))?;
    Ok(path.display().to_string())
}

/// Runs one workload in this process and prints its result.
fn single(name: &str, args: &Args) -> ExitCode {
    let tracer = Tracer::new(args.trace);
    let mut report = run_workload(name, args.seed, args.seconds, &tracer);
    let catalogue: Vec<(&str, &str)> = if args.trace {
        report.set("bench.spans", tracer.len() as f64);
        report.gate(tracer.orphans() == 0, || {
            format!("{} benchmark-side spans have no parent", tracer.orphans())
        });
        match write_spans(name, &tracer) {
            Ok(path) => report.note(format!("{} spans written to {path}", tracer.len())),
            Err(e) => report.fail_gate(format!("writing the span file: {e}")),
        }
        PER_LAYER.to_vec()
    } else {
        report.set("peak_rss_mb", measure::peak_rss_mb());
        END_TO_END.iter().map(|&(name, unit, _)| (name, unit)).collect()
    };

    println!(
        "== {name}: seed {}, {} s, {} =={}",
        args.seed,
        args.seconds,
        if args.trace { "traced (per-layer metrics)" } else { "untraced (end-to-end metrics)" },
        if args.quick { "  [--quick: smoke only, NOT comparable]" } else { "" },
    );
    println!("host: nproc {}, host_class \"{}\"", ptp_obs::nproc(), ptp_obs::host_class());
    for line in &report.notes {
        println!("  {line}");
    }
    let mut json = String::new();
    for (i, (metric, unit)) in catalogue.iter().enumerate() {
        // A layer this workload's path bypasses reports 0 for its metrics.
        let value = report.values.get(metric).copied().unwrap_or(0.0);
        if !args.trace && value <= 0.0 {
            report.fail_gate(format!("end-to-end metric {metric} is {value}"));
        }
        println!("{metric:<34} {value:>16.4} {unit}");
        let _ = write!(
            json,
            "{}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    for failure in &report.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    let correct = report.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.attempted.max(1),
        report.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-runs this executable for one workload in a fresh process (so peak
/// memory is per workload) and returns its standard output.
pub fn spawn(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!("{workload} exited with {}:\n{stdout}", output.status))
    }
}

/// Every workload, one fresh process each; with `--traced`, each
/// workload's traced run follows its untraced one.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match spawn(workload, args.seed, args.seconds, trace) {
                Ok(stdout) => print!("{stdout}"),
                Err(e) => {
                    println!("{e}");
                    ok = false;
                }
            }
        }
    }
    if args.quick {
        println!("--quick: {QUICK_SECONDS} s smoke runs; the numbers above are NOT comparable");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ptp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.selfcheck, &args.workload) {
        (Some(n), _) => selfcheck::run(*n, args.seed, args.seconds),
        (None, Some(name)) => single(name, &args),
        (None, None) => all(&args),
    }
}
