//! `--selfcheck N`: does the benchmark agree with itself?
//!
//! Runs two interleaved sets (A, B, A, B, ...) of N untraced runs of every
//! workload on the same build — run `i` of either set uses seed `seed + i`
//! — and prints, per (workload, end-to-end metric), both medians, both
//! inter-quartile ranges as a share of the median, and the gap between the
//! medians, each against the metric's bound. A gap above half the bound or a
//! spread above the bound is flagged, and fails the check: such a metric has
//! to be made sturdier or demoted to a layer metric before it can gate
//! anything. A spread above a third of the bound is marked, as a warning.

use crate::measure::{median, quartiles};
use crate::report::END_TO_END;
use crate::{spawn, WORKLOADS};
use std::process::ExitCode;

/// Pulls `"name": {"value": X` out of a run's final JSON line.
fn value_of(json: &str, metric: &str) -> Option<f64> {
    let tail = json.split(&format!("\"{metric}\": {{\"value\": ")).nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

pub fn run(n: usize, seed: u64, seconds: f64) -> ExitCode {
    println!(
        "== selfcheck: 2 interleaved sets of {n} runs per workload, {seconds} s each, \
         seeds {seed}..{} ==",
        seed + n as u64 - 1
    );
    println!("host: nproc {}, host_class \"{}\"", ptp_obs::nproc(), ptp_obs::host_class());
    let mut flagged = 0;
    for workload in WORKLOADS {
        // sets[set][metric] = one value per run
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for i in 0..n as u64 {
            for set in &mut sets {
                let stdout = match spawn(workload, seed + i, seconds, false) {
                    Ok(stdout) => stdout,
                    Err(e) => {
                        println!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                let json = stdout.lines().last().unwrap_or_default();
                for (m, (metric, ..)) in END_TO_END.iter().enumerate() {
                    match value_of(json, metric) {
                        Some(v) => set[m].push(v),
                        None => {
                            println!("{workload}: no {metric} in {json}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
        println!(
            "\n{workload}\n{:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}",
            "metric", "median A", "median B", "IQR A", "IQR B", "gap", "bound"
        );
        for (m, (metric, _, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let (med_a, med_b) = (median(a), median(b));
            let gap = (med_a - med_b).abs() / med_a.abs();
            let (iqr_a, iqr_b) = (spread(a), spread(b));
            // `setup_s` is held to its gap only, as the driver holds it.
            let spread = if *metric == "setup_s" { 0.0 } else { iqr_a.max(iqr_b) };
            let flag = if gap > bound / 2.0 {
                "  <-- gap above half the bound"
            } else if spread > *bound {
                "  <-- spread above the bound"
            } else if spread > bound / 3.0 {
                "  (spread above a third of the bound)"
            } else {
                ""
            };
            flagged += usize::from(flag.starts_with("  <--"));
            println!(
                "{metric:<16} {med_a:>14.4} {med_b:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.0}%{flag}",
                iqr_a * 100.0,
                iqr_b * 100.0,
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    println!("\n{flagged} (workload, metric) pairs flagged");
    if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
