//! Runs the paper's experiments ([`ptp_bench::paper::EXPERIMENTS`]):
//!
//! ```text
//! exp list              every experiment and the paper artifact it reproduces
//! exp <name>...         run the named experiments, print their output and claims
//! exp all               run every experiment
//! ```
//!
//! Exits non-zero when a claim fails. An experiment that returns a record
//! writes it in the repository root: `exp all` regenerates all three
//! (`multi_partition` → `BENCH_schedule.json`, `campaign` →
//! `BENCH_campaign.json`, `read_paths` → `BENCH_read.json`).

use ptp_bench::paper::{find, Experiment, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<&Experiment> = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["list"] => {
            for e in EXPERIMENTS {
                println!("{:<20} {}", e.name, e.artifact);
            }
            return ExitCode::SUCCESS;
        }
        ["all"] => EXPERIMENTS.iter().collect(),
        [] => {
            eprintln!("usage: exp list | exp all | exp <name>...");
            return ExitCode::FAILURE;
        }
        ref names => match names.iter().map(|n| find(n).ok_or(n)).collect() {
            Ok(chosen) => chosen,
            Err(name) => {
                eprintln!("no experiment `{name}`; `exp list` names them");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut failed = Vec::new();
    for e in chosen {
        let out = (e.run)();
        print!("{}", out.render());
        if let Some((file, record)) = &out.record {
            record.write(file);
        }
        println!();
        failed.extend(out.failed().map(|c| format!("{}/{}", e.name, c.name)));
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("claims that fail: {failed:?}");
        ExitCode::FAILURE
    }
}
