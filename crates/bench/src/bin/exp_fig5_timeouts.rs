//! E6 — Fig. 5: adequacy of the commit-protocol timeout intervals
//! (2T at the master, 3T at slaves).
//!
//! Two checks:
//! 1. With the paper's constants, no failure-free execution ever fires a
//!    protocol timeout — even on the slowest admissible network (every
//!    message taking exactly `T`), where the triggering messages arrive at
//!    the very edge of the window.
//! 2. With undersized timers the protocol *stays safe* (it aborts
//!    consistently) but live transactions are spuriously killed — the cost
//!    the paper's 2T/3T constants are chosen to avoid.

use ptp_core::report::Table;
use ptp_protocols::api::Vote;
use ptp_protocols::clusters::huang_li_3pc_cluster_with_timing_any;
use ptp_protocols::runner::ClusterRunner;
use ptp_protocols::termination::{ProtocolTiming, TerminationVariant};
use ptp_protocols::Verdict;
use ptp_simnet::{DelayModel, NetConfig, TraceEvent};

fn run_once(timing: ProtocolTiming, delay: &DelayModel) -> (Verdict, usize) {
    let parts = huang_li_3pc_cluster_with_timing_any(
        4,
        &[Vote::Yes; 3],
        TerminationVariant::Transient,
        timing,
    );
    let mut runner = ClusterRunner::new(parts);
    let (outcomes, trace, _) = runner.run(NetConfig::default(), delay, true);
    let timeouts = trace
        .events()
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::Note { label, .. }
                if label.starts_with("master-timeout") || label.starts_with("slave-timeout"))
        })
        .count();
    (Verdict::judge(outcomes), timeouts)
}

fn main() {
    println!("== E6 / Fig. 5: timeout-interval adequacy (master 2T, slave 3T) ==\n");

    let delays: Vec<(&str, DelayModel)> = vec![
        ("all messages exactly T (worst case)", DelayModel::Fixed(1000)),
        ("all messages T/2", DelayModel::Fixed(500)),
        ("near-instant", DelayModel::Fixed(1)),
        ("uniform (0,T], seed 1", DelayModel::Uniform { seed: 1, min: 1, max: 1000 }),
        ("uniform (0,T], seed 2", DelayModel::Uniform { seed: 2, min: 1, max: 1000 }),
        ("uniform [T/2,T], seed 3", DelayModel::Uniform { seed: 3, min: 500, max: 1000 }),
    ];

    let mut table = Table::new(vec!["network", "verdict", "spurious timeouts"]);
    for (name, delay) in &delays {
        let (verdict, timeouts) = run_once(ProtocolTiming::default(), delay);
        table.row(vec![name.to_string(), format!("{verdict:?}"), timeouts.to_string()]);
        assert_eq!(timeouts, 0, "paper constants must never fire failure-free");
        assert_eq!(verdict, Verdict::AllCommit);
    }
    println!("paper constants (2T / 3T): failure-free, n = 4\n{}", table.render());

    println!("undersized timers on the all-T network:\n");
    let mut table = Table::new(vec!["timing", "verdict", "spurious timeouts"]);
    for (name, timing) in [
        ("master 1T (< 2T)", ProtocolTiming { master_proto: 1, ..Default::default() }),
        ("slave 2T", ProtocolTiming { slave_proto: 2, ..Default::default() }),
        ("slave 1T (< 2T)", ProtocolTiming { slave_proto: 1, ..Default::default() }),
        ("paper 2T/3T", ProtocolTiming::default()),
    ] {
        let (verdict, timeouts) = run_once(timing, &DelayModel::Fixed(1000));
        table.row(vec![name.to_string(), format!("{verdict:?}"), timeouts.to_string()]);
    }
    println!("{}", table.render());
    println!("Undersized timers remain atomic but kill live transactions — the paper's");
    println!("values are the smallest that cover a full round trip. (Note on arming:");
    println!("the paper measures from phase start at the master, this implementation");
    println!("arms on local state entry — so a slave needs 2T from entering w, which");
    println!("is exactly the paper's 3T minus the xact leg it has already absorbed.)");
}
