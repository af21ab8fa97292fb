//! The termination protocol on real threads and wall-clock timers.
//!
//! Same state machines as every other example — but here each site is an OS
//! thread, messages travel through mpsc channels with real delays
//! bounded by `T = 10ms`, and the partition is enforced against the system
//! clock. Runs a batch of live executions with partitions landing at
//! different moments and reports the outcomes.
//!
//! ```sh
//! cargo run --release --example live_threads
//! ```

use ptp_core::livenet::{run_live, LiveConfig, LivePartition};
use ptp_core::protocols::api::Vote;
use ptp_core::ProtocolKind;
use ptp_simnet::SiteId;
use std::time::Duration;

fn main() {
    let t = Duration::from_millis(10);
    println!("Huang–Li 3PC on OS threads, T = {t:?}, 4 sites\n");

    // The re-split case may legitimately leave a site undecided (the second
    // episode never heals), so it only has to stay consistent.
    let mut all_consistent = true;
    for (label, require_all_decided, partition) in [
        ("no partition", true, None),
        (
            "partition {0,1} | {2,3} during phase 1 (t = 1.5T)",
            true,
            Some(LivePartition::simple(t * 3 / 2, vec![SiteId(2), SiteId(3)], None)),
        ),
        (
            "partition {0,1,2} | {3} during prepare (t = 2.5T)",
            true,
            Some(LivePartition::simple(t * 5 / 2, vec![SiteId(3)], None)),
        ),
        (
            "transient partition healing at 5T",
            true,
            Some(LivePartition::simple(t * 2, vec![SiteId(2), SiteId(3)], Some(t * 5))),
        ),
        (
            "split at 2T, heal at 5T, re-split differently at 7T",
            false,
            Some(LivePartition::split_heal_resplit(
                vec![SiteId(3)],
                t * 2,
                t * 5,
                vec![SiteId(1), SiteId(2)],
                t * 7,
            )),
        ),
    ] {
        let parts = ProtocolKind::HuangLi3pc.cluster(4, &[Vote::Yes; 3]);
        let outcome = run_live(parts, LiveConfig::with_t(t), partition);
        println!("{label}:");
        for (i, d) in outcome.decisions.iter().enumerate() {
            match d {
                Some(d) => println!("  site {i}: {d}"),
                None => println!("  site {i}: UNDECIDED"),
            }
        }
        println!(
            "  consistent: {}, all decided: {}, elapsed: {:?}\n",
            outcome.consistent(),
            outcome.all_decided(),
            outcome.elapsed
        );
        all_consistent &= outcome.consistent() && (!require_all_decided || outcome.all_decided());
    }

    assert!(all_consistent, "every live run must terminate consistently");
    println!("All live executions terminated consistently — the same guarantee the");
    println!("simulator proves exhaustively, holding up under real thread scheduling.");
}
