//! E13 — Sec. 7: why the paper assumes network partitioning and site
//! failures never occur concurrently.
//!
//! The conclusion gives two counterexamples; both are reproduced here with
//! crash injection:
//!
//! 1. "if the only slave in G2 that receives a prepare message fails before
//!    it sends out commit messages, then all slaves in G2 will abort while
//!    all participating sites in G1 will commit."
//! 2. "if none of the slaves in G2 receives a prepare message and one of
//!    the slaves in G1 fails after receiving a prepare message but before
//!    sending a probe message, then all slaves in G2 will abort while all
//!    participating sites in G1 will commit."

use ptp_core::{ProtocolKind, Scenario, Session};
use ptp_model::Decision;
use ptp_simnet::{FailureSpec, ScheduleBuilder, SimTime, SiteId};

fn print_outcomes(label: &str, result: &ptp_core::ScenarioResult) {
    println!("{label}:");
    for (i, o) in result.outcomes.iter().enumerate() {
        match o.decision {
            Some(Decision::Commit) => println!("  site {i}: commit"),
            Some(Decision::Abort) => println!("  site {i}: ABORT"),
            None => println!("  site {i}: blocked/crashed"),
        }
    }
    println!("  verdict: {:?}\n", result.verdict);
}

fn main() {
    println!("== E13 / Sec. 7: the assumptions are necessary ==\n");

    // Counterexample 1 — n = 4, G2 = {2, 3}. The schedule delivers slave
    // 2's prepare just before the cut (it is "the only slave in G2 that
    // receives a prepare"); slave 3's prepare bounces. Slave 2 then crashes
    // before its UD(ack) would have triggered the commit broadcast.
    //
    // Send order: 0-2: xact->1,2,3; 3-5: yes; 6-8: prepare->1,2,3; ...
    let schedule = ScheduleBuilder::with_default(1000)
        .outbound(7, 400) // prepare->2 arrives at 2.4T, before the 2.5T cut
        .build();
    let scenario = Scenario::new(4)
        .partition_g2(vec![SiteId(2), SiteId(3)], 2500)
        .delay(schedule)
        .fail(FailureSpec::crash(SiteId(2), SimTime(3000)));
    let result = Session::new(ProtocolKind::HuangLi3pc, scenario.n).run(&scenario);
    print_outcomes(
        "counterexample 1 (lone prepared G2 slave crashes before broadcasting)",
        &result,
    );
    // G1 (master + slave 1) commits; slave 3 aborts after its 6T wait.
    assert_eq!(result.outcomes[0].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[1].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[3].decision, Some(Decision::Abort));
    println!("  -> the crash had the effect of a lost commit broadcast: G1 committed,");
    println!("     G2's surviving slave aborted. Exactly the paper's point.\n");

    // Counterexample 2 — n = 4, G2 = {3}; no G2 slave gets a prepare.
    // Slave 1 (in G1) receives its prepare at 3T and crashes at 3.5T,
    // before its probe (due at ~6T). The master's rule sees
    // slaves − UD = {1, 2} but PB = {2}: the sets differ, so it commits —
    // wrongly concluding a prepare crossed the boundary.
    let scenario = Scenario::new(4)
        .partition_g2(vec![SiteId(3)], 2500)
        .fail(FailureSpec::crash(SiteId(1), SimTime(3500)));
    let result = Session::new(ProtocolKind::HuangLi3pc, scenario.n).run(&scenario);
    print_outcomes(
        "counterexample 2 (G1 slave crashes between prepare receipt and probe)",
        &result,
    );
    assert_eq!(result.outcomes[0].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[2].decision, Some(Decision::Commit));
    assert_eq!(result.outcomes[3].decision, Some(Decision::Abort));
    println!("  -> the missing probe is indistinguishable from \"his prepare crossed B\",");
    println!("     so the master commits while the cut-off slave aborts.");
    println!("\nBoth crashes act exactly like lost messages — and no protocol survives");
    println!("message loss (Sec. 2). Hence the paper's assumption 3.");
}
