//! E1 — Fig. 1: the two-phase commit protocol.
//!
//! Regenerates the figure (as DOT), computes the formal facts behind the
//! paper's Sec. 2 narrative — `C(w_slave)` contains both a commit and an
//! abort, so 2PC blocks when the master is unreachable — and demonstrates
//! the blocking behaviour on the simulated network.

use ptp_core::model::concurrency::ConcurrencySets;
use ptp_core::model::dot::to_dot;
use ptp_core::model::protocols::two_phase;
use ptp_core::model::GlobalGraph;
use ptp_core::report::Table;
use ptp_core::{ProtocolKind, Scenario, Session};
use ptp_simnet::SiteId;

fn main() {
    let spec = two_phase(3);
    println!("== E1 / Fig. 1: two-phase commit ==\n");
    println!("{spec}");

    let graph = GlobalGraph::explore(&spec);
    let csets = ConcurrencySets::compute(&spec, &graph);
    println!("reachable global states (n=3): {}\n", graph.states.len());

    let mut table = Table::new(vec!["state", "C(s) ∋ commit", "C(s) ∋ abort"]);
    for (site, name) in [(0usize, "w1"), (1usize, "w")] {
        let s = spec.state_ref(site, name);
        table.row(vec![
            format!("site{site}:{name}"),
            csets.contains_commit(&spec, s).to_string(),
            csets.contains_abort(&spec, s).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("paper: the slave wait state has both a commit and an abort concurrent —");
    println!("the blocking diagnosis behind the move to 3PC.\n");

    // Behavioural witness: partition the slaves away after they voted.
    let scenario = Scenario::new(3).partition_g2(vec![SiteId(1), SiteId(2)], 1500);
    let result = Session::new(ProtocolKind::Plain2pc, scenario.n).run(&scenario);
    println!("partition {{0}} | {{1,2}} at 1.5T: verdict = {:?}", result.verdict);
    assert!(!result.verdict.is_resilient());

    println!("\n--- DOT (Fig. 1) ---\n{}", to_dot(&spec, None));
}
