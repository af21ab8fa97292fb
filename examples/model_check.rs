//! Model check: compute the paper's formal artifacts — concurrency sets,
//! committable states, the Lemma 1/2 conditions, the derived Rule (a)/(b)
//! augmentation — and export every protocol figure as Graphviz DOT.
//!
//! ```sh
//! cargo run --example model_check
//! ```

use ptp_core::model::committable::Committability;
use ptp_core::model::concurrency::ConcurrencySets;
use ptp_core::model::dot::to_dot;
use ptp_core::model::protocols::{
    EXTENDED_TWO_PHASE, FOUR_PHASE, MODIFIED_THREE_PHASE, THREE_PHASE, TWO_PHASE,
};
use ptp_core::model::resilience::check_conditions;
use ptp_core::model::rules::derive_rules_augmentation;
use ptp_core::model::{GlobalGraph, ProtocolSpec};
use ptp_core::report::Table;

fn analyze(spec: &ProtocolSpec) {
    let graph = GlobalGraph::explore(spec);
    let csets = ConcurrencySets::compute(spec, &graph);
    let cls = Committability::compute(spec, &graph);
    let report = check_conditions(spec);

    println!("== {} (n = {}) ==", spec.name, spec.n());
    println!("reachable global states: {}", graph.states.len());

    let mut table = Table::new(vec!["state", "committable", "C(s) has commit", "C(s) has abort"]);
    for site in [0usize, 1] {
        for state_idx in 0..spec.sites[site].states.len() {
            let s = ptp_core::model::StateRef { site, state: state_idx };
            if spec.state_kind(s).is_final() {
                continue;
            }
            table.row(vec![
                format!("site{site}:{}", spec.state_name(s)),
                if cls.is_committable(s) { "yes" } else { "no" }.to_string(),
                if csets.contains_commit(spec, s) { "yes" } else { "no" }.to_string(),
                if csets.contains_abort(spec, s) { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    println!(
        "Lemma 1 violations: {}, Lemma 2 violations: {} -> {}",
        report.lemma1.len(),
        report.lemma2.len(),
        if report.satisfies_conditions() {
            "can be made resilient (necessary conditions hold)"
        } else {
            "CANNOT be made resilient to multisite simple partitioning"
        }
    );
    println!();
}

fn main() {
    for spec in [
        TWO_PHASE.spec(3),
        EXTENDED_TWO_PHASE.spec(3),
        THREE_PHASE.spec(3),
        MODIFIED_THREE_PHASE.spec(3),
        FOUR_PHASE.spec(3),
    ] {
        analyze(&spec);
    }

    // The Sec. 3 derivation story: the rules that work at n=2...
    let d2 = derive_rules_augmentation(&EXTENDED_TWO_PHASE.spec(2));
    println!("Rule (a)/(b) augmentation of E2PC derived at n=2:");
    for ((role, state), decision) in &d2.augmentation.timeout {
        println!("  timeout in {role:?}:{state} -> {decision}");
    }
    for ((role, state), decision) in &d2.augmentation.ud {
        println!("  UD      in {role:?}:{state} -> {decision}");
    }

    // ... and the DOT renders of every figure.
    let out_dir = std::env::temp_dir().join("ptp-figures");
    std::fs::create_dir_all(&out_dir).expect("create figure dir");
    for (file, spec, aug) in [
        ("fig1_2pc.dot", TWO_PHASE.spec(3), None),
        ("fig2_e2pc.dot", EXTENDED_TWO_PHASE.spec(3), Some(d2.augmentation.clone())),
        ("fig3_3pc.dot", THREE_PHASE.spec(3), None),
        ("fig8_m3pc.dot", MODIFIED_THREE_PHASE.spec(3), None),
    ] {
        let path = out_dir.join(file);
        std::fs::write(&path, to_dot(&spec, aug.as_ref())).expect("write dot");
        println!("wrote {}", path.display());
    }
}
