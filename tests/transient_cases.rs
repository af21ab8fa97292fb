//! The Sec. 6 case tree of transient partitions: each test names one claim
//! of `ptp_bench::paper`, whose experiment computes it (`tests/paper.rs`
//! checks every claim and every rendered output).

ptp_bench::claim_tests! {
    case_tree_is_populated_and_bounded => "fig9" / "case_tree_populated_and_3222_waits_5t",
    static_variant_survives_permanent_but_only_transient_survives_heals => "fig9" / "all_resilient",
    transient_heal_mid_collection_still_consistent => "fig9" / "heal_mid_collection_resilient",
    outside_tree_cases_are_still_resilient => "fig9" / "phase1_partitions_outside_tree_resilient",
}
