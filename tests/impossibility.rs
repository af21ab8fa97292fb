//! The Sec. 2 impossibility theorems and the Sec. 7 assumption-necessity
//! counterexamples: each test names one claim of `ptp_bench::paper`, whose
//! experiment computes it (`tests/paper.rs` checks every claim and every
//! rendered output).

ptp_bench::claim_tests! {
    message_loss_breaks_the_termination_protocol => "impossibility" / "message_loss_breaks",
    optimistic_model_is_what_saves_it => "impossibility" / "returned_messages_resilient",
    multiple_partitioning_breaks_the_termination_protocol
        => "impossibility" / "crafted_three_way_split_inconsistent",
    sec7_counterexample_1_lone_prepared_g2_slave_crashes => "assumptions" / "ce1_g1_commits_g2_aborts",
    sec7_counterexample_2_g1_slave_crashes_before_probing => "assumptions" / "ce2_g1_commits_g2_aborts",
    without_crashes_the_same_scenarios_are_fine => "assumptions" / "crash_free_twins_resilient",
}
