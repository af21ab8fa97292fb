//! The paper's timing bounds (Figs. 5, 6, 7, 9) and bounded termination:
//! each test names one claim of `ptp_bench::paper`, whose experiment
//! computes it (`tests/paper.rs` checks every claim and every rendered
//! output).

ptp_bench::claim_tests! {
    fig5_no_spurious_timeouts_failure_free => "fig5" / "paper_constants_never_fire",
    fig6_adversarial_probe_gap_is_tight_but_bounded => "fig6" / "adversarial_gap_tight",
    fig6_randomized_probe_gaps_within_5t => "fig6" / "random_gaps_within_5t",
    fig7_adversarial_w_wait_is_tight_but_bounded => "fig7" / "adversarial_wait_tight",
    fig7_randomized_w_waits_within_6t => "fig7" / "random_waits_within_6t",
    fig9_p_timeout_waits_within_5t_even_transient => "fig9" / "waits_within_5t",
    decision_latency_bounded_under_any_partition => "thm9" / "decides_within_15t",
}
