//! Theorem 9, Theorem 10 and the Sec. 3 baselines: each test names one
//! claim of `ptp_bench::paper`, whose experiment computes it
//! (`tests/paper.rs` checks every claim and every rendered output).

ptp_bench::claim_tests! {
    theorem9_huang_li_3pc_resilient_n3_permanent => "thm9" / "n3_permanent_resilient",
    theorem9_huang_li_3pc_resilient_n4_permanent => "thm9" / "n4_permanent_resilient",
    sec6_huang_li_3pc_resilient_under_transient_partitions => "thm9" / "n3_transient_resilient",
    static_variant_resilient_under_permanent_partitions => "thm9" / "n3_permanent_resilient",
    mixed_votes_stay_atomic_under_partition => "thm9" / "no_vote_never_commits",
    theorem10_huang_li_4pc_resilient => "thm10" / "4pc_resilient",
    sec3_extended_2pc_violates_atomicity_multisite => "fig2" / "n3_breaks_atomicity",
    sec3_naive_augmented_3pc_violates_atomicity_multisite => "fig3" / "naive_breaks_atomicity",
    two_pc_blocks_but_stays_atomic => "fig1" / "blocks_but_stays_atomic",
    quorum_baseline_atomic_but_blocking => "quorum" / "quorum_sweep_atomic_but_blocks",
}
