//! Seeded chaos-campaign gate for CI.
//!
//! Samples a safe-family campaign — partitions, degraded-delay windows, and
//! duplicate envelopes, but no crash-during-partition overlap (the Sec. 7
//! impossibility territory) — and requires every timeline to leave the
//! paper's protocol atomic. The seed is pinned, so a red run here names a
//! timeline index that `Campaign::timeline(index)` reproduces exactly.
//!
//! The same loop then points the same timelines at the store that serves —
//! `run_planned` under a sharded and a flat topology, leases and
//! anti-entropy on — where a timeline must also leave every served read
//! linearizable and, once healed, every replica converged and no lock held.
//! A release build raises those two campaigns to 20 000 timelines each.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::scenario::ScenarioBuilder;
use ptp_core::{run_scenario_opts, Campaign, CampaignConfig, ProtocolKind, RunOptions};
use ptp_simnet::{EnvelopeMatch, SiteId, TraceEvent};

#[test]
fn fifty_timeline_safe_campaign_is_green_for_huang_li_3pc() {
    let config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, 50, 0xC1_2026);
    let report = Campaign::new(config).run();
    assert_eq!(report.executed, 50);
    assert!(
        report.all_green(),
        "campaign found {} failure(s); first: {:?}",
        report.failures.len(),
        report.failures.first()
    );
}

/// Regression for a counterexample an early campaign run surfaced (seed
/// 92694865751786356, shrunk by the campaign itself to this timeline): a
/// duplicated "yes" vote whose ghost copy crossed the partition boundary
/// used to *bounce back to its sender*, fabricating the undeliverable-vote
/// signal the paper's unilateral-abort rule relies on — slave 2 aborted
/// while the master (holding the original vote) committed. Ghost duplicates
/// now vanish at the boundary instead of bouncing; the run must stay atomic.
#[test]
fn ghost_duplicate_of_a_yes_vote_must_not_fabricate_an_undeliverable_bounce() {
    let timeline = ScenarioBuilder::new(4)
        .at(3143)
        .partition(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]])
        .duplicate(EnvelopeMatch::kind("yes"), 1191)
        .build();
    let result =
        run_scenario_opts(ProtocolKind::HuangLi3pc, &timeline.scenario(), &RunOptions::recording());
    assert!(result.verdict.is_atomic(), "verdict: {:?}", result.verdict);
    let ghost_dropped =
        result.trace.events().iter().any(|e| matches!(e, TraceEvent::Dropped { kind: "yes", .. }));
    let yes_returned =
        result.trace.events().iter().any(|e| matches!(e, TraceEvent::Returned { kind: "yes", .. }));
    assert!(ghost_dropped, "the partition-blocked ghost copy must be silently dropped");
    assert!(!yes_returned, "no yes vote may come back undeliverable in this timeline");
}

#[test]
fn fifty_timeline_safe_campaign_is_green_for_the_quorum_protocol() {
    let config = CampaignConfig::safe(ProtocolKind::QuorumMajority, 5, 50, 0xC2_2026);
    let report = Campaign::new(config).run();
    assert_eq!(report.executed, 50);
    assert!(
        report.all_green(),
        "campaign found {} failure(s); first: {:?}",
        report.failures.len(),
        report.failures.first()
    );
}

/// HL-3PC on the planned store over `topology`: 400 timelines in a debug
/// build, 20 000 in a release one.
fn assert_planned_campaign_green(topology: ShardTopology, crashes: bool) {
    let timelines = if cfg!(debug_assertions) { 400 } else { 20_000 };
    let mut config =
        CampaignConfig::safe(ProtocolKind::HuangLi3pc, topology.sites(), timelines, 0xC1_2026);
    config.crashes = crashes;
    let report = Campaign::new(config).run_planned(&topology, CommitProtocol::HuangLi);
    assert_eq!(report.executed, timelines);
    assert!(report.all_green(), "{}", report.failures[0].render());
}

/// Every fault class armed: on 3 × 2 the crashable sites — those that
/// master no shard — are the three replicas, each a slave of a two-site
/// group, so no crash can silence a probe the termination protocol counts.
#[test]
fn planned_campaign_is_green_for_huang_li_on_the_sharded_store() {
    assert_planned_campaign_green(ShardTopology::uniform(6, 3, 2), true);
}

/// The flat database is the planned store at `uniform(n, 1, n)`. Crashes
/// stay off here: in a four-site group a slave that crashes within a few
/// `T` of a heal is Sec. 7's "G1 slave crashes before probing" (ROADMAP
/// item 1 files the one such timeline in 20 000).
#[test]
fn planned_campaign_is_green_for_huang_li_on_the_flat_database() {
    assert_planned_campaign_green(ShardTopology::uniform(4, 1, 4), false);
}
