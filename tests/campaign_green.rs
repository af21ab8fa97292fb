//! Seeded chaos-campaign gate for CI.
//!
//! Samples a safe-family campaign — partitions, degraded-delay windows, and
//! duplicate envelopes — and requires every timeline to leave the paper's
//! protocol atomic. The seed is pinned, so a red run here names a timeline
//! index that `Campaign::timeline(index)` reproduces exactly.
//!
//! The same loop then points the same timelines at the store that serves —
//! `run_planned` for HL-3PC and Quorum under a sharded and a flat topology,
//! leases and anti-entropy on, crashes armed too under the family's crash
//! rule (none from a partition's onset until 6T after its heal: the Sec. 7
//! impossibility territory) — where a timeline must also pass the store
//! audit (atomicity, WAL discipline, provenance), leave every served read
//! linearizable and, for HL-3PC once healed, every replica converged and no
//! lock held. A release build raises those four campaigns to 20 000
//! timelines each.

use ptp_core::ddb::cluster::CommitProtocol;
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::protocols::{Verdict, Vote};
use ptp_core::scenario::{Scenario, ScenarioBuilder};
use ptp_core::{Campaign, CampaignConfig, CampaignReport, ProtocolKind, RunOptions, Session};
use ptp_simnet::{DelayModel, EnvelopeFault, EnvelopeMatch, SimDuration, SiteId, TraceEvent};

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
    let result = Session::new(ProtocolKind::HuangLi3pc, 4)
        .run_with(&timeline.scenario(), &RunOptions::recording());
    assert!(result.verdict.is_atomic(), "verdict: {:?}", result.verdict);
    let ghost_dropped =
        result.trace.events().iter().any(|e| matches!(e, TraceEvent::Dropped { kind: "yes", .. }));
    let yes_returned =
        result.trace.events().iter().any(|e| matches!(e, TraceEvent::Returned { kind: "yes", .. }));
    assert!(ghost_dropped, "the partition-blocked ghost copy must be silently dropped");
    assert!(!yes_returned, "no yes vote may come back undeliverable in this timeline");
}

/// ROADMAP item 1(a), with no partition at all: slave 1's `yes` and `ack`
/// each arrive twice, and slave 3's `no` crawls over a slow link. A master
/// that counted replies took the second copy of slave 1's `yes` for slave
/// 3's and prepared, then committed on two copies of one `ack` while slave
/// 3 had aborted on its own `no`. A master that counts voters waits for
/// slave 3, whose `no` aborts everyone.
#[test]
fn a_duplicated_vote_counts_its_voter_once() {
    let fast = |a: u16, b: u16| [((a, b), 100), ((b, a), 100)];
    let links = [fast(0, 1), fast(0, 2)].into_iter().flatten().collect();
    let mut scenario = Scenario::new(4)
        .votes(vec![Vote::Yes, Vote::Yes, Vote::No])
        .delay(DelayModel::PerLink { links, default: 1000 });
    for kind in ["yes", "ack"] {
        let twice = EnvelopeMatch::kind(kind).from(SiteId(1));
        scenario.faults.env_faults.push(EnvelopeFault::duplicate(twice, SimDuration(50)));
    }
    let verdict = Session::new(ProtocolKind::QuorumMajority, 4).run(&scenario).verdict;
    assert_eq!(verdict, Verdict::AllAbort);
    let huang_li = Session::new(ProtocolKind::HuangLi3pc, 4).run(&scenario).verdict;
    assert_eq!(huang_li, Verdict::AllAbort);
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

/// The planned campaigns' configuration: every fault class armed.
fn armed(protocol: CommitProtocol, n: usize, timelines: usize) -> CampaignConfig {
    let mut config = CampaignConfig::safe(ProtocolKind::from(protocol), n, timelines, 0xC1_2026);
    config.crashes = true;
    config
}

/// `protocol` on the planned store over `topology`, every fault class
/// armed: 400 timelines in a debug build, 20 000 in a release one.
fn assert_planned_campaign_green(protocol: CommitProtocol, topology: ShardTopology) {
    let timelines = if cfg!(debug_assertions) { 400 } else { 20_000 };
    let config = armed(protocol, topology.sites(), timelines);
    let report = Campaign::new(config).run_planned(&topology, protocol);
    assert_eq!(report.executed, timelines);
    assert!(report.all_green(), "{}", report.failures[0].render());
}

/// Every fault class armed: on 3 × 2 the crashable sites — those that
/// master no shard — are the three replicas, each a slave of a two-site
/// group, so no crash can silence a probe the termination protocol counts.
#[test]
fn planned_campaign_is_green_for_huang_li_on_the_sharded_store() {
    assert_planned_campaign_green(CommitProtocol::HuangLi, ShardTopology::uniform(6, 3, 2));
}

/// The flat database is the planned store at `uniform(n, 1, n)`, every
/// fault class armed. A four-site group is where a slave crashing within a
/// few `T` of a heal is Sec. 7's "G1 slave crashes before probing": the
/// family's crash window keeps those timelines out.
#[test]
fn planned_campaign_is_green_for_huang_li_on_the_flat_database() {
    assert_planned_campaign_green(CommitProtocol::HuangLi, ShardTopology::uniform(4, 1, 4));
}

/// Quorum on the sharded store, every fault class armed. Quorum blocks by
/// design, so the campaign asks it for the store audit and read history
/// only.
#[test]
fn planned_campaign_is_green_for_quorum_on_the_sharded_store() {
    let topology = ShardTopology::uniform(6, 3, 2);
    assert_planned_campaign_green(CommitProtocol::QuorumMajority, topology);
}

/// Quorum on the flat database, every fault class armed.
#[test]
fn planned_campaign_is_green_for_quorum_on_the_flat_database() {
    let topology = ShardTopology::uniform(4, 1, 4);
    assert_planned_campaign_green(CommitProtocol::QuorumMajority, topology);
}

/// Timeline `index` of `config`'s planned campaign, run alone: timeline 0
/// of the campaign whose seed `Campaign::timeline_seed` steps `index` times.
fn run_planned_timeline(
    mut config: CampaignConfig,
    index: usize,
    topology: &ShardTopology,
    protocol: CommitProtocol,
) -> CampaignReport {
    let original = Campaign::new(config.clone());
    let stride = original.timeline_seed(index).wrapping_sub(original.timeline_seed(0));
    (config.seed, config.timelines) = (config.seed.wrapping_add(stride), 1);
    let alone = Campaign::new(config);
    assert_eq!(alone.timeline_seed(0), original.timeline_seed(index));
    alone.run_planned(topology, protocol)
}

/// ROADMAP item 1(a) as the planned campaign found it: timeline 12083 of
/// Quorum's flat-database campaign, crashes off. A duplicated vote let the
/// master count one voter twice, and transaction 4 was decided both ways.
#[test]
fn planned_timeline_12083_keeps_quorum_atomic_under_a_duplicated_vote() {
    let config = CampaignConfig::safe(ProtocolKind::QuorumMajority, 4, 1, 0xC1_2026);
    let topology = ShardTopology::uniform(4, 1, 4);
    let report = run_planned_timeline(config, 12083, &topology, CommitProtocol::QuorumMajority);
    assert!(report.all_green(), "{}", report.failures[0].render());
}

/// A finding of the store audit on its first planned campaign: timeline 93
/// of HL-3PC's sharded campaign, crashes on, shrinks to one write on shard
/// 2 and replica 5 crashing after it acked. The audit reads every site's
/// decisions, and replica 5 used to presume the write aborted on recovery
/// while its master had committed it. A participant now records no
/// decision on recovery and learns the commit by decision replay.
#[test]
fn planned_timeline_93_a_recovered_replica_learns_the_commit_it_acked() {
    let mut config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 6, 1, 0xC1_2026);
    config.crashes = true;
    let topology = ShardTopology::uniform(6, 3, 2);
    let report = run_planned_timeline(config, 93, &topology, CommitProtocol::HuangLi);
    assert!(report.all_green(), "{}", report.failures[0].render());
}

/// Timeline 3117 of HL-3PC's flat-database campaign with crashes on, alone.
/// As first filed it crashed slave 1 at 5062, 725 ticks after the heal of
/// `{0,1,2} | {3}` (2861–4337), before its probe; the master counted it as
/// prepared-in-G2 and committed while site 3 aborted. The family's crash
/// window no longer samples that crash.
#[test]
fn planned_timeline_3117_samples_no_crash_inside_the_termination_window() {
    let topology = ShardTopology::uniform(4, 1, 4);
    let config = armed(CommitProtocol::HuangLi, 4, 1);
    let report = run_planned_timeline(config, 3117, &topology, CommitProtocol::HuangLi);
    assert!(report.all_green(), "{}", report.failures[0].render());
}

/// Timeline 447 of Quorum's flat-database campaign with crashes on, alone.
/// As first filed it crashed site 2 at 3778, 1654 ticks after the heal of
/// `{0,2,3} | {1}` (1115–2124): the same class as 3117.
#[test]
fn planned_timeline_447_samples_no_crash_inside_the_termination_window() {
    let topology = ShardTopology::uniform(4, 1, 4);
    let config = armed(CommitProtocol::QuorumMajority, 4, 1);
    let report = run_planned_timeline(config, 447, &topology, CommitProtocol::QuorumMajority);
    assert!(report.all_green(), "{}", report.failures[0].render());
}
