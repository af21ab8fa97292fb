//! Campaign read audits at the database backend.
//!
//! [`Campaign`] sweeps fault timelines against the *protocol* clusters and
//! audits commit atomicity. This module points the same timeline generator
//! at the **database** backend: every sampled timeline is lowered through
//! [`Timeline::faults`] onto a [`DbCluster`] serving a seeded mixed
//! read/write workload, and every read the cluster served is audited
//! against the committed-write history — the flat-cluster analogue of
//! `ptp_shard::check_read_history`.
//!
//! The oracle is the same one the shard layer justifies: under strict 2PL
//! every write to a key commits through the master (site 0), so the
//! master's commit instants totally order the key's writes, and a read
//! served at instant `t` must observe the last write committed strictly
//! before `t` (the seed if none) — or any write committing at exactly `t`,
//! which is concurrent with the read and may land on either side of it.
//!
//! Failures shrink over the same candidate space as the protocol campaign
//! (event removal, envelope-fault removal, time halving), with the
//! workload held fixed — the counterexample is a minimal *fault schedule*
//! for the fixed read/write mix.

use crate::campaign::{candidates, Campaign};
use crate::timeline::Timeline;
use ptp_ddb::cluster::{CommitProtocol, DbCluster};
use ptp_ddb::site::{Metrics, ReadSpec, TxnSpec};
use ptp_ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_model::Decision;
use ptp_simnet::rng::SmallRng;
use ptp_simnet::{FaultPlan, SimTime};
use std::collections::BTreeMap;

/// Read ids live above every write id so the two namespaces cannot
/// collide.
const READ_BASE: u32 = 1000;

/// Shrinker budget: candidate executions per failing timeline.
const SHRINK_BUDGET: usize = 128;

/// The seeded mixed workload a read audit runs under one timeline: a
/// deterministic function of the timeline's seed, so `(seed, index)`
/// replays bit-for-bit.
#[derive(Debug, Clone)]
pub struct ReadWorkload {
    /// Initial `(key, value)` pairs, installed at every site.
    pub seeds: Vec<(Key, Value)>,
    /// Write transactions: `(submit tick, spec)`.
    pub txns: Vec<(u64, TxnSpec)>,
    /// Read transactions: `(submit tick, spec)`.
    pub reads: Vec<(u64, ReadSpec)>,
}

impl ReadWorkload {
    /// Samples the workload for a cluster of `n` sites from `seed`.
    pub fn sample(seed: u64, n: usize) -> ReadWorkload {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F4E_AD50_u64.rotate_left(17));
        let keys: Vec<Key> = (0..4).map(|i| Key::from(format!("k{i}"))).collect();
        let seeds: Vec<(Key, Value)> =
            keys.iter().enumerate().map(|(i, k)| (k.clone(), Value::from_u64(i as u64))).collect();

        let txn_count = 1 + rng.gen_range(0..=5) as u32;
        let txns = (0..txn_count)
            .map(|i| {
                let at = rng.gen_range(0..=20_000);
                let mut writes: Vec<WriteOp> = (0..=rng.gen_range(0..=1))
                    .map(|_| WriteOp {
                        key: keys[rng.gen_range(0..=3) as usize].clone(),
                        value: Value::from_u64(1000 * (i as u64 + 1) + rng.gen_range(0..=999)),
                    })
                    .collect();
                writes.sort_by(|a, b| a.key.cmp(&b.key));
                writes.dedup_by(|a, b| a.key == b.key);
                let per_site: BTreeMap<u16, Vec<WriteOp>> =
                    (0..n as u16).map(|s| (s, writes.clone())).collect();
                (at, TxnSpec { id: TxnId(i + 1), writes: per_site })
            })
            .collect();

        let read_count = 2 + rng.gen_range(0..=6) as u32;
        let reads = (0..read_count)
            .map(|i| {
                let at = rng.gen_range(0..=30_000);
                let mut ks: Vec<Key> = (0..=rng.gen_range(0..=1))
                    .map(|_| keys[rng.gen_range(0..=3) as usize].clone())
                    .collect();
                ks.sort();
                ks.dedup();
                (at, ReadSpec { id: TxnId(READ_BASE + i), keys: ks })
            })
            .collect();

        ReadWorkload { seeds, txns, reads }
    }

    /// Builds and runs the cluster under `timeline`'s lowered faults,
    /// returning the run's metrics.
    fn run(&self, protocol: CommitProtocol, timeline: &Timeline) -> Metrics {
        let mut cluster = DbCluster::new(timeline.n, protocol);
        for (key, value) in &self.seeds {
            for site in 0..timeline.n as u16 {
                cluster = cluster.seed(site, key.clone(), value.clone());
            }
        }
        for (at, spec) in &self.txns {
            cluster = cluster.submit(*at, spec.clone());
        }
        for (at, spec) in &self.reads {
            cluster = cluster.submit_read(*at, spec.clone());
        }
        // Partitions and crashes only: see `Campaign::run_db_read_audit`.
        let FaultPlan { partition, failures, .. } = timeline.faults();
        cluster.faults = FaultPlan { partition, failures, ..FaultPlan::default() };
        cluster.run().metrics
    }
}

/// Audits every served read in `metrics` against the committed-write
/// history. Returns one message per violating `(read, key)` observation.
pub fn read_history_violations(workload: &ReadWorkload, metrics: &Metrics) -> Vec<String> {
    // Per-key committed-write history, ordered by the master's (site 0's)
    // commit instant — the key's linearization points under strict 2PL.
    let mut history: BTreeMap<&Key, Vec<(SimTime, &Value)>> = BTreeMap::new();
    for (_, spec) in &workload.txns {
        let Some(&(Decision::Commit, at)) =
            metrics.decisions.get(&spec.id).and_then(|per| per.get(&0))
        else {
            continue;
        };
        // Last write wins within one transaction's write set.
        let mut last: BTreeMap<&Key, &Value> = BTreeMap::new();
        for w in spec.writes.get(&0).into_iter().flatten() {
            last.insert(&w.key, &w.value);
        }
        for (key, value) in last {
            history.entry(key).or_default().push((at, value));
        }
    }
    for writes in history.values_mut() {
        writes.sort_by_key(|(at, _)| *at);
    }

    let mut violations = Vec::new();
    for record in &metrics.reads {
        for (key, observed) in &record.values {
            let writes = history.get(key).map(Vec::as_slice).unwrap_or(&[]);
            let latest =
                writes.iter().rev().find(|(at, _)| *at < record.at).map(|(_, v)| *v).or_else(
                    || workload.seeds.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
                );
            let admissible: Vec<Option<&Value>> = latest
                .into_iter()
                .map(Some)
                .chain(writes.iter().filter(|(at, _)| *at == record.at).map(|(_, v)| Some(*v)))
                .collect();
            let admissible = if admissible.is_empty() { vec![None] } else { admissible };
            if !admissible.contains(&observed.as_ref()) {
                violations.push(format!(
                    "read {:?} at {:?} (site {:?}, {:?} path) observed {observed:?} for key {key:?}; admissible: {admissible:?}",
                    record.id, record.at, record.site, record.path,
                ));
            }
        }
    }
    violations
}

/// One read-audit failure: the timeline that tripped the oracle, shrunk.
#[derive(Debug, Clone)]
pub struct ReadAuditFailure {
    /// Which sampled timeline failed.
    pub index: usize,
    /// Its derived seed.
    pub seed: u64,
    /// The first violation message of the original run.
    pub message: String,
    /// The timeline as sampled.
    pub original: Timeline,
    /// The still-failing minimal counterexample (same workload).
    pub minimal: Timeline,
}

/// What [`Campaign::run_db_read_audit`] produced.
#[derive(Debug)]
pub struct ReadAuditReport {
    /// Timelines sampled and executed.
    pub executed: usize,
    /// Reads audited across all runs (served reads × observed keys).
    pub reads_checked: usize,
    /// Every read-history failure, shrunk.
    pub failures: Vec<ReadAuditFailure>,
}

impl ReadAuditReport {
    /// True when every served read linearized.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }
}

impl Campaign {
    /// Runs the campaign's timelines against the **database backend**: each
    /// timeline is lowered via [`Timeline::faults`] onto a [`DbCluster`]
    /// serving a seeded mixed read/write workload ([`ReadWorkload::sample`]
    /// keyed by the timeline seed), and every served read is audited
    /// against the committed-write history
    /// ([`read_history_violations`]). Failures shrink the fault schedule
    /// with the workload held fixed.
    ///
    /// Only the plan's partition episodes and crashes are armed; degrade
    /// windows and envelope faults are left out — use a config that
    /// samples partitions and crashes only if every sampled fault should
    /// reach the cluster.
    pub fn run_db_read_audit(&self, protocol: CommitProtocol) -> ReadAuditReport {
        let config = self.config();
        let mut failures = Vec::new();
        let mut reads_checked = 0usize;
        for index in 0..config.timelines {
            let seed = self.timeline_seed(index);
            let timeline = self.timeline(index);
            let workload = ReadWorkload::sample(seed, config.n);
            let metrics = workload.run(protocol, &timeline);
            reads_checked += metrics.reads.iter().map(|r| r.values.len()).sum::<usize>();
            let violations = read_history_violations(&workload, &metrics);
            if let Some(message) = violations.into_iter().next() {
                let minimal = shrink_db(&workload, protocol, timeline.clone());
                failures.push(ReadAuditFailure {
                    index,
                    seed,
                    message,
                    original: timeline,
                    minimal,
                });
            }
        }
        ReadAuditReport { executed: config.timelines, reads_checked, failures }
    }
}

/// Greedy restart-on-improvement shrinking over the campaign's candidate
/// space, re-judged by the read-history oracle.
fn shrink_db(workload: &ReadWorkload, protocol: CommitProtocol, original: Timeline) -> Timeline {
    let mut minimal = original;
    let mut tested = 0usize;
    'passes: loop {
        for candidate in candidates(&minimal) {
            if tested >= SHRINK_BUDGET {
                break 'passes;
            }
            tested += 1;
            let metrics = workload.run(protocol, &candidate);
            if !read_history_violations(workload, &metrics).is_empty() {
                minimal = candidate;
                continue 'passes;
            }
        }
        break;
    }
    minimal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::scenario::ProtocolKind;

    /// Partitions + crashes only: the fault family the database lowering
    /// carries in full.
    fn db_config(timelines: usize, seed: u64) -> CampaignConfig {
        let mut config = CampaignConfig::safe(ProtocolKind::HuangLi3pc, 4, timelines, seed);
        config.crashes = true;
        config.degrades = false;
        config.duplicates = false;
        config
    }

    #[test]
    fn workload_sampling_is_deterministic() {
        let a = ReadWorkload::sample(42, 4);
        let b = ReadWorkload::sample(42, 4);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = ReadWorkload::sample(43, 4);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn safe_family_timelines_keep_every_served_read_linearizable() {
        for protocol in
            [CommitProtocol::TwoPhase, CommitProtocol::HuangLi, CommitProtocol::QuorumMajority]
        {
            let campaign = Campaign::new(db_config(15, 0xDBA_0D17));
            let report = campaign.run_db_read_audit(protocol);
            assert_eq!(report.executed, 15);
            assert!(report.all_green(), "{protocol:?}: {:#?}", report.failures);
            assert!(report.reads_checked > 0, "{protocol:?}: the audit must see served reads");
        }
    }

    #[test]
    fn a_doctored_history_trips_the_oracle() {
        // The checker itself must not be vacuous: serve a read, then claim
        // a value no linearization admits.
        let campaign = Campaign::new(db_config(8, 7));
        let workload = ReadWorkload::sample(campaign.timeline_seed(0), 4);
        let timeline = campaign.timeline(0);
        let mut metrics = workload.run(CommitProtocol::HuangLi, &timeline);
        let Some(record) = metrics.reads.first_mut() else {
            return; // this seed served no reads; the sweep test covers the rest
        };
        for (_, observed) in &mut record.values {
            *observed = Some(Value::from_u64(0xBAD_FACE));
        }
        assert!(!read_history_violations(&workload, &metrics).is_empty());
    }
}
