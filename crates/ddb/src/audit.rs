//! The store audit: what a finished run of the store must satisfy, checked
//! once for both hosts — `ptp-live`'s `run_server` after serving on threads
//! and the planned chaos campaign (`ptp_core::campaign`) after each
//! simulated run. See [`audit`].

use crate::plan::PlanTable;
use crate::storage::Storage;
use crate::value::{Decisions, Key, TxnId, Value};
use crate::wal::Wal;
use ptp_model::Decision;
use ptp_simnet::{FaultPlan, SiteId};
use std::collections::HashMap;

/// An audit keeps this many violation lines.
pub const MAX_VIOLATIONS: usize = 20;

/// What the audit of a finished run found.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// No invariant violated.
    pub ok: bool,
    /// `true` when the run had no partition, crash or envelope fault.
    pub strict: bool,
    /// Write transactions checked.
    pub checked_writes: usize,
    /// Reads checked (by a client ledger; the store audit checks none).
    pub checked_reads: usize,
    /// Every shard's replicas agreed on every key (a violation if strict).
    pub converged: bool,
    /// The first key and replica found off the shard master's value.
    pub diverged: Option<(Key, SiteId)>,
    /// Human-readable violations (capped at [`MAX_VIOLATIONS`]).
    pub violations: Vec<String>,
}

/// What one site left behind, as the audit reads it.
#[derive(Debug, Clone, Copy)]
pub struct SiteRemains<'a> {
    /// Committed storage.
    pub storage: &'a Storage,
    /// The write-ahead log.
    pub wal: &'a Wal,
    /// Every decision the site recorded.
    pub finished: &'a Decisions,
}

/// Audits a finished run: `sites` by site index, `keys` every key to check
/// with its seed, in report order. `acks` is a client's view of each write;
/// without one, the plan master's decision stands in (a live ack is sent
/// from exactly that record) or, where it never decided (a Quorum master
/// cut off from the quorum that did), the first decision a site recorded.
///
/// * **Atomicity** (Theorem 9): every site's decision and the client agree.
/// * **WAL discipline** (Sec. 2): at most one durable commit record per
///   site and write, checkpointed or not, and none the client saw abort.
/// * **Provenance:** a stored value is its key's seed or a committed
///   writer's value for it.
/// * **Convergence:** each key's shard group agrees on it.
/// * **Strict mode** (no partition, crash or envelope fault): every replica
///   of a committed write's shards holds one commit record and recorded the
///   commit, divergence is a violation, and no committed write is lost.
pub fn audit<'k>(
    plans: &PlanTable,
    sites: &[SiteRemains<'_>],
    keys: impl IntoIterator<Item = (&'k Key, Option<&'k Value>)>,
    faults: &FaultPlan,
    acks: Option<&dyn Fn(TxnId) -> Option<Decision>>,
) -> AuditReport {
    let strict = faults.partition.episodes().is_empty()
        && faults.failures.is_empty()
        && faults.env_faults.is_empty();
    let mut violations = Vec::new();
    let mut violate = |msg: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(msg);
        }
    };
    let topo = &plans.topology;
    let whom =
        |i: Option<usize>| i.map_or("client ack".into(), |i| format!("site {}", SiteId(i as u16)));

    // Durable commit records per (site, plan row), checkpointed or not: one
    // byte each, 255 standing for more. (Anti-entropy's installs have ids
    // of their own.)
    let rows = plans.iter().count();
    let durable: Vec<Vec<u8>> = (sites.iter())
        .map(|site| {
            let mut per = vec![0u8; rows];
            for row in site.wal.durable_commits().filter_map(|txn| plans.row(txn)) {
                per[row] = per[row].saturating_add(1);
            }
            per
        })
        .collect();

    let mut committed_writers_of: HashMap<&Key, Vec<TxnId>> = HashMap::new();
    for (row, (txn, plan)) in plans.iter().enumerate() {
        let recorded = |i: usize| sites[i].finished.get(txn);
        let view = match acks {
            Some(acks) => acks(txn),
            None => recorded(plan.master().index()).or_else(|| (0..sites.len()).find_map(recorded)),
        };
        // Atomicity: every decision recorded anywhere (the ack first) agrees
        // with the first.
        let ack = acks.and(view).map(|d| (d, None));
        let mut decided =
            ack.into_iter().chain((0..sites.len()).filter_map(|i| Some((recorded(i)?, Some(i)))));
        if let Some((first, by)) = decided.next() {
            for (d, at) in decided.filter(|(d, _)| *d != first) {
                violate(format!(
                    "{txn}: {} decided {d:?} but {} decided {first:?}",
                    whom(at),
                    whom(by)
                ));
            }
        }
        // Commit records: never two at a site, none for an aborted write.
        for (i, per) in durable.iter().enumerate() {
            if per[row] > 1 {
                violate(format!("{txn}: {} durable commit records at {}", per[row], whom(Some(i))));
            }
            if per[row] > 0 && view == Some(Decision::Abort) {
                violate(format!(
                    "{txn}: durable commit record at {} despite abort ack",
                    whom(Some(i))
                ));
            }
        }
        if view != Some(Decision::Commit) {
            continue;
        }
        for w in plan.items() {
            committed_writers_of.entry(&w.key).or_default().push(txn);
        }
        if !strict {
            continue;
        }
        // Strict durability: every replica of every involved shard holds
        // exactly one commit record and recorded the commit.
        for &site in plan.shards().iter().flat_map(|&shard| topo.group(shard)) {
            let count = durable[site.index()][row];
            if count != 1 {
                violate(format!(
                    "{txn}: committed but site {site} holds {count} durable commit records"
                ));
            }
            if recorded(site.index()) != Some(Decision::Commit) {
                violate(format!("{txn}: committed but site {site} never recorded it"));
            }
        }
    }

    // Per key: every stored value is the seed or a committed writer's;
    // replica agreement is always computed, a violation only if strict.
    let mut diverged = None;
    for (key, seed) in keys {
        let writers = committed_writers_of.get(key).map_or(&[][..], Vec::as_slice);
        // The latest writers first: the one a replica holds, mostly.
        let written =
            |v| writers.iter().rev().any(|&w| plans.get(w).is_some_and(|p| p.wrote(key, v)));
        let group = topo.group(topo.shard_of(key));
        let held = |site: SiteId| sites[site.index()].storage.get(key);
        for &site in group {
            if held(site).is_some_and(|v| seed != Some(v) && !written(v)) {
                violate(format!("key {key} at site {site} holds a value from no committed writer"));
            }
            if held(site) != held(group[0]) {
                diverged.get_or_insert_with(|| (key.clone(), site));
                if strict {
                    violate(format!(
                        "key {key}: site {site} and site {} disagree on the value",
                        group[0]
                    ));
                }
            }
        }
        if strict && !writers.is_empty() && held(group[0]).is_none() {
            violate(format!("key {key}: committed writes were lost (no value survives)"));
        }
    }

    let (ok, converged) = (violations.is_empty(), diverged.is_none());
    AuditReport {
        ok,
        strict,
        checked_writes: rows,
        checked_reads: 0,
        converged,
        diverged,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ShardCluster;
    use crate::plan::ShardTxnSpec;
    use crate::topology::ShardTopology;
    use crate::value::WriteOp;
    use crate::wal::Record;
    use crate::CommitProtocol;
    use ptp_simnet::rng::SmallRng;

    /// What the audit reads of a run served by hand.
    struct ByHand {
        plans: PlanTable,
        pools: Vec<Vec<Key>>,
        storages: Vec<Storage>,
        wals: Vec<Wal>,
        finished: Vec<Decisions>,
    }

    impl ByHand {
        /// The audit of a strict run whose client saw every write commit.
        fn audit(&self) -> AuditReport {
            let sites: Vec<SiteRemains> = (0..self.storages.len())
                .map(|i| SiteRemains {
                    storage: &self.storages[i],
                    wal: &self.wals[i],
                    finished: &self.finished[i],
                })
                .collect();
            let keys = self.pools.iter().flatten().map(|key| (key, None));
            let acks = |_| Some(Decision::Commit);
            audit(&self.plans, &sites, keys, &FaultPlan::default(), Some(&acks))
        }
    }

    /// 240 writes over `uniform(6, 3, 2)`, one key or two on two shards,
    /// each writing its id, served by hand: every write committed, and each
    /// replica of each involved shard holding its writes, the decision and
    /// its log records — `commit_records(site, txn)` `Commit`s between the
    /// `Begin` and the `Applied`; one each is what a clean strict run
    /// leaves behind.
    fn served_by_hand(commit_records: impl Fn(SiteId, TxnId) -> usize) -> ByHand {
        let topo = ShardTopology::uniform(6, 3, 2);
        let pools = topo.key_pool(64);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut pick = |n: usize| rng.gen_range(0..=n as u64 - 1) as usize;
        let specs: Vec<ShardTxnSpec> = (1..=240)
            .map(|id| {
                let first = pick(3);
                let shards = if pick(10) == 0 { vec![first, (first + 1) % 3] } else { vec![first] };
                let writes = (shards.into_iter())
                    .map(|s| WriteOp {
                        key: pools[s][pick(64)].clone(),
                        value: Value::from_u64(id),
                    })
                    .collect();
                ShardTxnSpec { id: TxnId(id as u32), writes }
            })
            .collect();
        let plans = PlanTable::compile(topo, &specs);
        let mut run = ByHand {
            plans,
            pools,
            storages: vec![Storage::new(); 6],
            wals: vec![Wal::new(); 6],
            finished: vec![Decisions::default(); 6],
        };
        for (txn, plan) in run.plans.iter() {
            for site in plan.group().iter().copied().chain(plan.replicas()) {
                let writes = plan.writes_at(site).expect("a member stages").to_vec();
                for w in &writes {
                    run.storages[site.index()].seed(w.key.clone(), w.value.clone());
                }
                let wal = &mut run.wals[site.index()];
                wal.append(Record::Begin { txn, writes });
                for _ in 0..commit_records(site, txn) {
                    wal.append(Record::Commit { txn });
                }
                wal.append_durable(Record::Applied { txn });
                run.finished[site.index()].insert(txn, Decision::Commit);
            }
        }
        run
    }

    #[test]
    fn audit_counts_commit_records_a_checkpoint_dropped() {
        let mut run = served_by_hand(|_, _| 1);
        let clean = run.audit();
        assert!(clean.ok, "{:?}", clean.violations);
        assert!(clean.checked_writes > 100 && clean.converged);

        // Checkpointed logs audit exactly the same.
        for wal in &mut run.wals {
            assert_eq!(wal.checkpoint(), 0, "every transaction is complete");
        }
        let clean = run.audit();
        assert!(clean.ok, "{:?}", clean.violations);

        // Plant a duplicated commit record at one master and leave one out
        // at another, both below the checkpoint.
        let master_of = |txn| run.plans.get(txn).expect("planned").master();
        let twice = TxnId(3);
        let elsewhere = run.plans.iter().find(|(_, plan)| plan.master() != master_of(twice));
        let never = elsewhere.expect("another master").0;
        let (a, b) = (master_of(twice), master_of(never));
        let mut planted = served_by_hand(|site, txn| {
            if (site, txn) == (a, twice) {
                2
            } else {
                usize::from((site, txn) != (b, never))
            }
        });
        for wal in &mut planted.wals {
            assert_eq!(wal.checkpoint(), 0);
        }
        let planted = planted.audit();
        let said = |what: String| planted.violations.contains(&what);
        assert!(said(format!("{twice}: 2 durable commit records at site {a}")), "{planted:?}");
        assert!(
            said(format!("{twice}: committed but site {a} holds 2 durable commit records")),
            "{planted:?}"
        );
        assert!(
            said(format!("{never}: committed but site {b} holds 0 durable commit records")),
            "{planted:?}"
        );
        assert_eq!(planted.violations.len(), 3, "{planted:?}");
    }

    #[test]
    fn a_simulated_run_is_judged_by_the_live_checks() {
        // A clean fault-free ShardCluster run: seeded keys, single- and
        // cross-shard writes, no client — each plan master's record is the
        // client view.
        let topo = ShardTopology::uniform(6, 3, 2);
        let keys: Vec<Key> = topo.key_pool(2).into_iter().flatten().collect();
        let seeds: Vec<(Key, Value)> =
            keys.iter().zip(0..).map(|(k, i)| (k.clone(), Value::from_u64(i))).collect();
        let write = |id: u32, picks: &[usize]| {
            let writes = (picks.iter())
                .map(|&k| WriteOp { key: keys[k].clone(), value: Value::from_u64(100 + id as u64) })
                .collect();
            ShardTxnSpec { id: TxnId(id), writes }
        };
        let specs = [write(1, &[0]), write(2, &[2, 4]), write(3, &[1, 3]), write(4, &[5])];
        let served = || {
            let mut store = ShardCluster::new(topo.clone(), CommitProtocol::HuangLi);
            for (key, value) in &seeds {
                store = store.seed(key.clone(), value.clone());
            }
            for (at, spec) in specs.iter().enumerate() {
                store = store.submit(at as u64 * 5_000, spec.clone());
            }
            store.run()
        };
        let clean = served();
        let audit_of = |run: &crate::DbRun| {
            let keys = seeds.iter().map(|(key, value)| (key, Some(value)));
            audit(&run.plans, &run.remains(), keys, &FaultPlan::default(), None)
        };
        let report = audit_of(&clean);
        assert!(report.ok && report.strict && report.converged, "{report:?}");
        assert_eq!(report.diverged, None);
        assert_eq!(report.checked_writes, 4);

        // The same remains planted into the run, one kind at a time; the
        // audit names each.
        let site = |txn: u32, member: usize| {
            let plan = clean.plans.get(TxnId(txn)).expect("planned");
            plan.group().iter().copied().chain(plan.replicas()).nth(member).expect("a member")
        };
        let names = |plant: &dyn Fn(&mut crate::DbRun), lines: &[String]| {
            let mut run = served();
            plant(&mut run);
            let report = audit_of(&run);
            assert!(!report.ok);
            for line in lines {
                assert!(report.violations.contains(line), "{line:?} not in {report:?}");
            }
            report
        };

        // A duplicated commit record.
        let (m, r) = (site(1, 0), site(1, 1));
        names(
            &|run| run.wals[r.index()].append_durable(Record::Commit { txn: TxnId(1) }),
            &[
                format!("txn1: 2 durable commit records at site {r}"),
                format!("txn1: committed but site {r} holds 2 durable commit records"),
            ],
        );
        // A missing one.
        let missing = |run: &mut crate::DbRun| {
            let kept = run.wals[r.index()]
                .durable()
                .iter()
                .filter(|rec| !matches!(rec, Record::Commit { txn } if *txn == TxnId(1)));
            let mut wal = Wal::new();
            kept.for_each(|rec| wal.append_durable(rec.clone()));
            run.wals[r.index()] = wal;
        };
        names(&missing, &[format!("txn1: committed but site {r} holds 0 durable commit records")]);
        // A replica's flipped decision.
        names(
            &|run| _ = run.finished[r.index()].insert(TxnId(1), Decision::Abort),
            &[
                format!("txn1: site {r} decided Abort but site {m} decided Commit"),
                format!("txn1: committed but site {r} never recorded it"),
            ],
        );
        // The master's flipped decision: the client view says abort.
        names(
            &|run| _ = run.finished[m.index()].insert(TxnId(1), Decision::Abort),
            &[
                format!("txn1: site {r} decided Commit but site {m} decided Abort"),
                format!("txn1: durable commit record at site {m} despite abort ack"),
                format!("txn1: durable commit record at site {r} despite abort ack"),
            ],
        );
        // A foreign value.
        let key = &keys[0];
        names(
            &|run| run.storages[r.index()].seed(key.clone(), Value::from_u64(0xBAD_FACE)),
            &[
                format!("key {key} at site {r} holds a value from no committed writer"),
                format!("key {key}: site {r} and site {m} disagree on the value"),
            ],
        );
        // A replica left at its seed: a legitimate value, but diverged.
        let report = names(
            &|run| run.storages[r.index()].seed(key.clone(), seeds[0].1.clone()),
            &[format!("key {key}: site {r} and site {m} disagree on the value")],
        );
        assert!(!report.converged && report.violations.len() == 1, "{report:?}");
        assert_eq!(report.diverged, Some((key.clone(), r)));

        // A master that never decided (a blocked Quorum master does not):
        // the decision its group recorded stands in for the client's.
        let mut undecided = served();
        undecided.finished[m.index()].remove(TxnId(1));
        let mut cut = FaultPlan::default();
        cut.failures.push(ptp_simnet::FailureSpec::crash(m, ptp_simnet::SimTime(20_000)));
        let keys = seeds.iter().map(|(key, value)| (key, Some(value)));
        let report = audit(&undecided.plans, &undecided.remains(), keys, &cut, None);
        assert!(report.ok && !report.strict, "{report:?}");
    }
}
