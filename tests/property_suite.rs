//! Property-based tests (proptest) over the core invariants:
//!
//! * **Theorem 9 as a property**: any simple partition of any small
//!   cluster, at any instant, healing or not, under any seeded delay
//!   schedule, leaves the termination protocol atomic and nonblocking.
//! * **One fault plan, any clock**: a random valid timeline's `FaultPlan`
//!   answers connectivity, crash-down and degrade-active identically after
//!   `scaled(k, 1)` at `k·t`, and `scaled(T_ns, t_unit)` puts every
//!   boundary where `Timeline::wall` puts it.
//! * **WAL recovery**: arbitrary interleavings of log records and crash
//!   points never resurrect uncommitted writes nor lose committed ones.
//! * **Lock table**: arbitrary acquire/release sequences never leave two
//!   exclusive holders on one key, and waiters are promoted FIFO-compatibly.
//! * **Model determinism**: exploration, concurrency sets and rule
//!   derivation are pure functions of the spec.
//!
//! On failure the harness shrinks the drawn inputs (element removal, then
//! halving toward each range's lower bound) and reports the minimal
//! counterexample it still fails on, so a red run here names the smallest
//! partition instant / schedule seed that breaks the property.

use proptest::prelude::*;
use ptp_core::{PartitionShape, ProtocolKind, Scenario, Session};
use ptp_simnet::{DelayModel, SiteId};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn theorem9_resilience_property(
        n in 3usize..6,
        g2_mask in 1u8..31,
        at in 0u64..9000,
        heal in prop::option::of(500u64..8000),
        seed in 0u64..1000,
        fixed in prop::bool::ANY,
    ) {
        let slaves = n - 1;
        let g2: Vec<SiteId> = (0..slaves)
            .filter(|i| g2_mask >> i & 1 == 1)
            .map(|i| SiteId(i as u16 + 1))
            .collect();
        prop_assume!(!g2.is_empty() && g2.len() < n);

        let delay = if fixed {
            DelayModel::Fixed(1 + seed % 1000)
        } else {
            DelayModel::Uniform { seed, min: 1, max: 1000 }
        };
        let mut scenario = Scenario::new(n).delay(delay);
        scenario.partition = PartitionShape::Simple {
            g2,
            at,
            heal_at: heal.map(|h| at + h),
        };
        let result = Session::new(ProtocolKind::HuangLi3pc, scenario.n).run(&scenario);
        prop_assert!(
            result.verdict.is_resilient(),
            "scenario {:?} -> {:?}",
            scenario.partition,
            result.verdict
        );
    }

    #[test]
    fn four_phase_resilience_property(
        at in 0u64..9000,
        seed in 0u64..500,
        g2_single in 1u16..3,
    ) {
        let scenario = Scenario::new(3)
            .partition_g2(vec![SiteId(g2_single)], at)
            .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
        let result = Session::new(ProtocolKind::HuangLi4pc, scenario.n).run(&scenario);
        prop_assert!(result.verdict.is_resilient());
    }

    #[test]
    fn baselines_never_lie_silently_2pc(
        at in 0u64..9000,
        seed in 0u64..300,
    ) {
        // 2PC may block but must stay atomic.
        let scenario = Scenario::new(3)
            .partition_g2(vec![SiteId(2)], at)
            .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
        let result = Session::new(ProtocolKind::Plain2pc, scenario.n).run(&scenario);
        prop_assert!(result.verdict.is_atomic());
    }

    #[test]
    fn quorum_always_atomic(
        at in 0u64..9000,
        seed in 0u64..300,
        g2_mask in 1u8..15,
    ) {
        let g2: Vec<SiteId> = (0..4)
            .filter(|i| g2_mask >> i & 1 == 1)
            .map(|i| SiteId(i as u16 + 1))
            .collect();
        prop_assume!(!g2.is_empty() && g2.len() < 5);
        let scenario = Scenario::new(5)
            .partition_g2(g2, at)
            .delay(DelayModel::Uniform { seed, min: 1, max: 1000 });
        let result = Session::new(ProtocolKind::QuorumMajority, scenario.n).run(&scenario);
        prop_assert!(result.verdict.is_atomic());
    }
}

// ---------------------------------------------------------------------------
// Fault-plan scaling properties
// ---------------------------------------------------------------------------

mod fault_plan_props {
    use proptest::prelude::*;
    use ptp_core::scenario::ScenarioBuilder;
    use ptp_core::Timeline;
    use ptp_simnet::rng::SmallRng;
    use ptp_simnet::{EnvelopeAction, EnvelopeMatch, FaultPlan, SimTime, SiteId};
    use std::time::Duration;

    /// A random valid timeline: up to three partition episodes (regrouped
    /// or healed, the last possibly permanent), crashes and recoveries,
    /// degrade windows, and one envelope fault — strictly increasing
    /// instants on a random tick scale.
    fn random_timeline(seed: u64) -> Timeline {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 3 + rng.gen_range(0..=2) as usize;
        let t_unit = [1, 7, 1000, 1024][rng.gen_range(0..=3) as usize];
        let mut b = ScenarioBuilder::new(n).t_unit(t_unit);
        let (mut t, mut episodes) = (0u64, 0);
        let (mut partition_open, mut degrade_open) = (false, false);
        let mut down: Vec<SiteId> = Vec::new();
        for _ in 0..rng.gen_range(2..=10) {
            t += 1 + rng.gen_range(0..=2500);
            match rng.gen_range(0..=4) {
                0 if episodes < 3 => {
                    let group_count = 2 + rng.gen_range(0..=1) as usize;
                    let mut groups = vec![Vec::new(); group_count];
                    for site in 0..n {
                        let g = if site < 2 { site } else { rng.gen_range(0..=2) as usize };
                        groups[g % group_count].push(SiteId(site as u16));
                    }
                    groups.retain(|g| !g.is_empty());
                    b = b.at(t).partition(groups);
                    (partition_open, episodes) = (true, episodes + 1);
                }
                1 if partition_open || degrade_open => {
                    b = b.at(t).heal();
                    (partition_open, degrade_open) = (false, false);
                }
                2 => {
                    let site = SiteId(rng.gen_range(0..=n as u64 - 1) as u16);
                    match down.iter().position(|s| *s == site) {
                        Some(pos) => {
                            down.remove(pos);
                            b = b.at(t).recover(site);
                        }
                        None => {
                            down.push(site);
                            b = b.at(t).crash(site);
                        }
                    }
                }
                3 => {
                    let min = rng.gen_range(1..=900);
                    b = b.at(t).degrade(min..=rng.gen_range(min..=1000));
                    degrade_open = true;
                }
                _ => {}
            }
        }
        let matches = EnvelopeMatch::kind("xact");
        let by = rng.gen_range(1..=3000);
        if rng.gen_range(0..=1) == 0 { b.duplicate(matches, by) } else { b.reorder(matches, by) }
            .build()
    }

    /// Every instant the plan changes its answers at.
    fn boundaries(plan: &FaultPlan) -> Vec<u64> {
        let episodes = plan.partition.episodes().iter().flat_map(|e| [Some(e.at), e.heal_at]);
        let failures = plan.failures.iter().flat_map(|f| [Some(f.at), f.recover_at]);
        let degrades = plan.degrades.iter().flat_map(|w| [Some(w.from), w.until]);
        episodes.chain(failures).chain(degrades).flatten().map(SimTime::ticks).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn integer_scaling_preserves_every_answer(seed in 0u64..1 << 32, k in 1u64..5000) {
            let timeline = random_timeline(seed);
            let plan = timeline.faults();
            let scaled = plan.scaled(k, 1);
            let mut probes = vec![0];
            for b in boundaries(&plan) {
                probes.extend([b.saturating_sub(1), b, b + 1]);
            }
            // One site beyond the cluster: in no group, isolated on both sides.
            let sites: Vec<SiteId> = (0..=timeline.n as u16).map(SiteId).collect();
            for t in probes {
                // The whole scaled interval [k·t, k·(t+1)) answers like `t`.
                for now in [k * t, k * t + (k - 1)] {
                    let (at, now) = (SimTime(t), SimTime(now));
                    for &a in &sites {
                        prop_assert_eq!(plan.down(a, at), scaled.down(a, now), "{} at {}", a, t);
                        for &b in &sites {
                            prop_assert_eq!(
                                plan.partition.connected(a, b, at),
                                scaled.partition.connected(a, b, now),
                                "{}-{} at {}", a, b, t
                            );
                        }
                    }
                    prop_assert_eq!(
                        plan.degraded(at).map(|w| (k * w.min, k * w.max)),
                        scaled.degraded(now).map(|w| (w.min, w.max)),
                        "degrade at {}", t
                    );
                }
            }
        }

        #[test]
        fn wall_clock_scaling_puts_every_boundary_where_wall_puts_it(
            seed in 0u64..1 << 32,
            t_us in 1u64..50_000,
        ) {
            let timeline = random_timeline(seed);
            let t = Duration::from_micros(t_us) + Duration::from_nanos(seed % 1000);
            let wall = |ticks: u64| timeline.wall(ticks, t).as_nanos() as u64;
            let plan = timeline.faults();
            let live = timeline.live_faults(t);
            prop_assert_eq!(
                boundaries(&live),
                boundaries(&plan).into_iter().map(wall).collect::<Vec<_>>()
            );
            for (l, p) in live.partition.episodes().iter().zip(plan.partition.episodes()) {
                prop_assert_eq!(&l.groups, &p.groups);
            }
            for (l, p) in live.failures.iter().zip(&plan.failures) {
                prop_assert_eq!(l.site, p.site);
            }
            for (l, p) in live.degrades.iter().zip(&plan.degrades) {
                prop_assert_eq!((l.min, l.max), (wall(p.min), wall(p.max)));
            }
            prop_assert_eq!(live.env_faults.len(), 1);
            let (l, p) = (live.env_faults[0], plan.env_faults[0]);
            prop_assert_eq!(l.matches, p.matches);
            match (l.action, p.action) {
                (EnvelopeAction::Duplicate { after: l }, EnvelopeAction::Duplicate { after: p }) => {
                    prop_assert_eq!(l.0, wall(p.0))
                }
                (EnvelopeAction::Delay { by: l }, EnvelopeAction::Delay { by: p }) => {
                    prop_assert_eq!(l.0, wall(p.0))
                }
                other => prop_assert!(false, "action kind changed: {:?}", other),
            }
            // And that lowering is nothing but the one scaling rule.
            let scaled = plan.scaled(t.as_nanos() as u64, timeline.t_unit);
            prop_assert_eq!(boundaries(&live), boundaries(&scaled));
        }
    }
}

// ---------------------------------------------------------------------------
// WAL recovery properties
// ---------------------------------------------------------------------------

mod wal_props {
    use proptest::prelude::*;
    use ptp_core::ddb::recovery::recover;
    use ptp_core::ddb::storage::Storage;
    use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
    use ptp_core::ddb::wal::{Record, Wal};

    #[derive(Debug, Clone)]
    enum Op {
        Begin(u8, u8), // txn, value
        Commit(u8),
        Abort(u8),
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..6, any::<u8>()).prop_map(|(t, v)| Op::Begin(t, v)),
            (0u8..6).prop_map(Op::Commit),
            (0u8..6).prop_map(Op::Abort),
            Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn recovery_never_resurrects_uncommitted_nor_loses_committed(
            ops in prop::collection::vec(op_strategy(), 1..40),
        ) {
            let mut wal = Wal::new();
            let mut storage = Storage::new();
            // Track, per txn, whether a commit record became durable before
            // the crash, and its staged value.
            let mut begun: std::collections::BTreeMap<u8, u8> = Default::default();
            let mut committed_pending_flush: Vec<u8> = vec![];
            let mut begun_pending_flush: Vec<u8> = vec![];
            let mut durable_begin: std::collections::BTreeSet<u8> = Default::default();
            let mut durable_commit: std::collections::BTreeSet<u8> = Default::default();
            // A site never logs a commit after an abort (or vice versa);
            // the generator's raw sequences are filtered to legal ones.
            let mut aborted: std::collections::BTreeSet<u8> = Default::default();

            for op in &ops {
                match *op {
                    Op::Begin(t, v) => {
                        if begun.contains_key(&t) { continue; }
                        begun.insert(t, v);
                        let writes = vec![WriteOp {
                            key: Key::from(format!("k{t}")),
                            value: Value::from_u64(v as u64),
                        }];
                        wal.append(Record::Begin { txn: TxnId(t as u32), writes: writes.clone() });
                        storage.stage(TxnId(t as u32), writes);
                        begun_pending_flush.push(t);
                    }
                    Op::Commit(t) => {
                        if !begun.contains_key(&t)
                            || durable_commit.contains(&t)
                            || committed_pending_flush.contains(&t)
                            || aborted.contains(&t) { continue; }
                        wal.append(Record::Commit { txn: TxnId(t as u32) });
                        committed_pending_flush.push(t);
                    }
                    Op::Abort(t) => {
                        if !begun.contains_key(&t)
                            || durable_commit.contains(&t)
                            || committed_pending_flush.contains(&t)
                            || aborted.contains(&t) { continue; }
                        aborted.insert(t);
                        wal.append(Record::Abort { txn: TxnId(t as u32) });
                        storage.discard(TxnId(t as u32));
                    }
                    Op::Flush => {
                        wal.flush();
                        durable_commit.extend(committed_pending_flush.drain(..));
                        durable_begin.extend(begun_pending_flush.drain(..));
                    }
                }
            }

            // Crash and recover.
            storage.crash();
            wal.crash();
            recover(&mut storage, &mut wal);

            for (t, v) in &begun {
                let key = Key::from(format!("k{t}"));
                let value = storage.get(&key).map(|x| x.as_u64().unwrap());
                if durable_commit.contains(t) && durable_begin.contains(t) {
                    prop_assert_eq!(
                        value, Some(*v as u64),
                        "txn {} committed durably but value lost", t
                    );
                } else {
                    prop_assert_eq!(
                        value, None,
                        "txn {} was never durably committed but its write survived", t
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WAL checkpoint properties
// ---------------------------------------------------------------------------

mod checkpoint_props {
    use proptest::prelude::*;
    use ptp_core::ddb::recovery::recover;
    use ptp_core::ddb::storage::Storage;
    use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
    use ptp_core::ddb::wal::{Record, RecoveryAction, Wal};

    /// One step of a site's log discipline, as `SiteCore` drives it.
    #[derive(Debug, Clone)]
    enum Op {
        /// The transaction in this slot logs its next record: `Begin`,
        /// then `Commit` and `Applied` — or `Abort`, if it is an aborter.
        Advance(u8),
        Flush,
        /// Crash and recover: the volatile tail is lost, the transactions
        /// in flight are gone, recovery closes what the log left open.
        Crash,
        /// Checkpoints the checkpointed twin (the other never does).
        Checkpoint,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..4).prop_map(Op::Advance),
            (0u8..4).prop_map(Op::Advance),
            Just(Op::Flush),
            Just(Op::Crash),
            Just(Op::Checkpoint),
        ]
    }

    /// Everything a reader of the log can ask, checkpointed or not.
    fn assert_same_answers(plain: &Wal, kept: &Wal) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            (plain.len(), plain.watermark(), plain.unflushed()),
            (kept.len(), kept.watermark(), kept.unflushed()),
            "logical positions"
        );
        let sorted = |wal: &Wal| {
            let mut commits: Vec<TxnId> = wal.durable_commits().collect();
            commits.sort();
            commits
        };
        prop_assert_eq!(sorted(plain), sorted(kept), "commit multiset");
        prop_assert_eq!(plain.committed_writes(), kept.committed_writes(), "version recount");
        // Every transaction still in the checkpointed log is decided alike;
        // the ones it dropped had nothing left to do.
        let (full, tail) = (plain.recovery_plan(), kept.recovery_plan());
        for (txn, action) in &full {
            match tail.get(txn) {
                Some(same) => prop_assert_eq!(same, action, "{}", txn),
                None => prop_assert_eq!(action, &RecoveryAction::Complete, "{} dropped", txn),
            }
        }
        prop_assert!(tail.keys().all(|txn| full.contains_key(txn)));
        prop_assert!(kept.held() <= plain.held());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn a_checkpointed_log_answers_like_its_never_checkpointed_twin(
            ops in prop::collection::vec(op_strategy(), 1..80),
        ) {
            let (mut plain, mut kept) = (Wal::new(), Wal::new());
            let (mut plain_store, mut kept_store) = (Storage::new(), Storage::new());
            // Per slot: the transaction in flight and its last record.
            let mut slots: [Option<(TxnId, Record)>; 4] = [None, None, None, None];
            let mut next_id = 1u32;
            for op in &ops {
                match *op {
                    Op::Advance(slot) => {
                        let slot = &mut slots[slot as usize];
                        let next = match slot.take() {
                            None => {
                                let txn = TxnId(next_id);
                                next_id += 1;
                                let key = Key::from(format!("k{}", txn.0 % 3));
                                let value = Value::from_u64(txn.0 as u64);
                                Record::Begin { txn, writes: vec![WriteOp { key, value }] }
                            }
                            // Every third transaction aborts.
                            Some((txn, Record::Begin { .. })) if txn.0 % 3 == 0 => {
                                Record::Abort { txn }
                            }
                            Some((txn, Record::Begin { .. })) => Record::Commit { txn },
                            Some((txn, _)) => Record::Applied { txn },
                        };
                        plain.append(next.clone());
                        kept.append(next.clone());
                        *slot = match next {
                            Record::Begin { txn, .. } | Record::Commit { txn } => Some((txn, next)),
                            Record::Applied { .. } | Record::Abort { .. } => None,
                        };
                    }
                    Op::Flush => {
                        prop_assert_eq!(plain.flush(), kept.flush());
                    }
                    Op::Crash => {
                        plain.crash();
                        kept.crash();
                        assert_same_answers(&plain, &kept)?;
                        let summary = recover(&mut plain_store, &mut plain);
                        prop_assert_eq!(&summary, &recover(&mut kept_store, &mut kept));
                        prop_assert_eq!(&plain_store, &kept_store);
                        slots = [None, None, None, None];
                    }
                    Op::Checkpoint => {
                        let left = kept.checkpoint();
                        prop_assert_eq!(left, kept.held());
                    }
                }
                assert_same_answers(&plain, &kept)?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-table properties
// ---------------------------------------------------------------------------

mod lock_props {
    use proptest::prelude::*;
    use ptp_core::ddb::locks::{LockGrant, LockMode, LockTable};
    use ptp_core::ddb::value::{Key, TxnId};
    use std::collections::{BTreeMap, VecDeque};

    #[derive(Debug, Clone)]
    enum Op {
        Acquire(u8, u8, bool), // txn, key, exclusive
        Release(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..5, 0u8..4, any::<bool>()).prop_map(|(t, k, x)| Op::Acquire(t, k, x)),
            (0u8..5).prop_map(Op::Release),
        ]
    }

    /// The lock table as it was before releases kept a per-transaction key
    /// list (PR 14's `locks.rs`): `release_all` walks every entry of the
    /// table. Kept as the oracle the key-list release must match.
    #[derive(Default)]
    struct ScanTable {
        locks: BTreeMap<Key, ScanEntry>,
    }

    #[derive(Default)]
    struct ScanEntry {
        holders: Vec<(TxnId, LockMode)>,
        queue: VecDeque<(TxnId, LockMode)>,
    }

    impl ScanTable {
        fn acquire(&mut self, txn: TxnId, key: Key, mode: LockMode) -> LockGrant {
            let entry = self.locks.entry(key).or_default();

            if let Some(pos) = entry.holders.iter().position(|(t, _)| *t == txn) {
                let held = entry.holders[pos].1;
                match (held, mode) {
                    (LockMode::Exclusive, _) | (_, LockMode::Shared) => return LockGrant::Granted,
                    (LockMode::Shared, LockMode::Exclusive) => {
                        if entry.holders.len() == 1 {
                            entry.holders[pos].1 = LockMode::Exclusive;
                            return LockGrant::Granted;
                        }
                        entry.queue.push_back((txn, mode));
                        return LockGrant::Waiting;
                    }
                }
            }

            let compatible = entry.queue.is_empty()
                && match mode {
                    LockMode::Shared => entry.holders.iter().all(|(_, m)| *m == LockMode::Shared),
                    LockMode::Exclusive => entry.holders.is_empty(),
                };
            if compatible {
                entry.holders.push((txn, mode));
                LockGrant::Granted
            } else {
                entry.queue.push_back((txn, mode));
                LockGrant::Waiting
            }
        }

        fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
            let mut promoted = Vec::new();
            let mut empty_keys = Vec::new();
            for (key, entry) in self.locks.iter_mut() {
                entry.holders.retain(|(t, _)| *t != txn);
                entry.queue.retain(|(t, _)| *t != txn);
                while let Some(&(next, mode)) = entry.queue.front() {
                    let ok = match mode {
                        LockMode::Shared => {
                            entry.holders.iter().all(|(_, m)| *m == LockMode::Shared)
                        }
                        LockMode::Exclusive => entry.holders.iter().all(|(t, _)| *t == next),
                    };
                    if !ok {
                        break;
                    }
                    entry.queue.pop_front();
                    match entry.holders.iter().position(|(t, _)| *t == next) {
                        Some(pos) => entry.holders[pos].1 = mode,
                        None => entry.holders.push((next, mode)),
                    }
                    promoted.push(next);
                }
                if entry.holders.is_empty() && entry.queue.is_empty() {
                    empty_keys.push(key.clone());
                }
            }
            for k in empty_keys {
                self.locks.remove(&k);
            }
            promoted.sort_by_key(|t| t.0);
            promoted.dedup();
            promoted
        }

        fn holds(&self, txn: TxnId, key: &Key, mode: LockMode) -> bool {
            self.locks.get(key).is_some_and(|e| {
                e.holders.iter().any(|(t, m)| {
                    *t == txn && (*m == LockMode::Exclusive || mode == LockMode::Shared)
                })
            })
        }

        fn is_locked(&self, key: &Key) -> bool {
            self.locks.get(key).is_some_and(|e| !e.holders.is_empty())
        }

        fn waiting_count(&self) -> usize {
            self.locks.values().map(|e| e.queue.len()).sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn no_conflicting_holders_ever(ops in prop::collection::vec(op_strategy(), 1..60)) {
            let mut table = LockTable::new();
            // Shadow state: which (txn, key, mode) grants are live.
            let mut granted: Vec<(u8, u8, bool)> = vec![];

            for op in &ops {
                match *op {
                    Op::Acquire(t, k, exclusive) => {
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let result = table.acquire(
                            TxnId(t as u32),
                            Key::from(format!("k{k}")),
                            mode,
                        );
                        if result == LockGrant::Granted {
                            granted.retain(|(gt, gk, _)| !(*gt == t && *gk == k));
                            granted.push((t, k, table.holds(
                                TxnId(t as u32),
                                &Key::from(format!("k{k}")),
                                LockMode::Exclusive,
                            )));
                        }
                    }
                    Op::Release(t) => {
                        let promoted = table.release_all(TxnId(t as u32));
                        granted.retain(|(gt, _, _)| *gt != t);
                        // Promoted transactions now hold something; record
                        // their holds from the table's view.
                        for p in promoted {
                            for k in 0u8..4 {
                                let key = Key::from(format!("k{k}"));
                                if table.holds(p, &key, LockMode::Shared) {
                                    let ex = table.holds(p, &key, LockMode::Exclusive);
                                    granted.retain(|(gt, gk, _)| !(*gt == p.0 as u8 && *gk == k));
                                    granted.push((p.0 as u8, k, ex));
                                }
                            }
                        }
                    }
                }

                // Invariant: per key, either one exclusive holder or any
                // number of shared holders.
                for k in 0u8..4 {
                    let holders: Vec<&(u8, u8, bool)> =
                        granted.iter().filter(|(_, gk, _)| *gk == k).collect();
                    let exclusives = holders.iter().filter(|(_, _, x)| *x).count();
                    if exclusives > 0 {
                        prop_assert_eq!(
                            holders.len(), 1,
                            "key {} has an exclusive holder plus others: {:?}", k, holders
                        );
                    }
                }
            }
        }

        #[test]
        fn release_visits_only_the_releasers_keys_yet_matches_the_full_scan(
            ops in prop::collection::vec(op_strategy(), 1..80),
        ) {
            let (mut table, mut oracle) = (LockTable::new(), ScanTable::default());
            for op in &ops {
                match *op {
                    Op::Acquire(t, k, exclusive) => {
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let key = Key::from(format!("k{k}"));
                        let granted = table.acquire(TxnId(t as u32), key.clone(), mode);
                        prop_assert_eq!(granted, oracle.acquire(TxnId(t as u32), key, mode));
                    }
                    Op::Release(t) => {
                        let promoted = table.release_all(TxnId(t as u32));
                        prop_assert_eq!(promoted, oracle.release_all(TxnId(t as u32)));
                    }
                }
                // Same holders, same modes, same queues, after every step.
                for k in (0u8..4).map(|k| Key::from(format!("k{k}"))) {
                    prop_assert_eq!(table.is_locked(&k), oracle.is_locked(&k));
                    for t in (0u32..5).map(TxnId) {
                        for mode in [LockMode::Shared, LockMode::Exclusive] {
                            prop_assert_eq!(table.holds(t, &k, mode), oracle.holds(t, &k, mode));
                        }
                    }
                }
                prop_assert_eq!(table.waiting_count(), oracle.waiting_count());
            }
            // Releasing everyone leaves nothing behind, waiting or held.
            for t in (0u32..5).map(TxnId) {
                prop_assert_eq!(table.release_all(t), oracle.release_all(t));
            }
            prop_assert_eq!(table.waiting_count(), 0);
            prop_assert!((0u8..4).all(|k| !table.is_locked(&Key::from(format!("k{k}")))));
        }
    }
}

// ---------------------------------------------------------------------------
// Model determinism properties
// ---------------------------------------------------------------------------

mod model_props {
    use proptest::prelude::*;
    use ptp_core::model::concurrency::ConcurrencySets;
    use ptp_core::model::protocols::{THREE_PHASE, TWO_PHASE};
    use ptp_core::model::rules::derive_rules_augmentation;
    use ptp_core::model::GlobalGraph;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn exploration_is_deterministic(n in 2usize..5) {
            let a = GlobalGraph::explore(&THREE_PHASE.spec(n));
            let b = GlobalGraph::explore(&THREE_PHASE.spec(n));
            prop_assert_eq!(a.states, b.states);
        }

        #[test]
        fn concurrency_sets_are_symmetric(n in 2usize..5) {
            // If t ∈ C(s) then s ∈ C(t): both come from the same global
            // state, so the relation must be symmetric.
            let spec = TWO_PHASE.spec(n);
            let graph = GlobalGraph::explore(&spec);
            let csets = ConcurrencySets::compute(&spec, &graph);
            for s in spec.all_states() {
                for t in csets.of(s).iter() {
                    prop_assert!(
                        csets.of(*t).contains(&s),
                        "asymmetry: {:?} in C({:?}) but not vice versa", t, s
                    );
                }
            }
        }

        #[test]
        fn rule_derivation_is_deterministic(n in 2usize..5) {
            let a = derive_rules_augmentation(&THREE_PHASE.spec(n)).augmentation;
            let b = derive_rules_augmentation(&THREE_PHASE.spec(n)).augmentation;
            prop_assert_eq!(a, b);
        }
    }
}
