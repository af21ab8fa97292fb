//! What a compiled plan costs in memory.
//!
//! A plan table holds one route shape per distinct shard set, one arena of
//! writes (keys, for reads), one of segment ends, and a 16-byte row per
//! plan — so compiling a workload allocates for the arenas, the row vector
//! and each distinct shape, and nothing per plan. A counting global
//! allocator pins both: the heap bytes a table keeps alive per plan, and the
//! allocations compiling it performs in total. (Before the shapes were
//! interned a plan was four maps and two vectors of its own: ≈ 1.5 KB and
//! ≈ 9 allocations each.)

mod common;

use ptp_core::ddb::plan::{PlanTable, ShardReadSpec, ShardTxnSpec};
use ptp_core::ddb::topology::ShardTopology;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};

const PLANS: usize = 10_000;
const LIVE_BYTES_PER_PLAN: usize = 128;
const ALLOCATIONS: usize = 100;

/// Runs `build` and returns what it allocated: the number of allocations
/// (growth included) and the heap bytes its result keeps alive.
fn measure<T>(build: impl FnOnce() -> T) -> (T, usize, usize) {
    let (built, tally) = common::measure(build);
    (
        built,
        tally.allocations,
        usize::try_from(tally.bytes).expect("a build frees no more than it allocates"),
    )
}

/// Holds a build of [`PLANS`] plans to both bounds.
fn assert_footprint(what: &str, allocations: usize, live: usize) {
    let per_plan = live / PLANS;
    assert!(
        per_plan <= LIVE_BYTES_PER_PLAN,
        "{PLANS} {what} plans keep {live} heap bytes alive: {per_plan} each"
    );
    assert!(allocations <= ALLOCATIONS, "compiling {PLANS} {what} plans allocated {allocations}×");
}

#[test]
fn a_compiled_plan_costs_a_row_and_its_writes_and_no_allocation() {
    let topo = ShardTopology::uniform(6, 3, 2);
    let pools = topo.key_pool(64);
    // Every tenth transaction spans two shards, over all three pairs.
    let keys_of = |i: usize| -> Vec<Key> {
        let key = |shard: usize| pools[shard % 3][i / 3 % 64].clone();
        match i % 10 {
            0 => vec![key(i), key(i + 1 + i / 10 % 2)],
            _ => vec![key(i)],
        }
    };
    let writes: Vec<ShardTxnSpec> = (0..PLANS)
        .map(|i| {
            let write = |key| WriteOp { key, value: Value::from_u64(i as u64) };
            ShardTxnSpec {
                id: TxnId(i as u32),
                writes: keys_of(i).into_iter().map(write).collect(),
            }
        })
        .collect();
    let reads: Vec<ShardReadSpec> =
        (0..PLANS).map(|i| ShardReadSpec { id: TxnId(i as u32), keys: keys_of(i) }).collect();

    let for_writes = topo.clone();
    let (table, allocations, live) = measure(|| PlanTable::compile(for_writes, &writes));
    assert_eq!(table.iter().count(), PLANS);
    assert_eq!(table.iter().filter(|(_, plan)| plan.is_cross_shard()).count(), PLANS / 10);
    assert_footprint("write", allocations, live);

    let (table, allocations, live) = measure(|| PlanTable::route(topo, [], &reads));
    assert_eq!(table.iter_reads().count(), PLANS);
    assert_eq!(table.iter_reads().filter(|(_, plan)| plan.is_cross_shard()).count(), PLANS / 10);
    assert_footprint("read", allocations, live);
}
