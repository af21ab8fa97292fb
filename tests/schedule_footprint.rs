//! What a live run's schedule costs in memory.
//!
//! `run_server` keeps its whole workload for the run: a 16-byte
//! `ScheduledOp` per operation, and the plan table of every write, routed
//! straight out of the schedule generator — no spec list, no allocation per
//! write. The 8-byte values the driver writes (`Value::from_u64`) and keys
//! of that length live in place, so the write arena's copies own nothing on
//! the heap. A counting global allocator pins both: the allocations the
//! schedule keeps alive in all, and the heap bytes it keeps per operation.
//! (Before: a 48-byte op, an `Arc` per written value and a spec list built
//! and dropped — ≈ 108 bytes and ≈ 0.9 live allocations per operation.)

mod common;

use ptp_core::ddb::topology::ShardTopology;
use ptp_core::ddb::value::{Value, WriteOp};
use ptp_live::driver;
use ptp_live::LiveOptions;
use std::time::Duration;

/// Allocations the schedule keeps alive, whatever its length: the op
/// vector, the plan arenas, the interned route shapes and the topology.
const LIVE_ALLOCATIONS: isize = 100;
const LIVE_BYTES_PER_OP: usize = 72;

/// The schedule of a `live_steady`-shaped run: 10 000 ops/s, a fifth of
/// them reads, a tenth of the writes cross-shard, 4096 keys per shard.
#[test]
fn a_live_schedule_keeps_a_few_dozen_allocations_and_its_arenas() {
    let mut opts = LiveOptions::small(10_000.0, Duration::from_secs(5));
    opts.keys_per_shard = 4096;
    let topo = ShardTopology::uniform(opts.sites, opts.shards, opts.replication);
    let pools = topo.key_pool(opts.keys_per_shard);

    let (workload, tally) = common::measure(|| driver::compile(&opts, &topo, &pools));
    let ops = workload.ops.len();
    assert_eq!(workload.plans.iter().count(), workload.writes);
    assert!(ops > 45_000 && workload.reads > 0, "{ops} ops, {} reads", workload.reads);
    assert!(
        tally.blocks <= LIVE_ALLOCATIONS,
        "the schedule of {ops} ops keeps {} allocations alive",
        tally.blocks
    );
    let bytes = usize::try_from(tally.bytes).expect("a build frees no more than it allocates");
    assert!(
        bytes / ops <= LIVE_BYTES_PER_OP,
        "the schedule of {ops} ops keeps {bytes} heap bytes alive: {} each",
        bytes / ops
    );
}

/// What the driver writes and the plan arena copies owns nothing on the
/// heap: an 8-byte value is held in place, and a write's copy shares or
/// copies its key.
#[test]
fn a_written_value_and_a_copied_write_allocate_nothing() {
    let topo = ShardTopology::uniform(6, 3, 2);
    let pools = topo.key_pool(4096);
    let keys = pools.iter().flatten();
    let short = keys.clone().find(|key| key.0.len() != 8).expect("a key of another length");
    let word = keys.clone().find(|key| key.0.len() == 8).expect("an 8-byte key");
    for key in [short, word] {
        let (copies, tally) = common::measure(|| {
            let write = WriteOp { key: key.clone(), value: Value::from_u64(u64::MAX) };
            (write.clone(), write)
        });
        assert_eq!(copies.0, copies.1);
        assert_eq!(tally.allocations, 0, "writing to {key} allocated");
    }
}
