//! Ablation benchmarks for the design choices ARCHITECTURE.md calls out:
//! timer constants, delay distributions, and the ddb integration's cost.
//!
//! These measure wall-clock cost of representative runs; the *semantic*
//! effect of each ablation (spurious aborts, broken bounds) is covered by
//! the `exp_fig5_timeouts` experiment and the integration tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptp_core::ddb::cluster::{CommitProtocol, DbCluster};
use ptp_core::ddb::site::TxnSpec;
use ptp_core::ddb::value::{Key, TxnId, Value, WriteOp};
use ptp_protocols::api::Vote;
use ptp_protocols::clusters::huang_li_3pc_cluster_with_timing_any;
use ptp_protocols::runner::run_protocol;
use ptp_protocols::termination::{ProtocolTiming, TerminationVariant};
use ptp_simnet::{DelayModel, NetConfig, PartitionEngine, PartitionSpec, SimTime, SiteId};
use std::collections::BTreeMap;

fn partitioned_run(timing: ProtocolTiming, delay: &DelayModel) {
    let parts = huang_li_3pc_cluster_with_timing_any(
        4,
        &[Vote::Yes; 3],
        TerminationVariant::Transient,
        timing,
    );
    let partition = PartitionEngine::new(vec![PartitionSpec::simple(
        SimTime(2500),
        vec![SiteId(0), SiteId(1)],
        vec![SiteId(2), SiteId(3)],
    )]);
    let run = run_protocol(parts, NetConfig::default(), partition, delay);
    assert!(ptp_protocols::Verdict::judge(&run.outcomes).is_atomic());
}

/// Larger timer constants stretch simulated time, not host time, but every
/// extra timer event costs queue work — this quantifies it.
fn bench_timer_constants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/timer_constants");
    for (name, timing) in [
        ("paper_2_3_5_6_5", ProtocolTiming::default()),
        (
            "generous_4_6_10_12_10",
            ProtocolTiming { master_proto: 4, slave_proto: 6, collect: 10, w_wait: 12, p_wait: 10 },
        ),
    ] {
        group
            .bench_function(name, |b| b.iter(|| partitioned_run(timing, &DelayModel::Fixed(1000))));
    }
    group.finish();
}

fn bench_delay_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/delay_models");
    for (name, delay) in [
        ("fixed_T", DelayModel::Fixed(1000)),
        ("fixed_T_half", DelayModel::Fixed(500)),
        ("uniform", DelayModel::Uniform { seed: 5, min: 1, max: 1000 }),
        (
            "per_link",
            DelayModel::PerLink { links: BTreeMap::from([((0u16, 1u16), 300u64)]), default: 900 },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &delay, |b, delay| {
            b.iter(|| partitioned_run(ProtocolTiming::default(), delay))
        });
    }
    group.finish();
}

fn bench_ddb_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/ddb_transfer");
    for protocol in [CommitProtocol::TwoPhase, CommitProtocol::HuangLi] {
        group.bench_function(protocol.name(), |b| {
            b.iter(|| {
                let mut writes = BTreeMap::new();
                writes
                    .insert(1u16, vec![WriteOp { key: Key::from("a"), value: Value::from_u64(1) }]);
                writes
                    .insert(2u16, vec![WriteOp { key: Key::from("b"), value: Value::from_u64(2) }]);
                let run =
                    DbCluster::new(3, protocol).submit(0, TxnSpec { id: TxnId(1), writes }).run();
                assert!(run.metrics.atomicity_violations().is_empty());
                run
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_timer_constants, bench_delay_models, bench_ddb_transfer);
criterion_main!(benches);
