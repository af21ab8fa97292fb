//! Criterion benchmarks for the discrete-event simulator core: event
//! throughput, fan-out cost, and partition-engine overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ptp_simnet::{
    Actor, Ctx, DelayModel, Envelope, NetConfig, PartitionEngine, PartitionSpec, SimTime,
    Simulation, SiteId,
};

/// Two sites bouncing a token `rounds` times: measures per-event overhead.
struct Bouncer {
    peer: SiteId,
    remaining: u64,
    starts: bool,
}

impl Actor<&'static str> for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
        if self.starts {
            ctx.send(self.peer, "token");
        }
    }
    fn on_message(&mut self, _env: Envelope<&'static str>, ctx: &mut Ctx<'_, &'static str>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.peer, "token");
        }
    }
}

fn bench_ping_pong(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/ping_pong");
    for rounds in [1_000u64, 10_000] {
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |b, &rounds| {
            b.iter(|| {
                let config = NetConfig { max_time: SimTime(u64::MAX / 2), ..NetConfig::default() };
                let actors: Vec<Box<dyn Actor<&'static str>>> = vec![
                    Box::new(Bouncer { peer: SiteId(1), remaining: rounds / 2, starts: true }),
                    Box::new(Bouncer { peer: SiteId(0), remaining: rounds / 2, starts: false }),
                ];
                let sim = Simulation::new(
                    config,
                    actors,
                    PartitionEngine::always_connected(),
                    &DelayModel::Fixed(10),
                );
                let (_, _, report) = sim.run();
                assert!(report.events >= rounds);
            })
        });
    }
    group.finish();
}

/// One site broadcasting to n-1 listeners: fan-out cost.
struct Spray {
    n: u16,
    rounds: u64,
}
struct Sink;

impl Actor<&'static str> for Spray {
    fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
        for _ in 0..self.rounds {
            for dst in 1..self.n {
                ctx.send(SiteId(dst), "blast");
            }
        }
    }
    fn on_message(&mut self, _e: Envelope<&'static str>, _c: &mut Ctx<'_, &'static str>) {}
}
impl Actor<&'static str> for Sink {
    fn on_message(&mut self, _e: Envelope<&'static str>, _c: &mut Ctx<'_, &'static str>) {}
}

fn bench_fan_out(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/fan_out");
    for n in [4u16, 16, 64] {
        let rounds = 256u64;
        group.throughput(Throughput::Elements(rounds * (n as u64 - 1)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut actors: Vec<Box<dyn Actor<&'static str>>> =
                    vec![Box::new(Spray { n, rounds })];
                for _ in 1..n {
                    actors.push(Box::new(Sink));
                }
                let sim = Simulation::new(
                    NetConfig::default(),
                    actors,
                    PartitionEngine::always_connected(),
                    &DelayModel::Uniform { seed: 1, min: 1, max: 1000 },
                );
                let (_, _, report) = sim.run();
                assert_eq!(report.events, rounds * (n as u64 - 1));
            })
        });
    }
    group.finish();
}

/// The same ping-pong with an (idle) partition schedule: connectivity-check
/// overhead on the hot path.
fn bench_partition_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/partition_check");
    for (name, engine) in [
        ("no_partitions", PartitionEngine::always_connected()),
        (
            "one_future_partition",
            PartitionEngine::new(vec![PartitionSpec::simple(
                SimTime(u64::MAX / 4),
                vec![SiteId(0)],
                vec![SiteId(1)],
            )]),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = NetConfig { max_time: SimTime(u64::MAX / 2), ..NetConfig::default() };
                let actors: Vec<Box<dyn Actor<&'static str>>> = vec![
                    Box::new(Bouncer { peer: SiteId(1), remaining: 2_000, starts: true }),
                    Box::new(Bouncer { peer: SiteId(0), remaining: 2_000, starts: false }),
                ];
                let sim = Simulation::new(config, actors, engine.clone(), &DelayModel::Fixed(10));
                sim.run()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ping_pong, bench_fan_out, bench_partition_overhead);
criterion_main!(benches);
