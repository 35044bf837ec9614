//! Capacity-amplification engine benchmarks: raw event throughput of
//! the compact sharded engine, the shard-count scaling of one fixed
//! workload, the warmed zero-allocation replay path, and the cost of
//! generating the paper's arrival patterns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use p2ps_sim::{AmpConfig, AmpEngine, ArrivalPattern, ArrivalProcess};

fn config(peers: u32, shards: u32, threads: usize) -> AmpConfig {
    let mut builder = AmpConfig::builder();
    builder
        .requesting_peers(peers)
        .seed_suppliers((peers / 100).max(16))
        .catalog_items(8)
        .process(ArrivalProcess::flash_crowd())
        .arrival_window_secs(3_600)
        .horizon_secs(4 * 3_600)
        .epoch_secs(60)
        .shards(shards)
        .threads(threads);
    builder.build().expect("valid bench config")
}

/// Cold runs: engine construction + setup + execution, the number a
/// fresh experiment pays per grid cell.
fn bench_cold_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("amplification/cold");
    group.sample_size(10);
    for peers in [2_000u32, 10_000, 50_000] {
        group.throughput(Throughput::Elements(u64::from(peers)));
        group.bench_with_input(BenchmarkId::from_parameter(peers), &peers, |b, &peers| {
            b.iter(|| AmpEngine::new(black_box(config(peers, 4, 1)), 7).run())
        });
    }
    group.finish();
}

/// Warmed replays: `reset` + `execute` on a live engine — the steady
/// path with every buffer at its high-water capacity and zero
/// allocations. This is the engine's true event-processing rate.
fn bench_warm_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("amplification/warm");
    group.sample_size(10);
    let peers = 10_000u32;
    for (label, shards, threads) in [("1shard", 1u32, 1usize), ("4shards", 4, 1), ("4x4", 4, 4)] {
        let mut engine = AmpEngine::new(config(peers, shards, threads), 7);
        engine.execute();
        group.throughput(Throughput::Elements(u64::from(peers)));
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                engine.reset(7);
                engine.execute();
            })
        });
    }
    group.finish();
}

/// First-request times for 50,000 requesters over the paper's 72-hour
/// window — the arrival half of every paper-scale engine setup.
fn bench_arrival_generation(c: &mut Criterion) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut group = c.benchmark_group("arrivals");
    let mut rng = SmallRng::seed_from_u64(1);
    for pattern in [
        ArrivalPattern::Constant,
        ArrivalPattern::Ramp,
        ArrivalPattern::PeriodicBursts,
    ] {
        group.bench_function(format!("{pattern}-50k"), |b| {
            b.iter(|| pattern.generate(50_000, 72 * 3_600, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_run,
    bench_warm_replay,
    bench_arrival_generation
);
criterion_main!(benches);
