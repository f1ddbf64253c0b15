//! Criterion: random-stream, race-sampler and episode-loop throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use rbmarkov::paper::AsyncParams;
use rbsim::{PoissonRace, SimRng, StreamId};
use std::hint::black_box;

fn bench_exp_sampling(c: &mut Criterion) {
    c.bench_function("rng/exp_100k", |b| {
        let mut rng = SimRng::new(2, StreamId::WORKLOAD);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..100_000 {
                acc += rng.exp(1.0);
            }
            black_box(acc)
        })
    });
}

/// The category rates of the asynchronous driver on a symmetric model:
/// n RP rates, then the n(n−1)/2 interaction rates.
fn symmetric_rates(n: usize, mu: f64, lambda: f64) -> Vec<f64> {
    let mut rates = vec![mu; n];
    rates.resize(n + n * (n - 1) / 2, lambda);
    rates
}

fn bench_race(c: &mut Criterion) {
    // The Figure 5 hot cell's 21 categories (n = 6, ρ = 4).
    let race = PoissonRace::new(&symmetric_rates(6, 1.0, 0.8));
    let mut g = c.benchmark_group("race");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("pick", |b| {
        let mut rng = SimRng::new(2, StreamId::WORKLOAD);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..100_000 {
                let (dt, k) = race.next(&mut rng);
                acc += dt + k as f64;
            }
            black_box(acc)
        })
    });
    g.finish();
    // n = 12: 78 categories, the widest threshold search the kernel
    // golden pins cover.
    let rates = symmetric_rates(12, 1.0, 0.1);
    c.bench_function("race/build", |b| {
        b.iter(|| black_box(PoissonRace::new(&rates)))
    });
}

fn bench_async_driver(c: &mut Criterion) {
    let mut g = c.benchmark_group("async_scheme/1000_lines");
    for n in [3usize, 6] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let params = AsyncParams::symmetric(n, 1.0, 1.0);
                let stats = AsyncScheme::new(AsyncConfig::new(params), 3).run_intervals(1_000);
                black_box(stats.interval.mean())
            })
        });
    }
    g.finish();

    // The Figure 5 critical-path cell (n = 6, ρ = 4), throughput in
    // events.
    let params = AsyncParams::symmetric(6, 1.0, 0.8);
    let run = || AsyncScheme::new(AsyncConfig::new(params.clone()), 3).run_intervals(2_000);
    let mut g = c.benchmark_group("async_scheme");
    g.throughput(Throughput::Elements(run().events));
    g.bench_function("fig5_hot", |b| b.iter(|| black_box(run().events)));
    g.finish();
}

criterion_group!(benches, bench_exp_sampling, bench_race, bench_async_driver);
criterion_main!(benches);
