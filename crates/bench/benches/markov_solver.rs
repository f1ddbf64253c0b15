//! Criterion: Markov-solver scaling.
//!
//! How expensive are the analytic solves as the process count grows?
//! The full chain is 2ⁿ+1 states, solved matrix-free at every n; the
//! lumped chain has n+2 states, solved by GTH; and the density solve is
//! uniformization over the full chain. The `mean_interval/strategy`
//! group times the default path on symmetric and skewed models (the CI
//! perf-smoke job runs this group on every PR).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams, SplitChain};
use std::hint::black_box;

fn bench_mean_interval_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("mean_interval/full_chain");
    for n in [3usize, 5, 7, 9] {
        let params = AsyncParams::symmetric(n, 1.0, 1.0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &params, |b, p| {
            b.iter(|| black_box(p.mean_interval()))
        });
    }
    g.finish();
}

fn bench_mean_interval_lumped(c: &mut Criterion) {
    let mut g = c.benchmark_group("mean_interval/lumped_chain");
    // Hold ρ = 2 as n grows (the Figure 5 setup). Even at fixed ρ,
    // E[X] grows exponentially in n, so n ≳ 40 leaves f64 range — the
    // sweep stops at 27 (vs the full chain's practical cap of ~12).
    for n in [3usize, 9, 18, 27] {
        let lambda = 2.0 / (n - 1) as f64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, move |b, &n| {
            b.iter(|| black_box(mean_interval_symmetric(n, 1.0, lambda)))
        });
    }
    g.finish();
}

/// μᵢ = 0.5 + 1.5·i/n; the k-th of the m pairs has
/// λ = (0.2 + 0.6·k/(m−1))/(n−1). The popcount aggregation of the
/// matrix-free preconditioner is not exact here, unlike at symmetric
/// rates.
fn skewed(n: usize) -> AsyncParams {
    let mu = (0..n).map(|i| 0.5 + 1.5 * i as f64 / n as f64).collect();
    let m = n * (n - 1) / 2;
    let lambda = (0..m)
        .map(|k| (0.2 + 0.6 * k as f64 / (m - 1) as f64) / (n - 1) as f64)
        .collect();
    AsyncParams::new(mu, lambda).expect("skewed rates are valid")
}

fn bench_solver_strategies(c: &mut Criterion) {
    // The default matrix-free path on symmetric models (ρ = 1) to
    // n = 16 (n = 20 lives in the fig3_markov sweep and the matfree_scale
    // gates) and on skewed ones.
    let mut g = c.benchmark_group("mean_interval/strategy");
    for n in [12usize, 13, 14, 16] {
        let params = AsyncParams::symmetric(n, 1.0, 1.0 / (n as f64 - 1.0));
        g.bench_with_input(BenchmarkId::new("auto_sym", n), &params, |b, p| {
            b.iter(|| black_box(p.mean_interval()))
        });
    }
    for n in [10usize, 12, 14] {
        g.bench_with_input(BenchmarkId::new("auto_skew", n), &skewed(n), |b, p| {
            b.iter(|| black_box(p.mean_interval()))
        });
    }
    g.finish();
}

fn bench_density(c: &mut Criterion) {
    let params = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
    let ts: Vec<f64> = (0..50).map(|k| k as f64 * 0.1).collect();
    c.bench_function("interval_density/n3_50pts", |b| {
        b.iter(|| black_box(params.interval_density(&ts)))
    });
}

fn bench_split_chain(c: &mut Criterion) {
    let params = AsyncParams::symmetric(4, 1.0, 1.0);
    c.bench_function("split_chain/build_and_count_n4", |b| {
        b.iter(|| {
            let sc = SplitChain::build(&params, 0);
            black_box(sc.expected_rp_count(true))
        })
    });
}

criterion_group!(
    benches,
    bench_mean_interval_full,
    bench_mean_interval_lumped,
    bench_solver_strategies,
    bench_density,
    bench_split_chain
);
criterion_main!(benches);
