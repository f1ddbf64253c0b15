//! Criterion: end-to-end scheme comparison — the cost of measuring one
//! batch of failure episodes / synchronization rounds per scheme, and
//! an ablation of the PRP implantation delay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbcore::fault::FaultConfig;
use rbcore::rollback::RollbackRule;
use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use rbcore::schemes::prp::{PrpConfig, PrpScheme};
use rbcore::schemes::synchronized::simulate_commit_losses;
use rbmarkov::paper::AsyncParams;
use std::hint::black_box;

fn bench_failure_episodes(c: &mut Criterion) {
    let mut g = c.benchmark_group("failure_episodes_x50");
    g.sample_size(10);
    let params = AsyncParams::symmetric(3, 1.0, 1.0);
    let fault = FaultConfig::uniform(3, 0.05, 0.5, 0.5);
    g.bench_function("asynchronous", |b| {
        b.iter(|| {
            let cfg = AsyncConfig::new(params.clone()).with_fault(fault.clone());
            black_box(
                AsyncScheme::new(cfg, 1)
                    .run_failure_episodes(50, RollbackRule::Symmetric)
                    .episodes,
            )
        })
    });
    g.bench_function("prp", |b| {
        b.iter(|| {
            let cfg = PrpConfig::new(params.clone()).with_fault(fault.clone());
            black_box(PrpScheme::new(cfg, 1).run_failure_episodes(50).episodes)
        })
    });
    g.finish();
}

fn bench_sync_rounds(c: &mut Criterion) {
    c.bench_function("sync_commit_losses_x10k", |b| {
        b.iter(|| {
            black_box(
                simulate_commit_losses(&[1.5, 1.0, 0.5], 10_000, 5)
                    .loss
                    .mean(),
            )
        })
    });
}

fn bench_prp_delay_ablation(c: &mut Criterion) {
    // Design ablation: how sensitive is the PRP episode cost to the
    // implantation delay (which controls how often interactions sneak
    // between an RP and its PRPs)?
    let mut g = c.benchmark_group("prp_delay_ablation");
    g.sample_size(10);
    let params = AsyncParams::symmetric(3, 1.0, 2.0);
    let fault = FaultConfig::uniform(3, 0.05, 0.5, 0.5);
    for delay in [1e-9, 1e-6, 1e-2] {
        g.bench_with_input(BenchmarkId::from_parameter(delay), &delay, |b, &d| {
            b.iter(|| {
                let mut cfg = PrpConfig::new(params.clone()).with_fault(fault.clone());
                cfg.implant_delay = d;
                black_box(
                    PrpScheme::new(cfg, 2)
                        .run_failure_episodes(30)
                        .sup_distance
                        .mean(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_failure_episodes,
    bench_sync_rounds,
    bench_prp_delay_ablation
);
criterion_main!(benches);
