//! Criterion: serial vs parallel scenario-sweep throughput.
//!
//! The sweep engine's acceptance bar: on a multi-core host the parallel
//! path must beat the serial one ≥ 2× on the ≥ 20-cell grid while
//! producing bit-identical reports (the identity is asserted here on
//! every measurement, and pinned by `tests/sweep_determinism.rs`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rbbench::sweep::{AsyncGrid, SweepSpec};
use rbsim::par::available_threads;
use std::hint::black_box;

fn grid_spec() -> SweepSpec {
    // 24 cells spanning process counts and interaction densities — the
    // shape of a figure-bin sweep, sized for benchmarking.
    SweepSpec::async_grid(
        "bench-grid",
        1983,
        &AsyncGrid {
            n: vec![2, 3, 4],
            mu: vec![0.7, 1.0],
            lambda: vec![0.25, 0.5, 1.0, 2.0],
            lines: 400,
        },
    )
}

fn bench_sweep(c: &mut Criterion) {
    let spec = grid_spec();
    let threads = available_threads();
    let mut g = c.benchmark_group("scenario_sweep/24_cells");
    g.throughput(Throughput::Elements(spec.cells.len() as u64));
    g.bench_function("serial", |b| b.iter(|| black_box(spec.run(1))));
    g.bench_function(format!("parallel/{threads}_threads"), |b| {
        b.iter(|| black_box(spec.run(threads)))
    });
    g.finish();

    // The speedup must never come at the cost of determinism.
    assert_eq!(spec.run(1).to_json(), spec.run(threads).to_json());
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
