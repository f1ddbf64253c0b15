//! Criterion: recovery-line detection and rollback propagation on long
//! histories.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbcore::history::{History, ProcessId};
use rbcore::recovery_line::find_recovery_lines;
use rbcore::rollback::{propagate_rollback, RollbackRule::Symmetric};
use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use rbmarkov::paper::AsyncParams;
use std::hint::black_box;

fn make_history(n: usize, horizon: f64) -> History {
    let params = AsyncParams::symmetric(n, 1.0, 1.0);
    AsyncScheme::new(AsyncConfig::new(params), 12345).generate_history(horizon)
}

fn bench_find_lines(c: &mut Criterion) {
    let mut g = c.benchmark_group("find_recovery_lines");
    for n in [3usize, 6, 10] {
        let h = make_history(n, 500.0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| black_box(find_recovery_lines(h).len()))
        });
    }
    g.finish();
}

fn bench_propagate(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagate_rollback");
    for n in [3usize, 6, 10] {
        let h = make_history(n, 500.0);
        let t = h.horizon();
        g.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| black_box(propagate_rollback(h, ProcessId(0), t, Symmetric)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_find_lines, bench_propagate);
criterion_main!(benches);
