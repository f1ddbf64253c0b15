//! Criterion: threaded-runtime primitive costs — checkpoint
//! save/restore, logged-channel round trips, recovery-block retries,
//! and the PRP implantation broadcast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rbruntime::{logged_pair, CheckpointStore, RecoveryBlock, RecoveryGroup};
use std::hint::black_box;

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint");
    for size in [64usize, 4_096, 262_144] {
        let state = vec![0u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("save_restore", size), &state, |b, s| {
            b.iter(|| {
                let mut store = CheckpointStore::new();
                let id = store.save_real(s);
                black_box(store.restore(id).unwrap().len())
            })
        });
    }
    g.finish();
}

fn bench_logged_channel(c: &mut Criterion) {
    c.bench_function("logged_channel/send_recv_10k", |b| {
        b.iter(|| {
            let (mut tx, mut rx) = logged_pair::<u64>();
            for k in 0..10_000u64 {
                tx.send(k);
            }
            let mut acc = 0;
            for _ in 0..10_000 {
                acc += rx.recv().unwrap();
            }
            black_box(acc)
        })
    });
}

fn bench_recovery_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery_block");
    g.bench_function("primary_passes", |b| {
        let block = RecoveryBlock::ensure(|v: &Vec<u64>| !v.is_empty()).by(|v: &mut Vec<u64>| {
            v.push(1);
            Ok(())
        });
        b.iter(|| {
            let mut state = vec![0u64; 128];
            black_box(block.execute(&mut state).unwrap())
        })
    });
    g.bench_function("two_retries", |b| {
        let block = RecoveryBlock::ensure(|v: &Vec<u64>| v.last() == Some(&3))
            .by(|v: &mut Vec<u64>| {
                v.push(1);
                Ok(())
            })
            .else_by(|v: &mut Vec<u64>| {
                v.push(2);
                Ok(())
            })
            .else_by(|v: &mut Vec<u64>| {
                v.push(3);
                Ok(())
            });
        b.iter(|| {
            let mut state = vec![0u64; 128];
            black_box(block.execute(&mut state).unwrap())
        })
    });
    g.finish();
}

fn bench_prp_implantation(c: &mut Criterion) {
    let mut g = c.benchmark_group("prp_group/establish_rp_x10");
    g.sample_size(20);
    for n in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_with_setup(
                || RecoveryGroup::spawn_prp(vec![0u64; n]),
                |mut group| {
                    for _ in 0..10 {
                        black_box(group.establish_rp(0));
                    }
                    group.shutdown();
                },
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_checkpoint,
    bench_logged_channel,
    bench_recovery_block,
    bench_prp_implantation
);
criterion_main!(benches);
