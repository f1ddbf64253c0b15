//! Determinism regression: a parallel sweep must be **byte-identical**
//! to the serial path.
//!
//! The sweep engine's contract is that per-cell seeds derive from
//! `(master seed, cell index)` alone and reports are reassembled in
//! grid order — never a function of thread count, scheduling, or
//! execution order. These tests pin that contract at the JSON-artifact
//! level (the exact bytes `SweepReport::emit` writes), for both a plain
//! parameter grid and the full `rbtestutil` conformance scenario
//! matrix. On hosts with ≥ 4 cores, the parallel path must also beat
//! the serial one ≥ 2× on wall-clock.

use rbbench::sweep::{AsyncGrid, SweepCell, SweepSpec};
use rbbench::workloads::FailureEpisodes;
use rbcore::fault::FaultConfig;
use rbmarkov::paper::AsyncParams;
use rbsim::par::available_threads;
use rbtestutil::SchemeConformance;
use std::sync::Mutex;
use std::time::Instant;

/// The conformance suite's master seed (`tests/scheme_conformance.rs`).
const MASTER_SEED: u64 = 0x5EED_1983;

/// Serializes every test in this binary: the wall-clock speedup
/// measurement must not share cores with the other tests' sweeps, and
/// the determinism runs are CPU-bound anyway. (Lock poisoning is
/// irrelevant — a panicked holder already failed its own test.)
static SERIAL: Mutex<()> = Mutex::new(());

fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A reduced-effort conformance configuration: tolerances are derived
/// from each run's own standard errors, so smaller samples stay valid —
/// and determinism is independent of effort anyway.
fn light_conformance() -> SchemeConformance {
    SchemeConformance {
        intervals: 400,
        sync_rounds: 3_000,
        prp_horizon: 80.0,
        episodes: 0,
        z: 4.8,
        gof_alpha: rbbench::workloads::GOF_ALPHA,
        gof_bins: 12,
    }
}

#[test]
fn conformance_matrix_sweep_is_byte_identical_across_thread_counts() {
    let _serial = serial_guard();
    let spec = SweepSpec::conformance_matrix("conformance_sweep", MASTER_SEED, light_conformance());
    assert!(
        spec.cells.len() >= 20,
        "conformance matrix shrank below 20 points"
    );

    let serial = spec.run(1).to_json();
    for threads in [2, 4, 8] {
        let parallel = spec.run(threads).to_json();
        assert_eq!(
            serial, parallel,
            "parallel ({threads} threads) diverged from serial"
        );
    }
}

#[test]
fn distribution_metrics_are_byte_identical_across_thread_counts() {
    let _serial = serial_guard();
    // Cells carrying first-class `Metric::Distribution` payloads
    // (histogram counts, quantile vectors) and embedded KS/χ² checks:
    // the serialized artifact must stay a pure function of the spec —
    // the acceptance bar for promoting distributions into the metrics
    // layer.
    use rbbench::workloads::{AsyncDensity, AsyncIntervals, DistSpec};
    let spec = SweepSpec::new(
        "distribution_determinism",
        0xD157,
        vec![
            SweepCell::named(
                "density",
                AsyncDensity {
                    params: AsyncParams::symmetric(3, 1.0, 1.0),
                    lines: 4_000,
                    t_max: 6.0,
                    bins: 24,
                },
            ),
            SweepCell::named(
                "intervals",
                AsyncIntervals::new(AsyncParams::symmetric(2, 1.0, 0.5), 2_000)
                    .with_distribution(DistSpec::new(0.0, 8.0, 16)),
            ),
        ],
    );
    let serial = spec.run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial.to_json(),
            spec.run(threads).to_json(),
            "parallel ({threads} threads) diverged from serial"
        );
    }
    // Not vacuous: the artifact really carries distributions and
    // passing GoF gates.
    serial.assert_ok();
    let density = serial.cell("density").unwrap();
    assert!(density.metric("X_hist").unwrap().dist().is_some());
    assert!(serial.to_json().contains("\"quantiles\""));
}

#[test]
fn async_grid_sweep_is_byte_identical_across_thread_counts() {
    let _serial = serial_guard();
    let spec = SweepSpec::async_grid(
        "grid_determinism",
        42,
        &AsyncGrid {
            n: vec![2, 3, 4],
            mu: vec![0.7, 1.0],
            lambda: vec![0.25, 1.0],
            lines: 250,
        },
    );
    let serial = spec.run(1);
    let parallel = spec.run(4);
    assert_eq!(serial.to_json(), parallel.to_json());
    // The JSON identity is not vacuous: the report carries real data.
    assert_eq!(serial.cells.len(), 12);
    assert!(serial.cells.iter().all(|c| c.value("EX") > 0.0));
}

#[test]
fn failure_episodes_sweep_is_byte_identical_across_thread_counts() {
    let _serial = serial_guard();
    // The fault-injection workload runs three rollback semantics
    // (symmetric, directed, PRP) from one seed per cell — the newest
    // and most state-heavy path through the engine, so it gets its own
    // byte-identity gate.
    let spec = SweepSpec::new(
        "failure_episodes_determinism",
        0xFA17,
        [(1.0, 0.5), (0.5, 1.5), (0.25, 2.0)]
            .into_iter()
            .map(|(mu, lambda)| {
                SweepCell::named(
                    format!("mu{mu}/lam{lambda}"),
                    FailureEpisodes::new(
                        AsyncParams::symmetric(3, mu, lambda),
                        FaultConfig::uniform(3, 0.05, 0.5, 0.5),
                        60,
                    ),
                )
            })
            .collect(),
    );
    let serial = spec.run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial.to_json(),
            spec.run(threads).to_json(),
            "parallel ({threads} threads) diverged from serial"
        );
    }
    // Not vacuous: every cell carries all three schemes' metrics, and
    // the same-seed orderings hold on every cell.
    for cell in &serial.cells {
        assert!(cell.value("async/episodes") == 60.0);
        assert!(cell.value("directed/sup_distance") <= cell.value("async/sup_distance") + 1e-12);
        assert!(cell.value("prp/sup_distance") <= cell.value("async/sup_distance") + 1e-9);
    }
}

#[test]
fn adaptive_refinement_is_byte_identical_across_thread_counts() {
    let _serial = serial_guard();
    // The refinement *order* depends on measured values and the rounds
    // run as parallel sweeps — but every point's seed index is a pure
    // function of its position on the axis, so the whole refined
    // profile (rounds, points, every derived seed) must reproduce the
    // single-threaded bytes exactly under a fixed budget.
    use rbbench::adaptive::AdaptiveSpec;
    use rbbench::workloads::AsyncIntervals;
    let mk = || {
        AdaptiveSpec::new(
            "adaptive_determinism",
            0xADA7,
            vec![0.25, 1.0, 2.5, 4.0],
            "EX",
            0.4,
            16,
            Box::new(|lambda| {
                Box::new(AsyncIntervals::new(
                    AsyncParams::symmetric(3, 1.0, lambda),
                    300,
                ))
            }),
        )
        .with_max_depth(8)
    };
    let serial = mk().run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial.to_json(),
            mk().run(threads).to_json(),
            "adaptive refinement ({threads} threads) diverged from serial"
        );
    }
    // Not vacuous: the budget forced real refinement beyond the axis,
    // and refined cells carry stochastic measurements.
    assert_eq!(serial.points.len(), 16);
    assert!(serial.points.iter().any(|p| p.depth > 0));
    assert!(serial.rounds.len() > 1);
    assert!(serial.points.iter().all(|p| p.value > 0.0));
}

#[test]
fn sweep_report_json_shape_is_stable() {
    let _serial = serial_guard();
    let spec = SweepSpec::async_grid(
        "shape",
        7,
        &AsyncGrid {
            n: vec![2],
            mu: vec![1.0],
            lambda: vec![1.0],
            lines: 100,
        },
    );
    let json = spec.run(1).to_json();
    for key in [
        "\"sweep\"",
        "\"master_seed\"",
        "\"cells\"",
        "\"metrics\"",
        "\"EX\"",
    ] {
        assert!(json.contains(key), "artifact JSON lost key {key}:\n{json}");
    }
}

/// The wall-clock acceptance bar: ≥ 2× speedup on ≥ 4 cores. On smaller
/// hosts (CI containers are often 1–2 cores) only determinism is
/// checked above — the speedup is exercised where the hardware exists,
/// and by `benches/sweep_parallel.rs`.
#[test]
fn parallel_sweep_is_at_least_twice_as_fast_on_four_cores() {
    let _serial = serial_guard();
    let threads = available_threads();
    if threads < 4 {
        eprintln!("skipping speedup check: only {threads} hardware threads");
        return;
    }
    // ≥ 20 cells, sized so the serial run takes long enough to time
    // reliably (hundreds of ms) without slowing the suite.
    let spec = SweepSpec::async_grid(
        "speedup",
        1983,
        &AsyncGrid {
            n: vec![2, 3, 4, 5],
            mu: vec![0.7, 1.0],
            lambda: vec![0.25, 1.0, 2.0],
            lines: 2_000,
        },
    );
    assert!(spec.cells.len() >= 20);

    // Warm-up (fault any lazy init), then measure; best of two attempts
    // absorbs scheduler noise from whatever else the host is running.
    let _ = spec.run(threads);
    let mut last = (0.0, 0.0);
    for attempt in 0..2 {
        let t0 = Instant::now();
        let serial = spec.run(1);
        let serial_time = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let parallel = spec.run(threads);
        let parallel_time = t1.elapsed().as_secs_f64();
        assert_eq!(serial.to_json(), parallel.to_json());
        if parallel_time * 2.0 <= serial_time {
            return;
        }
        last = (serial_time, parallel_time);
        eprintln!(
            "speedup attempt {attempt}: serial {serial_time:.3}s, parallel {parallel_time:.3}s"
        );
    }
    panic!(
        "parallel {:.3}s not ≥2× faster than serial {:.3}s on {threads} threads",
        last.1, last.0
    );
}
