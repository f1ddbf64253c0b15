//! The resumable-sweep contract, end to end.
//!
//! Resume is a property of the content-addressed result cache
//! (`rbbench::cache`): re-running a sweep against the cache it was
//! filling serves every finished cell as a hit and solves only the
//! rest. Five layers of guarantee:
//!
//! 1. **Replay equivalence** — a sweep resumed from a cache (fresh,
//!    complete, torn, or partially corrupt) reassembles a
//!    `SweepReport` whose JSON is byte-identical to an uninterrupted
//!    serial run, and resume *skips* completed cells (verified by a
//!    run-count probe workload, not just by timing).
//! 2. **Corruption handling** — a truncated tail frame and a flipped
//!    checksum bit cleanly re-run the affected cells. All damage goes
//!    through [`rbruntime::faultio::apply_mangle`] — the same corruption
//!    vocabulary the seeded chaos matrix (`chaos_matrix.rs`) sweeps —
//!    so these named cases and the schedule-driven sweep can't drift
//!    apart.
//! 3. **No stale replay** — editing one cell's configuration under an
//!    unchanged id re-solves exactly that cell: the key binds every
//!    parameter, so the edit is a clean miss.
//! 4. **Kill realism** — a release-only test SIGKILLs the
//!    `sweep_resume_probe` binary mid-sweep (a real child process, not
//!    a simulated panic), resumes it with the same `--cache`, and
//!    byte-diffs the artifact against an uninterrupted run — the CI
//!    `sweep-resume` job's gate.
//! 5. **Refinement resume** — an adaptive refinement killed mid-round
//!    resumes byte-for-byte: finished rounds are served from the cache,
//!    the torn round re-runs only its missing cell, and re-discovered
//!    midpoints land on their path-determined seed indices.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rbbench::cache::{wal_stats, ResultCache, CACHE_FILE};
use rbbench::cli::BenchArgs;
use rbbench::sweep::{AsyncGrid, CachedSweep, Metric, SweepCell, SweepSpec, Workload};
use rbbench::workloads::{AsyncIntervals, DistSpec};
use rbcore::workload::canon_f64;
use rbmarkov::paper::AsyncParams;
use rbruntime::faultio::{apply_mangle, Mangle};
use rbruntime::wal::FrameScan;

/// A fresh scratch directory per test (removed up front, so reruns are
/// clean even after a crash).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbbench-sweep-resume-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One run against the cache under `dir`, reopened from disk — what a
/// restarted process does.
fn resume(spec: &SweepSpec, threads: usize, dir: &Path) -> CachedSweep {
    let cache = ResultCache::open(dir).expect("open cache");
    spec.run_cached(threads, &Mutex::new(cache))
}

/// Byte offset where each entry frame of the cache WAL starts (the
/// header frame ends at `[0]`).
fn entry_offsets(dir: &Path) -> Vec<u64> {
    let bytes = std::fs::read(dir.join(CACHE_FILE)).expect("read cache file");
    let mut scan = FrameScan::new(&bytes);
    scan.next().expect("header frame");
    let mut offsets = Vec::new();
    loop {
        let at = scan.offset() as u64;
        if scan.next().is_none() {
            return offsets;
        }
        offsets.push(at);
    }
}

/// Deterministic echo workload that counts how many times it actually
/// ran — the probe that distinguishes "served from the cache" from
/// "recomputed".
#[derive(Clone)]
struct CountingEcho {
    k: u64,
    runs: Arc<AtomicUsize>,
}

impl Workload for CountingEcho {
    fn label(&self) -> String {
        "counting-echo".into()
    }
    fn run(&self, seed: u64) -> Vec<Metric> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        vec![
            Metric::exact("k", self.k as f64),
            Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64),
            Metric::exact("seed_hi32", (seed >> 32) as f64),
        ]
    }
    fn cache_params(&self) -> Option<String> {
        Some(format!("k={}", self.k))
    }
}

fn counting_spec(name: &str, cells: usize, runs: &Arc<AtomicUsize>) -> SweepSpec {
    SweepSpec::new(
        name,
        4242,
        (0..cells)
            .map(|k| {
                SweepCell::named(
                    format!("c{k}"),
                    CountingEcho {
                        k: k as u64,
                        runs: Arc::clone(runs),
                    },
                )
            })
            .collect(),
    )
}

/// A small but *real* sweep — simulation cells with a distribution
/// metric — so replay fidelity is proven on the payloads the figure
/// bins actually store.
fn sim_spec() -> SweepSpec {
    let grid = AsyncGrid {
        n: vec![2, 3],
        mu: vec![1.0],
        lambda: vec![0.5, 1.0],
        lines: 120,
    };
    let mut spec = SweepSpec::async_grid("resume-sim", 7, &grid);
    let params = AsyncParams::symmetric(3, 1.0, 0.5);
    spec.cells.push(SweepCell::named(
        "with-dist",
        AsyncIntervals::new(params, 150).with_distribution(DistSpec::new(0.0, 8.0, 16)),
    ));
    spec
}

#[test]
fn fresh_then_replayed_cache_matches_serial_bytes() {
    let dir = scratch("fresh");
    let spec = sim_spec();
    let reference = spec.run(1).to_json();

    // Fresh cache, parallel run: identical bytes.
    let first = resume(&spec, 4, &dir);
    assert_eq!(first.misses, spec.cells.len());
    assert_eq!(first.report.to_json(), reference);

    // Complete cache: pure replay, still identical (including the
    // distribution payload's bit-exact f64s).
    let replayed = resume(&spec, 4, &dir);
    assert_eq!(replayed.hits, spec.cells.len());
    assert_eq!(replayed.report.to_json(), reference);
}

#[test]
fn resume_skips_completed_cells() {
    let dir = scratch("skip");
    let cells = 8;

    let runs = Arc::new(AtomicUsize::new(0));
    let spec = counting_spec("count", cells, &runs);
    let full = resume(&spec, 1, &dir).report;
    assert_eq!(runs.load(Ordering::Relaxed), cells, "all cells ran once");

    // Keep only the first 3 entries — as if the run died after cell 2.
    let offsets = entry_offsets(&dir);
    assert_eq!(offsets.len(), cells);
    let keep = 3;
    apply_mangle(
        &dir.join(CACHE_FILE),
        &Mangle::Truncate { len: offsets[keep] },
    )
    .unwrap();

    let runs2 = Arc::new(AtomicUsize::new(0));
    let spec2 = counting_spec("count", cells, &runs2);
    let resumed = resume(&spec2, 2, &dir);
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        cells - keep,
        "resume must re-run exactly the missing cells"
    );
    assert_eq!(resumed.hits, keep);
    assert_eq!(resumed.report.to_json(), full.to_json());
    assert_eq!(wal_stats(&dir).unwrap().entries, cells, "cache refilled");
}

#[test]
fn truncated_tail_record_is_discarded_and_rerun() {
    let dir = scratch("torn");
    let cells = 6;

    let runs = Arc::new(AtomicUsize::new(0));
    let spec = counting_spec("count", cells, &runs);
    let full = resume(&spec, 1, &dir).report;

    // Tear the last entry mid-frame (as SIGKILL mid-write would).
    let torn_len = entry_offsets(&dir)[cells - 1] + 5;
    apply_mangle(&dir.join(CACHE_FILE), &Mangle::Truncate { len: torn_len }).unwrap();
    assert_eq!(wal_stats(&dir).unwrap().entries, cells - 1);

    let runs2 = Arc::new(AtomicUsize::new(0));
    let spec2 = counting_spec("count", cells, &runs2);
    let resumed = resume(&spec2, 1, &dir).report;
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        1,
        "only the torn cell re-ran"
    );
    assert_eq!(resumed.to_json(), full.to_json());
    let stats = wal_stats(&dir).unwrap();
    assert_eq!(stats.entries, cells);
    assert!(
        stats.file_len > torn_len,
        "torn tail truncated, fresh entry appended"
    );
}

#[test]
fn flipped_checksum_byte_reruns_the_affected_cells() {
    let dir = scratch("flip");
    let cells = 6;

    let runs = Arc::new(AtomicUsize::new(0));
    let spec = counting_spec("count", cells, &runs);
    let full = resume(&spec, 1, &dir).report;

    // Flip one checksum byte of entry 2: entries 2.. are dropped (the
    // scan cannot trust anything past an unverifiable frame), their
    // cells re-run, and the report still matches.
    let flip_at = entry_offsets(&dir)[2] + 5;
    apply_mangle(
        &dir.join(CACHE_FILE),
        &Mangle::FlipBit {
            offset: flip_at,
            bit: 0,
        },
    )
    .unwrap();

    let runs2 = Arc::new(AtomicUsize::new(0));
    let spec2 = counting_spec("count", cells, &runs2);
    let resumed = resume(&spec2, 3, &dir).report;
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        cells - 2,
        "cells 2.. re-ran; cells 0 and 1 replayed"
    );
    assert_eq!(resumed.to_json(), full.to_json());
}

#[test]
fn editing_one_cell_under_the_same_id_resolves_exactly_that_cell() {
    // The binaries' resume path: `--cache <dir>` through
    // `BenchArgs::run_sweep`. A store that keyed cells by sweep name and
    // id alone would replay the stale record for the edited cell here.
    let dir = scratch("stale");
    let args = BenchArgs::parse_from(
        ["--cache", dir.to_str().unwrap(), "--threads", "2"]
            .into_iter()
            .map(String::from),
    )
    .expect("parse flags");
    let cells = 6;

    let runs = Arc::new(AtomicUsize::new(0));
    let first = args.run_sweep(&counting_spec("stale", cells, &runs));
    assert_eq!(runs.load(Ordering::Relaxed), cells);

    // Every id, the name and the master seed unchanged; only cell c2's
    // configuration differs.
    let runs2 = Arc::new(AtomicUsize::new(0));
    let mut edited = counting_spec("stale", cells, &runs2);
    edited.cells[2].workload = Box::new(CountingEcho {
        k: 99,
        runs: Arc::clone(&runs2),
    });
    let resumed = args.run_sweep(&edited);
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        1,
        "exactly the edited cell re-solves"
    );
    assert_eq!(resumed.to_json(), edited.run(1).to_json());
    assert_ne!(resumed.to_json(), first.to_json());
    assert_eq!(resumed.cell("c2").unwrap().value("k"), 99.0);
}

#[test]
fn kill_mid_refinement_resumes_byte_identically() {
    use rbbench::adaptive::AdaptiveSpec;

    // Two discontinuities, one per initial interval: every refinement
    // round bisects exactly the two gaps bracketing them, so each round
    // past the coarse sweep has two cells — enough to tear one round
    // mid-write and leave the other cell finished.
    fn profile(x: f64) -> f64 {
        f64::from(u8::from(x >= 0.3) + u8::from(x >= 1.7))
    }

    #[derive(Clone)]
    struct CountingProfile {
        x: f64,
        runs: Arc<AtomicUsize>,
    }
    impl Workload for CountingProfile {
        fn label(&self) -> String {
            "counting-profile".into()
        }
        fn run(&self, seed: u64) -> Vec<Metric> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            vec![
                Metric::exact("f", profile(self.x)),
                Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64),
            ]
        }
        fn cache_params(&self) -> Option<String> {
            Some(format!("x={}", canon_f64(self.x)))
        }
    }

    let mk = |runs: &Arc<AtomicUsize>| {
        let runs = Arc::clone(runs);
        AdaptiveSpec::new(
            "adaptive-kill",
            0xADA5,
            vec![0.0, 1.0, 2.0],
            "f",
            0.5,
            16,
            Box::new(move |x| {
                Box::new(CountingProfile {
                    x,
                    runs: Arc::clone(&runs),
                })
            }),
        )
        .with_max_depth(4)
    };

    // Uninterrupted, uncached reference.
    let reference = mk(&Arc::new(AtomicUsize::new(0))).run(1).to_json();

    // Full cached run: rounds r0 (3 cells) then r1..r4 (2 cells each,
    // one per discontinuity) until the depth cap converges.
    let dir = scratch("adaptive-kill");
    let runs = Arc::new(AtomicUsize::new(0));
    let cache = Mutex::new(ResultCache::open(&dir).expect("open cache"));
    let full = mk(&runs).run_cached(2, &cache);
    drop(cache);
    assert_eq!(full.to_json(), reference);
    assert!(full.converged);
    assert_eq!(full.rounds.len(), 5);
    assert_eq!(runs.load(Ordering::Relaxed), 11, "3 + 4 rounds x 2 cells");

    // Reproduce the disk state a SIGKILL during round 2 leaves behind
    // (the process-level realism of exactly this state is proven by
    // `kill_mid_sweep_then_resume_is_byte_identical` below): r0 and r1
    // complete, r2 torn mid-frame after its first entry, r3 and r4
    // never begun. Rounds run one after another, so entries 0..6 are
    // exactly r0, r1 and one r2 cell.
    let offsets = entry_offsets(&dir);
    assert_eq!(offsets.len(), 11);
    apply_mangle(
        &dir.join(CACHE_FILE),
        &Mangle::Truncate {
            len: offsets[6] + 5,
        },
    )
    .unwrap();

    // Resume at a different thread count: finished work is served from
    // the cache, the rest re-runs, and the report reproduces the
    // reference bytes.
    let runs2 = Arc::new(AtomicUsize::new(0));
    let cache = Mutex::new(ResultCache::open(&dir).expect("reopen cache"));
    let resumed = mk(&runs2).run_cached(4, &cache);
    assert_eq!(
        resumed.to_json(),
        reference,
        "resumed refinement diverged from the uninterrupted run"
    );
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        5,
        "resume must re-run exactly r2's missing cell plus r3 and r4"
    );
    assert_eq!(cache.lock().unwrap().len(), 11, "cache refilled");
}

/// The CI gate: SIGKILL a real sweep process partway, resume it, and
/// byte-diff the artifact against an uninterrupted run. Release-only —
/// debug builds simulate enough cells/second to make the kill window
/// unreliable, and CI's `sweep-resume` job runs the release suite.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "kill/resume gate runs in release (CI sweep-resume job)"
)]
fn kill_mid_sweep_then_resume_is_byte_identical() {
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_sweep_resume_probe");
    let base = scratch("kill");
    let ref_out = base.join("reference");
    let res_out = base.join("resumed");
    let cache_dir = base.join("cache");
    let lines = "60000";

    // Reference: uninterrupted, serial, no cache.
    let status = Command::new(bin)
        .args(["--out", ref_out.to_str().unwrap(), "--threads", "1"])
        .env("RB_PROBE_LINES", lines)
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference run");
    assert!(status.success(), "reference run failed");

    // Cached run, killed once the cache shows progress but (we hope)
    // before completion. SIGKILL, not SIGTERM: no destructors, exactly
    // the preemption resume exists for.
    let cached = |threads: &str| {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--out",
            res_out.to_str().unwrap(),
            "--cache",
            cache_dir.to_str().unwrap(),
            "--threads",
            threads,
        ])
        .env("RB_PROBE_LINES", lines)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
        cmd
    };
    let entries = || wal_stats(&cache_dir).expect("poll cache").entries;
    let mut child = cached("2").spawn().expect("spawn cached run");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut finished_early = false;
    loop {
        if entries() >= 3 {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            finished_early = true;
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cached run made no progress within 120 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    if !finished_early {
        child.kill().expect("SIGKILL the sweep");
        child.wait().expect("reap the killed sweep");
        assert!(
            entries() < 24,
            "kill landed after completion; probe too fast for the gate"
        );
    } else {
        eprintln!("note: probe finished before the kill window; resume degrades to pure replay");
    }

    // Resume (different thread count on purpose) and byte-diff.
    let status = cached("4").status().expect("spawn resumed run");
    assert!(status.success(), "resumed run failed");
    let reference = std::fs::read(ref_out.join("sweep_resume_probe.json")).unwrap();
    let resumed = std::fs::read(res_out.join("sweep_resume_probe.json")).unwrap();
    assert!(
        reference == resumed,
        "resumed artifact diverged from the uninterrupted run ({} vs {} bytes)",
        reference.len(),
        resumed.len()
    );
    assert_eq!(entries(), 24, "cache holds every cell after resume");
}
