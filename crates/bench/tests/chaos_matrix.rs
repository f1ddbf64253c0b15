//! The chaos-matrix gate: 130 seeded fault schedules against the
//! result cache — the one durable store behind cached and resumed
//! sweeps — each ending in one of exactly two outcomes: a
//! `SweepReport` byte-identical to the fault-free serial run, or a
//! documented refusal (after which deleting the cache and re-running
//! reproduces the reference bytes). Zero divergent-bytes outcomes,
//! ever.
//!
//! Three arms:
//!
//! * **cache-live** (64 schedules) — `run_cached` over a cache opened
//!   on a [`FaultyFs`] (short writes, silent bit flips, transient
//!   errors, disk-full, injected *while the cache is being written*);
//!   the mid-run insert panic is the simulated crash, and recovery
//!   resumes on the real filesystem;
//! * **cache-mangle** (46 schedules) — a clean cache damaged afterwards
//!   by a seeded [`derive_mangle`] schedule (truncation, bit rot,
//!   appended garbage), then resumed;
//! * **cache-compact** (20 schedules) — `compact_in` over a
//!   [`FaultyFs`]: a faulted compaction must leave the old file serving
//!   reference bytes, a completed one must publish a file that replays
//!   identically.
//!
//! Every fault is pure in `(master seed, schedule index)` — a failing
//! schedule replays exactly under its printed index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

use rbbench::cache::ResultCache;
use rbbench::sweep::{Metric, SweepCell, SweepSpec, Workload};
use rbruntime::faultio::{
    apply_mangle, derive_fault_seed, derive_mangle, FaultKind, FaultPlan, FaultyFs,
};

/// A fresh scratch directory per schedule.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbbench-chaos-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Deterministic, cacheable echo workload — cheap enough that one
/// schedule costs microseconds of solve time, rich enough (two metrics
/// keyed off the seed) that any replay corruption shows in the bytes.
#[derive(Clone)]
struct Echo {
    tag: u64,
}

impl Workload for Echo {
    fn label(&self) -> String {
        format!("chaos-echo/{}", self.tag)
    }
    fn run(&self, seed: u64) -> Vec<Metric> {
        vec![
            Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64),
            Metric::exact("tagged", ((seed ^ self.tag) >> 32) as f64),
        ]
    }
    fn cache_params(&self) -> Option<String> {
        Some(format!("tag={}", self.tag))
    }
}

fn echo_spec(name: &str, cells: usize) -> SweepSpec {
    SweepSpec::new(
        name,
        0xC4A0,
        (0..cells)
            .map(|k| SweepCell::named(format!("c{k}"), Echo { tag: k as u64 }))
            .collect(),
    )
}

/// The fault plan for live schedule `index`: every fifth schedule
/// sweeps the full fault mix, the rest pin one kind each so no kind
/// can silently stop being exercised; rates cycle through
/// light-to-certain so both "mostly survives" and "fails fast" paths
/// run.
fn plan_for(master: u64, index: u64) -> FaultPlan {
    let plan = FaultPlan::new(master, index);
    let plan = match index % 5 {
        0 => plan,
        1 => plan.with_kinds(&[FaultKind::ShortWrite]),
        2 => plan.with_kinds(&[FaultKind::BitFlip]),
        3 => plan.with_kinds(&[FaultKind::Transient]),
        _ => plan.with_kinds(&[FaultKind::DiskFull]),
    };
    // Every third schedule also fails the first flushes transiently —
    // the budget is below the retry limit, so a correct append absorbs
    // it without duplicating frames (the double-append regression).
    plan.with_rate([120, 250, 500, 1000][(index % 4) as usize])
        .with_flush_transients(index % 3)
}

/// The cache-side recovery gate shared by both cache arms: reopen on
/// the real filesystem, and either the cached run reproduces the
/// reference bytes or the open is the documented refusal — after which
/// a fresh cache reproduces them.
fn assert_cache_recovers(dir: &PathBuf, spec: &SweepSpec, reference: &str, schedule: &str) {
    match ResultCache::open(dir) {
        Ok(cache) => {
            let out = spec.run_cached(2, &Mutex::new(cache));
            assert_eq!(
                out.report.to_json(),
                reference,
                "{schedule}: cached run diverged from the fault-free reference"
            );
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("delete the cache"),
                "{schedule}: refusal must name the remedy: {msg}"
            );
            std::fs::remove_dir_all(dir).expect("take the refusal's advice");
            let cache = ResultCache::open(dir).expect("fresh cache");
            let rerun = spec.run_cached(2, &Mutex::new(cache));
            assert_eq!(
                rerun.report.to_json(),
                reference,
                "{schedule}: fresh-cache rerun diverged"
            );
        }
    }
}

#[test]
fn cache_live_fault_schedules_recover_or_refuse() {
    const SCHEDULES: u64 = 64;
    let spec = echo_spec("chaos-cache", 6);
    let reference = spec.run(1).to_json();
    let mut injected_total = 0u64;

    for index in 0..SCHEDULES {
        let schedule = format!("cache-live #{index}");
        let dir = scratch(&format!("clive-{index}"));
        let fs = FaultyFs::new(plan_for(0xCAC4E, index));

        // Live run: open may fail outright (named error); a mid-run
        // insert failure panics (simulated crash); a completed run must
        // serve reference bytes.
        match ResultCache::open_in(&fs, &dir) {
            Err(e) => assert!(!e.to_string().is_empty()),
            Ok(cache) => {
                let m = Mutex::new(cache);
                if let Ok(out) = catch_unwind(AssertUnwindSafe(|| spec.run_cached(2, &m))) {
                    assert_eq!(
                        out.report.to_json(),
                        reference,
                        "{schedule}: live cached run served divergent bytes"
                    );
                }
            }
        }
        injected_total += fs.faults_injected();
        assert_cache_recovers(&dir, &spec, &reference, &schedule);
    }
    assert!(
        injected_total > 0,
        "the schedules must actually inject faults (got none across {SCHEDULES})"
    );
    println!(
        "cache-live: {SCHEDULES} schedules, {injected_total} faults injected — zero divergent"
    );
}

#[test]
fn cache_mangle_schedules_recover_or_refuse() {
    const SCHEDULES: u64 = 46;
    let spec = echo_spec("chaos-cache-m", 6);
    let reference = spec.run(1).to_json();

    for index in 0..SCHEDULES {
        let schedule = format!("cache-mangle #{index}");
        let dir = scratch(&format!("cmangle-{index}"));
        let cache = ResultCache::open(&dir).expect("fresh cache");
        let m = Mutex::new(cache);
        let clean = spec.run_cached(2, &m);
        assert_eq!(clean.report.to_json(), reference);
        assert_eq!(clean.misses, 6, "clean run fills the cache");
        drop(m);

        let path = dir.join("results.wal");
        let len = std::fs::metadata(&path).expect("metadata").len();
        let mangle = derive_mangle(derive_fault_seed(0x00C0_FFEE, index), len);
        apply_mangle(&path, &mangle).expect("apply mangle");

        assert_cache_recovers(&dir, &spec, &reference, &format!("{schedule} ({mangle})"));
    }
    println!("cache-mangle: {SCHEDULES} schedules — zero divergent");
}

#[test]
fn cache_compaction_fault_schedules_keep_the_old_file_or_publish_clean() {
    const SCHEDULES: u64 = 20;
    let spec = echo_spec("chaos-compact", 6);
    let reference = spec.run(1).to_json();
    let mut injected_total = 0u64;
    let mut failed = 0u64;

    for index in 0..SCHEDULES {
        let schedule = format!("cache-compact #{index}");
        let dir = scratch(&format!("ccompact-{index}"));
        // A warm cache, built fault-free.
        let m = Mutex::new(ResultCache::open(&dir).expect("fresh cache"));
        let clean = spec.run_cached(2, &m);
        assert_eq!(clean.report.to_json(), reference);
        let mut cache = m
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // Compact under fire. Success must shrink-or-hold the file;
        // failure must be an error, not a panic — and either way the
        // recovery gate below must serve reference bytes.
        let fs = FaultyFs::new(plan_for(0xC03B_AC70, index));
        match cache.compact_in(&fs) {
            Ok(stats) => assert!(
                stats.bytes_after <= stats.bytes_before,
                "{schedule}: compaction grew the file"
            ),
            Err(e) => {
                assert!(!e.to_string().is_empty());
                failed += 1;
            }
        }
        injected_total += fs.faults_injected();
        drop(cache);
        assert_cache_recovers(&dir, &spec, &reference, &schedule);
    }
    assert!(
        injected_total > 0,
        "the schedules must actually inject faults (got none across {SCHEDULES})"
    );
    println!(
        "cache-compact: {SCHEDULES} schedules, {injected_total} faults injected, \
         {failed} failed compactions — zero divergent"
    );
}
