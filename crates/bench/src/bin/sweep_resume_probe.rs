//! CI probe for the resumable-sweep gate: a mid-size asynchronous-grid
//! sweep whose artifact is compared byte-for-byte across
//! *uninterrupted* and *killed-then-resumed* runs.
//!
//! The `sweep-resume` CI job (and the release test in
//! `crates/bench/tests/sweep_resume.rs`) runs this binary three ways:
//! once without `--cache` as the reference, once with `--cache`
//! SIGKILLed mid-sweep, and once more with the same `--cache` to
//! resume — then diffs `sweep_resume_probe.json` between the reference
//! and the resumed run. The grid is sized so a kill lands partway
//! through: 24 cells of `RB_PROBE_LINES` (default 60 000) simulated
//! recovery-line intervals each.

use rbbench::cli::BenchArgs;
use rbbench::sweep::{AsyncGrid, SweepSpec};

fn main() {
    let args = BenchArgs::parse("sweep_resume_probe");
    let lines: usize = std::env::var("RB_PROBE_LINES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let grid = AsyncGrid {
        n: vec![3],
        mu: vec![1.0],
        lambda: (1..=24).map(|k| k as f64 / 8.0).collect(),
        lines,
    };
    let spec = SweepSpec::async_grid("sweep_resume_probe", args.master_seed(83), &grid);
    let report = args.run_sweep(&spec);
    let path = args.emit_json("sweep_resume_probe", &report);
    println!(
        "sweep_resume_probe: {} cells x {lines} lines -> {}",
        report.cells.len(),
        path.display()
    );
}
