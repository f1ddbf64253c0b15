//! `paper_repro`: every figure/table binary at its default arguments,
//! with `--threads 2` and a fresh `--out`, the way a user regenerates
//! the paper's artifacts. The seed fixes the order the binaries run in.
//!
//! The traced run adds an in-process replay of the fig5, fig2 and fig3
//! sweeps through `SweepSpec`, each cell wrapped to time it, for the
//! simulation and sweep-dispatch figures the binaries cannot report
//! from outside.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use rbbench::sweep::{Metric, SweepCell, SweepSpec, Workload};
use rbbench::workloads::{AsyncIntervals, MatrixFreeLumpability};
use rbmarkov::paper::AsyncParams;

use crate::guard::run_child;
use crate::report::{gmean, median, Outcome, Value};
use crate::{trace, Rng};

/// Every figure/table binary except the CI-only `sweep_resume_probe`.
pub const BINS: [&str; 16] = [
    "table1",
    "fig1_history",
    "fig2_markov",
    "fig3_markov",
    "fig4_split",
    "fig5_meanx",
    "fig6_density",
    "fig7_sync",
    "fig8_prp",
    "fig_tails",
    "sec3_loss",
    "sec4_overhead",
    "optimal_period",
    "tradeoff",
    "conversation_compare",
    "russell_directed",
];

/// The binaries a census pass runs: the only thread-runtime coverage.
const CENSUS_BINS: [&str; 2] = ["fig7_sync", "fig8_prp"];

/// Cap on one binary; the slowest (fig5_meanx) takes about 7 s.
const BIN_CAP: Duration = Duration::from_secs(90);

const THREADS: usize = 2;

/// A binary that finishes within `QUICK` is run `QUICK_RUNS` times in
/// a row and counts once, with the median time: a few-millisecond
/// process is otherwise mostly exec and page-fault noise.
const QUICK: Duration = Duration::from_millis(250);
const QUICK_RUNS: usize = 3;

/// Rounds of `--help` starts measured for `setup_s` (after one
/// warm-up round).
const SETUP_ROUNDS: usize = 10;

/// Runs one binary and checks it: exit 0, and every artifact it
/// announces (`[artifact] <path>`) exists and parses as JSON.
fn run_bin(bin_dir: &Path, name: &str, dir: &Path) -> Result<Duration, String> {
    let out = dir.join(name);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let log = dir.join(format!("{name}.log"));
    let run = run_child(
        Command::new(bin_dir.join(name))
            .args(["--threads", &THREADS.to_string(), "--out"])
            .arg(&out)
            .env("RB_RESULTS_DIR", &out),
        BIN_CAP,
        &log,
    )?;
    if !run.status.success() {
        return Err(format!("exit {}", run.status));
    }
    let text = std::fs::read_to_string(&log).map_err(|e| format!("read log: {e}"))?;
    let artifacts: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_once("[artifact] ").map(|(_, p)| p.trim()))
        .collect();
    if artifacts.is_empty() {
        return Err("no [artifact] line".into());
    }
    for path in artifacts {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str::<serde::Value>(&json).map_err(|e| format!("{path}: {e:?}"))?;
    }
    Ok(run.wall)
}

/// Set-up: start every binary with `--help` (process start and
/// argument parsing, paid once per binary by every run). Median over
/// rounds of the summed start-up time.
fn measure_setup(out: &mut Outcome, bin_dir: &Path, work: &Path) -> f64 {
    let mut rounds = Vec::new();
    for round in 0..=SETUP_ROUNDS {
        let mut total = 0.0;
        for name in BINS {
            let log = work.join(format!("help_{name}.log"));
            match run_child(
                Command::new(bin_dir.join(name)).arg("--help"),
                Duration::from_secs(30),
                &log,
            ) {
                Ok(run) if run.status.success() => total += run.wall.as_secs_f64(),
                Ok(run) => out.fail(format!("setup/{name}"), format!("exit {}", run.status)),
                Err(e) => out.fail(format!("setup/{name}"), e),
            }
        }
        if round > 0 {
            rounds.push(total);
        }
    }
    median(&rounds)
}

/// Times one sweep cell and counts the simulation events it reports.
struct Timed<W> {
    inner: W,
    parent: u64,
}

impl<W: Workload> Workload for Timed<W> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn cache_params(&self) -> Option<String> {
        self.inner.cache_params()
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let start = Instant::now();
        let metrics = self.inner.run(seed);
        let end = Instant::now();
        trace::record("sweep.cell", self.parent, 0, start, end);
        if let Some(events) = metrics.iter().find(|m| m.name() == "events") {
            trace::add("sim.events", events.value());
            trace::add("sim.busy_s", (end - start).as_secs_f64());
        }
        metrics
    }
}

/// The fig5, fig2 and fig3 sweeps, rebuilt from public workloads
/// (`full = false` shrinks them for a census pass).
fn replay_specs(full: bool, parent: u64) -> Vec<SweepSpec> {
    let lines = if full { 30_000 } else { 3_000 };
    let mut fig5 = Vec::new();
    for rho in [1.0, 2.0, 4.0] {
        for n in 2..=6usize {
            let params = AsyncParams::symmetric(n, 1.0, rho / (n - 1) as f64);
            fig5.push(SweepCell::named(
                format!("rho{rho}/n{n}"),
                Timed {
                    inner: AsyncIntervals::new(params, lines),
                    parent,
                },
            ));
        }
    }
    let lump = |ns: &[usize]| -> Vec<SweepCell> {
        ns.iter()
            .map(|&n| {
                SweepCell::named(
                    format!("matfree/n{n}"),
                    Timed {
                        inner: MatrixFreeLumpability { n },
                        parent,
                    },
                )
            })
            .collect()
    };
    let (fig2, fig3): (&[usize], &[usize]) = if full {
        (&[8, 12, 16, 20], &[14, 16, 18, 20])
    } else {
        (&[8, 12], &[14])
    };
    vec![
        SweepSpec::new("fig5_meanx_sweep", 7_000, fig5),
        SweepSpec::new("fig2_markov_sweep", 2, lump(fig2)),
        SweepSpec::new("fig3_markov_sweep", 3, lump(fig3)),
    ]
}

/// The traced replay: per-cell busy time, dispatch idle fraction and
/// simulation event throughput.
fn replay(out: &mut Outcome, full: bool) {
    let started = Instant::now();
    let reports = trace::span("sweep.replay", 0, trace::next_req(), |id| {
        replay_specs(full, id)
            .iter()
            .map(|spec| spec.run(THREADS))
            .collect::<Vec<_>>()
    });
    let wall = started.elapsed().as_secs_f64();
    for report in reports {
        out.attempted += 1;
        let failures = report.failures();
        if let Some((cell, metric)) = failures.first() {
            out.fail(
                format!("replay/{}", report.sweep),
                format!(
                    "{} failed checks, first {cell}/{}",
                    failures.len(),
                    metric.name()
                ),
            );
        }
    }
    let cells = trace::durations("sweep.cell");
    let busy: f64 = cells.iter().sum();
    let events = trace::counter("sim.events").unwrap_or(0.0);
    let sim_busy = trace::counter("sim.busy_s").unwrap_or(f64::NAN);
    out.layer("sim.events", Value::new(events, "count", cells.len()));
    out.layer(
        "sim.events_per_s",
        Value::new(events / sim_busy, "1/s", cells.len()),
    );
    out.layer("sweep.cell_busy_s", Value::new(busy, "s", cells.len()));
    out.layer(
        "sweep.idle_frac",
        Value::new(1.0 - busy / (wall * THREADS as f64), "ratio", 1),
    );
}

/// Runs the workload (or, with `census`, the replay and the runtime
/// binaries once at reduced size).
pub fn run(seed: u64, seconds: f64, bin_dir: &Path, work: &Path, census: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(work) {
        out.fail("setup/work-dir", e.to_string());
        return out;
    }
    let setup_s = if census {
        0.0
    } else {
        measure_setup(&mut out, bin_dir, work)
    };
    let bins: &[&str] = if census { &CENSUS_BINS } else { &BINS };
    let mut rng = Rng::new(seed ^ 0x4e9_0b1e);
    let mut per_bin: Vec<Vec<f64>> = vec![Vec::new(); bins.len()];
    let (mut passes, mut op_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while passes.is_empty() || (!census && started.elapsed().as_secs_f64() < seconds) {
        let dir = work.join(format!("pass{}", passes.len()));
        let mut order: Vec<usize> = (0..bins.len()).collect();
        rng.shuffle(&mut order);
        let mut total = 0.0;
        for i in order {
            let name = bins[i];
            out.attempted += 1;
            let req = trace::next_req();
            let res = trace::span(&format!("bin.{name}"), 0, req, |_| {
                let first = run_bin(bin_dir, name, &dir)?;
                if first > QUICK {
                    return Ok(first.as_secs_f64());
                }
                let mut walls = vec![first.as_secs_f64()];
                for _ in 1..QUICK_RUNS {
                    walls.push(run_bin(bin_dir, name, &dir)?.as_secs_f64());
                }
                Ok::<f64, String>(median(&walls))
            });
            match res {
                Ok(s) => {
                    total += s;
                    op_ms.push(s * 1e3);
                    per_bin[i].push(s);
                }
                Err(cause) => out.fail(format!("bin/{name}"), cause),
            }
        }
        passes.push(total);
        // Artifacts are checked; keep the disk footprint flat.
        let _ = std::fs::remove_dir_all(&dir);
    }

    out.e2e
        .insert("setup_s", Value::new(setup_s, "s", SETUP_ROUNDS));
    out.e2e
        .insert("work_s", Value::new(median(&passes), "s", passes.len()));
    out.e2e
        .insert("op_gmean_ms", Value::new(gmean(&op_ms), "ms", op_ms.len()));
    out.named("repro_s", Value::new(median(&passes), "s", passes.len()));
    for (name, walls) in bins.iter().zip(&per_bin) {
        out.named(
            &format!("bin.{name}_s"),
            Value::new(median(walls), "s", walls.len()),
        );
    }

    if trace::enabled() {
        for (name, walls) in bins.iter().zip(&per_bin) {
            if CENSUS_BINS.contains(name) {
                out.layer(
                    &format!("bin.{name}_s"),
                    Value::new(median(walls), "s", walls.len()),
                );
            }
        }
        replay(&mut out, !census);
    }
    out
}
