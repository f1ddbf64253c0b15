//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench run --workload <solve_mix|paper_repro|serve_mix> --seed <n>
//!               --seconds <s> --trace <0|1> --bin-dir <dir>
//!               --work-dir <dir> --results-dir <dir>
//! perfbench reference        # regenerate data/skew_reference.json
//! perfbench first-solve      # child process of solve_mix's set-up measurement
//! ```
//!
//! `run` prints a human-readable report, then, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics untraced, the per-layer metrics traced. The
//! full report (with sample counts, failures and the build
//! environment) goes to `<results-dir>/<workload>-seed<n>-trace<t>.json`,
//! and a traced run also writes its spans next to it.
//! `perfbench/run.py` builds everything and calls `run`.

mod guard;
mod paper_repro;
mod report;
mod serve_mix;
mod solve_mix;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;

/// End-to-end metrics, as declared in `BENCHMARK.json`.
pub const E2E: [(&str, &str); 3] = [("setup_s", "s"), ("work_s", "s"), ("op_gmean_ms", "ms")];

/// Per-layer metrics, as declared in `BENCHMARK.json` (after them,
/// [`OVERHEAD`]).
pub const LAYERS: [(&str, &str); 38] = [
    ("markov.dense_s", "s"),
    ("markov.gs_s", "s"),
    ("markov.matfree_s", "s"),
    ("markov.chain_build_s", "s"),
    ("markov.matfree_iters", "count"),
    ("markov.matfree_resid_max", "ratio"),
    ("markov.cdf_batch_s", "s"),
    ("markov.quantile_s", "s"),
    ("markov.failed", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sweep.cell_busy_s", "s"),
    ("sweep.idle_frac", "ratio"),
    ("bin.fig7_sync_s", "s"),
    ("bin.fig8_prp_s", "s"),
    ("cache.open_s", "s"),
    ("cache.wal_frames", "count"),
    ("cache.wal_bytes", "bytes"),
    ("cache.lookup_hot_us", "us"),
    ("cache.lookup_warm_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hot_hits", "count"),
    ("cache.warm_hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.inserts", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("solves.deduped", "count"),
    ("serve.accept_ms", "ms"),
    ("serve.first_cell_ms", "ms"),
    ("serve.cell_gap_us", "us"),
    ("serve.solve_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.retries", "count"),
    ("serve.timed_out", "count"),
    ("serve.shed", "count"),
    ("client.late_p99_ms", "ms"),
];

/// Tracing overhead is reported beside the layers: traced `work_s`
/// over untraced `work_s`, minus one.
pub const OVERHEAD: (&str, &str) = ("trace.overhead_frac", "ratio");

pub const WORKLOADS: [&str; 3] = ["solve_mix", "paper_repro", "serve_mix"];

/// SplitMix64: the benchmark's only source of randomness, so every
/// input is a pure function of the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform on [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    results_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
        bin_dir: get("--bin-dir")?.into(),
        work_dir: get("--work-dir")?.into(),
        results_dir: get("--results-dir")?.into(),
    })
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn run_workload(name: &str, a: &Args, work: &Path, seconds: f64, census: bool) -> Outcome {
    match name {
        "solve_mix" => solve_mix::run(a.seed, seconds, work, census),
        "paper_repro" => paper_repro::run(a.seed, seconds, &a.bin_dir, work, census),
        _ => serve_mix::run(a.seed, seconds, &a.bin_dir, work, census),
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The `work_s` an untraced run of the same workload and seed saved.
fn saved_untraced_work_s(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc: serde::Value = serde_json::from_str(&text).ok()?;
    match doc.get("end_to_end")?.get("work_s")?.get("value")? {
        serde::Value::Num(x) => Some(*x),
        _ => None,
    }
}

fn result_path(a: &Args, trace: bool) -> PathBuf {
    a.results_dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload, a.seed, trace as u8
    ))
}

fn run(a: &Args) -> Result<Outcome, String> {
    fresh_dir(&a.work_dir)?;
    std::fs::create_dir_all(&a.results_dir)
        .map_err(|e| format!("create {}: {e}", a.results_dir.display()))?;
    if !a.trace {
        return Ok(run_workload(
            &a.workload,
            a,
            &a.work_dir.join("run"),
            a.seconds,
            false,
        ));
    }
    // Tracing overhead needs the untraced figure for this seed: reuse
    // the saved one, or measure it first.
    let base = match saved_untraced_work_s(&result_path(a, false)) {
        Some(w) => w,
        None => {
            let o = run_workload(
                &a.workload,
                a,
                &a.work_dir.join("untraced"),
                a.seconds,
                false,
            );
            o.e2e.get("work_s").map_or(f64::NAN, |v| v.value)
        }
    };
    trace::enable();
    let mut out = run_workload(&a.workload, a, &a.work_dir.join("run"), a.seconds, false);
    let traced = out.e2e.get("work_s").map_or(f64::NAN, |v| v.value);
    out.layers.insert(
        OVERHEAD.0.to_string(),
        (
            report::Value::new(traced / base - 1.0, OVERHEAD.1, 2),
            "workload",
        ),
    );
    // Layers this workload does not reach come from a census pass of
    // the workload that does.
    for owner in WORKLOADS {
        if owner != a.workload {
            let census = run_workload(
                owner,
                a,
                &a.work_dir.join(format!("census_{owner}")),
                3.0,
                true,
            );
            out.absorb_census(census);
        }
    }
    Ok(out)
}

fn finish(a: &Args, mut out: Outcome) -> String {
    // Every declared metric must have been measured; a gap is a bug in
    // the benchmark and fails the run.
    let mut metrics: Vec<(&str, report::Value)> = Vec::new();
    if a.trace {
        for (name, unit) in LAYERS.into_iter().chain([OVERHEAD]) {
            match out.layers.get(name) {
                Some((v, _)) if v.value.is_finite() => metrics.push((name, v.clone())),
                _ => {
                    out.fail(format!("metric/{name}"), "not measured");
                    metrics.push((name, report::Value::new(0.0, unit, 0)));
                }
            }
        }
    } else {
        for (name, unit) in E2E {
            match out.e2e.get(name) {
                Some(v) if v.value.is_finite() => metrics.push((name, v.clone())),
                _ => {
                    out.fail(format!("metric/{name}"), "not measured");
                    metrics.push((name, report::Value::new(0.0, unit, 0)));
                }
            }
        }
    }

    let failed = out.failed();
    let env =
        format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"git_commit\": {}, \"profile\": {}, \"tracing\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&command_output("rustc", &["--version"])),
        json_str(&command_output("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        a.trace
    );

    // Human-readable report.
    println!(
        "perfbench {} seed={} seconds={} trace={} {env}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    let line = |name: &str, v: &report::Value, extra: &str| {
        println!(
            "  {name:<26} {:>14.6} {:<6} ({} samples){extra}",
            v.value, v.unit, v.samples
        )
    };
    println!(" end-to-end:");
    for (name, v) in &out.e2e {
        line(name, v, "");
    }
    for (name, v) in &out.named {
        line(name, v, "");
    }
    let frac = failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<26} {:>14.6}        ({failed} of {} operations failed)",
        "fail_frac", frac, out.attempted
    );
    if a.trace {
        println!(" per-layer:");
        for (name, (v, source)) in &out.layers {
            line(name, v, &format!(" [{source}]"));
        }
    }
    for (op, cause) in &out.failures {
        println!("  FAILED {op}: {cause}");
    }

    // Result file.
    let obj = |items: Vec<String>| format!("{{{}}}", items.join(", "));
    let val = |v: &report::Value| {
        format!(
            "{{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
            json_num(v.value),
            json_str(v.unit),
            v.samples
        )
    };
    let doc = format!(
        "{{\n\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"env\": {env},\n\"attempted\": {}, \"failed\": {failed}, \"fail_frac\": {},\n\"failures\": [{}],\n\"end_to_end\": {},\n\"named\": {},\n\"per_layer\": {}\n}}\n",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        out.attempted,
        json_num(frac),
        out.failures
            .iter()
            .map(|(op, c)| format!("[{}, {}]", json_str(op), json_str(c)))
            .collect::<Vec<_>>()
            .join(", "),
        obj(out.e2e.iter().map(|(n, v)| format!("{}: {}", json_str(n), val(v))).collect()),
        obj(out.named.iter().map(|(n, v)| format!("{}: {}", json_str(n), val(v))).collect()),
        obj(out
            .layers
            .iter()
            .map(|(n, (v, s))| format!("{}: {{\"source\": {}, \"figure\": {}}}", json_str(n), json_str(s), val(v)))
            .collect()),
    );
    let path = result_path(a, a.trace);
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("perfbench: write {}: {e}", path.display());
    }
    if a.trace {
        let spans = a
            .results_dir
            .join(format!("{}-seed{}-spans.json", a.workload, a.seed));
        if let Err(e) = trace::write(&spans) {
            eprintln!("perfbench: write {}: {e}", spans.display());
        }
    }

    // The machine-readable last line.
    let ms = metrics
        .iter()
        .map(|(n, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(v.value),
                json_str(v.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{ms}}}}}",
        failed == 0,
        out.attempted.max(1)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(a) => match run(&a) {
                Ok(out) => {
                    let last = finish(&a, out);
                    println!("{last}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(1)
                }
            },
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        Some("first-solve") => {
            println!("{}", solve_mix::first_solve());
            ExitCode::SUCCESS
        }
        Some("reference") => {
            print!("{}", solve_mix::reference());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: perfbench <run|reference|first-solve> …");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Seq(items)) = doc.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => {
                        (n.clone(), u.clone())
                    }
                    _ => panic!("{key} entry lacks name/unit"),
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = LAYERS
            .into_iter()
            .chain([OVERHEAD])
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }
}
