//! `solve_mix`: analytic queries through the default `AsyncParams` API
//! on a fixed list of symmetric and skewed models.
//!
//! One pass asks `mean_interval()` of every model, a 64-point
//! `interval_cdf_batch` of every model with n ≤ 12 and
//! `interval_quantile(0.99)` of every model with n ≤ 8. The list
//! crosses every `SolverStrategy::auto` boundary on both rate families.
//! The seed fixes the query order and the CDF evaluation points; the
//! models themselves never change, so run-to-run spread is the
//! machine's, not the input's.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use rbmarkov::paper::{mean_interval_symmetric, AsyncParams, FlagChain};
use rbmarkov::SolverStrategy;

use crate::guard::{run_child, Worker};
use crate::report::{gmean, median, Outcome, Value};
use crate::{trace, Rng};

/// Cap on one query; the slowest (skewed n = 14, matrix-free, traced
/// runs only) takes 20–40 s on a 2-core host.
const OP_CAP: Duration = Duration::from_secs(90);

/// Relative agreement demanded of a mean against its reference.
const MEAN_RTOL: f64 = 1e-6;

/// The matrix-free mean accepts a true relative residual up to this
/// (the acceptance bound `FlagChainOp::mean_absorption_time` enforces).
const MATFREE_ACCEPT: f64 = 1e-8;

/// CDF points per batch query.
const CDF_POINTS: usize = 64;

/// The skewed-model reference table, generated by `perfbench reference`.
const SKEW_REFERENCE: &str = include_str!("../data/skew_reference.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Sym,
    Skew,
}

#[derive(Clone, Debug)]
pub struct Model {
    pub family: Family,
    pub n: usize,
    pub params: AsyncParams,
}

impl Model {
    pub fn name(&self) -> String {
        let f = match self.family {
            Family::Sym => "sym",
            Family::Skew => "skew",
        };
        format!("{f}/n{}", self.n)
    }
}

/// μ = 1, λ = 1/(n−1) on every pair.
pub fn symmetric(n: usize) -> Model {
    Model {
        family: Family::Sym,
        n,
        params: AsyncParams::symmetric(n, 1.0, 1.0 / (n - 1) as f64),
    }
}

/// μᵢ = 0.5 + 1.5·i/n (i = 0…n−1); the k-th of the m = n(n−1)/2 pairs
/// (upper-triangle order) has λ = (0.2 + 0.6·k/(m−1))/(n−1).
pub fn skewed(n: usize) -> Model {
    let mu = (0..n).map(|i| 0.5 + 1.5 * i as f64 / n as f64).collect();
    let m = n * (n - 1) / 2;
    let lambda = (0..m)
        .map(|k| (0.2 + 0.6 * k as f64 / (m - 1) as f64) / (n - 1) as f64)
        .collect();
    Model {
        family: Family::Skew,
        n,
        params: AsyncParams::new(mu, lambda).expect("skewed rates are valid by construction"),
    }
}

pub const SYM_NS: [usize; 7] = [6, 8, 10, 11, 12, 14, 16];
/// The timed skewed models. Skewed n = 14 (the only skewed model the
/// default path sends to matrix-free) is asked only in traced runs: one
/// solve of 20–40 s whose time swings by ±15 % between runs on a shared
/// 2-core host would set both the run length and the spread.
pub const SKEW_NS: [usize; 6] = [6, 8, 10, 11, 12, 13];
pub const TRACED_SKEW_N: usize = 14;

/// Fresh processes started for `setup_s`.
const SETUP_STARTS: usize = 5;

fn full_list() -> Vec<Model> {
    let mut v: Vec<Model> = SYM_NS.iter().map(|&n| symmetric(n)).collect();
    v.extend(SKEW_NS.iter().map(|&n| skewed(n)));
    v
}

/// The short list a census pass uses to fill the markov figures of
/// another workload's traced run: still one model per backend.
fn census_list() -> Vec<Model> {
    let mut v: Vec<Model> = [6, 10, 11, 14].iter().map(|&n| symmetric(n)).collect();
    v.extend([6, 10, 11].iter().map(|&n| skewed(n)));
    v
}

/// The reference mean of a skewed model, if the table kept one.
pub fn skew_reference(n: usize) -> Option<f64> {
    let doc: serde::Value =
        serde_json::from_str(SKEW_REFERENCE).expect("skew reference table is valid JSON");
    let serde::Value::Seq(rows) = doc.get("models")? else {
        return None;
    };
    rows.iter()
        .find_map(|row| match (row.get("n"), row.get("mean")) {
            (Some(serde::Value::Num(rn)), Some(serde::Value::Num(mean))) if *rn as usize == n => {
                Some(*mean)
            }
            _ => None,
        })
}

/// The value a mean is checked against.
fn expected_mean(m: &Model) -> Option<f64> {
    match m.family {
        Family::Sym => Some(mean_interval_symmetric(m.n, 1.0, 1.0 / (m.n - 1) as f64)),
        Family::Skew => skew_reference(m.n),
    }
}

#[derive(Clone, Debug)]
enum Query {
    Mean,
    Cdf(Vec<f64>),
    Quantile(f64),
}

#[derive(Clone, Debug)]
struct Op {
    model: usize,
    query: Query,
}

impl Query {
    fn kind(&self) -> &'static str {
        match self {
            Query::Mean => "mean",
            Query::Cdf(_) => "cdf_batch",
            Query::Quantile(_) => "quantile",
        }
    }
}

/// One pass's queries in seeded order. CDF points are seeded uniform
/// draws on (0, 6·E[X]) plus 6·E[X] itself, so every batch runs the
/// uniformization out to the same horizon whatever the seed.
fn plan(models: &[Model], rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, m) in models.iter().enumerate() {
        ops.push(Op {
            model: i,
            query: Query::Mean,
        });
        if m.n <= 12 {
            let horizon = 6.0 * expected_mean(m).unwrap_or(1.0);
            let mut ts: Vec<f64> = (1..CDF_POINTS)
                .map(|_| horizon * rng.next_f64().max(1e-6))
                .collect();
            ts.push(horizon);
            ts.sort_by(f64::total_cmp);
            ops.push(Op {
                model: i,
                query: Query::Cdf(ts),
            });
        }
        if m.n <= 8 {
            ops.push(Op {
                model: i,
                query: Query::Quantile(0.99),
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

enum Answer {
    Mean(f64),
    Cdf(Vec<f64>),
    Quantile(f64),
}

fn backend_span(s: SolverStrategy) -> &'static str {
    match s {
        SolverStrategy::Dense => "markov.dense",
        SolverStrategy::GaussSeidel => "markov.gs",
        SolverStrategy::MatrixFree => "markov.matfree",
    }
}

/// The mean through the default path, split (when traced) into its
/// public halves so the chain build and the Krylov outcome show.
fn mean(p: &AsyncParams, traced: bool, req: u64) -> f64 {
    let s = p.solver_strategy();
    if !traced {
        return p.mean_interval();
    }
    trace::span(backend_span(s), 0, req, |id| match s {
        SolverStrategy::MatrixFree => {
            let op = p.matrix_free_op();
            let (x, outcome) = op.solve(&vec![1.0; op.n_transient()], false);
            trace::add("markov.matfree_iters", outcome.iterations as f64);
            trace::max("markov.matfree_resid_max", outcome.relative_residual);
            assert!(
                outcome.relative_residual <= MATFREE_ACCEPT,
                "matrix-free solve did not converge: residual {} after {} iterations",
                outcome.relative_residual,
                outcome.iterations
            );
            x[0]
        }
        s => {
            let chain = trace::span("markov.chain_build", id, req, |_| p.build_full_chain());
            chain.ctmc.mean_absorption_time_with(FlagChain::START, s)
        }
    })
}

fn execute(p: &AsyncParams, q: &Query, traced: bool, req: u64) -> Answer {
    match q {
        Query::Mean => Answer::Mean(mean(p, traced, req)),
        Query::Cdf(ts) => Answer::Cdf(trace::span("markov.cdf_batch", 0, req, |_| {
            p.interval_cdf_batch(ts)
        })),
        Query::Quantile(level) => Answer::Quantile(trace::span("markov.quantile", 0, req, |_| {
            p.interval_quantile(*level)
        })),
    }
}

fn check(m: &Model, q: &Query, a: &Answer) -> Result<(), String> {
    let rel = |x: f64, y: f64| (x - y).abs() / y.abs();
    match (q, a) {
        (Query::Mean, Answer::Mean(x)) => match expected_mean(m) {
            Some(want) if rel(*x, want) <= MEAN_RTOL => Ok(()),
            Some(want) => Err(format!("E[X] = {x}, reference {want}")),
            None if x.is_finite() && *x > 0.0 => Ok(()),
            None => Err(format!("E[X] = {x} is not a positive number")),
        },
        (Query::Cdf(ts), Answer::Cdf(fs)) => {
            if fs.len() != ts.len() {
                return Err(format!("{} CDF values for {} points", fs.len(), ts.len()));
            }
            if let Some(bad) = fs.iter().find(|f| !(-1e-9..=1.0 + 1e-9).contains(*f)) {
                return Err(format!("CDF value {bad} outside [0, 1]"));
            }
            if fs.windows(2).any(|w| w[1] < w[0] - 1e-9) {
                return Err("CDF decreases in t".into());
            }
            let last = fs[fs.len() - 1];
            if last.is_nan() || last <= 0.5 {
                return Err(format!("F(6·E[X]) = {last}, expected above 0.5"));
            }
            Ok(())
        }
        (Query::Quantile(_), Answer::Quantile(x)) => {
            let ex = expected_mean(m).unwrap_or(f64::NAN);
            if x.is_finite() && *x > ex && *x < 50.0 * ex {
                Ok(())
            } else {
                Err(format!(
                    "0.99-quantile {x} outside (E[X], 50·E[X]) for E[X] = {ex}"
                ))
            }
        }
        _ => Err("answer does not match the query".into()),
    }
}

/// Set-up: a fresh process that builds the model list and answers the
/// mean of every model on the dense path (n ≤ 10) — what a program
/// linking `rbmarkov` pays before its first answers. Median of several
/// starts.
fn measure_setup(out: &mut Outcome, work: &Path) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut walls = Vec::new();
    for i in 0..SETUP_STARTS {
        let log = work.join(format!("first_solve_{i}.log"));
        match run_child(
            Command::new(&exe).arg("first-solve"),
            Duration::from_secs(60),
            &log,
        ) {
            Ok(run) if run.status.success() => walls.push(run.wall.as_secs_f64()),
            Ok(run) => out.fail("setup/first-solve", format!("exit {}", run.status)),
            Err(e) => out.fail("setup/first-solve", e),
        }
    }
    median(&walls)
}

/// Child-process body for the set-up measurement: the summed means of
/// the dense-path models.
pub fn first_solve() -> f64 {
    full_list()
        .iter()
        .filter(|m| m.n <= 10)
        .map(|m| m.params.mean_interval())
        .sum()
}

/// Asks one query under the time cap and checks the answer; returns
/// its time when it completed (a failed check still has a time).
fn ask(
    out: &mut Outcome,
    worker: &mut Worker,
    m: &Model,
    query: &Query,
    traced: bool,
) -> Option<f64> {
    let label = format!("{}/{}", m.name(), query.kind());
    out.attempted += 1;
    let req = trace::next_req();
    let (q, p) = (query.clone(), m.params.clone());
    match worker.run(OP_CAP, move || execute(&p, &q, traced, req)) {
        Ok((answer, took)) => {
            if let Err(cause) = check(m, query, &answer) {
                trace::add("markov.failed", 1.0);
                out.fail(label, cause);
            }
            Some(took.as_secs_f64())
        }
        Err(cause) => {
            trace::add("markov.failed", 1.0);
            out.fail(label, cause);
            None
        }
    }
}

const LAYER_SPANS: [(&str, &str); 6] = [
    ("markov.dense_s", "markov.dense"),
    ("markov.gs_s", "markov.gs"),
    ("markov.matfree_s", "markov.matfree"),
    ("markov.chain_build_s", "markov.chain_build"),
    ("markov.cdf_batch_s", "markov.cdf_batch"),
    ("markov.quantile_s", "markov.quantile"),
];

/// Runs the workload (or, with `census`, one short pass of it).
pub fn run(seed: u64, seconds: f64, work: &Path, census: bool) -> Outcome {
    let traced = trace::enabled();
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(work) {
        out.fail("setup/work-dir", e.to_string());
        return out;
    }
    let setup_s = if census {
        0.0
    } else {
        measure_setup(&mut out, work)
    };

    let mut worker = Worker::new();
    // The traced run also asks the mean of skewed n = 14 once, before
    // the passes; its spans count toward the per-pass layer figures.
    let mut extra: Vec<f64> = vec![0.0; LAYER_SPANS.len() + 1];
    if traced && !census {
        let m = skewed(TRACED_SKEW_N);
        if let Some(t) = ask(&mut out, &mut worker, &m, &Query::Mean, true) {
            out.named("skew14_mean_s", Value::new(t, "s", 1));
        }
        for (i, (_, span)) in LAYER_SPANS.iter().enumerate() {
            extra[i] = trace::total_s(span);
        }
        extra[LAYER_SPANS.len()] = trace::counter("markov.matfree_iters").unwrap_or(0.0);
    }

    let models = if census { census_list() } else { full_list() };
    let mut rng = Rng::new(seed ^ 0x5017_e313);
    let (mut sym, mut skew, mut dist, mut work_s) = (vec![], vec![], vec![], vec![]);
    let mut op_ms = Vec::new();
    let started = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || (!census && started.elapsed().as_secs_f64() < seconds) {
        let (mut s_sym, mut s_skew, mut s_dist) = (0.0, 0.0, 0.0);
        for op in plan(&models, &mut rng) {
            let m = &models[op.model];
            let Some(t) = ask(&mut out, &mut worker, m, &op.query, traced) else {
                continue;
            };
            op_ms.push(t * 1e3);
            match (&op.query, m.family) {
                (Query::Mean, Family::Sym) => s_sym += t,
                (Query::Mean, Family::Skew) => s_skew += t,
                _ => s_dist += t,
            }
        }
        sym.push(s_sym);
        skew.push(s_skew);
        dist.push(s_dist);
        work_s.push(s_sym + s_skew + s_dist);
        passes += 1;
    }

    out.e2e
        .insert("setup_s", Value::new(setup_s, "s", SETUP_STARTS));
    out.e2e
        .insert("work_s", Value::new(median(&work_s), "s", passes));
    out.e2e
        .insert("op_gmean_ms", Value::new(gmean(&op_ms), "ms", op_ms.len()));
    out.named("solve_sym_s", Value::new(median(&sym), "s", passes));
    out.named("solve_skew_s", Value::new(median(&skew), "s", passes));
    out.named("dist_s", Value::new(median(&dist), "s", passes));

    if traced {
        let per_pass = |total: f64, extra: f64| (total - extra) / passes as f64 + extra;
        for (i, (layer, span)) in LAYER_SPANS.iter().enumerate() {
            let v = per_pass(trace::total_s(span), extra[i]);
            out.layer(layer, Value::new(v, "s", passes));
        }
        let count = |name: &str| trace::counter(name).unwrap_or(0.0);
        let iters = per_pass(count("markov.matfree_iters"), extra[LAYER_SPANS.len()]);
        out.layer("markov.matfree_iters", Value::new(iters, "count", passes));
        out.layer(
            "markov.matfree_resid_max",
            Value::new(count("markov.matfree_resid_max"), "ratio", passes),
        );
        out.layer(
            "markov.failed",
            Value::new(count("markov.failed"), "count", out.attempted as usize),
        );
    }
    out
}

/// Backends whose means the reference keeps for skewed model `n`: the
/// first is the default path's, the second an independent check.
fn reference_backends(n: usize) -> [SolverStrategy; 2] {
    match n {
        0..=12 => [SolverStrategy::Dense, SolverStrategy::GaussSeidel],
        13 => [SolverStrategy::GaussSeidel, SolverStrategy::MatrixFree],
        _ => [SolverStrategy::MatrixFree, SolverStrategy::GaussSeidel],
    }
}

/// Regenerates the skewed-model reference table: for every skewed
/// model, the mean from two backends, kept only when they agree to
/// 1e-8 relative. Prints the JSON document.
pub fn reference() -> String {
    let mut rows = Vec::new();
    for n in SKEW_NS.into_iter().chain([TRACED_SKEW_N]) {
        let m = skewed(n);
        let [a, b] = reference_backends(n);
        let solve = |s: SolverStrategy| {
            let p = m.params.clone();
            let t = Instant::now();
            let v = std::panic::catch_unwind(move || p.mean_interval_with(s));
            eprintln!(
                "skew n={n} {s}: {:?} in {:.1?}",
                v.as_ref().ok(),
                t.elapsed()
            );
            v.ok()
        };
        let (va, vb) = (solve(a), solve(b));
        match (va, vb) {
            (Some(x), Some(y)) if (x - y).abs() <= 1e-8 * y.abs() => rows.push(format!(
                "    {{\"n\": {n}, \"mean\": {x:?}, \"backends\": [\"{a}\", \"{b}\"], \"rel_diff\": {:e}}}",
                (x - y).abs() / y.abs()
            )),
            _ => eprintln!("skew n={n}: no two backends agree to 1e-8; not kept"),
        }
    }
    format!(
        "{{\n  \"family\": \"mu_i = 0.5 + 1.5*i/n (i = 0..n-1); lambda_k = (0.2 + 0.6*k/(m-1))/(n-1) (k = 0..m-1, upper-triangle pair order)\",\n  \"agreement\": 1e-8,\n  \"models\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}
