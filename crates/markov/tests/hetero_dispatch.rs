//! Heterogeneous-rate gates for the default solver dispatch.
//!
//! `AsyncParams::mean_interval()` answers through the matrix-free Krylov
//! solve at every n. Its preconditioner's coarse level is exact only for
//! homogeneous rates, so these gates pin skewed families on the default
//! path, n = 6…14:
//!
//! * the benchmark family μᵢ = 0.5 + 1.5·i/n (i = 0…n−1), with pair
//!   rates spread over (0.2…0.8)/(n−1);
//! * the same family shifted to i = 1…n;
//! * a stalled-process family: the benchmark family with μ₀ = 0.05.
//!
//! Each mean is checked against an independent backend — dense GTH for
//! n ≤ 10, CSR Gauss–Seidel for n = 11–13 — and every matrix-free solve
//! must converge in a bounded number of BiCGSTAB iterations. The
//! benchmark's own mean solves (perfbench `solve_mix`: symmetric ρ = 1 at
//! n = 6…16, the benchmark family at n = 6…13) must also converge in their
//! first round within tighter ceilings, so a weaker preconditioner fails
//! here and not only in the benchmark. Ignored in debug builds (the
//! Gauss–Seidel references take minutes unoptimised); the CI perf-smoke job
//! runs them with `cargo test --release`.

use rbmarkov::paper::AsyncParams;
use rbmarkov::solver::SolverStrategy;

/// Iteration budget for one matrix-free solve on any model here.
const MAX_ITERATIONS: usize = 30;

/// First-round iteration ceilings of the benchmark's mean solves: the
/// popcount aggregation is exact on symmetric rates, so one iteration
/// there; at most 16 on the benchmark family.
const SYMMETRIC_FIRST_ROUND: usize = 1;
const SKEWED_FIRST_ROUND: usize = 16;

/// Relative agreement of the default-path mean with its reference.
const MEAN_RTOL: f64 = 1e-9;

/// μᵢ = 0.5 + 1.5·(i + shift)/n; the k-th of the m = n(n−1)/2 pairs (in
/// upper-triangle order) has λ = (0.2 + 0.6·k/(m−1))/(n−1).
fn skewed(n: usize, shift: usize) -> AsyncParams {
    let mu = (0..n)
        .map(|i| 0.5 + 1.5 * (i + shift) as f64 / n as f64)
        .collect();
    let m = n * (n - 1) / 2;
    let lambda = (0..m)
        .map(|k| (0.2 + 0.6 * k as f64 / (m - 1) as f64) / (n - 1) as f64)
        .collect();
    AsyncParams::new(mu, lambda).unwrap()
}

/// The benchmark family with process 0 all but stalled.
fn stalled(n: usize) -> AsyncParams {
    let p = skewed(n, 0);
    let mut mu = p.mu().to_vec();
    mu[0] = 0.05;
    let lambda = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .map(|(i, j)| p.lambda(i, j))
        .collect();
    AsyncParams::new(mu, lambda).unwrap()
}

/// Every model of the three families, labelled.
fn models() -> Vec<(String, AsyncParams)> {
    let mut v = Vec::new();
    for n in 6..=14 {
        v.push((format!("skew/n{n}"), skewed(n, 0)));
        v.push((format!("skew1/n{n}"), skewed(n, 1)));
        v.push((format!("stalled/n{n}"), stalled(n)));
    }
    v
}

/// The independent backend a size is checked against, if any.
fn reference_backend(n: usize) -> Option<SolverStrategy> {
    match n {
        0..=10 => Some(SolverStrategy::Dense),
        11..=13 => Some(SolverStrategy::GaussSeidel),
        _ => None,
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Gauss–Seidel references assume release codegen"
)]
fn auto_mean_matches_an_independent_backend() {
    for (label, p) in models() {
        let Some(backend) = reference_backend(p.n()) else {
            continue;
        };
        let got = p.mean_interval();
        let want = p.mean_interval_with(backend);
        assert!(
            (got - want).abs() <= MEAN_RTOL * want,
            "{label}: auto ({}) {got} vs {backend} {want}",
            p.solver_strategy()
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large-n solves assume release codegen")]
fn matrix_free_solves_converge_in_few_iterations() {
    for (label, p) in models() {
        let op = p.matrix_free_op();
        let (tau, outcome) = op.solve(&vec![1.0; op.n_transient()], false);
        assert!(
            outcome.converged && outcome.iterations <= MAX_ITERATIONS,
            "{label}: {outcome:?} (budget {MAX_ITERATIONS} iterations)"
        );
        assert!(
            tau[0] > 0.0 && tau[0].is_finite(),
            "{label}: E[X] = {}",
            tau[0]
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large-n solves assume release codegen")]
fn benchmark_means_converge_in_their_first_round() {
    let symmetric = [6, 8, 10, 11, 12, 14, 16].map(|n| {
        let p = AsyncParams::symmetric(n, 1.0, 1.0 / (n - 1) as f64);
        (format!("sym/n{n}"), p, SYMMETRIC_FIRST_ROUND)
    });
    let skew = (6..=13).map(|n| (format!("skew/n{n}"), skewed(n, 0), SKEWED_FIRST_ROUND));
    for (label, p, ceiling) in symmetric.into_iter().chain(skew) {
        let op = p.matrix_free_op();
        let (_, outcome) = op.solve(&vec![1.0; op.n_transient()], false);
        assert!(
            outcome.converged && outcome.refinements == 0 && outcome.iterations <= ceiling,
            "{label}: {outcome:?} (first round within {ceiling} iterations)"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large-n solves assume release codegen")]
fn skewed_visits_sum_to_the_mean() {
    // The transposed system runs the mirrored smoother; occupancy times
    // from it must add up to the forward solve's mean.
    let op = skewed(12, 0).matrix_free_op();
    let e0: Vec<f64> = (0..op.n_transient())
        .map(|t| if t == 0 { 1.0 } else { 0.0 })
        .collect();
    let (visits, outcome) = op.solve(&e0, true);
    assert!(
        outcome.converged && outcome.iterations <= MAX_ITERATIONS,
        "transposed solve: {outcome:?}"
    );
    let total: f64 = visits.iter().sum();
    let mean = op.mean_absorption_time();
    assert!(
        (total - mean).abs() <= MEAN_RTOL * mean,
        "Σ visits {total} vs E[X] {mean}"
    );
    assert!(visits.iter().all(|&v| v >= -1e-12), "negative occupancy");
}
