//! Large-n scaling gates for the matrix-free flag-chain solver.
//!
//! These tests pin the headline capability of the matrix-free layer:
//! full-chain absorption solves at n = 16 and n = 20 (2²⁰+1 states)
//! that (a) agree with the exact lumped chain of Figure 3 and (b)
//! finish within a generous wall-clock budget on CI hardware. They are
//! ignored in debug builds (unoptimised bit-mask loops are an order of
//! magnitude slower); the CI perf-smoke job runs them with
//! `cargo test --release`.

use rbmarkov::matfree::FlagChainOp;
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams};
use rbmarkov::solver::SolverStrategy;
use std::time::{Duration, Instant};

/// Homogeneous parameters at ρ ≈ 1 (λ = 1/(n−1)): recovery lines form
/// readily, E\[X\] stays in a numerically comfortable range, and the
/// lumped chain provides an exact O(n)-state reference.
fn rho_one_params(n: usize) -> (AsyncParams, f64) {
    let lambda = 1.0 / (n as f64 - 1.0);
    (
        AsyncParams::symmetric(n, 1.0, lambda),
        mean_interval_symmetric(n, 1.0, lambda),
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate assumes release codegen")]
fn n16_matrix_free_solve_within_wall_clock_budget() {
    // The CI perf-smoke gate: a 2¹⁶+1-state absorption solve must
    // complete well under 30 s (it takes 0.02 s in release on a shared
    // 2-core host — the budget is generous to absorb slow shared
    // runners).
    let (params, lumped) = rho_one_params(16);
    let start = Instant::now();
    let op = FlagChainOp::new(&params);
    let (tau, outcome) = op.solve(&vec![1.0; op.n_transient()], false);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "n = 16 matrix-free solve took {elapsed:?} (budget 30 s)"
    );
    assert!(
        outcome.relative_residual <= 1e-8,
        "n = 16 solve did not converge: {outcome:?}"
    );
    assert!(
        (tau[0] - lumped).abs() < 1e-8 * lumped,
        "n = 16: matrix-free {} vs lumped {lumped}",
        tau[0]
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate assumes release codegen")]
fn n20_matrix_free_matches_lumped_in_seconds() {
    // The headline acceptance gate: the full 2²⁰+1-state chain, solved
    // without ever materialising its ~2·10⁸-entry generator, agrees
    // with the exact lumped chain within conformance tolerances and
    // completes in seconds (0.8 s in release on a shared 2-core host,
    // 1.2 s on one thread; 60 s budget).
    let (params, lumped) = rho_one_params(20);
    let start = Instant::now();
    let ex = params.mean_interval(); // auto-dispatches to matrix-free
    let elapsed = start.elapsed();
    assert_eq!(params.solver_strategy(), SolverStrategy::MatrixFree);
    assert!(
        elapsed < Duration::from_secs(60),
        "n = 20 matrix-free solve took {elapsed:?} (budget 60 s)"
    );
    assert!(
        (ex - lumped).abs() < 1e-6 * lumped,
        "n = 20: matrix-free {ex} vs lumped {lumped}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large-n solves assume release codegen")]
fn n18_visits_decompose_the_mean() {
    // The transposed (expected-visits) solve at 2¹⁸ states: occupancy
    // times must sum to the mean absorption time computed by the
    // forward solve — two different Krylov systems, one identity.
    let (params, lumped) = rho_one_params(18);
    let op = FlagChainOp::new(&params);
    let visits = op.expected_visits();
    let total: f64 = visits.iter().sum();
    assert!(
        (total - lumped).abs() < 1e-6 * lumped,
        "Σ visits {total} vs lumped E[X] {lumped}"
    );
    assert!(visits.iter().all(|&v| v >= -1e-12), "negative occupancy");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large-n solves assume release codegen")]
fn n14_cdf_and_density_match_the_materialised_chain() {
    // n = 14 is the largest size where the CSR chain is still cheap to
    // materialise, so the matrix-free uniformization (jump propagation
    // regenerated from the R1–R4 rules) can be pinned against the CSR
    // uniformization on 2¹⁴+1 states. Times stay small relative to
    // E[X] — uniformization cost grows with Λ·t.
    let (params, _) = rho_one_params(14);
    let chain = params.build_full_chain();
    let ts = [0.5, 2.0, 8.0];
    let want_density = chain.interval_density(&ts);
    let got_density = params.interval_density(&ts);
    let mut prev = 0.0;
    for (&t, (g, w)) in ts.iter().zip(got_density.iter().zip(&want_density)) {
        assert!((g - w).abs() < 1e-9, "f({t}): matrix-free {g} vs CSR {w}");
        let cdf_mf = params.interval_cdf(t);
        let cdf_csr = chain.ctmc.absorption_cdf(0, t);
        assert!(
            (cdf_mf - cdf_csr).abs() < 1e-9,
            "F({t}): matrix-free {cdf_mf} vs CSR {cdf_csr}"
        );
        assert!(cdf_mf >= prev - 1e-12, "CDF not monotone at t = {t}");
        prev = cdf_mf;
    }
}
