//! Property tests for the Markov machinery: linear algebra, CTMC
//! probability laws, and the paper-chain structure over random
//! parameters.

use proptest::prelude::*;
use rbmarkov::ctmc::Ctmc;
use rbmarkov::matfree::FlagChainOp;
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams, FlagChain, SplitChain};
use rbmarkov::solver::SolverStrategy;

/// Random heterogeneous parameters for `n` processes: strictly positive
/// μ and non-negative λ. The λ range keeps ρ below the domino regime —
/// there E\[X\] (and with it the condition number of −Q_TT) grows
/// exponentially, and LU and Gauss–Seidel lose digits to κ·ε, so
/// agreement assertions at 1e-9 would test their conditioning, not
/// correctness. `domino.rs` covers that regime against GTH.
fn arb_params(n: usize) -> impl Strategy<Value = AsyncParams> {
    (
        prop::collection::vec(0.2f64..3.0, n),
        prop::collection::vec(0.0f64..0.8, n * (n - 1) / 2),
    )
        .prop_map(|(mu, lam)| AsyncParams::new(mu, lam).unwrap())
}

/// [`arb_params`] over n ∈ 4..=6, with about a quarter of the pairs idle
/// (λ = 0), so the operator's pair list has gaps.
fn arb_params_with_idle_pairs() -> impl Strategy<Value = AsyncParams> {
    (
        4usize..7,
        prop::collection::vec(0.2f64..3.0, 6),
        prop::collection::vec(0.0f64..0.8, 15),
        prop::collection::vec(0u32..4, 15),
    )
        .prop_map(|(n, mu, lam, idle)| {
            let lam = lam
                .iter()
                .zip(&idle)
                .take(n * (n - 1) / 2)
                .map(|(&l, &z)| if z == 0 { 0.0 } else { l })
                .collect();
            AsyncParams::new(mu[..n].to_vec(), lam).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_absorbing_chains_absorb(
        rates in prop::collection::vec(0.01f64..10.0, 6),
        t in 0.1f64..20.0,
    ) {
        // A ring 0→1→…→4 with one absorbing tail state 5 reachable
        // from state 2: eventually absorbed.
        let c = Ctmc::from_transitions(6, &[
            (0, 1, rates[0]), (1, 2, rates[1]), (2, 3, rates[2]),
            (3, 4, rates[3]), (4, 0, rates[4]), (2, 5, rates[5]),
        ]);
        // Mean absorption finite and positive.
        let m = c.mean_absorption_time(0);
        prop_assert!(m > 0.0 && m.is_finite());
        // CDF is monotone.
        prop_assert!(c.absorption_cdf(0, t) <= c.absorption_cdf(0, t * 2.0) + 1e-9);
    }

    #[test]
    fn variance_nonnegative_and_moment_consistent(
        rates in prop::collection::vec(0.05f64..5.0, 4),
    ) {
        let c = Ctmc::from_transitions(4, &[
            (0, 1, rates[0]), (1, 0, rates[1]), (1, 2, rates[2]), (2, 3, rates[3]),
        ]);
        let m1 = c.mean_absorption_time(0);
        let m2 = c.absorption_time_second_moment(0);
        prop_assert!(m2 >= m1 * m1 - 1e-9, "E[T²] ≥ E[T]²");
        prop_assert!((c.absorption_time_variance(0) - (m2 - m1 * m1)).abs() < 1e-9);
    }

    #[test]
    fn lumpability_holds_for_random_symmetric_params(
        n in 2usize..6,
        mu in 0.1f64..4.0,
        lambda in 0.0f64..4.0,
    ) {
        let full = AsyncParams::symmetric(n, mu, lambda).mean_interval();
        let lumped = mean_interval_symmetric(n, mu, lambda.max(1e-12));
        prop_assert!(
            (full - lumped).abs() < 1e-7 * full.max(1.0),
            "n={n} μ={mu} λ={lambda}: {full} vs {lumped}"
        );
    }

    #[test]
    fn poisson_thinning_identity_over_random_params(
        mu in prop::collection::vec(0.2f64..3.0, 3),
        lam in prop::collection::vec(0.0f64..3.0, 3),
    ) {
        let p = AsyncParams::new(mu.clone(), lam).unwrap();
        let ex = p.mean_interval();
        for (i, &mu_i) in mu.iter().enumerate() {
            let via_yd = p.mean_rp_count_yd(i, true);
            prop_assert!(
                (via_yd - mu_i * ex).abs() < 1e-6 * (mu_i * ex).max(1.0),
                "P{i}: Y_d {via_yd} vs μE[X] {}", mu_i * ex
            );
        }
    }

    #[test]
    fn split_chain_rows_remain_stochastic(
        mu in prop::collection::vec(0.2f64..3.0, 3),
        lam in prop::collection::vec(0.01f64..3.0, 3),
        tagged in 0usize..3,
    ) {
        let p = AsyncParams::new(mu, lam).unwrap();
        let sc = SplitChain::build(&p, tagged);
        for (r, s) in sc.dtmc.matrix().row_sums().iter().enumerate() {
            prop_assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn density_nonnegative_and_mass_bounded(
        mu in 0.2f64..2.0,
        lambda in 0.0f64..2.0,
        t in 0.0f64..10.0,
    ) {
        let p = AsyncParams::symmetric(3, mu, lambda);
        let f = p.interval_density(&[t]);
        prop_assert!(f[0] >= -1e-10, "f({t}) = {}", f[0]);
        let cdf = p.interval_cdf(t);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&cdf));
    }

    #[test]
    fn mean_interval_monotone_in_lambda(
        mu in 0.3f64..2.0,
        l1 in 0.0f64..2.0,
        dl in 0.01f64..2.0,
    ) {
        let low = AsyncParams::symmetric(3, mu, l1).mean_interval();
        let high = AsyncParams::symmetric(3, mu, l1 + dl).mean_interval();
        prop_assert!(high >= low - 1e-9, "λ↑ must not shorten E[X]: {low} → {high}");
    }

    // ---- matrix-free ↔ dense ↔ Gauss–Seidel conformance -------------

    #[test]
    fn matrix_free_mean_matches_dense_and_gs(p in arb_params(5)) {
        // Three backends, one model: the matrix-free Krylov solve must
        // reproduce the dense GTH and CSR Gauss–Seidel answers to 1e-9
        // relative error (the PR's acceptance tolerance for n ≤ 10).
        let dense = p.mean_interval_with(SolverStrategy::Dense);
        let gs = p.mean_interval_with(SolverStrategy::GaussSeidel);
        let mf = p.mean_interval_with(SolverStrategy::MatrixFree);
        prop_assert!((gs - dense).abs() <= 1e-9 * dense, "GS {gs} vs dense {dense}");
        prop_assert!((mf - dense).abs() <= 1e-9 * dense, "matrix-free {mf} vs dense {dense}");
    }

    #[test]
    fn matrix_free_visits_sum_to_the_mean(p in arb_params(4)) {
        // The transposed solve: per-state occupancy times must sum to
        // the mean absorption time from the forward solve, and every
        // occupancy must be non-negative.
        let op = FlagChainOp::new(&p);
        let visits = op.expected_visits();
        let total: f64 = visits.iter().sum();
        let mean = p.mean_interval_with(SolverStrategy::Dense);
        prop_assert!(
            (total - mean).abs() <= 1e-9 * mean.max(1.0),
            "Σ visits {total} vs E[X] {mean}"
        );
        prop_assert!(visits.iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn matrix_free_cdf_matches_dense_at_sampled_times(
        p in arb_params(4),
        t in 0.05f64..6.0,
    ) {
        let chain = p.build_full_chain();
        let want = chain.ctmc.absorption_cdf(0, t);
        let got = p.interval_cdf(t);
        prop_assert!((got - want).abs() < 1e-9, "F({t}): {got} vs {want}");
        let fd = p.interval_density(&[t]);
        let fw = chain.interval_density(&[t]);
        prop_assert!((fd[0] - fw[0]).abs() < 1e-9, "f({t}): {} vs {}", fd[0], fw[0]);
    }

    #[test]
    fn matrix_free_cdf_batch_matches_dense_and_is_a_cdf(
        p in arb_params_with_idle_pairs(),
        fracs in prop::collection::vec(0.0f64..6.0, 1..24),
    ) {
        // The batch uniformizes at the largest mask exit rate, below
        // S_r's, so S_r's stay factor is negative. The CDF it returns
        // must still be the dense one, lie in [0, 1] and never decrease,
        // from t ≪ 1/Λ up to six means.
        let mean = p.mean_interval_with(SolverStrategy::Dense);
        let mut ts: Vec<f64> = fracs.iter().map(|f| f * mean).collect();
        ts.extend([1e-9, 1e-6]);
        ts.sort_by(f64::total_cmp);
        let want = p.build_full_chain().ctmc.absorption_cdf_batch(FlagChain::START, &ts);
        let got = p.interval_cdf_batch(&ts);
        for ((t, g), w) in ts.iter().zip(&got).zip(&want) {
            prop_assert!((g - w).abs() < 1e-10, "F({t}): {g} vs dense {w}");
            prop_assert!((0.0..=1.0).contains(g), "F({t}) = {g}");
        }
        for (k, f) in got.windows(2).enumerate() {
            prop_assert!(f[1] >= f[0], "F({}) = {} < F({}) = {}", ts[k + 1], f[1], ts[k], f[0]);
        }
    }

    #[test]
    fn matrix_free_second_moment_matches_dense(p in arb_params(4)) {
        let dense = p.build_full_chain().ctmc.absorption_time_second_moment(0);
        let mf = FlagChainOp::new(&p).absorption_time_second_moment();
        prop_assert!(
            (mf - dense).abs() <= 1e-8 * dense.max(1.0),
            "matrix-free E[X²] {mf} vs dense {dense}"
        );
    }

    // ---- interval quantiles ------------------------------------------

    #[test]
    fn quantile_round_trips_through_the_cdf(
        p in arb_params(3),
        level in 0.01f64..0.99,
    ) {
        let q = p.interval_quantile(level);
        prop_assert!(q > 0.0 && q.is_finite());
        let f = p.interval_cdf(q);
        prop_assert!((f - level).abs() < 1e-6, "F(q({level})) = {f}");
    }

    #[test]
    fn quantiles_are_monotone_in_the_level(
        p in arb_params(3),
        lo in 0.05f64..0.45,
        gap in 0.05f64..0.5,
    ) {
        let q_lo = p.interval_quantile(lo);
        let q_hi = p.interval_quantile(lo + gap);
        prop_assert!(q_lo <= q_hi + 1e-12, "q({lo}) = {q_lo} > q({}) = {q_hi}", lo + gap);
    }

    #[test]
    fn matrix_free_quantiles_match_dense(
        p in arb_params(4),
        level in 0.02f64..0.98,
    ) {
        // The distribution-level analogue of the E[X] backend race: the
        // matrix-free quantile must solve the independently built CDF of
        // the materialised chain (CSR uniformization) to within
        // 1e-9·max(q, 1) in t, i.e. that distance times the density in F.
        let q = p.interval_quantile(level);
        let chain = p.build_full_chain();
        let f = chain.ctmc.absorption_cdf(FlagChain::START, q);
        let density = chain.interval_density(&[q])[0];
        prop_assert!(
            (f - level).abs() <= 1e-9 * q.max(1.0) * density,
            "q({level}) = {q}: dense F = {f}, f = {density}"
        );
    }

    #[test]
    fn batch_cdf_is_consistent_with_quantiles(
        p in arb_params(3),
        levels in prop::collection::vec(0.05f64..0.95, 1..5),
    ) {
        // interval_cdf_batch at the quantile points must recover the
        // levels — ties the two new evaluation hooks to each other.
        let qs: Vec<f64> = levels.iter().map(|&l| p.interval_quantile(l)).collect();
        let fs = p.interval_cdf_batch(&qs);
        for (l, f) in levels.iter().zip(&fs) {
            prop_assert!((l - f).abs() < 1e-6, "batch F(q({l})) = {f}");
        }
    }
}

/// λ = 0 and stalled-process corners from the `rbtestutil` matrix
/// (values replicated here — rbmarkov cannot depend on rbtestutil
/// without a cycle): the quantile search must behave at both edges of
/// the level range on the degenerate parameter sets, not just generic
/// ones.
#[test]
fn quantile_edges_on_matrix_corner_scenarios() {
    // corner/no-interaction: X ~ Exp(Σμ) exactly. The upper edge stops
    // at 1 − 1e-6: beyond that the quantile amplifies the CDF's 1e-12
    // uniformization truncation by 1/f(q) past the assertion band.
    let free = AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]).unwrap();
    for level in [1e-8, 0.5, 1.0 - 1e-6] {
        let want = -(1.0_f64 - level).ln() / 6.0;
        let got = free.interval_quantile(level);
        assert!(
            (got - want).abs() < 1e-6 * want.max(1e-4),
            "q({level}) = {got}, want {want}"
        );
    }
    // corner/stalled-process: the μ₃ = 0.05 process stretches the tail;
    // extreme levels must still bracket and round-trip, and solve the
    // materialised chain's CDF as well as the matrix-free one.
    let stalled = AsyncParams::new(vec![2.0, 2.0, 0.05], vec![0.3, 0.3, 0.3]).unwrap();
    let chain = stalled.build_full_chain();
    for level in [1e-6, 0.999] {
        let q = stalled.interval_quantile(level);
        assert!(q.is_finite() && q > 0.0);
        let f = chain.ctmc.absorption_cdf(FlagChain::START, q);
        let density = chain.interval_density(&[q])[0];
        assert!(
            (f - level).abs() <= 1e-9 * q.max(1.0) * density,
            "q({level}) = {q}: dense F = {f}, f = {density}"
        );
        assert!((stalled.interval_cdf(q) - level).abs() < 1e-8);
    }
}
