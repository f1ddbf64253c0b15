//! Cross-validation: the analytic Markov solves against the
//! discrete-event simulation, across parameter space.

use recovery_blocks::core::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use recovery_blocks::markov::paper::{mean_interval_symmetric, AsyncParams, SplitChain};
use recovery_blocks::sim::stats::Histogram;

#[test]
fn mean_interval_agrees_across_parameter_grid() {
    let mut seed = 100;
    for n in [2usize, 3, 4] {
        for mu in [0.5, 1.0, 2.0] {
            for lambda in [0.25, 1.0, 3.0] {
                seed += 1;
                let params = AsyncParams::symmetric(n, mu, lambda);
                let analytic = params.mean_interval();
                // High-ρ corners have enormous E[X] (thousands of
                // events per line) — budget a fixed number of *events*
                // per grid point, not lines.
                let events_per_line = params.normalization() * analytic;
                let lines = ((400_000.0 / events_per_line) as usize).clamp(200, 6_000);
                let stats = AsyncScheme::new(AsyncConfig::new(params), seed).run_intervals(lines);
                let ci = stats.interval.ci_half_width(4.0);
                assert!(
                    (stats.interval.mean() - analytic).abs() < ci.max(0.04 * analytic),
                    "n={n} μ={mu} λ={lambda} ({lines} lines): sim {} vs analytic {analytic} (ci {ci})",
                    stats.interval.mean()
                );
            }
        }
    }
}

#[test]
fn asymmetric_cases_agree() {
    for (k, (mu, lam)) in [
        ((1.5, 1.0, 0.5), (1.0, 1.0, 1.0)),
        ((1.0, 1.0, 1.0), (1.5, 0.5, 1.0)),
        ((1.5, 1.0, 0.5), (1.5, 0.5, 1.0)),
        ((1.5, 1.0, 0.5), (0.5, 1.5, 1.0)),
        ((2.0, 0.3, 0.7), (0.2, 2.0, 0.9)),
    ]
    .into_iter()
    .enumerate()
    {
        let params = AsyncParams::three(mu, lam);
        let analytic = params.mean_interval();
        let stats =
            AsyncScheme::new(AsyncConfig::new(params), 500 + k as u64).run_intervals(12_000);
        assert!(
            (stats.interval.mean() - analytic).abs() < 0.05 * analytic + 0.02,
            "case {k}: sim {} vs analytic {analytic}",
            stats.interval.mean()
        );
    }
}

#[test]
fn rp_counts_match_poisson_thinning_identity() {
    let params = AsyncParams::three((2.0, 0.7, 0.3), (1.0, 0.5, 1.5));
    let ex = params.mean_interval();
    let stats = AsyncScheme::new(AsyncConfig::new(params.clone()), 808).run_intervals(20_000);
    for i in 0..3 {
        let want = params.mu()[i] * ex;
        let got = stats.rp_counts[i].mean();
        assert!(
            (got - want).abs() < 0.05 * want + 0.02,
            "L{i}: sim {got} vs μᵢE[X] {want}"
        );
    }
}

#[test]
fn density_histogram_tracks_uniformization() {
    let params = AsyncParams::symmetric(3, 1.0, 1.0);
    let mut h = Histogram::new(0.0, 6.0, 30);
    let stats = AsyncScheme::new(AsyncConfig::new(params.clone()), 9).run_intervals_samples(40_000);
    stats.samples.unwrap().iter().for_each(|&x| h.push(x));
    let density = h.density();
    for (k, &d) in density.iter().enumerate().take(30).skip(2) {
        let t = h.bin_center(k);
        let analytic = params.interval_density(&[t])[0];
        assert!(
            (d - analytic).abs() < 0.02 + 0.15 * analytic,
            "bin {k} (t={t:.2}): sim {d} vs analytic {analytic}"
        );
    }
}

#[test]
fn cdf_brackets_simulated_quantiles() {
    let params = AsyncParams::symmetric(3, 1.0, 1.0);
    // Median check: F(median_sim) ≈ 0.5.
    let mut h = Histogram::new(0.0, 20.0, 400);
    let stats =
        AsyncScheme::new(AsyncConfig::new(params.clone()), 78).run_intervals_samples(20_000);
    stats.samples.unwrap().iter().for_each(|&x| h.push(x));
    let cdf = h.cdf();
    let median_bin = cdf.iter().position(|&c| c >= 0.5).unwrap();
    let median = h.bin_center(median_bin);
    let f_at_median = params.interval_cdf(median);
    assert!(
        (f_at_median - 0.5).abs() < 0.03,
        "F(median_sim={median:.3}) = {f_at_median:.3}"
    );
}

#[test]
fn split_chain_consistent_with_lumped_chain() {
    for (n, mu, lambda) in [(3usize, 1.0, 1.0), (4, 0.7, 1.3)] {
        let params = AsyncParams::symmetric(n, mu, lambda);
        let sc = SplitChain::build(&params, 0);
        let ex_steps = sc.expected_steps() / sc.g;
        let ex_lumped = mean_interval_symmetric(n, mu, lambda);
        assert!(
            (ex_steps - ex_lumped).abs() < 1e-8 * ex_lumped,
            "n={n}: {ex_steps} vs {ex_lumped}"
        );
    }
}
