//! Property tests for the random streams, the race sampler and the
//! online statistics.

use proptest::prelude::*;
use rbsim::stats::{Histogram, Welford};
use rbsim::{weighted_pick, PoissonRace, SimRng, StreamId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn welford_mean_within_bounds(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!(w.mean() >= w.min() - 1e-9 && w.mean() <= w.max() + 1e-9);
        prop_assert!(w.variance() >= 0.0);
        prop_assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn histogram_cdf_ends_at_one_when_range_covers(
        xs in prop::collection::vec(0.0f64..1.0, 1..200),
    ) {
        let mut h = Histogram::new(0.0, 1.0 + 1e-9, 16);
        for &x in &xs {
            h.push(x);
        }
        let cdf = h.cdf();
        prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rng_streams_reproduce_and_exp_scales(
        seed in any::<u64>(),
        rate in 0.01f64..50.0,
    ) {
        let mut a = SimRng::new(seed, StreamId::WORKLOAD);
        let mut b = SimRng::new(seed, StreamId::WORKLOAD);
        // Scaling property: Exp(r) = Exp(1)/r for the same underlying
        // uniforms — verify via matched draws on cloned streams.
        for _ in 0..20 {
            let x = a.exp(rate);
            let y = b.exp(1.0);
            prop_assert!((x - y / rate).abs() < 1e-12 * (1.0 + y / rate));
        }
    }

    #[test]
    fn weighted_index_stays_in_range_and_skips_zeros(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SimRng::from_seed_only(seed);
        for _ in 0..100 {
            let k = rng.weighted_index(&weights);
            prop_assert!(k < weights.len());
            prop_assert!(weights[k] > 0.0, "picked a zero-weight category");
        }
    }
}

/// Rates spread log-uniformly over 1e-12…1e6 (`exps` are the decimal
/// exponents), with zeros forced at the start, in the middle and at the
/// end by the low bits of `zeros`, and sprinkled elsewhere by the rest.
fn race_rates(exps: &[f64], zeros: u64) -> Vec<f64> {
    let len = exps.len();
    let mut rates: Vec<f64> = exps.iter().map(|&e| 10f64.powf(e)).collect();
    for (bit, k) in [0, len / 2, len - 1].into_iter().enumerate() {
        if zeros >> bit & 1 == 1 {
            rates[k] = 0.0;
        }
    }
    for (k, r) in rates.iter_mut().enumerate() {
        if (zeros >> 3).rotate_left(k as u32) & 7 == 0 {
            *r = 0.0;
        }
    }
    rates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn race_pick_equals_weighted_pick_at_and_between_thresholds(
        exps in prop::collection::vec(-12.0f64..6.0, 1..257),
        zeros in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let rates = race_rates(&exps, zeros);
        prop_assume!(rates.iter().any(|&r| r > 0.0));
        let race = PoissonRace::new(&rates);
        let grid = (1u64 << 53) as f64;
        // Each threshold Rₖ is where the pick steps: check the last draw
        // below it, u = Tₖ − 2⁻⁵³, and the draw at it, u = Tₖ.
        for &r in race.thresholds() {
            for r in [r.saturating_sub(1), r] {
                let u = r as f64 / grid;
                if u < 1.0 {
                    prop_assert_eq!(race.pick(u), weighted_pick(&rates, u), "u = {}", u);
                }
            }
        }
        let mut rng = SimRng::from_seed_only(seed);
        for _ in 0..10_000 {
            let u = rng.uniform();
            prop_assert_eq!(race.pick(u), weighted_pick(&rates, u), "u = {}", u);
        }
    }

    #[test]
    fn race_next_matches_exp_and_weighted_index_draw_for_draw(
        exps in prop::collection::vec(-12.0f64..6.0, 1..257),
        zeros in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let rates = race_rates(&exps, zeros);
        prop_assume!(rates.iter().any(|&r| r > 0.0));
        let race = PoissonRace::new(&rates);
        let mut a = SimRng::new(seed, StreamId::WORKLOAD);
        let mut b = a.clone();
        for _ in 0..100_000 {
            let (dt, k) = race.next(&mut a);
            prop_assert_eq!(dt.to_bits(), b.exp(race.total()).to_bits());
            prop_assert_eq!(k, b.weighted_index(&rates));
        }
    }
}
