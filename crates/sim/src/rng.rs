//! Seeded random-number streams and the superposed-Poisson sampler.
//!
//! The paper's standard performance-analysis assumptions (§2.1) make
//! every random quantity exponential: recovery-point establishment in
//! process `Pᵢ` is Poisson with rate μᵢ, and interactions between `Pᵢ`
//! and `Pⱼ` are Poisson with rate λᵢⱼ. [`SimRng::exp`] samples the
//! corresponding inter-event times and [`PoissonRace`] the superposed
//! race; [`SimRng`] provides independent, reproducible streams so that
//! (say) the fault-injection stream can be varied while the workload
//! stream is held fixed.

/// Identifies an independent random stream carved out of a master seed.
///
/// Streams with different ids are statistically independent for any
/// practical purpose (the id is mixed into the seed through SplitMix64,
/// the standard seeding finaliser).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(pub u64);

impl StreamId {
    /// The stream of workload events (RPs and interactions).
    pub const WORKLOAD: StreamId = StreamId(1);
    /// The stream of injected faults.
    pub const FAULTS: StreamId = StreamId(2);
    /// The stream of acceptance-test outcomes.
    pub const ACCEPTANCE: StreamId = StreamId(3);
}

/// Derives an independent per-cell seed from a sweep's master seed.
///
/// Used by parallel scenario sweeps: seeding cell `index` of a grid
/// with `derive_seed(master, index)` makes every cell's random streams
/// a pure function of `(master, index)` — independent of which thread
/// runs the cell and in what order — so a parallel sweep reproduces a
/// serial one bit for bit. The mixing is two rounds of the SplitMix64
/// finaliser, the standard avalanche-quality seeding function.
///
/// ```
/// use rbsim::derive_seed;
///
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7)); // deterministic
/// assert_ne!(derive_seed(42, 7), derive_seed(42, 8)); // cells diverge
/// assert_ne!(derive_seed(42, 7), derive_seed(43, 7)); // masters diverge
/// ```
pub fn derive_seed(master: u64, index: u64) -> u64 {
    splitmix64(master ^ splitmix64(index.wrapping_add(GAMMA)))
}

/// The SplitMix64 increment (the golden-ratio constant `2⁶⁴/φ`).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finaliser: mixes a 64-bit value into an avalanche-quality
/// 64-bit output. Used only for seeding.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded random stream for simulation use: xoshiro256++ (fast,
/// non-cryptographic — appropriate for a simulator), seeded through
/// SplitMix64.
///
/// The generator lives in-tree because the golden artifacts pin its
/// exact output bits.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates the stream `stream` of the experiment seeded by `seed`.
    pub fn new(seed: u64, stream: StreamId) -> Self {
        let mixed = splitmix64(seed ^ splitmix64(stream.0));
        // The finaliser is a bijection and the four inputs are distinct,
        // so at most one word is 0: never the all-zero state xoshiro
        // must avoid.
        let s =
            std::array::from_fn(|i| splitmix64(mixed.wrapping_add(GAMMA.wrapping_mul(i as u64))));
        SimRng { s }
    }

    /// A single stream when independence between sub-streams is not needed.
    pub fn from_seed_only(seed: u64) -> Self {
        SimRng::new(seed, StreamId(0))
    }

    /// Samples an `Exp(rate)` holding time.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "exponential rate must be positive and finite, got {rate}"
        );
        // Inverse-CDF with the open interval (0,1]; `uniform()` is in
        // [0,1), so 1-u is in (0,1] and ln never sees zero.
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Samples a uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 uniform bits in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / UNIFORM_GRID as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to \[0,1\]).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Uniformly picks an index in `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        // Modulo bias is below n/2⁶⁴ — negligible for simulation use.
        (self.next_u64() % n as u64) as usize
    }

    /// Picks a category `k` with probability `weights[k] / Σ weights`.
    ///
    /// Used to choose *which* pair interacts / which process checkpoints
    /// when a superposed exponential race fires. Hot loops over fixed
    /// weights use [`PoissonRace`], which returns the same pick for the
    /// same draw.
    ///
    /// # Panics
    /// Panics if a weight is negative or not finite (naming its index),
    /// or if the weights do not have a positive finite sum — whatever
    /// the draw.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        weighted_pick(weights, self.uniform())
    }

    /// The next uniform as its grid index `r`, where
    /// [`Self::uniform`] would return `r·2⁻⁵³`: the same 64 bits, before
    /// the float conversion.
    #[inline]
    fn grid_draw(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Raw 64 random bits: one xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The category [`SimRng::weighted_index`] picks for the pick draw
/// `u ∈ [0, 1)`: the first `k` at which `u·Σw − w₀ − … − wₖ` (rounded
/// step by step) drops below zero, or the last positively weighted
/// category if rounding keeps it from ever doing so.
///
/// # Panics
/// As [`SimRng::weighted_index`].
pub fn weighted_pick(weights: &[f64], u: f64) -> usize {
    let total = checked_total(weights, "weight");
    first_below_zero(weights, u * total).unwrap_or_else(|| last_positive(weights))
}

/// Validates `weights` — each finite and non-negative, with a positive
/// finite sum — and returns that sum as a left fold.
///
/// # Panics
/// Names the first bad index (`what` labels it in the message).
fn checked_total(weights: &[f64], what: &str) -> f64 {
    let mut total = 0.0;
    for (k, &w) in weights.iter().enumerate() {
        assert!(
            w >= 0.0 && w.is_finite(),
            "{what} {k} must be finite and non-negative, got {w}"
        );
        total += w;
    }
    assert!(
        total > 0.0 && total.is_finite(),
        "{what}s must have a positive finite sum, got {total}"
    );
    total
}

/// The sequential-subtraction pick: subtracts `weights` from `target`
/// in order and returns the first index at which it drops below zero.
///
/// The one arithmetic definition of a category pick, shared by
/// [`SimRng::weighted_index`] and the threshold search of
/// [`PoissonRace`].
#[inline]
fn first_below_zero(weights: &[f64], mut target: f64) -> Option<usize> {
    for (k, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return Some(k);
        }
    }
    None
}

/// The pick when floating-point slack keeps the subtraction from going
/// negative: the last positively weighted category.
fn last_positive(weights: &[f64]) -> usize {
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("positive total implies a positive weight")
}

/// Draws of `SimRng::uniform` are `r·2⁻⁵³` for an integer `r < 2⁵³`.
const UNIFORM_GRID: u64 = 1 << 53;

/// Entries of the [`PoissonRace`] guide table, indexed by the top bits
/// of a draw's grid index.
const GUIDE: usize = 256;
const GUIDE_SHIFT: u32 = 53 - GUIDE.trailing_zeros();

/// A superposed Poisson race over fixed category rates: the time to the
/// next event of any category and which category fired.
///
/// [`PoissonRace::next`] is bit-exact against
/// `(rng.exp(total), rng.weighted_index(rates))`: it consumes the same
/// two uniforms and returns the same `dt` bits and the same category,
/// in O(1) expected time instead of two O(K) passes over the rates.
///
/// Why the pick is exact: the pick draw is `u = r·2⁻⁵³` for an integer
/// `r < 2⁵³`, and `weighted_index` computes `fl(u·total)` and then
/// `fl(t − wₖ)` in order, returning the first `k` that goes negative.
/// Both roundings are monotone, so "gone negative by index `k`" holds
/// exactly for `r < Rₖ`, an integer threshold non-decreasing in `k`.
/// The race finds each `Rₖ` once by binary search over `r` and picks
/// the first `k` with `r < Rₖ` — the same test as `u < Tₖ = Rₖ·2⁻⁵³`,
/// on the integer grid — starting from a 256-entry guide table indexed
/// by the top 8 bits of `r` (that is, by `u·256`).
///
/// ```
/// use rbsim::{PoissonRace, SimRng};
///
/// let rates = [1.0, 0.0, 2.5, 0.5];
/// let race = PoissonRace::new(&rates);
/// let (mut a, mut b) = (SimRng::from_seed_only(9), SimRng::from_seed_only(9));
/// for _ in 0..1000 {
///     let (dt, k) = race.next(&mut a);
///     assert_eq!(dt.to_bits(), b.exp(race.total()).to_bits());
///     assert_eq!(k, b.weighted_index(&rates));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct PoissonRace {
    total: f64,
    /// `Rₖ`: category `k` wins the draw `r` iff it is the first with
    /// `r < Rₖ`. The last positively weighted category and every one
    /// after it hold `2⁵³`, so the scan always stops.
    thresholds: Vec<u64>,
    /// `guide[j]` is the pick at `u = j/256`, a lower bound of the pick
    /// for every `u` in `[j/256, (j+1)/256)`.
    guide: Box<[u32; GUIDE]>,
}

impl PoissonRace {
    /// A race over `rates`, in category order.
    ///
    /// # Panics
    /// Panics if a rate is negative or not finite (naming its index), or
    /// if the rates do not have a positive finite sum.
    pub fn new(rates: &[f64]) -> Self {
        let total = checked_total(rates, "rate");
        let scale = 1.0 / UNIFORM_GRID as f64;
        let gone_negative =
            |r: u64, k: usize| first_below_zero(&rates[..=k], r as f64 * scale * total).is_some();
        let last = last_positive(rates);
        let mut thresholds = Vec::with_capacity(rates.len());
        let mut lo = 0;
        for k in 0..rates.len() {
            if k < last {
                // Smallest r at which the scan survives index k; it is
                // at least the previous threshold.
                let mut hi = UNIFORM_GRID;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if gone_negative(mid, k) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
            } else {
                lo = UNIFORM_GRID;
            }
            thresholds.push(lo);
        }
        let mut guide = Box::new([0u32; GUIDE]);
        let mut k = 0;
        for (j, g) in guide.iter_mut().enumerate() {
            let r = (j as u64) << GUIDE_SHIFT;
            while thresholds[k] <= r {
                k += 1;
            }
            *g = u32::try_from(k).expect("category count fits in u32");
        }
        PoissonRace {
            total,
            thresholds,
            guide,
        }
    }

    /// The total rate `Σ rates` (a left fold, as `weighted_index` sums).
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The per-category thresholds `Rₖ` on the draw grid (see the type
    /// docs): `2⁵³` from the last positively weighted category on.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// Draws the time to the next event and the category that fired.
    #[inline]
    pub fn next(&self, rng: &mut SimRng) -> (f64, usize) {
        // The `SimRng::exp` expression, on the same first uniform.
        let dt = -(1.0 - rng.uniform()).ln() / self.total;
        (dt, self.pick_grid(rng.grid_draw()))
    }

    /// The category the pick draw `u ∈ [0, 1)` selects — always
    /// [`weighted_pick`]`(rates, u)` for a draw `u` of
    /// [`SimRng::uniform`].
    #[inline]
    pub fn pick(&self, u: f64) -> usize {
        self.pick_grid((u * UNIFORM_GRID as f64) as u64)
    }

    /// The category the grid draw `r = u·2⁵³` selects.
    #[inline]
    fn pick_grid(&self, r: u64) -> usize {
        let mut k = self.guide[(r >> GUIDE_SHIFT) as usize] as usize;
        while self.thresholds[k] <= r {
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden artifacts depend on these exact outputs: any change to
    /// seeding, stepping or the float and index conversions shows here
    /// before it reaches an artifact.
    #[test]
    fn generator_pins() {
        let mut rng = SimRng::new(42, StreamId::WORKLOAD);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xe24c_5880_61ba_a2ff,
                0xb6cf_f14a_be90_8642,
                0xf305_93b2_456f_de98,
                0x66b8_f8e8_24f9_2c2d
            ]
        );
        let mut rng = SimRng::from_seed_only(7);
        assert_eq!(rng.uniform(), 0.7444690632965898);
        assert_eq!(rng.index(10), 6);
        assert_eq!(rng.exp(1.0), 0.10349910264952862);
    }

    #[test]
    fn uniform_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::from_seed_only(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn index_hits_all_buckets() {
        let mut rng = SimRng::from_seed_only(3);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[rng.index(5)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 1_500), "{counts:?}");
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let mut a1 = SimRng::new(42, StreamId::WORKLOAD);
        let mut a2 = SimRng::new(42, StreamId::WORKLOAD);
        let mut b = SimRng::new(42, StreamId::FAULTS);
        let xs1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs1, xs2, "same seed+stream must reproduce");
        assert_ne!(xs1, ys, "different streams must diverge");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::from_seed_only(7);
        let n = 200_000;
        let rate = 2.5;
        let mean: f64 = (0..n).map(|_| rng.exp(rate)).sum::<f64>() / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() < 0.01 * expected * 3.0,
            "sample mean {mean} too far from {expected}"
        );
    }

    #[test]
    fn exponential_is_memoryless_in_distribution() {
        // P(T > s+t | T > s) = P(T > t): compare tail frequencies.
        let mut rng = SimRng::from_seed_only(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.exp(1.0)).collect();
        let tail = |t: f64| samples.iter().filter(|&&x| x > t).count() as f64 / n as f64;
        let p_gt_1 = tail(1.0);
        let cond = samples.iter().filter(|&&x| x > 0.5).count() as f64;
        let joint = samples.iter().filter(|&&x| x > 1.5).count() as f64;
        let p_cond = joint / cond;
        assert!((p_cond - p_gt_1).abs() < 0.02, "{p_cond} vs {p_gt_1}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::from_seed_only(3);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_rejects_a_negative_weight_whatever_the_draw() {
        // A scan that stops before the bad weight used to return 0 for
        // about 2/3 of draws here.
        for seed in 0..200 {
            let caught = std::panic::catch_unwind(|| {
                SimRng::from_seed_only(seed).weighted_index(&[1.0, -0.5, 1.0])
            });
            let msg = *caught
                .expect_err("negative weight accepted")
                .downcast::<String>()
                .unwrap();
            assert!(msg.contains("weight 1 "), "{msg}");
        }
    }

    #[test]
    #[should_panic(expected = "rate 2 must be finite and non-negative, got NaN")]
    fn race_names_the_bad_rate() {
        let _ = PoissonRace::new(&[1.0, 0.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "positive finite sum")]
    fn race_needs_a_positive_rate() {
        let _ = PoissonRace::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        let _ = SimRng::from_seed_only(0).exp(0.0);
    }

    #[test]
    fn bernoulli_edges() {
        let mut rng = SimRng::from_seed_only(5);
        assert!(!(0..1000).any(|_| rng.bernoulli(0.0)));
        assert!((0..1000).all(|_| rng.bernoulli(1.0)));
    }
}
