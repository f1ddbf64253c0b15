//! Online statistics for simulation output analysis.
//!
//! Everything here is single-pass and allocation-light so it can sit in
//! the inner loop of long replications: Welford accumulation for
//! mean/variance, fixed-bin histograms for densities (Figure 6), and
//! normal-approximation confidence intervals for the tables the
//! `rbbench` figure binaries print.

use serde::Serialize;

/// Single-pass mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the normal-approximation confidence interval at the
    /// given z-score (1.96 ≈ 95 %, 2.576 ≈ 99 %).
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.std_err()
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow counters.
///
/// Used to estimate the density f_X(t) of the recovery-line interval
/// (paper Figure 6) from simulation and compare it with the analytic
/// uniformization solve.
#[derive(Clone, Debug, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `nbins` equal-width bins.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `nbins > 0`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(
            lo < hi && nbins > 0,
            "bad histogram spec [{lo},{hi})x{nbins}"
        );
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics if `x` is NaN, which has no bin (infinities count as
    /// underflow or overflow).
    #[inline]
    pub fn push(&mut self, x: f64) {
        assert!(
            !x.is_nan(),
            "cannot bin {x} into histogram [{},{})",
            self.lo,
            self.hi
        );
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Guard the degenerate x == hi-epsilon rounding-up case.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations, including out-of-range ones.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Observations outside `[lo, hi)` — underflow plus overflow. The
    /// [`Histogram::cdf`] and [`Histogram::density`] normalizations
    /// divide by the **total** count, so this mass is accounted for but
    /// not located: consumers comparing against an analytic CDF over a
    /// truncated support must handle it explicitly
    /// (`rbsim::gof::binned_masses` turns it into χ² cells of its own).
    pub fn out_of_range(&self) -> u64 {
        self.underflow + self.overflow
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Lower support bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper support bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The `nbins + 1` bin edges, `lo` to `hi` inclusive.
    pub fn bin_edges(&self) -> Vec<f64> {
        let w = self.bin_width();
        (0..=self.bins.len())
            .map(|k| self.lo + k as f64 * w)
            .collect()
    }

    /// The center of bin `k`.
    pub fn bin_center(&self, k: usize) -> f64 {
        self.lo + (k as f64 + 0.5) * self.bin_width()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Density estimate per bin: count / (N · width), so the sum over
    /// bins times the width approximates the in-range probability mass.
    pub fn density(&self) -> Vec<f64> {
        let norm = self.count.max(1) as f64 * self.bin_width();
        self.bins.iter().map(|&c| c as f64 / norm).collect()
    }

    /// Empirical CDF evaluated at the bin **upper** edges, normalized by
    /// the total observation count: the first value includes the
    /// underflow mass, and the last equals `1 − overflow/count` — any
    /// overflow mass sits "beyond `hi`" and is deliberately *not*
    /// renormalized away (see [`Histogram::out_of_range`]).
    pub fn cdf(&self) -> Vec<f64> {
        let n = self.count.max(1) as f64;
        let mut acc = self.underflow as f64;
        self.bins
            .iter()
            .map(|&c| {
                acc += c as f64;
                acc / n
            })
            .collect()
    }

    /// The empirical p-quantile by linear interpolation within bins,
    /// over the **total**-count normalization (out-of-range mass
    /// included): a rank falling into the underflow mass clamps to
    /// `lo`, one falling into the overflow mass clamps to `hi`. The
    /// clamping is the honest answer a fixed-support histogram can give
    /// — callers needing exact tail quantiles must widen the support.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1` and the histogram is non-empty.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0, "quantile level {p}");
        assert!(self.count > 0, "quantile of an empty histogram");
        let rank = p * self.count as f64;
        let mut acc = self.underflow as f64;
        if rank <= acc {
            return self.lo;
        }
        let w = self.bin_width();
        for (k, &c) in self.bins.iter().enumerate() {
            let next = acc + c as f64;
            if rank <= next && c > 0 {
                let frac = (rank - acc) / c as f64;
                return self.lo + (k as f64 + frac) * w;
            }
            acc = next;
        }
        self.hi
    }
}

/// A tagged series of (x, y) points, serializable for the experiment
/// artifacts (one per plotted curve).
#[derive(Clone, Debug, Serialize)]
pub struct Series {
    /// Curve label, e.g. `"case 1"`.
    pub label: String,
    /// The sample points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0, -3.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), -3.0);
        assert_eq!(w.max(), 10.0);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(left.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(5.0);
        let before = (w.count(), w.mean());
        w.merge(&Welford::new());
        assert_eq!((w.count(), w.mean()), before);

        let mut e = Welford::new();
        e.merge(&w);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    fn histogram_density_integrates_to_in_range_mass() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..1000 {
            h.push(i as f64 / 1000.0 * 1.2); // 1/6 of mass overflows
        }
        let mass: f64 = h.density().iter().sum::<f64>() * h.bin_width();
        let expected = (h.count() - h.overflow() - h.underflow()) as f64 / h.count() as f64;
        assert!((mass - expected).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_uniformly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_cdf_monotone_and_bounded() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        let mut seed = 12345u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.push((seed >> 11) as f64 / (1u64 << 53) as f64 * 1.5 - 0.25);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(*cdf.last().unwrap() <= 1.0 + 1e-12);
    }

    #[test]
    fn histogram_quantile_interpolates_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..1000 {
            h.push(i as f64 / 100.0); // uniform on [0, 10)
        }
        for p in [0.1, 0.25, 0.5, 0.9] {
            let q = h.quantile(p);
            assert!((q - 10.0 * p).abs() < 0.05, "q({p}) = {q}");
        }
        // Out-of-range mass clamps to the support boundaries.
        let mut t = Histogram::new(0.0, 1.0, 4);
        for &x in &[-1.0, -1.0, 0.5, 2.0, 2.0, 2.0] {
            t.push(x);
        }
        assert_eq!(t.quantile(0.2), 0.0, "rank inside underflow → lo");
        assert_eq!(t.quantile(0.9), 1.0, "rank inside overflow → hi");
        assert_eq!(t.out_of_range(), 5);
    }

    #[test]
    fn histogram_edges_and_bounds() {
        let h = Histogram::new(1.0, 3.0, 4);
        assert_eq!(h.bin_edges(), vec![1.0, 1.5, 2.0, 2.5, 3.0]);
        assert_eq!(h.lo(), 1.0);
        assert_eq!(h.hi(), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot bin NaN")]
    fn histogram_rejects_nan() {
        Histogram::new(0.0, 1.0, 4).push(f64::NAN);
    }
}
