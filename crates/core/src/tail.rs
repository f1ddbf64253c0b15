//! Deep-tail (rare-event) estimation for the asynchronous scheme.
//!
//! The interval tail P(X > t) at the 10⁻⁹–10⁻¹² levels real
//! deployments budget for is invisible to naive Monte Carlo — a
//! billion simulated intervals buy one expected observation. This
//! module bridges the flag chain of `rbmarkov::paper` to the
//! fixed-effort multilevel splitting engine of [`rbsim::splitting`]:
//!
//! * [`FlagChainPath`] — the full flag chain (rules R1–R4) as a
//!   jump-path simulator implementing [`LevelPath`], so splitting can
//!   restart trials from resampled survivor states at each time level
//!   (valid because the chain is Markov: a survivor's flag mask at the
//!   level boundary is a complete restart state, and the holding time
//!   is re-drawn fresh by memorylessness);
//! * [`SplittingTail`] — a sweepable [`Workload`] that runs splitting
//!   down to a target tail level and *gates the estimate against the
//!   exact survival oracle*
//!   ([`AsyncParams::interval_survival_batch`]), reporting the check as
//!   a first-class metric (`tail/splitting-vs-matfree-cdf`).
//!
//! ```
//! use rbcore::tail::FlagChainPath;
//! use rbmarkov::paper::AsyncParams;
//! use rbsim::splitting::{run, SplittingSpec};
//!
//! let params = AsyncParams::symmetric(3, 1.0, 1.0);
//! // P(X > t*) ≈ 1e-4 — naive MC would need ~10⁶ trials for 10 hits.
//! let t_star = params.interval_tail_time(1e-4);
//! let est = run(
//!     &FlagChainPath::new(&params),
//!     &SplittingSpec::equal(t_star, 6, 400),
//!     1983,
//! );
//! assert!((est.probability / 1e-4 - 1.0).abs() < 6.0 * est.rel_err);
//! ```

use rbmarkov::paper::AsyncParams;
use rbsim::splitting::{self, LevelPath, SplittingSpec};
use rbsim::SimRng;

use crate::metrics::Metric;
use crate::workload::{canon_async_params, canon_f64, Workload};

/// A flag-chain state at a splitting level boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlagState {
    /// The entry state S_r: a recovery line has just formed.
    Entry,
    /// An intermediate flag vector (bit i set = flag of Pᵢ is 1).
    Mask(u32),
}

/// One strictly positive pairwise interaction with precomputed masks.
#[derive(Clone, Copy, Debug)]
struct Pair {
    bits: u32,
    bit_i: u32,
    bit_j: u32,
    rate: f64,
}

/// The full flag chain (rules R1–R4 of `rbmarkov::paper::FlagChain`)
/// as a continuous-time jump-path simulator.
///
/// Each jump costs exactly **two** RNG draws — one exponential holding
/// time, one uniform transition pick — so paths are bit-deterministic
/// in the stream, and [`LevelPath::advance`] never draws past the
/// segment boundary (by memorylessness the residual holding time at
/// the boundary is re-drawn by the next segment).
#[derive(Clone, Debug)]
pub struct FlagChainPath {
    mu: Vec<f64>,
    total_mu: f64,
    total_lambda: f64,
    pairs: Vec<Pair>,
    full: u32,
}

impl FlagChainPath {
    /// Builds the simulator for `params`.
    pub fn new(params: &AsyncParams) -> FlagChainPath {
        let n = params.n();
        let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                let rate = params.lambda(i, j);
                if rate > 0.0 {
                    pairs.push(Pair {
                        bits: (1 << i) | (1 << j),
                        bit_i: 1 << i,
                        bit_j: 1 << j,
                        rate,
                    });
                }
            }
        }
        FlagChainPath {
            mu: params.mu().to_vec(),
            total_mu: params.total_mu(),
            total_lambda: params.total_lambda(),
            pairs,
            full: (1u32 << n) - 1,
        }
    }

    /// Total exit rate of `state` (matches the matrix-free operator's
    /// diagonal): pairs with both flags 0 contribute nothing from an
    /// intermediate mask, and processes with flag 1 have no pending RP.
    fn exit_rate(&self, state: FlagState) -> f64 {
        match state {
            FlagState::Entry => self.total_mu + self.total_lambda,
            FlagState::Mask(m) => {
                let mut rate = 0.0;
                for (i, &mi) in self.mu.iter().enumerate() {
                    if m & (1 << i) == 0 {
                        rate += mi;
                    }
                }
                for pr in &self.pairs {
                    if m & pr.bits != 0 {
                        rate += pr.rate;
                    }
                }
                rate
            }
        }
    }

    /// One jump out of `state`, picked by the scaled uniform `u` in
    /// `[0, exit_rate)`; `None` means absorption (the line completes).
    /// Transition enumeration order is fixed (R4/R1 first, then pairs
    /// in (i, j) order), and the final candidate absorbs any float
    /// round-off in the rate accumulation.
    fn jump(&self, state: FlagState, u: f64) -> Option<FlagState> {
        match state {
            FlagState::Entry => {
                // R4: an auxiliary recovery line completes immediately.
                if u < self.total_mu || self.pairs.is_empty() {
                    return None;
                }
                let mut acc = self.total_mu;
                for pr in &self.pairs {
                    acc += pr.rate;
                    if u < acc {
                        // R2 from S_r: both members' flags drop.
                        return Some(FlagState::Mask(self.full & !pr.bits));
                    }
                }
                let last = self.pairs[self.pairs.len() - 1];
                Some(FlagState::Mask(self.full & !last.bits))
            }
            FlagState::Mask(m) => {
                let mut acc = 0.0;
                let mut fallback = None;
                // R1: a flag-0 process establishes an RP; completing
                // the mask forms the next recovery line (absorption).
                for (i, &mi) in self.mu.iter().enumerate() {
                    let bit = 1u32 << i;
                    if m & bit == 0 {
                        acc += mi;
                        let to = m | bit;
                        let dest = if to == self.full {
                            None
                        } else {
                            Some(FlagState::Mask(to))
                        };
                        if u < acc {
                            return dest;
                        }
                        fallback = Some(dest);
                    }
                }
                // R2/R3: an interaction clears its flag-1 members.
                for pr in &self.pairs {
                    let to = match (m & pr.bit_i != 0, m & pr.bit_j != 0) {
                        (true, true) => m & !pr.bits,
                        (true, false) => m & !pr.bit_i,
                        (false, true) => m & !pr.bit_j,
                        (false, false) => continue,
                    };
                    acc += pr.rate;
                    let dest = Some(FlagState::Mask(to));
                    if u < acc {
                        return dest;
                    }
                    fallback = Some(dest);
                }
                fallback.expect("transient state has at least one transition")
            }
        }
    }
}

impl LevelPath for FlagChainPath {
    type State = FlagState;

    fn initial(&self) -> FlagState {
        FlagState::Entry
    }

    fn advance(
        &self,
        mut state: FlagState,
        from: f64,
        to: f64,
        rng: &mut SimRng,
    ) -> Option<FlagState> {
        let mut t = from;
        loop {
            let exit = self.exit_rate(state);
            t += rng.exp(exit);
            if t >= to {
                return Some(state);
            }
            let u = rng.uniform() * exit;
            state = self.jump(state, u)?;
        }
    }
}

/// Floor for the `tail/log10_p` metric when the estimate is exactly 0
/// (no survivors), keeping artifacts finite.
const LOG10_FLOOR: f64 = 1e-300;

/// A sweepable rare-event workload: multilevel splitting down to the
/// `p_target` tail of the interval distribution, gated cell-side
/// against the exact survival oracle.
///
/// Construction places the final level at the oracle's
/// `interval_tail_time(p_target)` and records the exact tail there, so
/// [`Workload::run`] is pure in `(self, seed)` and each sweep cell
/// carries its own verdict: the check metric
/// `tail/splitting-vs-matfree-cdf` passes iff the splitting estimate
/// agrees with the exact tail within `z` of **its own reported
/// relative error**.
#[derive(Clone, Debug)]
pub struct SplittingTail {
    id: String,
    params: AsyncParams,
    threshold: f64,
    p_exact: f64,
    levels: usize,
    trials: usize,
    z: f64,
}

impl SplittingTail {
    /// Builds the workload, solving for the exact `p_target` threshold
    /// (one uniformization pass, paid at construction).
    ///
    /// `levels` partitions `[0, t*]` equally; `z` is the gate width in
    /// reported relative errors.
    pub fn new(
        id: impl Into<String>,
        params: AsyncParams,
        p_target: f64,
        levels: usize,
        trials: usize,
        z: f64,
    ) -> SplittingTail {
        assert!(levels > 0 && trials > 0, "empty splitting configuration");
        assert!(z > 0.0, "gate width must be positive");
        let threshold = params.interval_tail_time(p_target);
        let p_exact = params.interval_survival_batch(&[threshold])[0];
        SplittingTail {
            id: id.into(),
            params,
            threshold,
            p_exact,
            levels,
            trials,
            z,
        }
    }

    /// Overrides the exact reference tail — the **negative-control
    /// hook**: gating an honest simulation against a perturbed oracle
    /// must fail, proving the check has teeth.
    pub fn with_reference(mut self, p_exact: f64) -> SplittingTail {
        assert!(p_exact > 0.0 && p_exact.is_finite(), "invalid reference");
        self.p_exact = p_exact;
        self
    }

    /// The final-level threshold t* (where the exact tail is
    /// `p_target`).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The exact tail probability the gate compares against.
    pub fn p_exact(&self) -> f64 {
        self.p_exact
    }
}

impl Workload for SplittingTail {
    fn label(&self) -> String {
        self.id.clone()
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};threshold={};p_exact={};levels={};trials={};z={}",
            canon_async_params(&self.params),
            canon_f64(self.threshold),
            canon_f64(self.p_exact),
            self.levels,
            self.trials,
            canon_f64(self.z)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let path = FlagChainPath::new(&self.params);
        let spec = SplittingSpec::equal(self.threshold, self.levels, self.trials);
        let est = splitting::run(&path, &spec, seed);
        let rel_dev = est.probability / self.p_exact - 1.0;
        let tol = self.z * est.rel_err;
        let pass = est.rel_err.is_finite() && rel_dev.abs() <= tol;
        vec![
            Metric::exact("tail/threshold", self.threshold),
            Metric::exact("tail/p_exact", self.p_exact),
            Metric::exact("tail/p_hat", est.probability),
            // Clamped so a zero-survivor run still serializes (JSON has
            // no infinity); the check below fails in that case anyway.
            Metric::exact("tail/rel_err", est.rel_err.min(f64::MAX)),
            Metric::exact("tail/log10_p", est.probability.max(LOG10_FLOOR).log10()),
            Metric::check(
                "tail/splitting-vs-matfree-cdf",
                rel_dev,
                tol.min(f64::MAX),
                pass,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmarkov::matfree::FlagChainOp;
    use rbsim::splitting::naive_monte_carlo;

    fn skewed() -> AsyncParams {
        AsyncParams::new(vec![0.6, 0.85, 1.1], vec![0.15, 0.25, 0.35]).unwrap()
    }

    #[test]
    fn exit_rates_match_the_matrix_free_operator() {
        for params in [skewed(), AsyncParams::symmetric(4, 1.0, 0.5)] {
            let path = FlagChainPath::new(&params);
            let op = FlagChainOp::new(&params);
            assert!((path.exit_rate(FlagState::Entry) - op.exit_rate(0)).abs() < 1e-12);
            let full = (1u32 << params.n()) - 1;
            for m in 0..full {
                assert!(
                    (path.exit_rate(FlagState::Mask(m)) - op.exit_rate(m as usize + 1)).abs()
                        < 1e-12,
                    "mask {m}"
                );
            }
        }
    }

    #[test]
    fn simulated_tail_matches_the_analytic_cdf_at_moderate_t() {
        // Binomial gate at z = 4.8 on P(X > t) near the median.
        let params = skewed();
        let t = params.interval_quantile(0.5);
        let trials = 20_000;
        let est = naive_monte_carlo(&FlagChainPath::new(&params), t, trials, 1983);
        let want = 1.0 - params.interval_cdf(t);
        let se = (want * (1.0 - want) / trials as f64).sqrt();
        assert!(
            (est.probability - want).abs() < 4.8 * se,
            "P(X > {t}): {} vs {want} (se {se})",
            est.probability
        );
    }

    #[test]
    fn splitting_reaches_a_deep_tail_within_reported_error() {
        let params = skewed();
        let p_target = 1e-5;
        let t = params.interval_tail_time(p_target);
        let exact = params.interval_survival_batch(&[t])[0];
        let est = splitting::run(
            &FlagChainPath::new(&params),
            &SplittingSpec::equal(t, 8, 1_500),
            42,
        );
        assert!(est.rel_err.is_finite());
        assert!(
            (est.probability / exact - 1.0).abs() <= 6.0 * est.rel_err,
            "p̂ = {} vs exact {exact} (RE {})",
            est.probability,
            est.rel_err
        );
    }

    #[test]
    fn workload_is_pure_and_reports_the_gate_metric() {
        let w = SplittingTail::new("tail/test", skewed(), 1e-4, 5, 300, 6.0);
        let a = w.run(7);
        let b = w.run(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.value().to_bits(), y.value().to_bits());
        }
        let names: Vec<_> = a.iter().map(|m| m.name().to_string()).collect();
        for want in [
            "tail/threshold",
            "tail/p_exact",
            "tail/p_hat",
            "tail/rel_err",
            "tail/log10_p",
            "tail/splitting-vs-matfree-cdf",
        ] {
            assert!(names.iter().any(|n| n == want), "missing {want}");
        }
        let gate = a.last().unwrap();
        assert!(gate.ok(), "honest gate failed: {gate:?}");
    }

    #[test]
    fn perturbed_reference_fails_the_gate() {
        let w = SplittingTail::new("tail/neg", skewed(), 1e-4, 5, 2_000, 5.0);
        let honest = w.clone().run(11);
        assert!(honest.last().unwrap().ok());
        // A 3× wrong oracle must trip the same gate.
        let wrong = w.clone().with_reference(w.p_exact() * 3.0).run(11);
        assert!(!wrong.last().unwrap().ok(), "gate accepted a 3× wrong tail");
    }
}
