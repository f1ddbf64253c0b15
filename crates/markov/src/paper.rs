//! The Shin & Lee (ICPP 1983) recovery-line chains.
//!
//! §2.2 of the paper models `n` asynchronous cooperating processes by a
//! CTMC over "last-action" flags: `xᵢ = 1` if process `Pᵢ`'s most recent
//! event was establishing a recovery point (RP), `xᵢ = 0` if it was an
//! interprocess interaction. A **recovery line** — a globally consistent
//! combination of RPs — exists exactly when every flag is 1, because a
//! pair of latest RPs with both flags set has no interaction sandwiched
//! between them (any such interaction would have cleared both flags).
//!
//! The chain runs from the entry state `S_r` (the r-th line just formed;
//! physically all flags are 1) to the absorbing state `S_{r+1}` (all
//! flags return to 1). Its absorption time is the inter-recovery-line
//! interval `X` of the paper; Figures 2–6 and Table 1 all derive from
//! this chain and its embedded discrete version `Y_d`.

use crate::ctmc::{AbsorptionSeq, Column, Ctmc};
use crate::dtmc::Dtmc;
use crate::matfree::FlagChainOp;
use crate::solver::SolverStrategy;

/// Validation failure for [`AsyncParams`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// Fewer than two processes (the model is about *cooperating*
    /// processes; a single process has no recovery-line problem).
    TooFewProcesses(usize),
    /// A recovery-point rate μᵢ was non-positive or non-finite.
    BadMu {
        /// Offending process index.
        process: usize,
        /// Offending value.
        value: f64,
    },
    /// An interaction rate λᵢⱼ was negative or non-finite.
    BadLambda {
        /// Offending pair.
        pair: (usize, usize),
        /// Offending value.
        value: f64,
    },
    /// λ matrix dimensions do not match μ.
    DimensionMismatch,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::TooFewProcesses(n) => write!(f, "need ≥ 2 processes, got {n}"),
            ParamError::BadMu { process, value } => {
                write!(f, "μ[{process}] = {value} must be positive and finite")
            }
            ParamError::BadLambda { pair, value } => {
                write!(
                    f,
                    "λ[{},{}] = {value} must be non-negative and finite",
                    pair.0, pair.1
                )
            }
            ParamError::DimensionMismatch => write!(f, "λ matrix does not match μ length"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Parameters of the asynchronous recovery-block model (paper §2.1
/// assumptions 3 and 5):
///
/// * `μᵢ` — Poisson rate of recovery-point establishment in `Pᵢ`;
/// * `λᵢⱼ = λⱼᵢ` — Poisson rate of interactions between `Pᵢ` and `Pⱼ`.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncParams {
    mu: Vec<f64>,
    /// Upper-triangular pair rates, indexed by [`pair_index`].
    lambda: Vec<f64>,
}

/// Index of unordered pair (i, j), i < j, among the n·(n−1)/2 pairs.
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    // Pairs (0,1),(0,2),…,(0,n−1),(1,2),… — row-major upper triangle.
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

impl AsyncParams {
    /// Builds and validates parameters. `lambda[k]` follows the
    /// upper-triangle order (0,1), (0,2), …, (0,n−1), (1,2), …
    pub fn new(mu: Vec<f64>, lambda: Vec<f64>) -> Result<Self, ParamError> {
        let n = mu.len();
        if n < 2 {
            return Err(ParamError::TooFewProcesses(n));
        }
        if lambda.len() != n * (n - 1) / 2 {
            return Err(ParamError::DimensionMismatch);
        }
        for (i, &m) in mu.iter().enumerate() {
            if !(m > 0.0 && m.is_finite()) {
                return Err(ParamError::BadMu {
                    process: i,
                    value: m,
                });
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                let v = lambda[pair_index(n, i, j)];
                if !(v >= 0.0 && v.is_finite()) {
                    return Err(ParamError::BadLambda {
                        pair: (i, j),
                        value: v,
                    });
                }
            }
        }
        Ok(AsyncParams { mu, lambda })
    }

    /// Homogeneous parameters: n processes, all μᵢ = `mu`, all λᵢⱼ =
    /// `lambda`.
    pub fn symmetric(n: usize, mu: f64, lambda: f64) -> Self {
        AsyncParams::new(vec![mu; n], vec![lambda; n * (n - 1) / 2])
            .expect("symmetric parameters are valid by construction")
    }

    /// The 3-process configurations of Table 1 / Figure 6:
    /// `mu = (μ₁,μ₂,μ₃)`, `lam = (λ₁₂, λ₂₃, λ₁₃)` — note the paper's
    /// pair order, which differs from our canonical (λ₁₂, λ₁₃, λ₂₃).
    pub fn three(mu: (f64, f64, f64), lam: (f64, f64, f64)) -> Self {
        let (l12, l23, l13) = lam;
        AsyncParams::new(vec![mu.0, mu.1, mu.2], vec![l12, l13, l23])
            .expect("three-process parameters must be valid")
    }

    /// Number of processes n.
    pub fn n(&self) -> usize {
        self.mu.len()
    }

    /// Recovery-point rates μ.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Interaction rate λᵢⱼ (order-insensitive; 0 for i = j).
    pub fn lambda(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.lambda[pair_index(self.n(), a, b)]
    }

    /// Σᵢ μᵢ.
    pub fn total_mu(&self) -> f64 {
        self.mu.iter().sum()
    }

    /// Σ_{i<j} λᵢⱼ — total interaction rate over unordered pairs.
    pub fn total_lambda(&self) -> f64 {
        self.lambda.iter().sum()
    }

    /// The paper's ρ = (Σᵢ Σ_{j≠i} λᵢⱼ) / (Σₖ μₖ): relative density of
    /// interprocess communication versus recovery-point establishment.
    /// The double sum counts each unordered pair twice.
    pub fn rho(&self) -> f64 {
        2.0 * self.total_lambda() / self.total_mu()
    }

    /// The total event rate G = Σ_{i<j} λᵢⱼ + Σₖ μₖ — the paper's
    /// normalization factor for the embedded chain `Y_d`.
    pub fn normalization(&self) -> f64 {
        self.total_lambda() + self.total_mu()
    }

    /// Builds the full flag chain (rules R1–R4; Figure 2 for n = 3).
    pub fn build_full_chain(&self) -> FlagChain {
        FlagChain::build(self)
    }

    /// The full flag chain as a never-materialised operator
    /// ([`crate::matfree`]) — O(2ⁿ) memory instead of the chain's
    /// O(n²·2ⁿ) transition list.
    pub fn matrix_free_op(&self) -> FlagChainOp {
        FlagChainOp::new(self)
    }

    /// The backend every default-path query runs on: the matrix-free
    /// operator ([`FlagChainOp`]) at every n. Its refined solve keeps
    /// working precision in the domino regime, and it is the faster
    /// backend from n = 4 up. The materialised chain serves only the
    /// `*_with` calls that force [`SolverStrategy::Dense`] or
    /// [`SolverStrategy::GaussSeidel`].
    pub fn solver_strategy(&self) -> SolverStrategy {
        SolverStrategy::MatrixFree
    }

    /// The absorption-solve backend for this model at `strategy`:
    /// either the materialised chain or the matrix-free operator.
    fn chain_solver(&self, strategy: SolverStrategy) -> ChainSolver {
        match strategy {
            SolverStrategy::MatrixFree => ChainSolver::MatrixFree(self.matrix_free_op()),
            s => ChainSolver::Materialized(self.build_full_chain(), s),
        }
    }

    /// Mean inter-recovery-line interval E\[X\] (paper §2.3-I).
    ///
    /// One matrix-free solve ([`FlagChainOp::mean_absorption_time`]) at
    /// every n, from the n = 2 toy chain to the n ≥ 20 regime. The solve
    /// refines itself on a cancellation-free residual (the
    /// **Refinement** of [`crate::matfree`]), so domino-regime models with
    /// E\[X\] up to about 10¹² keep working precision; an answer is
    /// returned only with a small residual or a verified error estimate,
    /// and the solve panics, naming n, its residual and its correction,
    /// otherwise.
    ///
    /// ```
    /// use rbmarkov::paper::AsyncParams;
    ///
    /// // Table 1 case 1: all rates 1, exact E[X] = 2.5 (the paper's
    /// // printed 2.598 carries a finite-run simulation bias).
    /// let ex = AsyncParams::symmetric(3, 1.0, 1.0).mean_interval();
    /// assert!((ex - 2.5).abs() < 1e-9);
    /// // λ = 0: no interactions, so X ~ Exp(Σμ) and E[X] = 1/3.
    /// let free = AsyncParams::symmetric(3, 1.0, 0.0).mean_interval();
    /// assert!((free - 1.0 / 3.0).abs() < 1e-9);
    /// ```
    pub fn mean_interval(&self) -> f64 {
        self.mean_interval_with(self.solver_strategy())
    }

    /// [`AsyncParams::mean_interval`] on a caller-chosen backend —
    /// the conformance matrix and the `markov_solver` bench use this to
    /// pit the backends against each other on identical models.
    pub fn mean_interval_with(&self, strategy: SolverStrategy) -> f64 {
        self.chain_solver(strategy).mean_interval()
    }

    /// Density f_X(t) at each requested time (paper Figure 6), from the
    /// same absorption sequence as [`AsyncParams::interval_cdf_batch`].
    /// Negative times evaluate to 0. Non-finite times panic.
    pub fn interval_density(&self, ts: &[f64]) -> Vec<f64> {
        self.distribution(self.solver_strategy(), Column::Inflow, ts)
    }

    /// CDF of X at `t`: one evaluation of
    /// [`AsyncParams::interval_cdf_batch`], bit for bit. Negative `t`
    /// evaluates to 0. Non-finite times panic.
    pub fn interval_cdf(&self, t: f64) -> f64 {
        assert!(t.is_finite(), "invalid time {t}");
        self.interval_cdf_batch(&[t])[0]
    }

    /// CDF of X at **many** times from a single uniformization pass —
    /// the evaluation hook for goodness-of-fit gates (empirical CDF at
    /// thousands of sample points vs this analytic one). Negative times
    /// evaluate to 0.
    ///
    /// The pass stops once the survival function has become one
    /// exponential, after about the chain's mixing time (the **Geometric
    /// tail** of [`crate::matfree`]), so its cost does not grow with
    /// E\[X\]: a 64-point batch up to 6·E\[X\] takes milliseconds at
    /// E\[X\] = 4·10⁵. Non-finite times panic.
    pub fn interval_cdf_batch(&self, ts: &[f64]) -> Vec<f64> {
        self.interval_cdf_batch_with(self.solver_strategy(), ts)
    }

    /// [`AsyncParams::interval_cdf_batch`] on a caller-chosen backend.
    pub fn interval_cdf_batch_with(&self, strategy: SolverStrategy, ts: &[f64]) -> Vec<f64> {
        self.distribution(strategy, Column::Absorbed, ts)
    }

    /// Survival (tail) function P(X > t) at many times, from the same
    /// absorption sequence and backend as
    /// [`AsyncParams::interval_cdf_batch`]. It mixes the transient mass,
    /// summed over the transient states, so it keeps full *relative*
    /// precision deep in the tail (S ≤ 1e-12), where `1 − interval_cdf(t)`
    /// has no digits left, and answers stiff models in milliseconds. This is
    /// the exact survival oracle the rare-event splitting gates compare
    /// against. Negative times evaluate to 1; non-finite times panic.
    pub fn interval_survival_batch(&self, ts: &[f64]) -> Vec<f64> {
        self.distribution(self.solver_strategy(), Column::Transient, ts)
    }

    /// The time at which the interval tail reaches `p` (P(X > t) = p),
    /// for p as deep as 1e-12 — the level-placement oracle for
    /// multilevel splitting: the bracket-and-bisect search of
    /// [`AsyncParams::interval_quantile`] on the survival function, with
    /// no mean solve first. Panics if `p` is outside `(1e-300, 1)`.
    pub fn interval_tail_time(&self, p: f64) -> f64 {
        assert!(
            p > 1e-300 && p < 1.0,
            "survival level {p} out of (1e-300, 1)"
        );
        self.crossing(self.solver_strategy(), Column::Transient, p)
    }

    /// Second moment E\[X²\] of the inter-line interval.
    pub fn interval_second_moment(&self) -> f64 {
        self.chain_solver(self.solver_strategy()).second_moment()
    }

    /// Variance of the inter-line interval.
    pub fn interval_variance(&self) -> f64 {
        let (m1, m2) = self.chain_solver(self.solver_strategy()).moments();
        (m2 - m1 * m1).max(0.0)
    }

    /// The length-biased mean E\[X²\]/E\[X\]: the expected length of the
    /// interval *containing a random instant* (inspection paradox).
    /// Relevant when comparing against measurement procedures that
    /// sample intervals by observation rather than by renewal counting
    /// — a candidate explanation for the paper's Table 1 E(X) row
    /// sitting a few percent above the exact renewal mean.
    pub fn length_biased_mean_interval(&self) -> f64 {
        self.interval_second_moment() / self.mean_interval()
    }

    /// The p-quantile of X (0 < p < 1) by bisection on the CDF —
    /// e.g. `interval_quantile(0.99)` bounds the rollback exposure a
    /// time-critical task must budget for under the asynchronous
    /// scheme.
    ///
    /// Every probe of the bracket-and-bisect search is a Poisson mixture
    /// over one lazily extended uniformization, so the whole search
    /// costs a single jump-chain propagation to the bracket's horizon,
    /// or only to the chain's mixing time once the survival function has
    /// become one exponential (the **Geometric tail** of
    /// [`crate::matfree`]). Past 2¹⁰ jump steps each probe takes that
    /// tail in closed form, so a quantile at E\[X\] = 4·10⁵ costs
    /// milliseconds instead of about 7·10⁷ steps, and agrees with a
    /// 40-digit reference to 1e-13.
    pub fn interval_quantile(&self, p: f64) -> f64 {
        self.interval_quantile_with(self.solver_strategy(), p)
    }

    /// [`AsyncParams::interval_quantile`] on a caller-chosen backend —
    /// lets the conformance tests pin matrix-free quantiles against the
    /// dense reference.
    pub fn interval_quantile_with(&self, strategy: SolverStrategy, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p) && p > 0.0,
            "quantile level out of (0,1)"
        );
        self.crossing(strategy, Column::Absorbed, p)
    }

    /// Column `c` of the absorption sequence on `strategy`'s backend at
    /// every time in `ts`.
    fn distribution(&self, strategy: SolverStrategy, c: Column, ts: &[f64]) -> Vec<f64> {
        self.chain_solver(strategy).seq().eval_at(c, ts)
    }

    /// The time at which column `c` crosses `level`, searched from
    /// 1/Σμ on `strategy`'s backend.
    fn crossing(&self, strategy: SolverStrategy, c: Column, level: f64) -> f64 {
        self.chain_solver(strategy)
            .seq()
            .crossing(c, level, 1.0 / self.total_mu())
    }

    /// E\[Lᵢ\]: mean number of states saved by `Pᵢ` during X.
    ///
    /// Exact by Poisson thinning — RPs of `Pᵢ` arrive at rate μᵢ
    /// throughout the interval regardless of the flag state, so
    /// E\[Lᵢ\] = μᵢ·E\[X\]. (The split-chain construction of the paper,
    /// [`SplitChain`], reproduces this; see its tests.)
    pub fn mean_rp_count(&self, i: usize) -> f64 {
        assert!(i < self.n());
        self.mu[i] * self.mean_interval()
    }

    /// E\[Lᵢ\] computed by the paper's `Y_d` split-chain construction
    /// (§2.3-II, Figure 4): expected number of arrivals into the split
    /// states `S_u′` before absorption. With terminal arrivals included
    /// this equals μᵢ·E\[X\]; the paper's own statistic excludes arrivals
    /// at the terminal state, which [`SplitChain::expected_rp_count`]
    /// exposes as an option.
    pub fn mean_rp_count_yd(&self, i: usize, include_terminal: bool) -> f64 {
        SplitChain::build(self, i).expected_rp_count(include_terminal)
    }
}

/// One absorption-solve backend bound to a concrete model: either the
/// materialised chain (dense GTH or CSR Gauss–Seidel over its CSR
/// generator, for the forcing `*_with` calls) or the never-materialised
/// bit-mask operator (every default-path query).
enum ChainSolver {
    Materialized(FlagChain, SolverStrategy),
    MatrixFree(FlagChainOp),
}

impl ChainSolver {
    fn mean_interval(&self) -> f64 {
        match self {
            ChainSolver::Materialized(chain, s) => {
                chain.ctmc.mean_absorption_time_with(FlagChain::START, *s)
            }
            ChainSolver::MatrixFree(op) => op.mean_absorption_time(),
        }
    }

    /// The absorption-time distribution as a lazily extended
    /// uniformization: every distribution query evaluates it.
    fn seq(&self) -> AbsorptionSeq<'_> {
        match self {
            ChainSolver::Materialized(chain, _) => chain.ctmc.absorption_seq(FlagChain::START),
            ChainSolver::MatrixFree(op) => op.absorption_seq(),
        }
    }

    fn second_moment(&self) -> f64 {
        match self {
            ChainSolver::Materialized(chain, _) => {
                chain.ctmc.absorption_time_second_moment(FlagChain::START)
            }
            ChainSolver::MatrixFree(op) => op.absorption_time_second_moment(),
        }
    }

    /// (E\[X\], E\[X²\]) — on the matrix-free path the mean rides the
    /// second-moment recursion's τ solve instead of paying its own.
    fn moments(&self) -> (f64, f64) {
        match self {
            ChainSolver::Materialized(..) => (self.mean_interval(), self.second_moment()),
            ChainSolver::MatrixFree(op) => op.absorption_time_moments(),
        }
    }
}

/// The transition-rule tag attached to every edge of the flag chain,
/// used when rendering Figure 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// R1: process `p` establishes an RP, flag 0 → 1.
    R1 {
        /// The process establishing the RP.
        p: usize,
    },
    /// R2: interaction between two flag-1 processes clears both.
    R2 {
        /// The interacting pair.
        pair: (usize, usize),
    },
    /// R3: interaction clears the flag of `mover` (its partner was
    /// already 0).
    R3 {
        /// The process whose flag is cleared.
        mover: usize,
        /// The flag-0 partner.
        partner: usize,
    },
    /// R4: direct S_r → S_{r+1} (a fresh RP while every flag is 1).
    R4,
}

/// The full 2ⁿ+1-state flag chain (paper Figure 2 for n = 3).
///
/// State indexing follows the paper's convention:
/// * `0` — the entry state S_r,
/// * `mask + 1` for each intermediate flag vector `mask` (bit i of
///   `mask` is xᵢ₊₁), so the all-ones vector maps to index 2ⁿ,
/// * `2ⁿ` — the absorbing state S_{r+1}.
#[derive(Clone, Debug)]
pub struct FlagChain {
    /// The underlying CTMC.
    pub ctmc: Ctmc,
    /// Number of processes.
    pub n: usize,
    /// The tagged edge list (for rendering and audits).
    pub transitions: Vec<(usize, usize, f64, Rule)>,
}

impl FlagChain {
    /// Index of the entry state S_r.
    pub const START: usize = 0;

    /// Index of the absorbing state S_{r+1}.
    pub fn absorbing(&self) -> usize {
        1 << self.n
    }

    /// Total number of states, 2ⁿ + 1.
    pub fn n_states(&self) -> usize {
        (1 << self.n) + 1
    }

    /// Index of the intermediate state for a flag `mask`.
    ///
    /// The all-ones mask maps onto the absorbing index (the paper treats
    /// the all-ones intermediate vector and S_{r+1} as the same state).
    pub fn state_of_mask(&self, mask: u32) -> usize {
        (mask as usize) + 1
    }

    /// Human-readable label of a state (for the fig2 rendering).
    pub fn state_label(&self, idx: usize) -> String {
        if idx == Self::START {
            return "S_r".to_string();
        }
        if idx == self.absorbing() {
            return "S_{r+1}".to_string();
        }
        let mask = (idx - 1) as u32;
        let bits: String = (0..self.n)
            .map(|i| if mask >> i & 1 == 1 { '1' } else { '0' })
            .collect();
        format!("({bits})")
    }

    fn build(p: &AsyncParams) -> FlagChain {
        let n = p.n();
        assert!(
            n <= 20,
            "flag chain with n = {n} exceeds the 2^20-state cap"
        );
        let full: u32 = (1u32 << n) - 1;
        let absorbing = 1usize << n;
        let mut transitions: Vec<(usize, usize, f64, Rule)> = Vec::new();

        // R4: S_r → S_{r+1} directly at rate Σ μ_k.
        transitions.push((FlagChain::START_IDX, absorbing, p.total_mu(), Rule::R4));
        // From S_r (physically all flags 1), interactions clear pairs (R2).
        for i in 0..n {
            for j in i + 1..n {
                let rate = p.lambda(i, j);
                if rate > 0.0 {
                    let to = (full & !(1 << i) & !(1 << j)) as usize + 1;
                    transitions.push((FlagChain::START_IDX, to, rate, Rule::R2 { pair: (i, j) }));
                }
            }
        }

        // Intermediate states: every mask except all-ones.
        for mask in 0..full {
            let from = mask as usize + 1;
            // R1: flag-0 process establishes an RP.
            for i in 0..n {
                if mask >> i & 1 == 0 {
                    let new_mask = mask | (1 << i);
                    let to = if new_mask == full {
                        absorbing
                    } else {
                        new_mask as usize + 1
                    };
                    transitions.push((from, to, p.mu()[i], Rule::R1 { p: i }));
                }
            }
            // R2/R3: interactions.
            for i in 0..n {
                for j in i + 1..n {
                    let rate = p.lambda(i, j);
                    if rate == 0.0 {
                        continue;
                    }
                    let bi = mask >> i & 1 == 1;
                    let bj = mask >> j & 1 == 1;
                    match (bi, bj) {
                        (true, true) => {
                            let to = (mask & !(1 << i) & !(1 << j)) as usize + 1;
                            transitions.push((from, to, rate, Rule::R2 { pair: (i, j) }));
                        }
                        (true, false) => {
                            let to = (mask & !(1 << i)) as usize + 1;
                            transitions.push((
                                from,
                                to,
                                rate,
                                Rule::R3 {
                                    mover: i,
                                    partner: j,
                                },
                            ));
                        }
                        (false, true) => {
                            let to = (mask & !(1 << j)) as usize + 1;
                            transitions.push((
                                from,
                                to,
                                rate,
                                Rule::R3 {
                                    mover: j,
                                    partner: i,
                                },
                            ));
                        }
                        // Both flags 0: the interaction changes nothing.
                        (false, false) => {}
                    }
                }
            }
        }

        let plain: Vec<(usize, usize, f64)> =
            transitions.iter().map(|&(f, t, r, _)| (f, t, r)).collect();
        FlagChain {
            ctmc: Ctmc::from_transitions(absorbing + 1, &plain),
            n,
            transitions,
        }
    }

    const START_IDX: usize = 0;

    /// E\[X\] from the entry state.
    pub fn mean_interval(&self) -> f64 {
        self.ctmc.mean_absorption_time(Self::START)
    }

    /// f_X(t) at each requested time.
    pub fn interval_density(&self, ts: &[f64]) -> Vec<f64> {
        self.ctmc.absorption_density(Self::START, ts)
    }
}

/// The lumped chain for homogeneous parameters (paper Figure 3, rules
/// R1′–R4′): intermediate states are grouped by u = #{i : xᵢ = 1}.
///
/// State indexing: `0` = S_r; `1 + u` = S̃_u for u = 0,…,n−1;
/// `n + 1` = S_{r+1} (absorbing). Total n + 2 states.
#[derive(Clone, Debug)]
pub struct SymmetricChain {
    /// The underlying CTMC.
    pub ctmc: Ctmc,
    /// Number of processes.
    pub n: usize,
    /// Tagged edges (rule names use the primed labels of Figure 3).
    pub transitions: Vec<(usize, usize, f64, &'static str)>,
}

impl SymmetricChain {
    /// Index of the entry state S_r.
    pub const START: usize = 0;

    /// Builds the lumped chain for `n` processes with μᵢ = `mu` and
    /// λᵢⱼ = `lambda`.
    ///
    /// # Panics
    /// Panics unless `n ≥ 2`, `mu > 0`, `lambda ≥ 0`.
    pub fn build(n: usize, mu: f64, lambda: f64) -> Self {
        assert!(n >= 2 && mu > 0.0 && lambda >= 0.0);
        let absorbing = n + 1;
        let state_of_u = |u: usize| 1 + u;
        let mut transitions: Vec<(usize, usize, f64, &'static str)> = Vec::new();

        // R4′: direct entry → absorbing at rate nμ.
        transitions.push((Self::START, absorbing, n as f64 * mu, "R4'"));
        // From S_r, a pair interaction drops to u = n − 2 (n·(n−1)/2 pairs).
        if lambda > 0.0 && n >= 2 {
            let rate = (n * (n - 1) / 2) as f64 * lambda;
            transitions.push((Self::START, state_of_u(n - 2), rate, "R2'"));
        }
        for u in 0..n {
            let from = state_of_u(u);
            // R1′: a flag-0 process checkpoints, u → u + 1 (u+1 = n absorbs).
            let up_rate = (n - u) as f64 * mu;
            let to = if u + 1 == n {
                absorbing
            } else {
                state_of_u(u + 1)
            };
            transitions.push((from, to, up_rate, "R1'"));
            if lambda > 0.0 {
                // R2′: two flag-1 processes interact, u → u − 2.
                if u >= 2 {
                    let rate = (u * (u - 1) / 2) as f64 * lambda;
                    transitions.push((from, state_of_u(u - 2), rate, "R2'"));
                }
                // R3′: a flag-1 process interacts with a flag-0 one, u → u − 1.
                if u >= 1 && u < n {
                    let rate = (u * (n - u)) as f64 * lambda;
                    transitions.push((from, state_of_u(u - 1), rate, "R3'"));
                }
            }
        }
        let plain: Vec<(usize, usize, f64)> =
            transitions.iter().map(|&(f, t, r, _)| (f, t, r)).collect();
        SymmetricChain {
            ctmc: Ctmc::from_transitions(n + 2, &plain),
            n,
            transitions,
        }
    }

    /// E\[X\] from the entry state.
    pub fn mean_interval(&self) -> f64 {
        self.ctmc.mean_absorption_time(Self::START)
    }

    /// f_X(t) at each requested time.
    pub fn interval_density(&self, ts: &[f64]) -> Vec<f64> {
        self.ctmc.absorption_density(Self::START, ts)
    }
}

/// Mean interval for homogeneous parameters via the lumped chain —
/// O(n) states instead of 2ⁿ, used for the Figure 5 sweeps at large n.
pub fn mean_interval_symmetric(n: usize, mu: f64, lambda: f64) -> f64 {
    SymmetricChain::build(n, mu, lambda).mean_interval()
}

/// A state of the split chain `Y_d` (paper §2.3-II, Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitState {
    /// The entry state S_r.
    Start,
    /// An intermediate flag state with the tagged process's flag 0.
    Plain(u32),
    /// `S_u′`: tagged flag is 1, last arrival was the tagged process's RP.
    Prime(u32),
    /// `S_u″`: tagged flag is 1, last arrival was anything else.
    DoublePrime(u32),
    /// The terminal state S_{r+1}.
    Terminal,
}

/// One tagged edge of the split chain.
#[derive(Clone, Copy, Debug)]
pub struct SplitEdge {
    /// Source state index.
    pub from: usize,
    /// Destination state index.
    pub to: usize,
    /// One-step probability (rate / G).
    pub prob: f64,
    /// Whether this edge is an RP event of the tagged process (an
    /// "arrival due to the occurrence of RP's in Pᵢ", in the paper's
    /// words — exactly the transitions whose arrivals count toward Lᵢ).
    pub marked: bool,
}

/// The paper's discrete chain `Y_d` with state splitting for one tagged
/// process: used to compute E\[Lᵢ\] and to render Figure 4.
///
/// One step of the chain corresponds to one *event* in the system — an
/// RP establishment in any process or an interaction of any pair — so
/// each step has probability rate/G, with G = Σλ + Σμ the paper's
/// normalization factor. Events that do not change the flag vector
/// (re-saves by non-tagged flag-1 processes, interactions between two
/// flag-0 processes) are self-loops.
#[derive(Clone, Debug)]
pub struct SplitChain {
    /// The underlying DTMC (merged probabilities, self-loops filled).
    pub dtmc: Dtmc,
    /// State labels, indexed by DTMC state id.
    pub labels: Vec<SplitState>,
    /// Tagged edges, *before* merging (parallel edges possible).
    pub edges: Vec<SplitEdge>,
    /// The tagged process.
    pub tagged: usize,
    /// The normalization factor G.
    pub g: f64,
    start: usize,
    terminal: usize,
}

impl SplitChain {
    /// Builds `Y_d` for `params` with process `tagged` under the lens.
    ///
    /// ```
    /// use rbmarkov::paper::{AsyncParams, SplitChain};
    ///
    /// let params = AsyncParams::symmetric(3, 1.0, 1.0);
    /// let sc = SplitChain::build(&params, 0);
    /// // Two independent solvers, one answer: E[X] = E[steps]/G must
    /// // equal the CTMC absorption solve.
    /// let ex = sc.expected_steps() / sc.g;
    /// assert!((ex - params.mean_interval()).abs() < 1e-9);
    /// // And the paper's E[Lᵢ] = μᵢ·E[X] identity holds exactly.
    /// assert!((sc.expected_rp_count(true) - 1.0 * ex).abs() < 1e-9);
    /// ```
    pub fn build(params: &AsyncParams, tagged: usize) -> Self {
        let n = params.n();
        assert!(tagged < n, "tagged process out of range");
        assert!(n <= 16, "split chain with n = {n} exceeds the size cap");
        let full: u32 = (1u32 << n) - 1;
        let g = params.normalization();

        // Enumerate states: Start, Terminal, and per intermediate mask
        // either one Plain (tagged flag 0) or a Prime/DoublePrime pair.
        let mut labels = vec![SplitState::Start, SplitState::Terminal];
        let start = 0usize;
        let terminal = 1usize;
        let mut plain_id = vec![usize::MAX; full as usize];
        let mut prime_id = vec![usize::MAX; full as usize];
        let mut dprime_id = vec![usize::MAX; full as usize];
        for mask in 0..full {
            if mask >> tagged & 1 == 0 {
                plain_id[mask as usize] = labels.len();
                labels.push(SplitState::Plain(mask));
            } else {
                prime_id[mask as usize] = labels.len();
                labels.push(SplitState::Prime(mask));
                dprime_id[mask as usize] = labels.len();
                labels.push(SplitState::DoublePrime(mask));
            }
        }
        let n_states = labels.len();

        // Destination of an arrival at `mask` caused by event `by_tagged_rp`.
        let dest = |mask: u32, by_tagged_rp: bool| -> usize {
            if mask == full {
                return terminal;
            }
            if mask >> tagged & 1 == 0 {
                plain_id[mask as usize]
            } else if by_tagged_rp {
                prime_id[mask as usize]
            } else {
                dprime_id[mask as usize]
            }
        };

        let mut edges: Vec<SplitEdge> = Vec::new();
        // Emits all outgoing edges for a source whose physical flag
        // vector is `mask` (Start uses the all-ones vector).
        let mut emit = |from: usize, mask: u32| {
            for k in 0..n {
                let p = params.mu()[k] / g;
                let marked = k == tagged;
                if mask >> k & 1 == 0 {
                    // R1-type: flag flips to 1 (may complete the line).
                    edges.push(SplitEdge {
                        from,
                        to: dest(mask | (1 << k), marked),
                        prob: p,
                        marked,
                    });
                } else if marked {
                    // Tagged process re-saves while its flag is already 1:
                    // flags unchanged, but it *is* an arrival at S_u′
                    // (or absorbs the chain from S_r).
                    let to = if mask == full {
                        terminal
                    } else {
                        prime_id[mask as usize]
                    };
                    edges.push(SplitEdge {
                        from,
                        to,
                        prob: p,
                        marked: true,
                    });
                } else if mask == full {
                    // Untagged re-save from S_r completes a line (R4).
                    edges.push(SplitEdge {
                        from,
                        to: terminal,
                        prob: p,
                        marked: false,
                    });
                }
                // Untagged re-save in an intermediate state: self-loop,
                // left to the DTMC's automatic filler.
            }
            for i in 0..n {
                for j in i + 1..n {
                    let rate = params.lambda(i, j);
                    if rate == 0.0 {
                        continue;
                    }
                    let p = rate / g;
                    let bi = mask >> i & 1 == 1;
                    let bj = mask >> j & 1 == 1;
                    let new_mask = match (bi, bj) {
                        (true, true) => mask & !(1 << i) & !(1 << j),
                        (true, false) => mask & !(1 << i),
                        (false, true) => mask & !(1 << j),
                        (false, false) => continue, // no flag change: self-loop
                    };
                    edges.push(SplitEdge {
                        from,
                        to: dest(new_mask, false),
                        prob: p,
                        marked: false,
                    });
                }
            }
        };

        emit(start, full);
        for mask in 0..full {
            let from = if mask >> tagged & 1 == 0 {
                plain_id[mask as usize]
            } else {
                prime_id[mask as usize]
            };
            emit(from, mask);
            if mask >> tagged & 1 == 1 {
                // The double-prime copy has identical departures.
                emit(dprime_id[mask as usize], mask);
            }
        }

        // Drop pure self-edges that are unmarked (they carry no
        // information; the DTMC filler restores the mass) — keep marked
        // self-edges (tagged re-saves into Prime) out of the matrix too:
        // the DTMC must not double-count them as leaving mass, since the
        // physical state does not change. We therefore exclude *all*
        // from == to edges from the transition matrix but keep them in
        // `edges` for arrival counting.
        let matrix_edges: Vec<(usize, usize, f64)> = edges
            .iter()
            .filter(|e| e.from != e.to)
            .map(|e| (e.from, e.to, e.prob))
            .collect();

        SplitChain {
            dtmc: Dtmc::from_transitions(n_states, &matrix_edges),
            labels,
            edges,
            tagged,
            g,
            start,
            terminal,
        }
    }

    /// The entry state index.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The terminal state index.
    pub fn terminal(&self) -> usize {
        self.terminal
    }

    /// E\[Lᵢ\]: expected number of marked arrivals (tagged-process RP
    /// events) before absorption. With `include_terminal` the RP that
    /// completes the recovery line (arrival at S_{r+1}) is counted —
    /// this variant equals μᵢ·E\[X\] exactly; without it, the statistic
    /// matches the paper's "visits to S_u′" description literally.
    pub fn expected_rp_count(&self, include_terminal: bool) -> f64 {
        let is_transient: Vec<bool> = (0..self.dtmc.n_states())
            .map(|s| s != self.terminal)
            .collect();
        let visits = self.dtmc.expected_visits(self.start, &is_transient);
        self.edges
            .iter()
            .filter(|e| e.marked && (include_terminal || e.to != self.terminal))
            .map(|e| visits[e.from] * e.prob)
            .sum()
    }

    /// Expected number of steps (events) before absorption; E\[X\] =
    /// steps / G, which cross-checks the CTMC solve.
    pub fn expected_steps(&self) -> f64 {
        let is_transient: Vec<bool> = (0..self.dtmc.n_states())
            .map(|s| s != self.terminal)
            .collect();
        self.dtmc.expected_steps(self.start, &is_transient)
    }

    /// Human-readable label for a state (fig4 rendering).
    pub fn state_label(&self, idx: usize) -> String {
        let bits = |mask: u32| -> String {
            (0..16)
                .take_while(|&i| (1u32 << i) <= mask || i < 2)
                .map(|i| if mask >> i & 1 == 1 { '1' } else { '0' })
                .collect()
        };
        match self.labels[idx] {
            SplitState::Start => "S_r".into(),
            SplitState::Terminal => "S_{r+1}".into(),
            SplitState::Plain(m) => format!("({})", bits(m)),
            SplitState::Prime(m) => format!("({})'", bits(m)),
            SplitState::DoublePrime(m) => format!("({})''", bits(m)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 6;
        let mut seen = vec![false; n * (n - 1) / 2];
        for i in 0..n {
            for j in i + 1..n {
                let k = pair_index(n, i, j);
                assert!(!seen[k], "collision at ({i},{j})");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn params_validate() {
        assert!(AsyncParams::new(vec![1.0], vec![]).is_err());
        assert!(AsyncParams::new(vec![1.0, 0.0], vec![1.0]).is_err());
        assert!(AsyncParams::new(vec![1.0, 1.0], vec![-1.0]).is_err());
        assert!(AsyncParams::new(vec![1.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(AsyncParams::new(vec![1.0, 1.0], vec![0.5]).is_ok());
    }

    #[test]
    fn rho_counts_ordered_pairs() {
        // Case 1 of Table 1: ρ = 2·3/3 = 2.
        let p = AsyncParams::symmetric(3, 1.0, 1.0);
        assert!((p.rho() - 2.0).abs() < 1e-12);
        assert!((p.normalization() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn three_uses_paper_pair_order() {
        let p = AsyncParams::three((1.0, 2.0, 3.0), (0.1, 0.2, 0.3));
        assert_eq!(p.lambda(0, 1), 0.1); // λ12
        assert_eq!(p.lambda(1, 2), 0.2); // λ23
        assert_eq!(p.lambda(0, 2), 0.3); // λ13
        assert_eq!(p.lambda(2, 0), 0.3); // symmetric access
    }

    #[test]
    fn full_chain_has_expected_size() {
        let p = AsyncParams::symmetric(3, 1.0, 1.0);
        let chain = p.build_full_chain();
        assert_eq!(chain.n_states(), 9); // 2³ + 1
        assert_eq!(chain.absorbing(), 8);
        assert!(chain.ctmc.is_absorbing(8));
        assert!(!chain.ctmc.is_absorbing(0));
        // Exit rate of S_r: Σμ (R4) + Σ_{pairs} λ (R2) = 3 + 3.
        assert!((chain.ctmc.exit_rate(0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn two_process_mean_interval_closed_form() {
        // n = 2: from S_r, absorb at rate 2μ or drop to (0,0) at rate λ.
        // From (0,0): each RP (rate μ each) raises u; from (1,0)/(0,1):
        // absorb at μ or fall back at λ. Solvable by hand:
        //   τ00 = 1/(2μ) + τ10·… — instead compare against the lumped
        // chain and a 3-state manual solve.
        let (mu, lambda) = (1.0, 1.0);
        let p = AsyncParams::symmetric(2, mu, lambda);
        let full = p.mean_interval();
        let lumped = mean_interval_symmetric(2, mu, lambda);
        assert!((full - lumped).abs() < 1e-10, "{full} vs {lumped}");

        // Manual solve of the lumped 2-process chain:
        // states: S_r, S̃0, S̃1, absorbing.
        //   τ(S_r) = 1/(2μ+λ) + λ/(2μ+λ)·τ0
        //   τ0 = 1/(2μ) + τ1
        //   τ1 = 1/(μ+λ) + λ/(μ+λ)·τ0
        let t1_coeff = lambda / (mu + lambda);
        let t0 = (1.0 / (2.0 * mu) + 1.0 / (mu + lambda)) / (1.0 - t1_coeff);
        let tsr = 1.0 / (2.0 * mu + lambda) + lambda / (2.0 * mu + lambda) * t0;
        assert!((full - tsr).abs() < 1e-10, "{full} vs manual {tsr}");
    }

    #[test]
    fn lumpability_full_equals_symmetric() {
        for n in 2..=6 {
            for (mu, lambda) in [(1.0, 1.0), (0.7, 2.0), (2.0, 0.3)] {
                let full = AsyncParams::symmetric(n, mu, lambda).mean_interval();
                let lumped = mean_interval_symmetric(n, mu, lambda);
                assert!(
                    (full - lumped).abs() < 1e-8 * full,
                    "n={n} μ={mu} λ={lambda}: {full} vs {lumped}"
                );
            }
        }
    }

    #[test]
    fn lumped_density_matches_full() {
        let (n, mu, lambda) = (4, 1.0, 0.8);
        let ts = [0.1, 0.5, 1.0, 2.0, 4.0];
        let f_full = AsyncParams::symmetric(n, mu, lambda)
            .build_full_chain()
            .interval_density(&ts);
        let f_lump = SymmetricChain::build(n, mu, lambda).interval_density(&ts);
        for (a, b) in f_full.iter().zip(&f_lump) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn table1_case1_mean_interval() {
        // Paper Table 1, case 1 reports E(X) = 2.598 and E(L₁) = 2.500
        // from simulation. The exact answer is E[X] = 2.5: the paper's
        // own E(Lᵢ) rows equal μᵢ·2.5 exactly (Poisson thinning gives
        // E[Lᵢ] = μᵢ·E[X]), so the E(X) row carries a ~4 % simulation
        // bias while the E(L) rows are consistent with the chain.
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let ex = p.mean_interval();
        assert!((ex - 2.5).abs() < 1e-9, "analytic E[X] = {ex}, want 2.5");
    }

    #[test]
    fn table1_case2_mean_interval_matches_paper_l_rows() {
        // Case 2: μ = (1.5, 1.0, 0.5). Paper's E(L) rows are
        // (4.847, 3.231, 1.616) = μᵢ · 3.231, so E[X] = 3.231.
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 1.0, 1.0));
        let ex = p.mean_interval();
        assert!(
            (ex - 3.231).abs() < 0.01,
            "analytic E[X] = {ex}, want ≈3.231"
        );
    }

    #[test]
    fn interval_variance_is_positive_and_consistent() {
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let m1 = p.mean_interval();
        let m2 = p.interval_second_moment();
        let var = p.interval_variance();
        assert!(var > 0.0);
        assert!((m2 - (var + m1 * m1)).abs() < 1e-9);
        // The near-zero R4 spike makes X over-dispersed relative to an
        // exponential of the same mean: CV² > 1.
        assert!(var / (m1 * m1) > 1.0, "CV² = {}", var / (m1 * m1));
        // Length-biased mean exceeds the renewal mean.
        assert!(p.length_biased_mean_interval() > m1);
    }

    #[test]
    fn quantiles_bracket_the_mean_sanely() {
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let q50 = p.interval_quantile(0.5);
        let q95 = p.interval_quantile(0.95);
        let q99 = p.interval_quantile(0.99);
        assert!(q50 < q95 && q95 < q99);
        // Heavy right tail (CV² > 1): median below the mean.
        assert!(q50 < p.mean_interval(), "median {q50} vs mean 2.5");
        // CDF round-trips.
        assert!((p.interval_cdf(q95) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn cdf_batch_matches_pointwise_on_every_backend() {
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 0.5, 1.5));
        let ts = [-0.5, 0.0, 0.1, 0.7, 1.3, 2.9, 6.0];
        for strategy in [
            SolverStrategy::Dense,
            SolverStrategy::GaussSeidel,
            SolverStrategy::MatrixFree,
        ] {
            let batch = p.interval_cdf_batch_with(strategy, &ts);
            for (&t, &f) in ts.iter().zip(&batch) {
                let want = p.interval_cdf_batch_with(strategy, &[t])[0];
                assert_eq!(
                    f.to_bits(),
                    want.to_bits(),
                    "{strategy:?} F({t}): batch {f} vs pointwise {want}"
                );
                if t < 0.0 {
                    assert_eq!(f, 0.0, "{strategy:?} F({t})");
                }
            }
            // Monotone in t over the non-negative points.
            for w in batch[1..].windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
        // The two genuinely independent uniformization paths (CSR chain
        // vs bit-rule operator) agree on the whole batch.
        let mat = p.interval_cdf_batch_with(SolverStrategy::Dense, &ts);
        let mf = p.interval_cdf_batch_with(SolverStrategy::MatrixFree, &ts);
        for (a, b) in mat.iter().zip(&mf) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn distribution_queries_share_one_time_domain() {
        // Every public entry on both backends: F = 0, S = 1 and f = 0 for
        // t < 0; NaN and ±∞ are refused, each with its entry's message.
        type Query = fn(&AsyncParams, f64) -> f64;
        let queries: [(Query, f64, &str); 4] = [
            (|p, t| p.interval_cdf(t), 0.0, "invalid time"),
            (|p, t| p.interval_cdf_batch(&[t])[0], 0.0, "invalid CDF"),
            (|p, t| p.interval_density(&[t])[0], 0.0, "invalid time"),
            (
                |p, t| p.interval_survival_batch(&[t])[0],
                1.0,
                "invalid survival",
            ),
        ];
        for p in [
            AsyncParams::three((1.5, 1.0, 0.5), (1.0, 0.5, 1.5)),
            AsyncParams::symmetric(9, 1.0, 0.5),
        ] {
            for (k, (query, before, refusal)) in queries.into_iter().enumerate() {
                for t in [-1e300, -1.0, -1e-300] {
                    assert_eq!(query(&p, t), before, "query {k}, n = {}, t = {t}", p.n());
                }
                for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let err = std::panic::catch_unwind(|| query(&p, t)).expect_err("accepted");
                    let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                    let msg = err.downcast_ref::<&str>().copied().unwrap_or(msg);
                    assert!(msg.starts_with(refusal), "query {k} at {t}: {msg:?}");
                }
            }
        }
    }

    #[test]
    fn tail_time_answers_domino_models() {
        // Domino-regime models whose mean solve misses its acceptance
        // residual: the tail time needs no mean, and must match the lumped
        // chain at 40 digits (`tests/stiff_tail_reference.py`).
        for (n, rho, want) in [
            (9, 8.0, 19651785.323456265),
            (12, 4.0, 12250625.375525627),
            (10, 16.0, 29084878955.900448),
        ] {
            let p = AsyncParams::symmetric(n, 1.0, rho / (n - 1) as f64);
            let got = p.interval_tail_time(1e-9);
            let rel = (got - want).abs() / want;
            assert!(
                rel <= 1e-12,
                "n = {n}, ρ = {rho}: t = {got}, reference {want} ({rel:.1e} relative)"
            );
        }
    }

    #[test]
    fn quantile_edge_levels_bracket_the_support() {
        // p → 0⁺: the quantile collapses toward 0 (the R4 spike gives X
        // positive density at 0⁺); p → 1⁻: the bracket doubling must
        // reach the far tail without tripping its guard, and the CDF
        // must round-trip at both extremes.
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let q_lo = p.interval_quantile(1e-7);
        assert!(q_lo > 0.0 && q_lo < 1e-5, "q(1e-7) = {q_lo}");
        let q_hi = p.interval_quantile(1.0 - 1e-7);
        assert!(q_hi > p.mean_interval(), "q(1−1e-7) = {q_hi}");
        assert!(q_hi.is_finite());
        assert!((p.interval_cdf(q_hi) - (1.0 - 1e-7)).abs() < 1e-9);
        assert!((p.interval_cdf(q_lo) - 1e-7).abs() < 1e-9);
    }

    #[test]
    fn quantile_stalled_corner_scenario() {
        // The conformance matrix's `corner/stalled-process` parameters:
        // one near-stalled process gates the line, so the upper
        // quantiles stretch far beyond the median.
        let p = AsyncParams::new(vec![2.0, 2.0, 0.05], vec![0.3, 0.3, 0.3]).unwrap();
        let q50 = p.interval_quantile(0.5);
        let q99 = p.interval_quantile(0.99);
        assert!(q50 < p.mean_interval());
        assert!(q99 > 3.0 * q50, "stalled tail: q99 {q99} vs median {q50}");
        assert!((p.interval_cdf(q99) - 0.99).abs() < 1e-6);
    }

    #[test]
    fn quantile_backends_agree_to_solver_precision() {
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 1.0, 1.0));
        for level in [0.05, 0.5, 0.9, 0.99] {
            let dense = p.interval_quantile_with(SolverStrategy::Dense, level);
            let mf = p.interval_quantile_with(SolverStrategy::MatrixFree, level);
            assert!(
                (dense - mf).abs() < 1e-9 * dense.max(1.0),
                "q({level}): dense {dense} vs matrix-free {mf}"
            );
        }
    }

    #[test]
    fn exponential_case_quantiles_closed_form() {
        // λ = 0 ⇒ X ~ Exp(Σμ): q_p = −ln(1−p)/Σμ — including the
        // near-degenerate levels, where the relative agreement must
        // survive the bracket-and-bisect search.
        let p = AsyncParams::new(vec![1.0, 2.0], vec![0.0]).unwrap();
        for level in [1e-6, 0.25, 0.5, 0.9, 1.0 - 1e-6] {
            let want = -(1.0_f64 - level).ln() / 3.0;
            let got = p.interval_quantile(level);
            assert!(
                (got - want).abs() < 1e-6 * want.max(1e-3),
                "q({level}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn table1_quantiles_reproduce_pinned_bits() {
        // `interval_quantile(0.99)` and `(0.999)` of Table 1's five
        // cases, as f64 bits, recorded when the default path moved to the
        // matrix-free sequence at every n. These searches switch to the
        // geometric tail and must keep landing on the same bits.
        let cases = [
            (
                (1.0, 1.0, 1.0),
                (1.0, 1.0, 1.0),
                0x4032_41f1_a575_694e,
                0x403c_df76_8fb0_da12,
            ),
            (
                (1.5, 1.0, 0.5),
                (1.0, 1.0, 1.0),
                0x4038_480a_45ce_b6d0,
                0x4043_415f_31f5_0608,
            ),
            (
                (1.0, 1.0, 1.0),
                (1.5, 0.5, 1.0),
                0x4031_e983_61b3_06e0,
                0x403c_546d_58ba_37f8,
            ),
            (
                (1.5, 1.0, 0.5),
                (1.5, 0.5, 1.0),
                0x4037_063d_bd32_d706,
                0x4042_4dc0_2bda_aaaa,
            ),
            (
                (1.5, 1.0, 0.5),
                (0.5, 1.5, 1.0),
                0x4038_9ce1_3b13_6072,
                0x4043_7c3c_f69c_bdba,
            ),
        ];
        for (mu, lam, q99, q999) in cases {
            let p = AsyncParams::three(mu, lam);
            for (level, want) in [(0.99, q99), (0.999, q999)] {
                let got = p.interval_quantile(level);
                assert_eq!(got.to_bits(), want, "{mu:?} {lam:?}: q({level}) = {got}");
            }
            let op = p.matrix_free_op();
            let mut seq = op.absorption_seq();
            seq.eval(Column::Absorbed, p.interval_quantile(0.999));
            assert!(seq.tail().is_some(), "{mu:?} {lam:?}: no tail switch");
        }
    }

    /// Validated parameters with n ≤ 8, skewed μ and λ, about a quarter of
    /// the pairs idle, and λ scaled to ρ ∈ (0, 8].
    fn arb_skewed_params() -> impl Strategy<Value = AsyncParams> {
        (
            3usize..9,
            prop::collection::vec(0.2f64..3.0, 8),
            prop::collection::vec(0.05f64..1.0, 28),
            prop::collection::vec(0u32..4, 28),
            0.05f64..8.0,
        )
            .prop_map(|(n, mu, lam, idle, rho)| {
                let mu = mu[..n].to_vec();
                let mut lam: Vec<f64> = lam
                    .iter()
                    .zip(&idle)
                    .take(n * (n - 1) / 2)
                    .map(|(&l, &z)| if z == 0 { 0.0 } else { l })
                    .collect();
                let total: f64 = lam.iter().sum();
                if total > 0.0 {
                    let scale = rho * mu.iter().sum::<f64>() / (2.0 * total);
                    lam.iter_mut().for_each(|l| *l *= scale);
                }
                AsyncParams::new(mu, lam).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn geometric_tail_keeps_the_propagated_distribution(
            p in arb_skewed_params(),
            fracs in prop::collection::vec(0.0f64..1.0, 1..24),
        ) {
            // Up to six means, as the CDF-batch proptest asks, but at most
            // 4096 jump steps at S_r's exit rate, the largest: past the
            // closed-form threshold, within reach of the propagated
            // reference. On both backends the tailed CDF must match it,
            // lie in [0, 1] and never decrease, and the tailed S and f
            // must match theirs to 1e-10 relative.
            let mean = p.mean_interval_with(SolverStrategy::Dense);
            let t_max = (6.0 * mean).min(4096.0 / p.normalization());
            let mut ts: Vec<f64> = fracs.iter().map(|f| f * t_max).collect();
            ts.sort_by(f64::total_cmp);
            for strategy in [SolverStrategy::Dense, SolverStrategy::MatrixFree] {
                let solver = p.chain_solver(strategy);
                let mut tailed = solver.seq();
                let mut full = solver.seq().untailed();
                let got: Vec<f64> = ts.iter().map(|&t| tailed.eval(Column::Absorbed, t)).collect();
                for (&t, &g) in ts.iter().zip(&got) {
                    let want = full.eval(Column::Absorbed, t);
                    prop_assert!((g - want).abs() < 1e-10, "{strategy:?} F({t}): {g} vs {want}");
                    prop_assert!((0.0..=1.0).contains(&g), "{strategy:?} F({t}) = {g}");
                }
                for (k, f) in got.windows(2).enumerate() {
                    prop_assert!(f[1] >= f[0], "{strategy:?}: F decreases after t = {}", ts[k]);
                }
                let (mut tailed, mut full) = (solver.seq(), solver.seq().untailed());
                for &t in &ts {
                    for c in [Column::Transient, Column::Inflow] {
                        let (g, w) = (tailed.eval(c, t), full.eval(c, t));
                        prop_assert!((g - w).abs() <= 1e-10 * w, "{strategy:?} {c:?}({t}): {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_heterogeneous_rates() {
        // The same model solved three ways — dense GTH, CSR
        // Gauss–Seidel, matrix-free Krylov — must agree to solver
        // precision, at every size the dense reference can reach.
        for n in [3usize, 5, 7] {
            let mu: Vec<f64> = (0..n).map(|i| 0.7 + 0.3 * (i % 3) as f64).collect();
            let lambda: Vec<f64> = (0..n * (n - 1) / 2)
                .map(|k| 0.1 + 0.12 * (k % 4) as f64)
                .collect();
            let p = AsyncParams::new(mu, lambda).unwrap();
            let dense = p.mean_interval_with(SolverStrategy::Dense);
            let gs = p.mean_interval_with(SolverStrategy::GaussSeidel);
            let mf = p.mean_interval_with(SolverStrategy::MatrixFree);
            assert!(
                (gs - dense).abs() < 1e-9 * dense,
                "n={n}: GS {gs} vs {dense}"
            );
            assert!(
                (mf - dense).abs() < 1e-9 * dense,
                "n={n}: matrix-free {mf} vs {dense}"
            );
        }
    }

    #[test]
    fn auto_strategy_tracks_state_count() {
        // One backend at every size the operator admits.
        for n in 2..=FlagChainOp::MAX_N {
            assert_eq!(
                AsyncParams::symmetric(n, 1.0, 1.0).solver_strategy(),
                SolverStrategy::MatrixFree,
                "n = {n}"
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "minutes in debug; run with --release")]
    fn forced_sparse_gauss_seidel_matches_lumped() {
        // n = 12 ⇒ 4097 states: the CSR Gauss–Seidel backend, which the
        // dispatch never picks but callers may force as a reference,
        // against the exact lumped chain.
        let (n, mu, lambda) = (12usize, 1.0, 0.1);
        let p = AsyncParams::symmetric(n, mu, lambda);
        let gs = p.mean_interval_with(SolverStrategy::GaussSeidel);
        let lumped = mean_interval_symmetric(n, mu, lambda);
        assert!(
            (gs - lumped).abs() < 1e-6 * lumped,
            "sparse GS {gs} vs lumped {lumped}"
        );
        // The default matrix-free Krylov path must land on the same
        // answer without ever materialising the chain.
        let mf = p.mean_interval();
        assert!(
            (mf - lumped).abs() < 1e-9 * lumped,
            "matrix-free {mf} vs lumped {lumped}"
        );
    }

    #[test]
    fn large_n_matrix_free_matches_lumped() {
        // n = 14 ⇒ 2¹⁴+1 states, far past the dense cap, so the auto
        // dispatch goes matrix-free — and must still reproduce the
        // exact lumped chain. Cheap enough for debug runs (≈ 20 ms in
        // release) because the popcount aggregation is exact here.
        let (n, mu) = (14usize, 1.0);
        let lambda = 1.0 / (n as f64 - 1.0);
        let p = AsyncParams::symmetric(n, mu, lambda);
        assert_eq!(p.solver_strategy(), SolverStrategy::MatrixFree);
        let full = p.mean_interval();
        let lumped = mean_interval_symmetric(n, mu, lambda);
        assert!(
            (full - lumped).abs() < 1e-8 * lumped,
            "matrix-free {full} vs lumped {lumped}"
        );
    }

    #[test]
    fn no_interaction_reduces_to_first_rp_race() {
        // λ = 0: the chain never leaves S_r except by R4, so X ~ Exp(Σμ).
        let p = AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]).unwrap();
        assert!((p.mean_interval() - 1.0 / 6.0).abs() < 1e-10);
    }

    #[test]
    fn mean_interval_increases_with_interaction_density() {
        let base = AsyncParams::symmetric(3, 1.0, 0.5).mean_interval();
        let busier = AsyncParams::symmetric(3, 1.0, 2.0).mean_interval();
        assert!(busier > base, "{busier} ≤ {base}");
    }

    #[test]
    fn density_spikes_near_zero() {
        // Figure 6's "sharp [peak] near t = 0" comes from the direct
        // S_r → S_{r+1} transitions: f(0) = Σμ (the R4 rate).
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let f = p.interval_density(&[0.0]);
        assert!((f[0] - 3.0).abs() < 1e-9, "f(0) = {}", f[0]);
    }

    #[test]
    fn split_chain_reproduces_poisson_thinning_identity() {
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 1.0, 1.0));
        let ex = p.mean_interval();
        for i in 0..3 {
            let via_yd = p.mean_rp_count_yd(i, true);
            let identity = p.mu()[i] * ex;
            assert!(
                (via_yd - identity).abs() < 1e-8 * identity,
                "P{i}: Y_d {via_yd} vs μE[X] {identity}"
            );
        }
    }

    #[test]
    fn split_chain_steps_give_mean_interval() {
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let sc = SplitChain::build(&p, 0);
        let ex_steps = sc.expected_steps() / sc.g;
        let ex = p.mean_interval();
        assert!((ex_steps - ex).abs() < 1e-8 * ex, "{ex_steps} vs {ex}");
    }

    #[test]
    fn split_chain_paper_statistic_is_slightly_below_identity() {
        // Excluding the line-completing RP lowers the count by the
        // probability that the completing RP belongs to the tagged
        // process — strictly positive.
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let with_terminal = p.mean_rp_count_yd(0, true);
        let without = p.mean_rp_count_yd(0, false);
        assert!(without < with_terminal);
        assert!(with_terminal - without < 1.0);
    }

    #[test]
    fn split_chain_probabilities_are_stochastic() {
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.5, 0.5, 1.0));
        let sc = SplitChain::build(&p, 1);
        for (r, s) in sc.dtmc.matrix().row_sums().iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn table1_constant_rho_across_cases() {
        // All five Table 1 cases share Σλ = 3, Σμ = 3.
        let cases = [
            ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
            ((1.5, 1.0, 0.5), (1.0, 1.0, 1.0)),
            ((1.0, 1.0, 1.0), (1.5, 0.5, 1.0)),
            ((1.5, 1.0, 0.5), (1.5, 0.5, 1.0)),
            ((1.5, 1.0, 0.5), (0.5, 1.5, 1.0)),
        ];
        let rho0 = AsyncParams::three(cases[0].0, cases[0].1).rho();
        for (mu, lam) in cases {
            let p = AsyncParams::three(mu, lam);
            assert!((p.rho() - rho0).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_mu_minimises_mean_interval() {
        // The paper: "The minima of X and L occur when the distribution
        // of recovery points among these processes is uniformly
        // balanced."
        let balanced = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)).mean_interval();
        let skewed = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 1.0, 1.0)).mean_interval();
        let very_skewed = AsyncParams::three((2.0, 0.5, 0.5), (1.0, 1.0, 1.0)).mean_interval();
        assert!(balanced < skewed, "{balanced} vs {skewed}");
        assert!(skewed < very_skewed, "{skewed} vs {very_skewed}");
    }

    #[test]
    fn lambda_distribution_barely_moves_mean_interval() {
        // Paper: "The distribution of interprocess communications …
        // has little effect on X … once the set of processes involved
        // is determined." Cases 1 vs 3 of Table 1 (2.598 vs 2.600).
        let a = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)).mean_interval();
        let b = AsyncParams::three((1.0, 1.0, 1.0), (1.5, 0.5, 1.0)).mean_interval();
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }
}
