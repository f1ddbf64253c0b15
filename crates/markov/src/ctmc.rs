//! Continuous-time Markov chains: transient solves and absorption
//! analysis.
//!
//! The recovery-line interval `X` of the paper is *phase-type*: the time
//! for the flag chain to travel from the entry state S_r to the
//! absorbing state S_{r+1}. This module provides the two solves the
//! experiments need:
//!
//! * the **mean absorption time** E\[X\] from the linear system
//!   (−Q_TT)·τ = 1, solved by the transient block's one rule
//!   ([`crate::solver`]);
//! * the **absorption-time distribution**: the CDF, the survival
//!   function and the density f_X(t) (paper Figure 6), each a Poisson
//!   mixture over one uniformized jump-chain propagation (`AbsorptionSeq`,
//!   shared with the matrix-free flag chain).

use crate::solver::{SolverStrategy, TransientBlock};
use crate::sparse::{Csr, Triplets};

/// A finite-state CTMC described by its generator matrix.
///
/// Built from off-diagonal transition rates; the diagonal is derived
/// (`q_ii = −Σ_{j≠i} q_ij`). States with no outgoing rate are absorbing.
#[derive(Clone, Debug)]
pub struct Ctmc {
    n: usize,
    /// Full generator (diagonal included).
    q: Csr,
    /// Off-diagonal exit rate of every state (0 ⇒ absorbing).
    exit: Vec<f64>,
}

impl Ctmc {
    /// Builds a chain over `n` states from `(from, to, rate)` transitions.
    ///
    /// Parallel transitions are summed. Self-transitions are rejected:
    /// in a CTMC they are meaningless, and passing one is always a bug
    /// in the chain builder.
    ///
    /// # Panics
    /// Panics on out-of-range states, non-positive/non-finite rates, or
    /// self-transitions.
    pub fn from_transitions(n: usize, transitions: &[(usize, usize, f64)]) -> Self {
        let mut t = Triplets::new(n, n);
        let mut exit = vec![0.0; n];
        for &(from, to, rate) in transitions {
            assert!(from < n && to < n, "transition ({from},{to}) out of range");
            assert!(from != to, "self-transition at state {from}");
            assert!(
                rate > 0.0 && rate.is_finite(),
                "rate {rate} on ({from},{to}) must be positive and finite"
            );
            t.push(from, to, rate);
            exit[from] += rate;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                t.push(i, i, -e);
            }
        }
        Ctmc {
            n,
            q: t.to_csr(),
            exit,
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Whether `s` is absorbing (no outgoing rate).
    pub fn is_absorbing(&self, s: usize) -> bool {
        self.exit[s] == 0.0
    }

    /// Total outgoing rate of `s`.
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.exit[s]
    }

    /// The generator entry `q(from, to)`.
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        self.q.get(from, to)
    }

    /// The generator as CSR (diagonal included).
    pub fn generator(&self) -> &Csr {
        &self.q
    }

    /// The uniformization constant Λ = maxᵢ (−q_ii).
    pub fn uniformization_constant(&self) -> f64 {
        self.exit.iter().fold(0.0_f64, |m, &e| m.max(e))
    }

    /// The uniformized jump chain `P = I + Q/Λ` for a given Λ ≥ max exit
    /// rate (row-stochastic by construction).
    ///
    /// # Panics
    /// Panics if `lambda` is smaller than the largest exit rate.
    pub fn uniformized(&self, lambda: f64) -> Csr {
        let max_exit = self.uniformization_constant();
        assert!(
            lambda >= max_exit && lambda > 0.0,
            "uniformization constant {lambda} below max exit rate {max_exit}"
        );
        let mut t = Triplets::new(self.n, self.n);
        for r in 0..self.n {
            let mut diag = 1.0 - self.exit[r] / lambda;
            for (c, v) in self.q.row(r) {
                if c != r {
                    t.push(r, c, v / lambda);
                }
            }
            // Clamp tiny negative diagonal from rounding.
            if diag < 0.0 {
                diag = 0.0;
            }
            if diag > 0.0 {
                t.push(r, r, diag);
            }
        }
        t.to_csr()
    }

    /// Mean time to absorption starting from `start`.
    ///
    /// Solves (−Q_TT)·τ = 1 over the transient states by the generic
    /// chains' one rule ([`crate::solver`]): GTH elimination up to the
    /// dense cap, Jacobi-preconditioned BiCGSTAB above it.
    ///
    /// # Panics
    /// Panics if the chain has no absorbing state, or if `start` is
    /// absorbing (the answer would trivially be 0 — asking is a bug).
    pub fn mean_absorption_time(&self, start: usize) -> f64 {
        let block = self.transient_block(start);
        block.solve(&vec![1.0; block.dim()])[block.local(start)]
    }

    /// [`Ctmc::mean_absorption_time`] on a caller-chosen backend —
    /// benches and conformance tests use this to compare solver
    /// strategies on identical chains.
    pub fn mean_absorption_time_with(&self, start: usize, strategy: SolverStrategy) -> f64 {
        let block = self.transient_block(start);
        block.solve_with(strategy, &vec![1.0; block.dim()])[block.local(start)]
    }

    /// Second moment of the absorption time from `start`:
    /// E\[T²\] solves (−Q_TT)·m₂ = 2·τ with τ the mean absorption
    /// times — the standard phase-type moment recursion.
    ///
    /// # Panics
    /// As for [`Ctmc::mean_absorption_time`].
    pub fn absorption_time_second_moment(&self, start: usize) -> f64 {
        self.absorption_time_moments(start).1
    }

    /// Variance of the absorption time from `start`.
    pub fn absorption_time_variance(&self, start: usize) -> f64 {
        let (m1, m2) = self.absorption_time_moments(start);
        (m2 - m1 * m1).max(0.0)
    }

    /// (E\[T\], E\[T²\]) from `start` from one τ solve and one m₂ solve.
    fn absorption_time_moments(&self, start: usize) -> (f64, f64) {
        let block = self.transient_block(start);
        let tau = block.solve(&vec![1.0; block.dim()]);
        let rhs: Vec<f64> = tau.iter().map(|&t| 2.0 * t).collect();
        let k = block.local(start);
        (tau[k], block.solve(&rhs)[k])
    }

    /// The transient block −Q_TT, validated for an absorption query from
    /// `start`.
    pub(crate) fn transient_block(&self, start: usize) -> TransientBlock {
        assert!(
            !self.is_absorbing(start),
            "start state {start} is absorbing"
        );
        TransientBlock::new(self.n, |s| !self.is_absorbing(s), |s| self.q.row(s), |q| -q)
    }

    /// The absorption-time density f(t) from `start`, evaluated at each
    /// time in `ts`: Λ times the Poisson mixture of the mass absorbed in
    /// each jump step of one `AbsorptionSeq`. Negative `t` evaluates
    /// to 0. Non-finite times panic.
    pub fn absorption_density(&self, start: usize, ts: &[f64]) -> Vec<f64> {
        self.absorption_seq(start).eval_at(Column::Inflow, ts)
    }

    /// The absorption-time CDF F(t) = P(X ≤ t) from `start`: one
    /// evaluation of [`Ctmc::absorption_cdf_batch`], bit for bit.
    /// Non-finite times panic.
    pub fn absorption_cdf(&self, start: usize, t: f64) -> f64 {
        assert!(t.is_finite(), "invalid time {t}");
        self.absorption_cdf_batch(start, &[t])[0]
    }

    /// [`Ctmc::absorption_cdf`] at **many** times in one uniformization
    /// pass: the jump chain is propagated once up to the right edge of the
    /// largest `t`'s Poisson window, recording the absorbed mass after
    /// each step; every F(t) is then a Poisson mixture over that sequence.
    /// Cost is one propagation plus O(√(Λ·tᵢ)) scalar work per point —
    /// the hook the distribution-level conformance gates (KS over
    /// thousands of sample points) rely on. Once the transient mass decays
    /// geometrically the propagation stops, and points past 2¹⁰ steps
    /// cost O(k₀) each (see the **Geometric tail** of [`crate::matfree`]).
    ///
    /// Negative `t` evaluates to 0 (the absorption time is a.s.
    /// non-negative), so callers may pass left-limit points `x⁻` from
    /// `rbsim::gof::ks_eval_points` unclamped.
    pub fn absorption_cdf_batch(&self, start: usize, ts: &[f64]) -> Vec<f64> {
        self.absorption_seq(start).eval_at(Column::Absorbed, ts)
    }

    /// The absorption-time distribution from `start` as a lazily extended
    /// uniformization of this chain (see [`AbsorptionSeq`]).
    pub(crate) fn absorption_seq(&self, start: usize) -> AbsorptionSeq<'_> {
        let lambda = self.uniformization_constant();
        let absorbing: Vec<usize> = (0..self.n).filter(|&s| self.is_absorbing(s)).collect();
        let transient: Vec<usize> = (0..self.n).filter(|&s| !self.is_absorbing(s)).collect();
        let mut v = vec![0.0; self.n];
        v[start] = 1.0;
        let absorbed0 = absorbing.iter().map(|&s| v[s]).sum();
        let transient0 = transient.iter().map(|&s| v[s]).sum();
        // Built on the first step: a chain that never moves (Λ = 0), or CDF
        // and survival queries at t ≤ 0 only, never need it. `into` is each
        // state's one-step probability of absorption.
        let mut p = None;
        let step = move || {
            let (p, into) = p.get_or_insert_with(|| {
                let p = self.uniformized(lambda);
                let into: Vec<f64> = (0..self.n)
                    .map(|r| {
                        if self.is_absorbing(r) {
                            return 0.0;
                        }
                        p.row(r)
                            .filter(|&(c, _)| self.is_absorbing(c))
                            .map(|(_, a)| a)
                            .sum()
                    })
                    .collect();
                (p, into)
            });
            let inflow = v.iter().zip(into.iter()).map(|(vi, a)| vi * a).sum();
            v = p.vec_mul(&v);
            (
                absorbing.iter().map(|&s| v[s]).sum(),
                transient.iter().map(|&s| v[s]).sum(),
                inflow,
            )
        };
        AbsorptionSeq::new(lambda, absorbed0, transient0, Box::new(step))
    }
}

/// Truncation of the absorption-time Poisson mixtures: the Poisson mass
/// a window may leave out on either side (see [`poisson_mixture`]).
const MIXTURE_EPS: f64 = 1e-12;

/// Consecutive jump steps whose decay ratio must stay settled before
/// [`AbsorptionSeq`] stops propagating (see its **Geometric tail**).
const TAIL_SETTLE_STEPS: usize = 16;

/// Largest step-to-step change |qₖ − qₖ₋₁| of a settled decay ratio,
/// relative to 1 − qₖ (well above the ~4e-15 rounding floor of that
/// ratio on the flag chains).
const TAIL_SETTLE_TOL: f64 = 1e-13;

/// Query windows reaching this many jump steps evaluate the geometric
/// tail in closed form; shorter ones extend the sequence with scalars.
const TAIL_CLOSED_FORM_STEPS: usize = 1 << 10;

/// The recorded column of an [`AbsorptionSeq`] that a query mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Column {
    /// The absorbed mass after each jump step: F(t).
    Absorbed,
    /// The transient mass after each jump step: S(t) = P(X > t).
    Transient,
    /// The mass absorbed in each jump step: f(t)/Λ.
    Inflow,
}

impl Column {
    /// The `base` its [`poisson_mixture`] is taken around. F mixes
    /// 1 − absorbed, which only decreases, so F stays monotone where it
    /// rounds near 1; S and f mix their entries directly.
    fn base(self) -> f64 {
        if self == Column::Absorbed {
            1.0
        } else {
            0.0
        }
    }
}

/// The absorption-time distribution as Poisson mixtures over one
/// jump-chain propagation. After k uniformized jumps it has recorded the
/// absorbed mass, the transient mass and the mass absorbed in each step,
/// extended lazily to the horizon the largest queried `t` needs. Each
/// distribution query mixes one of these columns:
/// - F(t) mixes the absorbed mass;
/// - S(t) mixes the transient mass. It is summed over the transient
///   states, never taken as 1 − absorbed, so S keeps its relative
///   precision deep in the tail, where F rounds to 1;
/// - f(t) is Λ times the mix of the per-step inflow.
///
/// A query at time t reads only the Fox–Glynn window of Pois(Λt) (see
/// [`poisson_mixture`]): O(√(Λt)) entries around the mode, up to the right
/// edge R(Λt) ≈ Λt + 7.4·√(Λt) that [`window_right`] bounds in O(1). A
/// batch of evaluations, or the 8–19 probes of a quantile search on
/// Table 1's models ([`AbsorptionSeq::crossing`]), therefore pays for a single
/// propagation to the largest window's right edge, then O(√(Λt)) scalars
/// per query. Shared by the materialised chain and the matrix-free
/// flag-chain operator; only the jump step differs.
///
/// **Geometric tail.** Let mₖ = 1 − absorbedₖ be the transient mass after
/// k steps. The ratio qₖ = mₖ/mₖ₋₁ is the power iteration on the
/// transient block P_TT that the propagation already runs: past the
/// chain's mixing time it settles on P_TT's Perron root q, and the
/// survival function is one exponential, S(t) ≈ C·e^{−θt} with
/// θ = Λ(1 − q) (Darroch & Seneta 1967). Once S_r's signed mass is spent
/// and 1 − qₖ has moved by at most 1e-13 of itself on 16 consecutive
/// steps, at step k₀, further jump steps would only recompute a geometric
/// sequence, so the propagation stops there. Past k₀ every column is
/// α + β·q^{k−k₀}: (α, β) is (1, −m_{k₀}) for the absorbed mass,
/// (0, s_{k₀}) for the recorded transient mass s, and (0, (1 − q)·s_{k₀})
/// for the inflow.
/// - A query whose window ends before step 2¹⁰ extends the columns to
///   its right edge with those scalars and mixes them as before.
/// - A longer one evaluates the tail in closed form, in O(k₀), for all
///   three columns alike, without computing a window:
///   Σ_{k≥k₀} Pois(k; a)·(α + β·q^{k−k₀})
///   = α·P(Pois(a) ≥ k₀) + β·e^{−a(1−q)}·q^{−k₀}·P(Pois(a·q) ≥ k₀).
/// - 1 − qₖ is the mass absorbed in step k, summed from the transient
///   states' flux, over mₖ₋₁. On stiff chains q lies within 1e-7 of 1:
///   taken as a difference of two absorbed masses, 1 − qₖ carries rounding
///   noise of 1e-9 of itself (n = 12, ρ = 4). The settling test is relative
///   for the same reason: an absolute 1e-14 on qₖ stops while 1 − qₖ may
///   still move by 1e-7 of itself. Together these put θ, and every stiff
///   quantile with it, up to 1.6e-8 off; with both fixed, 1e-13.
/// - A sequence whose ratio does not settle before its horizon (two close
///   decay rates, or a query inside the mixing time) keeps the propagated
///   path and its bits.
pub(crate) struct AbsorptionSeq<'a> {
    lambda: f64,
    /// Absorbed mass after k jumps.
    absorbed: Vec<f64>,
    /// Transient mass after k jumps, summed over the transient states.
    transient: Vec<f64>,
    /// Mass absorbed in jump k + 1, summed from the transient states'
    /// flux: one entry behind the other two columns.
    inflow: Vec<f64>,
    /// Advances the jump-chain distribution one step and returns its
    /// absorbed and transient masses and the mass absorbed in that step.
    /// The last is summed from the transient states' flux, so it keeps its
    /// relative precision where a difference of two absorbed masses would
    /// not.
    step: Box<dyn FnMut() -> (f64, f64, f64) + 'a>,
    /// |mass| still on a start state with a negative stay factor (see
    /// [`AbsorptionSeq::with_signed_entry`]); 0 when every stay factor
    /// is non-negative.
    signed: f64,
    /// Factor `signed` shrinks by per step.
    signed_decay: f64,
    /// The run of settled decay ratios so far.
    watch: RatioWatch,
    /// Set once the ratio has settled; the propagation stops there.
    tail: Option<GeometricTail>,
    /// The largest |entry| recorded in any column: bounds the entries a
    /// window leaves out on its left.
    peak: f64,
    /// Never switch to the tail: the propagated reference the tail is
    /// tested against.
    #[cfg(test)]
    untailed: bool,
    /// Evaluations so far: the work of a search, which the tests bound.
    #[cfg(test)]
    evals: usize,
}

/// The latest decay ratio and how long it has stayed settled.
#[derive(Clone, Copy, Default)]
struct RatioWatch {
    /// 1 − qₖ of the latest step.
    d: f64,
    /// Consecutive steps with |qₖ − qₖ₋₁| ≤ [`TAIL_SETTLE_TOL`].
    run: usize,
    /// Smallest and largest 1 − qₖ over the run.
    lo: f64,
    hi: f64,
}

/// The columns past step k₀, each α + β·(1 − d)^{k−k₀}.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GeometricTail {
    /// The step the propagation stopped at.
    pub(crate) k0: usize,
    /// Transient mass m_{k₀} = 1 − absorbed_{k₀}.
    m0: f64,
    /// Recorded transient mass s_{k₀}.
    s0: f64,
    /// 1 − q, the fraction of the transient mass absorbed per step.
    pub(crate) d: f64,
    /// max − min of the decay ratio over the settled run: evidence for
    /// the switch, which only the tests read.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) spread: f64,
}

impl GeometricTail {
    /// (α, β) of column `c`.
    fn coefficients(&self, c: Column) -> (f64, f64) {
        match c {
            Column::Absorbed => (1.0, -self.m0),
            Column::Transient => (0.0, self.s0),
            Column::Inflow => (0.0, self.d * self.s0),
        }
    }

    /// Entry k ≥ k₀ of column `c`.
    fn entry(&self, c: Column, k: usize) -> f64 {
        let (alpha, beta) = self.coefficients(c);
        alpha + beta * ((k - self.k0) as f64 * (-self.d).ln_1p()).exp()
    }

    /// Σ_{k<k₀} Pois(k; a)·`head[k]` + Σ_{k≥k₀} Pois(k; a)·(α + β·q^{k−k₀})
    /// for column `c`, the geometric part in closed form. Accurate while
    /// k₀ ≤ a·q, where P(Pois(a·q) ≥ k₀) ≥ ½ and its complement costs no
    /// digits.
    fn mixture(&self, a: f64, head: &[f64], c: Column) -> f64 {
        let ln_a = a.ln();
        let ln_q = (-self.d).ln_1p();
        let k0 = self.k0 as f64;
        // Σ_{k<k₀} Pois(k; a) times head[k], 1 and q^{k−k₀}.
        let (mut acc, mut cum, mut geo) = (0.0, 0.0, 0.0);
        let mut ln_w = -a;
        for (k, &f) in head.iter().enumerate() {
            let w = ln_w.exp();
            acc += w * f;
            cum += w;
            geo += (ln_w + (k as f64 - k0) * ln_q).exp();
            ln_w += ln_a - ((k + 1) as f64).ln();
        }
        // Σ_{k≥0} Pois(k; a)·q^{k−k₀} = e^{−a(1−q)}·q^{−k₀}.
        let all = (-a * self.d - k0 * ln_q).exp();
        let (alpha, beta) = self.coefficients(c);
        acc + alpha * (1.0 - cum) + beta * (all - geo)
    }
}

impl<'a> AbsorptionSeq<'a> {
    /// A sequence under uniformization constant `lambda` whose start
    /// distribution has absorbed mass `absorbed0` and transient mass
    /// `transient0`.
    pub(crate) fn new(
        lambda: f64,
        absorbed0: f64,
        transient0: f64,
        step: Box<dyn FnMut() -> (f64, f64, f64) + 'a>,
    ) -> AbsorptionSeq<'a> {
        AbsorptionSeq {
            lambda,
            absorbed: vec![absorbed0],
            transient: vec![transient0],
            inflow: Vec::new(),
            step,
            signed: 0.0,
            signed_decay: 0.0,
            watch: RatioWatch::default(),
            tail: None,
            peak: absorbed0.abs().max(transient0.abs()),
            #[cfg(test)]
            untailed: false,
            #[cfg(test)]
            evals: 0,
        }
    }

    /// The same sequence for a chain whose start state, which nothing
    /// re-enters, exits faster than `lambda`: its stay factor 1 − r is
    /// negative, its mass after k steps is (1 − r)ᵏ, and `decay` is
    /// |1 − r|. Until that mass is spent the absorbed mass oscillates,
    /// so it is no evidence of convergence: the early stop and the tail
    /// switch both wait.
    pub(crate) fn with_signed_entry(mut self, decay: f64) -> AbsorptionSeq<'a> {
        self.signed = 1.0;
        self.signed_decay = decay;
        self
    }

    /// The same sequence propagated to every horizon, never switching to
    /// its geometric tail.
    #[cfg(test)]
    pub(crate) fn untailed(mut self) -> AbsorptionSeq<'a> {
        self.untailed = true;
        self
    }

    /// Column `c` at every time in `ts`. Non-finite times panic.
    pub(crate) fn eval_at(mut self, c: Column, ts: &[f64]) -> Vec<f64> {
        if let Some(t) = ts.iter().find(|t| !t.is_finite()) {
            match c {
                Column::Absorbed => panic!("invalid CDF evaluation time"),
                Column::Transient => panic!("invalid survival evaluation time"),
                Column::Inflow => panic!("invalid time {t}"),
            }
        }
        ts.iter().map(|&t| self.eval(c, t)).collect()
    }

    /// F(t), S(t) or f(t) as `c` asks. Negative `t` evaluates to 0, 1 and
    /// 0 (the absorption time is a.s. non-negative), so left-limit points
    /// `x⁻` pass through unclamped. A chain that never moves (Λ = 0) has
    /// no density.
    pub(crate) fn eval(&mut self, c: Column, t: f64) -> f64 {
        #[cfg(test)]
        {
            self.evals += 1;
        }
        if t < 0.0 || (c == Column::Inflow && self.lambda == 0.0) {
            return if c == Column::Transient { 1.0 } else { 0.0 };
        }
        let lt = self.lambda * t;
        // The window reads entries 0..=right of the column: at t = 0 only
        // the first.
        let right = window_right(lt);
        // Once the column has converged the remaining steps cannot change
        // its mixture beyond the truncation, so stop propagating (keeps the
        // pass bounded by the chain's mixing time, not by the largest t).
        // A settled decay ratio stops it too: the rest of the sequence is
        // the geometric tail.
        while self.tail.is_none() && self.column(c).len() <= right && !self.converged(c) {
            let (absorbed, transient, inflow) = (self.step)();
            self.absorbed.push(absorbed);
            self.transient.push(transient);
            self.inflow.push(inflow);
            self.peak = self
                .peak
                .max(absorbed.abs())
                .max(transient.abs())
                .max(inflow.abs());
            self.signed *= self.signed_decay;
            self.watch_ratio();
        }
        let scale = if c == Column::Inflow {
            self.lambda
        } else {
            1.0
        };
        if let Some(tail) = self.tail {
            if right >= TAIL_CLOSED_FORM_STEPS && tail.k0 as f64 <= lt * (1.0 - tail.d) {
                return scale * tail.mixture(lt, &self.column(c)[..tail.k0], c);
            }
            // Extended entries shrink geometrically from recorded ones, so
            // `peak` still bounds them.
            while self.column(c).len() <= right && !self.converged(c) {
                let k = self.absorbed.len();
                self.absorbed.push(tail.entry(Column::Absorbed, k));
                self.transient.push(tail.entry(Column::Transient, k));
                self.inflow.push(tail.entry(Column::Inflow, k - 1));
            }
        }
        scale * poisson_mixture(lt, self.column(c), c.base(), self.peak)
    }

    /// The time at which column `c` crosses `level`: F rising to it or S
    /// falling to it. The search doubles from `t0` until the level is
    /// bracketed, then runs Brent's method on F − level, or on
    /// ln S − ln level, which the geometric tail makes nearly linear. It
    /// stops once the bracket is a few ulps wide, after 8–19 evaluations
    /// on Table 1's models; every probe reuses the one propagation.
    ///
    /// # Panics
    /// Panics if 80 doublings do not bracket the level.
    pub(crate) fn crossing(&mut self, c: Column, level: f64, t0: f64) -> f64 {
        debug_assert!(c != Column::Inflow, "the density has no crossing");
        // Negative before the crossing, positive after it. S is floored at
        // the smallest normal so that ln S stays finite past an underflow.
        let mut g = |t: f64| {
            let v = self.eval(c, t);
            if c == Column::Transient {
                level.ln() - v.max(f64::MIN_POSITIVE).ln()
            } else {
                v - level
            }
        };
        let (mut lo, mut g_lo) = (0.0, f64::NAN);
        let (mut hi, mut g_hi) = (t0, g(t0));
        let mut guard = 0;
        while g_hi < 0.0 {
            (lo, g_lo) = (hi, g_hi);
            hi *= 2.0;
            g_hi = g(hi);
            guard += 1;
            assert!(guard < 80, "bracket failed to reach {c:?} level {level}");
        }
        if guard == 0 {
            g_lo = g(lo);
        }
        brent(g, lo, g_lo, hi, g_hi)
    }

    /// The recorded column `c`.
    fn column(&self, c: Column) -> &[f64] {
        match c {
            Column::Absorbed => &self.absorbed,
            Column::Transient => &self.transient,
            Column::Inflow => &self.inflow,
        }
    }

    /// Whether column `c` has converged, so that its last entry stands for
    /// all later ones: no signed start mass left, and either the absorbed
    /// mass within eps of 1 (F, whose error is absolute) or the transient
    /// mass and the last step's inflow underflowed (S and f, which keep
    /// their relative precision).
    fn converged(&self, c: Column) -> bool {
        let k = self.absorbed.len() - 1;
        self.signed <= MIXTURE_EPS
            && match c {
                Column::Absorbed => 1.0 - self.absorbed[k] <= MIXTURE_EPS,
                Column::Transient | Column::Inflow => {
                    self.transient[k] <= f64::MIN_POSITIVE
                        && self.inflow.last().is_some_and(|&f| f <= f64::MIN_POSITIVE)
                }
            }
    }

    /// Updates the settling run with the latest step's decay ratio and
    /// switches to the geometric tail once it has settled.
    fn watch_ratio(&mut self) {
        #[cfg(test)]
        if self.untailed {
            return;
        }
        let k = self.absorbed.len() - 1;
        let d = self.inflow[k - 1] / (1.0 - self.absorbed[k - 1]);
        let w = &mut self.watch;
        if d > 0.0 && (d - w.d).abs() <= TAIL_SETTLE_TOL * d {
            w.run += 1;
            w.lo = w.lo.min(d);
            w.hi = w.hi.max(d);
        } else {
            *w = RatioWatch {
                d,
                run: 0,
                lo: d,
                hi: d,
            };
        }
        w.d = d;
        if w.run >= TAIL_SETTLE_STEPS && self.signed <= MIXTURE_EPS {
            self.tail = Some(GeometricTail {
                k0: k,
                m0: 1.0 - self.absorbed[k],
                s0: self.transient[k],
                d,
                spread: w.hi - w.lo,
            });
        }
    }

    /// Jump steps propagated so far.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> usize {
        self.tail.map_or(self.absorbed.len() - 1, |t| t.k0)
    }

    /// The uniformization rate Λ.
    #[cfg(test)]
    pub(crate) fn rate(&self) -> f64 {
        self.lambda
    }

    /// Evaluations of any column so far.
    #[cfg(test)]
    pub(crate) fn evals(&self) -> usize {
        self.evals
    }

    /// The geometric tail, once the ratio has settled.
    #[cfg(test)]
    pub(crate) fn tail(&self) -> Option<GeometricTail> {
        self.tail
    }
}

/// The right edge R of the Poisson window at mean `a`, in O(1): with
/// x = L/3 + √(L²/9 + 2·L·a) and L = −ln [`MIXTURE_EPS`], R = ⌈a + x⌉
/// and P(Pois(a) > R) ≤ e^{−x²/(2(a + x/3))} = `MIXTURE_EPS` (the Chernoff
/// bound, with (1 + u)·ln(1 + u) − u ≥ u²/(2(1 + u/3))). About
/// a + 7.4·√a for large a; 0 at a = 0.
pub(crate) fn window_right(a: f64) -> usize {
    if a <= 0.0 {
        return 0;
    }
    let l = -MIXTURE_EPS.ln();
    (a + l / 3.0 + (l * l / 9.0 + 2.0 * l * a).sqrt()).ceil() as usize
}

/// `Σ_k Pois(k; a)·seq[min(k, last)]`, taken as `base` plus the mixture of
/// `seq − base`, over a Fox–Glynn window (Fox & Glynn, "Computing Poisson
/// probabilities", *CACM* 31(4), 1988). The clamp to the last entry is
/// exact up to the truncation when the sequence has converged there (see
/// [`AbsorptionSeq::eval`]).
///
/// The weights start at 1 on the mode ⌊a⌋ and recur outward by the ratios
/// a/(k + 1) and k/a: no exp, ln or lgamma per term, and a relative error
/// of O(ε) per step from the mode instead of a log-weight drift of
/// ε·a^{3/2}. The right side ends at [`window_right`]. The left side ends
/// at k once the rest is negligible: the weights below k, whose ratios
/// stay below (k − 1)/a, times the largest |`seq` − `base`| (at most
/// `peak` + |`base`|), within `MIXTURE_EPS` of the window's weight sum
/// when `base` ≠ 0 (F's error is absolute), or of the mixed value
/// otherwise (S and f keep their relative precision, so deep in the tail
/// their windows reach further left). The sum is normalised by the
/// window's own weights, so a cut never loses mass.
pub(crate) fn poisson_mixture(a: f64, seq: &[f64], base: f64, peak: f64) -> f64 {
    if a == 0.0 {
        return seq[0];
    }
    let last = seq.len() - 1;
    let term = |k: usize| seq[k.min(last)] - base;
    let mode = a as usize;
    let (mut acc, mut sum, mut w) = (term(mode), 1.0, 1.0);
    for k in mode + 1..=window_right(a) {
        w *= a / k as f64;
        acc += w * term(k);
        sum += w;
    }
    let bound = peak + base.abs();
    let mut w = 1.0;
    for k in (1..=mode).rev() {
        // Weights left of k sum to at most w_{k−1}/(1 − (k − 1)/a).
        let next = w * k as f64 / a;
        let scale = (base * sum + acc).abs().max(base.abs() * sum);
        if next * bound <= MIXTURE_EPS * scale * (1.0 - (k - 1) as f64 / a) {
            break;
        }
        w = next;
        acc += w * term(k - 1);
        sum += w;
    }
    base + acc / sum
}

/// Brent's method (Brent, *Algorithms for Minimization without
/// Derivatives*, 1973, ch. 4) for the root of `g` in [`a`, `b`], where
/// `fa` = g(a) and `fb` = g(b) differ in sign: inverse quadratic or
/// secant steps while they shrink the bracket fast enough, bisection
/// otherwise. Stops once the bracket is within 4ε of its best end.
fn brent(mut g: impl FnMut(f64) -> f64, mut a: f64, mut fa: f64, mut b: f64, mut fb: f64) -> f64 {
    let (mut c, mut fc) = (a, fa);
    let (mut d, mut e) = (b - a, b - a);
    loop {
        if (fb > 0.0) == (fc > 0.0) {
            (c, fc) = (a, fa);
            (d, e) = (b - a, b - a);
        }
        if fc.abs() < fb.abs() {
            (a, fa) = (b, fb);
            (b, fb) = (c, fc);
            (c, fc) = (a, fa);
        }
        let tol = 2.0 * f64::EPSILON * b.abs() + f64::MIN_POSITIVE;
        let m = 0.5 * (c - b);
        if m.abs() <= tol || fb == 0.0 {
            return b;
        }
        if e.abs() < tol || fa.abs() <= fb.abs() {
            (d, e) = (m, m);
        } else {
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                (2.0 * m * s, 1.0 - s)
            } else {
                let (qa, r) = (fa / fc, fb / fc);
                (
                    s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0)),
                    (qa - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            } else {
                p = -p;
            }
            if 2.0 * p < (3.0 * m * q - (tol * q).abs()).min((e * q).abs()) {
                (e, d) = (d, p / q);
            } else {
                (d, e) = (m, m);
            }
        }
        (a, fa) = (b, fb);
        b += if d.abs() > tol { d } else { tol.copysign(m) };
        fb = g(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-state birth chain: 0 → 1 at rate r. Absorption time ~ Exp(r).
    fn exp_chain(r: f64) -> Ctmc {
        Ctmc::from_transitions(2, &[(0, 1, r)])
    }

    #[test]
    fn exponential_absorption_mean() {
        let c = exp_chain(2.0);
        assert!((c.mean_absorption_time(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_density_matches_closed_form() {
        let r = 1.5;
        let c = exp_chain(r);
        let ts = [0.0, 0.3, 1.0, 2.0];
        let f = c.absorption_density(0, &ts);
        for (&t, &ft) in ts.iter().zip(&f) {
            let expect = r * (-r * t).exp();
            assert!((ft - expect).abs() < 1e-9, "f({t}) = {ft}, want {expect}");
        }
    }

    #[test]
    fn exponential_second_moment_and_variance() {
        let r = 2.0;
        let c = exp_chain(r);
        assert!((c.absorption_time_second_moment(0) - 2.0 / (r * r)).abs() < 1e-12);
        assert!((c.absorption_time_variance(0) - 1.0 / (r * r)).abs() < 1e-12);
    }

    #[test]
    fn erlang_second_moment() {
        // Erlang(2, r): E[T] = 2/r, E[T²] = 6/r², Var = 2/r².
        let r = 3.0;
        let c = Ctmc::from_transitions(3, &[(0, 1, r), (1, 2, r)]);
        assert!((c.absorption_time_second_moment(0) - 6.0 / (r * r)).abs() < 1e-12);
        assert!((c.absorption_time_variance(0) - 2.0 / (r * r)).abs() < 1e-12);
    }

    #[test]
    fn second_moment_matches_density_integral() {
        let c = Ctmc::from_transitions(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 0.8),
                (2, 1, 0.3),
                (1, 0, 0.2),
                (2, 3, 1.1),
            ],
        );
        let m2_solve = c.absorption_time_second_moment(0);
        let (a, b, m) = (0.0, 120.0, 12_000);
        let h = (b - a) / m as f64;
        let ts: Vec<f64> = (0..=m).map(|k| a + k as f64 * h).collect();
        let f = c.absorption_density(0, &ts);
        let g: Vec<f64> = ts.iter().zip(&f).map(|(t, ft)| t * t * ft).collect();
        let mut integral = 0.0;
        for k in (0..m).step_by(2) {
            integral += h / 3.0 * (g[k] + 4.0 * g[k + 1] + g[k + 2]);
        }
        assert!(
            (integral - m2_solve).abs() < 1e-3 * m2_solve.max(1.0),
            "∫t²f = {integral} vs solve {m2_solve}"
        );
    }

    #[test]
    fn erlang_two_stage_mean_and_cdf() {
        // 0 →(r) 1 →(r) 2: Erlang(2, r).
        let r = 3.0;
        let c = Ctmc::from_transitions(3, &[(0, 1, r), (1, 2, r)]);
        assert!((c.mean_absorption_time(0) - 2.0 / r).abs() < 1e-12);
        let t = 0.7;
        let expect = 1.0 - (-r * t).exp() * (1.0 + r * t);
        assert!((c.absorption_cdf(0, t) - expect).abs() < 1e-9);
    }

    #[test]
    fn competing_exponentials() {
        // 0 races to absorbing 1 (rate a) or 2 (rate b): time ~ Exp(a+b).
        let (a, b) = (1.0, 4.0);
        let c = Ctmc::from_transitions(3, &[(0, 1, a), (0, 2, b)]);
        assert!((c.mean_absorption_time(0) - 1.0 / (a + b)).abs() < 1e-12);
        // S(t) = e^{−(a+b)t} to full relative precision, deep past where
        // 1 − F(t) has no digits left.
        let ts = [0.5, 5.0, 20.0];
        let s = c.absorption_seq(0).eval_at(Column::Transient, &ts);
        for (&t, &got) in ts.iter().zip(&s) {
            let want = (-(a + b) * t).exp();
            assert!((got / want - 1.0).abs() < 1e-12, "S({t}) = {got} vs {want}");
        }
    }

    #[test]
    fn deep_survival_keeps_its_relative_precision() {
        // Two exit phases 10 % apart after an Exp(2) entry: the decay ratio
        // drifts for hundreds of steps, so S and f come from the propagated
        // transient mass, not the geometric tail. Its positive sum keeps
        // S(30) ≈ 1e-13 to full relative precision, where 1 − F has none.
        let c = Ctmc::from_transitions(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.1)]);
        let ts = [5.0, 15.0, 30.0];
        let s = c.absorption_seq(0).eval_at(Column::Transient, &ts);
        let f = c.absorption_density(0, &ts);
        for (&t, (&s, &f)) in ts.iter().zip(s.iter().zip(&f)) {
            let (e1, e11, e2) = ((-t).exp(), (-1.1 * t).exp(), (-2.0 * t).exp());
            let want_s = e1 + e11 / 0.9 - e2 / 0.9;
            let want_f = e1 + 1.1 * e11 / 0.9 - 2.0 * e2 / 0.9;
            assert!((s / want_s - 1.0).abs() < 1e-12, "S({t}) = {s} vs {want_s}");
            assert!((f / want_f - 1.0).abs() < 1e-12, "f({t}) = {f} vs {want_f}");
        }
    }

    #[test]
    fn density_integrates_to_one() {
        let c = Ctmc::from_transitions(3, &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 1.5)]);
        // Simpson over a long horizon.
        let (a, b, m) = (0.0, 40.0, 4000);
        let h = (b - a) / m as f64;
        let ts: Vec<f64> = (0..=m).map(|k| a + k as f64 * h).collect();
        let f = c.absorption_density(0, &ts);
        let mut integral = 0.0;
        for k in (0..m).step_by(2) {
            integral += h / 3.0 * (f[k] + 4.0 * f[k + 1] + f[k + 2]);
        }
        assert!((integral - 1.0).abs() < 1e-6, "∫f = {integral}");
    }

    #[test]
    fn density_mean_matches_linear_solve() {
        let c = Ctmc::from_transitions(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 0.8),
                (2, 1, 0.3),
                (1, 0, 0.2),
                (2, 3, 1.1),
            ],
        );
        let mean_solve = c.mean_absorption_time(0);
        // E[X] = ∫ t f(t) dt by Simpson.
        let (a, b, m) = (0.0, 80.0, 8000);
        let h = (b - a) / m as f64;
        let ts: Vec<f64> = (0..=m).map(|k| a + k as f64 * h).collect();
        let f = c.absorption_density(0, &ts);
        let g: Vec<f64> = ts.iter().zip(&f).map(|(t, ft)| t * ft).collect();
        let mut integral = 0.0;
        for k in (0..m).step_by(2) {
            integral += h / 3.0 * (g[k] + 4.0 * g[k + 1] + g[k + 2]);
        }
        assert!(
            (integral - mean_solve).abs() < 1e-4 * mean_solve.max(1.0),
            "∫t·f = {integral} vs solve {mean_solve}"
        );
    }

    #[test]
    fn uniformized_rows_are_stochastic() {
        let c = Ctmc::from_transitions(3, &[(0, 1, 2.0), (1, 2, 1.0), (1, 0, 3.0)]);
        let p = c.uniformized(c.uniformization_constant());
        for (r, s) in p.row_sums().iter().enumerate() {
            if c.is_absorbing(r) {
                // absorbing rows keep their self-loop
                assert!((s - 1.0).abs() < 1e-12);
            } else {
                assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no absorbing state")]
    fn irreducible_chain_rejects_absorption_query() {
        let c = Ctmc::from_transitions(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let _ = c.mean_absorption_time(0);
    }

    #[test]
    #[should_panic(expected = "self-transition")]
    fn self_transition_rejected() {
        let _ = Ctmc::from_transitions(2, &[(0, 0, 1.0)]);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = Ctmc::from_transitions(3, &[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5)]);
        for (r, s) in c.generator().row_sums().iter().enumerate() {
            if !c.is_absorbing(r) {
                assert!(s.abs() < 1e-12, "row {r} sums to {s}");
            }
        }
    }

    /// An [`AbsorptionSeq`] at Λ = 1 over the synthetic transient mass
    /// mₖ = Σ cᵢ·(1 − dᵢ)ᵏ, for terms (cᵢ, dᵢ).
    fn synthetic(terms: Vec<(f64, f64)>) -> AbsorptionSeq<'static> {
        let mass = |terms: &[(f64, f64)], k: i32| -> f64 {
            terms.iter().map(|&(c, d)| c * (1.0 - d).powi(k)).sum()
        };
        let m0 = mass(&terms, 0);
        let mut k = 0;
        let step = move || {
            k += 1;
            let inflow = terms
                .iter()
                .map(|&(c, d)| c * d * (1.0 - d).powi(k - 1))
                .sum();
            (1.0 - mass(&terms, k), mass(&terms, k), inflow)
        };
        AbsorptionSeq::new(1.0, 1.0 - m0, m0, Box::new(step))
    }

    #[test]
    fn geometric_tail_closed_form_matches_the_extended_mixture() {
        // Σ_{k≥k₀} Pois(k; a)·(α + β·q^{k−k₀}) in closed form against the
        // same tail extended entry by entry to the window's right edge and
        // mixed by `poisson_mixture`, for each column's (α, β).
        for a in [10.0, 1e3, 1e5] {
            for (k0, m0, d) in [(5, 0.9, 0.3), (8, 0.7, 1e-2), (150, 0.6, 3e-5)] {
                if k0 as f64 > a * (1.0 - d) {
                    continue;
                }
                let tail = GeometricTail {
                    k0,
                    m0,
                    s0: 0.8 * m0,
                    d,
                    spread: 0.0,
                };
                for c in [Column::Absorbed, Column::Transient, Column::Inflow] {
                    let mut seq: Vec<f64> = (0..k0).map(|k| 0.1 * k as f64 / k0 as f64).collect();
                    let closed = tail.mixture(a, &seq, c);
                    seq.extend((k0..=window_right(a)).map(|k| tail.entry(c, k)));
                    let peak = seq.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
                    let summed = poisson_mixture(a, &seq, c.base(), peak);
                    assert!(
                        (closed - summed).abs() < 1e-11,
                        "{c:?}, a = {a}, k0 = {k0}, d = {d}: closed form {closed} vs mixture {summed}"
                    );
                }
            }
        }
    }

    #[test]
    fn settled_ratio_switches_to_the_tail_and_keeps_the_cdf() {
        // A single decay rate settles at once: the first ratio opens the
        // run, 16 more settle it. Short horizons (scalar extension) and
        // long ones (closed form) both match the propagated sequence.
        let d = 1e-3;
        let mut tailed = synthetic(vec![(1.0, d)]);
        let mut full = synthetic(vec![(1.0, d)]).untailed();
        for t in [0.5, 20.0, 300.0, 900.0, 2e3, 1e4, 1e5] {
            let (got, want) = (
                tailed.eval(Column::Absorbed, t),
                full.eval(Column::Absorbed, t),
            );
            assert!((got - want).abs() < 1e-11, "F({t}): {got} vs {want}");
            // At Λ = 1 the single rate gives S(t) = e^{−dt} and
            // f(t) = d·e^{−dt}, relative down to e^{−100}.
            let want = (-d * t).exp();
            let s = tailed.eval(Column::Transient, t);
            assert!((s / want - 1.0).abs() < 1e-11, "S({t}): {s} vs {want}");
            let f = tailed.eval(Column::Inflow, t);
            assert!((f / (d * want) - 1.0).abs() < 1e-11, "f({t}): {f}");
        }
        let tail = tailed.tail().expect("a single decay rate settles");
        assert_eq!(tail.k0, TAIL_SETTLE_STEPS + 1);
        assert!((tail.d - d).abs() <= 1e-15 * d, "1 − q = {}", tail.d);
        assert!(tail.spread <= TAIL_SETTLE_TOL * d, "spread {}", tail.spread);
        assert!(full.tail().is_none());
    }

    #[test]
    fn close_decay_rates_do_not_switch_before_the_horizon() {
        // Two rates 10 % apart: the ratio drifts by ~1e-6 of itself per
        // step for thousands of steps, so the query is answered by the
        // propagated sequence alone, bit for bit.
        let terms = vec![(0.5, 1e-3), (0.5, 1.1e-3)];
        let mut tailed = synthetic(terms.clone());
        let mut full = synthetic(terms).untailed();
        for t in [100.0, 5e3] {
            assert_eq!(
                tailed.eval(Column::Absorbed, t).to_bits(),
                full.eval(Column::Absorbed, t).to_bits(),
                "F({t})"
            );
        }
        assert!(tailed.tail().is_none());
        assert!(
            tailed.steps() > 5_000,
            "stopped after {} steps",
            tailed.steps()
        );
    }

    #[test]
    fn signed_entry_mass_delays_the_tail_switch() {
        // The ratio has settled by step 17, but the signed start mass
        // 2⁻ᵏ only falls to 1e-12 at k = 40: the switch waits for it.
        let mut seq = synthetic(vec![(1.0, 1e-3)]).with_signed_entry(0.5);
        seq.eval(Column::Absorbed, 1e3);
        let tail = seq.tail().expect("settles once the signed mass is spent");
        assert_eq!(tail.k0, 40);
    }
}
