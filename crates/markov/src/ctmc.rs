//! Continuous-time Markov chains: transient solves and absorption
//! analysis.
//!
//! The recovery-line interval `X` of the paper is *phase-type*: the time
//! for the flag chain to travel from the entry state S_r to the
//! absorbing state S_{r+1}. This module provides the two solves the
//! experiments need:
//!
//! * the **mean absorption time** E\[X\] from the linear system
//!   (−Q_TT)·τ = 1 (dense LU for small chains, operator-interface
//!   BiCGSTAB for large);
//! * the **absorption-time density** f_X(t) (paper Figure 6) via
//!   uniformization, as the probability flux into the absorbing states.

use crate::linalg::{LuFactors, Matrix};
use crate::matfree::{bicgstab, Jacobi, LinOp};
use crate::solver::SolverStrategy;
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

    /// Transient distribution π(t) from the initial row vector `pi0`,
    /// by uniformization with adaptive truncation (mass error ≤ `eps`).
    pub fn transient(&self, pi0: &[f64], t: f64, eps: f64) -> Vec<f64> {
        assert_eq!(pi0.len(), self.n, "dimension mismatch");
        assert!(t >= 0.0 && t.is_finite(), "invalid time {t}");
        let lambda = self.uniformization_constant();
        if lambda == 0.0 || t == 0.0 {
            return pi0.to_vec();
        }
        let p = self.uniformized(lambda);
        let lt = lambda * t;
        // Poisson weights computed in log space so large Λt does not
        // underflow the k=0 term.
        let ln_lt = lt.ln();
        let mut ln_w = -lt; // ln of the k = 0 weight
        let mut v = pi0.to_vec();
        let mut acc = vec![0.0; self.n];
        let mut cum = 0.0;
        // Poisson mass beyond m + 10·√m is negligible; the +64 floor
        // covers tiny Λt.
        let k_max = (lt + 10.0 * lt.sqrt() + 64.0) as u64;
        for k in 0..=k_max {
            let w = ln_w.exp();
            if w > 0.0 {
                for (a, &vi) in acc.iter_mut().zip(&v) {
                    *a += w * vi;
                }
                cum += w;
            }
            if cum >= 1.0 - eps {
                break;
            }
            v = p.vec_mul(&v);
            ln_w += ln_lt - ((k + 1) as f64).ln();
        }
        acc
    }

    /// Mean time to absorption starting from `start`.
    ///
    /// Solves (−Q_TT)·τ = 1 over the transient states with the backend
    /// [`SolverStrategy::auto`] picks for the block size: dense LU or
    /// operator-interface BiCGSTAB.
    ///
    /// # Panics
    /// Panics if the chain has no absorbing state, or if `start` is
    /// absorbing (the answer would trivially be 0 — asking is a bug).
    pub fn mean_absorption_time(&self, start: usize) -> f64 {
        let transient = self.transient_states(start);
        self.mean_absorption_on(SolverStrategy::auto(transient.len()), &transient, start)
    }

    /// [`Ctmc::mean_absorption_time`] on a caller-chosen backend —
    /// benches and conformance tests use this to compare solver
    /// strategies on identical chains.
    pub fn mean_absorption_time_with(&self, start: usize, strategy: SolverStrategy) -> f64 {
        let transient = self.transient_states(start);
        self.mean_absorption_on(strategy, &transient, start)
    }

    /// The transient state list, validated for an absorption query from
    /// `start`.
    fn transient_states(&self, start: usize) -> Vec<usize> {
        assert!(
            !self.is_absorbing(start),
            "start state {start} is absorbing"
        );
        let transient: Vec<usize> = (0..self.n).filter(|&s| !self.is_absorbing(s)).collect();
        assert!(
            transient.len() < self.n,
            "chain has no absorbing state; absorption time is infinite"
        );
        transient
    }

    fn mean_absorption_on(
        &self,
        strategy: SolverStrategy,
        transient: &[usize],
        start: usize,
    ) -> f64 {
        let tau = self.solve_neg_qtt_with(strategy, transient, &vec![1.0; transient.len()]);
        let local = transient
            .iter()
            .position(|&s| s == start)
            .expect("start is transient");
        tau[local]
    }

    /// Second moment of the absorption time from `start`:
    /// E\[T²\] solves (−Q_TT)·m₂ = 2·τ with τ the mean absorption
    /// times — the standard phase-type moment recursion.
    ///
    /// # Panics
    /// As for [`Ctmc::mean_absorption_time`].
    pub fn absorption_time_second_moment(&self, start: usize) -> f64 {
        assert!(
            !self.is_absorbing(start),
            "start state {start} is absorbing"
        );
        let transient: Vec<usize> = (0..self.n).filter(|&s| !self.is_absorbing(s)).collect();
        assert!(transient.len() < self.n, "chain has no absorbing state");
        let tau = self.absorption_times(&transient);
        let rhs: Vec<f64> = tau.iter().map(|&t| 2.0 * t).collect();
        let m2 = self.solve_neg_qtt(&transient, &rhs);
        let local = transient
            .iter()
            .position(|&s| s == start)
            .expect("start is transient");
        m2[local]
    }

    /// Variance of the absorption time from `start`.
    pub fn absorption_time_variance(&self, start: usize) -> f64 {
        let m1 = self.mean_absorption_time(start);
        let m2 = self.absorption_time_second_moment(start);
        (m2 - m1 * m1).max(0.0)
    }

    /// Expected absorption times for every transient state (in the order
    /// given by `transient`).
    fn absorption_times(&self, transient: &[usize]) -> Vec<f64> {
        self.solve_neg_qtt(transient, &vec![1.0; transient.len()])
    }

    /// Solves (−Q_TT)·x = b over the given transient states with the
    /// auto-selected backend.
    fn solve_neg_qtt(&self, transient: &[usize], b: &[f64]) -> Vec<f64> {
        self.solve_neg_qtt_with(SolverStrategy::auto(transient.len()), transient, b)
    }

    /// Solves (−Q_TT)·x = b on an explicit backend.
    fn solve_neg_qtt_with(
        &self,
        strategy: SolverStrategy,
        transient: &[usize],
        b: &[f64],
    ) -> Vec<f64> {
        let nt = transient.len();
        let mut local = vec![usize::MAX; self.n];
        for (k, &s) in transient.iter().enumerate() {
            local[s] = k;
        }
        assert_eq!(b.len(), nt);
        match strategy {
            SolverStrategy::Dense => {
                // Dense: A = −Q_TT.
                let mut a = Matrix::zeros(nt, nt);
                for (k, &s) in transient.iter().enumerate() {
                    for (c, v) in self.q.row(s) {
                        if local[c] != usize::MAX {
                            a[(k, local[c])] = -v;
                        }
                    }
                }
                let lu = LuFactors::new(a).expect("transient generator block is nonsingular");
                lu.solve(b)
            }
            SolverStrategy::GaussSeidel => {
                // Gauss–Seidel on xᵢ = (bᵢ + Σ_{j≠i} q_ij xⱼ) / (−q_ii).
                let mut tau = vec![0.0; nt];
                let max_iter = 200_000;
                let tol = 1e-12;
                for _ in 0..max_iter {
                    let mut delta = 0.0_f64;
                    for (k, &s) in transient.iter().enumerate() {
                        let mut acc = b[k];
                        let mut diag = 0.0;
                        for (c, v) in self.q.row(s) {
                            if c == s {
                                diag = -v;
                            } else if local[c] != usize::MAX {
                                acc += v * tau[local[c]];
                            }
                        }
                        debug_assert!(diag > 0.0);
                        let new = acc / diag;
                        delta = delta.max((new - tau[k]).abs());
                        tau[k] = new;
                    }
                    if delta < tol {
                        return tau;
                    }
                }
                panic!("Gauss–Seidel failed to converge on absorption times");
            }
            SolverStrategy::MatrixFree => {
                // BiCGSTAB touching the CSR generator only through
                // operator applies. (The flag chain has a cheaper,
                // never-materialised operator in `crate::matfree`;
                // this path serves arbitrary chains.)
                let op = CsrNegQtt {
                    q: &self.q,
                    transient,
                    local: &local,
                };
                let diag: Vec<f64> = transient.iter().map(|&s| self.exit[s]).collect();
                let mut x = vec![0.0; nt];
                let outcome = bicgstab(&op, &Jacobi::new(&diag), b, &mut x, 1e-13, 2000);
                assert!(
                    outcome.relative_residual <= 1e-9,
                    "BiCGSTAB failed to converge on absorption times \
                     (relative residual {} after {} iterations)",
                    outcome.relative_residual,
                    outcome.iterations
                );
                x
            }
        }
    }

    /// The absorption-time density f(t) from `start`, evaluated at each
    /// time in `ts`: f(t) = Σ_{i transient} πᵢ(t) · aᵢ where aᵢ is the
    /// total rate from `i` into absorbing states.
    pub fn absorption_density(&self, start: usize, ts: &[f64]) -> Vec<f64> {
        let into_abs: Vec<f64> = (0..self.n)
            .map(|s| {
                self.q
                    .row(s)
                    .filter(|&(c, _)| c != s && self.is_absorbing(c))
                    .map(|(_, v)| v)
                    .sum()
            })
            .collect();
        let mut pi0 = vec![0.0; self.n];
        pi0[start] = 1.0;
        ts.iter()
            .map(|&t| {
                let pi = self.transient(&pi0, t, 1e-12);
                pi.iter().zip(&into_abs).map(|(p, a)| p * a).sum()
            })
            .collect()
    }

    /// The absorption-time CDF F(t) = P(X ≤ t) from `start`.
    pub fn absorption_cdf(&self, start: usize, t: f64) -> f64 {
        let mut pi0 = vec![0.0; self.n];
        pi0[start] = 1.0;
        let pi = self.transient(&pi0, t, 1e-12);
        (0..self.n)
            .filter(|&s| self.is_absorbing(s))
            .map(|s| pi[s])
            .sum()
    }

    /// [`Ctmc::absorption_cdf`] at **many** times in one uniformization
    /// pass: the jump chain is propagated once up to the horizon the
    /// largest `t` needs, recording the absorbed mass after each step;
    /// every F(t) is then a Poisson mixture over that sequence. Cost is
    /// one propagation plus O(Λ·tᵢ) scalar work per point — the hook
    /// the distribution-level conformance gates (KS over thousands of
    /// sample points) rely on.
    ///
    /// Negative `t` evaluates to 0 (the absorption time is a.s.
    /// non-negative), so callers may pass left-limit points `x⁻` from
    /// `rbsim::gof::ks_eval_points` unclamped.
    pub fn absorption_cdf_batch(&self, start: usize, ts: &[f64]) -> Vec<f64> {
        assert!(
            ts.iter().all(|t| t.is_finite()),
            "invalid CDF evaluation time"
        );
        let mut seq = self.absorption_cdf_seq(start);
        ts.iter().map(|&t| seq.eval(t)).collect()
    }

    /// The absorption CDF from `start` as a lazily extended
    /// uniformization of this chain (see [`AbsorptionCdf`]).
    pub(crate) fn absorption_cdf_seq(&self, start: usize) -> AbsorptionCdf<'_> {
        let lambda = self.uniformization_constant();
        let absorbing: Vec<usize> = (0..self.n).filter(|&s| self.is_absorbing(s)).collect();
        let mut v = vec![0.0; self.n];
        v[start] = 1.0;
        let absorbed0 = absorbing.iter().map(|&s| v[s]).sum();
        // Built on the first step: a chain that never moves (Λ = 0), or
        // queries at t ≤ 0 only, never need it.
        let mut p = None;
        let step = move || {
            let p = p.get_or_insert_with(|| self.uniformized(lambda));
            v = p.vec_mul(&v);
            absorbing.iter().map(|&s| v[s]).sum()
        };
        AbsorptionCdf::new(lambda, absorbed0, Box::new(step))
    }
}

/// Truncation mass of the absorption-CDF Poisson mixtures.
const CDF_EPS: f64 = 1e-12;

/// An absorption CDF F(t) as Poisson mixtures over one jump-chain
/// propagation: `absorbed[k]` is the absorbed mass after `k` uniformized
/// jumps, extended lazily to the horizon the largest queried `t` needs.
/// A batch of evaluations — or the dozens of probes a quantile search
/// makes — therefore pays for a single propagation to the final
/// horizon, then O(Λ·t) scalars per query. Shared by the materialised
/// chain and the matrix-free flag-chain operator; only the jump step
/// differs.
pub(crate) struct AbsorptionCdf<'a> {
    lambda: f64,
    absorbed: Vec<f64>,
    /// Advances the jump-chain distribution one step and returns its
    /// absorbed mass.
    step: Box<dyn FnMut() -> f64 + 'a>,
    /// |mass| still on a start state with a negative stay factor (see
    /// [`AbsorptionCdf::with_signed_entry`]); 0 when every stay factor
    /// is non-negative.
    signed: f64,
    /// Factor `signed` shrinks by per step.
    signed_decay: f64,
}

impl<'a> AbsorptionCdf<'a> {
    /// A sequence starting from absorbed mass `absorbed0` under
    /// uniformization constant `lambda`.
    pub(crate) fn new(
        lambda: f64,
        absorbed0: f64,
        step: Box<dyn FnMut() -> f64 + 'a>,
    ) -> AbsorptionCdf<'a> {
        AbsorptionCdf {
            lambda,
            absorbed: vec![absorbed0],
            step,
            signed: 0.0,
            signed_decay: 0.0,
        }
    }

    /// The same sequence for a chain whose start state, which nothing
    /// re-enters, exits faster than `lambda`: its stay factor 1 − r is
    /// negative, its mass after k steps is (1 − r)ᵏ, and `decay` is
    /// |1 − r|. Until that mass is spent the absorbed mass oscillates,
    /// so it is no evidence of convergence and the early stop waits.
    pub(crate) fn with_signed_entry(mut self, decay: f64) -> AbsorptionCdf<'a> {
        self.signed = 1.0;
        self.signed_decay = decay;
        self
    }

    /// F(t); negative `t` evaluates to 0 (the absorption time is a.s.
    /// non-negative), so left-limit points `x⁻` pass through unclamped.
    pub(crate) fn eval(&mut self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let lt = self.lambda * t;
        let k_need = (lt + 10.0 * lt.sqrt() + 64.0) as usize;
        // With no signed start mass left the absorbed mass is
        // non-decreasing; once it is within eps of 1 the remaining steps
        // cannot change any mixture by more than eps, so stop
        // propagating (keeps the pass bounded by the chain's mixing
        // time, not by the largest t).
        while lt > 0.0
            && self.absorbed.len() <= k_need
            && (self.signed > CDF_EPS || 1.0 - self.absorbed[self.absorbed.len() - 1] > CDF_EPS)
        {
            let a = (self.step)();
            self.absorbed.push(a);
            self.signed *= self.signed_decay;
        }
        poisson_mixture(lt, &self.absorbed, CDF_EPS)
    }

    /// Jump steps propagated so far.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> usize {
        self.absorbed.len() - 1
    }
}

/// `Σ_k Pois(k; lt) · seq[min(k, last)]` with adaptive truncation
/// (weights accumulated in log space; total truncated mass ≤ eps). The
/// clamp to the last entry is exact up to eps when the sequence has
/// converged there (see the early cutoff in the batch CDF).
pub(crate) fn poisson_mixture(lt: f64, seq: &[f64], eps: f64) -> f64 {
    if lt <= 0.0 {
        return if lt < 0.0 { 0.0 } else { seq[0] };
    }
    let ln_lt = lt.ln();
    let mut ln_w = -lt;
    let mut acc = 0.0;
    let mut cum = 0.0;
    let k_max = (lt + 10.0 * lt.sqrt() + 64.0) as u64;
    for k in 0..=k_max {
        let w = ln_w.exp();
        if w > 0.0 {
            acc += w * seq[(k as usize).min(seq.len() - 1)];
            cum += w;
        }
        if cum >= 1.0 - eps {
            break;
        }
        ln_w += ln_lt - ((k + 1) as f64).ln();
    }
    acc
}

/// `−Q_TT` of a materialised chain as a [`LinOp`] (the CSR is touched
/// only through row sweeps inside `apply`).
struct CsrNegQtt<'a> {
    q: &'a Csr,
    transient: &'a [usize],
    local: &'a [usize],
}

impl LinOp for CsrNegQtt<'_> {
    fn dim(&self) -> usize {
        self.transient.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (k, &s) in self.transient.iter().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.q.row(s) {
                let lc = self.local[c];
                if lc != usize::MAX {
                    acc -= v * x[lc];
                }
            }
            y[k] = acc;
        }
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
        // Absorption splits a:b.
        let mut pi0 = vec![0.0; 3];
        pi0[0] = 1.0;
        let pi = c.transient(&pi0, 100.0, 1e-13);
        assert!((pi[1] - a / (a + b)).abs() < 1e-9);
        assert!((pi[2] - b / (a + b)).abs() < 1e-9);
    }

    #[test]
    fn transient_preserves_probability_mass() {
        let c = Ctmc::from_transitions(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (1, 3, 0.7)]);
        let pi0 = [1.0, 0.0, 0.0, 0.0];
        for t in [0.1, 1.0, 5.0, 25.0] {
            let pi = c.transient(&pi0, t, 1e-12);
            let mass: f64 = pi.iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "mass {mass} at t={t}");
            assert!(pi.iter().all(|&p| p >= -1e-12));
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
    fn all_solver_strategies_agree() {
        // A chain with cycles, several absorbing exits and uneven rates.
        let c = Ctmc::from_transitions(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 0.8),
                (2, 1, 0.3),
                (1, 0, 0.2),
                (2, 3, 1.1),
                (3, 0, 0.4),
                (3, 4, 0.9),
                (2, 5, 0.05),
            ],
        );
        let dense = c.mean_absorption_time_with(0, SolverStrategy::Dense);
        let gs = c.mean_absorption_time_with(0, SolverStrategy::GaussSeidel);
        let krylov = c.mean_absorption_time_with(0, SolverStrategy::MatrixFree);
        assert!((dense - gs).abs() < 1e-9 * dense, "{dense} vs GS {gs}");
        assert!(
            (dense - krylov).abs() < 1e-9 * dense,
            "{dense} vs Krylov {krylov}"
        );
        assert!((c.mean_absorption_time(0) - dense).abs() < 1e-12);
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
}
