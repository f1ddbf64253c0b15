//! The transient block of an absorbing chain, its one solve rule, and the
//! Krylov method behind every iterative solve in the crate.
//!
//! Every absorption solve over a materialised chain is a solve with its
//! transient block A: −Q_TT of a [`crate::Ctmc`] (the absorption-time
//! moments), I − P_TT of a [`crate::Dtmc`] (expected visits, transposed)
//! and the lumped chain's −Q̃_TT at the coarse level of [`crate::matfree`].
//! Each is a nonsingular M-matrix whose rows hold off-diagonal entries
//! −qᵢⱼ ≤ 0 and a diagonal that exceeds their magnitudes by the row's rate
//! sᵢ ≥ 0 straight into absorption. `TransientBlock` keeps those rows,
//! the diagonal and the sᵢ, and solves `A·x = b` and `Aᵀ·x = b` by one
//! rule on its size S:
//!
//! | transient states | backend | memory | work |
//! |------------------|---------|--------|------|
//! | ≤ [`DENSE_MAX_STATES`] | GTH elimination ([`crate::linalg::GthFactors`]) | O(S²) | O(S³), once per block |
//! | above | Jacobi-preconditioned BiCGSTAB on the rows | O(S) vectors | O(nnz) per operator apply |
//!
//! The Krylov arm targets a relative residual of 1e-13 within 2 000
//! iterations and panics above 1e-9. GTH's input, the products and the
//! sweeps read each row in the chain's own column order. The flag chain
//! answers through [`crate::matfree`] at every n; [`SolverStrategy`]
//! survives as the backend that benches and conformance tests force
//! through [`crate::Ctmc::mean_absorption_time_with`], and no default
//! path picks [`SolverStrategy::GaussSeidel`].
//!
//! The Krylov method is declared here once, for the blocks and for the
//! flag chain of [`crate::matfree`]: preconditioned BiCGSTAB refined on
//! the operator's own residual, reporting a [`KrylovOutcome`]. Each
//! operator keeps its own acceptance bound.

use std::sync::OnceLock;

use crate::linalg::{GthFactors, Matrix};

/// Largest transient-state count a block solves densely (2⁸): O(S³)
/// elimination stays in the low milliseconds up to there.
pub const DENSE_MAX_STATES: usize = 1 << 8;

/// Every Krylov solve's relative-residual target (scaled with the state
/// count on the flag chain) and iteration budget, and the block's
/// acceptance bound (module doc).
pub(crate) const KRYLOV_TOL: f64 = 1e-13;
pub(crate) const KRYLOV_MAX_ITER: usize = 2000;
const KRYLOV_ACCEPT: f64 = 1e-9;

/// Which backend an absorption solve runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverStrategy {
    /// GTH elimination over the materialised transient block.
    Dense,
    /// Gauss–Seidel sweeps over the materialised transient block. Never
    /// chosen by a default path; callers force it as a reference.
    GaussSeidel,
    /// Preconditioned BiCGSTAB touching the matrix only through operator
    /// applies: the flag chain's default at every n, from the R1–R4 rules
    /// with no generator stored.
    MatrixFree,
}

impl std::fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverStrategy::Dense => write!(f, "dense-gth"),
            SolverStrategy::GaussSeidel => write!(f, "sparse-gauss-seidel"),
            SolverStrategy::MatrixFree => write!(f, "matrix-free-bicgstab"),
        }
    }
}

/// The transient block A of an absorbing chain, in local indices
/// (module doc).
pub(crate) struct TransientBlock {
    /// The local index of each chain state; `usize::MAX` off the block.
    local: Vec<usize>,
    /// Row k of A is `entries[offsets[k]..offsets[k + 1]]`, its `(j, aₖⱼ)`
    /// in column order: −qₖⱼ towards the other transient states, and the
    /// diagonal.
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
    /// The diagonal of A.
    diag: Vec<f64>,
    /// Each row's rate straight into absorption.
    absorb: Vec<f64>,
    /// GTH factors, built on the first dense solve.
    gth: OnceLock<GthFactors>,
}

impl TransientBlock {
    /// The block over the states s < `n` with `is_transient(s)`.
    /// `row(s)` yields state s's entries `(c, qₛc)` in column order: one
    /// into a transient state is a rate of the block, one into any other
    /// state a rate into absorption, and s's own entry qₛₛ (0 when absent)
    /// gives the diagonal `diag(qₛₛ)`. Panics if every state is transient.
    pub(crate) fn new<I: Iterator<Item = (usize, f64)>>(
        n: usize,
        is_transient: impl Fn(usize) -> bool,
        row: impl Fn(usize) -> I,
        diag: impl Fn(f64) -> f64,
    ) -> TransientBlock {
        let (mut local, mut nt) = (vec![usize::MAX; n], 0);
        for s in (0..n).filter(|&s| is_transient(s)) {
            local[s] = nt;
            nt += 1;
        }
        assert!(nt < n, "chain has no absorbing state");
        let (mut offsets, mut entries) = (Vec::with_capacity(nt + 1), Vec::new());
        let (mut d, mut absorb) = (Vec::with_capacity(nt), vec![0.0; nt]);
        offsets.push(0);
        for (s, &k) in local.iter().enumerate().filter(|&(_, &k)| k != usize::MAX) {
            let (mut own, row) = (0.0, row(s));
            entries.reserve(row.size_hint().0 + 1);
            for (c, v) in row {
                match local[c] {
                    _ if c == s => own = v,
                    usize::MAX => absorb[k] += v,
                    lc => entries.push((lc, -v)),
                }
            }
            // The diagonal goes in at its column, after the columns below k.
            d.push(diag(own));
            let at = offsets[k] + entries[offsets[k]..].partition_point(|&(j, _)| j < k);
            entries.insert(at, (k, d[k]));
            offsets.push(entries.len());
        }
        TransientBlock {
            local,
            offsets,
            entries,
            diag: d,
            absorb,
            gth: OnceLock::new(),
        }
    }

    /// Number of transient states.
    pub(crate) fn dim(&self) -> usize {
        self.diag.len()
    }

    /// The local index of transient chain state `s`.
    pub(crate) fn local(&self, s: usize) -> usize {
        let k = self.local[s];
        assert!(k != usize::MAX, "state {s} is not transient");
        k
    }

    /// Row k's `(j, aₖⱼ)`.
    fn row(&self, k: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Solves `A·x = b` by the one rule (module doc).
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        if self.dim() <= DENSE_MAX_STATES {
            self.gth().solve(b)
        } else {
            self.krylov(b, false)
        }
    }

    /// Solves `Aᵀ·x = b` by the one rule (module doc).
    pub(crate) fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        if self.dim() <= DENSE_MAX_STATES {
            self.gth().solve_transpose(b)
        } else {
            self.krylov(b, true)
        }
    }

    /// Solves `A·x = b` on a forced backend, whatever the block's size.
    pub(crate) fn solve_with(&self, strategy: SolverStrategy, b: &[f64]) -> Vec<f64> {
        match strategy {
            SolverStrategy::Dense => self.gth().solve(b),
            SolverStrategy::GaussSeidel => self.gauss_seidel(b),
            SolverStrategy::MatrixFree => self.krylov(b, false),
        }
    }

    /// The GTH factors of the off-diagonal rates and the rates into
    /// absorption.
    fn gth(&self) -> &GthFactors {
        self.gth.get_or_init(|| {
            let mut rates = Matrix::zeros(self.dim(), self.dim());
            for k in 0..self.dim() {
                for &(j, a) in self.row(k).iter().filter(|&&(j, _)| j != k) {
                    rates[(k, j)] = -a;
                }
            }
            GthFactors::new(rates, self.absorb.clone())
                .expect("every transient state reaches absorption")
        })
    }

    /// Jacobi-preconditioned BiCGSTAB on `A` or `Aᵀ`; panics if the
    /// relative residual ends above [`KRYLOV_ACCEPT`].
    fn krylov(&self, b: &[f64], transpose: bool) -> Vec<f64> {
        let (op, pre) = (BlockOp(self, transpose), Jacobi::new(&self.diag));
        let mut x = vec![0.0; self.dim()];
        let outcome = bicgstab(&op, &pre, b, &mut x, KRYLOV_TOL, KRYLOV_MAX_ITER);
        assert!(
            outcome.relative_residual <= KRYLOV_ACCEPT,
            "BiCGSTAB failed to converge on the transient block: {outcome:?}"
        );
        x
    }

    /// Gauss–Seidel on xₖ = (bₖ − Σ_{j≠k} aₖⱼ·xⱼ) / aₖₖ from x = 0, until
    /// no entry moves by 1e-12; panics after 200 000 sweeps.
    fn gauss_seidel(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        for _ in 0..200_000 {
            let mut delta = 0.0_f64;
            for k in 0..self.dim() {
                let mut acc = b[k];
                for &(j, a) in self.row(k).iter().filter(|&&(j, _)| j != k) {
                    acc -= a * x[j];
                }
                let new = acc / self.diag[k];
                delta = delta.max((new - x[k]).abs());
                x[k] = new;
            }
            if delta < 1e-12 {
                return x;
            }
        }
        panic!("Gauss–Seidel failed to converge on the transient block");
    }
}

/// `A`, or `Aᵀ` when the flag is set, of a [`TransientBlock`] as a
/// [`LinOp`].
struct BlockOp<'a>(&'a TransientBlock, bool);

impl LinOp for BlockOp<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if self.1 {
            y.fill(0.0);
            for (k, &xk) in x.iter().enumerate() {
                for &(j, a) in self.0.row(k) {
                    y[j] += a * xk;
                }
            }
            return;
        }
        for (k, y) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(j, a) in self.0.row(k) {
                acc += a * x[j];
            }
            *y = acc;
        }
    }
}

/// A linear operator touched only through matrix–vector products.
///
/// Implementations are "matrix-free" in the solver-interface sense: the
/// Krylov loop never sees entries, only the action `y = A·x`. The flag
/// chain implements it straight from the R1–R4 rules
/// ([`crate::matfree`]); a [`TransientBlock`] by sweeps over its rows.
pub(crate) trait LinOp {
    /// Operand/result dimension.
    fn dim(&self) -> usize;
    /// Computes `y = A·x` (overwriting `y`).
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Computes the residual `r = b − A·x` (overwriting `r`). The default
    /// subtracts [`LinOp::apply`]; an operator that can form `A·x`
    /// without cancellation overrides it. [`bicgstab`] forms its true
    /// residual, which also restarts each round, and every product of a
    /// refinement round through it.
    fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.apply(x, r);
        for (r, &b) in r.iter_mut().zip(b) {
            *r = b - *r;
        }
    }
}

/// A preconditioner: computes `z ≈ A⁻¹·r`.
pub(crate) trait Precond {
    /// Applies the preconditioner (overwriting `z`).
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// Jacobi (diagonal) preconditioning: `z = D⁻¹·r`.
pub(crate) struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Builds from the operator's diagonal.
    ///
    /// # Panics
    /// Panics if any diagonal entry is zero or non-finite.
    pub(crate) fn new(diag: &[f64]) -> Jacobi {
        Jacobi {
            inv_diag: diag
                .iter()
                .map(|&d| {
                    assert!(d != 0.0 && d.is_finite(), "singular diagonal entry {d}");
                    1.0 / d
                })
                .collect(),
        }
    }
}

impl Precond for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((z, &inv), &r) in z.iter_mut().zip(&self.inv_diag).zip(r) {
            *z = inv * r;
        }
    }
}

/// Convergence report of a BiCGSTAB solve.
#[derive(Clone, Copy, Debug)]
pub struct KrylovOutcome {
    /// Whether the requested tolerance was reached
    /// (`relative_residual <= tol`, no slack).
    pub converged: bool,
    /// BiCGSTAB iterations performed (each costs two operator applies
    /// and two preconditioner applies).
    pub iterations: usize,
    /// Final true residual ‖b − A·x‖₂ / ‖b‖₂, formed by the operator's
    /// residual (the difference form on the flag chain).
    pub relative_residual: f64,
    /// Outer rounds after the first: iterative-refinement steps.
    pub refinements: usize,
    /// The last round's correction ‖Δx‖∞ / ‖x‖∞ (1 for a solve from
    /// x = 0 that stopped in its first round).
    pub correction: f64,
    /// The last correction, when it is a verified estimate of the
    /// relative error: at least one refinement round ran, the corrections
    /// contracted (the last fell under ½ the round before, or, where the
    /// refinement stalled at its rounding floor, the one before it did),
    /// and the last round's recurrence reached its target rather than its
    /// iteration budget.
    pub error_estimate: Option<f64>,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// A refinement round whose correction ‖Δx‖∞/‖x‖∞ falls to this has
/// reached working precision: a further round would only move rounding
/// noise.
const REFINE_FLOOR: f64 = 1e-14;

/// Preconditioned BiCGSTAB (van der Vorst 1992): solves `A·x = b` to a
/// relative residual of `tol`, touching `A` only through
/// [`LinOp::apply`] and [`LinOp::residual`].
///
/// `x` carries the initial guess in and the solution out. Breakdowns
/// (ρ ≈ 0, ω ≈ 0) trigger a restart with the current residual as the
/// new shadow vector rather than aborting the solve. Each outer round
/// runs the recurrence from the current iterate on the *true* residual
/// [`LinOp::residual`], so every round after the first is one step of
/// iterative refinement (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, ch. 12). The rounds stop on the first of: the true
/// residual reaches `tol`; a round's correction ‖Δx‖∞/‖x‖∞ falls to
/// 1e-14; from the third round on, the correction stops contracting (at
/// least ½ the previous one); the iteration budget runs out. The returned
/// [`KrylovOutcome`] reports the final true residual and the corrections.
pub(crate) fn bicgstab(
    a: &dyn LinOp,
    m: &dyn Precond,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> KrylovOutcome {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    assert_eq!(x.len(), n, "solution dimension mismatch");
    let norm_b = norm2(b);
    if norm_b == 0.0 {
        x.fill(0.0);
        return KrylovOutcome {
            converged: true,
            iterations: 0,
            relative_residual: 0.0,
            refinements: 0,
            correction: 0.0,
            error_estimate: None,
        };
    }

    let (mut iterations, mut rounds) = (0, 0);
    let (mut correction, mut was_contracting) = (f64::INFINITY, false);
    let mut start = x.to_vec();
    let mut residual = b.to_vec();
    if x.iter().any(|v| v.to_bits() != 0) {
        // Every solve here starts from all +0.0, which each operator maps
        // to +0.0, so b − (+0.0) = b bit for bit and the apply is skipped.
        a.residual(b, x, &mut residual);
    }
    let refining = ThroughResidual {
        a,
        zero: vec![0.0; n],
    };
    loop {
        start.copy_from_slice(x);
        // Each round restarts the recurrence on the true residual.
        let op = if rounds == 0 { a } else { &refining };
        let (used, reached) =
            bicgstab_recurrence(op, m, &residual, x, tol * norm_b, max_iter - iterations);
        iterations += used;
        rounds += 1;
        let previous = correction;
        correction = relative_change(&start, x);
        a.residual(b, x, &mut residual);
        let rel = norm2(&residual) / norm_b;
        let contracted = correction < 0.5 * previous;
        // A refinement that stalls at its rounding floor has contracted up
        // to the round before.
        let converging = contracted || (rounds >= 3 && was_contracting);
        if rel <= tol
            || correction <= REFINE_FLOOR
            || (rounds >= 3 && !contracted)
            || iterations >= max_iter
        {
            return KrylovOutcome {
                converged: rel <= tol,
                iterations,
                relative_residual: rel,
                refinements: rounds - 1,
                correction,
                error_estimate: (rounds >= 2 && converging && reached).then_some(correction),
            };
        }
        was_contracting = contracted;
    }
}

/// `A` with every product formed through [`LinOp::residual`], as
/// A·x = −(0 − A·x) (both steps exact): the operator a refinement round
/// runs its recurrence on. On the flag chain that is the difference form,
/// which resolves the slowly decaying mode a standard-form product rounds
/// away once ε·Λ·E\[X\] nears 1; on an operator with the default
/// residual it is [`LinOp::apply`] (up to the sign of zero entries).
struct ThroughResidual<'a> {
    a: &'a dyn LinOp,
    zero: Vec<f64>,
}

impl LinOp for ThroughResidual<'_> {
    fn dim(&self) -> usize {
        self.a.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.residual(&self.zero, x, y);
        for y in y.iter_mut() {
            *y = -*y;
        }
    }
}

/// ‖x − start‖∞ / ‖x‖∞: how far one round moved the iterate.
fn relative_change(start: &[f64], x: &[f64]) -> f64 {
    let (mut moved, mut size) = (0.0f64, 0.0f64);
    for (&s, &x) in start.iter().zip(x) {
        moved = moved.max((x - s).abs());
        size = size.max(x.abs());
    }
    if moved == 0.0 {
        0.0
    } else {
        moved / size
    }
}

/// One run of the BiCGSTAB recurrence from the current iterate, whose
/// true residual is `residual`, until the *recursive* residual reaches
/// `target` or `max_iter` iterations pass. Returns the iterations used and
/// whether the target was reached (false on an exhausted budget).
fn bicgstab_recurrence(
    a: &dyn LinOp,
    m: &dyn Precond,
    residual: &[f64],
    x: &mut [f64],
    target: f64,
    max_iter: usize,
) -> (usize, bool) {
    let n = a.dim();
    let mut r = residual.to_vec();
    let mut r0 = r.clone();
    let mut p = r.clone();
    let mut v = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut t = vec![0.0; n];
    let mut rho = dot(&r0, &r);
    let mut iterations = 0;

    while iterations < max_iter {
        iterations += 1;

        // p̂ = M⁻¹p ; v = A·p̂
        m.apply(&p, &mut phat);
        a.apply(&phat, &mut v);
        let r0v = dot(&r0, &v);
        if r0v.abs() < f64::MIN_POSITIVE {
            // Breakdown: restart with the current residual.
            r0.copy_from_slice(&r);
            p.copy_from_slice(&r);
            rho = dot(&r0, &r);
            if rho == 0.0 {
                return (iterations, true); // exact solution reached
            }
            continue;
        }
        let alpha = rho / r0v;

        // s = r − α·v
        for ((s, &r), &v) in s.iter_mut().zip(&r).zip(&v) {
            *s = r - alpha * v;
        }
        if norm2(&s) <= target {
            for (x, &ph) in x.iter_mut().zip(&phat) {
                *x += alpha * ph;
            }
            return (iterations, true);
        }

        // ŝ = M⁻¹s ; t = A·ŝ
        m.apply(&s, &mut shat);
        a.apply(&shat, &mut t);
        let tt = dot(&t, &t);
        let omega = if tt > 0.0 { dot(&t, &s) / tt } else { 0.0 };

        for ((x, &ph), &sh) in x.iter_mut().zip(&phat).zip(&shat) {
            *x += alpha * ph + omega * sh;
        }
        for ((r, &s), &t) in r.iter_mut().zip(&s).zip(&t) {
            *r = s - omega * t;
        }
        if norm2(&r) <= target {
            return (iterations, true);
        }

        let rho_new = dot(&r0, &r);
        if omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE {
            // ω- or ρ-breakdown: restart from the current residual.
            r0.copy_from_slice(&r);
            p.copy_from_slice(&r);
            rho = dot(&r0, &r);
            continue;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for ((p, &r), &v) in p.iter_mut().zip(&r).zip(&v) {
            *p = r + beta * (*p - omega * v);
        }
    }
    (iterations, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctmc, Dtmc};

    /// The transitions of a seeded random absorbing chain: transient
    /// states 0..`nt` on a ring, three more random exits each, and one row
    /// in five absorbing straight into state `nt` or `nt + 1`.
    fn random_chain(nt: usize, mut seed: u64) -> Vec<(usize, usize, f64)> {
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut tr = Vec::new();
        for i in 0..nt {
            tr.push((i, (i + 1) % nt, 0.1 + unit()));
            for j in [0; 3].map(|_| (unit() * nt as f64) as usize) {
                if j != i {
                    tr.push((i, j, 0.1 + 2.0 * unit()));
                }
            }
            if unit() < 0.2 {
                tr.push((i, nt + usize::from(unit() < 0.5), 0.05 + unit()));
            }
        }
        tr
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-9 * w.abs(), "{what}[{k}]: {g} vs {w}");
        }
    }

    #[test]
    fn rule_switches_at_the_dense_cap() {
        for (nt, arm) in [
            (DENSE_MAX_STATES, SolverStrategy::Dense),
            (DENSE_MAX_STATES + 1, SolverStrategy::MatrixFree),
        ] {
            let block = Ctmc::from_transitions(nt + 2, &random_chain(nt, 7)).transient_block(0);
            let b = vec![1.0; nt];
            assert_eq!(block.solve(&b), block.solve_with(arm, &b), "{nt} states");
        }
    }

    #[test]
    fn every_arm_matches_gth_in_both_orientations_above_the_cap() {
        // Forward: the default (Krylov) τ and second moment, and the mean
        // on each forced arm, against forced GTH.
        let (nt, tr) = (300, random_chain(300, 0x5eed));
        let c = Ctmc::from_transitions(nt + 2, &tr);
        let block = c.transient_block(0);
        let ones = vec![1.0; nt];
        let tau = block.solve(&ones);
        let tau_gth = block.solve_with(SolverStrategy::Dense, &ones);
        assert_close(&tau, &tau_gth, "τ");
        assert_eq!(c.mean_absorption_time(0), tau[0]);
        for arm in [SolverStrategy::GaussSeidel, SolverStrategy::MatrixFree] {
            let mean = c.mean_absorption_time_with(0, arm);
            assert_close(&[mean], &tau_gth[..1], "E[T]");
        }
        let twice: Vec<f64> = tau_gth.iter().map(|&t| 2.0 * t).collect();
        let m2 = block.solve_with(SolverStrategy::Dense, &twice);
        assert_close(&[c.absorption_time_second_moment(0)], &m2[..1], "m₂");

        // Transposed: expected visits of the uniformized jump chain against
        // GTH's transposed solve of its I − P_TT.
        let lambda = 1.05 * c.uniformization_constant();
        let jumps: Vec<_> = tr.iter().map(|&(i, j, q)| (i, j, q / lambda)).collect();
        let d = Dtmc::from_transitions(nt + 2, &jumps);
        let visits = d.expected_visits(17, &(0..nt + 2).map(|s| s < nt).collect::<Vec<_>>());
        let block = TransientBlock::new(nt + 2, |s| s < nt, |s| d.matrix().row(s), |p| 1.0 - p);
        let mut e = vec![0.0; nt];
        e[17] = 1.0;
        assert_close(&visits[..nt], &block.gth().solve_transpose(&e), "visits");
    }

    #[test]
    fn refinement_that_never_contracts_gives_no_estimate() {
        // A residual offset by ±100, alternating on every call with a
        // right-hand side (the products, formed with b = 0, stay exact):
        // each refinement round swings x across the solution by more than
        // its size, so the corrections never contract and no estimate may
        // be claimed.
        struct Drifting {
            a: Matrix,
            calls: std::cell::Cell<i32>,
        }
        impl LinOp for Drifting {
            fn dim(&self) -> usize {
                self.a.rows()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y.copy_from_slice(&self.a.mul_vec(x));
            }
            fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
                let drift = if b.iter().any(|&v| v != 0.0) {
                    self.calls.set(self.calls.get() + 1);
                    100.0 * (-1.0f64).powi(self.calls.get())
                } else {
                    0.0
                };
                for ((r, &ax), &b) in r.iter_mut().zip(&self.a.mul_vec(x)).zip(b) {
                    *r = b - ax + drift;
                }
            }
        }
        let a = Matrix::from_rows(&[&[4.0, -1.0, 0.5], &[-2.0, 5.0, -1.0], &[0.0, -3.0, 6.0]]);
        let op = Drifting {
            a,
            calls: std::cell::Cell::new(0),
        };
        let mut x = vec![0.0; 3];
        let pre = Jacobi::new(&[4.0, 5.0, 6.0]);
        let out = bicgstab(&op, &pre, &[1.0, -2.0, 3.5], &mut x, 1e-13, 200);
        assert!(!out.converged && out.refinements >= 2, "{out:?}");
        assert!(out.correction > 0.1, "{out:?}");
        assert_eq!(out.error_estimate, None, "{out:?}");
    }

    #[test]
    fn bicgstab_solves_a_small_nonsymmetric_system() {
        struct DenseOp(Matrix);
        impl LinOp for DenseOp {
            fn dim(&self) -> usize {
                self.0.rows()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y.copy_from_slice(&self.0.mul_vec(x));
            }
        }
        let a = Matrix::from_rows(&[&[4.0, -1.0, 0.5], &[-2.0, 5.0, -1.0], &[0.0, -3.0, 6.0]]);
        let diag = vec![4.0, 5.0, 6.0];
        let b = vec![1.0, -2.0, 3.5];
        let mut x = vec![0.0; 3];
        let out = bicgstab(
            &DenseOp(a.clone()),
            &Jacobi::new(&diag),
            &b,
            &mut x,
            1e-13,
            200,
        );
        assert!(out.converged, "residual {}", out.relative_residual);
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn displays_name_each_backend() {
        assert_eq!(SolverStrategy::Dense.to_string(), "dense-gth");
        assert_eq!(
            SolverStrategy::GaussSeidel.to_string(),
            "sparse-gauss-seidel"
        );
        assert_eq!(
            SolverStrategy::MatrixFree.to_string(),
            "matrix-free-bicgstab"
        );
    }
}
