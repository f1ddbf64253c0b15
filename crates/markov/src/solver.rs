//! The transient block of an absorbing chain and its one solve rule.
//!
//! Every absorption solve over a materialised chain is a solve with its
//! transient block A: −Q_TT of a [`crate::Ctmc`] (the absorption-time
//! moments), I − P_TT of a [`crate::Dtmc`] (expected visits, transposed)
//! and the lumped chain's −Q̃_TT at the coarse level of [`crate::matfree`].
//! Each is a nonsingular M-matrix whose rows hold off-diagonal entries
//! −qᵢⱼ ≤ 0 and a diagonal that exceeds their magnitudes by the row's rate
//! sᵢ ≥ 0 straight into absorption. [`TransientBlock`] keeps those rows,
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

use std::sync::OnceLock;

use crate::linalg::{GthFactors, Matrix};
use crate::matfree::{bicgstab, Jacobi, LinOp};

/// Largest transient-state count a block solves densely (2⁸): O(S³)
/// elimination stays in the low milliseconds up to there.
pub const DENSE_MAX_STATES: usize = 1 << 8;

/// The Krylov arm's relative-residual target, iteration budget and
/// acceptance bound (module doc).
const KRYLOV_TOL: f64 = 1e-13;
const KRYLOV_MAX_ITER: usize = 2000;
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
    /// applies ([`crate::matfree::LinOp`]): the flag chain's default at
    /// every n, from the R1–R4 rules with no generator stored.
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
            "BiCGSTAB failed to converge on the transient block \
             (relative residual {} after {} iterations)",
            outcome.relative_residual,
            outcome.iterations
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
