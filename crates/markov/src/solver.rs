//! Solver-strategy selection for absorption solves.
//!
//! The generic chains ([`crate::Ctmc`], [`crate::Dtmc`]) solve
//! `(−Q_TT)·x = b` (and its transpose) over transient blocks from a few
//! states (the lumped chain of Figure 3) to about 1.5·2¹⁶ (the split
//! chain of Figure 4), so every generic absorption entry point dispatches
//! on a [`SolverStrategy`]:
//!
//! | strategy | transient states | memory | work |
//! |----------|------------------|--------|------|
//! | [`SolverStrategy::Dense`] | ≤ 2⁸ | O(S²) | O(S³) GTH elimination (`Ctmc`), LU (`Dtmc`) |
//! | [`SolverStrategy::MatrixFree`] | above | O(S) vectors | O(nnz) per CSR operator apply, Jacobi-preconditioned BiCGSTAB |
//! | [`SolverStrategy::GaussSeidel`] | forced only | O(nnz) CSR | O(nnz) per sweep |
//!
//! [`SolverStrategy::auto`] picks the dense or the Krylov backend;
//! Gauss–Seidel is never picked (on skewed flag chains its sweep count
//! explodes) but stays available to callers that force it, as an
//! independent reference.
//!
//! The paper's flag chain does not dispatch on its size:
//! [`crate::paper::AsyncParams`] answers every query through the
//! never-materialised [`crate::matfree`] operator at every n, and the
//! materialised chain serves only the `*_with` calls that force
//! [`SolverStrategy::Dense`] or [`SolverStrategy::GaussSeidel`]. Benches
//! and conformance tests force specific backends to compare them on
//! identical problems.

/// Largest transient-state count a generic chain solves densely (2⁸):
/// O(S³) elimination stays in the low milliseconds up to there.
pub const DENSE_MAX_STATES: usize = 1 << 8;

/// Which backend an absorption solve runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverStrategy {
    /// Dense elimination over the materialised transient block: GTH for a
    /// [`crate::Ctmc`], partially pivoted LU for a [`crate::Dtmc`].
    Dense,
    /// Gauss–Seidel sweeps over the materialised CSR generator. Never
    /// chosen by [`SolverStrategy::auto`]; callers force it as a
    /// reference.
    GaussSeidel,
    /// Preconditioned BiCGSTAB touching the matrix only through
    /// operator applies ([`crate::matfree::LinOp`]); for the flag chain
    /// the applies come straight from the R1–R4 bit-mask rules and the
    /// generator is never materialised. The flag chain's default backend
    /// at every n.
    MatrixFree,
}

impl SolverStrategy {
    /// The default backend for a generic chain with `n_transient`
    /// transient states: dense ≤ [`DENSE_MAX_STATES`], Krylov above. The
    /// flag chain does not ask ([`crate::paper::AsyncParams::solver_strategy`]).
    pub fn auto(n_transient: usize) -> SolverStrategy {
        if n_transient <= DENSE_MAX_STATES {
            SolverStrategy::Dense
        } else {
            SolverStrategy::MatrixFree
        }
    }
}

impl std::fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverStrategy::Dense => write!(f, "dense-lu"),
            SolverStrategy::GaussSeidel => write!(f, "sparse-gauss-seidel"),
            SolverStrategy::MatrixFree => write!(f, "matrix-free-bicgstab"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_thresholds() {
        assert_eq!(SolverStrategy::auto(4), SolverStrategy::Dense);
        assert_eq!(SolverStrategy::auto(1 << 8), SolverStrategy::Dense);
        assert_eq!(
            SolverStrategy::auto((1 << 8) + 1),
            SolverStrategy::MatrixFree
        );
        assert_eq!(SolverStrategy::auto(1 << 13), SolverStrategy::MatrixFree);
        assert_eq!(SolverStrategy::auto(1 << 20), SolverStrategy::MatrixFree);
    }

    #[test]
    fn displays_name_each_backend() {
        assert_eq!(SolverStrategy::Dense.to_string(), "dense-lu");
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
