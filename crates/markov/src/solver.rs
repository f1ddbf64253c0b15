//! Solver-strategy selection for absorption solves.
//!
//! The generic chains ([`crate::Ctmc`], [`crate::Dtmc`]) solve
//! `(−Q_TT)·x = b` (and its transpose) over transient blocks from a few
//! states (the lumped chain of Figure 3) to about 1.5·2¹⁶ (the split
//! chain of Figure 4), by one rule on the block size:
//!
//! | transient states | backend | memory | work |
//! |------------------|---------|--------|------|
//! | ≤ [`DENSE_MAX_STATES`] | GTH elimination ([`crate::linalg::GthFactors`]) | O(S²) | O(S³) |
//! | above | Jacobi-preconditioned BiCGSTAB on the CSR matrix | O(S) vectors | O(nnz) per operator apply |
//!
//! The paper's flag chain does not dispatch on its size:
//! [`crate::paper::AsyncParams`] answers every query through the
//! never-materialised [`crate::matfree`] operator at every n.
//! [`SolverStrategy`] survives only as the backend argument of
//! [`crate::Ctmc::mean_absorption_time_with`] and
//! [`crate::paper::AsyncParams::mean_interval_with`], which benches and
//! conformance tests force to compare backends on identical problems;
//! [`SolverStrategy::GaussSeidel`] is never picked by any default path.

/// Largest transient-state count a generic chain solves densely (2⁸):
/// O(S³) elimination stays in the low milliseconds up to there.
pub const DENSE_MAX_STATES: usize = 1 << 8;

/// Which backend an absorption solve runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverStrategy {
    /// GTH elimination over the materialised transient block.
    Dense,
    /// Gauss–Seidel sweeps over the materialised CSR generator of a
    /// [`crate::Ctmc`]. Never chosen by a default path; callers force it
    /// as a reference.
    GaussSeidel,
    /// Preconditioned BiCGSTAB touching the matrix only through
    /// operator applies ([`crate::matfree::LinOp`]); for the flag chain
    /// the applies come straight from the R1–R4 bit-mask rules and the
    /// generator is never materialised. The flag chain's default backend
    /// at every n.
    MatrixFree,
}

impl SolverStrategy {
    /// The backend a generic chain with `n_transient` transient states
    /// solves on: dense ≤ [`DENSE_MAX_STATES`], Krylov above. The flag
    /// chain does not ask ([`crate::paper::AsyncParams::solver_strategy`]).
    pub(crate) fn auto(n_transient: usize) -> SolverStrategy {
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
            SolverStrategy::Dense => write!(f, "dense-gth"),
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
