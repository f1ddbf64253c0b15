//! Solver-strategy selection for absorption solves.
//!
//! The workspace solves `(−Q_TT)·x = b` (and its transpose) over chains
//! whose transient state count spans six orders of magnitude: the n = 2
//! flag chain has 4 transient states, the n = 20 chain has 2²⁰. No
//! single backend covers that range, so every absorption entry point
//! dispatches on a [`SolverStrategy`]:
//!
//! | strategy | transient states | memory | work |
//! |----------|------------------|--------|------|
//! | [`SolverStrategy::Dense`] | ≤ 2⁸ | O(S²) | O(S³) LU factorisation |
//! | [`SolverStrategy::MatrixFree`] | above | O(S) vectors | O(nnz) per [`crate::matfree`] operator apply — the matrix is never stored |
//! | [`SolverStrategy::GaussSeidel`] | forced only | O(nnz) CSR | O(nnz) per sweep |
//!
//! [`SolverStrategy::auto`] picks dense LU or matrix-free Krylov;
//! Gauss–Seidel is never picked (on skewed flag chains its sweep count
//! explodes) but stays available to callers that force it, as an
//! independent reference. Benches and conformance tests force specific
//! backends to compare them on identical problems.

/// Largest transient-state count solved by dense LU (2⁸ — the n = 8
/// full flag chain). From n = 9 on, the matrix-free solve with its
/// Gauss–Seidel-smoothed two-level preconditioner is faster on
/// symmetric and skewed rates alike.
pub const DENSE_MAX_STATES: usize = 1 << 8;

/// Which backend an absorption solve runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverStrategy {
    /// Dense partially-pivoted LU over the materialised transient block.
    Dense,
    /// Gauss–Seidel sweeps over the materialised CSR generator. Never
    /// chosen by [`SolverStrategy::auto`]; callers force it as a
    /// reference.
    GaussSeidel,
    /// Preconditioned BiCGSTAB touching the matrix only through
    /// operator applies ([`crate::matfree::LinOp`]); for the flag chain
    /// the applies come straight from the R1–R4 bit-mask rules and the
    /// generator is never materialised.
    MatrixFree,
}

impl SolverStrategy {
    /// The default backend for a system with `n_transient` transient
    /// states: dense ≤ [`DENSE_MAX_STATES`], matrix-free Krylov above.
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
