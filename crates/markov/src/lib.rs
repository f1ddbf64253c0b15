//! # rbmarkov — Markov-chain machinery for the recovery-line model
//!
//! Shin & Lee (ICPP 1983, §2) model the interval `X` between two
//! successive *recovery lines* of `n` asynchronous concurrent processes
//! as the absorption time of a continuous-time Markov chain over the
//! "last-action" flag vector (x₁,…,xₙ) ∈ {0,1}ⁿ. This crate implements:
//!
//! * [`linalg`] — dense matrices with LU factorisation and GTH
//!   elimination for absorbing chains (the state spaces of interest are
//!   ≤ a few thousand states; no external BLAS needed);
//! * [`sparse`] — CSR matrices for the larger chains used in the
//!   process-count sweeps (2ⁿ+1 states grows quickly);
//! * [`ctmc`] — generator construction, uniformization for transient
//!   probabilities, absorption-time means and densities (phase-type
//!   distributions);
//! * [`dtmc`] — embedded/uniformized discrete chains, fundamental-matrix
//!   expected-visit counts;
//! * [`solver`] — the [`solver::SolverStrategy`] dispatch of the generic
//!   chains' absorption solves (dense GTH ≤ 2⁸ transient states, Krylov
//!   above; CSR Gauss–Seidel only when forced);
//! * [`matfree`] — the flag chain as a never-materialised bit-mask
//!   operator plus two-level-preconditioned BiCGSTAB refined on a
//!   cancellation-free residual: the backend of every flag-chain query
//!   at every n, from the n = 2 toy chain to n ≥ 20 (2²⁰+1 states) in
//!   O(2ⁿ) memory;
//! * [`paper`] — the paper's concrete models: the full chain (rules
//!   R1–R4, Figure 2), the lumped symmetric chain (rules R1′–R4′,
//!   Figure 3), and the split chain `Y_d` used for E\[Lᵢ\] (Figure 4).
//!
//! ```
//! use rbmarkov::paper::AsyncParams;
//!
//! // Table 1, case 1: three processes, all rates 1.
//! let p = AsyncParams::symmetric(3, 1.0, 1.0);
//! let ex = p.mean_interval();
//! assert!((ex - 2.6).abs() < 0.2, "E[X] = {ex}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ctmc;
pub mod dtmc;
pub mod linalg;
pub mod matfree;
pub mod paper;
pub mod solver;
pub mod sparse;

pub use ctmc::Ctmc;
pub use dtmc::Dtmc;
pub use linalg::Matrix;
pub use matfree::FlagChainOp;
pub use solver::SolverStrategy;
pub use sparse::Csr;
