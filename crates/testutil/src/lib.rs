//! # rbtestutil — the cross-scheme conformance harness
//!
//! Following the replay-equivalence-matrix discipline: every quantity
//! the paper derives is computed along **independent paths** — discrete
//! event simulation, Markov-chain solves, and closed-form analysis —
//! and the paths must agree within statistically justified tolerances
//! over a deterministic matrix of scenarios.
//!
//! * [`scenarios`] — the seeded scenario-matrix generator: symmetric
//!   and skewed rate grids plus degenerate corners (λ = 0, high ρ,
//!   single-process synchronization).
//! * [`conformance`] — the [`SchemeConformance`] driver running the
//!   paper's three schemes (asynchronous §2, synchronized §3, PRP §4)
//!   through all applicable paths and collecting pairwise agreement
//!   checks, plus the [`TailGate`] deep-tail gate (multilevel splitting
//!   vs the exact survival oracle at p ≈ 10⁻⁹, with
//!   perturbed-μ negative controls).
//!
//! Used by `tests/scheme_conformance.rs` at the workspace root; kept as
//! a library crate so perf work can reuse the matrix as a correctness
//! gate after every optimisation. The matrix also rides the parallel
//! scenario-sweep engine (`rbbench::sweep::SweepSpec::conformance_matrix`
//! runs one cell per scenario), where
//! `crates/bench/tests/sweep_determinism.rs` pins that a parallel run
//! of the whole gate is byte-identical to the serial one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;
pub mod scenarios;

pub use conformance::{Check, ConformanceReport, ConformanceWorkload, SchemeConformance, TailGate};
pub use scenarios::{matfree_large_scenario, standard_matrix, Scenario, ScenarioKind};
