//! # rbsim — seeded random streams, the Poisson race and simulation statistics
//!
//! This crate provides the simulation machinery used by the recovery-block
//! experiments in the Shin & Lee (ICPP 1983) reproduction. Under the
//! paper's §2.1 assumptions every event is Poisson, so the scheme
//! simulators need no event queue — only a memoryless race:
//!
//! * [`SimRng`] — seeded, reproducible random streams with the
//!   exponential inter-event sampler the paper's model assumes, and
//!   [`PoissonRace`] — the superposed-Poisson event sampler, bit-exact
//!   against [`SimRng::exp`] + [`SimRng::weighted_index`];
//! * [`stats`] — online statistics (Welford mean/variance, histograms,
//!   confidence intervals) for estimating E\[X\], E\[Lᵢ\], CL, …;
//! * [`gof`] — goodness-of-fit statistics (Kolmogorov–Smirnov, Pearson
//!   χ²) with critical values, for the distribution-level conformance
//!   gates comparing simulated histograms against analytic CDFs;
//! * [`par`] — deterministic parallel dispatch for scenario sweeps
//!   ([`par::par_map`]), with [`derive_seed`] producing independent
//!   per-cell streams from a sweep's master seed;
//! * [`splitting`] — fixed-effort multilevel splitting for rare-event
//!   (deep-tail) probabilities naive Monte Carlo cannot resolve, with
//!   per-level derived RNG streams and reported relative errors.
//!
//! The crate is deliberately free of global state: every simulation
//! owns its RNG, so experiments sweep in parallel from the bench
//! harness with plain `std::thread::scope` — and, because the per-cell
//! seeds are pure functions of `(master seed, cell index)`, parallel
//! sweeps are bit-identical to serial ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gof;
pub mod par;
mod rng;
pub mod splitting;
pub mod stats;

pub use rng::{derive_seed, weighted_pick, PoissonRace, SimRng, StreamId};
