//! # recovery-blocks — backward error recovery for concurrent processes
//!
//! A production-quality Rust reproduction of Shin & Lee, *Analysis of
//! Backward Error Recovery for Concurrent Processes with Recovery
//! Blocks* (ICPP 1983). The facade re-exports the workspace crates:
//!
//! * [`sim`] (`rbsim`) — seeded random streams, the Poisson race
//!   sampler, and simulation statistics;
//! * [`markov`] (`rbmarkov`) — the paper's recovery-line Markov chains;
//! * [`core`] (`rbcore`) — histories, recovery lines, rollback
//!   propagation, and the three schemes (asynchronous / synchronized /
//!   pseudo recovery points);
//! * [`runtime`] (`rbruntime`) — a threaded recovery-block runtime;
//! * [`analysis`] (`rbanalysis`) — closed-form overhead analyses.
//!
//! ## Quick start
//!
//! ```
//! use recovery_blocks::markov::paper::AsyncParams;
//! use recovery_blocks::core::schemes::asynchronous::{AsyncConfig, AsyncScheme};
//!
//! // Three processes, checkpoint rate 1, pairwise interaction rate 1
//! // (Table 1, case 1 of the paper).
//! let params = AsyncParams::symmetric(3, 1.0, 1.0);
//!
//! // Analytic mean interval between recovery lines.
//! let analytic = params.mean_interval();
//!
//! // Simulated, for comparison.
//! let sim = AsyncScheme::new(AsyncConfig::new(params), 42)
//!     .run_intervals(5_000)
//!     .interval
//!     .mean();
//!
//! assert!((analytic - sim).abs() < 0.1);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

pub use rbanalysis as analysis;
pub use rbcore as core;
pub use rbmarkov as markov;
pub use rbruntime as runtime;
pub use rbsim as sim;
