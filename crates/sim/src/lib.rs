//! # rbsim — deterministic discrete-event simulation substrate
//!
//! This crate provides the simulation machinery used by the recovery-block
//! experiments in the Shin & Lee (ICPP 1983) reproduction:
//!
//! * [`SimTime`] — a totally ordered, NaN-free virtual clock value;
//! * [`EventQueue`] — a stable priority queue of timestamped events
//!   (FIFO tie-breaking, so simulations are bit-for-bit reproducible);
//! * [`SimRng`] and [`Exp`] — seeded random-number streams and the
//!   exponential inter-event samplers the paper's model assumes, and
//!   [`PoissonRace`] — the superposed-Poisson event sampler, bit-exact
//!   against `exp` + [`SimRng::weighted_index`];
//! * [`stats`] — online statistics (Welford mean/variance, histograms,
//!   time-weighted averages, confidence intervals) for estimating
//!   E\[X\], E\[Lᵢ\], CL, utilization, …;
//! * [`gof`] — goodness-of-fit statistics (Kolmogorov–Smirnov, Pearson
//!   χ²) with critical values, for the distribution-level conformance
//!   gates comparing simulated histograms against analytic CDFs;
//! * [`Executor`] — a minimal event-loop driver for simulations written
//!   as state machines implementing [`Simulation`];
//! * [`par`] — deterministic parallel dispatch for scenario sweeps
//!   ([`par::par_map`]), with [`derive_seed`] producing independent
//!   per-cell streams from a sweep's master seed;
//! * [`splitting`] — fixed-effort multilevel splitting for rare-event
//!   (deep-tail) probabilities naive Monte Carlo cannot resolve, with
//!   per-level derived RNG streams and reported relative errors.
//!
//! The substrate is deliberately free of global state: every simulation
//! owns its clock, queue and RNG, so experiments sweep in parallel from
//! the bench harness with plain `std::thread::scope` — and, because the
//! per-cell seeds are pure functions of `(master seed, cell index)`,
//! parallel sweeps are bit-identical to serial ones.
//!
//! ```
//! use rbsim::{Executor, Simulation, Scheduler, SimTime};
//!
//! struct Counter { fired: u32 }
//! #[derive(Clone, Debug)]
//! struct Tick;
//!
//! impl Simulation for Counter {
//!     type Event = Tick;
//!     fn handle(&mut self, now: SimTime, _ev: Tick, sched: &mut Scheduler<Tick>) {
//!         self.fired += 1;
//!         if self.fired < 5 {
//!             sched.schedule_in(now, 1.0, Tick);
//!         }
//!     }
//! }
//!
//! let mut exec = Executor::new(Counter { fired: 0 });
//! exec.schedule(SimTime::ZERO, Tick);
//! exec.run();
//! assert_eq!(exec.state().fired, 5);
//! assert_eq!(exec.now(), SimTime::new(4.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod executor;
pub mod gof;
pub mod par;
mod queue;
mod rng;
pub mod splitting;
pub mod stats;
mod time;

pub use executor::{Executor, Scheduler, Simulation, StopReason};
pub use queue::{EventQueue, Scheduled};
pub use rng::{derive_seed, weighted_pick, Exp, PoissonRace, SimRng, StreamId};
pub use time::SimTime;
