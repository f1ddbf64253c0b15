//! `rbserve` — sweep-as-a-service over the recovery-block evaluation
//! stack.
//!
//! Every prior layer of this workspace runs *batch*: a figure binary
//! builds a [`rbbench::sweep::SweepSpec`], runs it, writes an artifact,
//! exits — and an interactive question ("what's the p99 recovery-line
//! interval at λ = 2?") pays the full solve each time. This crate turns
//! the same engine into a long-running server:
//!
//! * **submit** a sweep over line-delimited JSON on a plain TCP socket
//!   and watch per-cell reports stream back as they complete;
//! * **query** quantiles of any finished distribution metric at
//!   interactive latency ([`rbcore::metrics::DistSummary::quantile_at`]);
//! * every solved cell lands in a **content-addressed result cache**
//!   ([`rbbench::cache`]) keyed by `(workload label, canonical params,
//!   derived seed, format version)` and persisted through the
//!   `rbruntime::wal` framing — so a re-submitted sweep is served from
//!   disk byte-identically, and a killed server restarts warm;
//! * admission is **bounded**: a full queue, an oversized sweep, or a
//!   draining server sheds with an explicit response instead of
//!   buffering without limit (see [`server`] for the full ladder).
//!
//! The server is `std::net` + OS threads + `std::sync` channels and
//! locks end to end — no async runtime, matching the rest of the
//! workspace. Protocol details live in [`protocol`]; threading and
//! shared state in [`server`]; the `rbserve` binary wires both to a
//! command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{run_request, Backoff, ClientConfig};
pub use protocol::{Request, SubmitKind, SubmitRequest};
pub use server::{spawn, ChaosConfig, Counters, ServerConfig, ServerHandle};
