//! # rbcore — recovery blocks for cooperating concurrent processes
//!
//! A reproduction of the system analysed by Shin & Lee, *Analysis of
//! Backward Error Recovery for Concurrent Processes with Recovery
//! Blocks* (ICPP 1983). A **recovery block** is a sequential program
//! structure — an acceptance test, a recovery point (RP), and alternate
//! algorithms. For *cooperating concurrent* processes, rolling one
//! process back can force others back too (**rollback propagation**),
//! possibly all the way to the computation's start (the **domino
//! effect**), because individual RPs need not form a globally
//! consistent **recovery line**.
//!
//! The crate models that world and the paper's three implementation
//! families:
//!
//! * [`history`] — event histories of n processes (RPs, interactions,
//!   failures) — the "history diagram" of the paper's Figure 1 — plus
//!   [`HistoryArena`], the reusable backing store episode loops clear
//!   and refill instead of reallocating;
//! * [`recovery_line`] — recovery-line detection and consistent-cut
//!   checking (the paper's two recovery-line requirements);
//! * [`rollback`] — rollback propagation to the nearest recovery line,
//!   rollback distances, domino detection;
//! * [`fault`] — Poisson fault injection with error propagation through
//!   interactions;
//! * [`schemes`] — quantitative drivers for the three families:
//!   [`schemes::asynchronous`] (unsynchronised RPs, paper §2),
//!   [`schemes::synchronized`] (forced recovery lines, §3),
//!   [`schemes::prp`] (pseudo recovery points, §4);
//! * [`workload`] — the open [`workload::Workload`] trait every
//!   sweepable experiment implements (the seam the `rbbench` sweep
//!   engine dispatches through), plus adapters for the scheme drivers;
//! * [`tail`] — rare-event estimation: the flag chain as a jump-path
//!   simulator for multilevel splitting, with deep-tail workloads gated
//!   against the exact survival oracle;
//! * [`render`] — ASCII history diagrams for the figure binaries.
//!
//! ```
//! use rbcore::schemes::asynchronous::{AsyncScheme, AsyncConfig};
//! use rbmarkov::paper::AsyncParams;
//!
//! // Table 1, case 1: simulate recovery-line formation.
//! let cfg = AsyncConfig::new(AsyncParams::symmetric(3, 1.0, 1.0));
//! let stats = AsyncScheme::new(cfg, 42).run_intervals(2_000);
//! assert!((stats.interval.mean() - 2.5).abs() < 0.15);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod history;
pub mod metrics;
pub mod recovery_line;
pub mod render;
pub mod rollback;
pub mod schemes;
pub mod tail;
pub mod workload;

pub use history::{History, HistoryArena, InteractionRecord, ProcessId, RpId, RpKind, RpRecord};
pub use metrics::{Metric, RollbackOutcome, SchemeMetrics};
pub use recovery_line::{
    find_recovery_lines, is_consistent_cut, is_orphan_free_cut, latest_recovery_line,
};
pub use rollback::{propagate_rollback, propagate_rollback_directed, RollbackPlan};
pub use workload::Workload;
