//! # rbruntime — a threaded recovery-block runtime
//!
//! The paper analyses recovery-block schemes assuming a substrate that
//! can save and restore process states, exchange messages FIFO
//! (assumption 4, "consistent communications"), and coordinate
//! acceptance tests. This crate *builds* that substrate on real OS
//! threads, so the three schemes run as actual concurrent programs and
//! not only inside the discrete-event simulator:
//!
//! * [`checkpoint`] — per-process stores of cloned state snapshots
//!   (real RPs and PRPs), with the paper's purge rule;
//! * [`wal`] — length-prefixed, checksummed record framing for durable
//!   logs (the on-disk counterpart of the checkpoint discipline: a
//!   killed writer leaves a log replayable up to its last intact
//!   record — `rbbench`'s result cache, through which sweeps resume,
//!   builds on it);
//! * [`faultio`] — the injectable I/O seam under those logs: a
//!   seeded, deterministic fault plan (short writes, silent bit flips,
//!   transient errors, disk-full) so the recovery policies above are
//!   exercised by *sweeps over fault schedules*, not hand-picked kill
//!   points;
//! * [`channel`] — sequence-numbered FIFO channels with sender-side
//!   logs (the §4 requirement that messages sent before a commitment
//!   be retained in the saved state);
//! * [`recovery_block`] — Randell's sequential construct: primary +
//!   alternates + acceptance test, with automatic state restore;
//! * [`conversation`] — Randell's multi-process conversation: all
//!   participants pass their acceptance tests at a common test line or
//!   all retry with their next alternates;
//! * [`coordinator`] — the §3 synchronized recovery-line protocol
//!   (`Pᵢⱼ-ready` flags, commitment broadcast, simultaneous state
//!   save), with waiting-loss measurement;
//! * [`group`] — recovery points and distributed rollback on threads:
//!   the §2 uncoordinated baseline, where the domino effect is real and
//!   observable, and the §4 PRP implantation protocol (implantation
//!   request → untested state save → commitment), one group type whose
//!   recovery runs `rbcore`'s rollback rules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod checkpoint;
pub mod conversation;
pub mod coordinator;
pub mod faultio;
pub mod group;
pub mod recovery_block;
pub mod wal;

pub use channel::{logged_pair, LoggedReceiver, LoggedSender, SeqError};
pub use checkpoint::{CheckpointId, CheckpointKind, CheckpointStore};
pub use conversation::{Conversation, ConversationError};
pub use coordinator::{run_synchronization, SyncParticipant, SyncReport};
pub use group::RecoveryGroup;
pub use recovery_block::{RbError, RecoveryBlock};
