//! The paper's three recovery-block implementation families.
//!
//! * [`asynchronous`] — §2: every process checkpoints independently;
//!   recovery lines form by chance; rollback may propagate unboundedly.
//! * [`synchronized`] — §3: recovery lines are forced by a
//!   synchronization protocol; rollback is bounded but processes lose
//!   computation waiting for each other's commitments.
//! * [`prp`] — §4: every recovery point implants *pseudo recovery
//!   points* in the other processes, forming pseudo recovery lines that
//!   bound rollback without synchronization, at a storage/time cost.
//! * [`conversation`] — the Randell conversation refinement the paper
//!   cites in §1: synchronization scoped to a participant subset.

pub mod asynchronous;
pub mod conversation;
mod events;
pub mod prp;
pub mod synchronized;
