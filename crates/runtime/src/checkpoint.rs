//! Checkpoint stores: saved process states with the paper's purge rule.
//!
//! This store keeps snapshots *in memory*; when a checkpoint-like log
//! must survive the process itself (e.g. `rbbench::cache`, the result
//! cache sweeps resume through), the same save-then-trust-on-restart
//! discipline is carried to disk by the [`crate::wal`] record framing, whose
//! torn-tail rule plays the role of the acceptance test: only intact,
//! checksummed records are restored.

/// Distinguishes acceptance-tested recovery points from implanted
/// pseudo recovery points (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Saved after a passed acceptance test.
    Real,
    /// Saved on an implantation request from `origin_process`'s RP
    /// number `origin_index`, without an acceptance test.
    Pseudo {
        /// The process whose RP requested this PRP.
        origin_process: usize,
        /// That RP's index within its process.
        origin_index: u64,
    },
}

/// Identifies a checkpoint within one store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CheckpointId(pub u64);

/// One saved state.
#[derive(Clone, Debug)]
struct Entry<S> {
    id: CheckpointId,
    kind: CheckpointKind,
    state: S,
}

/// A per-process store of saved states.
///
/// States are `Clone`d in and out — the runtime counterpart of the
/// paper's "recording of process states". The store never mutates a
/// saved state; restore hands back a fresh clone, so a process can roll
/// back to the same checkpoint repeatedly (as the §4 algorithm may
/// demand).
#[derive(Clone, Debug)]
pub struct CheckpointStore<S> {
    entries: Vec<Entry<S>>,
    next_id: u64,
    real_count: u64,
}

impl<S: Clone> Default for CheckpointStore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone> CheckpointStore<S> {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore {
            entries: Vec::new(),
            next_id: 0,
            real_count: 0,
        }
    }

    /// Saves a real (acceptance-tested) recovery point.
    pub fn save_real(&mut self, state: &S) -> CheckpointId {
        self.save(state, CheckpointKind::Real)
    }

    /// Saves a pseudo recovery point for another process's RP.
    pub fn save_pseudo(
        &mut self,
        state: &S,
        origin_process: usize,
        origin_index: u64,
    ) -> CheckpointId {
        self.save(
            state,
            CheckpointKind::Pseudo {
                origin_process,
                origin_index,
            },
        )
    }

    fn save(&mut self, state: &S, kind: CheckpointKind) -> CheckpointId {
        let id = CheckpointId(self.next_id);
        self.next_id += 1;
        if kind == CheckpointKind::Real {
            self.real_count += 1;
        }
        self.entries.push(Entry {
            id,
            kind,
            state: state.clone(),
        });
        id
    }

    /// Restores (clones) the state saved under `id`.
    pub fn restore(&self, id: CheckpointId) -> Option<S> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.state.clone())
    }

    /// The most recent real recovery point, if any.
    pub fn latest_real(&self) -> Option<CheckpointId> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.kind == CheckpointKind::Real)
            .map(|e| e.id)
    }

    /// The most recent real recovery point strictly older than `id`.
    pub fn real_before(&self, id: CheckpointId) -> Option<CheckpointId> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.id < id && e.kind == CheckpointKind::Real)
            .map(|e| e.id)
    }

    /// The PRP implanted for `origin_process`'s RP `origin_index`.
    pub fn pseudo_for(&self, origin_process: usize, origin_index: u64) -> Option<CheckpointId> {
        self.entries
            .iter()
            .rev()
            .find(|e| {
                e.kind
                    == CheckpointKind::Pseudo {
                        origin_process,
                        origin_index,
                    }
            })
            .map(|e| e.id)
    }

    /// Kind of a stored checkpoint.
    pub fn kind(&self, id: CheckpointId) -> Option<CheckpointKind> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.kind)
    }

    /// Number of live checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total real RPs ever saved (not reduced by purging).
    pub fn real_saved_total(&self) -> u64 {
        self.real_count
    }

    /// The paper's purge rule for the PRP scheme: on a new recovery
    /// point, drop everything except (a) this process's latest real RP
    /// and (b) the latest PRP per other process ("all old RP's and
    /// PRP's except those in the pseudo recovery lines … can be purged
    /// when a new recovery point is established").
    pub fn purge_to_pseudo_recovery_lines(&mut self) {
        let latest_real = self.latest_real();
        let mut keep: Vec<CheckpointId> = latest_real.into_iter().collect();
        // Latest PRP per origin process.
        let mut seen_origins: Vec<usize> = Vec::new();
        for e in self.entries.iter().rev() {
            if let CheckpointKind::Pseudo { origin_process, .. } = e.kind {
                if !seen_origins.contains(&origin_process) {
                    seen_origins.push(origin_process);
                    keep.push(e.id);
                }
            }
        }
        self.entries.retain(|e| keep.contains(&e.id));
    }

    /// Drops every checkpoint newer than `id` (used after a rollback:
    /// states saved in the undone computation are invalid).
    pub fn discard_after(&mut self, id: CheckpointId) {
        self.entries.retain(|e| e.id <= id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_restore_roundtrip() {
        let mut store = CheckpointStore::new();
        let id1 = store.save_real(&vec![1, 2, 3]);
        let id2 = store.save_real(&vec![4, 5]);
        assert_eq!(store.restore(id1), Some(vec![1, 2, 3]));
        assert_eq!(store.restore(id2), Some(vec![4, 5]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest_real(), Some(id2));
    }

    #[test]
    fn restore_is_repeatable() {
        let mut store = CheckpointStore::new();
        let id = store.save_real(&String::from("snapshot"));
        assert_eq!(store.restore(id).as_deref(), Some("snapshot"));
        assert_eq!(store.restore(id).as_deref(), Some("snapshot"));
    }

    #[test]
    fn real_before_walks_backwards() {
        let mut store = CheckpointStore::new();
        let a = store.save_real(&1);
        let _p = store.save_pseudo(&2, 1, 0);
        let b = store.save_real(&3);
        assert_eq!(store.real_before(b), Some(a));
        assert_eq!(store.real_before(a), None);
    }

    #[test]
    fn pseudo_lookup_by_origin() {
        let mut store = CheckpointStore::new();
        store.save_real(&0);
        let p10 = store.save_pseudo(&1, 1, 0);
        let p21 = store.save_pseudo(&2, 2, 1);
        assert_eq!(store.pseudo_for(1, 0), Some(p10));
        assert_eq!(store.pseudo_for(2, 1), Some(p21));
        assert_eq!(store.pseudo_for(1, 1), None);
    }

    #[test]
    fn purge_keeps_one_state_per_peer_plus_own_rp() {
        let mut store = CheckpointStore::new();
        // Simulate process 0 in a 3-process set: several rounds.
        for round in 0..5u64 {
            store.save_real(&(round as i32));
            store.save_pseudo(&(round as i32 + 100), 1, round);
            store.save_pseudo(&(round as i32 + 200), 2, round);
            store.purge_to_pseudo_recovery_lines();
            // Own latest RP + one PRP per other process = n = 3.
            assert!(store.len() <= 3, "round {round}: {} live", store.len());
        }
        assert_eq!(store.real_saved_total(), 5);
        // Latest PRPs survive.
        assert!(store.pseudo_for(1, 4).is_some());
        assert!(store.pseudo_for(2, 4).is_some());
        assert!(store.pseudo_for(1, 3).is_none(), "old PRP purged");
    }

    #[test]
    fn discard_after_rollback() {
        let mut store = CheckpointStore::new();
        let a = store.save_real(&1);
        let b = store.save_real(&2);
        let c = store.save_real(&3);
        store.discard_after(a);
        assert_eq!(store.len(), 1);
        assert!(store.restore(b).is_none());
        assert!(store.restore(c).is_none());
        assert_eq!(store.latest_real(), Some(a));
    }

    #[test]
    fn missing_id_returns_none() {
        let store: CheckpointStore<i32> = CheckpointStore::new();
        assert!(store.restore(CheckpointId(42)).is_none());
        assert!(store.latest_real().is_none());
    }
}
