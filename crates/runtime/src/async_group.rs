//! Uncoordinated (asynchronous) checkpointing on real threads — the
//! §2 scheme as a runtime, and the domino effect made tangible.
//!
//! [`AsyncGroup`] mirrors [`crate::prp::PrpGroup`] but saves *only* each
//! worker's own acceptance-tested recovery points: no implantation, no
//! synchronization. Recovery uses the symmetric rollback-propagation
//! fixpoint from `rbcore` (or its directed refinement), so a failure on
//! a chatty group can cascade all the way to the process beginnings —
//! exactly the hazard the paper's §2 quantifies and its §3/§4 schemes
//! pay to avoid.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use rbcore::history::{History, ProcessId};
use rbcore::rollback::{propagate_rollback, propagate_rollback_directed, RollbackPlan};

use crate::checkpoint::{CheckpointId, CheckpointStore};

enum Cmd<S> {
    Mutate(Box<dyn FnOnce(&mut S) + Send>),
    SaveReal,
    Restore(CheckpointId),
    Read,
    Stop,
}

enum Reply<S> {
    Saved { id: CheckpointId },
    Restored,
    State(S),
    Done,
}

struct Worker<S> {
    cmd_tx: Sender<Cmd<S>>,
    reply_rx: Receiver<Reply<S>>,
    join: Option<JoinHandle<CheckpointStore<S>>>,
    timeline: Vec<(f64, CheckpointId)>,
}

/// Which rollback-propagation semantics [`AsyncGroup::recover`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropagationMode {
    /// The paper's symmetric interaction model: any interaction
    /// sandwiched between two restart points breaks the cut.
    Symmetric,
    /// Russell's refinement: only orphan messages propagate (sender
    /// logs replay lost ones).
    Directed,
}

/// A group of asynchronously checkpointing worker threads.
pub struct AsyncGroup<S> {
    workers: Vec<Worker<S>>,
    history: History,
    clock: f64,
}

impl<S: Clone + Send + 'static> AsyncGroup<S> {
    /// Spawns one worker per initial state; each beginning is
    /// checkpointed at logical time 0.
    pub fn spawn(initial_states: Vec<S>) -> Self {
        let n = initial_states.len();
        assert!(n >= 2, "cooperating processes required");
        let mut workers = Vec::with_capacity(n);
        for state in initial_states {
            let (cmd_tx, cmd_rx) = channel::<Cmd<S>>();
            let (reply_tx, reply_rx) = channel::<Reply<S>>();
            let join = std::thread::spawn(move || worker_loop(state, cmd_rx, reply_tx));
            workers.push(Worker {
                cmd_tx,
                reply_rx,
                join: Some(join),
                timeline: Vec::new(),
            });
        }
        let mut g = AsyncGroup {
            workers,
            history: History::new(n),
            clock: 0.0,
        };
        for i in 0..n {
            let id = g.save(i);
            g.workers[i].timeline.push((0.0, id));
        }
        g
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.workers.len()
    }

    /// The logical history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    fn tick(&mut self) -> f64 {
        self.clock += 1.0;
        self.clock
    }

    fn save(&self, i: usize) -> CheckpointId {
        self.workers[i]
            .cmd_tx
            .send(Cmd::SaveReal)
            .expect("worker alive");
        match self.workers[i].reply_rx.recv().expect("worker alive") {
            Reply::Saved { id } => id,
            _ => panic!("unexpected reply"),
        }
    }

    /// Applies a mutation to worker `i`'s state.
    pub fn mutate(&mut self, i: usize, f: impl FnOnce(&mut S) + Send + 'static) {
        self.workers[i]
            .cmd_tx
            .send(Cmd::Mutate(Box::new(f)))
            .expect("worker alive");
        match self.workers[i].reply_rx.recv().expect("worker alive") {
            Reply::Done => {}
            _ => panic!("unexpected reply"),
        }
    }

    /// Records a directed message `from → to` with its paired state
    /// mutations.
    pub fn send(
        &mut self,
        from: usize,
        to: usize,
        on_sender: impl FnOnce(&mut S) + Send + 'static,
        on_receiver: impl FnOnce(&mut S) + Send + 'static,
    ) {
        assert_ne!(from, to);
        let t = self.tick();
        self.history
            .record_interaction(ProcessId(from), ProcessId(to), t);
        self.mutate(from, on_sender);
        self.mutate(to, on_receiver);
    }

    /// Worker `i` passes its acceptance test and checkpoints.
    pub fn establish_rp(&mut self, i: usize) {
        let t = self.tick();
        self.history.record_rp(ProcessId(i), t);
        let id = self.save(i);
        self.workers[i].timeline.push((t, id));
    }

    /// Current state of worker `i`.
    pub fn read_state(&self, i: usize) -> S {
        self.workers[i]
            .cmd_tx
            .send(Cmd::Read)
            .expect("worker alive");
        match self.workers[i].reply_rx.recv().expect("worker alive") {
            Reply::State(s) => s,
            _ => panic!("unexpected reply"),
        }
    }

    /// Worker `failed` fails its acceptance test: compute the rollback
    /// plan under `mode` and restore every affected worker. Returns the
    /// executed plan (inspect [`RollbackPlan::hit_beginning`] for the
    /// domino outcome).
    pub fn recover(&mut self, failed: usize, mode: PropagationMode) -> RollbackPlan {
        let t = self.tick();
        let plan = match mode {
            PropagationMode::Symmetric => {
                propagate_rollback(&self.history, ProcessId(failed), t, |_, r| r.is_real())
            }
            PropagationMode::Directed => {
                propagate_rollback_directed(&self.history, ProcessId(failed), t, |_, r| r.is_real())
            }
        };
        for (j, worker) in self.workers.iter().enumerate() {
            if !plan.rolled_back[j] {
                continue;
            }
            let target = worker
                .timeline
                .iter()
                .rev()
                .find(|&&(tt, _)| tt <= plan.restart[j] + 1e-9)
                .map(|&(_, id)| id)
                .expect("time-0 checkpoint exists");
            worker
                .cmd_tx
                .send(Cmd::Restore(target))
                .expect("worker alive");
            match worker.reply_rx.recv().expect("worker alive") {
                Reply::Restored => {}
                _ => panic!("unexpected reply"),
            }
        }
        plan
    }

    /// Stops the workers, returning their checkpoint stores.
    pub fn shutdown(mut self) -> Vec<CheckpointStore<S>> {
        let mut stores = Vec::with_capacity(self.n());
        for w in &mut self.workers {
            w.cmd_tx.send(Cmd::Stop).expect("worker alive");
        }
        for w in &mut self.workers {
            stores.push(
                w.join
                    .take()
                    .expect("not joined")
                    .join()
                    .expect("worker ok"),
            );
        }
        stores
    }
}

fn worker_loop<S: Clone>(
    mut state: S,
    cmd_rx: Receiver<Cmd<S>>,
    reply_tx: Sender<Reply<S>>,
) -> CheckpointStore<S> {
    let mut store = CheckpointStore::new();
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            Cmd::Mutate(f) => {
                f(&mut state);
                reply_tx.send(Reply::Done).ok();
            }
            Cmd::SaveReal => {
                let id = store.save_real(&state);
                reply_tx.send(Reply::Saved { id }).ok();
            }
            Cmd::Restore(id) => {
                state = store.restore(id).expect("checkpoint exists");
                reply_tx.send(Reply::Restored).ok();
            }
            Cmd::Read => {
                reply_tx.send(Reply::State(state.clone())).ok();
            }
            Cmd::Stop => {
                reply_tx.send(Reply::Done).ok();
                break;
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_failure_rolls_only_the_failer() {
        let mut g = AsyncGroup::spawn(vec![0u64, 0]);
        g.mutate(0, |s| *s = 5);
        g.establish_rp(0);
        g.mutate(0, |s| *s = 99);
        let plan = g.recover(0, PropagationMode::Symmetric);
        assert!(plan.rolled_back[0]);
        assert!(!plan.rolled_back[1]);
        assert_eq!(g.read_state(0), 5);
        g.shutdown();
    }

    #[test]
    fn domino_on_real_threads() {
        // Checkpoints woven with messages: the classic staircase.
        let mut g = AsyncGroup::spawn(vec![1u64, 2, 3]);
        g.establish_rp(0);
        g.send(0, 1, |s| *s += 10, |s| *s += 10);
        g.establish_rp(1);
        g.send(1, 2, |s| *s += 10, |s| *s += 10);
        g.establish_rp(2);
        g.send(2, 0, |s| *s += 10, |s| *s += 10);
        let plan = g.recover(0, PropagationMode::Symmetric);
        assert!(plan.hit_beginning(), "staircase must domino: {plan:?}");
        // Everyone back at their initial values.
        assert_eq!(g.read_state(0), 1);
        assert_eq!(g.read_state(1), 2);
        assert_eq!(g.read_state(2), 3);
        g.shutdown();
    }

    #[test]
    fn directed_mode_spares_pure_senders() {
        let mut g = AsyncGroup::spawn(vec![0u64, 0]);
        g.establish_rp(0);
        // P1 only *receives* from P2 after its RP.
        g.send(1, 0, |s| *s += 1, |s| *s += 1);
        let sym = g.recover(0, PropagationMode::Symmetric);
        assert!(sym.rolled_back[1], "symmetric drags the sender");
        // Rebuild the same story and recover directed.
        let mut g2 = AsyncGroup::spawn(vec![0u64, 0]);
        g2.establish_rp(0);
        g2.send(1, 0, |s| *s += 1, |s| *s += 1);
        let dir = g2.recover(0, PropagationMode::Directed);
        assert!(
            !dir.rolled_back[1],
            "directed spares the sender (lost message)"
        );
        g.shutdown();
        g2.shutdown();
    }

    #[test]
    fn states_match_restart_times() {
        let mut g = AsyncGroup::spawn(vec![0i64, 0]);
        g.mutate(0, |s| *s = 1);
        g.establish_rp(0); // P0 RP at state 1
        g.mutate(1, |s| *s = 2);
        g.establish_rp(1); // P1 RP at state 2
        g.send(0, 1, |s| *s += 100, |s| *s += 100);
        let plan = g.recover(0, PropagationMode::Symmetric);
        // P0 → its RP (state 1); message undone ⇒ P1 → its RP (state 2).
        assert_eq!(g.read_state(0), 1);
        assert_eq!(g.read_state(1), 2);
        assert!(plan.rolled_back[1]);
        g.shutdown();
    }

    #[test]
    fn stores_keep_all_real_rps() {
        let mut g = AsyncGroup::spawn(vec![0u8, 0]);
        for _ in 0..4 {
            g.establish_rp(0);
        }
        let stores = g.shutdown();
        assert_eq!(stores[0].real_saved_total(), 5); // initial + 4
        assert_eq!(stores[1].real_saved_total(), 1);
    }
}
