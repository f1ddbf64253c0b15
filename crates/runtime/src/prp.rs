//! The §4 PRP implantation protocol on real threads, plus a recovery
//! manager executing distributed rollbacks.
//!
//! Each process is a worker thread owning its state and a
//! [`CheckpointStore`]. When worker `Pᵢ` establishes a recovery point it
//! broadcasts an *implantation request*; every peer records its state
//! as a PRP "upon the completion of the current instruction" (here: as
//! the next command it processes) and replies with a commitment `Cᵢ`.
//! The group keeps a logical [`History`] of RPs, PRPs and interactions,
//! so recovery reuses the exact §4 rollback algorithm from `rbcore`
//! ([`rbcore::schemes::prp::prp_rollback`]) and maps the resulting
//! restart line back onto stored checkpoints.
//!
//! The implantation transport is real (std `mpsc` channels between OS
//! threads); the orchestration is centralised in the group handle —
//! the monitor-style mechanisation the paper cites from Kim — while the
//! fully decentralised variant is exercised by the discrete-event
//! drivers in `rbcore`.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use rbcore::history::{History, ProcessId};
use rbcore::rollback::RollbackPlan;
use rbcore::schemes::prp::prp_rollback;

use crate::checkpoint::{CheckpointId, CheckpointStore};

enum Cmd<S> {
    Mutate(Box<dyn FnOnce(&mut S) + Send>),
    SaveReal,
    SavePseudo { origin: usize, rp_index: u64 },
    Restore(CheckpointId),
    Read,
    Stop,
}

enum Reply<S> {
    Saved {
        id: CheckpointId,
    },
    /// Commitment Cᵢ for an implanted PRP.
    Committed {
        id: CheckpointId,
    },
    Restored,
    State(S),
    Done,
}

struct Worker<S> {
    cmd_tx: Sender<Cmd<S>>,
    reply_rx: Receiver<Reply<S>>,
    join: Option<JoinHandle<CheckpointStore<S>>>,
    /// (logical time, checkpoint) pairs, newest last.
    timeline: Vec<(f64, CheckpointId)>,
    /// Real-RP count (index of the next real RP).
    rp_count: u64,
}

/// A group of PRP-protocol worker threads.
///
/// Logical time advances by 1 per recorded event, mirroring the
/// abstract clock of the paper's history diagrams.
pub struct PrpGroup<S> {
    workers: Vec<Worker<S>>,
    history: History,
    clock: f64,
}

impl<S: Clone + Send + 'static> PrpGroup<S> {
    /// Spawns one worker per initial state. Each worker's time-0 state
    /// is checkpointed immediately (the process beginning).
    pub fn spawn(initial_states: Vec<S>) -> Self {
        let n = initial_states.len();
        assert!(n >= 2, "the PRP scheme concerns cooperating processes");
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
                rp_count: 0,
            });
        }
        let mut group = PrpGroup {
            workers,
            history: History::new(n),
            clock: 0.0,
        };
        // Checkpoint the beginnings (History::new already records the
        // implicit time-0 RPs).
        for i in 0..n {
            let id = group.command_save_real(i);
            group.workers[i].timeline.push((0.0, id));
            group.workers[i].rp_count += 1;
        }
        group
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

    fn command_save_real(&self, i: usize) -> CheckpointId {
        self.workers[i]
            .cmd_tx
            .send(Cmd::SaveReal)
            .expect("worker alive");
        match self.workers[i].reply_rx.recv().expect("worker alive") {
            Reply::Saved { id } => id,
            _ => panic!("unexpected reply to SaveReal"),
        }
    }

    /// Applies a mutation to worker `i`'s state (its "normal task").
    pub fn mutate(&mut self, i: usize, f: impl FnOnce(&mut S) + Send + 'static) {
        self.workers[i]
            .cmd_tx
            .send(Cmd::Mutate(Box::new(f)))
            .expect("worker alive");
        match self.workers[i].reply_rx.recv().expect("worker alive") {
            Reply::Done => {}
            _ => panic!("unexpected reply to Mutate"),
        }
    }

    /// Records an interaction between `a` and `b` (message exchange);
    /// applies the paired mutations to both states atomically from the
    /// group's perspective.
    pub fn interact(
        &mut self,
        a: usize,
        b: usize,
        fa: impl FnOnce(&mut S) + Send + 'static,
        fb: impl FnOnce(&mut S) + Send + 'static,
    ) {
        assert_ne!(a, b);
        let t = self.tick();
        self.history
            .record_interaction(ProcessId(a), ProcessId(b), t);
        self.mutate(a, fa);
        self.mutate(b, fb);
    }

    /// Worker `i` establishes a recovery point: saves its state, then
    /// broadcasts implantation requests; every peer saves a PRP and
    /// commits. Returns the RP's index within `i`.
    pub fn establish_rp(&mut self, i: usize) -> u64 {
        let t = self.tick();
        let rp_index = self.workers[i].rp_count;
        let rp = self.history.record_rp(ProcessId(i), t);
        let id = self.command_save_real(i);
        self.workers[i].timeline.push((t, id));
        self.workers[i].rp_count += 1;

        // Broadcast implantation requests; collect commitments.
        let tp = self.tick();
        for j in 0..self.n() {
            if j == i {
                continue;
            }
            self.history.record_prp(ProcessId(j), tp, rp);
            self.workers[j]
                .cmd_tx
                .send(Cmd::SavePseudo {
                    origin: i,
                    rp_index,
                })
                .expect("worker alive");
        }
        for j in 0..self.n() {
            if j == i {
                continue;
            }
            match self.workers[j].reply_rx.recv().expect("worker alive") {
                Reply::Committed { id } => {
                    self.workers[j].timeline.push((tp, id));
                }
                _ => panic!("unexpected reply to SavePseudo"),
            }
        }
        rp_index
    }

    /// Current state of worker `i` (cloned out).
    pub fn read_state(&self, i: usize) -> S {
        self.workers[i]
            .cmd_tx
            .send(Cmd::Read)
            .expect("worker alive");
        match self.workers[i].reply_rx.recv().expect("worker alive") {
            Reply::State(s) => s,
            _ => panic!("unexpected reply to Read"),
        }
    }

    /// Worker `i` fails (its acceptance test detects an error whose
    /// locality is `error_is_local`): compute the §4 rollback plan on
    /// the logical history and command every affected worker to restore
    /// the checkpoint at its restart time. Returns the executed plan.
    pub fn recover(&mut self, failed: usize, error_is_local: bool) -> RollbackPlan {
        let t = self.tick();
        let plan = prp_rollback(&self.history, ProcessId(failed), t, error_is_local);
        for (j, worker) in self.workers.iter().enumerate() {
            if !plan.rolled_back[j] {
                continue;
            }
            // The newest checkpoint at or before the restart time.
            let target = worker
                .timeline
                .iter()
                .rev()
                .find(|&&(tt, _)| tt <= plan.restart[j] + 1e-9)
                .map(|&(_, id)| id)
                .expect("time-0 checkpoint always exists");
            worker
                .cmd_tx
                .send(Cmd::Restore(target))
                .expect("worker alive");
            match worker.reply_rx.recv().expect("worker alive") {
                Reply::Restored => {}
                _ => panic!("unexpected reply to Restore"),
            }
        }
        plan
    }

    /// Stops all workers, returning their checkpoint stores for
    /// inspection.
    pub fn shutdown(mut self) -> Vec<CheckpointStore<S>> {
        let mut stores = Vec::with_capacity(self.n());
        for w in &mut self.workers {
            w.cmd_tx.send(Cmd::Stop).expect("worker alive");
        }
        for w in &mut self.workers {
            stores.push(
                w.join
                    .take()
                    .expect("not yet joined")
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
            Cmd::SavePseudo { origin, rp_index } => {
                // "records its state … without an acceptance test".
                let id = store.save_pseudo(&state, origin, rp_index);
                reply_tx.send(Reply::Committed { id }).ok();
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
    fn implantation_saves_prps_in_all_peers() {
        let mut g = PrpGroup::spawn(vec![0u64, 10, 20]);
        g.establish_rp(0);
        g.establish_rp(1);
        let stores = g.shutdown();
        // Each store: 1 initial real + own RPs + PRPs from others.
        // P0: initial + RP + PRP(from P1) = 3.
        assert_eq!(stores[0].len(), 3);
        assert_eq!(stores[1].len(), 3);
        // P2: initial + 2 PRPs.
        assert_eq!(stores[2].len(), 3);
        assert!(stores[2].pseudo_for(0, 1).is_some());
        assert!(stores[2].pseudo_for(1, 1).is_some());
    }

    #[test]
    fn local_failure_restores_pseudo_recovery_line() {
        let mut g = PrpGroup::spawn(vec![0u64, 0, 0]);
        // Everyone computes a bit; P1 checkpoints (implanting PRPs).
        g.mutate(0, |s| *s += 1);
        g.mutate(1, |s| *s += 10);
        g.mutate(2, |s| *s += 100);
        g.establish_rp(1);
        // Post-line computation + interactions weld the set together.
        g.interact(0, 1, |s| *s += 2, |s| *s += 20);
        g.interact(1, 2, |s| *s += 20, |s| *s += 200);
        g.mutate(1, |s| *s += 1000);
        // P1 fails with a local error: everyone restarts from RP₁'s
        // pseudo recovery line.
        let plan = g.recover(1, true);
        assert!(plan.rolled_back.iter().all(|&b| b), "all were affected");
        assert_eq!(g.read_state(0), 1, "P0 back to its PRP state");
        assert_eq!(g.read_state(1), 10, "P1 back to its RP state");
        assert_eq!(g.read_state(2), 100, "P2 back to its PRP state");
        g.shutdown();
    }

    #[test]
    fn unaffected_processes_keep_their_state() {
        let mut g = PrpGroup::spawn(vec![0u64, 0, 0]);
        g.establish_rp(0);
        g.mutate(2, |s| *s = 42);
        // Only P0 and P1 interact after P0's RP.
        g.interact(0, 1, |s| *s += 5, |s| *s += 50);
        let plan = g.recover(0, true);
        assert!(plan.rolled_back[0]);
        assert!(plan.rolled_back[1]);
        assert!(!plan.rolled_back[2], "P2 never interacted after the RP");
        assert_eq!(g.read_state(2), 42);
        g.shutdown();
    }

    #[test]
    fn propagated_error_rolls_past_prps_to_real_rps() {
        let mut g = PrpGroup::spawn(vec![0u64, 0]);
        g.mutate(0, |s| *s = 7);
        g.establish_rp(0); // P0's RP at state 7; P1 gets a PRP at 0.
        g.interact(0, 1, |s| *s += 1, |s| *s += 1);
        g.mutate(1, |s| *s += 100);
        // P0 fails with a *propagated* error: P1 restarts from its PRP…
        // but it has no real RP after time 0, so step 3 forces it to
        // its beginning.
        let plan = g.recover(0, false);
        assert!(plan.rolled_back[1]);
        assert_eq!(g.read_state(1), 0, "P1 at its beginning");
        assert_eq!(g.read_state(0), 7, "P0 at its real RP");
        g.shutdown();
    }

    #[test]
    fn repeated_failures_are_recoverable() {
        let mut g = PrpGroup::spawn(vec![1u64, 1]);
        for round in 0..3 {
            g.establish_rp(0);
            g.interact(0, 1, |s| *s *= 2, |s| *s *= 3);
            let plan = g.recover(0, true);
            assert!(plan.rolled_back[0], "round {round}");
        }
        // States rolled back to the last pseudo recovery line each time.
        assert_eq!(g.read_state(0), 1);
        assert_eq!(g.read_state(1), 1);
        g.shutdown();
    }
}
