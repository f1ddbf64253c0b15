//! Recovery points and distributed rollback on real threads: the §2
//! asynchronous scheme and the §4 PRP implantation protocol.
//!
//! Each process is a worker thread owning its state and a
//! [`CheckpointStore`]. A [`RecoveryGroup`] keeps a logical [`History`]
//! of RPs, PRPs and interactions, so recovery runs `rbcore`'s rollback
//! rules ([`propagate_rollback`]) and maps the restart line back onto
//! stored checkpoints. Logical time advances by 1 per recorded event,
//! mirroring the abstract clock of the paper's history diagrams.
//!
//! * [`RecoveryGroup::spawn`] — §2: each worker saves only its own
//!   acceptance-tested recovery points, so a failure on a chatty group
//!   can cascade all the way to the process beginnings — the domino
//!   effect the paper's §2 quantifies and its §3/§4 schemes pay to
//!   avoid.
//! * [`RecoveryGroup::spawn_prp`] — §4: when `Pᵢ` establishes a recovery
//!   point it broadcasts an *implantation request*; every peer records
//!   its state as a PRP "upon the completion of the current instruction"
//!   (here: as the next command it processes) and replies with a
//!   commitment `Cᵢ`.
//!
//! The implantation transport is real (std `mpsc` channels between OS
//! threads); the orchestration is centralised in the group handle —
//! the monitor-style mechanisation the paper cites from Kim — while the
//! fully decentralised variant is exercised by the discrete-event
//! drivers in `rbcore`.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use rbcore::history::{History, ProcessId};
use rbcore::rollback::{propagate_rollback, RollbackPlan, RollbackRule};

use crate::checkpoint::{CheckpointId, CheckpointStore};

enum Cmd<S> {
    Mutate(Box<dyn FnOnce(&mut S) + Send>),
    SaveReal,
    /// An implantation request from `origin`'s RP number `rp_index`.
    SavePseudo {
        origin: usize,
        rp_index: u64,
    },
    Restore(CheckpointId),
    Read,
    Stop,
}

enum Reply<S> {
    /// A saved checkpoint; for an implanted PRP, the commitment `Cᵢ`.
    Saved(CheckpointId),
    State(S),
    Done,
}

struct Worker<S> {
    cmd_tx: Sender<Cmd<S>>,
    reply_rx: Receiver<Reply<S>>,
    join: Option<JoinHandle<CheckpointStore<S>>>,
    /// (logical time, checkpoint) pairs, newest last.
    timeline: Vec<(f64, CheckpointId)>,
    /// Real RPs saved so far (the index of the next one).
    rp_count: u64,
}

impl<S> Worker<S> {
    fn post(&self, cmd: Cmd<S>) {
        self.cmd_tx.send(cmd).expect("worker alive");
    }

    fn reply(&self) -> Reply<S> {
        self.reply_rx.recv().expect("worker alive")
    }

    /// Sends `cmd` and waits for a bare acknowledgement.
    fn call(&self, cmd: Cmd<S>) {
        self.post(cmd);
        let Reply::Done = self.reply() else {
            panic!("unexpected reply")
        };
    }

    /// Waits for a save's reply and files the checkpoint at time `t`.
    fn file_saved(&mut self, t: f64) {
        let Reply::Saved(id) = self.reply() else {
            panic!("unexpected reply")
        };
        self.timeline.push((t, id));
    }
}

/// A group of checkpointing worker threads under the §2 or §4 scheme.
pub struct RecoveryGroup<S> {
    workers: Vec<Worker<S>>,
    history: History,
    clock: f64,
    /// Whether an RP implants PRPs in the peers (the §4 scheme).
    implant: bool,
}

impl<S: Clone + Send + 'static> RecoveryGroup<S> {
    /// Spawns one §2 worker per initial state: recovery points save only
    /// the worker's own state. Each beginning is checkpointed at logical
    /// time 0.
    pub fn spawn(initial_states: Vec<S>) -> Self {
        Self::start(initial_states, false)
    }

    /// Spawns one §4 worker per initial state: every recovery point
    /// implants a PRP in each peer.
    pub fn spawn_prp(initial_states: Vec<S>) -> Self {
        Self::start(initial_states, true)
    }

    fn start(initial_states: Vec<S>, implant: bool) -> Self {
        let n = initial_states.len();
        assert!(n >= 2, "cooperating processes required");
        let workers = initial_states
            .into_iter()
            .map(|state| {
                let (cmd_tx, cmd_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                let join = std::thread::spawn(move || worker_loop(state, cmd_rx, reply_tx));
                Worker {
                    cmd_tx,
                    reply_rx,
                    join: Some(join),
                    timeline: Vec::new(),
                    rp_count: 0,
                }
            })
            .collect();
        let mut group = RecoveryGroup {
            workers,
            history: History::new(n),
            clock: 0.0,
            implant,
        };
        // `History::new` already records the time-0 RPs.
        for i in 0..n {
            group.save_real(i, 0.0);
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

    fn save_real(&mut self, i: usize, t: f64) {
        let worker = &mut self.workers[i];
        worker.post(Cmd::SaveReal);
        worker.file_saved(t);
        worker.rp_count += 1;
    }

    /// Applies a mutation to worker `i`'s state (its "normal task").
    pub fn mutate(&mut self, i: usize, f: impl FnOnce(&mut S) + Send + 'static) {
        self.workers[i].call(Cmd::Mutate(Box::new(f)));
    }

    /// Records a message `from → to` with its paired state mutations.
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

    /// Worker `i` passes its acceptance test and checkpoints; in a §4
    /// group it then broadcasts implantation requests, and every peer
    /// saves a PRP and commits. Returns the RP's index within `i`.
    pub fn establish_rp(&mut self, i: usize) -> u64 {
        let t = self.tick();
        let rp_index = self.workers[i].rp_count;
        let rp = self.history.record_rp(ProcessId(i), t);
        self.save_real(i, t);
        if self.implant {
            let tp = self.tick();
            let peers = (0..self.n()).filter(|&j| j != i);
            for j in peers.clone() {
                self.history.record_prp(ProcessId(j), tp, rp);
                self.workers[j].post(Cmd::SavePseudo {
                    origin: i,
                    rp_index,
                });
            }
            for j in peers {
                self.workers[j].file_saved(tp);
            }
        }
        rp_index
    }

    /// Current state of worker `i` (cloned out).
    pub fn read_state(&self, i: usize) -> S {
        self.workers[i].post(Cmd::Read);
        let Reply::State(s) = self.workers[i].reply() else {
            panic!("unexpected reply")
        };
        s
    }

    /// Worker `failed` fails its acceptance test: plan the rollback under
    /// `rule` on the logical history and restore every rolled-back worker
    /// to its newest checkpoint at or before its restart time. Returns
    /// the executed plan (inspect [`RollbackPlan::hit_beginning`] for the
    /// domino outcome).
    pub fn recover(&mut self, failed: usize, rule: RollbackRule) -> RollbackPlan {
        let t = self.tick();
        let plan = propagate_rollback(&self.history, ProcessId(failed), t, rule);
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
            worker.call(Cmd::Restore(target));
        }
        plan
    }

    /// Stops the workers, returning their checkpoint stores.
    pub fn shutdown(mut self) -> Vec<CheckpointStore<S>> {
        for w in &self.workers {
            w.post(Cmd::Stop);
        }
        self.workers
            .iter_mut()
            .map(|w| {
                let join = w.join.take().expect("not joined");
                join.join().expect("worker ok")
            })
            .collect()
    }
}

fn worker_loop<S: Clone>(
    mut state: S,
    cmd_rx: Receiver<Cmd<S>>,
    reply_tx: Sender<Reply<S>>,
) -> CheckpointStore<S> {
    let mut store = CheckpointStore::new();
    while let Ok(cmd) = cmd_rx.recv() {
        let reply = match cmd {
            Cmd::Mutate(f) => {
                f(&mut state);
                Reply::Done
            }
            Cmd::SaveReal => Reply::Saved(store.save_real(&state)),
            // "records its state … without an acceptance test".
            Cmd::SavePseudo { origin, rp_index } => {
                Reply::Saved(store.save_pseudo(&state, origin, rp_index))
            }
            Cmd::Restore(id) => {
                state = store.restore(id).expect("checkpoint exists");
                Reply::Done
            }
            Cmd::Read => Reply::State(state.clone()),
            Cmd::Stop => break,
        };
        reply_tx.send(reply).ok();
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use RollbackRule::{Directed, Prp, Symmetric};

    #[test]
    fn isolated_failure_rolls_only_the_failer() {
        let mut g = RecoveryGroup::spawn(vec![0u64, 0]);
        g.mutate(0, |s| *s = 5);
        g.establish_rp(0);
        g.mutate(0, |s| *s = 99);
        let plan = g.recover(0, Symmetric);
        assert!(plan.rolled_back[0]);
        assert!(!plan.rolled_back[1]);
        assert_eq!(g.read_state(0), 5);
        g.shutdown();
    }

    #[test]
    fn domino_on_real_threads() {
        // Checkpoints woven with messages: the classic staircase.
        let mut g = RecoveryGroup::spawn(vec![1u64, 2, 3]);
        g.establish_rp(0);
        g.send(0, 1, |s| *s += 10, |s| *s += 10);
        g.establish_rp(1);
        g.send(1, 2, |s| *s += 10, |s| *s += 10);
        g.establish_rp(2);
        g.send(2, 0, |s| *s += 10, |s| *s += 10);
        let plan = g.recover(0, Symmetric);
        assert!(plan.hit_beginning(), "staircase must domino: {plan:?}");
        // Everyone back at their initial values.
        assert_eq!(g.read_state(0), 1);
        assert_eq!(g.read_state(1), 2);
        assert_eq!(g.read_state(2), 3);
        g.shutdown();
    }

    #[test]
    fn directed_mode_spares_pure_senders() {
        let mut g = RecoveryGroup::spawn(vec![0u64, 0]);
        g.establish_rp(0);
        // P1 only *receives* from P2 after its RP.
        g.send(1, 0, |s| *s += 1, |s| *s += 1);
        let sym = g.recover(0, Symmetric);
        assert!(sym.rolled_back[1], "symmetric drags the sender");
        // Rebuild the same story and recover directed.
        let mut g2 = RecoveryGroup::spawn(vec![0u64, 0]);
        g2.establish_rp(0);
        g2.send(1, 0, |s| *s += 1, |s| *s += 1);
        let dir = g2.recover(0, Directed);
        assert!(
            !dir.rolled_back[1],
            "directed spares the sender (lost message)"
        );
        g.shutdown();
        g2.shutdown();
    }

    #[test]
    fn states_match_restart_times() {
        for rule in [Symmetric, Directed, Prp { local: true }] {
            let mut g = if matches!(rule, Prp { .. }) {
                RecoveryGroup::spawn_prp(vec![0i64, 0])
            } else {
                RecoveryGroup::spawn(vec![0i64, 0])
            };
            g.mutate(0, |s| *s = 1);
            g.establish_rp(0); // P0 RP at state 1
            g.mutate(1, |s| *s = 2);
            g.establish_rp(1); // P1 RP at state 2
            g.send(0, 1, |s| *s += 100, |s| *s += 100);
            let plan = g.recover(0, rule);
            // P0 → its RP (state 1); the message is undone (an orphan
            // under the directed rule) ⇒ P1 → its RP (state 2).
            assert_eq!(g.read_state(0), 1, "{rule:?}");
            assert_eq!(g.read_state(1), 2, "{rule:?}");
            assert!(plan.rolled_back[1], "{rule:?}");
            g.shutdown();
        }
    }

    #[test]
    fn stores_keep_all_real_rps() {
        let mut g = RecoveryGroup::spawn(vec![0u8, 0]);
        for _ in 0..4 {
            g.establish_rp(0);
        }
        let stores = g.shutdown();
        assert_eq!(stores[0].real_saved_total(), 5); // initial + 4
        assert_eq!(stores[1].real_saved_total(), 1);
        assert_eq!(stores[1].len(), 1, "no PRPs outside the §4 scheme");
    }

    #[test]
    fn implantation_saves_prps_in_all_peers() {
        let mut g = RecoveryGroup::spawn_prp(vec![0u64, 10, 20]);
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
        let mut g = RecoveryGroup::spawn_prp(vec![0u64, 0, 0]);
        // Everyone computes a bit; P1 checkpoints (implanting PRPs).
        g.mutate(0, |s| *s += 1);
        g.mutate(1, |s| *s += 10);
        g.mutate(2, |s| *s += 100);
        g.establish_rp(1);
        // Post-line computation + interactions weld the set together.
        g.send(0, 1, |s| *s += 2, |s| *s += 20);
        g.send(1, 2, |s| *s += 20, |s| *s += 200);
        g.mutate(1, |s| *s += 1000);
        // P1 fails with a local error: everyone restarts from RP₁'s
        // pseudo recovery line.
        let plan = g.recover(1, Prp { local: true });
        assert!(plan.rolled_back.iter().all(|&b| b), "all were affected");
        assert_eq!(g.read_state(0), 1, "P0 back to its PRP state");
        assert_eq!(g.read_state(1), 10, "P1 back to its RP state");
        assert_eq!(g.read_state(2), 100, "P2 back to its PRP state");
        g.shutdown();
    }

    #[test]
    fn unaffected_processes_keep_their_state() {
        let mut g = RecoveryGroup::spawn_prp(vec![0u64, 0, 0]);
        g.establish_rp(0);
        g.mutate(2, |s| *s = 42);
        // Only P0 and P1 interact after P0's RP.
        g.send(0, 1, |s| *s += 5, |s| *s += 50);
        let plan = g.recover(0, Prp { local: true });
        assert!(plan.rolled_back[0]);
        assert!(plan.rolled_back[1]);
        assert!(!plan.rolled_back[2], "P2 never interacted after the RP");
        assert_eq!(g.read_state(2), 42);
        g.shutdown();
    }

    #[test]
    fn propagated_error_rolls_past_prps_to_real_rps() {
        let mut g = RecoveryGroup::spawn_prp(vec![0u64, 0]);
        g.mutate(0, |s| *s = 7);
        g.establish_rp(0); // P0's RP at state 7; P1 gets a PRP at 0.
        g.send(0, 1, |s| *s += 1, |s| *s += 1);
        g.mutate(1, |s| *s += 100);
        // P0 fails with a *propagated* error: P1 restarts from its PRP…
        // but it has no real RP after time 0, so step 3 forces it to
        // its beginning.
        let plan = g.recover(0, Prp { local: false });
        assert!(plan.rolled_back[1]);
        assert_eq!(g.read_state(1), 0, "P1 at its beginning");
        assert_eq!(g.read_state(0), 7, "P0 at its real RP");
        g.shutdown();
    }

    #[test]
    fn repeated_failures_are_recoverable() {
        let mut g = RecoveryGroup::spawn_prp(vec![1u64, 1]);
        for round in 0..3 {
            g.establish_rp(0);
            g.send(0, 1, |s| *s *= 2, |s| *s *= 3);
            let plan = g.recover(0, Prp { local: true });
            assert!(plan.rolled_back[0], "round {round}");
        }
        // States rolled back to the last pseudo recovery line each time.
        assert_eq!(g.read_state(0), 1);
        assert_eq!(g.read_state(1), 1);
        g.shutdown();
    }
}
