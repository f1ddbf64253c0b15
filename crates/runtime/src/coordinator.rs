//! The §3 synchronized recovery-line protocol on real threads.
//!
//! Paper §3, steps per process `Pᵢ` after a synchronization request:
//!
//! 1. execute its own normal work until the next acceptance test;
//! 2. set `Pᵢᵢ-ready := ON` and broadcast it;
//! 3. while not all `Pᵢⱼ-ready = ON`: receive messages — if a ready
//!    flag, record it; otherwise queue the (data) message;
//! 4. perform the acceptance test and record the process state.
//!
//! [`run_synchronization`] spawns one thread per participant and runs
//! the protocol with real message passing (`std::sync::mpsc` channels,
//! one per participant, FIFO per sender as assumption 4 asks). The
//! "normal work until the acceptance test" is the participant's `work`
//! closure; its *virtual* duration `y` is supplied by the caller so the
//! waiting-loss accounting `CL = Σ (Z − yᵢ)` is exact, while threads
//! also physically wait on each other — asserting the protocol is
//! deadlock-free and that every state save happens after every ready
//! broadcast.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// Messages exchanged during establishment.
#[derive(Clone, Debug)]
enum Msg {
    Ready {
        from: usize,
    },
    /// A data message that arrived during establishment and must be
    /// recorded, not lost (protocol step 3's `else` branch).
    Data {
        from: usize,
        payload: u64,
    },
}

/// One participant of a synchronization round.
pub struct SyncParticipant<S> {
    /// The process state to checkpoint at the line.
    pub state: S,
    /// Virtual time from the request to this process's acceptance test
    /// (the paper's `yᵢ`; exponential in the model, caller-chosen here).
    pub y: f64,
    /// Data messages this participant sends to peers *during* step 1 —
    /// they may arrive at peers already waiting in step 3 and must be
    /// recorded by them.
    pub stray_messages: Vec<(usize, u64)>,
}

/// The per-participant report.
#[derive(Clone, Debug)]
pub struct SyncReport<S> {
    /// The participant's checkpointed state.
    pub checkpoint: S,
    /// Virtual waiting time `Z − yᵢ` charged to this participant.
    pub waited: f64,
    /// Data messages recorded while waiting for commitments.
    pub recorded_messages: Vec<(usize, u64)>,
    /// Wall-clock instants: when this participant broadcast ready, and
    /// when it committed (saved state).
    pub ready_at: Instant,
    /// Wall-clock commit instant.
    pub committed_at: Instant,
}

/// Outcome of one synchronized recovery-line establishment.
#[derive(Clone, Debug)]
pub struct SyncOutcome<S> {
    /// Per-participant reports.
    pub reports: Vec<SyncReport<S>>,
    /// The virtual establishment span `Z = max yᵢ`.
    pub z: f64,
    /// Total virtual computation loss `CL = Σ (Z − yᵢ)`.
    pub loss: f64,
}

/// Wall-clock scale for one virtual time unit during the threaded
/// protocol run. Small enough to keep tests fast, large enough that
/// ordering assertions are meaningful.
const WALL_SCALE: Duration = Duration::from_micros(300);

/// Runs one §3 synchronization round over real threads.
///
/// # Panics
/// Panics if `participants` is empty or any `y` is negative/non-finite.
pub fn run_synchronization<S: Clone + Send>(
    participants: Vec<SyncParticipant<S>>,
) -> SyncOutcome<S> {
    let n = participants.len();
    assert!(n >= 1, "need at least one participant");
    for p in &participants {
        assert!(p.y >= 0.0 && p.y.is_finite(), "invalid y = {}", p.y);
        for &(to, _) in &p.stray_messages {
            assert!(to < n, "stray message to out-of-range peer {to}");
        }
    }
    let z = participants.iter().map(|p| p.y).fold(0.0, f64::max);
    let loss: f64 = participants.iter().map(|p| z - p.y).sum();

    // Full mesh: one channel per peer j, whose receiver j owns and
    // whose sender every row holds, so senders[i][j] sends from i to j.
    let mut senders: Vec<Vec<Sender<Msg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut receivers: Vec<Receiver<Msg>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<Msg>();
        for row in senders.iter_mut() {
            row.push(tx.clone());
        }
        receivers.push(rx);
    }

    let reports: Vec<SyncReport<S>> = thread::scope(|scope| {
        let handles: Vec<_> = participants
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(i, (p, rx))| {
                let my_senders = senders[i].clone();
                scope.spawn(move || {
                    // Step 1: "execute its own normal process until the
                    // acceptance test" — simulated by a scaled sleep;
                    // stray data messages are sent mid-work.
                    let half = WALL_SCALE.mul_f64(p.y * 0.5);
                    thread::sleep(half);
                    for &(to, payload) in &p.stray_messages {
                        my_senders[to]
                            .send(Msg::Data { from: i, payload })
                            .expect("peer alive");
                    }
                    thread::sleep(half);

                    // Step 2: broadcast ready.
                    let ready_at = Instant::now();
                    for (j, tx) in my_senders.iter().enumerate() {
                        if j != i {
                            tx.send(Msg::Ready { from: i }).expect("peer alive");
                        }
                    }

                    // Step 3: wait for all commitments, recording data.
                    let mut ready = vec![false; n];
                    ready[i] = true;
                    let mut recorded = Vec::new();
                    while !ready.iter().all(|&r| r) {
                        match rx.recv().expect("peers alive") {
                            Msg::Ready { from } => ready[from] = true,
                            Msg::Data { from, payload } => recorded.push((from, payload)),
                        }
                    }

                    // Step 4: acceptance test + state save (the commit).
                    let committed_at = Instant::now();
                    SyncReport {
                        checkpoint: p.state.clone(),
                        waited: z - p.y,
                        recorded_messages: recorded,
                        ready_at,
                        committed_at,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    SyncOutcome { reports, z, loss }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_accounting_matches_formula() {
        let ys = [1.0, 3.0, 2.0];
        let outcome = run_synchronization(
            ys.iter()
                .map(|&y| SyncParticipant {
                    state: y as u64,
                    y,
                    stray_messages: vec![],
                })
                .collect(),
        );
        assert_eq!(outcome.z, 3.0);
        assert!((outcome.loss - ((3.0 - 1.0) + 0.0 + (3.0 - 2.0))).abs() < 1e-12);
        for (r, &y) in outcome.reports.iter().zip(&ys) {
            assert!((r.waited - (3.0 - y)).abs() < 1e-12);
        }
    }

    #[test]
    fn every_commit_happens_after_every_ready() {
        // The heart of the protocol: no process saves state until all
        // have broadcast ready — the saves form a recovery line.
        let outcome = run_synchronization(
            [0.5, 2.0, 1.0, 1.5]
                .iter()
                .map(|&y| SyncParticipant {
                    state: (),
                    y,
                    stray_messages: vec![],
                })
                .collect(),
        );
        let last_ready = outcome.reports.iter().map(|r| r.ready_at).max().unwrap();
        for (i, r) in outcome.reports.iter().enumerate() {
            assert!(
                r.committed_at >= last_ready,
                "P{i} committed before the last ready broadcast"
            );
        }
    }

    #[test]
    fn stray_data_messages_are_recorded_not_lost() {
        // P0 finishes instantly and waits; P1 sends it a data message
        // mid-work. Step 3 must record it.
        let outcome = run_synchronization(vec![
            SyncParticipant {
                state: 0,
                y: 0.0,
                stray_messages: vec![],
            },
            SyncParticipant {
                state: 1,
                y: 4.0,
                stray_messages: vec![(0, 777)],
            },
        ]);
        assert_eq!(outcome.reports[0].recorded_messages, vec![(1, 777)]);
        assert!(outcome.reports[1].recorded_messages.is_empty());
    }

    #[test]
    fn single_participant_has_no_loss() {
        let outcome = run_synchronization(vec![SyncParticipant {
            state: "solo",
            y: 1.0,
            stray_messages: vec![],
        }]);
        assert_eq!(outcome.loss, 0.0);
        assert_eq!(outcome.reports.len(), 1);
    }

    #[test]
    fn checkpoints_capture_participant_states() {
        let outcome = run_synchronization(
            (0..4)
                .map(|i| SyncParticipant {
                    state: vec![i; 3],
                    y: 0.1 * (i + 1) as f64,
                    stray_messages: vec![],
                })
                .collect(),
        );
        for (i, r) in outcome.reports.iter().enumerate() {
            assert_eq!(r.checkpoint, vec![i; 3]);
        }
    }
}
