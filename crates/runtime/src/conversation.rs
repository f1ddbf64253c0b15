//! Randell's conversation scheme across real threads.
//!
//! A **conversation** (paper §1; Randell 1975, Kim 1982) is the
//! synchronized-recovery-block construct: a set of processes enter a
//! common recovery region, may interact only among themselves, and must
//! *all* pass their acceptance tests at the same **test line** before
//! any may leave. If any participant fails, every participant restores
//! its entry state and runs its next alternate.
//!
//! [`Conversation`] implements the test line as a vote-aggregating
//! barrier (`std::sync` mutex + condvar), generation-counted so the
//! same instance serves every retry round. No code path panics while
//! holding the lock, so a poisoned lock still guards a consistent vote
//! state and is recovered rather than propagated.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Why a conversation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConversationError {
    /// Every round failed some participant's acceptance test.
    Exhausted {
        /// Rounds attempted.
        rounds: usize,
    },
}

impl std::fmt::Display for ConversationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConversationError::Exhausted { rounds } => {
                write!(f, "conversation failed after {rounds} rounds")
            }
        }
    }
}

impl std::error::Error for ConversationError {}

struct Shared {
    n: usize,
    state: Mutex<VoteState>,
    cv: Condvar,
}

struct VoteState {
    generation: u64,
    arrived: usize,
    all_ok: bool,
    last_result: bool,
}

/// A reusable test line for `n` participants.
///
/// Cloneable handle; one clone per participating thread.
#[derive(Clone)]
pub struct Conversation {
    shared: Arc<Shared>,
}

impl Conversation {
    /// A conversation among `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Conversation {
            shared: Arc::new(Shared {
                n,
                state: Mutex::new(VoteState {
                    generation: 0,
                    arrived: 0,
                    all_ok: true,
                    last_result: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Number of participants.
    pub fn n(&self) -> usize {
        self.shared.n
    }

    /// Arrives at the test line with a local acceptance verdict; blocks
    /// until all participants arrive; returns whether *all* verdicts
    /// were positive (the conversation's collective outcome).
    pub fn test_line(&self, local_ok: bool) -> bool {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.all_ok &= local_ok;
        st.arrived += 1;
        if st.arrived == sh.n {
            st.last_result = st.all_ok;
            st.generation += 1;
            st.arrived = 0;
            st.all_ok = true;
            sh.cv.notify_all();
            st.last_result
        } else {
            let gen = st.generation;
            sh.cv
                .wait_while(st, |st| st.generation == gen)
                .unwrap_or_else(PoisonError::into_inner)
                .last_result
        }
    }

    /// Runs a participant's side of the conversation: saves the entry
    /// state, then for each round ≤ `max_rounds` executes
    /// `attempt(state, round)` and joins the test line with its verdict.
    /// On collective success returns the winning round; on collective
    /// failure restores the entry state and retries with the next
    /// round.
    ///
    /// All participants must use the same `max_rounds`, or the barrier
    /// deadlocks — asserted by construction in tests.
    pub fn participate<S: Clone>(
        &self,
        state: &mut S,
        max_rounds: usize,
        mut attempt: impl FnMut(&mut S, usize) -> bool,
    ) -> Result<usize, ConversationError> {
        assert!(max_rounds >= 1);
        let entry = state.clone();
        for round in 0..max_rounds {
            let local_ok = attempt(state, round);
            if self.test_line(local_ok) {
                return Ok(round);
            }
            // Collective failure: restore the conversation entry state.
            *state = entry.clone();
        }
        Err(ConversationError::Exhausted { rounds: max_rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn all_pass_first_round() {
        let conv = Conversation::new(3);
        let results: Vec<_> = thread::scope(|s| {
            (0..3)
                .map(|i| {
                    let c = conv.clone();
                    s.spawn(move || {
                        let mut state = i;
                        c.participate(&mut state, 2, |st, _round| {
                            *st += 10;
                            true
                        })
                        .map(|round| (round, state))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, r) in results.iter().enumerate() {
            let (round, state) = r.as_ref().unwrap();
            assert_eq!(*round, 0);
            assert_eq!(*state, i + 10);
        }
    }

    #[test]
    fn one_failure_forces_everyone_to_retry() {
        let conv = Conversation::new(3);
        let results: Vec<_> = thread::scope(|s| {
            (0..3)
                .map(|i| {
                    let c = conv.clone();
                    s.spawn(move || {
                        let mut state = vec![i];
                        let rounds_run = std::cell::Cell::new(0);
                        let res = c.participate(&mut state, 3, |st, round| {
                            rounds_run.set(rounds_run.get() + 1);
                            st.push(100 + round);
                            // Participant 1's primary is broken.
                            !(i == 1 && round == 0)
                        });
                        (res, state, rounds_run.get())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, (res, state, rounds)) in results.iter().enumerate() {
            assert_eq!(*res.as_ref().unwrap(), 1, "round 1 wins for P{i}");
            assert_eq!(*rounds, 2, "everyone ran 2 rounds — even passing P{i}");
            // Entry state restored before round 1: exactly one push.
            assert_eq!(state, &vec![i, 101]);
        }
    }

    #[test]
    fn exhaustion_restores_entry_state() {
        let conv = Conversation::new(2);
        let results: Vec<_> = thread::scope(|s| {
            (0..2)
                .map(|i| {
                    let c = conv.clone();
                    s.spawn(move || {
                        let mut state = i * 5;
                        let res = c.participate(&mut state, 2, |st, _| {
                            *st += 1;
                            false // nothing ever passes
                        });
                        (res, state)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, (res, state)) in results.iter().enumerate() {
            assert_eq!(*res, Err(ConversationError::Exhausted { rounds: 2 }));
            assert_eq!(*state, i * 5, "entry state restored");
        }
    }

    #[test]
    fn barrier_is_reusable_across_rounds_and_calls() {
        let conv = Conversation::new(2);
        for _ in 0..5 {
            let ok: Vec<bool> = thread::scope(|s| {
                let a = {
                    let c = conv.clone();
                    s.spawn(move || c.test_line(true))
                };
                let b = {
                    let c = conv.clone();
                    s.spawn(move || c.test_line(true))
                };
                vec![a.join().unwrap(), b.join().unwrap()]
            });
            assert_eq!(ok, vec![true, true]);
        }
    }

    #[test]
    fn single_participant_conversation_is_a_recovery_block() {
        let conv = Conversation::new(1);
        let mut state = 0;
        let r = conv.participate(&mut state, 3, |st, round| {
            *st = round;
            round == 2
        });
        assert_eq!(r, Ok(2));
        assert_eq!(state, 2);
    }
}
