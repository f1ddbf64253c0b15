//! Rollback propagation: from a detected error to a consistent restart
//! line.
//!
//! When `Pᵢ` fails an acceptance test, it rolls back to its previous
//! recovery point. Every interaction it thereby un-does forces the peer
//! process back to a state before that interaction, which may un-do
//! further interactions — the paper's *rollback propagation*. The
//! fixpoint of this process is a consistent restart line; in the worst
//! case it is the set of process beginnings (the *domino effect*).

use crate::history::{History, ProcessId, RpKind, RpRecord};

/// The outcome of propagating one rollback to a consistent line.
#[derive(Clone, Debug, PartialEq)]
pub struct RollbackPlan {
    /// The failing process.
    pub failed: ProcessId,
    /// When the error was detected.
    pub detected_at: f64,
    /// Restart time per process (`detected_at` for processes that do
    /// not roll back at all).
    pub restart: Vec<f64>,
    /// Whether each process had to roll back.
    pub rolled_back: Vec<bool>,
    /// Number of saved states each process rolled past (real RPs only).
    pub rps_crossed: Vec<usize>,
    /// Kind of the saved state each rolled-back process restarts from
    /// (`None` for processes that did not roll back; the time-0 initial
    /// state reports as `Real`).
    pub restart_kinds: Vec<Option<RpKind>>,
    /// Number of fixpoint iterations the propagation took.
    pub iterations: usize,
}

impl RollbackPlan {
    /// Rollback distance of process `i`: computation discarded between
    /// its restart point and the detection time (0 if not rolled back).
    pub fn distance(&self, i: usize) -> f64 {
        self.detected_at - self.restart[i]
    }

    /// The paper's *rollback distance* D: the supremum of the
    /// per-process distances — the total span of computation that must
    /// be re-done.
    pub fn sup_distance(&self) -> f64 {
        self.restart
            .iter()
            .map(|&r| self.detected_at - r)
            .fold(0.0, f64::max)
    }

    /// Number of processes dragged into the rollback (including the
    /// failing one).
    pub fn n_affected(&self) -> usize {
        self.rolled_back.iter().filter(|&&b| b).count()
    }

    /// Whether any process was pushed back to its beginning — the
    /// domino effect reached time 0.
    pub fn hit_beginning(&self) -> bool {
        self.rolled_back
            .iter()
            .zip(&self.restart)
            .any(|(&rb, &r)| rb && r == 0.0)
    }
}

/// Which saved states a rollback may restart from, and which recorded
/// interactions force a peer back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackRule {
    /// The paper's §2 model: restarts at real RPs only, and any
    /// interaction undone on one side forces the other side back past it.
    Symmetric,
    /// Russell's directed-message refinement: every sender keeps a log
    /// of sent messages (see `rbruntime::channel::LoggedSender`), so a
    /// message whose *receiver* rolls back is replayed and forces no one
    /// ("lost" messages are harmless). Only **orphans** propagate:
    /// receiver `j` rolls back past any message from `i` sent at `u` with
    /// `restart[i] < u ≤ restart[j]`. The constraints are a subset of the
    /// symmetric ones, so the restart line is at least as late
    /// componentwise — quantified by the `russell_directed` binary.
    Directed,
    /// The §4 pseudo-recovery-point algorithm over the symmetric model:
    ///
    /// 1. the failing process restarts from its previous *real* RP;
    /// 2. processes dragged along may restart from their PRPs (the
    ///    pseudo recovery line), since PRPs sit just after their origin
    ///    RP in time;
    /// 3. when the error is **not** `local` to the failing process, a
    ///    dragged process that restarts from a PRP without having rolled
    ///    past its own most recent real RP may hold a propagated error, so
    ///    it is capped to that RP and the plan is recomputed ("rollback
    ///    propagation may continue until every process involved has
    ///    rolled back … past at least one of its recovery points").
    ///
    /// For a local error the pseudo recovery line itself "is able to
    /// recover these processes even if the error has already
    /// propagated", so step 3 is skipped.
    Prp {
        /// Whether the detected error arose in the failing process.
        local: bool,
    },
}

/// Propagates the rollback of `failed`, whose error is detected at
/// `detected_at`, to a restart line under `rule`.
///
/// The failing process restarts from its latest admissible state
/// *strictly before* `detected_at` (the state being saved at the failed
/// acceptance test is discarded); the process beginnings (time-0 states,
/// seeded as real RPs by [`History::new`]) are the last resort. Other
/// processes roll back only when an undone interaction forces them.
pub fn propagate_rollback(
    h: &History,
    failed: ProcessId,
    detected_at: f64,
    rule: RollbackRule,
) -> RollbackPlan {
    assert!(failed.0 < h.n(), "failed process out of range");
    let depends = match rule {
        RollbackRule::Directed => History::first_message_from_to,
        _ => History::first_interaction_between,
    };
    let pseudo_ok = matches!(rule, RollbackRule::Prp { .. });
    // Step 3 of the PRP rule: the latest state each process may restart
    // from, lowered until no dragged process trusts a suspect PRP.
    let mut caps = vec![f64::INFINITY; h.n()];
    loop {
        let plan = fixpoint(h, failed, detected_at, depends, |q, r| {
            r.time <= caps[q.0] && (r.is_real() || (pseudo_ok && q != failed))
        });
        if rule != (RollbackRule::Prp { local: false }) {
            return plan;
        }
        let mut changed = false;
        for (j, cap) in caps.iter_mut().enumerate() {
            if j == failed.0 || !matches!(plan.restart_kinds[j], Some(RpKind::Pseudo { .. })) {
                continue;
            }
            // "if the rollback has not passed its most recent recovery
            // point" — the latest real RP before detection.
            let m_j = h
                .latest_rp_at_or_before(ProcessId(j), detected_at, |r| r.is_real())
                .map_or(0.0, |r| r.time);
            if plan.restart[j] > m_j && *cap > m_j {
                *cap = m_j;
                changed = true;
            }
        }
        if !changed {
            return plan;
        }
    }
}

/// The rollback fixpoint: seeds `failed` at its latest `admit`ted state
/// before `detected_at`, then, while some process `i` has restarted
/// before an interaction `depends` reports that `j`'s state still
/// contains, pulls `j` back past the earliest such interaction. Restart
/// times only decrease and each decrease crosses at least one event, so
/// this terminates.
fn fixpoint(
    h: &History,
    failed: ProcessId,
    detected_at: f64,
    depends: fn(&History, ProcessId, ProcessId, f64, f64) -> Option<f64>,
    admit: impl Fn(ProcessId, &RpRecord) -> bool,
) -> RollbackPlan {
    let n = h.n();
    let mut restart = vec![detected_at; n];
    let mut rolled_back = vec![false; n];
    let mut restart_kinds: Vec<Option<RpKind>> = vec![None; n];
    let mut roll_back = |j: usize, before: f64, restart: &mut [f64]| {
        let rec = h.latest_rp_before(ProcessId(j), before, |r| admit(ProcessId(j), r));
        restart[j] = rec.map_or(0.0, |r| r.time);
        restart_kinds[j] = Some(rec.map_or(RpKind::Real, |r| r.kind));
        rolled_back[j] = true;
    };
    roll_back(failed.0, detected_at, &mut restart);

    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for i in 0..n {
            for j in 0..n {
                if i == j || restart[i] >= restart[j] {
                    continue;
                }
                if let Some(u) = depends(h, ProcessId(i), ProcessId(j), restart[i], f64::INFINITY) {
                    if u <= restart[j] {
                        roll_back(j, u, &mut restart);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let rps_crossed = (0..n)
        .map(|i| {
            h.rps(ProcessId(i))
                .iter()
                .filter(|r| r.is_real() && r.time > restart[i] && r.time <= detected_at)
                .count()
        })
        .collect();

    RollbackPlan {
        failed,
        detected_at,
        restart,
        rolled_back,
        rps_crossed,
        restart_kinds,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery_line::{is_consistent_cut, is_orphan_free_cut};
    use RollbackRule::{Directed, Symmetric};

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Figure 1 of the paper: P1 fails at AT₁⁴; the rollback cascades
    /// through P2 and P3 back to recovery line RL₂.
    fn figure1_history() -> History {
        let mut h = History::new(3);
        // RL1 pieces.
        h.record_rp(p(0), 1.0);
        h.record_rp(p(1), 1.1);
        h.record_rp(p(2), 1.2); // RL1 forms
        h.record_interaction(p(0), p(1), 1.5);
        // RL2 pieces.
        h.record_rp(p(0), 2.0);
        h.record_rp(p(1), 2.1);
        h.record_rp(p(2), 2.2); // RL2 forms
                                // Interactions that weld the processes together after RL2.
        h.record_interaction(p(0), p(1), 2.5);
        h.record_rp(p(1), 2.6);
        h.record_interaction(p(1), p(2), 2.8);
        h.record_rp(p(2), 3.0);
        h.record_rp(p(0), 3.2);
        h.record_interaction(p(0), p(2), 3.5);
        h.record_rp(p(0), 4.0); // P1's AT fails here
        h
    }

    #[test]
    fn failure_rolls_back_to_previous_rp_when_isolated() {
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(0), 2.0);
        // No interactions: P2 unaffected.
        let plan = propagate_rollback(&h, p(0), 2.5, Symmetric);
        assert_eq!(plan.restart, vec![2.0, 2.5]);
        assert_eq!(plan.rolled_back, vec![true, false]);
        assert_eq!(plan.n_affected(), 1);
        assert!((plan.sup_distance() - 0.5).abs() < 1e-12);
        assert!(!plan.hit_beginning());
    }

    #[test]
    fn failure_at_rp_discards_that_rp() {
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(0), 2.0);
        // Error detected exactly at the t = 2.0 acceptance test: the
        // state being saved there is not usable.
        let plan = propagate_rollback(&h, p(0), 2.0, Symmetric);
        assert_eq!(plan.restart[0], 1.0);
    }

    #[test]
    fn figure1_cascade_reaches_rl2() {
        let h = figure1_history();
        let plan = propagate_rollback(&h, p(0), 4.0, Symmetric);
        // P1 rolls to 3.2; interaction at 3.5 with P3 forces P3 past it
        // (to 3.0); interaction at 2.8 is before 3.0 — but P1↔P2 at 2.5
        // is before 3.2, so does P2 survive? P2's position 4.0 holds the
        // 2.8 interaction with P3 (restart 3.0): 2.8 < 3.0 → fine; and
        // 2.5 < 3.2 → fine. So the line is (3.2, 4.0, 3.0)?
        // Check: P1–P2 interaction 2.5 ≤ both restarts → consistent;
        // P2–P3 2.8 < 3.0 ≤ 4.0: 2.8 > ? lo=3.0? No: restart2=4.0,
        // restart3=3.0, interaction 2.8 < 3.0 → not sandwiched. OK.
        assert!(is_consistent_cut(&h, &plan.restart));
        assert_eq!(plan.restart, vec![3.2, 4.0, 3.0]);
        assert_eq!(plan.n_affected(), 2);
    }

    #[test]
    fn figure1_cascade_from_earlier_failure_dominoes_further() {
        let mut h = figure1_history();
        // Extend: P1 fails *before* establishing the 4.0 RP, at 3.6,
        // so it restarts at 3.2 — same as above. Instead fail P2 right
        // after its 2.6 RP: P2 → 2.1? Its latest RP before 2.7 is 2.6;
        // detected at 2.7 → restart 2.6; interaction 2.5 < 2.6 fine;
        // nothing else after 2.6 involving P2 except 2.8 (future,
        // beyond detection — but history holds it). Use a fresh history
        // truncated at detection instead.
        let plan = propagate_rollback(&h, p(1), 2.7, Symmetric);
        assert_eq!(plan.restart[1], 2.6);
        assert_eq!(plan.n_affected(), 1);
        // Now a failure of P2 detected at 2.55 (before the 2.6 RP):
        // restart at 2.1; interaction at 2.5 (P1–P2) undone → P1 must
        // roll past 2.5 → to 2.0. RL2 reached.
        let plan = propagate_rollback(&h, p(1), 2.55, Symmetric);
        assert_eq!(plan.restart[0], 2.0);
        assert_eq!(plan.restart[1], 2.1);
        assert!(!plan.rolled_back[2]);
        assert!(is_consistent_cut(&h, &plan.restart));
        let _ = &mut h;
    }

    #[test]
    fn domino_to_beginning_without_rps() {
        // Processes interact constantly but never checkpoint: any
        // failure cascades to both beginnings.
        let mut h = History::new(2);
        for k in 1..=5 {
            h.record_interaction(p(0), p(1), k as f64);
        }
        let plan = propagate_rollback(&h, p(0), 5.5, Symmetric);
        assert_eq!(plan.restart, vec![0.0, 0.0]);
        assert!(plan.hit_beginning());
        assert_eq!(plan.n_affected(), 2);
        assert!((plan.sup_distance() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn chain_of_three_propagates_transitively() {
        // P1—P2 interact, then P2—P3: failing P1 drags all three.
        let mut h = History::new(3);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(1), 1.1);
        h.record_rp(p(2), 1.2);
        h.record_interaction(p(0), p(1), 2.0);
        h.record_interaction(p(1), p(2), 3.0);
        let plan = propagate_rollback(&h, p(0), 4.0, Symmetric);
        // P1 → 1.0; undoes 2.0 ⇒ P2 → 1.1; undoes 3.0 ⇒ P3 → 1.2.
        assert_eq!(plan.restart, vec![1.0, 1.1, 1.2]);
        assert_eq!(plan.n_affected(), 3);
        assert!(is_consistent_cut(&h, &plan.restart));
    }

    #[test]
    fn plan_is_always_consistent_on_random_histories() {
        let mut s = 0xabcdefu64;
        for trial in 0..50 {
            let n = 2 + (trial % 4);
            let mut h = History::new(n);
            let mut t = 0.0;
            for _ in 0..120 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(99991);
                t += (s >> 40) as f64 / (1u64 << 24) as f64 + 1e-3;
                let a = ((s >> 5) as usize) % n;
                let b = ((s >> 13) as usize) % n;
                if s.is_multiple_of(3) || a == b {
                    h.record_rp(p(a), t);
                } else {
                    h.record_interaction(p(a), p(b), t);
                }
            }
            let failed = p((s as usize) % n);
            let plan = propagate_rollback(&h, failed, t + 1.0, Symmetric);
            assert!(
                is_consistent_cut(&h, &plan.restart),
                "inconsistent plan on trial {trial}: {plan:?}"
            );
            assert!(plan.rolled_back[failed.0]);
        }
    }

    #[test]
    fn directed_ignores_lost_messages() {
        // P1 → P2 message at t = 2; P1 fails at 3 and rolls to its RP
        // at 1.5? No RP — to 1.0. The message at 2 was *sent* by P1
        // after its restart and received by P2 (which keeps it):
        // orphan ⇒ P2 rolls. But a message P2 → P1 is only "lost" when
        // P2 rolls — P1 need not move again.
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(1), 1.5);
        h.record_interaction(p(1), p(0), 2.0); // P2 → P1
        let plan = propagate_rollback(&h, p(0), 3.0, Directed);
        // P1 rolls to 1.0; message at 2.0 went P2 → P1 with P2 not
        // rolled back: P1's receive is discarded with its state, P2's
        // send log can replay — nobody else moves.
        assert_eq!(plan.restart, vec![1.0, 3.0]);
        assert!(!plan.rolled_back[1]);
        assert!(is_orphan_free_cut(&h, &plan.restart));

        // The symmetric (paper) model would have dragged P2 back:
        let sym = propagate_rollback(&h, p(0), 3.0, Symmetric);
        assert!(sym.rolled_back[1]);
    }

    #[test]
    fn directed_propagates_orphans() {
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(1), 1.5);
        h.record_interaction(p(0), p(1), 2.0); // P1 → P2: orphan on P1 rollback
        let plan = propagate_rollback(&h, p(0), 3.0, Directed);
        assert_eq!(plan.restart, vec![1.0, 1.5]);
        assert!(plan.rolled_back[1]);
        assert!(is_orphan_free_cut(&h, &plan.restart));
    }

    #[test]
    fn directed_never_rolls_further_than_symmetric() {
        let mut s = 0x5a5a5au64;
        for trial in 0..30 {
            let n = 2 + (trial % 3);
            let mut h = History::new(n);
            let mut t = 0.0;
            for _ in 0..100 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(12345);
                t += (s >> 40) as f64 / (1u64 << 24) as f64 + 1e-3;
                let a = ((s >> 5) as usize) % n;
                let b = ((s >> 13) as usize) % n;
                if s.is_multiple_of(3) || a == b {
                    h.record_rp(p(a), t);
                } else {
                    h.record_interaction(p(a), p(b), t);
                }
            }
            let failed = p((s as usize) % n);
            let sym = propagate_rollback(&h, failed, t + 1.0, Symmetric);
            let dir = propagate_rollback(&h, failed, t + 1.0, Directed);
            for i in 0..n {
                assert!(
                    dir.restart[i] >= sym.restart[i] - 1e-12,
                    "trial {trial}, P{i}: directed {} < symmetric {}",
                    dir.restart[i],
                    sym.restart[i]
                );
            }
            assert!(is_orphan_free_cut(&h, &dir.restart));
        }
    }

    #[test]
    fn rps_crossed_counts_discarded_checkpoints() {
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(0), 2.0);
        h.record_rp(p(0), 3.0);
        h.record_interaction(p(0), p(1), 3.5);
        // P1 fails at 4.0 → restart 3.0; the 3.5 interaction drags P2
        // to its only earlier state (t = 0); the cut (3.0, 0.0) is
        // consistent since 3.5 lies after both restarts.
        let plan = propagate_rollback(&h, p(0), 4.0, Symmetric);
        assert_eq!(plan.restart, vec![3.0, 0.0]);
        assert_eq!(plan.rps_crossed[0], 0);
        assert!(is_consistent_cut(&h, &plan.restart));
        // Now fail at 2.5: restart 2.0; the 3.0 RP is in the future of
        // the detection and not counted.
        let plan = propagate_rollback(&h, p(0), 2.5, Symmetric);
        assert_eq!(plan.restart[0], 2.0);
        assert_eq!(plan.rps_crossed[0], 0);
        // Fail at 3.0 exactly (at the AT): the 3.0 RP is discarded and
        // counted as crossed.
        let plan = propagate_rollback(&h, p(0), 3.0, Symmetric);
        assert_eq!(plan.restart[0], 2.0);
        assert_eq!(plan.rps_crossed[0], 1);
    }
}
