//! The pseudo-recovery-point scheme (paper §4).
//!
//! A **pseudo recovery point** (PRP) is a state saved *without* a
//! preceding acceptance test. Whenever `Pᵢ` establishes a real RP it
//! broadcasts an implantation request; every other process `Pⱼ` records
//! `PRPⱼ` "upon the completion of the current instruction" and
//! broadcasts a commitment. `RPᵢ` together with the n−1 PRPs forms a
//! **pseudo recovery line** (PRL): if `Pᵢ` later fails and drags others
//! back, they restart from the PRL instead of dominoing.
//!
//! Costs (paper §4): n saved states per RP instead of 1, `(n−1)·t_r`
//! extra state-saving time per RP, and — because PRP contents are not
//! acceptance-tested — rollback must sometimes continue until every
//! affected process has rolled past at least one of its *own* real RPs
//! (the paper's step (3); otherwise a propagated error could be
//! restored along with the state). Rollback runs under
//! [`RollbackRule::Prp`].

use rbmarkov::paper::AsyncParams;
use rbsim::stats::Welford;

use crate::fault::FaultConfig;
use crate::history::History;
use crate::metrics::SchemeMetrics;
use crate::rollback::RollbackRule;
use crate::schemes::events::{EventKind, EventStream};

/// Configuration of the PRP scheme.
#[derive(Clone, Debug)]
pub struct PrpConfig {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// Delay between an RP and the PRPs it implants ("completion of the
    /// current instruction") — small relative to 1/λ.
    pub implant_delay: f64,
    /// Time to record one process state, t_r; the per-RP overhead is
    /// (n−1)·t_r across the other processes.
    pub t_r: f64,
    /// Fault injection (None ⇒ structural experiments only).
    pub fault: Option<FaultConfig>,
}

impl PrpConfig {
    /// Defaults: implant delay 1e-6, t_r 1e-3, no faults.
    pub fn new(params: AsyncParams) -> Self {
        PrpConfig {
            params,
            implant_delay: 1e-6,
            t_r: 1e-3,
            fault: None,
        }
    }

    /// Sets the fault model.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        assert_eq!(fault.error_rates.len(), self.params.n());
        self.fault = Some(fault);
        self
    }

    /// Sets the state-recording time t_r.
    pub fn with_t_r(mut self, t_r: f64) -> Self {
        assert!(t_r >= 0.0);
        self.t_r = t_r;
        self
    }
}

/// Statistics from the PRP storage/overhead model.
#[derive(Clone, Debug)]
pub struct PrpStorageStats {
    /// Real RPs established per process.
    pub rps: Vec<u64>,
    /// PRPs implanted per process.
    pub prps: Vec<u64>,
    /// Peak live states per process under the paper's purge rule
    /// (old RPs/PRPs outside the current pseudo recovery lines are
    /// purged when a new RP arrives).
    pub peak_live_states: Vec<usize>,
    /// Mean live states per process (sampled at each purge).
    pub mean_live_states: f64,
    /// Total state-recording time spent on PRPs: Σ (n−1)·t_r per RP.
    pub prp_time_overhead: f64,
    /// Simulated horizon.
    pub horizon: f64,
}

/// The PRP scheme driver.
pub struct PrpScheme {
    cfg: PrpConfig,
    events: EventStream,
}

impl PrpScheme {
    /// Creates a driver with the given master seed.
    pub fn new(cfg: PrpConfig, seed: u64) -> Self {
        PrpScheme {
            events: EventStream::new(&cfg.params, cfg.fault.as_ref(), seed),
            cfg,
        }
    }

    /// Generates a history with PRP implantation up to `horizon`
    /// (fault events, if configured, are ignored here).
    pub fn generate_history(&mut self, horizon: f64) -> History {
        self.events.history(horizon, Some(self.cfg.implant_delay))
    }

    /// Runs the storage/overhead model: live-state accounting under the
    /// paper's purge rule.
    ///
    /// ```
    /// use rbcore::schemes::prp::{PrpConfig, PrpScheme};
    /// use rbmarkov::paper::AsyncParams;
    ///
    /// let cfg = PrpConfig::new(AsyncParams::symmetric(3, 1.0, 1.0));
    /// let stats = PrpScheme::new(cfg, 7).storage_timeline(100.0);
    /// // Every RP implants n−1 = 2 PRPs; the purge rule caps live
    /// // states at n per process.
    /// let rps: u64 = stats.rps.iter().sum();
    /// let prps: u64 = stats.prps.iter().sum();
    /// assert_eq!(prps, 2 * rps);
    /// assert!(stats.peak_live_states.iter().all(|&p| p <= 3));
    /// ```
    pub fn storage_timeline(&mut self, horizon: f64) -> PrpStorageStats {
        let n = self.cfg.params.n();
        let mut rps = vec![0u64; n];
        let mut prps = vec![0u64; n];
        // Live states per process, counted per origin process. Under the
        // purge rule each process keeps its own latest RP plus one PRP
        // per *other* process's latest RP — at most n live states.
        let mut live_counts: Vec<Vec<usize>> = vec![vec![0; n]; n];
        let mut peak = vec![0usize; n];
        let mut live_samples = Welford::new();
        let mut prp_time_overhead = 0.0;
        let mut t = 0.0;

        // Seed: initial states.
        for k in 0..n {
            live_counts[k][k] = 1;
            peak[k] = 1;
        }

        loop {
            let k = self.events.next(&mut t);
            if t > horizon {
                break;
            }
            if let EventKind::Rp(i) = k {
                rps[i] += 1;
                prp_time_overhead += (n - 1) as f64 * self.cfg.t_r;
                // New RP in i supersedes i's previous own RP; implant
                // PRPs in the others, superseding their PRPs for i's
                // previous RP (purge on establishment).
                live_counts[i][i] = 1;
                for j in 0..n {
                    if j != i {
                        prps[j] += 1;
                        live_counts[j][i] = 1;
                    }
                }
                for j in 0..n {
                    let total: usize = live_counts[j].iter().sum();
                    peak[j] = peak[j].max(total);
                    live_samples.push(total as f64);
                }
            }
        }

        PrpStorageStats {
            rps,
            prps,
            peak_live_states: peak,
            mean_live_states: live_samples.mean(),
            prp_time_overhead,
            horizon,
        }
    }

    /// Fault-injection episodes with PRP rollback: RPs implant PRPs,
    /// and a detected error rolls back under [`RollbackRule::Prp`] with
    /// its own locality. Requires a fault model.
    pub fn run_failure_episodes(&mut self, episodes: usize) -> SchemeMetrics {
        let fault = self
            .cfg
            .fault
            .as_ref()
            .expect("episodes need a fault model");
        let implant = Some(self.cfg.implant_delay);
        self.events
            .failure_episodes(fault, episodes, implant, |c| RollbackRule::Prp {
                local: c.local,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::history::{ProcessId, RpKind};
    use crate::recovery_line::is_consistent_cut;
    use crate::rollback::{propagate_rollback, RollbackPlan};
    use RollbackRule::{Prp, Symmetric};

    fn prp_plan(h: &History, failed: ProcessId, at: f64, local: bool) -> RollbackPlan {
        propagate_rollback(h, failed, at, Prp { local })
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// The paper's Figure 8: P3 fails at AT₃¹; P1 and P2, affected by
    /// the rollback, restart from (RP₃¹'s PRL): PRP₁³, PRP₂³.
    fn figure8_history() -> History {
        let mut h = History::new(3);
        // P1 checkpoints; implants PRPs in P2, P3.
        let rp1 = h.record_rp(p(0), 1.0);
        h.record_prp(p(1), 1.001, rp1);
        h.record_prp(p(2), 1.001, rp1);
        // P3 checkpoints; implants PRPs in P1, P2.
        let rp3 = h.record_rp(p(2), 2.0);
        h.record_prp(p(0), 2.001, rp3);
        h.record_prp(p(1), 2.001, rp3);
        // Everyone intertwines.
        h.record_interaction(p(2), p(0), 2.5);
        h.record_interaction(p(2), p(1), 3.0);
        h.record_interaction(p(0), p(1), 3.5);
        h
    }

    #[test]
    fn figure8_local_error_restarts_at_pseudo_recovery_line() {
        let h = figure8_history();
        // P3 fails at 4.0 with a *local* error: it restarts from RP₃
        // (t = 2.0); P1 and P2 are dragged (interactions at
        // 2.5/3.0/3.5) and restart from their PRPs for RP₃ (t = 2.001).
        // That pseudo recovery line is accepted — the paper: "The
        // recovery line formed by RPᵢ and all PRPᵢ's is able to recover
        // these processes even if the error has already propagated."
        let plan = prp_plan(&h, p(2), 4.0, true);
        assert_eq!(plan.restart[2], 2.0);
        assert_eq!(plan.restart[0], 2.001);
        assert_eq!(plan.restart[1], 2.001);
        assert!(is_consistent_cut(&h, &plan.restart));
        assert!(matches!(plan.restart_kinds[0], Some(RpKind::Pseudo { .. })));
        assert!(matches!(plan.restart_kinds[2], Some(RpKind::Real)));
    }

    #[test]
    fn propagated_error_forces_step3_continuation() {
        let h = figure8_history();
        // Same failure, but the error reached P3 from elsewhere: the
        // PRP contents of the affected processes may be contaminated,
        // so each must roll past one of its own real RPs (step 3).
        let plan = prp_plan(&h, p(2), 4.0, false);
        assert!(is_consistent_cut(&h, &plan.restart));
        // P1's most recent real RP is at 1.0 → it ends at ≤ 1.0.
        assert!(plan.restart[0] <= 1.0 + 1e-9, "P1 at {}", plan.restart[0]);
        // P2 has no real RP after 0 → it ends at ≤ its 1.001 PRP,
        // in fact at a state no newer than its most recent real RP (0).
        assert!(plan.restart[1] <= 1e-9, "P2 at {}", plan.restart[1]);
        // The local-error plan never rolls further than the propagated
        // one.
        let local = prp_plan(&h, p(2), 4.0, true);
        for i in 0..3 {
            assert!(local.restart[i] >= plan.restart[i] - 1e-12);
        }
    }

    #[test]
    fn prp_bounds_rollback_versus_async() {
        // Busy interactions, sparse RPs: async dominoes, PRP does not.
        let mut h_async = History::new(3);
        let mut h_prp = History::new(3);
        // Each process checkpoints once early, then interactions rage.
        for (hh, prp) in [(&mut h_async, false), (&mut h_prp, true)] {
            let rp0 = hh.record_rp(p(0), 1.0);
            if prp {
                hh.record_prp(p(1), 1.001, rp0);
                hh.record_prp(p(2), 1.001, rp0);
            }
            let rp1 = hh.record_rp(p(1), 1.5);
            if prp {
                hh.record_prp(p(0), 1.501, rp1);
                hh.record_prp(p(2), 1.501, rp1);
            }
            let rp2 = hh.record_rp(p(2), 2.0);
            if prp {
                hh.record_prp(p(0), 2.001, rp2);
                hh.record_prp(p(1), 2.001, rp2);
            }
            // Interleaved interactions — each pair repeatedly.
            let mut t = 2.1;
            for k in 0..12 {
                let (a, b) = match k % 3 {
                    0 => (0, 1),
                    1 => (1, 2),
                    _ => (0, 2),
                };
                hh.record_interaction(p(a), p(b), t);
                t += 0.1;
            }
        }
        let async_plan = propagate_rollback(&h_async, p(0), 4.0, Symmetric);
        let prp = prp_plan(&h_prp, p(0), 4.0, true);
        assert!(is_consistent_cut(&h_prp, &prp.restart));
        // Async: P1 rolls to 1.0; interactions drag P2 to 1.5, then
        // P3 — the interleaving welds everything to early RPs.
        // PRP: everyone lands on RP₁'s line or their own RPs ≥ 1.0.
        assert!(
            prp.sup_distance() <= async_plan.sup_distance() + 1e-9,
            "PRP {} vs async {}",
            prp.sup_distance(),
            async_plan.sup_distance()
        );
    }

    #[test]
    fn generated_history_implants_n_minus_1_prps_per_rp() {
        let cfg = PrpConfig::new(AsyncParams::symmetric(3, 1.0, 1.0));
        let mut scheme = PrpScheme::new(cfg, 41);
        let h = scheme.generate_history(200.0);
        let mut real = [0usize; 3];
        let mut pseudo = [0usize; 3];
        for i in 0..3 {
            for r in h.rps(p(i)).iter().skip(1) {
                if r.is_real() {
                    real[i] += 1;
                } else {
                    pseudo[i] += 1;
                }
            }
        }
        let total_real: usize = real.iter().sum();
        let total_pseudo: usize = pseudo.iter().sum();
        assert_eq!(total_pseudo, total_real * 2, "n−1 = 2 PRPs per RP");
        // Each process's PRPs = RPs of the others.
        for (i, &pseudo_i) in pseudo.iter().enumerate() {
            let others: usize = (0..3).filter(|&j| j != i).map(|j| real[j]).sum();
            assert_eq!(pseudo_i, others);
        }
    }

    #[test]
    fn generated_history_keeps_events_after_their_implants() {
        // An RP's PRPs land `implant_delay` after it; the generator must
        // move its clock past them, or an event drawn within the delay is
        // recorded out of order. Seed 6 draws one at horizon 200.
        let cfg = PrpConfig::new(AsyncParams::symmetric(3, 1.0, 1.0));
        let h = PrpScheme::new(cfg, 6).generate_history(200.0);
        assert!(h.horizon() > 190.0);
    }

    #[test]
    fn storage_is_bounded_by_n_states_per_process() {
        let cfg = PrpConfig::new(AsyncParams::symmetric(4, 1.0, 1.0));
        let mut scheme = PrpScheme::new(cfg, 43);
        let stats = scheme.storage_timeline(500.0);
        for (i, &peak) in stats.peak_live_states.iter().enumerate() {
            assert!(peak <= 4, "P{} peak {} > n = 4", i + 1, peak);
        }
        assert!(stats.mean_live_states <= 4.0 + 1e-9);
        assert!(stats.mean_live_states > 1.0);
        // Time overhead = (n−1)·t_r per RP.
        let total_rps: u64 = stats.rps.iter().sum();
        let want = total_rps as f64 * 3.0 * 1e-3;
        assert!((stats.prp_time_overhead - want).abs() < 1e-9);
    }

    #[test]
    fn prp_failure_episodes_avoid_dominoes_better_than_async() {
        use crate::schemes::asynchronous::{AsyncConfig, AsyncScheme};
        // Sparse checkpoints (μ = 0.2) + busy interactions (λ = 2):
        // prime domino territory for the async scheme.
        let params = AsyncParams::symmetric(3, 0.2, 2.0);
        let fault = FaultConfig::uniform(3, 0.05, 0.5, 0.5);
        let async_m = AsyncScheme::new(
            AsyncConfig::new(params.clone()).with_fault(fault.clone()),
            51,
        )
        .run_failure_episodes(150, Symmetric);
        let prp_m =
            PrpScheme::new(PrpConfig::new(params).with_fault(fault), 51).run_failure_episodes(150);
        assert!(
            prp_m.sup_distance.mean() <= async_m.sup_distance.mean(),
            "PRP mean distance {} vs async {}",
            prp_m.sup_distance.mean(),
            async_m.sup_distance.mean()
        );
    }

    #[test]
    fn rollback_distance_bounded_by_rp_spacing_statistically() {
        // Paper: "rollback distance is bounded by the supremum of
        // {y₁,…,yₙ} where yᵢ is the interval between two successive
        // recovery points of Pᵢ" — in expectation the PRP distance
        // should be on the order of E[max spacing], far below the
        // async domino distances. Loose statistical check.
        let params = AsyncParams::symmetric(3, 1.0, 1.0);
        let fault = FaultConfig::uniform(3, 0.02, 0.5, 0.5);
        let m =
            PrpScheme::new(PrpConfig::new(params).with_fault(fault), 53).run_failure_episodes(200);
        // E[max of 3 Exp(1)] = 11/6 ≈ 1.83; allow contaminated-PRP
        // continuation to add slack.
        assert!(
            m.sup_distance.mean() < 3.0 * (11.0 / 6.0),
            "mean distance {}",
            m.sup_distance.mean()
        );
    }
}
