//! Analysis-augmented workloads for the sweep engine.
//!
//! The scheme-level adapters live in [`rbcore::workload`] (they need
//! only the simulator and the Markov solvers); the workloads here
//! additionally fold in `rbanalysis` closed forms — and so belong to
//! the bench layer, keeping `rbcore` free of an analysis dependency.
//! All of them implement the same open [`Workload`] trait, so they mix
//! freely with the core adapters (and with workloads defined locally in
//! a figure binary) inside one [`crate::sweep::SweepSpec`].

use rbanalysis::optimal::{optimal_period, overhead_rate, sqrt_law_period};
use rbanalysis::sync_loss;
use rbanalysis::tradeoff::{recommend, Scheme, TradeoffInputs};
use rbcore::metrics::Metric;
use rbcore::schemes::synchronized::{run_sync_timeline, simulate_commit_losses, SyncStrategy};
use rbcore::workload::{canon_async_params, canon_f64, canon_f64s, Workload};
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams};

pub use rbcore::workload::{
    AsyncDensity, AsyncIntervals, Conversations, DistSpec, FailureEpisodes, HistoryAudit,
    PrpStorage, SplitChainStats, SyncTimeline, GOF_ALPHA,
};
pub use rbtestutil::ConformanceWorkload;

/// §3 synchronized scheme: simulate `rounds` commitment rounds and
/// evaluate the closed form and quadrature (Section 3, `sec3_loss`).
/// Metrics: `ECL`, `EZ`, `ECL_closed_form`, `ECL_quadrature`.
#[derive(Clone, Debug)]
pub struct SyncLoss {
    /// Per-process checkpoint rates μᵢ.
    pub mu: Vec<f64>,
    /// Commitment rounds to simulate.
    pub rounds: usize,
}

impl Workload for SyncLoss {
    fn label(&self) -> String {
        format!("sync-loss/n{}", self.mu.len())
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "mu=[{}];rounds={}",
            canon_f64s(&self.mu),
            self.rounds
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let stats = simulate_commit_losses(&self.mu, self.rounds, seed);
        vec![
            Metric::sampled("ECL", &stats.loss),
            Metric::sampled("EZ", &stats.span),
            Metric::exact("ECL_closed_form", sync_loss::mean_loss(&self.mu)),
            Metric::exact(
                "ECL_quadrature",
                sync_loss::mean_loss_quadrature(&self.mu, 1e-10),
            ),
        ]
    }
}

/// Numeric code for a [`Scheme`] inside a [`Metric`] (metrics carry
/// `f64`s): 0 = asynchronous, 1 = synchronized, 2 = PRP.
pub fn scheme_code(s: Scheme) -> f64 {
    match s {
        Scheme::Asynchronous => 0.0,
        Scheme::Synchronized => 1.0,
        Scheme::PseudoRecoveryPoints => 2.0,
    }
}

/// Short name for a [`scheme_code`] value (`async` / `sync` / `prp`).
///
/// # Panics
/// Panics on a value that is not a valid code.
pub fn scheme_short(code: f64) -> &'static str {
    match code as i64 {
        0 => "async",
        1 => "sync",
        2 => "prp",
        _ => panic!("invalid scheme code {code}"),
    }
}

/// §5 decision surface: score the three schemes at one
/// (error rate, λ) grid point, with and without a deadline. Fully
/// analytic (the seed is unused). Metrics: `scheme_no_deadline`,
/// `scheme_deadline` (as [`scheme_code`]s), and the per-scheme overhead
/// rates `rate_async` / `rate_sync` / `rate_prp` without a deadline.
#[derive(Clone, Debug)]
pub struct TradeoffCell {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// Error rate per unit time across the whole process set.
    pub error_rate: f64,
    /// State-recording time t_r.
    pub t_r: f64,
    /// Mean interval between synchronization requests.
    pub sync_period: f64,
    /// The deadline for the constrained recommendation.
    pub deadline: f64,
}

impl Workload for TradeoffCell {
    fn label(&self) -> String {
        format!("tradeoff/eps{}", self.error_rate)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};error_rate={};t_r={};sync_period={};deadline={}",
            canon_async_params(&self.params),
            canon_f64(self.error_rate),
            canon_f64(self.t_r),
            canon_f64(self.sync_period),
            canon_f64(self.deadline)
        ))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        let inputs = TradeoffInputs {
            params: self.params.clone(),
            error_rate: self.error_rate,
            t_r: self.t_r,
            sync_period: self.sync_period,
            deadline: None,
        };
        let no_dl = recommend(&inputs);
        let with_dl = recommend(&TradeoffInputs {
            deadline: Some(self.deadline),
            ..inputs
        });
        vec![
            Metric::exact("scheme_no_deadline", scheme_code(no_dl.scheme)),
            Metric::exact("scheme_deadline", scheme_code(with_dl.scheme)),
            Metric::exact("rate_async", no_dl.overhead_rates[0]),
            Metric::exact("rate_sync", no_dl.overhead_rates[1]),
            Metric::exact("rate_prp", no_dl.overhead_rates[2]),
        ]
    }
}

/// Extension X4: the optimal synchronization period Δ* at one error
/// rate — golden-section optimum, √-law anchor, the overhead rate at
/// Δ*/2 and 2Δ* (curvature check), and a discrete-event validation of
/// the waiting-loss rate at the optimum. Metrics: `delta_star`,
/// `sqrt_law`, `rate_at_optimum`, `rate_at_half`, `rate_at_double`,
/// `mean_loss`, `mean_span`, `sim_loss_rate_at_optimum`.
#[derive(Clone, Debug)]
pub struct OptimalPeriodCell {
    /// Per-process checkpoint rates μᵢ.
    pub mu: Vec<f64>,
    /// System error rate ε.
    pub error_rate: f64,
    /// Upper bound of the golden-section search.
    pub search_upper: f64,
    /// Horizon of the validating synchronized timeline.
    pub sim_horizon: f64,
}

impl Workload for OptimalPeriodCell {
    fn label(&self) -> String {
        format!("optimal-period/eps{}", self.error_rate)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "mu=[{}];error_rate={};search_upper={};sim_horizon={}",
            canon_f64s(&self.mu),
            canon_f64(self.error_rate),
            canon_f64(self.search_upper),
            canon_f64(self.sim_horizon)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let opt = optimal_period(&self.mu, self.error_rate, self.search_upper);
        let anchor = sqrt_law_period(&self.mu, self.error_rate);
        let half = overhead_rate(&self.mu, self.error_rate, opt.delta * 0.5);
        let double = overhead_rate(&self.mu, self.error_rate, opt.delta * 2.0);
        let params =
            AsyncParams::new(self.mu.clone(), vec![1.0; self.mu.len()]).expect("valid rates");
        let sim = run_sync_timeline(
            &params,
            SyncStrategy::ElapsedSinceLine(opt.delta),
            self.sim_horizon,
            seed,
        );
        vec![
            Metric::exact("delta_star", opt.delta),
            Metric::exact("sqrt_law", anchor),
            Metric::exact("rate_at_optimum", opt.rate),
            Metric::exact("rate_at_half", half),
            Metric::exact("rate_at_double", double),
            Metric::exact("mean_loss", opt.mean_loss),
            Metric::exact("mean_span", opt.mean_span),
            Metric::exact("sim_loss_rate_at_optimum", sim.loss_rate),
        ]
    }
}

/// Large-n lumpability through the matrix-free solver: the full
/// 2ⁿ+1-state chain, solved through the R1–R4 bit-mask operator
/// (forced — no CSR is ever built), pinned against the n+2-state
/// lumped chain of Figure 3, which the homogeneous rates make an exact
/// reference. λ = 1/(n−1) holds ρ = 1 as n grows, keeping E\[X\] in a
/// numerically comfortable range. `fig2_markov` sweeps it at the
/// materialisable n = 8 and 12, `fig3_markov` at n = 14…20
/// (lumpability at scale).
///
/// Metrics: `n_states`, `EX_matfree`, `EX_lumped`, and the pass/fail
/// check `matfree-vs-lumped` at 1e-6 relative.
#[derive(Clone, Debug)]
pub struct MatrixFreeLumpability {
    /// Process count (the chain has 2ⁿ+1 states).
    pub n: usize,
}

impl Workload for MatrixFreeLumpability {
    fn label(&self) -> String {
        format!("matfree-vs-lumped/n{}", self.n)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!("n={}", self.n))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        let lambda = 1.0 / (self.n as f64 - 1.0);
        let params = AsyncParams::symmetric(self.n, 1.0, lambda);
        let ex = params.mean_interval();
        let lumped = mean_interval_symmetric(self.n, 1.0, lambda);
        let rel_err = (ex - lumped).abs() / lumped;
        vec![
            Metric::exact("n_states", ((1u64 << self.n) + 1) as f64),
            Metric::exact("EX_matfree", ex),
            Metric::exact("EX_lumped", lumped),
            Metric::check(
                "matfree-vs-lumped",
                ex - lumped,
                1e-6 * lumped,
                rel_err <= 1e-6,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_loss_closed_form_agrees_with_quadrature_and_sim() {
        let w = SyncLoss {
            mu: vec![1.0, 1.0, 1.0],
            rounds: 20_000,
        };
        let metrics = w.run(7);
        let get = |n: &str| metrics.iter().find(|m| m.name() == n).unwrap();
        let cf = get("ECL_closed_form").value();
        assert!((cf - 2.5).abs() < 1e-12, "3·H₃ − 3 = 2.5");
        assert!((cf - get("ECL_quadrature").value()).abs() < 1e-5);
        let ecl = get("ECL");
        assert!((ecl.value() - cf).abs() < 6.0 * ecl.std_err() + 0.02);
    }

    #[test]
    fn tradeoff_cell_reproduces_paper_regions() {
        let rare = TradeoffCell {
            params: AsyncParams::symmetric(3, 1.0, 0.5),
            error_rate: 1e-5,
            t_r: 0.01,
            sync_period: 2.0,
            deadline: 2.0,
        };
        let m = rare.run(0);
        let code = m.iter().find(|x| x.name() == "scheme_no_deadline").unwrap();
        assert_eq!(scheme_short(code.value()), "async");

        let hot = TradeoffCell {
            params: AsyncParams::symmetric(3, 1.0, 4.0),
            error_rate: 1e-1,
            ..rare
        };
        let m = hot.run(0);
        let code = m.iter().find(|x| x.name() == "scheme_no_deadline").unwrap();
        assert_ne!(scheme_short(code.value()), "async");
    }

    #[test]
    fn optimal_period_cell_is_a_minimum_and_validates_in_sim() {
        let w = OptimalPeriodCell {
            mu: vec![1.0; 3],
            error_rate: 0.01,
            search_upper: 10_000.0,
            sim_horizon: 50_000.0,
        };
        let metrics = w.run(3);
        let get = |n: &str| metrics.iter().find(|m| m.name() == n).unwrap().value();
        assert!(get("rate_at_half") >= get("rate_at_optimum"));
        assert!(get("rate_at_double") >= get("rate_at_optimum"));
        let waiting = get("mean_loss") / (3.0 * (get("delta_star") + get("mean_span")));
        let sim = get("sim_loss_rate_at_optimum");
        assert!(
            (sim - waiting).abs() < 0.15 * waiting + 1e-4,
            "sim {sim} vs model {waiting}"
        );
    }

    #[test]
    fn cache_params_cover_every_config_field() {
        let sync = SyncLoss {
            mu: vec![1.0, 2.0],
            rounds: 10,
        };
        assert_distinct(&flips(&sync, &[|w| w.mu[1] = 2.5, |w| w.rounds = 11]));
        let trade = TradeoffCell {
            params: AsyncParams::symmetric(3, 1.0, 0.5),
            error_rate: 1e-3,
            t_r: 0.01,
            sync_period: 2.0,
            deadline: 2.0,
        };
        assert_distinct(&flips(
            &trade,
            &[
                |w| w.params = AsyncParams::symmetric(3, 1.0, 0.75),
                |w| w.error_rate = 2e-3,
                |w| w.t_r = 0.02,
                |w| w.sync_period = 3.0,
                |w| w.deadline = 3.0,
            ],
        ));
        let opt = OptimalPeriodCell {
            mu: vec![1.0; 3],
            error_rate: 0.01,
            search_upper: 100.0,
            sim_horizon: 50.0,
        };
        assert_distinct(&flips(
            &opt,
            &[
                |w| w.mu[2] = 2.0,
                |w| w.error_rate = 0.02,
                |w| w.search_upper = 200.0,
                |w| w.sim_horizon = 60.0,
            ],
        ));
        assert_distinct(&flips(&MatrixFreeLumpability { n: 8 }, &[|w| w.n = 9]));
    }

    /// `base`'s cache params followed by those of one copy per edit.
    fn flips<W: Workload + Clone>(base: &W, edits: &[fn(&mut W)]) -> Vec<Option<String>> {
        let edited = edits.iter().map(|edit| {
            let mut w = base.clone();
            edit(&mut w);
            w.cache_params()
        });
        std::iter::once(base.cache_params()).chain(edited).collect()
    }

    /// Every key is present and no two are equal.
    fn assert_distinct(keys: &[Option<String>]) {
        for (i, a) in keys.iter().enumerate() {
            assert!(a.is_some(), "variant {i} is not cacheable");
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share cache params");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid scheme code")]
    fn scheme_short_rejects_garbage() {
        let _ = scheme_short(7.0);
    }
}
