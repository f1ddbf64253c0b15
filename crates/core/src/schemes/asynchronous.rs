//! The asynchronous recovery-block scheme (paper §2).
//!
//! Processes establish recovery points independently (Poisson μᵢ) and
//! interact in pairs (Poisson λᵢⱼ). The driver replays the paper's flag
//! model over a superposed Poisson event stream, measuring:
//!
//! * `X` — the interval between successive recovery lines (Table 1,
//!   Figures 5/6),
//! * `Lᵢ` — states saved by each process during an interval (Table 1),
//! * rollback episodes under fault injection — rollback distance,
//!   affected-set size, domino rate.

use rbmarkov::paper::AsyncParams;
use rbsim::stats::Welford;

use crate::fault::FaultConfig;
use crate::history::History;
use crate::metrics::SchemeMetrics;
use crate::rollback::RollbackRule;
use crate::schemes::events::{EventKind, EventStream};

/// Configuration of an asynchronous-scheme run.
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// Fault injection (None ⇒ fault-free interval measurement).
    pub fault: Option<FaultConfig>,
}

impl AsyncConfig {
    /// A fault-free configuration.
    pub fn new(params: AsyncParams) -> Self {
        AsyncConfig {
            params,
            fault: None,
        }
    }

    /// Adds a fault model.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        assert_eq!(fault.error_rates.len(), self.params.n());
        self.fault = Some(fault);
        self
    }
}

/// Interval statistics from a fault-free run.
#[derive(Clone, Debug)]
pub struct IntervalStats {
    /// The recovery-line interval X.
    pub interval: Welford,
    /// Lᵢ: states saved per process per interval.
    pub rp_counts: Vec<Welford>,
    /// Optional raw interval samples, in measurement order — the input
    /// the distribution-level conformance gates (KS vs the analytic
    /// CDF) need. Collection never touches the RNG, so runs with and
    /// without it are event-for-event identical.
    pub samples: Option<Vec<f64>>,
    /// Events consumed.
    pub events: u64,
}

impl IntervalStats {
    /// ΣᵢE\[Lᵢ\] — the Table 1 bottom row.
    pub fn total_rp_count_mean(&self) -> f64 {
        self.rp_counts.iter().map(|w| w.mean()).sum()
    }
}

/// The asynchronous-scheme simulation driver.
pub struct AsyncScheme {
    cfg: AsyncConfig,
    events: EventStream,
}

impl AsyncScheme {
    /// Creates a driver with the given master seed.
    pub fn new(cfg: AsyncConfig, seed: u64) -> Self {
        AsyncScheme {
            events: EventStream::new(&cfg.params, cfg.fault.as_ref(), seed),
            cfg,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AsyncParams {
        &self.cfg.params
    }

    /// Measures `n_lines` recovery-line intervals (fault-free), with no
    /// raw samples.
    ///
    /// ```
    /// use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
    /// use rbmarkov::paper::AsyncParams;
    ///
    /// // Table 1 case 1 (all rates 1): analytic E[X] ≈ 2.598.
    /// let params = AsyncParams::symmetric(3, 1.0, 1.0);
    /// let analytic = params.mean_interval();
    /// let stats = AsyncScheme::new(AsyncConfig::new(params), 42).run_intervals(5_000);
    /// assert!((stats.interval.mean() - analytic).abs() < 0.1);
    /// ```
    pub fn run_intervals(&mut self, n_lines: usize) -> IntervalStats {
        self.measure_intervals(n_lines, false)
    }

    /// Measures `n_lines` intervals, additionally collecting the raw
    /// interval samples ([`IntervalStats::samples`]) for
    /// distribution-level conformance checks and histograms.
    pub fn run_intervals_samples(&mut self, n_lines: usize) -> IntervalStats {
        self.measure_intervals(n_lines, true)
    }

    /// The interval-measurement loop behind [`Self::run_intervals`] and
    /// [`Self::run_intervals_samples`].
    fn measure_intervals(&mut self, n_lines: usize, collect_samples: bool) -> IntervalStats {
        let n = self.cfg.params.n();
        let mut interval = Welford::new();
        let mut rp_counts = vec![Welford::new(); n];
        let mut samples = collect_samples.then(|| Vec::with_capacity(n_lines));
        // Per-category actions, so an event is one table lookup and no
        // branch on its kind: an RP `(i, i, true)` puts Pᵢ on the line,
        // an interaction `(i, j, false)` takes both endpoints off it.
        let actions: Vec<(usize, usize, bool)> = self
            .events
            .kinds()
            .iter()
            .map(|&kind| match kind {
                EventKind::Rp(i) => (i, i, true),
                EventKind::Interaction(i, j) => (i, j, false),
                // A fault model's errors map out of range: drawing one
                // fails the assert below.
                EventKind::Error(_) => (n, n, false),
            })
            .collect();
        // Which processes sit at a recovery line, and how many do not: a
        // new line forms when an RP brings that count back to zero (an
        // interaction always leaves it positive).
        let mut on_line = vec![true; n];
        let mut off_line = 0usize;
        let mut counts = vec![0u64; n];
        let mut t = 0.0_f64;
        let mut last_line = 0.0_f64;
        let mut lines = 0usize;
        let mut events = 0u64;

        while lines < n_lines {
            let (i, j, rp) = actions[self.events.next_category(&mut t)];
            assert!(i < n, "error event in a fault-free run");
            events += 1;
            counts[i] += u64::from(rp);
            off_line = off_line + usize::from(on_line[i]) - usize::from(rp);
            on_line[i] = rp;
            off_line = off_line + usize::from(on_line[j]) - usize::from(rp);
            on_line[j] = rp;
            if off_line == 0 {
                let x = t - last_line;
                interval.push(x);
                if let Some(s) = &mut samples {
                    s.push(x);
                }
                for (w, c) in rp_counts.iter_mut().zip(&mut counts) {
                    w.push(*c as f64);
                    *c = 0;
                }
                last_line = t;
                lines += 1;
            }
        }
        IntervalStats {
            interval,
            rp_counts,
            samples,
            events,
        }
    }

    /// Generates an event history up to `horizon` (no fault injection;
    /// RPs and interactions only).
    pub fn generate_history(&mut self, horizon: f64) -> History {
        self.events.history(horizon, None)
    }

    /// Runs `episodes` independent fault-injection episodes: each
    /// replays a fresh history until the first error is *detected* at
    /// an acceptance test, then propagates the rollback over real RPs
    /// under `rule` — [`RollbackRule::Symmetric`] for the paper's
    /// interaction model, [`RollbackRule::Directed`] for Russell's — and
    /// records the outcome. Requires a fault model.
    pub fn run_failure_episodes(&mut self, episodes: usize, rule: RollbackRule) -> SchemeMetrics {
        let fault = self
            .cfg
            .fault
            .as_ref()
            .expect("episodes need a fault model");
        self.events
            .failure_episodes(fault, episodes, None, |_| rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsim::stats::Histogram;
    use RollbackRule::{Directed, Symmetric};

    #[test]
    fn simulated_mean_interval_matches_markov_case1() {
        // Table 1 case 1: analytic E[X] = 2.5 exactly.
        let cfg = AsyncConfig::new(AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)));
        let stats = AsyncScheme::new(cfg, 7).run_intervals(60_000);
        let ci = stats.interval.ci_half_width(3.0);
        assert!(
            (stats.interval.mean() - 2.5).abs() < ci.max(0.03),
            "sim {} ± {} vs analytic 2.5",
            stats.interval.mean(),
            ci
        );
    }

    #[test]
    fn simulated_rp_counts_match_poisson_thinning() {
        // E[Lᵢ] = μᵢ·E[X] for case 2: (4.847, 3.231, 1.616).
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 1.0, 1.0));
        let ex = p.mean_interval();
        let cfg = AsyncConfig::new(p.clone());
        let stats = AsyncScheme::new(cfg, 11).run_intervals(60_000);
        for i in 0..3 {
            let want = p.mu()[i] * ex;
            let got = stats.rp_counts[i].mean();
            assert!(
                (got - want).abs() < 0.1,
                "L{i}: sim {got} vs μᵢ·E[X] = {want}"
            );
        }
    }

    #[test]
    fn interval_mean_matches_markov_for_asymmetric_case() {
        let p = AsyncParams::three((1.5, 1.0, 0.5), (1.5, 0.5, 1.0));
        let analytic = p.mean_interval();
        let stats = AsyncScheme::new(AsyncConfig::new(p), 13).run_intervals(40_000);
        assert!(
            (stats.interval.mean() - analytic).abs() < 0.05,
            "sim {} vs analytic {analytic}",
            stats.interval.mean()
        );
    }

    #[test]
    fn histogram_tracks_density_shape() {
        let p = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
        let mut h = Histogram::new(0.0, 8.0, 40);
        let stats = AsyncScheme::new(AsyncConfig::new(p.clone()), 17).run_intervals_samples(50_000);
        stats.samples.unwrap().iter().for_each(|&x| h.push(x));
        let density = h.density();
        let centers: Vec<f64> = (0..40).map(|k| h.bin_center(k)).collect();
        let analytic = p.interval_density(&centers);
        // Compare at a few interior points; the near-zero spike makes
        // the first bin a poor comparison point for a histogram.
        for k in [2usize, 5, 10, 20] {
            let (d, a) = (density[k], analytic[k]);
            assert!(
                (d - a).abs() < 0.03 + 0.12 * a,
                "bin {k}: sim {d} vs analytic {a}"
            );
        }
    }

    #[test]
    fn sample_collection_is_event_identical_and_complete() {
        let p = AsyncParams::symmetric(3, 1.0, 1.0);
        let plain = AsyncScheme::new(AsyncConfig::new(p.clone()), 77).run_intervals(800);
        let with = AsyncScheme::new(AsyncConfig::new(p), 77).run_intervals_samples(800);
        // Collection must not perturb the event stream.
        assert_eq!(plain.events, with.events);
        assert_eq!(plain.interval.mean(), with.interval.mean());
        let s = with.samples.expect("samples were requested");
        assert_eq!(s.len(), 800);
        let mean = s.iter().sum::<f64>() / 800.0;
        assert!((mean - with.interval.mean()).abs() < 1e-9);
        assert!(plain.samples.is_none());
    }

    #[test]
    fn deterministic_across_same_seed() {
        let p = AsyncParams::symmetric(3, 1.0, 1.0);
        let a = AsyncScheme::new(AsyncConfig::new(p.clone()), 99).run_intervals(500);
        let b = AsyncScheme::new(AsyncConfig::new(p), 99).run_intervals(500);
        assert_eq!(a.interval.mean(), b.interval.mean());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn history_generation_respects_horizon() {
        let p = AsyncParams::symmetric(3, 1.0, 1.0);
        let h = AsyncScheme::new(AsyncConfig::new(p), 5).generate_history(50.0);
        assert!(h.horizon() <= 50.0);
        assert!(h.interactions().len() > 50, "expect busy history");
    }

    #[test]
    fn failure_episodes_produce_bounded_sane_metrics() {
        let p = AsyncParams::symmetric(3, 1.0, 1.0);
        let fault = FaultConfig::uniform(3, 0.05, 0.5, 0.25);
        let cfg = AsyncConfig::new(p).with_fault(fault);
        let m = AsyncScheme::new(cfg, 23).run_failure_episodes(300, Symmetric);
        assert_eq!(m.episodes, 300);
        assert!(m.sup_distance.mean() > 0.0);
        assert!(m.n_affected.mean() >= 1.0);
        assert!(m.n_affected.mean() <= 3.0);
    }

    #[test]
    fn directed_episodes_never_exceed_symmetric_distance() {
        let p = AsyncParams::symmetric(3, 0.5, 1.5);
        let fault = FaultConfig::uniform(3, 0.05, 0.5, 0.5);
        let sym = AsyncScheme::new(AsyncConfig::new(p.clone()).with_fault(fault.clone()), 61)
            .run_failure_episodes(300, Symmetric);
        let dir = AsyncScheme::new(AsyncConfig::new(p).with_fault(fault), 61)
            .run_failure_episodes(300, Directed);
        // Same seed ⇒ identical histories; the directed refinement can
        // only shrink distances and the affected set.
        assert!(dir.sup_distance.mean() <= sym.sup_distance.mean() + 1e-12);
        assert!(dir.n_affected.mean() <= sym.n_affected.mean() + 1e-12);
        assert!(dir.dominoes <= sym.dominoes);
    }

    #[test]
    fn lower_error_rate_means_longer_runs_to_failure() {
        let p = AsyncParams::symmetric(2, 1.0, 1.0);
        let hot = AsyncScheme::new(
            AsyncConfig::new(p.clone()).with_fault(FaultConfig::uniform(2, 1.0, 1.0, 1.0)),
            31,
        )
        .run_failure_episodes(200, Symmetric);
        let cold = AsyncScheme::new(
            AsyncConfig::new(p).with_fault(FaultConfig::uniform(2, 0.01, 1.0, 1.0)),
            31,
        )
        .run_failure_episodes(200, Symmetric);
        // With frequent errors, detection happens soon after a line →
        // short rollbacks; with rare errors the distance is bounded by
        // the line interval anyway. Both must at least be positive and
        // finite; and affected counts sane.
        assert!(hot.sup_distance.mean() > 0.0);
        assert!(cold.sup_distance.mean() > 0.0);
        assert_eq!(hot.episodes, 200);
        assert_eq!(cold.episodes, 200);
    }
}
