//! The open workload seam: one trait every sweepable experiment
//! implements.
//!
//! Early versions of the bench harness hard-coded each computation path
//! of the paper in a closed `CellTask` enum — adding a scenario meant
//! editing the enum, its `run` match, and a one-off binary. This module
//! inverts that seam: a [`Workload`] is *anything* that maps a seed to a
//! vector of [`Metric`]s, and the sweep engine (`rbbench::sweep`)
//! dispatches boxed trait objects without knowing what they compute.
//! New scenarios are new structs — in this crate, in `rbtestutil` (the
//! conformance matrix), or locally inside a figure binary.
//!
//! The contract that keeps parallel sweeps byte-identical to serial
//! ones lives here too: [`Workload::run`] must be a **pure function of
//! `(self, seed)`** — no global state, no thread identity, no wall
//! clock. Every adapter in this module draws its randomness exclusively
//! from `SimRng` streams derived from the given seed.
//!
//! ```
//! use rbcore::metrics::Metric;
//! use rbcore::workload::Workload;
//!
//! /// A custom workload: no engine changes needed to define one.
//! struct CoinBias { flips: u64 }
//!
//! impl Workload for CoinBias {
//!     fn label(&self) -> String {
//!         format!("coin/{}", self.flips)
//!     }
//!     fn run(&self, seed: u64) -> Vec<Metric> {
//!         let mut rng = rbsim::SimRng::from_seed_only(seed);
//!         let heads = (0..self.flips).filter(|_| rng.bernoulli(0.5)).count();
//!         vec![Metric::exact("heads", heads as f64)]
//!     }
//!     fn cache_params(&self) -> Option<String> {
//!         Some(format!("flips={}", self.flips))
//!     }
//! }
//!
//! let w = CoinBias { flips: 100 };
//! assert_eq!(w.run(7)[0].value(), w.run(7)[0].value()); // pure in (self, seed)
//! ```

use rbmarkov::paper::{AsyncParams, SplitChain};
use rbsim::gof;
use rbsim::stats::Histogram;

use crate::fault::FaultConfig;
use crate::history::ProcessId;
use crate::metrics::{DistSummary, Metric};
use crate::rollback::{propagate_rollback, RollbackRule};
use crate::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use crate::schemes::conversation::{
    conversation_round_loss, run_conversations, ConversationConfig,
};
use crate::schemes::prp::{PrpConfig, PrpScheme};
use crate::schemes::synchronized::{run_sync_timeline, SyncStrategy};
use crate::SchemeMetrics;

/// One sweepable experiment: a labelled, seed-driven computation
/// producing named metrics.
///
/// Object-safe by design — the sweep engine stores
/// `Box<dyn Workload + Send + Sync>` and never matches on concrete
/// types, so the set of workloads is open.
pub trait Workload {
    /// A stable human-readable label (used as the default cell id).
    fn label(&self) -> String;

    /// Runs the workload under `seed`, returning its metrics in a fixed
    /// order.
    ///
    /// Must be a pure function of `(self, seed)`: the sweep engine
    /// derives `seed` from `(master_seed, cell index)` and relies on
    /// this purity for its byte-identical serial ≡ parallel guarantee.
    fn run(&self, seed: u64) -> Vec<Metric>;

    /// A canonical, injective rendering of **every** configuration
    /// field that [`Workload::run`] reads — the workload's half of a
    /// content-addressed cache key (`rbbench::cache`), alongside
    /// [`Workload::label`] and the derived seed.
    ///
    /// Required, so every workload decides: `Some` is a promise that
    /// two instances returning the same `(label, cache_params)` string
    /// pair produce bit-identical metrics under the same seed — so the
    /// string must cover *all* of `self`, with floats rendered via
    /// [`canon_f64`] (raw IEEE-754 bits; `1.0` vs `1.0 + 1e-16` must
    /// not collide, and NaN payloads must round-trip). Every
    /// production workload returns `Some`, which is what lets a killed
    /// sweep resume through the cache. `None` means "not cacheable":
    /// the cache layer always re-runs such workloads (test probes that
    /// hold shared counters, say).
    fn cache_params(&self) -> Option<String>;
}

/// Canonical, injective rendering of an `f64` for cache-key material:
/// the raw IEEE-754 bits in fixed-width hex. Unlike `Display`, this
/// distinguishes `0.0` from `-0.0` and preserves NaN payloads, so two
/// configurations collide only if they are bit-identical.
pub fn canon_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// [`canon_f64`] over a slice, comma-joined (length is implicit in the
/// rendering: fixed-width elements plus separators cannot be confused
/// across different lengths).
pub fn canon_f64s(xs: &[f64]) -> String {
    xs.iter()
        .map(|&x| canon_f64(x))
        .collect::<Vec<_>>()
        .join(",")
}

/// Canonical rendering of [`AsyncParams`] for cache-key material: the
/// per-process μ vector and the upper-triangular λ pairs in canonical
/// `(i, j), i < j` order, all via [`canon_f64`].
pub fn canon_async_params(p: &AsyncParams) -> String {
    let n = p.n();
    let lam: Vec<f64> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .map(|(i, j)| p.lambda(i, j))
        .collect();
    format!("mu=[{}];lam=[{}]", canon_f64s(p.mu()), canon_f64s(&lam))
}

/// Canonical rendering of an optional [`DistSpec`] for cache-key
/// material.
fn canon_dist(dist: &Option<DistSpec>) -> String {
    match dist {
        None => "none".into(),
        Some(d) => format!("{},{},{}", canon_f64(d.lo), canon_f64(d.hi), d.bins),
    }
}

/// Significance level of the goodness-of-fit gates workloads embed:
/// with ~10² distribution checks per CI run, a correct implementation
/// trips one with probability ≈ 1e-4 per full run.
pub const GOF_ALPHA: f64 = 1e-6;

/// The support of a distribution-valued metric: the fixed-bin histogram
/// a workload summarizes its samples into. Part of the workload's
/// identity (the sweep contract requires runs to be pure in
/// `(self, seed)`), so it is explicit configuration, never derived from
/// the data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistSpec {
    /// Lower support bound.
    pub lo: f64,
    /// Upper support bound.
    pub hi: f64,
    /// Number of equal-width bins.
    pub bins: usize,
}

impl DistSpec {
    /// A support over `[lo, hi)` with `bins` bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> DistSpec {
        DistSpec { lo, hi, bins }
    }

    /// Builds the summary of `samples` over this support; `mean` is the
    /// full-sample mean (not the binned one).
    pub fn summarize(&self, samples: &[f64], mean: f64) -> DistSummary {
        let mut h = Histogram::new(self.lo, self.hi, self.bins);
        for &x in samples {
            h.push(x);
        }
        DistSummary::from_histogram(&h, mean, &DistSummary::DEFAULT_LEVELS)
    }
}

/// §2 asynchronous scheme: measure `lines` recovery-line intervals
/// (Table 1, Figures 5/6). Metrics: `EX`, `EL{i}`, `events`, plus —
/// when a [`DistSpec`] is configured — a first-class `X_dist`
/// distribution metric (histogram + quantiles) of the interval.
#[derive(Clone, Debug)]
pub struct AsyncIntervals {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// Recovery-line intervals to measure.
    pub lines: usize,
    /// Optional histogram support for the `X_dist` metric.
    pub dist: Option<DistSpec>,
}

impl AsyncIntervals {
    /// A workload without a distribution metric (scalar moments only).
    pub fn new(params: AsyncParams, lines: usize) -> AsyncIntervals {
        AsyncIntervals {
            params,
            lines,
            dist: None,
        }
    }

    /// Adds the `X_dist` distribution metric over the given support.
    pub fn with_distribution(mut self, dist: DistSpec) -> AsyncIntervals {
        self.dist = Some(dist);
        self
    }
}

impl Workload for AsyncIntervals {
    fn label(&self) -> String {
        format!("async-intervals/n{}", self.params.n())
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};lines={};dist={}",
            canon_async_params(&self.params),
            self.lines,
            canon_dist(&self.dist)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let mut scheme = AsyncScheme::new(AsyncConfig::new(self.params.clone()), seed);
        let stats = match self.dist {
            Some(_) => scheme.run_intervals_samples(self.lines),
            None => scheme.run_intervals(self.lines),
        };
        let mut metrics = Vec::with_capacity(self.params.n() + 3);
        metrics.push(Metric::sampled("EX", &stats.interval));
        for (i, w) in stats.rp_counts.iter().enumerate() {
            metrics.push(Metric::sampled(format!("EL{i}"), w));
        }
        metrics.push(Metric::exact("events", stats.events as f64));
        if let Some(spec) = self.dist {
            let samples = stats.samples.as_ref().expect("samples were requested");
            metrics.push(Metric::distribution(
                "X_dist",
                spec.summarize(samples, stats.interval.mean()),
            ));
        }
        metrics
    }
}

/// Figure 6: estimate the recovery-line interval density f_X(t) from a
/// simulation histogram and gate it against the uniformization solve.
///
/// The histogram is a first-class `X_hist` [`Metric::Distribution`]
/// (bin counts + quantiles) rather than one metric per bin, and the
/// sim-vs-analytic comparison is a pair of goodness-of-fit checks:
/// `ks_sim_vs_analytic` (empirical CDF of the raw samples vs the
/// batched analytic CDF) and `chi2_sim_vs_analytic` (binned counts —
/// out-of-range cells included — vs expected masses), both at
/// [`GOF_ALPHA`]. Scalar metrics: `EX`, `f0` (analytic f(0) = Σμ),
/// `total_mu`, `max_abs_gap_interior` (density gap away from the t = 0
/// spike, bins ≥ 3).
#[derive(Clone, Debug)]
pub struct AsyncDensity {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// Recovery-line intervals to measure.
    pub lines: usize,
    /// Histogram support `[0, t_max)`.
    pub t_max: f64,
    /// Number of histogram bins.
    pub bins: usize,
}

impl Workload for AsyncDensity {
    fn label(&self) -> String {
        format!("async-density/n{}", self.params.n())
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};lines={};t_max={};bins={}",
            canon_async_params(&self.params),
            self.lines,
            canon_f64(self.t_max),
            self.bins
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let stats = AsyncScheme::new(AsyncConfig::new(self.params.clone()), seed)
            .run_intervals_samples(self.lines);
        let samples = stats.samples.as_ref().expect("samples were requested");
        let mut hist = Histogram::new(0.0, self.t_max, self.bins);
        for &x in samples {
            hist.push(x);
        }

        // KS over the raw samples and χ² over the binned counts, both
        // against the analytic CDF (one batched uniformization pass
        // per statistic).
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let pts = gof::ks_eval_points(&sorted);
        let f_pts = self.params.interval_cdf_batch(&pts);
        let d = gof::ks_statistic_at(&sorted, &f_pts);
        let d_crit = gof::ks_critical(sorted.len() as u64, GOF_ALPHA);
        let f_edges = self.params.interval_cdf_batch(&hist.bin_edges());
        let chi = gof::chi_square_hist_test(&hist, &f_edges, GOF_ALPHA, 5.0);

        let density = hist.density();
        let centers: Vec<f64> = (0..self.bins).map(|k| hist.bin_center(k)).collect();
        let reference = self.params.interval_density(&centers);
        let max_gap = density
            .iter()
            .zip(&reference)
            .skip(3)
            .map(|(d, a)| (d - a).abs())
            .fold(0.0_f64, f64::max);

        vec![
            Metric::sampled("EX", &stats.interval),
            Metric::exact("f0", self.params.interval_density(&[0.0])[0]),
            Metric::exact("total_mu", self.params.total_mu()),
            Metric::distribution(
                "X_hist",
                DistSummary::from_histogram(
                    &hist,
                    stats.interval.mean(),
                    &DistSummary::DEFAULT_LEVELS,
                ),
            ),
            Metric::check("ks_sim_vs_analytic", d, d_crit, d <= d_crit),
            Metric::check(
                "chi2_sim_vs_analytic",
                chi.statistic,
                chi.critical,
                chi.pass,
            ),
            Metric::exact("max_abs_gap_interior", max_gap),
        ]
    }
}

/// §3 synchronized scheme driven by a request strategy over a long
/// timeline (Figure 7). Metrics: `lines`, `loss_rate`, `loss_per_line`,
/// `line_interval`, `states_saved`, `requests_coalesced`, plus — when a
/// [`DistSpec`] is configured — a first-class `CL_dist` distribution
/// metric of the per-line loss.
#[derive(Clone, Debug)]
pub struct SyncTimeline {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// When the coordinator requests synchronizations.
    pub strategy: SyncStrategy,
    /// Simulated horizon.
    pub horizon: f64,
    /// Optional histogram support for the `CL_dist` metric.
    pub dist: Option<DistSpec>,
}

impl Workload for SyncTimeline {
    fn label(&self) -> String {
        format!("sync-timeline/{:?}", self.strategy)
    }

    fn cache_params(&self) -> Option<String> {
        let strategy = match self.strategy {
            SyncStrategy::ConstantInterval(d) => format!("const:{}", canon_f64(d)),
            SyncStrategy::ElapsedSinceLine(d) => format!("elapsed:{}", canon_f64(d)),
            SyncStrategy::StatesSaved(k) => format!("states:{k}"),
        };
        Some(format!(
            "{};strategy={strategy};horizon={};dist={}",
            canon_async_params(&self.params),
            canon_f64(self.horizon),
            canon_dist(&self.dist)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let s = run_sync_timeline(&self.params, self.strategy, self.horizon, seed);
        let mut metrics = vec![
            Metric::exact("lines", s.lines as f64),
            Metric::exact("loss_rate", s.loss_rate),
            Metric::sampled("loss_per_line", &s.loss_per_line),
            Metric::sampled("line_interval", &s.line_interval),
            Metric::exact("states_saved", s.states_saved as f64),
            Metric::exact("requests_coalesced", s.requests_coalesced as f64),
        ];
        if let Some(spec) = self.dist {
            metrics.push(Metric::distribution(
                "CL_dist",
                spec.summarize(&s.loss_samples, s.loss_per_line.mean()),
            ));
        }
        metrics
    }
}

/// Figure 4: build the split chain `Y_d` and extract its exact
/// statistics. Metrics: `G`, `n_states`, `E_steps`, `EX`,
/// `EL_with_terminal`, `EL_paper_statistic`, `EX_ctmc`,
/// `identity_mu_EX`.
#[derive(Clone, Debug)]
pub struct SplitChainStats {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// The tagged process whose states are split.
    pub tagged: usize,
}

impl Workload for SplitChainStats {
    fn label(&self) -> String {
        format!("split-chain/P{}", self.tagged + 1)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};tagged={}",
            canon_async_params(&self.params),
            self.tagged
        ))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        let sc = SplitChain::build(&self.params, self.tagged);
        let steps = sc.expected_steps();
        let ex_ctmc = self.params.mean_interval();
        vec![
            Metric::exact("G", sc.g),
            Metric::exact("n_states", sc.labels.len() as f64),
            Metric::exact("E_steps", steps),
            Metric::exact("EX", steps / sc.g),
            Metric::exact("EL_with_terminal", sc.expected_rp_count(true)),
            Metric::exact("EL_paper_statistic", sc.expected_rp_count(false)),
            Metric::exact("EX_ctmc", ex_ctmc),
            Metric::exact("identity_mu_EX", self.params.mu()[self.tagged] * ex_ctmc),
        ]
    }
}

/// §4 PRP scheme: run the storage timeline. Metrics: `rps_total`,
/// `prps_total`, `peak_live_max`, `mean_live_states`,
/// `prp_time_overhead`.
#[derive(Clone, Debug)]
pub struct PrpStorage {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// Simulated horizon.
    pub horizon: f64,
    /// State-recording time t_r.
    pub t_r: f64,
}

impl Workload for PrpStorage {
    fn label(&self) -> String {
        format!("prp-storage/n{}", self.params.n())
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};horizon={};t_r={}",
            canon_async_params(&self.params),
            canon_f64(self.horizon),
            canon_f64(self.t_r)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let mut scheme =
            PrpScheme::new(PrpConfig::new(self.params.clone()).with_t_r(self.t_r), seed);
        let stats = scheme.storage_timeline(self.horizon);
        vec![
            Metric::exact("rps_total", stats.rps.iter().sum::<u64>() as f64),
            Metric::exact("prps_total", stats.prps.iter().sum::<u64>() as f64),
            Metric::exact(
                "peak_live_max",
                stats.peak_live_states.iter().copied().max().unwrap_or(0) as f64,
            ),
            Metric::exact("mean_live_states", stats.mean_live_states),
            Metric::exact("prp_time_overhead", stats.prp_time_overhead),
        ]
    }
}

/// Fault-injection episode sweeps (§2 vs §4 vs the Russell refinement):
/// replays `episodes` failure episodes under **the same seed** through
/// three rollback semantics —
///
/// * `async/…` — the paper's symmetric asynchronous rollback
///   ([`RollbackRule::Symmetric`]),
/// * `directed/…` — Russell's directed-message refinement
///   ([`RollbackRule::Directed`]),
/// * `prp/…` — pseudo-recovery-point rollback ([`RollbackRule::Prp`]).
///
/// Sharing the seed makes the three columns directly comparable: the
/// underlying event histories coincide, so per-cell inequalities
/// (directed ≤ symmetric distance; PRP ≤ asynchronous distance) hold
/// sample-by-sample, not just in expectation. Each prefix reports
/// `sup_distance`, `n_affected`, `rps_crossed` (sampled) and
/// `domino_rate`, `reproduced_errors`, `episodes` (exact).
///
/// The symmetric leg always runs; the directed and PRP legs can be
/// switched off ([`Self::without_directed`] / [`Self::without_prp`])
/// when a sweep only compares two semantics — episodes are the hot
/// path, and an unread leg is pure waste. The PRP leg takes no
/// state-recording time t_r: its rollbacks never read it (only
/// [`PrpStorage`]'s timeline does), so it would split the cache key
/// without moving a metric.
#[derive(Clone, Debug)]
pub struct FailureEpisodes {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// The fault-injection model.
    pub fault: FaultConfig,
    /// Failure episodes per rollback semantics.
    pub episodes: usize,
    /// Run the Russell directed-refinement leg (`directed/…` metrics).
    pub directed: bool,
    /// Run the PRP leg (`prp/…` metrics).
    pub prp: bool,
}

impl FailureEpisodes {
    /// A workload running all three legs.
    pub fn new(params: AsyncParams, fault: FaultConfig, episodes: usize) -> Self {
        FailureEpisodes {
            params,
            fault,
            episodes,
            directed: true,
            prp: true,
        }
    }

    /// Drops the directed leg (no `directed/…` metrics).
    pub fn without_directed(mut self) -> Self {
        self.directed = false;
        self
    }

    /// Drops the PRP leg (no `prp/…` metrics).
    pub fn without_prp(mut self) -> Self {
        self.prp = false;
        self
    }

    fn push_scheme(prefix: &str, m: &SchemeMetrics, out: &mut Vec<Metric>) {
        out.push(Metric::sampled(
            format!("{prefix}/sup_distance"),
            &m.sup_distance,
        ));
        out.push(Metric::sampled(
            format!("{prefix}/n_affected"),
            &m.n_affected,
        ));
        out.push(Metric::sampled(
            format!("{prefix}/rps_crossed"),
            &m.rps_crossed,
        ));
        out.push(Metric::exact(
            format!("{prefix}/domino_rate"),
            m.domino_rate(),
        ));
        out.push(Metric::exact(
            format!("{prefix}/reproduced_errors"),
            m.reproduced_errors as f64,
        ));
        out.push(Metric::exact(
            format!("{prefix}/episodes"),
            m.episodes as f64,
        ));
    }
}

impl Workload for FailureEpisodes {
    fn label(&self) -> String {
        format!("failure-episodes/n{}", self.params.n())
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};error_rates=[{}];p_propagate={};p_detect_foreign={};episodes={};\
             directed={};prp={}",
            canon_async_params(&self.params),
            canon_f64s(&self.fault.error_rates),
            canon_f64(self.fault.p_propagate),
            canon_f64(self.fault.p_detect_foreign),
            self.episodes,
            self.directed,
            self.prp
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let mut metrics = Vec::with_capacity(18);
        let cfg = AsyncConfig::new(self.params.clone()).with_fault(self.fault.clone());
        for (prefix, rule, on) in [
            ("async", RollbackRule::Symmetric, true),
            ("directed", RollbackRule::Directed, self.directed),
        ] {
            if on {
                let m =
                    AsyncScheme::new(cfg.clone(), seed).run_failure_episodes(self.episodes, rule);
                Self::push_scheme(prefix, &m, &mut metrics);
            }
        }
        if self.prp {
            let prp = PrpScheme::new(
                PrpConfig::new(self.params.clone()).with_fault(self.fault.clone()),
                seed,
            )
            .run_failure_episodes(self.episodes);
            Self::push_scheme("prp", &prp, &mut metrics);
        }
        metrics
    }
}

/// The conversation scheme over a long timeline (extension X3).
/// Metrics: `completed`, `abandoned`, `loss_per_conversation`, `rounds`,
/// `deferred_per_conversation`, `occupancy`, `abandon_rate`,
/// `analytic_round_loss` (the §3 loss formula restricted to the
/// participant subset, averaged over the n rotating round-robin
/// windows — exact for heterogeneous μ, and equal to the single-window
/// value when rates are homogeneous).
#[derive(Clone, Debug)]
pub struct Conversations {
    /// Conversation configuration (participant count, rates, retries).
    pub cfg: ConversationConfig,
    /// Simulated horizon.
    pub horizon: f64,
}

impl Conversations {
    /// Mean §3 round loss over the rotating participant windows
    /// `[s, s+k) mod n` — the analytic twin of what the timeline
    /// simulation actually pays per test line.
    fn mean_window_round_loss(&self) -> f64 {
        let (n, k, mu) = (self.cfg.params.n(), self.cfg.k, self.cfg.params.mu());
        let total: f64 = (0..n)
            .map(|start| {
                let window: Vec<f64> = (0..k).map(|d| mu[(start + d) % n]).collect();
                conversation_round_loss(&window)
            })
            .sum();
        total / n as f64
    }
}

impl Workload for Conversations {
    fn label(&self) -> String {
        format!("conversations/k{}", self.cfg.k)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};k={};conversation_rate={};p_fail={};max_rounds={};horizon={}",
            canon_async_params(&self.cfg.params),
            self.cfg.k,
            canon_f64(self.cfg.conversation_rate),
            canon_f64(self.cfg.p_fail),
            self.cfg.max_rounds,
            canon_f64(self.horizon)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let stats = run_conversations(&self.cfg, self.horizon, seed);
        let total = (stats.completed + stats.abandoned).max(1);
        vec![
            Metric::exact("completed", stats.completed as f64),
            Metric::exact("abandoned", stats.abandoned as f64),
            Metric::sampled("loss_per_conversation", &stats.loss_per_conversation),
            Metric::sampled("rounds", &stats.rounds),
            Metric::exact(
                "deferred_per_conversation",
                stats.deferred_interactions as f64 / total as f64,
            ),
            Metric::exact("occupancy", stats.occupancy()),
            Metric::exact("abandon_rate", stats.abandon_rate()),
            Metric::exact("analytic_round_loss", self.mean_window_round_loss()),
        ]
    }
}

/// A seeded random history audited for recovery lines and rollback
/// distance (the stochastic half of Figure 1). Metrics: `lines_formed`,
/// `sup_distance`, `n_affected`, `horizon`.
#[derive(Clone, Debug)]
pub struct HistoryAudit {
    /// Checkpoint and interaction rates.
    pub params: AsyncParams,
    /// History horizon.
    pub horizon: f64,
}

impl Workload for HistoryAudit {
    fn label(&self) -> String {
        format!("history-audit/n{}", self.params.n())
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "{};horizon={}",
            canon_async_params(&self.params),
            canon_f64(self.horizon)
        ))
    }

    fn run(&self, seed: u64) -> Vec<Metric> {
        let mut scheme = AsyncScheme::new(AsyncConfig::new(self.params.clone()), seed);
        let h = scheme.generate_history(self.horizon);
        let detected_at = h.horizon();
        let plan = propagate_rollback(&h, ProcessId(0), detected_at, RollbackRule::Symmetric);
        let lines = crate::recovery_line::find_recovery_lines(&h);
        vec![
            Metric::exact("lines_formed", (lines.len() - 1) as f64),
            Metric::exact("sup_distance", plan.sup_distance()),
            Metric::exact("n_affected", plan.n_affected() as f64),
            Metric::exact("horizon", detected_at),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params3() -> AsyncParams {
        AsyncParams::symmetric(3, 1.0, 1.0)
    }

    #[test]
    fn workloads_are_pure_in_self_and_seed() {
        let w: Vec<Box<dyn Workload + Send + Sync>> = vec![
            Box::new(
                AsyncIntervals::new(params3(), 200).with_distribution(DistSpec::new(0.0, 8.0, 16)),
            ),
            Box::new(SplitChainStats {
                params: params3(),
                tagged: 0,
            }),
            Box::new(PrpStorage {
                params: params3(),
                horizon: 50.0,
                t_r: 1e-3,
            }),
            Box::new(FailureEpisodes::new(
                params3(),
                FaultConfig::uniform(3, 0.05, 0.5, 0.5),
                30,
            )),
            Box::new(Conversations {
                cfg: ConversationConfig::new(AsyncParams::symmetric(4, 1.0, 1.0), 2),
                horizon: 300.0,
            }),
            Box::new(HistoryAudit {
                params: params3(),
                horizon: 10.0,
            }),
        ];
        for workload in &w {
            let a = workload.run(99);
            let b = workload.run(99);
            assert_eq!(a.len(), b.len(), "{}", workload.label());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name(), y.name());
                assert_eq!(x.value().to_bits(), y.value().to_bits(), "{}", x.name());
                // Distribution payloads must be bit-stable too.
                if let (Some(dx), Some(dy)) = (x.dist(), y.dist()) {
                    assert_eq!(dx.counts, dy.counts, "{}", x.name());
                }
            }
        }
    }

    #[test]
    fn failure_episodes_orderings_hold_per_seed() {
        // Same seed ⇒ identical histories ⇒ the refinements can only
        // shrink rollback, sample by sample.
        let w = FailureEpisodes::new(
            AsyncParams::symmetric(3, 0.5, 1.5),
            FaultConfig::uniform(3, 0.05, 0.5, 0.5),
            120,
        );
        let metrics = w.run(4242);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name() == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value()
        };
        assert!(get("directed/sup_distance") <= get("async/sup_distance") + 1e-12);
        assert!(get("directed/n_affected") <= get("async/n_affected") + 1e-12);
        assert!(get("prp/sup_distance") <= get("async/sup_distance") + 1e-9);
        assert_eq!(get("async/episodes"), 120.0);
        assert_eq!(get("prp/episodes"), 120.0);
    }

    #[test]
    fn failure_episode_legs_are_independent_and_optional() {
        let make = || {
            FailureEpisodes::new(
                AsyncParams::symmetric(3, 1.0, 1.0),
                FaultConfig::uniform(3, 0.05, 0.5, 0.5),
                40,
            )
        };
        let full = make().run(7);
        let no_prp = make().without_prp().run(7);
        let no_dir = make().without_directed().run(7);
        // Dropped legs emit no metrics…
        assert!(no_prp.iter().all(|m| !m.name().starts_with("prp/")));
        assert!(no_dir.iter().all(|m| !m.name().starts_with("directed/")));
        // …and the remaining legs are bit-identical to the full run
        // (each leg owns its seed-derived streams).
        for m in &no_prp {
            let twin = full.iter().find(|f| f.name() == m.name()).unwrap();
            assert_eq!(m.value().to_bits(), twin.value().to_bits(), "{}", m.name());
        }
        for m in &no_dir {
            let twin = full.iter().find(|f| f.name() == m.name()).unwrap();
            assert_eq!(m.value().to_bits(), twin.value().to_bits(), "{}", m.name());
        }
    }

    #[test]
    fn conversation_round_loss_averages_rotating_windows() {
        // Homogeneous rates: the window average equals the single-window
        // formula (k = 3 at μ = 1 → 2.5 exactly).
        let homo = Conversations {
            cfg: ConversationConfig::new(AsyncParams::symmetric(4, 1.0, 1.0), 3),
            horizon: 1.0,
        };
        assert!((homo.mean_window_round_loss() - 2.5).abs() < 1e-12);
        // Heterogeneous rates: must equal the explicit mean over the n
        // round-robin windows, not the first-rate-replicated formula.
        let params = AsyncParams::new(vec![2.0, 0.5, 0.5, 0.5], vec![1.0; 6]).unwrap();
        let hetero = Conversations {
            cfg: ConversationConfig::new(params, 2),
            horizon: 1.0,
        };
        let mu = [2.0, 0.5, 0.5, 0.5];
        let want: f64 = (0..4)
            .map(|s| {
                crate::schemes::conversation::conversation_round_loss(&[mu[s], mu[(s + 1) % 4]])
            })
            .sum::<f64>()
            / 4.0;
        assert!((hetero.mean_window_round_loss() - want).abs() < 1e-12);
        let wrong = crate::schemes::conversation::conversation_round_loss(&[2.0, 2.0]);
        assert!((hetero.mean_window_round_loss() - wrong).abs() > 1e-3);
    }

    #[test]
    fn async_density_tracks_reference_away_from_spike() {
        let w = AsyncDensity {
            params: params3(),
            lines: 20_000,
            t_max: 4.0,
            bins: 40,
        };
        let metrics = w.run(1961);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name() == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!(
            get("max_abs_gap_interior").value() < 0.08,
            "interior gap {}",
            get("max_abs_gap_interior").value()
        );
        assert!(
            (get("f0").value() - get("total_mu").value()).abs() < 1e-9,
            "f(0) = Σμ (R4 spike)"
        );
        // The histogram is a first-class distribution metric…
        let dist = get("X_hist").dist().expect("X_hist is a distribution");
        assert_eq!(dist.counts.len(), 40);
        assert_eq!(dist.count, 20_000);
        assert!(dist.quantile(0.5).is_some());
        // …and the embedded GoF gates pass on a correct implementation.
        let ks = get("ks_sim_vs_analytic");
        assert!(ks.ok(), "KS {} > critical {}", ks.value(), ks.std_err());
        let chi = get("chi2_sim_vs_analytic");
        assert!(chi.ok(), "χ² {} > critical {}", chi.value(), chi.std_err());
    }

    #[test]
    fn sync_timeline_reports_lines_and_loss() {
        let w = SyncTimeline {
            params: params3(),
            strategy: SyncStrategy::ElapsedSinceLine(5.0),
            horizon: 2_000.0,
            dist: Some(DistSpec::new(0.0, 12.0, 24)),
        };
        let metrics = w.run(3);
        let get = |name: &str| metrics.iter().find(|m| m.name() == name).unwrap().value();
        assert!(get("lines") > 100.0);
        assert!(get("loss_rate") > 0.0 && get("loss_rate") < 1.0);
        assert!(get("loss_per_line") > 0.0);
        let dist = metrics
            .iter()
            .find(|m| m.name() == "CL_dist")
            .and_then(|m| m.dist())
            .expect("CL_dist distribution");
        assert_eq!(dist.count, get("lines") as u64);
        assert!((dist.mean - get("loss_per_line")).abs() < 1e-12);
    }

    #[test]
    fn async_intervals_distribution_is_opt_in() {
        let plain = AsyncIntervals::new(params3(), 300).run(5);
        assert!(plain.iter().all(|m| m.dist().is_none()));
        let with = AsyncIntervals::new(params3(), 300)
            .with_distribution(DistSpec::new(0.0, 10.0, 20))
            .run(5);
        // Scalar metrics are bit-identical with and without collection.
        for (a, b) in plain.iter().zip(&with) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
        let dist = with.last().unwrap();
        assert_eq!(dist.name(), "X_dist");
        assert_eq!(dist.dist().unwrap().count, 300);
    }

    #[test]
    fn cache_params_cover_every_config_field() {
        // Cacheable workloads: any field change must change the string.
        let base = AsyncIntervals::new(params3(), 200);
        let p = base.cache_params().unwrap();
        assert_ne!(
            p,
            AsyncIntervals::new(params3(), 201).cache_params().unwrap()
        );
        assert_ne!(
            p,
            AsyncIntervals::new(AsyncParams::symmetric(3, 1.0, 1.5), 200)
                .cache_params()
                .unwrap()
        );
        assert_ne!(
            p,
            base.clone()
                .with_distribution(DistSpec::new(0.0, 8.0, 16))
                .cache_params()
                .unwrap()
        );
        // canon_f64 is bit-level: -0.0 and 0.0 differ, NaN survives.
        assert_ne!(canon_f64(0.0), canon_f64(-0.0));
        assert_eq!(canon_f64(f64::NAN), canon_f64(f64::NAN));

        // FailureEpisodes: every FaultConfig field, the episode count
        // and each leg switch.
        let fault = FaultConfig::uniform(3, 0.1, 0.5, 0.5);
        let episodes = FailureEpisodes::new(params3(), fault, 40);
        let episode_edits: [fn(&mut FailureEpisodes); 7] = [
            |w| w.params = AsyncParams::symmetric(3, 1.0, 1.5),
            |w| w.fault.error_rates[2] = 0.2,
            |w| w.fault.p_propagate = 0.6,
            |w| w.fault.p_detect_foreign = 0.6,
            |w| w.episodes = 41,
            |w| w.directed = false,
            |w| w.prp = false,
        ];
        assert_distinct(&flips(&episodes, &episode_edits));
        assert_each_edit_moves_a_metric(&episodes, &episode_edits);
        // Conversations: every ConversationConfig field plus the horizon.
        let conv = Conversations {
            cfg: ConversationConfig::new(AsyncParams::symmetric(4, 1.0, 1.0), 2),
            horizon: 300.0,
        };
        let conv_edits: [fn(&mut Conversations); 6] = [
            |w| w.cfg.params = AsyncParams::symmetric(4, 1.0, 0.5),
            |w| w.cfg.k = 3,
            |w| w.cfg.conversation_rate = 0.3,
            |w| w.cfg.p_fail = 0.1,
            // Three rounds at p_fail = 0.05 never give up within the
            // horizon; one round gives up on every failure.
            |w| w.cfg.max_rounds = 1,
            |w| w.horizon = 301.0,
        ];
        assert_distinct(&flips(&conv, &conv_edits));
        assert_each_edit_moves_a_metric(&conv, &conv_edits);
        let audit = HistoryAudit {
            params: params3(),
            horizon: 10.0,
        };
        let audit_edits: [fn(&mut HistoryAudit); 2] = [
            |w| w.params = AsyncParams::symmetric(3, 2.0, 1.0),
            |w| w.horizon = 11.0,
        ];
        assert_distinct(&flips(&audit, &audit_edits));
        assert_each_edit_moves_a_metric(&audit, &audit_edits);
        // SplittingTail (private fields, so one constructor argument at
        // a time): params, target level (→ threshold), levels, trials,
        // gate width, and the reference tail.
        use crate::tail::SplittingTail;
        let tail = |params: AsyncParams, p: f64, levels: usize, trials: usize, z: f64| {
            SplittingTail::new("t", params, p, levels, trials, z)
        };
        let base = tail(params3(), 1e-3, 4, 64, 5.0);
        assert_distinct(&[
            base.cache_params(),
            tail(AsyncParams::symmetric(3, 1.0, 1.5), 1e-3, 4, 64, 5.0).cache_params(),
            tail(params3(), 1e-4, 4, 64, 5.0).cache_params(),
            tail(params3(), 1e-3, 5, 64, 5.0).cache_params(),
            tail(params3(), 1e-3, 4, 65, 5.0).cache_params(),
            tail(params3(), 1e-3, 4, 64, 6.0).cache_params(),
            base.clone()
                .with_reference(base.p_exact() * 2.0)
                .cache_params(),
        ]);
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

    /// On a probe cell (seed 7), every edit moves some metric of `base`:
    /// a field of the cache key that moved none would split the cache
    /// between cells with equal results.
    fn assert_each_edit_moves_a_metric<W: Workload + Clone>(base: &W, edits: &[fn(&mut W)]) {
        let metrics = |w: &W| format!("{:?}", w.run(7));
        let want = metrics(base);
        for (i, edit) in edits.iter().enumerate() {
            let mut w = base.clone();
            edit(&mut w);
            assert_ne!(
                metrics(&w),
                want,
                "edit {i} of {} moves no metric",
                base.label()
            );
        }
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
    fn canon_async_params_orders_lambda_pairs_canonically() {
        // Heterogeneous λ: the canonical (i, j), i < j order must match
        // AsyncParams::new's upper-triangular input order.
        let params = AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.1, 0.2, 0.3]).unwrap();
        let s = canon_async_params(&params);
        let want = format!(
            "mu=[{}];lam=[{}]",
            canon_f64s(&[1.0, 2.0, 3.0]),
            canon_f64s(&[0.1, 0.2, 0.3])
        );
        assert_eq!(s, want);
    }

    #[test]
    fn labels_are_stable_and_nonempty() {
        let w = AsyncIntervals::new(params3(), 1);
        assert_eq!(w.label(), "async-intervals/n3");
        let f = FailureEpisodes::new(params3(), FaultConfig::uniform(3, 0.1, 0.5, 0.5), 1);
        assert_eq!(f.label(), "failure-episodes/n3");
    }
}
