//! The cross-scheme conformance driver.
//!
//! [`SchemeConformance`] runs one [`Scenario`] through every
//! quantitative path the workspace implements for the paper's three
//! schemes and records pairwise agreement [`Check`]s:
//!
//! | scheme | paths compared |
//! |--------|----------------|
//! | asynchronous (§2) | event simulation ↔ full-chain CTMC (materialised chain, GTH absorption solve) ↔ matrix-free flag-chain operator (the default backend) ↔ embedded split-chain DTMC (fundamental matrix) ↔ lumped chain (symmetric) ↔ `Exp(Σμ)` closed form (λ = 0) |
//! | synchronized (§3) | commit-round simulation ↔ inclusion–exclusion closed form ↔ adaptive quadrature of the paper's integral, plus the idle-time identity |
//! | PRP (§4) | storage-timeline simulation ↔ §4 closed-form overheads, plus Poisson RP-count checks and the rollback-distance bound under fault injection |
//!
//! **Tolerances are CI-derived**: simulation-vs-analytic checks use
//! `z · std_err` from the run's own Welford accumulator (plus a small
//! absolute floor for near-zero quantities); analytic-vs-analytic
//! checks use fixed numerical tolerances matched to the solver
//! precision (GTH/Krylov/fundamental-matrix ~1e-7 relative, quadrature ~1e-5).
//!
//! **Distribution-level checks** go beyond the scalar moments: every
//! scenario's simulated interval *sample* is gated against the analytic
//! CDF with a Kolmogorov–Smirnov statistic (through the materialised
//! chain, forced dense, and the default matrix-free operator — two
//! independent uniformization constructions) and a Pearson χ² over binned expected masses with the
//! histogram's out-of-range mass as explicit cells; the synchronized
//! scheme's establishment span is gated against its order-statistics
//! closed form the same way. Critical values sit at
//! [`SchemeConformance::gof_alpha`], and each scenario also reports its
//! interval histogram as a first-class [`Metric::Distribution`]
//! ([`ConformanceReport::distributions`]).

use crate::scenarios::Scenario;
use rbanalysis::order_stats::max_exp_mean;
use rbanalysis::prp_overhead::prp_overhead;
use rbanalysis::sync_loss::{mean_idle, mean_loss, mean_loss_quadrature};
use rbcore::fault::FaultConfig;
use rbcore::metrics::{DistSummary, Metric};
use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use rbcore::schemes::prp::{PrpConfig, PrpScheme};
use rbcore::schemes::synchronized::simulate_commit_losses;
use rbcore::workload::GOF_ALPHA;
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams, FlagChain, SplitChain};
use rbmarkov::solver::SolverStrategy;
use rbsim::gof;
use rbsim::stats::Histogram;

/// One pairwise agreement check between two computation paths.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was compared, e.g. `async/EX/sim-vs-ctmc`.
    pub label: String,
    /// First path's value.
    pub lhs: f64,
    /// Second path's value.
    pub rhs: f64,
    /// Allowed |lhs − rhs|.
    pub tol: f64,
    /// Whether the check passed.
    pub pass: bool,
}

impl Check {
    fn within(label: impl Into<String>, lhs: f64, rhs: f64, tol: f64) -> Check {
        let pass = (lhs - rhs).abs() <= tol && lhs.is_finite() && rhs.is_finite();
        Check {
            label: label.into(),
            lhs,
            rhs,
            tol,
            pass,
        }
    }

    /// A one-sided `lhs ≤ rhs + tol` check (for bound-style claims).
    fn at_most(label: impl Into<String>, lhs: f64, rhs: f64, tol: f64) -> Check {
        let pass = lhs <= rhs + tol && lhs.is_finite() && rhs.is_finite();
        Check {
            label: label.into(),
            lhs,
            rhs,
            tol,
            pass,
        }
    }
}

/// All checks produced for one scenario.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The scenario id the checks belong to.
    pub scenario: String,
    /// The individual pairwise checks.
    pub checks: Vec<Check>,
    /// First-class distribution metrics measured along the way (the
    /// simulated interval histogram, with quantiles) — carried into the
    /// sweep artifacts by [`ConformanceWorkload`].
    pub distributions: Vec<Metric>,
}

impl ConformanceReport {
    /// The failed checks, if any.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// Panics with a readable digest if any check failed.
    pub fn assert_ok(&self) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        let mut msg = format!(
            "scenario `{}`: {}/{} conformance checks failed:\n",
            self.scenario,
            failures.len(),
            self.checks.len()
        );
        for c in failures {
            msg.push_str(&format!(
                "  {}: |{} − {}| = {} > tol {}\n",
                c.label,
                c.lhs,
                c.rhs,
                (c.lhs - c.rhs).abs(),
                c.tol
            ));
        }
        panic!("{msg}");
    }
}

/// The conformance driver; fields tune the simulation effort (larger =
/// tighter confidence intervals, longer runtime).
#[derive(Clone, Debug)]
pub struct SchemeConformance {
    /// Recovery-line intervals measured per async scenario.
    pub intervals: usize,
    /// Commitment rounds simulated per synchronized scenario.
    pub sync_rounds: usize,
    /// Horizon of the PRP storage timeline.
    pub prp_horizon: f64,
    /// Fault-injection episodes for the PRP rollback-bound check
    /// (0 disables it).
    pub episodes: usize,
    /// CI width multiplier for sim-vs-analytic checks. With the
    /// default 4.8, a correct implementation fails one check with
    /// probability ≈ 1.6e-6 — across a ~300-check matrix, ≈ 5e-4 per
    /// full run.
    pub z: f64,
    /// Significance level of the KS/χ² distribution gates. The KS
    /// critical value is `sqrt(ln(2/α)/(2n))`, so the band widens
    /// automatically with smaller samples, like the z·std_err scalar
    /// tolerances do.
    pub gof_alpha: f64,
    /// Bins of the χ² histogram (its support is the empirical 98 %
    /// range of each run, the tail mass becoming an explicit cell).
    pub gof_bins: usize,
}

impl Default for SchemeConformance {
    fn default() -> Self {
        SchemeConformance {
            intervals: 5_000,
            sync_rounds: 40_000,
            prp_horizon: 400.0,
            episodes: 120,
            z: 4.8,
            gof_alpha: GOF_ALPHA,
            gof_bins: 24,
        }
    }
}

impl SchemeConformance {
    /// A cheaper configuration for debug builds / smoke runs.
    pub fn quick() -> Self {
        SchemeConformance {
            intervals: 1_500,
            sync_rounds: 10_000,
            prp_horizon: 150.0,
            episodes: 40,
            z: 4.8,
            gof_alpha: GOF_ALPHA,
            gof_bins: 16,
        }
    }

    /// Runs the asynchronous scheme (§2) through sim, the full-chain
    /// CTMC, the embedded split-chain DTMC, and — where defined — the
    /// lumped-chain / `Exp(Σμ)` closed forms.
    pub fn check_async(&self, sc: &Scenario) -> ConformanceReport {
        let params = sc.params();
        let mut checks = Vec::new();

        // Path A: full-chain CTMC absorption solve on the materialised
        // chain, forced dense (GTH elimination of −Q_TT; cheap at the
        // scenario sizes). The default matrix-free backend is gated
        // against it in Path D′.
        let ex_ctmc = params.mean_interval_with(SolverStrategy::Dense);

        // Path B: embedded discrete chain with state splitting — an
        // independent construction *and* an independent solver
        // (DTMC fundamental matrix). E[X] = E[steps]/G.
        let split = SplitChain::build(&params, 0);
        let ex_dtmc = split.expected_steps() / split.g;
        checks.push(Check::within(
            "async/EX/ctmc-vs-split-dtmc",
            ex_ctmc,
            ex_dtmc,
            1e-7 * ex_ctmc.max(1.0),
        ));

        // Path C: lumped symmetric chain (exact lumpability).
        if sc.is_symmetric() {
            let ex_lumped = mean_interval_symmetric(sc.n(), sc.mu[0], sc.lambda[0]);
            checks.push(Check::within(
                "async/EX/ctmc-vs-lumped",
                ex_ctmc,
                ex_lumped,
                1e-7 * ex_ctmc.max(1.0),
            ));
        }

        // Path D: λ = 0 closed form — the chain never leaves S_r except
        // by R4, so X ~ Exp(Σμ).
        let total_lambda: f64 = sc.lambda.iter().sum();
        if total_lambda == 0.0 {
            let ex_exact = 1.0 / params.total_mu();
            checks.push(Check::within(
                "async/EX/ctmc-vs-exp-closed-form",
                ex_ctmc,
                ex_exact,
                1e-10,
            ));
        }

        // Path D′: the default backend — the matrix-free Krylov solve
        // every `AsyncParams` query takes at every n. The operator
        // regenerated from the R1–R4 bit-mask rules must land on the
        // same E[X] as the materialised chain of Path A — this wires the
        // default solver into the whole matrix, so a perf-motivated
        // change to the operator, the preconditioner or the refinement
        // trips the conformance gate, not just the scaling benches.
        let ex_matfree = params.mean_interval();
        checks.push(Check::within(
            "async/EX/ctmc-vs-matrix-free",
            ex_ctmc,
            ex_matfree,
            1e-7 * ex_ctmc.max(1.0),
        ));

        // Path E: event simulation, compared at z·std_err.
        let stats = AsyncScheme::new(AsyncConfig::new(params.clone()), sc.seed)
            .run_intervals_samples(self.intervals);
        let se = stats.interval.std_err();
        checks.push(Check::within(
            "async/EX/sim-vs-ctmc",
            stats.interval.mean(),
            ex_ctmc,
            self.z * se + 5e-3,
        ));

        // E[Lᵢ]: Poisson-thinning closed form μᵢ·E[X], the split-chain
        // Y_d statistic, and the simulated per-process RP counts.
        for i in 0..sc.n() {
            let thinning = params.mu()[i] * ex_ctmc;
            let yd = params.mean_rp_count_yd(i, true);
            checks.push(Check::within(
                format!("async/EL{i}/thinning-vs-split-chain"),
                thinning,
                yd,
                1e-7 * thinning.max(1.0),
            ));
            let sim_l = &stats.rp_counts[i];
            checks.push(Check::within(
                format!("async/EL{i}/sim-vs-thinning"),
                sim_l.mean(),
                thinning,
                self.z * sim_l.std_err() + 5e-3,
            ));
        }

        // Distribution-level gates: the whole simulated interval sample
        // against the analytic law, not just its first moment. Two CDF
        // constructions are gated — the materialised chain (CSR
        // uniformization of the built `FlagChain`), and the default
        // matrix-free bit-rule operator — plus the Exp(Σμ) closed form
        // where the chain degenerates to the first-RP race.
        let samples = stats.samples.as_ref().expect("samples were requested");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let x_hist = self.interval_distribution_gates(
            &sorted,
            stats.interval.mean(),
            "ctmc",
            |ts| {
                params
                    .build_full_chain()
                    .ctmc
                    .absorption_cdf_batch(FlagChain::START, ts)
            },
            &mut checks,
        );
        // The default matrix-free operator is an independent CDF
        // construction; KS alone is enough there (χ² already gated the
        // binned shape against the materialised chain above).
        let pts = gof::ks_eval_points(&sorted);
        let ks_crit = gof::ks_critical(sorted.len() as u64, self.gof_alpha);
        let f_mf = params.interval_cdf_batch(&pts);
        checks.push(Check::at_most(
            "async/Xdist/ks-sim-vs-matrix-free",
            gof::ks_statistic_at(&sorted, &f_mf),
            ks_crit,
            0.0,
        ));
        if total_lambda == 0.0 {
            let rate = params.total_mu();
            let f_exp: Vec<f64> = pts
                .iter()
                .map(|&t| {
                    if t <= 0.0 {
                        0.0
                    } else {
                        1.0 - (-rate * t).exp()
                    }
                })
                .collect();
            checks.push(Check::at_most(
                "async/Xdist/ks-sim-vs-exp-closed-form",
                gof::ks_statistic_at(&sorted, &f_exp),
                ks_crit,
                0.0,
            ));
        }
        let distributions = vec![x_hist];

        ConformanceReport {
            scenario: sc.id.clone(),
            checks,
            distributions,
        }
    }

    /// The χ² histogram for a sorted interval sample: support from 0 to
    /// the empirical 98 % point (a pure function of the sample, so the
    /// sweep purity contract holds), the remaining 2 % becoming the
    /// explicit overflow cell.
    fn interval_histogram(&self, sorted: &[f64]) -> Histogram {
        let hi = sorted[(0.98 * sorted.len() as f64) as usize].max(1e-9);
        let mut hist = Histogram::new(0.0, hi, self.gof_bins);
        for &x in sorted {
            hist.push(x);
        }
        hist
    }

    /// The shared distribution-gate recipe: build the χ² histogram,
    /// evaluate `cdf_batch` **once** over the concatenated KS sample
    /// points and bin edges (one jump-chain propagation — the expensive
    /// part at large n), and push the
    /// `async/Xdist/{ks,chi2}-sim-vs-{label}` checks. Returns the
    /// `async/X_hist` distribution metric. `sorted` must be ascending.
    fn interval_distribution_gates(
        &self,
        sorted: &[f64],
        mean: f64,
        label: &str,
        cdf_batch: impl Fn(&[f64]) -> Vec<f64>,
        checks: &mut Vec<Check>,
    ) -> Metric {
        let hist = self.interval_histogram(sorted);
        let mut pts = gof::ks_eval_points(sorted);
        let n_ks = pts.len();
        pts.extend(hist.bin_edges());
        let f = cdf_batch(&pts);
        checks.push(Check::at_most(
            format!("async/Xdist/ks-sim-vs-{label}"),
            gof::ks_statistic_at(sorted, &f[..n_ks]),
            gof::ks_critical(sorted.len() as u64, self.gof_alpha),
            0.0,
        ));
        // χ²: binned counts vs expected masses from the reference CDF
        // at the bin edges, with the out-of-range tail as an explicit
        // cell (a truncated support cannot silently pass).
        let chi = gof::chi_square_hist_test(&hist, &f[n_ks..], self.gof_alpha, 5.0);
        checks.push(Check::at_most(
            format!("async/Xdist/chi2-sim-vs-{label}"),
            chi.statistic,
            chi.critical,
            0.0,
        ));
        Metric::distribution(
            "async/X_hist",
            DistSummary::from_histogram(&hist, mean, &DistSummary::DEFAULT_LEVELS),
        )
    }

    /// Distribution-only conformance for one scenario against the
    /// default matrix-free CDF: KS over the raw interval sample and χ²
    /// over the binned counts. This is the path the large-n gate uses —
    /// the full [`Self::check_async`] battery builds split chains and
    /// dense solves that do not scale past n ≈ 13, while this stays
    /// O(2ⁿ) through the matrix-free operator.
    pub fn check_interval_distribution(&self, sc: &Scenario) -> ConformanceReport {
        let params = sc.params();
        let stats = AsyncScheme::new(AsyncConfig::new(params.clone()), sc.seed)
            .run_intervals_samples(self.intervals);
        let samples = stats.samples.as_ref().expect("samples were requested");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let mut checks = Vec::new();
        let x_hist = self.interval_distribution_gates(
            &sorted,
            stats.interval.mean(),
            "matrix-free",
            |ts| params.interval_cdf_batch(ts),
            &mut checks,
        );
        ConformanceReport {
            scenario: sc.id.clone(),
            checks,
            distributions: vec![x_hist],
        }
    }

    /// The negative control proving the KS gate has teeth: one
    /// simulated sample, tested against the analytic CDF with every μ
    /// scaled by each `factor` in turn — the checks for factors ≠ 1
    /// must **fail** (and the caller asserts that they do). A gate that
    /// accepted a 5 % parameter perturbation would be tolerance
    /// theater. The simulation runs once; only the reference CDF
    /// changes per factor.
    pub fn interval_ks_negative_controls(&self, sc: &Scenario, factors: &[f64]) -> Vec<Check> {
        let stats = AsyncScheme::new(AsyncConfig::new(sc.params()), sc.seed)
            .run_intervals_samples(self.intervals);
        let mut sorted = stats.samples.expect("samples were requested");
        sorted.sort_by(f64::total_cmp);
        let pts = gof::ks_eval_points(&sorted);
        let ks_crit = gof::ks_critical(sorted.len() as u64, self.gof_alpha);
        factors
            .iter()
            .map(|&factor| {
                let perturbed = AsyncParams::new(
                    sc.mu.iter().map(|m| m * factor).collect(),
                    sc.lambda.clone(),
                )
                .expect("perturbed parameters stay valid");
                let f = perturbed.interval_cdf_batch(&pts);
                Check::at_most(
                    format!("async/Xdist/ks-negative-control-x{factor}"),
                    gof::ks_statistic_at(&sorted, &f),
                    ks_crit,
                    0.0,
                )
            })
            .collect()
    }

    /// Single-factor convenience wrapper over
    /// [`Self::interval_ks_negative_controls`].
    pub fn interval_ks_negative_control(&self, sc: &Scenario, factor: f64) -> Check {
        self.interval_ks_negative_controls(sc, &[factor])
            .pop()
            .expect("one factor in, one check out")
    }

    /// Runs the synchronized scheme (§3): commit-round simulation vs
    /// the closed-form loss vs the quadrature of the paper's integral.
    pub fn check_synchronized(&self, sc: &Scenario) -> ConformanceReport {
        let mut checks = Vec::new();
        self.sync_checks_for_mu(&sc.mu, sc.seed, &mut checks);
        ConformanceReport {
            scenario: sc.id.clone(),
            checks,
            distributions: Vec::new(),
        }
    }

    /// §3 checks for an arbitrary μ vector (also used for the n = 1
    /// degenerate corner, where the loss must vanish identically).
    pub fn sync_checks_for_mu(&self, mu: &[f64], seed: u64, checks: &mut Vec<Check>) {
        // Closed form vs quadrature of the paper's own expression.
        let cl_closed = mean_loss(mu);
        let cl_quad = mean_loss_quadrature(mu, 1e-10);
        checks.push(Check::within(
            "sync/ECL/closed-form-vs-quadrature",
            cl_closed,
            cl_quad,
            1e-5 * cl_closed.abs().max(1.0),
        ));

        // Identity: per-process idle times sum to the total loss.
        let idle_sum: f64 = (0..mu.len()).map(|i| mean_idle(mu, i)).sum();
        checks.push(Check::within(
            "sync/ECL/idle-sum-identity",
            idle_sum,
            cl_closed,
            1e-9 * cl_closed.abs().max(1.0),
        ));

        // Simulation of the commitment protocol.
        let stats = simulate_commit_losses(mu, self.sync_rounds, seed);
        checks.push(Check::within(
            "sync/ECL/sim-vs-closed-form",
            stats.loss.mean(),
            cl_closed,
            self.z * stats.loss.std_err() + 5e-3,
        ));
        checks.push(Check::within(
            "sync/EZ/sim-vs-order-stats",
            stats.span.mean(),
            max_exp_mean(mu),
            self.z * stats.span.std_err() + 5e-3,
        ));

        // Distribution-level: the establishment span Z = max yᵢ has the
        // exact order-statistics CDF Π(1 − e^{−μᵢ t}); the whole
        // simulated span sample must conform, not just its mean. (For
        // n = 1 this degenerates to the plain Exp(μ) law.)
        let d = gof::ks_statistic(&stats.span_samples, |t| {
            if t <= 0.0 {
                0.0
            } else {
                mu.iter().map(|&m| 1.0 - (-m * t).exp()).product()
            }
        });
        checks.push(Check::at_most(
            "sync/Zdist/ks-sim-vs-order-stats",
            d,
            gof::ks_critical(stats.span_samples.len() as u64, self.gof_alpha),
            0.0,
        ));

        if mu.len() == 1 {
            // Degenerate n = 1: a lone process never waits — the loss
            // is zero in every round, not just in expectation.
            checks.push(Check::within(
                "sync/ECL/n1-exact-zero",
                stats.loss.mean(),
                0.0,
                0.0,
            ));
            checks.push(Check::within(
                "sync/ECL/n1-closed-form-zero",
                cl_closed,
                0.0,
                1e-12,
            ));
        }
    }

    /// Runs the PRP scheme (§4): storage-timeline simulation vs the
    /// closed-form overheads, Poisson RP-count conformance, and (when
    /// `episodes > 0`) the paper's rollback-distance bound.
    pub fn check_prp(&self, sc: &Scenario) -> ConformanceReport {
        let params = sc.params();
        let n = sc.n();
        let t_r = 1e-3;
        let mut checks = Vec::new();

        let analytic = prp_overhead(&sc.mu, t_r);
        let mut scheme = PrpScheme::new(PrpConfig::new(params.clone()).with_t_r(t_r), sc.seed);
        let stats = scheme.storage_timeline(self.prp_horizon);

        // Exact structural identities of the implantation protocol.
        let total_rps: u64 = stats.rps.iter().sum();
        let total_prps: u64 = stats.prps.iter().sum();
        checks.push(Check::within(
            "prp/implantation/n-minus-1-per-rp",
            total_prps as f64,
            (total_rps * (n as u64 - 1)) as f64,
            0.0,
        ));
        checks.push(Check::within(
            "prp/time-overhead/sim-vs-closed-form",
            stats.prp_time_overhead,
            total_rps as f64 * analytic.time_per_rp,
            1e-9 * stats.prp_time_overhead.max(1.0),
        ));

        // Poisson conformance: RP counts are Poisson(μᵢ·T), so the
        // simulated count must sit within z·√(μᵢT) of its mean.
        for i in 0..n {
            let expect = sc.mu[i] * self.prp_horizon;
            checks.push(Check::within(
                format!("prp/rp-count{i}/sim-vs-poisson"),
                stats.rps[i] as f64,
                expect,
                self.z * expect.sqrt() + 1.0,
            ));
        }

        // The purge rule bounds live storage by n states per process
        // (n² total — `stored_states_total`).
        let peak = *stats.peak_live_states.iter().max().unwrap() as f64;
        checks.push(Check::at_most(
            "prp/storage/peak-at-most-n",
            peak,
            (analytic.stored_states_total / n) as f64,
            0.0,
        ));
        checks.push(Check::at_most(
            "prp/storage/mean-at-most-n",
            stats.mean_live_states,
            n as f64,
            1e-9,
        ));

        // The §4 rollback-distance claim: mean distance under local
        // faults stays within a small multiple of E[max yᵢ]. This is a
        // statistical inequality (the paper gives a bound, not an
        // equality), so the slack is generous.
        if self.episodes > 0 && n <= 3 && sc.rho() < 6.0 {
            let fault = FaultConfig::uniform(n, 0.02, 0.5, 0.5);
            let m = PrpScheme::new(
                PrpConfig::new(params).with_fault(fault).with_t_r(t_r),
                sc.seed ^ 0xFA,
            )
            .run_failure_episodes(self.episodes);
            checks.push(Check::at_most(
                "prp/rollback-distance/sim-vs-order-stats-bound",
                m.sup_distance.mean(),
                3.0 * analytic.rollback_bound,
                0.0,
            ));
        }

        ConformanceReport {
            scenario: sc.id.clone(),
            checks,
            distributions: Vec::new(),
        }
    }

    /// Runs every applicable scheme over one scenario.
    pub fn check_all(&self, sc: &Scenario) -> Vec<ConformanceReport> {
        vec![
            self.check_async(sc),
            self.check_synchronized(sc),
            self.check_prp(sc),
        ]
    }
}

/// The deep-tail conformance gate: fixed-effort multilevel splitting
/// ([`rbsim::splitting`] through [`rbcore::tail::FlagChainPath`])
/// against the **exact** survival oracle
/// ([`AsyncParams::interval_survival_batch`]), at tail levels naive
/// Monte Carlo cannot reach.
///
/// The tolerance is the estimator's *own reported relative error*
/// (`z · rel_err`, relative), mirroring how the scalar sim-vs-analytic
/// checks use their Welford `z · std_err` — an estimator that
/// under-reports its error fails the gate exactly like a biased one.
#[derive(Clone, Debug)]
pub struct TailGate {
    /// Target tail level: the final splitting threshold is placed at
    /// `interval_tail_time(p_target)`.
    pub p_target: f64,
    /// Equal-width time levels partitioning `[0, t*]`.
    pub levels: usize,
    /// Trials per level (fixed effort).
    pub trials: usize,
    /// Gate width in reported relative errors.
    pub z: f64,
}

impl TailGate {
    /// Levels targeting a per-level survival fraction of roughly 0.2 —
    /// near the fixed-effort variance optimum.
    fn auto_levels(p_target: f64) -> usize {
        (p_target.ln() / 0.2f64.ln()).ceil().max(1.0) as usize
    }

    /// The release gate: p ≈ 10⁻⁹, sized so the reported relative
    /// error lands near 8 % (gate half-width ≈ 0.4 relative — far
    /// below the ≈ 2–3× shift a 5 % μ perturbation induces at this
    /// depth, so the negative controls stay sharp).
    pub fn deep() -> TailGate {
        TailGate {
            p_target: 1e-9,
            levels: Self::auto_levels(1e-9),
            trials: 8_192,
            z: 5.0,
        }
    }

    /// A cheap configuration for debug builds / smoke runs (p ≈ 10⁻⁴).
    /// Sized like [`TailGate::deep`]: enough trials that `z · rel_err`
    /// stays well below the shift a coarse perturbation induces, so
    /// the negative controls keep their teeth at smoke depth too.
    pub fn quick() -> TailGate {
        TailGate {
            p_target: 1e-4,
            levels: Self::auto_levels(1e-4),
            trials: 3_000,
            z: 5.0,
        }
    }

    /// Runs the splitting estimator against the exact oracle for one
    /// scenario.
    ///
    /// Two checks: the threshold solve round-trips (the oracle's
    /// survival at its own `interval_tail_time` is `p_target`), and the
    /// splitting estimate agrees with the exact tail within
    /// `z · rel_err` **relative** — a zero-survivor run (infinite
    /// reported error) fails rather than passing on an infinite
    /// tolerance.
    pub fn check_tail(&self, sc: &Scenario) -> ConformanceReport {
        let params = sc.params();
        let t = params.interval_tail_time(self.p_target);
        let p_exact = params.interval_survival_batch(&[t])[0];
        let est = self.estimate(&params, t, sc.seed);
        let mut checks = vec![Check::within(
            "tail/threshold-solve-round-trip",
            p_exact,
            self.p_target,
            1e-6 * self.p_target,
        )];
        checks.push(self.gate_check("tail/splitting-vs-matfree-cdf".into(), &est, p_exact));
        ConformanceReport {
            scenario: sc.id.clone(),
            checks,
            distributions: Vec::new(),
        }
    }

    /// The negative control proving the tail gate has teeth, mirroring
    /// [`SchemeConformance::interval_ks_negative_controls`]: one honest
    /// splitting run, gated against the oracle of every-μ-scaled-by-
    /// `factor` parameters at the *same* threshold. The checks for
    /// factors ≠ 1 must **fail in both directions** (the caller asserts
    /// that they do) — at p ≈ 10⁻⁹ a 5 % rate shift moves the tail by
    /// a factor of ~2–3, far outside the estimator's error band. The
    /// simulation runs once; only the reference tail changes.
    pub fn tail_negative_controls(&self, sc: &Scenario, factors: &[f64]) -> Vec<Check> {
        let params = sc.params();
        let t = params.interval_tail_time(self.p_target);
        let est = self.estimate(&params, t, sc.seed);
        factors
            .iter()
            .map(|&factor| {
                let perturbed = AsyncParams::new(
                    sc.mu.iter().map(|m| m * factor).collect(),
                    sc.lambda.clone(),
                )
                .expect("perturbed parameters stay valid");
                let p_ref = perturbed.interval_survival_batch(&[t])[0];
                self.gate_check(
                    format!("tail/splitting-negative-control-x{factor}"),
                    &est,
                    p_ref,
                )
            })
            .collect()
    }

    fn estimate(
        &self,
        params: &AsyncParams,
        threshold: f64,
        seed: u64,
    ) -> rbsim::splitting::SplittingEstimate {
        rbsim::splitting::run(
            &rbcore::tail::FlagChainPath::new(params),
            &rbsim::splitting::SplittingSpec::equal(threshold, self.levels, self.trials),
            seed,
        )
    }

    fn gate_check(
        &self,
        label: String,
        est: &rbsim::splitting::SplittingEstimate,
        p_ref: f64,
    ) -> Check {
        // Relative-error bound, scaled to an absolute tolerance on the
        // reference; a dry (zero-survivor) run reports infinite error
        // and must fail, not inherit an infinite tolerance.
        let tol = if est.rel_err.is_finite() {
            self.z * est.rel_err * p_ref
        } else {
            0.0
        };
        Check::within(label, est.probability, p_ref, tol)
    }
}

/// One scenario of the conformance matrix as a sweepable
/// [`rbcore::workload::Workload`]: every pairwise [`Check`] becomes one
/// [`Metric`] (`value = lhs − rhs`, `std_err = tol`, `ok = pass`), so
/// the whole correctness gate parallelises per grid point through the
/// `rbbench` sweep engine.
///
/// The scenario carries its own simulation seed (part of the matrix's
/// identity), so the sweep-derived seed is deliberately ignored — the
/// checks are reproducible grid-point audits, not seed-swept samples.
#[derive(Clone, Debug)]
pub struct ConformanceWorkload {
    /// The grid point to check.
    pub scenario: Scenario,
    /// Simulation effort / tolerance configuration.
    pub cfg: SchemeConformance,
}

impl rbcore::workload::Workload for ConformanceWorkload {
    fn label(&self) -> String {
        self.scenario.id.clone()
    }

    fn cache_params(&self) -> Option<String> {
        use rbcore::workload::{canon_f64, canon_f64s};
        // Everything `run` reads: the full scenario — including its own
        // embedded seed, since `run` ignores the sweep-derived one —
        // and every effort/tolerance knob of the config.
        Some(format!(
            "scenario={};kind={:?};mu=[{}];lam=[{}];seed={};intervals={};sync_rounds={};\
             prp_horizon={};episodes={};z={};gof_alpha={};gof_bins={}",
            self.scenario.id,
            self.scenario.kind,
            canon_f64s(&self.scenario.mu),
            canon_f64s(&self.scenario.lambda),
            self.scenario.seed,
            self.cfg.intervals,
            self.cfg.sync_rounds,
            canon_f64(self.cfg.prp_horizon),
            self.cfg.episodes,
            canon_f64(self.cfg.z),
            canon_f64(self.cfg.gof_alpha),
            self.cfg.gof_bins
        ))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        let mut metrics = Vec::new();
        for report in self.cfg.check_all(&self.scenario) {
            metrics.extend(report.distributions);
            for c in report.checks {
                metrics.push(Metric::check(c.label, c.lhs - c.rhs, c.tol, c.pass));
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::standard_matrix;

    #[test]
    fn driver_produces_checks_for_every_path() {
        let sc = &standard_matrix(11)[1]; // a symmetric n=2 point
        let quick = SchemeConformance::quick();
        let reports = quick.check_all(sc);
        assert_eq!(reports.len(), 3);
        let labels: Vec<&str> = reports
            .iter()
            .flat_map(|r| r.checks.iter().map(|c| c.label.as_str()))
            .collect();
        assert!(labels.iter().any(|l| l.starts_with("async/EX/sim")));
        assert!(labels.iter().any(|l| l.starts_with("sync/ECL")));
        assert!(labels.iter().any(|l| l.starts_with("prp/")));
        // Distribution-level gates run on every scenario: KS against
        // both CDF constructions, χ², and the sync span law.
        assert!(labels.contains(&"async/Xdist/ks-sim-vs-ctmc"));
        assert!(labels.contains(&"async/Xdist/ks-sim-vs-matrix-free"));
        assert!(labels.contains(&"async/Xdist/chi2-sim-vs-ctmc"));
        assert!(labels.contains(&"sync/Zdist/ks-sim-vs-order-stats"));
        // And the interval histogram rides along as a first-class
        // distribution metric.
        let dists: Vec<&Metric> = reports
            .iter()
            .flat_map(|r| r.distributions.iter())
            .collect();
        assert!(dists.iter().any(|m| m.name() == "async/X_hist"));
        assert!(dists.iter().all(|m| m.dist().is_some()));
    }

    #[test]
    fn negative_control_rejects_perturbed_rates() {
        let sc = &standard_matrix(11)[1];
        let quick = SchemeConformance::quick();
        // The honest gate passes…
        let honest = quick.interval_ks_negative_control(sc, 1.0);
        assert!(honest.pass, "unperturbed control failed: {honest:?}");
        // …a grossly wrong CDF fails even at quick sample sizes.
        let wrong = quick.interval_ks_negative_control(sc, 2.0);
        assert!(!wrong.pass, "2× μ perturbation slipped through");
    }

    #[test]
    fn tail_gate_passes_honestly_at_quick_depth() {
        let gate = TailGate::quick();
        let sc = &standard_matrix(11)[1];
        let report = gate.check_tail(sc);
        report.assert_ok();
        let labels: Vec<&str> = report.checks.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"tail/splitting-vs-matfree-cdf"));
        assert!(labels.contains(&"tail/threshold-solve-round-trip"));
    }

    #[test]
    fn tail_negative_control_rejects_perturbations_in_both_directions() {
        // quick() targets p = 1e-4 (|ln p| ≈ 9.2), so even a 25 % μ
        // shift moves the tail far outside the error band; the deep
        // release gate pins the 5 % version in tests/tail_conformance.rs.
        let gate = TailGate::quick();
        let sc = &standard_matrix(11)[1];
        let checks = gate.tail_negative_controls(sc, &[1.0, 1.25, 0.8]);
        assert!(checks[0].pass, "honest control failed: {:?}", checks[0]);
        for c in &checks[1..] {
            assert!(!c.pass, "perturbed tail slipped through: {c:?}");
        }
    }

    #[test]
    fn dry_tail_runs_fail_rather_than_inherit_infinite_tolerance() {
        // One trial per level at a deep target: survivor extinction is
        // certain, the estimator reports rel_err = ∞, and the gate must
        // fail.
        let gate = TailGate {
            p_target: 1e-9,
            levels: 13,
            trials: 1,
            z: 5.0,
        };
        let sc = &standard_matrix(11)[1];
        let report = gate.check_tail(sc);
        let c = report
            .checks
            .iter()
            .find(|c| c.label == "tail/splitting-vs-matfree-cdf")
            .unwrap();
        assert!(!c.pass, "dry run passed the gate: {c:?}");
    }

    #[test]
    fn failed_checks_render_readably() {
        let report = ConformanceReport {
            scenario: "synthetic".into(),
            checks: vec![Check::within("x", 1.0, 2.0, 0.1)],
            distributions: Vec::new(),
        };
        assert_eq!(report.failures().len(), 1);
        let msg = std::panic::catch_unwind(|| report.assert_ok())
            .err()
            .and_then(|p| p.downcast_ref::<String>().cloned())
            .unwrap();
        assert!(msg.contains("synthetic") && msg.contains("x:"), "{msg}");
    }

    #[test]
    fn one_sided_checks_pass_below_the_bound() {
        assert!(Check::at_most("b", 1.0, 2.0, 0.0).pass);
        assert!(!Check::at_most("b", 2.5, 2.0, 0.0).pass);
    }
}
