//! Distribution-level conformance: the simulated *distributions* — not
//! just their moments — must match the analytic laws on every scenario
//! of the standard matrix, and the gates must provably have teeth.
//!
//! Three layers:
//!
//! * **matrix-wide gates** — every scenario runs at least one KS and
//!   one χ² check of the simulated interval sample against the analytic
//!   CDF (through the auto backend *and* the forced matrix-free
//!   operator), plus the sync span vs its order-statistics closed form;
//! * **negative control** — the same sample tested against a CDF with
//!   every μ perturbed by 5 % must *fail* the KS gate on every scenario
//!   class (symmetric / skewed / corner), proving the critical values
//!   actually reject wrong distributions rather than rubber-stamping;
//! * **large-n gate** (release-only; run by the CI release-conformance
//!   and perf-smoke jobs) — an n = 14 scenario (2¹⁴ + 1 chain states,
//!   past the CSR materialization cap) gated against the forced
//!   matrix-free CDF under a wall-clock budget.
//!
//! Golden-regeneration note: this suite has no golden files of its own;
//! the sweep artifact that carries these checks is pinned by
//! `crates/bench/tests/golden_sweep.rs` (regenerate with `RB_BLESS=1
//! cargo test -p rbbench --test golden_sweep` after intentional changes
//! to `Metric` serialization or the scenario matrix).

use rbcore::workload::GOF_ALPHA;
use rbmarkov::solver::SolverStrategy;
use rbtestutil::{matfree_large_scenario, standard_matrix, ScenarioKind, SchemeConformance};

/// Same master seed as `tests/scheme_conformance.rs`.
const MASTER_SEED: u64 = 0x5EED_1983;

/// A driver tuned for the distribution layer alone: the KS critical
/// value scales like 1/√n, so modest samples keep the gate honest while
/// the full scalar battery stays with `scheme_conformance`.
fn dist_driver() -> SchemeConformance {
    SchemeConformance {
        intervals: if cfg!(debug_assertions) { 1_000 } else { 4_000 },
        sync_rounds: if cfg!(debug_assertions) {
            4_000
        } else {
            20_000
        },
        prp_horizon: 50.0,
        episodes: 0,
        z: 4.8,
        gof_alpha: GOF_ALPHA,
        gof_bins: 16,
    }
}

#[test]
fn every_matrix_scenario_runs_distribution_checks_and_passes() {
    let d = dist_driver();
    for sc in &standard_matrix(MASTER_SEED) {
        let report = d.check_async(sc);
        let dist_checks: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.label.contains("/ks-") || c.label.contains("/chi2-"))
            .collect();
        assert!(
            dist_checks.len() >= 3,
            "{}: only {} distribution checks",
            sc.id,
            dist_checks.len()
        );
        // The matrix-free CDF is gated on every scenario, not just the
        // large-n one.
        assert!(
            dist_checks
                .iter()
                .any(|c| c.label.ends_with("ks-sim-vs-matrix-free")),
            "{}: no matrix-free KS check",
            sc.id
        );
        report.assert_ok();
        // The interval histogram rides along as a first-class metric.
        assert!(
            report
                .distributions
                .iter()
                .any(|m| m.name() == "async/X_hist" && m.dist().is_some()),
            "{}: missing X_hist distribution",
            sc.id
        );

        let sync = d.check_synchronized(sc);
        assert!(
            sync.checks
                .iter()
                .any(|c| c.label == "sync/Zdist/ks-sim-vs-order-stats"),
            "{}: missing sync span KS check",
            sc.id
        );
        sync.assert_ok();
    }
}

#[test]
fn negative_control_rejects_5_percent_mu_perturbation_per_class() {
    // Enough samples that a 5 % rate shift (sup-CDF gap ≈ 0.018 for
    // exponential-like laws) clears the α = 1e-6 critical value
    // (≈ 0.0095 at n = 80 000) with margin.
    let d = SchemeConformance {
        intervals: 80_000,
        ..dist_driver()
    };
    let matrix = standard_matrix(MASTER_SEED);
    for kind in [
        ScenarioKind::Symmetric,
        ScenarioKind::Skewed,
        ScenarioKind::Corner,
    ] {
        let sc = matrix
            .iter()
            .find(|s| s.kind == kind)
            .expect("matrix covers every kind");
        // One simulation, three reference CDFs: the honest gate must
        // pass on the very same sample, and the 5 % perturbations must
        // trip it in both directions.
        let checks = d.interval_ks_negative_controls(sc, &[1.0, 1.05, 0.95]);
        assert!(
            checks[0].pass,
            "{}: honest control failed (D = {} > {})",
            sc.id, checks[0].lhs, checks[0].rhs
        );
        for control in &checks[1..] {
            assert!(
                !control.pass,
                "{} ({kind:?}): KS gate accepted a perturbed μ ({}) \
                 (D = {} ≤ critical {}) — the gate has no teeth",
                sc.id, control.label, control.lhs, control.rhs
            );
        }
    }
}

/// The large-n distribution gate: simulated intervals at n = 14 vs the
/// forced matrix-free CDF (the only backend that exists at 2¹⁴ + 1
/// states), under a wall-clock budget so the CI perf-smoke job doubles
/// as a performance regression gate for the batched uniformization.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: large-n uniformization")]
fn large_n_matrix_free_distribution_gate() {
    let start = std::time::Instant::now();
    let sc = matfree_large_scenario(MASTER_SEED);
    assert_eq!(sc.n(), 14);
    let d = SchemeConformance {
        intervals: 3_000,
        ..dist_driver()
    };
    let report = d.check_interval_distribution(&sc, SolverStrategy::MatrixFree);
    report.assert_ok();
    assert!(report
        .checks
        .iter()
        .any(|c| c.label == "async/Xdist/ks-sim-vs-matrix-free"));
    assert!(report
        .checks
        .iter()
        .any(|c| c.label == "async/Xdist/chi2-sim-vs-matrix-free"));
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        elapsed < 10.0,
        "n = 14 distribution gate took {elapsed:.1} s (budget 10 s)"
    );
    eprintln!("large-n distribution gate: {elapsed:.2} s");
}
