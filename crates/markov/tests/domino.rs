//! Domino-regime gates for the mean interval E\[X\], where E\[X\] reaches
//! 10¹⁵ and partially pivoted LU either loses digits or declares the
//! chain singular.
//!
//! * **GTH regression.** `mean_interval_symmetric` (GTH elimination on the
//!   lumped (n + 2)-state chain) against the 40-digit means of
//!   `stiff_tail_reference.py` ([`LUMPED`]) within 1e-12 relative. LU
//!   panicked on the first four rows and was off by up to 3.7e-4 on the
//!   rest.
//! * **Domino gate.** `AsyncParams::mean_interval()` on the default path
//!   (the refined matrix-free solve) against GTH-lumped within 1e-12, with
//!   no panic, each model under 2 s: symmetric ρ ∈ {4, 8, 16} at n = 4…12
//!   and the rows of [`ROWS`].
//! * **Skewed models.** A proptest over validated models, n = 3…8, μ
//!   skewed over [0.05, 2.05], about a quarter of the pairs idle, ρ ≤ 64:
//!   `mean_interval()` never panics, and its relative error against GTH
//!   on the full chain (`mean_interval_with(Dense)`) is at most
//!   max(1e-12, 10 × the solve's error estimate), an estimate of at most
//!   1e-9. A solve accepted on its residual has no estimate and must meet
//!   1e-12 outright.
//! * **Stalled refinements.** Three skewed n = 8 models, ρ ≈ 55 and
//!   E\[X\] up to 6.9·10¹¹ ([`STALLED`]), within 1e-12 of GTH on the full
//!   chain. With standard-form products in the refinement rounds their
//!   corrections stalled at errors of 1.8e-10 to 1.0e-9.
//!
//! The domino gate is ignored in debug builds, whose unoptimised solves
//! would blow its wall-clock budget; the CI perf-smoke job runs the whole
//! file with `cargo test --release`.

use proptest::prelude::*;
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams};
use rbmarkov::solver::SolverStrategy;
use std::time::{Duration, Instant};

/// Relative tolerance of every gate here.
const RTOL: f64 = 1e-12;
/// Largest error estimate the proptest accepts.
const MAX_ESTIMATE: f64 = 1e-9;
/// Wall-clock budget of one default-path mean.
const BUDGET: Duration = Duration::from_secs(2);

/// (n, ρ, E\[X\]) with μ = 1 and λ = ρ/(n − 1), from
/// `stiff_tail_reference.py`'s `LUMPED` table.
#[rustfmt::skip]
const LUMPED: [(usize, f64, f64); 9] = [
    (12, 32.0, 227260776547456.62),
    (14, 16.0, 24006976232876.508),
    (16, 16.0, 3437747514632091.5),
    (20, 8.0, 585684308248907.6),
    (16, 8.0, 322283773112.3154),
    (9, 8.0, 765765.0),
    (10, 16.0, 1254301608.8791125),
    (11, 16.0, 14590288822.23635),
    (14, 8.0, 7727182516.799339),
];

/// The domino rows beyond the (n, ρ) grid: the ten models of ROADMAP's
/// accuracy table, then the n ≤ 8 models dense LU answered wrongly.
const ROWS: [(usize, f64); 13] = [
    (6, 16.0),
    (8, 32.0),
    (9, 8.0),
    (10, 16.0),
    (11, 16.0),
    (12, 4.0),
    (12, 8.0),
    (14, 8.0),
    (16, 2.0),
    (16, 4.0),
    (6, 32.0),
    (8, 32.0),
    (8, 64.0),
];

/// (μ, λ in upper-triangle pair order) of three skewed n = 8 models from
/// [`arb_domino_params`]'s distribution: of 400 drawn, the three whose
/// refinement stalled highest with standard-form products (E\[X\] =
/// 2.7·10¹¹, 3.7·10¹¹ and 6.9·10¹¹).
#[rustfmt::skip]
const STALLED: [([f64; 8], [f64; 28]); 3] = [
    (
        [1.9106938187417317, 0.3991265078924115, 1.5895486462611503, 1.4054582983286477,
         0.6578725858487315, 1.313189923341452, 1.8288952681157193, 0.08544579365552459],
        [15.762300023098536, 0.0, 0.0, 12.004052001252587, 4.971704358689937,
         5.328147438755235, 17.963744129532678, 8.877821580161202, 0.0, 15.191889035373007,
         13.777397748741954, 18.1962533522135, 11.906804591892536, 4.442149967136511,
         17.263438803331944, 1.4451084769332712, 15.81928033441512, 9.205487864035709,
         14.67371025493304, 1.1413708342980362, 0.0, 12.472055062722369, 0.0, 0.0,
         15.070196795876099, 0.0, 17.49667024909865, 13.6144801811348],
    ),
    (
        [0.18991218223502732, 1.4284968331796046, 1.8843115920455278, 0.13470395860621748,
         1.6518318254744226, 1.7238839070771192, 1.9878974375063696, 1.915037737719807],
        [12.547473085034099, 8.264766735178544, 29.213190702183567, 0.0, 0.0,
         14.977954821627725, 20.156101843942157, 28.26005606335854, 1.9504233590737095,
         7.475645937107577, 13.148870196180663, 0.0, 0.0, 3.2950384057063937, 0.0,
         25.44791575221854, 7.806186677771475, 26.1029022548698, 14.864929329627882,
         24.904374297299718, 6.099763179778006, 10.43947372047441, 11.530749453819139,
         3.174005683609098, 0.0, 9.5641945903687, 0.0, 23.780968295531707],
    ),
    (
        [0.07930380669971733, 1.0877535501193356, 0.913810078179484, 1.506743138579006,
         0.13325018106027903, 1.0893406450694247, 2.0427290203514152, 1.194799056659612],
        [6.840159220551428, 8.339299713606383, 0.0, 18.426161203727172, 18.093118511199027,
         2.160946045851538, 10.211679234670136, 0.0, 7.6835308006536165, 0.0,
         13.22435728008264, 3.0713602302112797, 0.0, 17.838435977124988, 2.0698530983008276,
         9.104134319981684, 0.0, 15.63259813280927, 16.655755700823384, 17.167403266812006,
         7.477687866625716, 14.070756046679326, 0.0, 4.462364699995561, 0.0,
         6.340673454641168, 4.091300826639319, 17.133134732914492],
    ),
];

fn lambda(n: usize, rho: f64) -> f64 {
    rho / (n - 1) as f64
}

#[test]
fn lumped_means_match_the_reference() {
    for (n, rho, want) in LUMPED {
        let got = mean_interval_symmetric(n, 1.0, lambda(n, rho));
        let rel = (got - want).abs() / want;
        assert!(
            rel <= RTOL,
            "n = {n}, ρ = {rho}: GTH-lumped E[X] = {got}, reference {want} ({rel:.1e} relative)"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate assumes release codegen")]
fn default_path_means_match_gth_lumped() {
    let grid = [4.0, 8.0, 16.0]
        .into_iter()
        .flat_map(|rho| (4..=12).map(move |n| (n, rho)));
    for (n, rho) in grid.chain(ROWS) {
        let p = AsyncParams::symmetric(n, 1.0, lambda(n, rho));
        let start = Instant::now();
        let got = p.mean_interval();
        let elapsed = start.elapsed();
        let want = mean_interval_symmetric(n, 1.0, lambda(n, rho));
        let rel = (got - want).abs() / want;
        eprintln!("n = {n}, ρ = {rho}: E[X] = {got:e} ({rel:.1e} relative) in {elapsed:.2?}");
        assert!(
            rel <= RTOL,
            "n = {n}, ρ = {rho}: E[X] = {got}, GTH-lumped {want} ({rel:.1e} relative)"
        );
        assert!(elapsed < BUDGET, "n = {n}, ρ = {rho}: took {elapsed:?}");
    }
}

#[test]
fn stalled_refinements_reach_working_precision() {
    for (mu, lam) in STALLED {
        let p = AsyncParams::new(mu.to_vec(), lam.to_vec()).unwrap();
        let got = p.mean_interval();
        let want = p.mean_interval_with(SolverStrategy::Dense);
        let rel = (got - want).abs() / want;
        assert!(
            rel <= RTOL,
            "μ = {mu:?}: E[X] = {got}, GTH {want} ({rel:.1e} relative)"
        );
    }
}

/// Validated models: n = 3…8, μᵢ ∈ [0.05, 2.05], every pair idle with
/// probability ¼ and otherwise drawn from [0.05, 1.05], then all pair
/// rates scaled to ρ ∈ (0, 64].
fn arb_domino_params() -> impl Strategy<Value = AsyncParams> {
    (
        3usize..9,
        prop::collection::vec(0.05f64..2.05, 8),
        prop::collection::vec(0.05f64..1.05, 28),
        prop::collection::vec(0u32..4, 28),
        0.01f64..64.0,
    )
        .prop_map(|(n, mu, lam, idle, rho)| {
            let mu = mu[..n].to_vec();
            let mut lam: Vec<f64> = lam
                .iter()
                .zip(&idle)
                .take(n * (n - 1) / 2)
                .map(|(&l, &z)| if z == 0 { 0.0 } else { l })
                .collect();
            let total: f64 = lam.iter().sum();
            if total > 0.0 {
                let scale = rho * mu.iter().sum::<f64>() / (2.0 * total);
                lam.iter_mut().for_each(|l| *l *= scale);
            }
            AsyncParams::new(mu, lam).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn refined_means_match_gth_on_the_full_chain(p in arb_domino_params()) {
        let got = p.mean_interval();
        let want = p.mean_interval_with(SolverStrategy::Dense);
        // The evidence of the very solve `mean_interval` answered from.
        let op = p.matrix_free_op();
        let (tau, outcome) = op.solve(&vec![1.0; op.n_transient()], false);
        prop_assert_eq!(tau[0].to_bits(), got.to_bits());
        let estimate = outcome.error_estimate.unwrap_or(0.0);
        let rel = (got - want).abs() / want;
        prop_assert!(estimate <= MAX_ESTIMATE, "{p:?}: {outcome:?}");
        prop_assert!(
            rel <= RTOL.max(10.0 * estimate),
            "{p:?}: E[X] = {got}, GTH {want} ({rel:.1e} relative), {outcome:?}"
        );
    }
}
