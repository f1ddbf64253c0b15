//! The deterministic scenario-matrix generator.
//!
//! A scenario fixes the model parameters of one conformance run: the
//! per-process recovery-point rates μᵢ, the pairwise interaction rates
//! λᵢⱼ, and the seed the simulation paths use. The standard matrix
//! combines:
//!
//! * a **symmetric grid** — homogeneous (n, μ, λ) combinations spanning
//!   sparse to dense interaction regimes;
//! * **skewed draws** — seeded random μ/λ vectors, reproducing the
//!   paper's Table 1 interest in unbalanced rate distributions;
//! * **degenerate corners** — λ = 0 (the chain reduces to a first-RP
//!   race, X ~ Exp(Σμ)), high ρ (interaction-dominated, the domino
//!   regime), and near-degenerate rate skews.
//!
//! Everything is a pure function of the master seed, so a failing grid
//! point reproduces exactly from its scenario id.

use rbmarkov::paper::AsyncParams;
use rbsim::{SimRng, StreamId};

/// How a scenario was constructed (useful when triaging a failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Homogeneous rates from the symmetric grid.
    Symmetric,
    /// Seeded random heterogeneous rates.
    Skewed,
    /// A boundary/degenerate configuration.
    Corner,
}

/// One grid point of the conformance matrix.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable identifier, e.g. `sym/n3/mu1.0/lam0.25`.
    pub id: String,
    /// How it was constructed.
    pub kind: ScenarioKind,
    /// Per-process RP rates μᵢ (length n ≥ 2).
    pub mu: Vec<f64>,
    /// Upper-triangular pairwise rates λᵢⱼ in [`AsyncParams::new`]
    /// order.
    pub lambda: Vec<f64>,
    /// Master seed for the simulation paths of this scenario.
    pub seed: u64,
}

impl Scenario {
    /// The validated model parameters.
    pub fn params(&self) -> AsyncParams {
        AsyncParams::new(self.mu.clone(), self.lambda.clone())
            .expect("scenario matrix only generates valid parameters")
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.mu.len()
    }

    /// The paper's interaction density ρ.
    pub fn rho(&self) -> f64 {
        self.params().rho()
    }

    /// Whether all μ are equal and all λ are equal (enables the lumped
    /// symmetric-chain analysis path).
    pub fn is_symmetric(&self) -> bool {
        let mu_eq = self.mu.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12);
        let lam_eq = self.lambda.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12);
        mu_eq && lam_eq
    }
}

fn symmetric(n: usize, mu: f64, lambda: f64, seed: u64) -> Scenario {
    Scenario {
        id: format!("sym/n{n}/mu{mu}/lam{lambda}"),
        kind: ScenarioKind::Symmetric,
        mu: vec![mu; n],
        lambda: vec![lambda; n * (n - 1) / 2],
        seed,
    }
}

fn corner(id: &str, mu: Vec<f64>, lambda: Vec<f64>, seed: u64) -> Scenario {
    Scenario {
        id: format!("corner/{id}"),
        kind: ScenarioKind::Corner,
        mu,
        lambda,
        seed,
    }
}

/// Draws a skewed scenario: μᵢ log-uniform-ish in [0.4, 2.2], λᵢⱼ
/// uniform in [0, 1.6] with occasional zeros (severed pairs).
fn skewed(n: usize, index: usize, master_seed: u64) -> Scenario {
    let mut rng = SimRng::new(
        master_seed ^ (0xA5A5_0000 + index as u64),
        StreamId::WORKLOAD,
    );
    let mu: Vec<f64> = (0..n).map(|_| 0.4 + 1.8 * rng.uniform()).collect();
    let lambda: Vec<f64> = (0..n * (n - 1) / 2)
        .map(|_| {
            if rng.bernoulli(0.15) {
                0.0 // severed pair: exercises zero-rate edges
            } else {
                0.1 + 1.5 * rng.uniform()
            }
        })
        .collect();
    Scenario {
        id: format!("skew/n{n}/draw{index}"),
        kind: ScenarioKind::Skewed,
        mu,
        lambda,
        seed: master_seed.wrapping_add(7919 * index as u64),
    }
}

/// The standard conformance matrix: ≥ 20 grid points, deterministic in
/// `master_seed`.
pub fn standard_matrix(master_seed: u64) -> Vec<Scenario> {
    let mut m = Vec::new();

    // Symmetric grid: n × (μ, λ) spanning ρ from 0.25 to 8.
    for &n in &[2usize, 3, 4] {
        for &(mu, lambda) in &[(1.0, 0.25), (1.0, 1.0), (0.7, 2.0)] {
            m.push(symmetric(n, mu, lambda, master_seed ^ (n as u64 * 31)));
        }
    }
    // One larger-n point (2⁵+1-state full chain vs n+2-state lumped).
    m.push(symmetric(5, 1.0, 0.5, master_seed ^ 0x5151));

    // Skewed draws.
    for k in 0..5 {
        m.push(skewed(3, k, master_seed));
    }
    m.push(skewed(4, 5, master_seed));
    m.push(skewed(4, 6, master_seed));

    // Corners.
    // λ = 0: no interactions — X ~ Exp(Σμ) exactly.
    m.push(corner(
        "no-interaction",
        vec![1.0, 2.0, 3.0],
        vec![0.0, 0.0, 0.0],
        master_seed ^ 0xC0,
    ));
    // High ρ: interaction-dominated (ρ = 24) — long intervals, the
    // regime where the recovery-line chain is slowest to absorb.
    m.push(corner(
        "high-rho",
        vec![0.25; 3],
        vec![1.0; 3],
        master_seed ^ 0xC1,
    ));
    // Extreme μ skew: one near-stalled process gates the line.
    m.push(corner(
        "stalled-process",
        vec![2.0, 2.0, 0.05],
        vec![0.3, 0.3, 0.3],
        master_seed ^ 0xC2,
    ));
    // Minimal system: n = 2, the smallest cooperating set.
    m.push(corner(
        "pairwise-minimal",
        vec![1.0, 1.0],
        vec![1.0],
        master_seed ^ 0xC3,
    ));

    m
}

/// Degenerate single-process rate sets for the synchronized/PRP paths
/// (the async recovery-line model needs n ≥ 2, but §3's waiting loss is
/// defined — and zero — for n = 1).
pub fn single_process_mus() -> Vec<Vec<f64>> {
    vec![vec![1.0], vec![0.2], vec![5.0]]
}

/// The large-n distribution scenario: n = 14 (2¹⁴ + 1 chain states,
/// homogeneous rates at ρ = 0.5) — far past the dense cap, so its
/// analytic CDF comes from the matrix-free operator. Kept out of
/// [`standard_matrix`] because the full per-scheme battery builds split
/// chains and dense solves that do not scale to this n; the
/// distribution gate runs it through
/// `SchemeConformance::check_interval_distribution`, whose CDF is the
/// default matrix-free one (see `tests/distribution_conformance.rs`).
pub fn matfree_large_scenario(master_seed: u64) -> Scenario {
    let n = 14usize;
    // ρ = 0.5: interaction-coupled enough that all 2¹⁴ masks carry
    // mass, but fast-mixing — the uniformization pass behind the
    // batched CDF costs Λ·(mixing time) jump steps, and ρ ≥ 1 at this n
    // pushes that past any reasonable CI wall-clock budget.
    Scenario {
        id: "large/matfree-n14".into(),
        kind: ScenarioKind::Corner,
        mu: vec![1.0; n],
        lambda: vec![0.5 / (n as f64 - 1.0); n * (n - 1) / 2],
        seed: master_seed ^ 0x14D1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_at_least_20_points_and_stable_ids() {
        let m = standard_matrix(42);
        assert!(m.len() >= 20, "only {} scenarios", m.len());
        let ids: std::collections::HashSet<_> = m.iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids.len(), m.len(), "duplicate scenario ids");
    }

    #[test]
    fn matrix_is_deterministic_in_seed() {
        let a = standard_matrix(42);
        let b = standard_matrix(42);
        let c = standard_matrix(43);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mu, y.mu);
            assert_eq!(x.lambda, y.lambda);
            assert_eq!(x.seed, y.seed);
        }
        // A different master seed must actually change the skewed draws.
        let skew_a = a.iter().find(|s| s.kind == ScenarioKind::Skewed).unwrap();
        let skew_c = c.iter().find(|s| s.kind == ScenarioKind::Skewed).unwrap();
        assert_ne!(skew_a.mu, skew_c.mu);
    }

    #[test]
    fn all_scenarios_validate_and_cover_the_kinds() {
        let m = standard_matrix(7);
        for s in &m {
            let p = s.params();
            assert_eq!(p.n(), s.n());
            assert!(s.rho() >= 0.0);
        }
        for kind in [
            ScenarioKind::Symmetric,
            ScenarioKind::Skewed,
            ScenarioKind::Corner,
        ] {
            assert!(m.iter().any(|s| s.kind == kind), "missing {kind:?}");
        }
        assert!(m.iter().any(|s| s.rho() > 8.0), "no high-ρ corner");
        assert!(
            m.iter().any(|s| s.lambda.iter().all(|&l| l == 0.0)),
            "no λ=0 corner"
        );
    }

    #[test]
    fn symmetry_detection() {
        let m = standard_matrix(1);
        assert!(m.iter().filter(|s| s.is_symmetric()).count() >= 10);
        assert!(m.iter().any(|s| !s.is_symmetric()));
    }
}
