//! Figure 3 — the simplified (lumped) Markov chain for homogeneous
//! parameters (rules R1′–R4′).
//!
//! Prints the aggregated chain S_r, S̃₀, …, S̃ₙ₋₁, S_{r+1} and verifies
//! exact lumpability: the full 2ⁿ+1-state chain and the n+2-state
//! aggregate produce identical E\[X\] and f_X(t). The verification now
//! runs at **two scales**: the materialised chain for small n, and —
//! via the shared [`rbbench::workloads::MatrixFreeLumpability`]
//! workload — the matrix-free Krylov solve of the *full* 2ⁿ+1-state
//! chain up to n = 20, the lumpability theorem checked on a million
//! states. The audits and scaling curves run as [`Workload`]s on the
//! parallel sweep engine — each scaling n is its own cell, so the
//! expensive solves fan out over cores.

use rbbench::cli::BenchArgs;
use rbbench::sweep::{Metric, SweepCell, SweepSpec, Workload};
use rbbench::workloads::MatrixFreeLumpability;
use rbcore::workload::canon_f64;
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams, SymmetricChain};
use serde::Serialize;

/// Exact-lumpability audit: solve the full 2ⁿ+1-state chain and the
/// n+2-state aggregate, compare E\[X\] and the density over a t grid.
struct LumpabilityAudit {
    n: usize,
    mu: f64,
    lambda: f64,
}

impl Workload for LumpabilityAudit {
    fn label(&self) -> String {
        format!("lumpability/n{}", self.n)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "n={};mu={};lambda={}",
            self.n,
            canon_f64(self.mu),
            canon_f64(self.lambda)
        ))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        let full = AsyncParams::symmetric(self.n, self.mu, self.lambda).build_full_chain();
        let lumped = SymmetricChain::build(self.n, self.mu, self.lambda);
        let ts: Vec<f64> = (0..=100).map(|k| k as f64 * 0.05).collect();
        let f_full = full.interval_density(&ts);
        let f_lumped = lumped.interval_density(&ts);
        let max_diff = f_full
            .iter()
            .zip(&f_lumped)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        vec![
            Metric::exact("n_states_full", full.n_states() as f64),
            Metric::exact("ex_full", full.mean_interval()),
            Metric::exact("ex_lumped", lumped.mean_interval()),
            Metric::exact("density_max_abs_diff", max_diff),
        ]
    }
}

/// One point of the large-n scaling curve through the lumped solver.
struct ScalingPoint {
    n: usize,
    mu: f64,
    lambda: f64,
}

impl Workload for ScalingPoint {
    fn label(&self) -> String {
        format!("scaling/n{}", self.n)
    }

    fn cache_params(&self) -> Option<String> {
        Some(format!(
            "n={};mu={};lambda={}",
            self.n,
            canon_f64(self.mu),
            canon_f64(self.lambda)
        ))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        vec![Metric::exact(
            "EX",
            mean_interval_symmetric(self.n, self.mu, self.lambda),
        )]
    }
}

#[derive(Serialize)]
struct LargeNRow {
    n: usize,
    n_states_full: u64,
    ex_full_matfree: f64,
    ex_lumped: f64,
    rel_err: f64,
}

#[derive(Serialize)]
struct Fig3Result {
    n: usize,
    mu: f64,
    lambda: f64,
    n_states_full: usize,
    n_states_lumped: usize,
    ex_full: f64,
    ex_lumped: f64,
    density_max_abs_diff: f64,
    /// Lumpability re-verified at 2ⁿ+1 states via the matrix-free solver.
    large_n_lumpability: Vec<LargeNRow>,
}

/// Sizes of the matrix-free lumpability sweep — all far beyond what a
/// dense solve of the materialised chain could hold, topping out at
/// 2²⁰+1.
const LARGE_NS: [usize; 4] = [14, 16, 18, 20];

fn main() {
    let args = BenchArgs::parse("fig3_markov");
    let (n, mu, lambda) = (3usize, 1.0, 1.0);
    let chain = SymmetricChain::build(n, mu, lambda);
    let scaling_ns = [4usize, 6, 8, 12, 14];

    // The audit plus one cell per scaling point, fanned out in parallel.
    let mut cells = vec![SweepCell::new(LumpabilityAudit { n, mu, lambda })];
    for nn in scaling_ns {
        cells.push(SweepCell::new(ScalingPoint { n: nn, mu, lambda }));
    }
    for nn in LARGE_NS {
        // The matrix-free lumpability workload (fig2_markov sweeps it at
        // n = 8 and 12), under this binary's historical cell ids.
        cells.push(SweepCell::named(
            format!("lumpability-large/n{nn}"),
            MatrixFreeLumpability { n: nn },
        ));
    }
    let spec = SweepSpec::new("fig3_markov_sweep", args.master_seed(3), cells);
    let report = args.run_sweep(&spec);

    println!("Figure 3 — lumped chain for n = {n}, μ = {mu}, λ = {lambda}\n");
    let label = |s: usize| -> String {
        if s == 0 {
            "S_r".into()
        } else if s == n + 1 {
            "S_{r+1}".into()
        } else {
            format!("S~_{}", s - 1)
        }
    };
    println!("states ({}):", n + 2);
    for s in 0..n + 2 {
        println!(
            "  {:<8} exit rate {:>6.3}{}",
            label(s),
            chain.ctmc.exit_rate(s),
            if chain.ctmc.is_absorbing(s) {
                "  [absorbing]"
            } else {
                ""
            }
        );
    }
    println!("\ntransitions:");
    for &(from, to, rate, rule) in &chain.transitions {
        println!(
            "  {:<8} → {:<8} rate {:>5.2}   {}",
            label(from),
            label(to),
            rate,
            rule
        );
    }

    // Lumpability audit against the full chain (from the sweep cell).
    let audit = report
        .cell(&format!("lumpability/n{n}"))
        .expect("audit ran");
    let ex_full = audit.value("ex_full");
    let ex_lumped = audit.value("ex_lumped");
    let max_diff = audit.value("density_max_abs_diff");
    let n_states_full = audit.value("n_states_full") as usize;

    println!("\nlumpability audit:");
    println!("  E[X] full ({n_states_full} states)   = {ex_full:.9}");
    println!("  E[X] lumped ({} states) = {ex_lumped:.9}", n + 2);
    println!("  max |f_full − f_lumped| over t ∈ [0,5] = {max_diff:.2e}");
    assert!((ex_full - ex_lumped).abs() < 1e-9);
    assert!(max_diff < 1e-8);

    println!("\nscaling (lumped chain enables large n):");
    // Beyond n ≈ 14 at ρ = n−1 the mean interval exceeds ~1e12 and
    // (−Q_TT) approaches numerical singularity — the domino regime
    // where recovery lines effectively never form.
    for nn in scaling_ns {
        let cell = report.cell(&format!("scaling/n{nn}")).expect("cell ran");
        println!("  n = {nn:>2}: E[X] = {:.4e}", cell.value("EX"));
    }

    println!("\nlumpability at scale (full chain matrix-free, ρ = 1):");
    report.assert_ok();
    let mut large_rows = Vec::new();
    for nn in LARGE_NS {
        let cell = report
            .cell(&format!("lumpability-large/n{nn}"))
            .expect("cell ran");
        let full_mf = cell.value("EX_matfree");
        let lump = cell.value("EX_lumped");
        let rel = (full_mf - lump).abs() / lump;
        println!(
            "  n = {nn:>2}: {:>9} states  E[X] full = {full_mf:>12.6}  lumped = {lump:>12.6}  rel err {rel:.2e}",
            (1u64 << nn) + 1
        );
        large_rows.push(LargeNRow {
            n: nn,
            n_states_full: (1u64 << nn) + 1,
            ex_full_matfree: full_mf,
            ex_lumped: lump,
            rel_err: rel,
        });
    }

    args.emit_json(
        "fig3_markov",
        &Fig3Result {
            n,
            mu,
            lambda,
            n_states_full,
            n_states_lumped: n + 2,
            ex_full,
            ex_lumped,
            density_max_abs_diff: max_diff,
            large_n_lumpability: large_rows,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_and_scaling_cache_params_bind_every_field() {
        type Key = fn(usize, f64, f64) -> Option<String>;
        let audit: Key = |n, mu, lambda| LumpabilityAudit { n, mu, lambda }.cache_params();
        let point: Key = |n, mu, lambda| ScalingPoint { n, mu, lambda }.cache_params();
        for key in [audit, point] {
            let base = key(3, 1.0, 1.0).expect("cacheable");
            for flip in [key(4, 1.0, 1.0), key(3, 2.0, 1.0), key(3, 1.0, 2.0)] {
                assert_ne!(Some(&base), flip.as_ref());
            }
        }
    }
}
