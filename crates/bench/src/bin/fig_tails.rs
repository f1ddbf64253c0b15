//! Deep interval tails — multilevel splitting vs the exact survival
//! oracle.
//!
//! The paper's availability story turns on how often recovery-line
//! formation takes *pathologically long*: the tail P(X > t) at the
//! 10⁻⁶–10⁻¹² levels. Naive Monte Carlo is blind there, so this binary
//! runs fixed-effort multilevel splitting (`rbsim::splitting` through
//! `rbcore::tail::FlagChainPath`) over several scenarios × tail
//! depths, and gates every estimate against the exact matrix-free
//! survival oracle — each sweep cell carries its own
//! `tail/splitting-vs-matfree-cdf` verdict.
//!
//! Flags beyond the shared set:
//!
//! * `--splitting <trials>` — trials per splitting level (default
//!   4096);
//! * `--adaptive <budget>` — additionally refine the tail-quantile
//!   curve t*(λ) (the `tail/threshold` metric) over a λ axis with the
//!   adaptive engine (`rbbench::adaptive`) under the given cell
//!   budget, emitting a second artifact `fig_tails_adaptive`; with
//!   `--cache <dir>` every refinement round goes through the result
//!   cache, so a killed refinement resumes where it stopped.

use rbbench::adaptive::AdaptiveSpec;
use rbbench::cli::BenchArgs;
use rbbench::sweep::{SweepCell, SweepSpec};
use rbbench::Table;
use rbcore::tail::SplittingTail;
use rbmarkov::paper::AsyncParams;

/// Gate width in reported relative errors (matches
/// `rbtestutil::TailGate::deep`).
const GATE_Z: f64 = 5.0;

/// Levels targeting a per-level survival fraction of roughly 0.2.
fn auto_levels(p_target: f64) -> usize {
    (p_target.ln() / 0.2f64.ln()).ceil().max(1.0) as usize
}

fn scenarios() -> Vec<(&'static str, AsyncParams)> {
    vec![
        ("sym-n3", AsyncParams::symmetric(3, 1.0, 1.0)),
        (
            "skew-n3",
            AsyncParams::new(vec![0.6, 0.85, 1.1], vec![0.15, 0.25, 0.35]).unwrap(),
        ),
        // λ = 0: the tail is exactly e^{−Σμ·t}, so the oracle itself is
        // closed-form-checkable here.
        ("decoupled-n4", AsyncParams::symmetric(4, 1.0, 0.0)),
    ]
}

fn main() {
    let args = BenchArgs::parse("fig_tails");
    let trials = args.splitting.unwrap_or(4_096);
    let targets = [1e-6, 1e-9, 1e-12];

    let mut cells = Vec::new();
    for (name, params) in scenarios() {
        for &p in &targets {
            cells.push(SweepCell::named(
                format!("{name}/p{:e}", p),
                SplittingTail::new(
                    format!("{name}/p{:e}", p),
                    params.clone(),
                    p,
                    auto_levels(p),
                    trials,
                    GATE_Z,
                ),
            ));
        }
    }
    let spec = SweepSpec::new("fig_tails_sweep", args.master_seed(0x7A11_1983), cells);
    let report = args.run_sweep(&spec);

    println!("Deep tails — splitting vs exact matrix-free survival ({trials} trials/level)\n");
    let table = Table::new(12, &["cell", "t*", "p exact", "p-hat", "rel err", "gate"]);
    table.print_header();
    for cell in &report.cells {
        let gate = cell.metric("tail/splitting-vs-matfree-cdf").unwrap();
        table.print_row(&[
            cell.id.clone(),
            format!("{:.3}", cell.value("tail/threshold")),
            format!("{:.3e}", cell.value("tail/p_exact")),
            format!("{:.3e}", cell.value("tail/p_hat")),
            format!("{:.3}", cell.value("tail/rel_err")),
            if gate.ok() {
                "pass".into()
            } else {
                "FAIL".into()
            },
        ]);
    }

    // Every estimate must agree with the exact oracle within its own
    // reported error band — the same gate CI enforces.
    report.assert_ok();
    args.emit_json("fig_tails", &report);

    if let Some(budget) = args.adaptive {
        // Refine the deep-tail quantile curve t*(λ) — the time by which
        // P(X > t) has fallen to p — over the interaction-rate axis.
        // The curve steepens sharply as coupling grows (rollback
        // propagation delays recovery-line formation), and the adaptive
        // engine concentrates its budget exactly there; every refined
        // cell still runs the splitting estimator and carries the
        // oracle gate.
        let p_profile = 1e-6;
        let spec = AdaptiveSpec::new(
            "fig_tails_adaptive",
            args.master_seed(0x7A11_1983),
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
            "tail/threshold",
            5.0,
            budget,
            Box::new(move |lambda| {
                Box::new(SplittingTail::new(
                    format!("lam{lambda}"),
                    AsyncParams::symmetric(3, 1.0, lambda),
                    p_profile,
                    auto_levels(p_profile),
                    trials,
                    GATE_Z,
                ))
            }),
        )
        .with_max_depth(8);
        let refined = match args.open_cache() {
            None => spec.run(args.threads()),
            Some(cache) => spec.run_cached(args.threads(), &cache),
        };
        println!(
            "\nAdaptive λ profile of the tail quantile t*(λ) at p = {p_profile:e} \
             ({} points, budget {budget}, converged: {})",
            refined.points.len(),
            refined.converged
        );
        let table = Table::new(12, &["lambda", "t*", "depth", "round"]);
        table.print_header();
        for p in &refined.points {
            table.print_row(&[
                format!("{:.5}", p.x),
                format!("{:.4}", p.value),
                format!("{}", p.depth),
                format!("{}", p.round),
            ]);
        }
        for round in &refined.rounds {
            round.assert_ok();
        }
        args.emit_json("fig_tails_adaptive", &refined);
    }
}
