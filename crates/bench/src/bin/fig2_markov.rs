//! Figure 2 — the continuous-time Markov model for three concurrent
//! processes (transition rules R1–R4).
//!
//! Prints the full state space and tagged transition list of the flag
//! chain for n = 3, plus structural audits: state count 2ⁿ+1, exit
//! rates, generator row sums, and the E\[X\] the chain yields. The
//! audit runs as a **binary-local** [`Workload`] on the sweep engine —
//! the open-trait seam means a one-off figure check needs no engine or
//! core changes — and a **matrix-free scaling sweep**
//! ([`rbbench::workloads::MatrixFreeLumpability`]) solves the same chain
//! without materialising it at n = 8 and 12, sizes a CSR chain still
//! reaches. `fig3_markov` carries the same workload on to n = 20
//! (2²⁰+1 states).

use rbbench::cli::BenchArgs;
use rbbench::sweep::{Metric, SweepCell, SweepSpec, Workload};
use rbbench::workloads::MatrixFreeLumpability;
use rbcore::workload::canon_async_params;
use rbmarkov::paper::{AsyncParams, Rule};
use serde::Serialize;

/// Structural audit of the full flag chain: state count, transition
/// count, and the absorption-solve E\[X\] (all exact — the seed is
/// unused).
struct ChainAudit {
    params: AsyncParams,
}

impl Workload for ChainAudit {
    fn label(&self) -> String {
        format!("chain-audit/n{}", self.params.n())
    }

    fn cache_params(&self) -> Option<String> {
        Some(canon_async_params(&self.params))
    }

    fn run(&self, _seed: u64) -> Vec<Metric> {
        let chain = self.params.build_full_chain();
        vec![
            Metric::exact("n_states", chain.n_states() as f64),
            Metric::exact("n_transitions", chain.transitions.len() as f64),
            Metric::exact("mean_interval", chain.mean_interval()),
        ]
    }
}

#[derive(Serialize)]
struct Edge {
    from: String,
    to: String,
    rate: f64,
    rule: String,
}

#[derive(Serialize)]
struct ScalingRow {
    n: usize,
    n_states: u64,
    ex_matfree: f64,
    ex_lumped: f64,
    rel_err: f64,
}

#[derive(Serialize)]
struct Fig2Result {
    n_states: usize,
    n_transitions: usize,
    mean_interval: f64,
    edges: Vec<Edge>,
    /// Matrix-free large-n extension: the same chain at 2ⁿ+1 states.
    matrix_free_scaling: Vec<ScalingRow>,
}

/// The matrix-free sweep sizes, both within CSR reach; the large sizes
/// are `fig3_markov`'s (n = 14…20).
const SCALING_NS: [usize; 2] = [8, 12];

fn main() {
    let args = BenchArgs::parse("fig2_markov");
    let params = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
    let chain = params.build_full_chain();

    // The structural audit plus the matrix-free scaling points, fanned
    // out as sweep cells (local workloads).
    let mut cells = vec![SweepCell::new(ChainAudit {
        params: params.clone(),
    })];
    for n in SCALING_NS {
        cells.push(SweepCell::named(
            format!("matfree/n{n}"),
            MatrixFreeLumpability { n },
        ));
    }
    let spec = SweepSpec::new("fig2_markov_sweep", args.master_seed(2), cells);
    let report = args.run_sweep(&spec);
    let audit = report.cell("chain-audit/n3").expect("audit cell ran");

    println!("Figure 2 — full flag chain for n = 3 (states: S_r, (x1x2x3), S_r+1)\n");
    println!("states ({} total):", chain.n_states());
    for s in 0..chain.n_states() {
        let absorbing = if chain.ctmc.is_absorbing(s) {
            "  [absorbing]"
        } else {
            ""
        };
        println!(
            "  {:>2}  {:<10} exit rate {:>6.3}{}",
            s,
            chain.state_label(s),
            chain.ctmc.exit_rate(s),
            absorbing
        );
    }

    println!("\ntransitions (rate-tagged with the paper's rules):");
    let mut edges = Vec::new();
    for &(from, to, rate, rule) in &chain.transitions {
        let rule_str = match rule {
            Rule::R1 { p } => format!("R1 (RP in P{})", p + 1),
            Rule::R2 { pair } => format!("R2 (interaction P{}–P{})", pair.0 + 1, pair.1 + 1),
            Rule::R3 { mover, partner } => {
                format!("R3 (P{} flag cleared by P{})", mover + 1, partner + 1)
            }
            Rule::R4 => "R4 (direct S_r → S_r+1)".to_string(),
        };
        println!(
            "  {:<10} → {:<10} rate {:>5.2}   {}",
            chain.state_label(from),
            chain.state_label(to),
            rate,
            rule_str
        );
        edges.push(Edge {
            from: chain.state_label(from),
            to: chain.state_label(to),
            rate,
            rule: rule_str,
        });
    }

    let ex = audit.value("mean_interval");
    println!("\nE[X] from this chain = {ex:.6}");
    assert_eq!(audit.value("n_states"), 9.0, "2^3 + 1 states");
    assert_eq!(audit.value("n_transitions"), chain.transitions.len() as f64);

    println!("\nmatrix-free scaling (same chain, never materialised; ρ = 1):");
    report.assert_ok();
    let mut scaling = Vec::new();
    for n in SCALING_NS {
        let cell = report.cell(&format!("matfree/n{n}")).expect("cell ran");
        let ex_mf = cell.value("EX_matfree");
        let ex_lumped = cell.value("EX_lumped");
        let rel = (ex_mf - ex_lumped).abs() / ex_lumped;
        println!(
            "  n = {n:>2}: {:>9} states  E[X] = {ex_mf:>14.6}  (lumped {ex_lumped:>14.6}, rel err {rel:.2e})",
            cell.value("n_states") as u64
        );
        scaling.push(ScalingRow {
            n,
            n_states: cell.value("n_states") as u64,
            ex_matfree: ex_mf,
            ex_lumped,
            rel_err: rel,
        });
    }

    args.emit_json(
        "fig2_markov",
        &Fig2Result {
            n_states: audit.value("n_states") as usize,
            n_transitions: audit.value("n_transitions") as usize,
            mean_interval: ex,
            edges,
            matrix_free_scaling: scaling,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_audit_cache_params_bind_the_rates() {
        let key = |lambda| {
            ChainAudit {
                params: AsyncParams::symmetric(3, 1.0, lambda),
            }
            .cache_params()
            .expect("cacheable")
        };
        assert_ne!(key(1.0), key(1.5));
    }
}
