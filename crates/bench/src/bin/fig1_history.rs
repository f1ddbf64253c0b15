//! Figure 1 — a history diagram of interactions and recovery points,
//! with rollback propagation from a failed acceptance test.
//!
//! The paper's figure: P₁ fails at AT₁⁴; the rollback propagates
//! through P₂ and P₃ until recovery line RL₂; everything after RL₂ is
//! discarded (the rollback distance). This binary replays a faithful
//! deterministic reconstruction, then a seeded random history from the
//! paper's stochastic model, rendering both. The stochastic audit runs
//! as a [`rbbench::workloads::HistoryAudit`] sweep cell; the rendering
//! regenerates the same history from the cell's derived seed, so the
//! diagram and the metrics describe the same sample path.

use rbbench::cli::BenchArgs;
use rbbench::sweep::{SweepCell, SweepSpec};
use rbbench::workloads::HistoryAudit;
use rbcore::history::{History, ProcessId};
use rbcore::recovery_line::find_recovery_lines;
use rbcore::render::{render_history, RenderOptions};
use rbcore::rollback::{propagate_rollback, RollbackRule};
use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use rbmarkov::paper::AsyncParams;
use rbsim::derive_seed;
use serde::Serialize;

fn p(i: usize) -> ProcessId {
    ProcessId(i)
}

#[derive(Serialize)]
struct Fig1Result {
    deterministic_restart: Vec<f64>,
    deterministic_distance: f64,
    random_restart: Vec<f64>,
    random_distance: f64,
    random_lines_formed: usize,
}

fn main() {
    let args = BenchArgs::parse("fig1_history");

    // ── The paper's Figure 1, reconstructed ───────────────────────────
    let mut h = History::new(3);
    h.record_rp(p(0), 1.0); // toward RL1
    h.record_rp(p(1), 1.1);
    h.record_rp(p(2), 1.2); // RL1 forms
    h.record_interaction(p(0), p(1), 1.5);
    h.record_rp(p(0), 2.0); // toward RL2
    h.record_rp(p(1), 2.1);
    h.record_rp(p(2), 2.2); // RL2 forms
    h.record_interaction(p(0), p(1), 2.5); // X-region interactions
    h.record_rp(p(1), 2.6);
    h.record_interaction(p(1), p(2), 2.8);
    h.record_rp(p(2), 3.0);
    h.record_interaction(p(0), p(2), 3.3);
    h.record_rp(p(0), 3.6); // P1's AT4 — fails
    let plan = propagate_rollback(&h, p(0), 3.6, RollbackRule::Symmetric);
    println!(
        "{}",
        render_history(
            &h,
            &RenderOptions {
                plan: Some(plan.clone()),
                title: "Figure 1 (reconstruction): P1 fails at AT1^4, system restarts at RL2"
                    .into(),
            }
        )
    );

    // ── A seeded history from the stochastic model, as a sweep cell ──
    let params = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
    let master = args.master_seed(1983);
    let horizon = 6.0;
    let spec = SweepSpec::new(
        "fig1_history_sweep",
        master,
        vec![SweepCell::named(
            "random-history",
            HistoryAudit {
                params: params.clone(),
                horizon,
            },
        )],
    );
    let report = args.run_sweep(&spec);
    let cell = report.cell("random-history").expect("cell ran");

    // Regenerate the cell's exact sample path for rendering: cell 0's
    // seed is derive_seed(master, 0) — the engine's seeding contract.
    let mut scheme = AsyncScheme::new(AsyncConfig::new(params), derive_seed(master, 0));
    let hr = scheme.generate_history(horizon);
    let detected_at = hr.horizon();
    let plan_r = propagate_rollback(&hr, p(0), detected_at, RollbackRule::Symmetric);
    let lines = find_recovery_lines(&hr);
    println!(
        "{}",
        render_history(
            &hr,
            &RenderOptions {
                plan: Some(plan_r.clone()),
                title: format!(
                    "seeded random history (μ = λ = 1): {} recovery lines formed before the failure",
                    lines.len() - 1
                ),
            }
        )
    );
    // The rendered path and the sweep cell must describe the same
    // sample: the workload is a pure function of the derived seed.
    assert_eq!(cell.value("lines_formed"), (lines.len() - 1) as f64);
    assert_eq!(cell.value("sup_distance"), plan_r.sup_distance());

    args.emit_json(
        "fig1_history",
        &Fig1Result {
            deterministic_restart: plan.restart.clone(),
            deterministic_distance: plan.sup_distance(),
            random_restart: plan_r.restart.clone(),
            random_distance: cell.value("sup_distance"),
            random_lines_formed: cell.value("lines_formed") as usize,
        },
    );
}
