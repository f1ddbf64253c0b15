//! Figure 8 — establishment of pseudo recovery points for rollback
//! error recovery.
//!
//! The paper's figure: P₁ and P₃ establish RPs (implanting PRPs in the
//! others); P₃ fails at AT₃¹ and the system restarts from the line
//! (RP₃¹, PRP₁³, PRP₂³). This binary reconstructs the figure on the
//! history model, renders it, runs the same scenario end-to-end on the
//! threaded `RecoveryGroup` runtime, and reports the §4 overheads measured
//! by the storage model against the analytic values.

use rbanalysis::prp_overhead::prp_overhead;
use rbbench::cli::BenchArgs;
use rbbench::sweep::{SweepCell, SweepSpec};
use rbbench::workloads::PrpStorage;
use rbcore::history::{History, ProcessId};
use rbcore::render::{render_history, RenderOptions};
use rbcore::rollback::{propagate_rollback, RollbackRule};
use rbmarkov::paper::AsyncParams;
use rbruntime::RecoveryGroup;
use serde::Serialize;

fn p(i: usize) -> ProcessId {
    ProcessId(i)
}

#[derive(Serialize)]
struct Fig8Result {
    restart: Vec<f64>,
    sup_distance: f64,
    threaded_states: Vec<u64>,
    storage_peak_max: usize,
    storage_mean: f64,
    analytic_states_per_rp: usize,
    analytic_rollback_bound: f64,
    measured_time_overhead: f64,
}

fn main() {
    let args = BenchArgs::parse("fig8_prp");

    // ── The paper's Figure 8, reconstructed ───────────────────────────
    let mut h = History::new(3);
    let rp1 = h.record_rp(p(0), 1.0); // RP1^1
    h.record_prp(p(1), 1.01, rp1); // PRP21
    h.record_prp(p(2), 1.01, rp1); // PRP31
    let rp3 = h.record_rp(p(2), 2.0); // RP3^1
    h.record_prp(p(0), 2.01, rp3); // PRP13
    h.record_prp(p(1), 2.01, rp3); // PRP23
                                   // Interactions weld the set (the figure omits them; we make the
                                   // propagation explicit).
    h.record_interaction(p(2), p(0), 2.5);
    h.record_interaction(p(2), p(1), 3.0);
    let rule = RollbackRule::Prp { local: true };
    let plan = propagate_rollback(&h, p(2), 3.5, rule); // P3 fails at AT3^1
    println!(
        "{}",
        render_history(
            &h,
            &RenderOptions {
                plan: Some(plan.clone()),
                title: "Figure 8 (reconstruction): P3 fails at AT3^1; restart line = (PRP13, PRP23, RP3^1)"
                    .into(),
            }
        )
    );
    assert_eq!(plan.restart, vec![2.01, 2.01, 2.0]);

    // ── The same story on the threaded runtime ────────────────────────
    let mut group = RecoveryGroup::spawn_prp(vec![0u64, 0, 0]);
    group.mutate(0, |s| *s = 11);
    group.establish_rp(0);
    group.mutate(2, |s| *s = 33);
    group.establish_rp(2);
    group.send(2, 0, |s| *s += 1, |s| *s += 1);
    group.send(2, 1, |s| *s += 1, |s| *s += 1);
    let tplan = group.recover(2, rule);
    let threaded_states: Vec<u64> = (0..3).map(|i| group.read_state(i)).collect();
    println!(
        "threaded RecoveryGroup (PRP): restart states after P3's failure = {threaded_states:?} \
         (P1 keeps its pre-PRP value, P3 back to its RP)"
    );
    assert_eq!(threaded_states, vec![11, 0, 33]);
    assert!(tplan.rolled_back[2]);
    group.shutdown();

    // ── §4 overheads: measured vs analytic (one sweep cell) ──────────
    let params = AsyncParams::symmetric(3, 1.0, 1.0);
    let t_r = 1e-3;
    let spec = SweepSpec::new(
        "fig8_prp_sweep",
        args.master_seed(8),
        vec![SweepCell::named(
            "storage",
            PrpStorage {
                params: params.clone(),
                horizon: 2_000.0,
                t_r,
            },
        )],
    );
    let report = args.run_sweep(&spec);
    let storage = report.cell("storage").expect("storage cell ran");
    let analytic = prp_overhead(params.mu(), t_r);
    println!("\n§4 overheads (μ = λ = 1, t_r = {t_r}):");
    println!(
        "  states per RP: analytic {} (1 RP + {} PRPs)",
        analytic.states_per_rp,
        analytic.states_per_rp - 1
    );
    let peak_max = storage.value("peak_live_max");
    let mean_live = storage.value("mean_live_states");
    println!("  live states per process: peak {peak_max}, mean {mean_live:.2} (bound: n = 3)");
    let total_rps = storage.value("rps_total") as u64;
    let time_overhead = storage.value("prp_time_overhead");
    println!(
        "  PRP recording time: measured {time_overhead:.3} over {total_rps} RPs \
         (analytic (n−1)·t_r·RPs = {:.3})",
        (3 - 1) as f64 * t_r * total_rps as f64
    );
    println!(
        "  rollback-distance bound E[max yᵢ] = {:.4}",
        analytic.rollback_bound
    );
    assert!(peak_max <= 3.0);
    assert_eq!(
        storage.value("prps_total"),
        storage.value("rps_total") * 2.0,
        "n−1 = 2 PRPs per RP"
    );

    args.emit_json(
        "fig8_prp",
        &Fig8Result {
            sup_distance: plan.sup_distance(),
            restart: plan.restart,
            threaded_states,
            storage_peak_max: peak_max as usize,
            storage_mean: mean_live,
            analytic_states_per_rp: analytic.states_per_rp,
            analytic_rollback_bound: analytic.rollback_bound,
            measured_time_overhead: time_overhead,
        },
    );
}
