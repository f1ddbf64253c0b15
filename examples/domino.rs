//! The domino effect, live — and the two ways the paper defuses it.
//!
//! "In the worst case, an avalanche of rollback propagation (called the
//! domino effect) can push the processes back to their beginnings,
//! thus resulting in loss of the entire computation done prior to the
//! error occurrence."
//!
//! This example builds one adversarial history (sparse checkpoints,
//! dense interactions), injects the same failure, and recovers three
//! ways: asynchronously (domino), with pseudo recovery points
//! (bounded), and shows what the synchronized scheme would have paid to
//! prevent it outright. It then quantifies the comparison over
//! thousands of randomized episodes.
//!
//! Run with: `cargo run --release --example domino`

use recovery_blocks::core::fault::FaultConfig;
use recovery_blocks::core::history::{History, ProcessId};
use recovery_blocks::core::render::{render_history, RenderOptions};
use recovery_blocks::core::rollback::{propagate_rollback, RollbackRule};
use recovery_blocks::core::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use recovery_blocks::core::schemes::prp::{PrpConfig, PrpScheme};
use recovery_blocks::core::schemes::synchronized::simulate_commit_losses;
use recovery_blocks::markov::paper::AsyncParams;

fn p(i: usize) -> ProcessId {
    ProcessId(i)
}

/// An adversarial deterministic history: each process checkpoints once,
/// early, then the processes gossip incessantly.
fn adversarial(with_prps: bool) -> History {
    let mut h = History::new(3);
    // Checkpoints interleaved with interactions, so no combination of
    // the RPs is globally consistent: the classic staircase of
    // Randell's Figure (and this paper's Figure 1).
    for i in 0..3 {
        let t = 1.0 + 0.2 * i as f64;
        let rp = h.record_rp(p(i), t);
        if with_prps {
            for j in 0..3 {
                if j != i {
                    h.record_prp(p(j), t + 0.001, rp);
                }
            }
        }
        // An interaction right after each RP welds it to the next
        // process before that one checkpoints.
        h.record_interaction(p(i), p((i + 1) % 3), t + 0.1);
    }
    let mut t = 2.0;
    for k in 0..18 {
        let (a, b) = [(0, 1), (1, 2), (0, 2)][k % 3];
        h.record_interaction(p(a), p(b), t);
        t += 0.25;
    }
    h
}

fn main() {
    let detected_at = 7.0;

    // ── Asynchronous: the avalanche ───────────────────────────────────
    let h = adversarial(false);
    let async_plan = propagate_rollback(&h, p(0), detected_at, RollbackRule::Symmetric);
    println!(
        "{}",
        render_history(
            &h,
            &RenderOptions {
                plan: Some(async_plan.clone()),
                title: "asynchronous RBs — the domino effect".into(),
            }
        )
    );

    // ── PRP: the avalanche stops at a pseudo recovery line ───────────
    let h_prp = adversarial(true);
    let prp_plan = propagate_rollback(&h_prp, p(0), detected_at, RollbackRule::Prp { local: true });
    println!(
        "failure of P1 at t={detected_at}: async D = {:.2} (dominoed: {}), \
         PRP D = {:.2} (dominoed: {})",
        async_plan.sup_distance(),
        async_plan.hit_beginning(),
        prp_plan.sup_distance(),
        prp_plan.hit_beginning(),
    );
    assert!(
        async_plan.hit_beginning(),
        "the adversarial history dominoes"
    );
    assert!(!prp_plan.hit_beginning(), "PRPs stop the avalanche");

    // ── Statistical comparison over randomized episodes ───────────────
    // Sparse checkpoints (μ = 0.25), dense interactions (λ = 2.0).
    let params = AsyncParams::symmetric(3, 0.25, 2.0);
    let fault = FaultConfig::uniform(3, 0.02, 0.6, 0.5);
    let episodes = 1_000;

    let async_m = AsyncScheme::new(
        AsyncConfig::new(params.clone()).with_fault(fault.clone()),
        99,
    )
    .run_failure_episodes(episodes, RollbackRule::Symmetric);
    let prp_m = PrpScheme::new(PrpConfig::new(params.clone()).with_fault(fault), 99)
        .run_failure_episodes(episodes);

    println!("\n{episodes} randomized failure episodes (μ = 0.25, λ = 2.0):");
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "scheme", "mean D", "domino rate", "affected"
    );
    println!(
        "{:>14} {:>12.3} {:>11.1}% {:>12.2}",
        "asynchronous",
        async_m.sup_distance.mean(),
        100.0 * async_m.domino_rate(),
        async_m.n_affected.mean()
    );
    println!(
        "{:>14} {:>12.3} {:>11.1}% {:>12.2}",
        "PRP",
        prp_m.sup_distance.mean(),
        100.0 * prp_m.domino_rate(),
        prp_m.n_affected.mean()
    );

    // ── What synchronization would have cost instead ─────────────────
    let sync = simulate_commit_losses(params.mu(), 50_000, 7);
    println!(
        "\nsynchronized alternative: E[CL] = {:.3} lost computation per forced line \
         (waiting, not rollback) — the paper's trade-off in one number",
        sync.loss.mean()
    );

    assert!(prp_m.sup_distance.mean() <= async_m.sup_distance.mean());
    assert!(prp_m.domino_rate() <= async_m.domino_rate());
}
