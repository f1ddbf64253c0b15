//! Quickstart: recovery blocks in one file.
//!
//! Demonstrates the three layers of the library on a toy workload:
//! 1. a sequential recovery block (primary + alternate + acceptance
//!    test) rescuing a computation from a buggy primary;
//! 2. the analytic model: how often do recovery lines form for three
//!    cooperating processes?
//! 3. a simulated rollback: what does a failure cost under the
//!    asynchronous scheme?
//!
//! Run with: `cargo run --example quickstart`

use recovery_blocks::core::fault::FaultConfig;
use recovery_blocks::core::rollback::RollbackRule;
use recovery_blocks::core::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use recovery_blocks::markov::paper::AsyncParams;
use recovery_blocks::runtime::RecoveryBlock;

fn main() {
    // ── 1. A sequential recovery block ────────────────────────────────
    // ensure  |result is sorted|
    // by      <quicksort with a bug>
    // else by <insertion sort>
    let block = RecoveryBlock::ensure(|v: &Vec<u32>| v.windows(2).all(|w| w[0] <= w[1]))
        .by(|v: &mut Vec<u32>| {
            // "Optimised" primary that forgets to sort anything beyond
            // the first three elements.
            let k = 3.min(v.len());
            v[..k].sort_unstable();
            Ok(())
        })
        .else_by(|v: &mut Vec<u32>| {
            // Trustworthy alternate.
            v.sort_unstable();
            Ok(())
        });

    let mut data = vec![9, 4, 7, 1, 8, 2];
    let alternate_used = block.execute(&mut data).expect("recovery block succeeded");
    println!("1. recovery block: sorted {data:?} using alternate #{alternate_used}");
    assert_eq!(data, vec![1, 2, 4, 7, 8, 9]);

    // ── 2. The analytic recovery-line model ───────────────────────────
    let params = AsyncParams::symmetric(3, 1.0, 1.0);
    println!(
        "2. three processes, μ = 1, λ = 1 (paper Table 1, case 1): \
         E[X] = {:.4} (interval between recovery lines), \
         E[Lᵢ] = {:.4} states saved per process per interval",
        params.mean_interval(),
        params.mean_rp_count(0),
    );

    // ── 3. A simulated failure under the asynchronous scheme ─────────
    let fault = FaultConfig::uniform(3, 0.05, 0.5, 0.5);
    let metrics = AsyncScheme::new(AsyncConfig::new(params).with_fault(fault), 2026)
        .run_failure_episodes(500, RollbackRule::Symmetric);
    println!(
        "3. 500 injected failures: mean rollback distance D = {:.3}, \
         mean processes dragged in = {:.2}, domino rate = {:.1}%",
        metrics.sup_distance.mean(),
        metrics.n_affected.mean(),
        100.0 * metrics.domino_rate(),
    );
}
