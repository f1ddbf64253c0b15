//! Property-based tests over the core invariants.
//!
//! * every symmetric rollback plan is a consistent cut, and every
//!   directed plan an orphan-free cut no earlier than the symmetric
//!   one, regardless of history;
//! * PRP plans never roll further than needed nor less than async
//!   soundness requires;
//! * recovery lines found by the flag scan always satisfy the paper's
//!   two requirements;
//! * statistics substrate: Welford merge associativity, histogram mass
//!   conservation.

use proptest::prelude::*;
use recovery_blocks::core::history::{History, ProcessId};
use recovery_blocks::core::recovery_line::{
    find_recovery_lines, is_consistent_cut, is_orphan_free_cut,
};
use recovery_blocks::core::rollback::{propagate_rollback, RollbackRule};
use recovery_blocks::sim::stats::{Histogram, Welford};

/// A random history script: each op is (process_a, process_b, kind, dt)
/// where kind 0 = RP (by a), 1 = interaction (a–b), 2 = RP+PRP
/// implantation.
fn history_strategy(n: usize) -> impl Strategy<Value = History> {
    prop::collection::vec((0..n, 0..n, 0u8..3, 1u32..1000), 1..120).prop_map(move |ops| {
        let mut h = History::new(n);
        let mut t = 0.0;
        for (a, b, kind, dt) in ops {
            t += dt as f64 / 1000.0;
            match kind {
                0 => {
                    h.record_rp(ProcessId(a), t);
                }
                1 if a != b => {
                    h.record_interaction(ProcessId(a), ProcessId(b), t);
                }
                1 => {
                    h.record_rp(ProcessId(a), t);
                }
                _ => {
                    let rp = h.record_rp(ProcessId(a), t);
                    t += 1e-4;
                    for j in 0..n {
                        if j != a {
                            h.record_prp(ProcessId(j), t, rp);
                        }
                    }
                }
            }
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn async_rollback_plans_are_consistent_cuts(
        h in history_strategy(4),
        failed in 0usize..4,
        directed in any::<bool>(),
    ) {
        let t = h.horizon() + 1.0;
        let sym = propagate_rollback(&h, ProcessId(failed), t, RollbackRule::Symmetric);
        prop_assert!(is_consistent_cut(&h, &sym.restart));
        let plan = if directed {
            // Russell's refinement drops the lost-message constraints:
            // the cut need only be orphan-free, and no process restarts
            // earlier than under the symmetric rule.
            let dir = propagate_rollback(&h, ProcessId(failed), t, RollbackRule::Directed);
            prop_assert!(is_orphan_free_cut(&h, &dir.restart));
            for (i, (&d, &s)) in dir.restart.iter().zip(&sym.restart).enumerate() {
                prop_assert!(d >= s, "P{i}: directed {d} < symmetric {s}");
            }
            dir
        } else {
            sym
        };
        prop_assert!(plan.rolled_back[failed]);
        // Restart times never exceed detection time.
        for &r in &plan.restart {
            prop_assert!(r <= t);
        }
        // The failing process restarts strictly before detection.
        prop_assert!(plan.restart[failed] < t);
    }

    #[test]
    fn prp_rule_plans_are_consistent_and_bounded_by_async(
        h in history_strategy(3),
        failed in 0usize..3,
        local in any::<bool>(),
    ) {
        let t = h.horizon() + 1.0;
        let prp_plan = propagate_rollback(&h, ProcessId(failed), t, RollbackRule::Prp { local });
        prop_assert!(is_consistent_cut(&h, &prp_plan.restart));

        let async_plan = propagate_rollback(&h, ProcessId(failed), t, RollbackRule::Symmetric);
        if local {
            // With PRPs admissible, no process needs to roll further
            // than the real-RPs-only plan.
            prop_assert!(
                prp_plan.sup_distance() <= async_plan.sup_distance() + 1e-9,
                "prp {} vs async {}", prp_plan.sup_distance(), async_plan.sup_distance()
            );
        }
        // In all cases the plan is sound: never restarts after detection.
        for &r in &prp_plan.restart {
            prop_assert!(r <= t);
        }
    }

    #[test]
    fn flag_scan_lines_satisfy_paper_requirements(h in history_strategy(4)) {
        for line in find_recovery_lines(&h) {
            prop_assert!(is_consistent_cut(&h, &line.restart), "{line:?}");
            prop_assert!(line.formed_at <= h.horizon() + 1e-9);
            for &r in &line.restart {
                prop_assert!(r <= line.formed_at);
            }
        }
    }

    #[test]
    fn rollback_restarts_only_at_admissible_states(
        h in history_strategy(3),
        failed in 0usize..3,
        directed in any::<bool>(),
    ) {
        // Every rolled-back process restarts exactly at one of its real
        // RP times (the admissible set) — the plan never invents a
        // restart point. (Note: the restart of the *failing* process is
        // NOT monotone in the detection time — detecting later exposes
        // more interactions, whose cascade can drag the failer further
        // back; proptest found the counterexample that killed that
        // earlier, wrong, property.)
        let t = h.horizon() + 1.0;
        let rule = if directed { RollbackRule::Directed } else { RollbackRule::Symmetric };
        let plan = propagate_rollback(&h, ProcessId(failed), t, rule);
        for (j, (&rb, &restart)) in plan.rolled_back.iter().zip(&plan.restart).enumerate() {
            if rb {
                let admissible = h
                    .rps(ProcessId(j))
                    .iter()
                    .any(|r| r.is_real() && (r.time - restart).abs() < 1e-12);
                prop_assert!(admissible, "P{j} restarts at non-RP time {restart}");
            } else {
                prop_assert_eq!(restart, t);
            }
        }
    }

    #[test]
    fn welford_merge_is_order_insensitive(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut all = Welford::new();
        for &x in &xs { all.push(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        // Merge in both orders.
        let mut lr = left;
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        prop_assert!((lr.mean() - all.mean()).abs() < 1e-6 * all.mean().abs().max(1.0));
        prop_assert!((rl.mean() - lr.mean()).abs() < 1e-6 * lr.mean().abs().max(1.0));
        prop_assert_eq!(lr.count(), all.count());
        prop_assert!((lr.variance() - all.variance()).abs() < 1e-4 * all.variance().max(1.0));
    }

    #[test]
    fn histogram_conserves_observations(
        xs in prop::collection::vec(-10.0f64..10.0, 0..500),
        nbins in 1usize..50,
    ) {
        let mut h = Histogram::new(-5.0, 5.0, nbins);
        for &x in &xs { h.push(x); }
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(
            binned + h.underflow() + h.overflow(),
            xs.len() as u64
        );
        // Density integrates to the in-range fraction.
        if !xs.is_empty() {
            let mass: f64 = h.density().iter().sum::<f64>() * h.bin_width();
            let frac = binned as f64 / xs.len() as f64;
            prop_assert!((mass - frac).abs() < 1e-9);
        }
    }

    #[test]
    fn exponential_samples_are_positive_and_seedable(
        seed in any::<u64>(),
        rate in 0.01f64..100.0,
    ) {
        use recovery_blocks::sim::{SimRng, StreamId};
        let mut a = SimRng::new(seed, StreamId::WORKLOAD);
        let mut b = SimRng::new(seed, StreamId::WORKLOAD);
        for _ in 0..50 {
            let xa = a.exp(rate);
            let xb = b.exp(rate);
            prop_assert!(xa > 0.0 && xa.is_finite());
            prop_assert_eq!(xa, xb);
        }
    }
}
