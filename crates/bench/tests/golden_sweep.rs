//! Golden-file pin of the sweep artifact bytes.
//!
//! The determinism suite proves serial ≡ parallel *within* a build;
//! this test pins the artifact **across** builds: the exact JSON bytes
//! of a small mixed-workload `SweepReport` are checked into
//! `tests/golden/small_sweep.json`. Any change to `derive_seed`, the
//! RNG, a scheme driver's event loop, `Metric` serialization, or the
//! JSON writer shows up as a byte diff here — deliberate changes
//! regenerate the file with `RB_BLESS=1 cargo test -p rbbench --test
//! golden_sweep`.

use rbbench::sweep::{SweepCell, SweepSpec};
use rbbench::workloads::{AsyncIntervals, DistSpec, FailureEpisodes, SplitChainStats, SyncLoss};
use rbcore::fault::FaultConfig;
use rbmarkov::paper::AsyncParams;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/small_sweep.json");

fn golden_spec() -> SweepSpec {
    let params = AsyncParams::symmetric(3, 1.0, 1.0);
    SweepSpec::new(
        "golden_small",
        0x601D,
        vec![
            // The intervals cell carries a first-class distribution
            // metric, pinning `Metric::Distribution` serialization
            // (histogram counts + quantile vector) at the byte level.
            SweepCell::named(
                "intervals",
                AsyncIntervals::new(params.clone(), 200)
                    .with_distribution(DistSpec::new(0.0, 10.0, 12)),
            ),
            SweepCell::named(
                "split",
                SplitChainStats {
                    params: params.clone(),
                    tagged: 0,
                },
            ),
            SweepCell::named(
                "sync",
                SyncLoss {
                    mu: vec![1.5, 1.0, 0.5],
                    rounds: 500,
                },
            ),
            SweepCell::named(
                "episodes",
                FailureEpisodes::new(params, FaultConfig::uniform(3, 0.05, 0.5, 0.5), 40),
            ),
        ],
    )
}

#[test]
fn small_sweep_report_matches_golden_bytes() {
    let got = golden_spec().run(1).to_json();
    if std::env::var_os("RB_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
    }
    let want =
        std::fs::read_to_string(GOLDEN).expect("golden file missing — regenerate with RB_BLESS=1");
    assert_eq!(
        got, want,
        "SweepReport bytes drifted from tests/golden/small_sweep.json; if the \
         change is intentional, regenerate with RB_BLESS=1 and review the diff"
    );
}

#[test]
fn golden_run_is_thread_count_invariant_too() {
    // The golden bytes also hold on the parallel path — the same
    // guarantee sweep_determinism.rs proves, anchored to fixed bytes.
    let spec = golden_spec();
    assert_eq!(spec.run(1).to_json(), spec.run(4).to_json());
}
