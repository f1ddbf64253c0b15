//! Bit-level pins of the superposed-Poisson event kernel.
//!
//! The asynchronous and PRP drivers draw every event from one race
//! over the RP, interaction and error categories. Any change to how a
//! draw is turned into `(dt, category)` — the sampler, the category
//! order, the interval bookkeeping — moves these numbers, so each case
//! pins the raw IEEE-754 bits of what the sweep artifacts print: the
//! `EX` mean and variance, every `EL{i}` mean and the event count for
//! interval runs, every metric of a fault-injection run, and the
//! storage-timeline statistics of the PRP scheme.
//!
//! The constants were captured from the sequential
//! `exp(total)` + `weighted_index` kernel and must never be re-blessed:
//! a kernel that moves them has changed the artifacts.

use rbcore::fault::FaultConfig;
use rbcore::schemes::asynchronous::{AsyncConfig, AsyncScheme};
use rbcore::schemes::prp::{PrpConfig, PrpScheme};
use rbcore::workload::{FailureEpisodes, Workload};
use rbmarkov::paper::AsyncParams;

/// `[EX mean, EX variance, EL0 mean, …, EL{n−1} mean, events]` of a
/// fault-free interval run, as raw bits.
fn interval_bits(params: AsyncParams, seed: u64, lines: usize) -> Vec<u64> {
    let s = AsyncScheme::new(AsyncConfig::new(params), seed).run_intervals(lines);
    let mut bits = vec![s.interval.mean().to_bits(), s.interval.variance().to_bits()];
    bits.extend(s.rp_counts.iter().map(|w| w.mean().to_bits()));
    bits.push(s.events);
    bits
}

fn check(case: &str, got: Vec<u64>, want: &[u64]) {
    assert_eq!(
        got, want,
        "{case}: event-kernel output moved (got {got:#018x?})"
    );
}

/// Symmetric model at fixed ρ = (n−1)·λ/μ = 4 with μ = 1 — the
/// Figure 5 family.
fn rho4(n: usize) -> AsyncParams {
    AsyncParams::symmetric(n, 1.0, 4.0 / (n - 1) as f64)
}

#[test]
fn async_symmetric_n2_rho4() {
    check(
        "n2",
        interval_bits(rho4(2), 0x5EED_0002, 4_000),
        &[
            0x40045243db075bb5,
            0x40268c674369e322,
            0x40045fbe76c8b431,
            0x4004547ae147ae18,
            0x000000000000efc5,
        ],
    );
}

#[test]
fn async_symmetric_n3_rho4() {
    check(
        "n3",
        interval_bits(rho4(3), 0x5EED_0003, 2_000),
        &[
            0x401ab3029085fd0f,
            0x4056e711f9ab015e,
            0x401a5d2f1a9fbe69,
            0x401ab5c28f5c28f2,
            0x401a9a9fbe76c8b5,
            0x000000000001d5e0,
        ],
    );
}

#[test]
fn async_symmetric_n6_rho4() {
    // The shape of the Figure 5 critical-path cell.
    check(
        "n6",
        interval_bits(rho4(6), 0x5EED_0006, 60),
        &[
            0x40647e3f8954a795,
            0x40e9fb8827ded200,
            0x4064accccccccccd,
            0x4064d00000000002,
            0x4064b66666666665,
            0x40649ddddddddddd,
            0x4064c9999999999a,
            0x4064588888888888,
            0x000000000002b886,
        ],
    );
}

#[test]
fn async_table1_case2() {
    let p = AsyncParams::three((1.5, 1.0, 0.5), (1.0, 1.0, 1.0));
    check(
        "case2",
        interval_bits(p, 0x7AB1_E002, 3_000),
        &[
            0x400973c3f5efe46d,
            0x403b6c9fbff27661,
            0x40133cc1e098eae0,
            0x40095f92c5f92c62,
            0x3ff917e4b17e4b1f,
            0x000000000000e05b,
        ],
    );
}

#[test]
fn async_symmetric_n12_78_categories() {
    // 12 RP categories + 66 interaction pairs.
    let p = AsyncParams::symmetric(12, 1.0, 0.1);
    check(
        "n12",
        interval_bits(p, 0x5EED_0012, 200),
        &[
            0x4052df5d6f9fd0bd,
            0x40de686dc706c193,
            0x405300f5c28f5c26,
            0x4052c3d70a3d70a3,
            0x4052f7ae147ae145,
            0x4052b19999999999,
            0x405289eb851eb852,
            0x4052ff0a3d70a3d7,
            0x4052cc7ae147ae16,
            0x4052cd70a3d70a3b,
            0x4052b33333333333,
            0x405302e147ae147b,
            0x40530e6666666665,
            0x4052b1eb851eb852,
            0x00000000000447cf,
        ],
    );
}

#[test]
fn failure_episodes_with_error_categories() {
    // Heterogeneous error rates, one of them zero, so the race carries
    // a strict subset of the error categories after the RP and
    // interaction ones; all three rollback legs share the seed.
    let params = AsyncParams::three((1.5, 1.0, 0.5), (1.5, 0.5, 1.0));
    let fault = FaultConfig {
        error_rates: vec![0.05, 0.0, 0.2],
        p_propagate: 0.5,
        p_detect_foreign: 0.25,
    };
    let metrics = FailureEpisodes::new(params, fault, 150).run(0xFA17);
    let got: Vec<u64> = metrics
        .iter()
        .flat_map(|m| [m.value().to_bits(), m.std_err().to_bits(), m.count()])
        .collect();
    check(
        "episodes",
        got,
        &[
            0x400788ff7891d26c,
            0x3fc84016e6ed2ead,
            0x0000000000000096,
            0x4004cccccccccccf,
            0x3fb0104741bbc273,
            0x0000000000000096,
            0x401428f5c28f5c28,
            0x3fde35aa5bc7f055,
            0x0000000000000096,
            0x3fd92c5f92c5f92c,
            0x0000000000000000,
            0x0000000000000000,
            0x4031000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x4062c00000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x400212a9ab19803f,
            0x3fc1f93ff4a46daa,
            0x0000000000000096,
            0x3ff851eb851eb854,
            0x3fb031c9a8dd3754,
            0x0000000000000096,
            0x3fcddddddddddde0,
            0x3fb2070cac99abfc,
            0x0000000000000096,
            0x3fd0369d0369d037,
            0x0000000000000000,
            0x0000000000000000,
            0x4052000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x4062c00000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x4000fdac037b2cf8,
            0x3fc235a06b6c6e52,
            0x0000000000000096,
            0x4004962fc962fc99,
            0x3fb020724a602804,
            0x0000000000000096,
            0x400a222222222220,
            0x3fd71d52b7cf6fbf,
            0x0000000000000096,
            0x3fcdddddddddddde,
            0x0000000000000000,
            0x0000000000000000,
            0x4032000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x4062c00000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    );
}

#[test]
fn prp_storage_timeline() {
    let cfg = PrpConfig::new(AsyncParams::three((1.5, 1.0, 0.5), (1.5, 0.5, 1.0)));
    let s = PrpScheme::new(cfg, 0x0051_0BA6).storage_timeline(2_000.0);
    let mut got = s.rps.clone();
    got.extend(&s.prps);
    got.extend(s.peak_live_states.iter().map(|&p| p as u64));
    got.push(s.mean_live_states.to_bits());
    got.push(s.prp_time_overhead.to_bits());
    check(
        "prp-storage",
        got,
        &[
            0x0000000000000b72,
            0x00000000000007c8,
            0x0000000000000422,
            0x0000000000000bea,
            0x0000000000000f94,
            0x000000000000133a,
            0x0000000000000003,
            0x0000000000000003,
            0x0000000000000003,
            0x4007fedbc13682b8,
            0x4027eb851eb85361,
        ],
    );
}
