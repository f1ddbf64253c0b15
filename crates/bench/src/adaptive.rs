//! Adaptive grid refinement over a 1-D parameter axis.
//!
//! A uniform sweep wastes cells where a metric is flat and starves the
//! regions where it moves — knees, thresholds, and the steep cliffs
//! rare-event curves produce. This module runs a coarse sweep first,
//! then repeatedly **bisects** every gap between adjacent evaluated
//! points whose metric values differ by more than a tolerance, under a
//! global cell budget. Each refinement round is an ordinary
//! [`SweepSpec`] riding the existing [`Workload`]/[`SweepCell`] seam,
//! so rounds parallelise, cache and resume exactly like any other
//! sweep.
//!
//! ## Determinism
//!
//! The refinement *order* depends on measured values, but every
//! individual point's randomness must not — otherwise two runs that
//! discover the same point in different rounds (different thread
//! counts never reorder rounds, but kill/resume schedules and budget
//! changes can) would disagree. Every point therefore has a
//! **refinement-path index** that is a pure function of *where the
//! point sits*, never of *when it was discovered*:
//!
//! * evaluated points carry exact dyadic coordinates — point =
//!   `axis[g] + (num / 2^depth) · (axis[g+1] − axis[g])` — so every gap
//!   between adjacent points is a dyadic cell `[c/2^D, (c+1)/2^D]` of
//!   some initial interval `g` (the **gap invariant**; bisection
//!   preserves it);
//! * the midpoint of that gap is node `2^D + c` of interval `g`'s
//!   implicit bisection tree (heap numbering: root 1, children `2k`,
//!   `2k+1`), and its seed index is `(1 << 63) | (g << 32) | node` —
//!   disjoint from every grid-position index a plain sweep uses;
//! * initial axis points keep their grid-position indices, so round 0
//!   is byte-identical to the plain sweep of the same axis.
//!
//! Candidate gaps are ranked by `(|Δmetric|` descending, position
//! ascending`)` before the budget truncates them, so the whole
//! [`AdaptiveReport`] — rounds, points, every derived seed — is a pure
//! function of the spec: byte-identical at any thread count and
//! through a killed-then-resumed [`AdaptiveSpec::run_cached`] (pinned by
//! `tests/sweep_determinism.rs` and `tests/sweep_resume.rs`).

use std::path::Path;
use std::sync::Mutex;

use serde::Serialize;

use crate::cache::ResultCache;
use crate::sweep::{CellReport, SweepCell, SweepReport, SweepSpec, Workload};

/// Builds the workload evaluated at one axis coordinate.
pub type WorkloadFactory = Box<dyn Fn(f64) -> Box<dyn Workload + Send + Sync> + Send + Sync>;

/// Deepest allowed bisection: node ids stay below `2^31`, so the
/// seed-index packing `(1 << 63) | (interval << 32) | node` is
/// collision-free.
pub const MAX_DEPTH_LIMIT: u32 = 30;

/// An adaptive 1-D refinement: a coarse axis, a metric to watch, a
/// jump tolerance, and a global cell budget.
pub struct AdaptiveSpec {
    /// Sweep name; round `k` runs as a [`SweepSpec`] named
    /// `{name}#r{k}`.
    pub name: String,
    /// Master seed shared by every round.
    pub master_seed: u64,
    /// Metric (by name) whose jumps drive refinement; every cell's
    /// workload must produce it.
    pub metric: String,
    /// A gap is bisected while the metric differs by more than this
    /// across it.
    pub tol: f64,
    /// Global cap on evaluated cells, initial axis included.
    pub budget: usize,
    /// Bisection depth cap (≤ [`MAX_DEPTH_LIMIT`]); a gap at this
    /// depth is never split further even if its jump exceeds `tol`.
    pub max_depth: u32,
    axis: Vec<f64>,
    factory: WorkloadFactory,
}

/// One evaluated point of the refined profile.
#[derive(Clone, Debug, Serialize)]
pub struct AdaptivePoint {
    /// The cell id (`p{g}` for initial points, `p{g}+{num}/{den}` for
    /// bisection midpoints).
    pub id: String,
    /// Axis coordinate.
    pub x: f64,
    /// The watched metric's value at `x`.
    pub value: f64,
    /// Bisection depth (0 for initial points).
    pub depth: u32,
    /// Round that evaluated the point (0 = the coarse sweep).
    pub round: usize,
    /// Seed-derivation index (see the module docs); the cell ran under
    /// `derive_seed(master_seed, seed_index)`.
    pub seed_index: u64,
}

/// The full outcome of an adaptive refinement.
#[derive(Serialize)]
pub struct AdaptiveReport {
    /// The spec's name.
    pub name: String,
    /// The master seed.
    pub master_seed: u64,
    /// The watched metric.
    pub metric: String,
    /// The jump tolerance.
    pub tol: f64,
    /// The cell budget.
    pub budget: usize,
    /// `true` if refinement stopped because every remaining gap is
    /// within `tol` (or at `max_depth`); `false` if the budget ran out
    /// with candidates still open.
    pub converged: bool,
    /// Every per-round [`SweepReport`], in round order.
    pub rounds: Vec<SweepReport>,
    /// The refined profile, sorted by `x`.
    pub points: Vec<AdaptivePoint>,
}

impl AdaptiveReport {
    /// The canonical JSON serialization.
    pub fn to_json(&self) -> String {
        crate::artifact_json(self)
    }

    /// Writes the report under `<dir>/<name>.json` (`None` falls back
    /// to `RB_RESULTS_DIR`, then `results/`) and returns the path.
    pub fn emit_in(&self, dir: Option<&Path>) -> std::path::PathBuf {
        crate::emit_json_in(dir, &self.name, self)
    }

    /// The largest metric jump across any remaining gap.
    pub fn max_gap_jump(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].value - w[0].value).abs())
            .fold(0.0, f64::max)
    }
}

/// Internal point record: dyadic coordinates plus the evaluated value.
struct PointRec {
    /// Initial interval the point belongs to (left-endpoint index; an
    /// initial axis point `i` is recorded as `(i, 0, 0)`).
    interval: u64,
    /// Dyadic numerator within the interval (`0` for initial points).
    num: u64,
    /// Dyadic depth (`0` for initial points).
    depth: u32,
    point: AdaptivePoint,
}

impl PointRec {
    /// Total position order: interval-major, then the dyadic fraction
    /// widened to a common 64-bit fixed-point scale. Monotone in `x`
    /// even when float rounding would collapse neighbouring midpoints.
    fn key(&self) -> u128 {
        ((self.interval as u128) << 64) | ((self.num as u128) << (64 - self.depth))
    }
}

/// A bisection candidate: the gap between `points[left]` and
/// `points[left + 1]`.
struct Candidate {
    left: usize,
    jump: f64,
    key: u128,
    /// Gap interval, gap depth `D`, left offset `c` (gap =
    /// `[c/2^D, (c+1)/2^D]` of interval `g`).
    g: u64,
    d: u32,
    c: u64,
}

impl AdaptiveSpec {
    /// A refinement spec from an initial axis and a workload factory.
    ///
    /// # Panics
    /// Panics unless the axis has ≥ 2 strictly increasing finite
    /// points, `tol` is positive and finite, and the budget covers the
    /// initial axis.
    pub fn new(
        name: impl Into<String>,
        master_seed: u64,
        axis: Vec<f64>,
        metric: impl Into<String>,
        tol: f64,
        budget: usize,
        factory: WorkloadFactory,
    ) -> Self {
        let name = name.into();
        assert!(
            axis.len() >= 2,
            "adaptive `{name}`: need at least two axis points"
        );
        assert!(
            (axis.len() as u64) < 1 << 31,
            "adaptive `{name}`: axis too long for seed-index packing"
        );
        assert!(
            axis.iter().all(|x| x.is_finite()) && axis.windows(2).all(|w| w[0] < w[1]),
            "adaptive `{name}`: axis must be strictly increasing and finite"
        );
        assert!(
            tol.is_finite() && tol > 0.0,
            "adaptive `{name}`: tolerance must be positive and finite"
        );
        assert!(
            budget >= axis.len(),
            "adaptive `{name}`: budget {budget} cannot cover the {}-point initial axis",
            axis.len()
        );
        AdaptiveSpec {
            name,
            master_seed,
            metric: metric.into(),
            tol,
            budget,
            max_depth: MAX_DEPTH_LIMIT,
            axis,
            factory,
        }
    }

    /// Caps the bisection depth (1 ..= [`MAX_DEPTH_LIMIT`]).
    ///
    /// # Panics
    /// Panics if `depth` is outside that range.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        assert!(
            (1..=MAX_DEPTH_LIMIT).contains(&depth),
            "adaptive `{}`: max depth {depth} outside 1..={MAX_DEPTH_LIMIT}",
            self.name
        );
        self.max_depth = depth;
        self
    }

    /// Runs the refinement on up to `threads` threads.
    ///
    /// The report is a pure function of the spec — byte-identical at
    /// any thread count.
    pub fn run(&self, threads: usize) -> AdaptiveReport {
        self.drive(|spec| spec.run(threads))
    }

    /// [`AdaptiveSpec::run`] with every round routed through the result
    /// cache ([`SweepSpec::run_cached`]). A killed refinement resumes
    /// byte-identically by re-running against the same cache: finished
    /// rounds are served wholesale from it, the interrupted round
    /// solves only its missing cells, and — because every cell's seed
    /// index is position-determined, not round-determined — the
    /// reassembled report matches an uninterrupted run exactly.
    pub fn run_cached(&self, threads: usize, cache: &Mutex<ResultCache>) -> AdaptiveReport {
        self.drive(|spec| spec.run_cached(threads, cache).report)
    }

    /// The refinement loop, parameterized over how one round's spec is
    /// executed.
    fn drive(&self, mut run_round: impl FnMut(&SweepSpec) -> SweepReport) -> AdaptiveReport {
        // Round 0: the coarse axis, seeded exactly like a plain sweep.
        let cells = self
            .axis
            .iter()
            .enumerate()
            .map(|(i, &x)| SweepCell {
                id: format!("p{i}"),
                workload: (self.factory)(x),
                seed_index: None,
            })
            .collect();
        let spec = SweepSpec::new(format!("{}#r0", self.name), self.master_seed, cells);
        let mut rounds = vec![run_round(&spec)];
        let mut points: Vec<PointRec> = self
            .axis
            .iter()
            .enumerate()
            .map(|(i, &x)| PointRec {
                interval: i as u64,
                num: 0,
                depth: 0,
                point: AdaptivePoint {
                    id: format!("p{i}"),
                    x,
                    value: self.lookup(&rounds[0].cells[i], 0),
                    depth: 0,
                    round: 0,
                    seed_index: i as u64,
                },
            })
            .collect();

        let converged;
        let mut round = 0;
        loop {
            round += 1;
            let mut candidates = self.candidates(&points);
            if candidates.is_empty() {
                converged = true;
                break;
            }
            let room = self.budget - points.len();
            if room == 0 {
                converged = false;
                break;
            }
            // Largest jumps first; position breaks ties, so the chosen
            // subset never depends on sort instability. A truncated
            // round is not final: surviving gaps stay above tol and
            // re-enter as candidates until the budget is fully spent.
            candidates.sort_by(|a, b| b.jump.total_cmp(&a.jump).then_with(|| a.key.cmp(&b.key)));
            candidates.truncate(room);

            let (cells, mut recs): (Vec<SweepCell>, Vec<(usize, PointRec)>) = candidates
                .iter()
                .map(|cand| self.midpoint(cand, &points, round))
                .unzip();
            let spec = SweepSpec::new(format!("{}#r{round}", self.name), self.master_seed, cells);
            let report = run_round(&spec);
            for (i, (_, rec)) in recs.iter_mut().enumerate() {
                rec.point.value = self.lookup(&report.cells[i], round);
            }
            rounds.push(report);
            // Insert right-to-left so earlier indices stay valid.
            recs.sort_by_key(|r| std::cmp::Reverse(r.0));
            for (left, rec) in recs {
                points.insert(left + 1, rec);
            }
        }

        debug_assert!(points.windows(2).all(|w| w[0].key() < w[1].key()));
        AdaptiveReport {
            name: self.name.clone(),
            master_seed: self.master_seed,
            metric: self.metric.clone(),
            tol: self.tol,
            budget: self.budget,
            converged,
            rounds,
            points: points.into_iter().map(|r| r.point).collect(),
        }
    }

    /// Every gap whose metric jump exceeds `tol` and whose midpoint
    /// would stay within `max_depth`, in position order.
    fn candidates(&self, points: &[PointRec]) -> Vec<Candidate> {
        points
            .windows(2)
            .enumerate()
            .filter_map(|(left, w)| {
                let (a, b) = (&w[0], &w[1]);
                // A NaN jump never refines: NaN-valued cells would
                // otherwise eat the whole budget on unmeasurable gaps.
                let jump = (b.point.value - a.point.value).abs();
                if jump.is_nan() || jump <= self.tol {
                    return None;
                }
                // Normalise both endpoints into the gap's interval: a
                // right endpoint that is an initial point is coordinate
                // 1 (depth 0) of the *previous* interval.
                let g = if b.num > 0 {
                    b.interval
                } else {
                    b.interval - 1
                };
                debug_assert_eq!(a.interval, g);
                let (bn, bd) = if b.num > 0 { (b.num, b.depth) } else { (1, 0) };
                let d = a.depth.max(bd);
                if d + 1 > self.max_depth {
                    return None;
                }
                let c = a.num << (d - a.depth);
                debug_assert_eq!(bn << (d - bd), c + 1, "gap invariant violated");
                Some(Candidate {
                    left,
                    jump,
                    key: a.key(),
                    g,
                    d,
                    c,
                })
            })
            .collect()
    }

    /// The midpoint cell of a candidate gap, with its path-determined
    /// seed index, plus the point record awaiting its measured value.
    fn midpoint(
        &self,
        cand: &Candidate,
        points: &[PointRec],
        round: usize,
    ) -> (SweepCell, (usize, PointRec)) {
        let (g, d, c) = (cand.g, cand.d, cand.c);
        let node = (1u64 << d) + c;
        let seed_index = (1u64 << 63) | (g << 32) | node;
        let num = 2 * c + 1;
        let depth = d + 1;
        let id = format!("p{g}+{num}/{den}", den = 1u64 << depth);
        let x = 0.5 * (points[cand.left].point.x + points[cand.left + 1].point.x);
        let cell = SweepCell {
            id: id.clone(),
            workload: (self.factory)(x),
            seed_index: Some(seed_index),
        };
        let rec = PointRec {
            interval: g,
            num,
            depth,
            point: AdaptivePoint {
                id,
                x,
                value: f64::NAN, // filled in once the round has run
                depth,
                round,
                seed_index,
            },
        };
        (cell, (cand.left, rec))
    }

    /// The watched metric's value in `cell`, with a refinement-aware
    /// panic when the workload did not produce it.
    fn lookup(&self, cell: &CellReport, round: usize) -> f64 {
        match cell.metric(&self.metric) {
            Some(m) => m.value(),
            None => panic!(
                "adaptive `{}` round {round}: cell `{}` has no metric `{}`; available: [{}]",
                self.name,
                cell.id,
                self.metric,
                cell.metrics
                    .iter()
                    .map(crate::sweep::Metric::name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Metric;
    use rbsim::derive_seed;

    /// A deterministic analytic workload: evaluates `f(x)` exactly.
    struct FnWork {
        x: f64,
        f: fn(f64) -> f64,
    }

    impl Workload for FnWork {
        fn label(&self) -> String {
            "fn".into()
        }
        fn cache_params(&self) -> Option<String> {
            Some(format!(
                "x={};f={:p}",
                rbcore::workload::canon_f64(self.x),
                self.f as *const ()
            ))
        }
        fn run(&self, _seed: u64) -> Vec<Metric> {
            vec![Metric::exact("f", (self.f)(self.x))]
        }
    }

    fn factory(f: fn(f64) -> f64) -> WorkloadFactory {
        Box::new(move |x| Box::new(FnWork { x, f }))
    }

    fn step(x: f64) -> f64 {
        if x < 0.7 {
            0.0
        } else {
            1.0
        }
    }

    #[test]
    fn refinement_zooms_into_the_discontinuity_and_leaves_flat_gaps() {
        let spec = AdaptiveSpec::new("unit-step", 9, vec![0.0, 1.0, 2.0], "f", 0.5, 40, {
            factory(step)
        })
        .with_max_depth(6);
        let report = spec.run(2);
        // The step always jumps by 1 > tol, so refinement runs to the
        // depth cap: converged, with the discontinuity bracketed by a
        // gap of width 2^-6.
        assert!(report.converged);
        let xs: Vec<f64> = report.points.iter().map(|p| p.x).collect();
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "points out of order");
        // All refined points live in (0, 1); the flat [1, 2] interval
        // is never split.
        for p in report.points.iter().filter(|p| p.depth > 0) {
            assert!(p.x > 0.0 && p.x < 1.0, "refined outside the step: {}", p.x);
        }
        let bracket = report
            .points
            .windows(2)
            .find(|w| w[0].value != w[1].value)
            .expect("discontinuity bracketed");
        assert!(bracket[0].x < 0.7 && 0.7 <= bracket[1].x);
        assert!((bracket[1].x - bracket[0].x - 1.0 / 64.0).abs() < 1e-12);
        assert!(report.points.len() <= 40);
        // Exactly one jump above tol remains (the depth-capped one).
        assert!(report.max_gap_jump() > 0.5);
    }

    #[test]
    fn smooth_profiles_converge_below_tolerance() {
        let spec = AdaptiveSpec::new(
            "unit-square",
            9,
            vec![0.0, 4.0],
            "f",
            0.5,
            200,
            factory(|x| x * x),
        );
        let report = spec.run(3);
        assert!(report.converged, "budget 200 is ample for x^2");
        assert!(report.max_gap_jump() <= 0.5);
        // Refinement is densest where the slope is largest.
        let near4 = report.points.iter().filter(|p| p.x > 3.5).count();
        let near0 = report.points.iter().filter(|p| p.x < 0.5).count();
        assert!(
            near4 > near0,
            "denser near x=4 ({near4}) than x=0 ({near0})"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_and_respected() {
        let spec = AdaptiveSpec::new("unit-tight", 9, vec![0.0, 1.0], "f", 0.5, 3, factory(step));
        let report = spec.run(1);
        assert_eq!(report.points.len(), 3);
        assert!(!report.converged);
    }

    #[test]
    fn reports_are_byte_identical_across_thread_counts() {
        let mk = || {
            AdaptiveSpec::new(
                "unit-threads",
                17,
                vec![0.0, 1.0, 2.0, 3.0],
                "f",
                0.3,
                64,
                factory(|x| (3.0 * x).sin()),
            )
            .with_max_depth(8)
        };
        assert_eq!(mk().run(1).to_json(), mk().run(8).to_json());
    }

    #[test]
    fn seed_indices_are_path_determined_not_round_determined() {
        // The first midpoint of interval 0 is node 1 of its bisection
        // tree regardless of when it is discovered.
        let expected = (1u64 << 63) | 1;
        for budget in [3, 10] {
            let spec = AdaptiveSpec::new(
                "unit-seeds",
                5,
                vec![0.0, 1.0],
                "f",
                0.5,
                budget,
                factory(step),
            );
            let report = spec.run(1);
            let mid = report
                .points
                .iter()
                .find(|p| p.id == "p0+1/2")
                .expect("midpoint evaluated");
            assert_eq!(mid.seed_index, expected);
            let cell = report.rounds[1].cell("p0+1/2").unwrap();
            assert_eq!(cell.seed, derive_seed(5, expected));
        }
        // And it is disjoint from every grid-position index.
        assert!(expected > u32::MAX as u64);
    }

    #[test]
    fn cached_refinement_matches_the_in_memory_run() {
        let dir = std::env::temp_dir().join(format!("rbbench-adaptive-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            AdaptiveSpec::new("unit-resume", 23, vec![0.0, 2.0], "f", 0.4, 20, {
                factory(|x| x * x)
            })
        };
        let cache = Mutex::new(ResultCache::open(&dir).unwrap());
        let cached = mk().run_cached(4, &cache);
        assert_eq!(cached.to_json(), mk().run(1).to_json());
        let stored = cache.lock().unwrap().len();
        assert_eq!(stored, cached.points.len(), "one entry per evaluated point");
        // Re-running serves every round from the cache, byte-identically.
        let replayed = mk().run_cached(2, &cache);
        assert_eq!(replayed.to_json(), cached.to_json());
        assert_eq!(cache.lock().unwrap().len(), stored, "nothing re-solved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "budget 1 cannot cover")]
    fn budget_below_the_axis_is_rejected() {
        AdaptiveSpec::new("unit-bad", 1, vec![0.0, 1.0], "f", 0.5, 1, factory(step));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_axes_are_rejected() {
        AdaptiveSpec::new("unit-bad", 1, vec![0.0, 0.0], "f", 0.5, 9, factory(step));
    }

    #[test]
    #[should_panic(expected = "has no metric `g`")]
    fn missing_metric_names_the_cell_and_round() {
        AdaptiveSpec::new("unit-bad", 1, vec![0.0, 1.0], "g", 0.5, 9, factory(step)).run(1);
    }
}
