//! The parallel scenario-sweep engine.
//!
//! Every figure and table of Shin & Lee (ICPP 1983) is produced by
//! sweeping a parameter grid — checkpoint rates μᵢ (period 1/μᵢ),
//! interaction rates λᵢⱼ, process count n, scheme — through the
//! discrete-event simulator and the analytic solvers. This module runs
//! those grids in parallel with `std::thread::scope` while keeping the
//! results **bit-identical** to a serial run:
//!
//! * a [`SweepSpec`] names the sweep and lists its [`SweepCell`]s; each
//!   cell carries a boxed [`Workload`] trait object — the **open** seam
//!   defined in `rbcore::workload`, so any crate (or any figure binary,
//!   locally) can contribute new workload kinds without touching this
//!   engine;
//! * each cell's random streams are seeded by
//!   [`rbsim::derive_seed`]`(master_seed, cell_index)` — a pure function
//!   of the spec, never of thread identity or execution order;
//! * cells are dispatched over worker threads through
//!   [`rbsim::par::par_map`]'s work-stealing-style chunked cursor, and
//!   the per-cell [`CellReport`]s are reassembled in grid order;
//! * the aggregated [`SweepReport`] (per-cell means, standard errors and
//!   observation counts) serializes through the same JSON writer as
//!   every other artifact ([`crate::emit_json`]).
//!
//! The report contains nothing execution-specific (no thread count, no
//! timestamps), so `spec.run(1)` and `spec.run(k)` produce byte-identical
//! JSON — a property pinned by `tests/sweep_determinism.rs` and (at the
//! exact-bytes level) by `tests/golden_sweep.rs`.
//!
//! ```
//! use rbbench::sweep::{AsyncGrid, SweepSpec};
//!
//! let grid = AsyncGrid {
//!     n: vec![2, 3],
//!     mu: vec![1.0],
//!     lambda: vec![0.5, 1.0],
//!     lines: 200,
//! };
//! let spec = SweepSpec::async_grid("doc-example", 42, &grid);
//! assert_eq!(spec.cells.len(), 4);
//! let serial = spec.run(1);
//! let parallel = spec.run(4);
//! assert_eq!(serial.to_json(), parallel.to_json()); // bit-identical
//! let ex = serial.cell("n2/mu1/lam0.5").unwrap().value("EX");
//! assert!(ex > 0.0);
//! ```

use rbcore::workload::AsyncIntervals;
use rbmarkov::paper::AsyncParams;
use rbsim::derive_seed;
use rbsim::par::par_map;
use rbtestutil::{standard_matrix, ConformanceWorkload, SchemeConformance};
use serde::Serialize;

pub use rbcore::metrics::Metric;
pub use rbcore::workload::Workload;

/// One grid point of a sweep: a stable id plus the boxed workload it
/// runs.
///
/// The id defaults to [`Workload::label`] but is usually overridden
/// with a grid coordinate (`n3/mu1/lam0.25`) — it names the cell in the
/// artifact and is how binaries look results up, so it must be unique
/// within a spec.
pub struct SweepCell {
    /// Stable identifier, e.g. `n3/mu1/lam0.25` or a scenario id.
    pub id: String,
    /// What the cell computes.
    pub workload: Box<dyn Workload + Send + Sync>,
    /// Seed-derivation index override: the cell runs under
    /// [`derive_seed`]`(master_seed, seed_index)` instead of the cell's
    /// grid position. `None` (the default) keeps the historical
    /// position-based seeding, so existing sweeps are byte-identical.
    ///
    /// Dynamically added cells — the adaptive refinement engine's
    /// bisection midpoints ([`crate::adaptive`]) — need this: their
    /// grid position depends on *which round discovered them*, while
    /// their refinement-path index is a pure function of the point
    /// itself, keeping reports byte-identical across thread counts and
    /// kill/resume schedules.
    pub seed_index: Option<u64>,
}

impl SweepCell {
    /// A cell whose id is the workload's own label.
    pub fn new(workload: impl Workload + Send + Sync + 'static) -> Self {
        SweepCell {
            id: workload.label(),
            workload: Box::new(workload),
            seed_index: None,
        }
    }

    /// A cell with an explicit id (grid coordinates, scenario ids, …).
    pub fn named(id: impl Into<String>, workload: impl Workload + Send + Sync + 'static) -> Self {
        SweepCell {
            id: id.into(),
            workload: Box::new(workload),
            seed_index: None,
        }
    }

    /// Overrides the seed-derivation index (see
    /// [`SweepCell::seed_index`]).
    pub fn with_seed_index(mut self, seed_index: u64) -> Self {
        self.seed_index = Some(seed_index);
        self
    }

    /// Runs the cell with the given derived seed, producing its report.
    pub fn run(&self, seed: u64) -> CellReport {
        CellReport {
            id: self.id.clone(),
            seed,
            metrics: self.workload.run(seed),
        }
    }
}

/// The aggregated results of one cell.
#[derive(Clone, Debug, Serialize)]
pub struct CellReport {
    /// The cell's stable id.
    pub id: String,
    /// The derived seed the cell's streams used.
    pub seed: u64,
    /// Aggregated quantities, in a fixed per-workload order.
    pub metrics: Vec<Metric>,
}

/// A metric lookup that failed: the cell has no metric of the
/// requested name. Carries the cell id and every name the cell *did*
/// produce, so the failure is diagnosable whether it surfaces as a
/// panic (figure bins) or as an error response (the `rbserve` query
/// path, where a malformed client request must never take down a
/// worker thread).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricLookupError {
    /// The cell that was queried.
    pub cell: String,
    /// The metric name that was requested.
    pub requested: String,
    /// Every metric name the cell produced.
    pub available: Vec<String>,
}

impl std::fmt::Display for MetricLookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell `{}` has no metric `{}`; available: [{}]",
            self.cell,
            self.requested,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for MetricLookupError {}

impl CellReport {
    /// The metric named `name`, if present.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name() == name)
    }

    /// The metric named `name`, or a [`MetricLookupError`] listing the
    /// names the cell did produce — the non-panicking twin of
    /// [`CellReport::value`]'s lookup, for server query paths.
    pub fn try_metric(&self, name: &str) -> Result<&Metric, MetricLookupError> {
        self.metric(name).ok_or_else(|| MetricLookupError {
            cell: self.id.clone(),
            requested: name.to_string(),
            available: self.metrics.iter().map(|m| m.name().to_string()).collect(),
        })
    }

    /// The value of the metric named `name`, or a
    /// [`MetricLookupError`].
    pub fn try_value(&self, name: &str) -> Result<f64, MetricLookupError> {
        self.try_metric(name).map(Metric::value)
    }

    /// The value of the metric named `name`.
    ///
    /// # Panics
    /// Panics if the cell did not produce that metric; the message
    /// names the cell and lists every metric it *did* produce, so a
    /// failed figure-bin run is diagnosable straight from a CI log.
    /// (Thin wrapper over [`CellReport::try_value`]; callers that must
    /// not panic — server threads — use the `try_` variants.)
    pub fn value(&self, name: &str) -> f64 {
        self.try_value(name).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A parameter grid over the asynchronous scheme: the cross product of
/// process counts, checkpoint rates μ (checkpoint period 1/μ) and
/// interaction rates λ, each cell measuring `lines` recovery-line
/// intervals.
#[derive(Clone, Debug)]
pub struct AsyncGrid {
    /// Process counts to sweep.
    pub n: Vec<usize>,
    /// Homogeneous checkpoint rates μ to sweep (period 1/μ).
    pub mu: Vec<f64>,
    /// Homogeneous pairwise interaction rates λ to sweep.
    pub lambda: Vec<f64>,
    /// Recovery-line intervals measured per cell.
    pub lines: usize,
}

impl AsyncGrid {
    /// The grid's cells, in `n`-major, then `mu`, then `lambda` order.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.n.len() * self.mu.len() * self.lambda.len());
        for &n in &self.n {
            for &mu in &self.mu {
                for &lambda in &self.lambda {
                    cells.push(SweepCell::named(
                        format!("n{n}/mu{mu}/lam{lambda}"),
                        AsyncIntervals::new(AsyncParams::symmetric(n, mu, lambda), self.lines),
                    ));
                }
            }
        }
        cells
    }
}

/// A named scenario grid: what to sweep and under which master seed.
pub struct SweepSpec {
    /// Sweep name; doubles as the artifact file stem for
    /// [`SweepReport::emit`].
    pub name: String,
    /// Master seed; cell `k` runs under
    /// [`derive_seed`]`(master_seed, `[`SweepSpec::seed_index`]`(k))`.
    pub master_seed: u64,
    /// The grid cells, in a fixed order (the order is part of the
    /// sweep's identity: it determines the per-cell seeds).
    pub cells: Vec<SweepCell>,
}

impl SweepSpec {
    /// A spec from explicit cells.
    ///
    /// # Panics
    /// Panics if two cells share an id. Ids are how binaries look cells
    /// up ([`SweepReport::cell`] returns the *first* match) — a
    /// duplicate would silently shadow one cell's results, so it is
    /// rejected here, at construction, naming the offending id.
    pub fn new(name: impl Into<String>, master_seed: u64, cells: Vec<SweepCell>) -> Self {
        let name = name.into();
        let mut seen = std::collections::HashSet::with_capacity(cells.len());
        for cell in &cells {
            assert!(
                seen.insert(cell.id.as_str()),
                "sweep `{name}`: duplicate cell id `{}`",
                cell.id
            );
        }
        SweepSpec {
            name,
            master_seed,
            cells,
        }
    }

    /// A spec over an [`AsyncGrid`] cross product.
    pub fn async_grid(name: impl Into<String>, master_seed: u64, grid: &AsyncGrid) -> Self {
        SweepSpec::new(name, master_seed, grid.cells())
    }

    /// The seed-derivation index of cell `idx`: its explicit
    /// [`SweepCell::seed_index`] override, or its grid position. Part
    /// of the sweep's identity: it fixes the cell's derived seed, and
    /// through it the cell's cache key.
    pub fn seed_index(&self, idx: usize) -> u64 {
        self.cells[idx].seed_index.unwrap_or(idx as u64)
    }

    /// A spec running the full `rbtestutil` conformance matrix (≥ 20
    /// grid points, deterministic in `master_seed`) — each scenario one
    /// cell, so the whole correctness gate parallelises per grid point.
    pub fn conformance_matrix(
        name: impl Into<String>,
        master_seed: u64,
        cfg: SchemeConformance,
    ) -> Self {
        let cells = standard_matrix(master_seed)
            .into_iter()
            .map(|scenario| {
                SweepCell::named(
                    scenario.id.clone(),
                    ConformanceWorkload {
                        scenario,
                        cfg: cfg.clone(),
                    },
                )
            })
            .collect();
        SweepSpec::new(name, master_seed, cells)
    }

    /// Runs every cell on up to `threads` threads.
    ///
    /// The report is a pure function of the spec: per-cell seeds are
    /// derived from `(master_seed, seed index)` and results are
    /// reassembled in grid order, so any `threads` value produces the
    /// same report — byte-identical once serialized.
    pub fn run(&self, threads: usize) -> SweepReport {
        self.run_cells(threads, SweepCell::run)
    }

    /// [`SweepSpec::run`] through a content-addressed result cache
    /// ([`crate::cache`]): each cacheable cell (one whose workload
    /// returns [`Workload::cache_params`]) is looked up under
    /// `(label, canonical params, derived seed, format version)` before
    /// being solved, and freshly solved cells are appended to the cache
    /// (and flushed) as they finish. Uncacheable cells always run.
    ///
    /// This is also the **resume** path: re-running a killed sweep
    /// against the same cache serves every cell that finished before
    /// the kill as a hit and solves only the rest. The report is
    /// **byte-identical** to `spec.run(1)` whatever mix of hits and
    /// misses served it: the stored payload is the bit-exact report
    /// codec (`f64`s as raw bits), and a hit is re-labelled with *this*
    /// spec's cell id — the key binds the workload's identity, not the
    /// cell's display name, so two sweeps naming the same computation
    /// differently share entries without perturbing each other's
    /// artifacts. An edited cell (any parameter changed) keys
    /// differently, so it is a miss and re-solves.
    ///
    /// The cache is `Mutex`-wrapped because workers share it; lock
    /// poisoning is ignored (the cache's own WAL recovery handles a
    /// worker that died mid-append). A cache I/O failure panics,
    /// naming the sweep — losing the store mid-run has no recovery path
    /// worth masking, and a panic mid-append is exactly the crash a
    /// later resume recovers from.
    pub fn run_cached(
        &self,
        threads: usize,
        cache: &std::sync::Mutex<crate::cache::ResultCache>,
    ) -> CachedSweep {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (hits, misses, uncacheable) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let lock = || {
            cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        let report = self.run_cells(threads, |cell, seed| {
            let Some(key) = crate::cache::cell_key(cell, seed) else {
                uncacheable.fetch_add(1, Ordering::Relaxed);
                return cell.run(seed);
            };
            if let Some(mut report) = lock().lookup(&key) {
                hits.fetch_add(1, Ordering::Relaxed);
                debug_assert_eq!(report.seed, seed, "seed is part of the key");
                report.id = cell.id.clone();
                return report;
            }
            misses.fetch_add(1, Ordering::Relaxed);
            let report = cell.run(seed);
            lock()
                .insert(&key, &report)
                .unwrap_or_else(|e| panic!("sweep `{}`: {e}", self.name));
            report
        });
        CachedSweep {
            report,
            hits: hits.into_inner(),
            misses: misses.into_inner(),
            uncacheable: uncacheable.into_inner(),
        }
    }

    /// The one sweep body: `serve(cell, derived seed)` for every cell
    /// over [`par_map`], reassembled in grid order.
    fn run_cells<F>(&self, threads: usize, serve: F) -> SweepReport
    where
        F: Fn(&SweepCell, u64) -> CellReport + Sync,
    {
        let cells = par_map(&self.cells, threads, |idx, cell: &SweepCell| {
            serve(cell, derive_seed(self.master_seed, self.seed_index(idx)))
        });
        SweepReport {
            sweep: self.name.clone(),
            master_seed: self.master_seed,
            cells,
        }
    }
}

/// The outcome of a cache-routed sweep ([`SweepSpec::run_cached`]):
/// the report plus how each cell was served.
pub struct CachedSweep {
    /// The aggregated report, byte-identical to an uncached run.
    pub report: SweepReport,
    /// Cells served from the cache (no solve).
    pub hits: usize,
    /// Cacheable cells that had to be solved (and were then stored).
    pub misses: usize,
    /// Cells whose workload is not cacheable (always solved, never
    /// stored).
    pub uncacheable: usize,
}

/// The aggregated results of a sweep, in grid order.
///
/// Contains nothing execution-specific (thread count, timing), so the
/// serialized artifact is reproducible across machines and thread
/// counts.
#[derive(Clone, Debug, Serialize)]
pub struct SweepReport {
    /// The sweep's name.
    pub sweep: String,
    /// The master seed the sweep ran under.
    pub master_seed: u64,
    /// Per-cell reports, in the spec's cell order.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// The report of the cell with the given id, if any.
    pub fn cell(&self, id: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Every metric that failed its own acceptance criterion (only
    /// conformance checks can), as `(cell id, metric)` pairs.
    pub fn failures(&self) -> Vec<(&str, &Metric)> {
        self.cells
            .iter()
            .flat_map(|c| c.metrics.iter().map(move |m| (c.id.as_str(), m)))
            .filter(|(_, m)| !m.ok())
            .collect()
    }

    /// Panics with a readable digest if any metric failed.
    pub fn assert_ok(&self) {
        let failures = self.failures();
        assert!(
            failures.is_empty(),
            "sweep `{}`: {} failed checks: {:?}",
            self.sweep,
            failures.len(),
            failures
                .iter()
                .map(|(cell, m)| format!(
                    "{cell}:{} (Δ = {}, tol {})",
                    m.name(),
                    m.value(),
                    m.std_err()
                ))
                .collect::<Vec<_>>()
        );
    }

    /// The canonical JSON serialization (identical to what
    /// [`SweepReport::emit`] writes).
    pub fn to_json(&self) -> String {
        crate::artifact_json(self)
    }

    /// Writes the report under `results/<sweep name>.json` and returns
    /// the path (env-var fallback for the directory; binaries with an
    /// explicit `--out` should use [`SweepReport::emit_in`]).
    pub fn emit(&self) -> std::path::PathBuf {
        self.emit_in(None)
    }

    /// [`SweepReport::emit`] with an explicit artifact directory
    /// (`None` falls back to `RB_RESULTS_DIR`, then `results/`).
    pub fn emit_in(&self, dir: Option<&std::path::Path>) -> std::path::PathBuf {
        crate::emit_json_in(dir, &self.sweep, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SyncLoss;
    use rbcore::workload::{PrpStorage, SplitChainStats};

    fn small_grid() -> SweepSpec {
        SweepSpec::async_grid(
            "unit-grid",
            7,
            &AsyncGrid {
                n: vec![2, 3],
                mu: vec![1.0],
                lambda: vec![0.5, 1.0],
                lines: 150,
            },
        )
    }

    #[test]
    fn grid_cross_product_and_ids() {
        let spec = small_grid();
        assert_eq!(spec.cells.len(), 4);
        assert_eq!(spec.cells[0].id, "n2/mu1/lam0.5");
        assert_eq!(spec.cells[3].id, "n3/mu1/lam1");
    }

    #[test]
    fn parallel_report_is_bit_identical_to_serial() {
        let spec = small_grid();
        let serial = spec.run(1);
        let parallel = spec.run(4);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn async_cells_agree_with_the_markov_solve() {
        let report = small_grid().run(4);
        for cell in &report.cells {
            let ex = cell.metric("EX").unwrap();
            assert!(ex.count() >= 150);
            assert!(ex.value() > 0.0 && ex.std_err() > 0.0);
        }
        // Spot-check one cell against the analytic mean.
        let c = report.cell("n3/mu1/lam1").unwrap();
        let analytic = AsyncParams::symmetric(3, 1.0, 1.0).mean_interval();
        let m = c.metric("EX").unwrap();
        assert!(
            (m.value() - analytic).abs() < 6.0 * m.std_err() + 0.05,
            "sim {} vs analytic {analytic}",
            m.value()
        );
    }

    #[test]
    fn mixed_workload_kinds_run_and_report() {
        let params = AsyncParams::symmetric(3, 1.0, 1.0);
        let spec = SweepSpec::new(
            "unit-mixed",
            11,
            vec![
                SweepCell::named(
                    "sync",
                    SyncLoss {
                        mu: vec![1.0, 1.0, 1.0],
                        rounds: 2_000,
                    },
                ),
                SweepCell::named(
                    "split",
                    SplitChainStats {
                        params: params.clone(),
                        tagged: 0,
                    },
                ),
                SweepCell::named(
                    "prp",
                    PrpStorage {
                        params,
                        horizon: 50.0,
                        t_r: 1e-3,
                    },
                ),
            ],
        );
        let report = spec.run(4);
        report.assert_ok();

        let sync = report.cell("sync").unwrap();
        let cf = sync.value("ECL_closed_form");
        assert!((cf - sync.value("ECL_quadrature")).abs() < 1e-5);
        let ecl = sync.metric("ECL").unwrap();
        assert!((ecl.value() - cf).abs() < 6.0 * ecl.std_err() + 0.05);

        let split = report.cell("split").unwrap();
        assert!((split.value("EX") - split.value("EX_ctmc")).abs() < 1e-7);
        assert!((split.value("EL_with_terminal") - split.value("identity_mu_EX")).abs() < 1e-7);

        let prp = report.cell("prp").unwrap();
        assert_eq!(
            prp.value("prps_total"),
            prp.value("rps_total") * 2.0,
            "n−1 = 2 PRPs per RP"
        );
        assert!(prp.value("peak_live_max") <= 3.0);
    }

    #[test]
    fn locally_defined_workloads_ride_the_engine() {
        // The seam is open: a workload defined right here — no engine
        // edits, no enum variant — runs like any built-in one.
        struct SeedEcho;
        impl Workload for SeedEcho {
            fn label(&self) -> String {
                "seed-echo".into()
            }
            fn cache_params(&self) -> Option<String> {
                None
            }
            fn run(&self, seed: u64) -> Vec<Metric> {
                vec![Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64)]
            }
        }
        let spec = SweepSpec::new(
            "unit-local",
            5,
            vec![
                SweepCell::new(SeedEcho),
                SweepCell::named("again", SeedEcho),
            ],
        );
        let report = spec.run(2);
        assert_eq!(report.cells[0].id, "seed-echo");
        assert_eq!(
            report.cells[0].value("seed_lo32"),
            (rbsim::derive_seed(5, 0) & 0xFFFF_FFFF) as f64
        );
        assert_eq!(
            report.cells[1].value("seed_lo32"),
            (rbsim::derive_seed(5, 1) & 0xFFFF_FFFF) as f64
        );
    }

    #[test]
    fn seed_index_override_detaches_seeding_from_grid_position() {
        struct SeedEcho;
        impl Workload for SeedEcho {
            fn label(&self) -> String {
                "seed-echo".into()
            }
            fn cache_params(&self) -> Option<String> {
                None
            }
            fn run(&self, seed: u64) -> Vec<Metric> {
                vec![Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64)]
            }
        }
        let spec = SweepSpec::new(
            "unit-seed-index",
            5,
            vec![
                SweepCell::named("default", SeedEcho),
                SweepCell::named("pinned", SeedEcho).with_seed_index(1 << 40),
            ],
        );
        assert_eq!(spec.seed_index(0), 0);
        assert_eq!(spec.seed_index(1), 1 << 40);
        let report = spec.run(2);
        assert_eq!(report.cells[0].seed, rbsim::derive_seed(5, 0));
        assert_eq!(report.cells[1].seed, rbsim::derive_seed(5, 1 << 40));
        // The override is position-independent: the same cell first.
        let flipped = SweepSpec::new(
            "unit-seed-index-flipped",
            5,
            vec![SweepCell::named("pinned", SeedEcho).with_seed_index(1 << 40)],
        );
        assert_eq!(flipped.run(1).cells[0].seed, rbsim::derive_seed(5, 1 << 40));
    }

    #[test]
    fn conformance_matrix_spec_covers_the_standard_matrix() {
        let spec =
            SweepSpec::conformance_matrix("unit-conformance", 42, SchemeConformance::quick());
        assert!(spec.cells.len() >= 20);
        let ids: std::collections::HashSet<_> = spec.cells.iter().map(|c| c.id.clone()).collect();
        assert_eq!(ids.len(), spec.cells.len(), "duplicate cell ids");
    }

    #[test]
    #[should_panic(expected = "duplicate cell id `twin`")]
    fn duplicate_cell_ids_are_rejected_at_construction() {
        struct Nop;
        impl Workload for Nop {
            fn label(&self) -> String {
                "nop".into()
            }
            fn cache_params(&self) -> Option<String> {
                None
            }
            fn run(&self, _seed: u64) -> Vec<Metric> {
                Vec::new()
            }
        }
        SweepSpec::new(
            "unit-dup",
            1,
            vec![
                SweepCell::named("twin", Nop),
                SweepCell::named("other", Nop),
                SweepCell::named("twin", Nop),
            ],
        );
    }

    #[test]
    fn try_accessors_return_errors_instead_of_panicking() {
        let report = CellReport {
            id: "c0".into(),
            seed: 0,
            metrics: vec![Metric::exact("EX", 1.0), Metric::exact("EL0", 2.0)],
        };
        assert_eq!(report.try_value("EX"), Ok(1.0));
        assert_eq!(report.try_metric("EL0").unwrap().value(), 2.0);
        let err = report.try_value("EY").unwrap_err();
        assert_eq!(err.cell, "c0");
        assert_eq!(err.requested, "EY");
        assert_eq!(err.available, vec!["EX".to_string(), "EL0".to_string()]);
        // The Display rendering is the panic message of value().
        let msg = err.to_string();
        assert!(
            msg.contains("cell `c0`") && msg.contains("EX, EL0"),
            "{msg}"
        );
    }

    #[test]
    fn run_cached_skips_solves_and_matches_bytes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};

        /// Cacheable workload that counts its own solves.
        #[derive(Clone)]
        struct CountingEcho {
            tag: u64,
            runs: Arc<AtomicUsize>,
        }
        impl Workload for CountingEcho {
            fn label(&self) -> String {
                format!("counting-echo/{}", self.tag)
            }
            fn run(&self, seed: u64) -> Vec<Metric> {
                self.runs.fetch_add(1, Ordering::Relaxed);
                vec![Metric::exact("echo", (seed ^ self.tag) as f64)]
            }
            fn cache_params(&self) -> Option<String> {
                Some(format!("tag={}", self.tag))
            }
        }
        /// Same computation, but never cacheable.
        struct Uncacheable(Arc<AtomicUsize>);
        impl Workload for Uncacheable {
            fn label(&self) -> String {
                "uncacheable".into()
            }
            fn cache_params(&self) -> Option<String> {
                None
            }
            fn run(&self, _seed: u64) -> Vec<Metric> {
                self.0.fetch_add(1, Ordering::Relaxed);
                vec![Metric::exact("echo", 0.0)]
            }
        }

        let runs = Arc::new(AtomicUsize::new(0));
        let unc_runs = Arc::new(AtomicUsize::new(0));
        let spec = || {
            let mut cells: Vec<SweepCell> = (0..6)
                .map(|tag| {
                    SweepCell::named(
                        format!("cell{tag}"),
                        CountingEcho {
                            tag,
                            runs: runs.clone(),
                        },
                    )
                })
                .collect();
            cells.push(SweepCell::named("raw", Uncacheable(unc_runs.clone())));
            SweepSpec::new("unit-cached", 13, cells)
        };

        let dir = std::env::temp_dir().join(format!("rbbench-run-cached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Mutex::new(crate::cache::ResultCache::open(&dir).unwrap());

        let cold = spec().run_cached(4, &cache);
        assert_eq!((cold.hits, cold.misses, cold.uncacheable), (0, 6, 1));
        assert_eq!(runs.load(Ordering::Relaxed), 6);
        assert_eq!(cold.report.to_json(), spec().run(1).to_json());
        assert_eq!(
            runs.load(Ordering::Relaxed),
            12,
            "reference run solves again"
        );

        // Warm: zero cacheable solves, byte-identical report, the
        // uncacheable cell runs every time.
        let warm = spec().run_cached(4, &cache);
        assert_eq!((warm.hits, warm.misses, warm.uncacheable), (6, 0, 1));
        assert_eq!(
            runs.load(Ordering::Relaxed),
            12,
            "no new solves on warm run"
        );
        assert_eq!(unc_runs.load(Ordering::Relaxed), 3);
        assert_eq!(warm.report.to_json(), cold.report.to_json());

        // A different sweep naming the same computations differently
        // still hits — the key binds the workload, not the cell id —
        // and the hit is re-labelled with the new id.
        let renamed = SweepSpec::new(
            "unit-cached-renamed",
            13,
            (0..2)
                .map(|tag| {
                    SweepCell::named(
                        format!("other-name{tag}"),
                        CountingEcho {
                            tag,
                            runs: runs.clone(),
                        },
                    )
                })
                .collect(),
        );
        let re = renamed.run_cached(2, &cache);
        assert_eq!((re.hits, re.misses), (2, 0));
        assert_eq!(re.report.cells[0].id, "other-name0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_metric_panic_lists_available_names() {
        let report = CellReport {
            id: "c0".into(),
            seed: 0,
            metrics: vec![Metric::exact("EX", 1.0), Metric::exact("EL0", 2.0)],
        };
        let err = std::panic::catch_unwind(|| report.value("EY")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("cell `c0`"), "{msg}");
        assert!(msg.contains("`EY`"), "{msg}");
        assert!(msg.contains("EX, EL0"), "{msg}");
    }

    #[test]
    fn failures_surface_in_assert_ok() {
        let report = SweepReport {
            sweep: "synthetic".into(),
            master_seed: 0,
            cells: vec![CellReport {
                id: "c".into(),
                seed: 0,
                metrics: vec![Metric::check("bad/check", 1.0, 0.1, false)],
            }],
        };
        assert_eq!(report.failures().len(), 1);
        assert!(std::panic::catch_unwind(|| report.assert_ok()).is_err());
    }
}
