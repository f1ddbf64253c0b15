//! # rbbench — the experiment harness
//!
//! One binary per table/figure of Shin & Lee (ICPP 1983); see
//! `ARCHITECTURE.md` at the workspace root for the paper-section →
//! crate → binary index. Shared plumbing lives here:
//!
//! * [`sweep`] — the parallel scenario-sweep engine: parameter grids
//!   ([`sweep::SweepSpec`]) of boxed `rbcore::workload::Workload` trait
//!   objects dispatched over threads with deterministic per-cell
//!   seeding, aggregated into a serializable [`sweep::SweepReport`];
//! * [`workloads`] — analysis-augmented workloads (closed-form §3
//!   loss, §5 trade-off scoring, optimal-period search) plus re-exports
//!   of the `rbcore` scheme adapters, so binaries import every workload
//!   kind from one place;
//! * [`adaptive`] — adaptive 1-D grid refinement: bisect the gaps
//!   where a metric jumps, under a global cell budget, with
//!   path-determined per-point seeds so the refined profile is
//!   byte-identical at any thread count and through kill/resume;
//! * [`cache`] — the content-addressed result cache behind
//!   [`sweep::SweepSpec::run_cached`] and the `rbserve` server: completed
//!   cells stored under `(label, canonical params, seed, format version)`
//!   keys in a WAL-backed store, so repeated cells cost a hash lookup,
//!   not a solve — a killed sweep resumes through it byte-identically,
//!   and a killed server restarts warm;
//! * [`cli`] — the shared `--seed` / `--threads` / `--out` /
//!   `--cache` / `--adaptive` / `--splitting` flag parser every binary
//!   uses;
//! * [`emit_json`] / [`emit_json_in`] / [`artifact_json`] — the one
//!   JSON artifact writer every binary funnels through
//!   (machine-readable twins of the printed tables, under `results/`);
//! * [`Table`], [`row`], [`rule`] — fixed-width table printing.
//!
//! ```
//! use rbbench::sweep::{AsyncGrid, SweepSpec};
//!
//! let spec = SweepSpec::async_grid(
//!     "quickstart",
//!     1983,
//!     &AsyncGrid { n: vec![3], mu: vec![1.0], lambda: vec![1.0], lines: 300 },
//! );
//! let report = spec.run(4); // bit-identical to spec.run(1)
//! assert!(report.cells[0].value("EX") > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cache;
pub mod cli;
pub mod sweep;
pub mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Where experiment artifacts are written (`results/` at the workspace
/// root, created on demand; override with `RB_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    results_dir_in(None)
}

/// [`results_dir`] with an explicit override. `Some(dir)` wins
/// outright; `None` falls back to the `RB_RESULTS_DIR` environment
/// variable (read-only — nothing in this workspace *sets* it, so
/// concurrent test threads cannot race on process state), then to
/// `results/`.
pub fn results_dir_in(dir: Option<&Path>) -> PathBuf {
    let dir = match dir {
        Some(d) => d.to_path_buf(),
        None => std::env::var_os("RB_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results")),
    };
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The canonical artifact serialization: pretty JSON plus a trailing
/// newline, exactly the bytes [`emit_json`] writes. Factored out so
/// determinism tests can compare artifacts without touching the
/// filesystem.
pub fn artifact_json<T: serde::Serialize>(value: &T) -> String {
    let mut body = serde_json::to_string_pretty(value).expect("serialize artifact");
    body.push('\n');
    body
}

/// Writes a serializable artifact as pretty JSON under `results/`,
/// returning the path. The figure binaries both print human-readable
/// tables and persist these machine-readable twins.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) -> PathBuf {
    emit_json_in(None, name, value)
}

/// [`emit_json`] with an explicit artifact directory — how binaries
/// thread their `--out` flag through
/// ([`cli::BenchArgs::emit_json`]) instead of mutating process-wide
/// environment state. `None` falls back to `RB_RESULTS_DIR`, then
/// `results/`.
pub fn emit_json_in<T: serde::Serialize>(dir: Option<&Path>, name: &str, value: &T) -> PathBuf {
    let path = results_dir_in(dir).join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create artifact");
    f.write_all(artifact_json(value).as_bytes())
        .expect("write artifact");
    eprintln!("[artifact] {}", path.display());
    path
}

/// Formats a row of fixed-width cells.
pub fn row(cells: &[String], width: usize) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>width$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A horizontal rule sized for `n` cells of `width`.
pub fn rule(n: usize, width: usize) -> String {
    "-".repeat(n * (width + 1))
}

/// Fixed-width table printing for the figure binaries.
///
/// Every binary used to hand-roll the same header/rule/row `println!`
/// boilerplate over [`row`] and [`rule`]; `Table` is that pattern,
/// once.
///
/// ```
/// let t = rbbench::Table::new(8, &["n", "E(X)"]);
/// t.print_header();
/// t.print_row(&["3".into(), format!("{:.3}", 2.598)]);
/// ```
pub struct Table {
    width: usize,
    header: Vec<String>,
}

impl Table {
    /// A table with `columns.len()` cells of `width` characters.
    pub fn new(width: usize, columns: &[&str]) -> Self {
        Table {
            width,
            header: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Prints the header row followed by a rule.
    pub fn print_header(&self) {
        println!("{}", row(&self.header, self.width));
        println!("{}", rule(self.header.len(), self.width));
    }

    /// Prints a horizontal rule matching the table's width (series
    /// separator).
    pub fn print_rule(&self) {
        println!("{}", rule(self.header.len(), self.width));
    }

    /// Prints one data row.
    ///
    /// # Panics
    /// Panics if `cells` does not match the header's column count.
    pub fn print_row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row/header column mismatch");
        println!("{}", row(cells, self.width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_json_roundtrips() {
        // Explicit directory, no env-var mutation: safe under
        // concurrent test threads.
        let dir = std::env::temp_dir().join("rbbench-test-artifacts");
        let path = emit_json_in(Some(&dir), "unit-test", &vec![1, 2, 3]);
        assert!(path.starts_with(&dir));
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            serde_json::from_str::<Vec<i32>>(&body).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(body, artifact_json(&vec![1, 2, 3]));
    }

    #[test]
    fn row_is_fixed_width() {
        let r = row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a   bb");
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn table_rejects_ragged_rows() {
        let t = Table::new(4, &["a", "b"]);
        t.print_row(&["only-one".into()]);
    }
}
