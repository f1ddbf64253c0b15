//! The rbserve wire protocol: line-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line; every response —
//! including each element of a streamed sweep — is one JSON object on
//! one line. Responses always carry an `"ok"` boolean, and streamed
//! lines additionally carry an `"event"` tag (`accepted`, `cell`,
//! `done`, `shed`), so a client can multiplex without guessing at
//! shapes.
//!
//! Requests (`"op"` selects the verb):
//!
//! | op         | fields                                                  |
//! |------------|---------------------------------------------------------|
//! | `submit`   | `name`, `kind`, optional `seed`, kind-specific params   |
//! | `status`   | —                                                       |
//! | `metrics`  | —                                                       |
//! | `quantile` | `sweep`, `cell`, `metric`, `p`                          |
//! | `result`   | `sweep`                                                 |
//! | `shutdown` | —                                                       |
//!
//! Submit kinds: `async_grid` (`n`, `mu`, `lambda`, `lines`, optional
//! `dist {lo, hi, bins}` — the [`rbbench::sweep::AsyncGrid`] cross
//! product) and `conformance` (`effort`: `quick` | `full` — the full
//! `rbtestutil` scenario matrix).
//!
//! Seeds are `u64`; the JSON shim stores numbers as `f64`, so seeds
//! above 2⁵³ must be sent as a **decimal string** (`"seed":
//! "18446744073709551615"`) — integral numbers are accepted below that
//! bound, and anything lossy is rejected rather than silently rounded.
//!
//! Parsing never panics: every malformed line becomes an `Err(String)`
//! rendered back to the client as `{"ok": false, "error": …}`. In
//! particular [`SubmitRequest::build_spec`] pre-validates parameter
//! ranges (n ≥ 2, μ > 0, λ ≥ 0, finite bounds) before touching
//! constructors that panic on contract violations.

use rbbench::sweep::{CellReport, SweepSpec};
use rbcore::workload::{AsyncIntervals, DistSpec};
use rbmarkov::paper::AsyncParams;
use rbtestutil::SchemeConformance;
use serde::{Serialize, Value};

/// Default master seed when a submit carries none: the paper's year.
pub const DEFAULT_SEED: u64 = 1983;

/// Largest seed representable exactly as a JSON number (2⁵³); larger
/// seeds must travel as decimal strings.
pub const MAX_NUMERIC_SEED: u64 = 1 << 53;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a sweep for evaluation.
    Submit(SubmitRequest),
    /// Liveness / drain / queue snapshot (`/healthz`-style).
    Status,
    /// Server counters as a `Metric`-shaped JSON snapshot.
    Metrics,
    /// Interpolated quantile of a finished cell's distribution metric.
    Quantile {
        /// Finished sweep name.
        sweep: String,
        /// Cell id within the sweep.
        cell: String,
        /// Distribution metric name within the cell.
        metric: String,
        /// Probability level in (0, 1).
        p: f64,
    },
    /// The full report of a finished sweep, as one JSON line.
    Result {
        /// Finished sweep name.
        sweep: String,
    },
    /// Begin graceful drain: refuse new submits, finish queued work,
    /// then exit the accept loop.
    Shutdown,
}

/// A `submit` request: the sweep's name, master seed, and grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitRequest {
    /// Sweep name (keys the finished-result store).
    pub name: String,
    /// Master seed (cell seeds derive from it by grid position).
    pub seed: u64,
    /// Which grid to build.
    pub kind: SubmitKind,
}

/// The grid a submit describes.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitKind {
    /// Cross product over the asynchronous scheme
    /// ([`rbbench::sweep::AsyncGrid`] with an optional distribution
    /// metric per cell).
    AsyncGrid {
        /// Process counts (each ≥ 2).
        n: Vec<usize>,
        /// Checkpoint rates μ (each finite, > 0).
        mu: Vec<f64>,
        /// Interaction rates λ (each finite, ≥ 0).
        lambda: Vec<f64>,
        /// Recovery-line intervals measured per cell (≥ 1).
        lines: usize,
        /// Optional histogram support for the `X_dist` metric.
        dist: Option<DistSpec>,
    },
    /// The standard conformance matrix at the given effort.
    Conformance {
        /// `true` = [`SchemeConformance::quick`], `false` = full
        /// ([`SchemeConformance::default`]).
        quick: bool,
    },
}

impl Request {
    /// Parses one request line. Never panics; any malformed input is an
    /// `Err` naming what was wrong.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("malformed JSON: {e}"))?;
        if !matches!(v, Value::Map(_)) {
            return Err("request must be a JSON object".into());
        }
        let op = str_field(&v, "op")?;
        match op.as_str() {
            "submit" => parse_submit(&v).map(Request::Submit),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "quantile" => {
                let p = f64_field(&v, "p")?;
                Ok(Request::Quantile {
                    sweep: str_field(&v, "sweep")?,
                    cell: str_field(&v, "cell")?,
                    metric: str_field(&v, "metric")?,
                    p,
                })
            }
            "result" => Ok(Request::Result {
                sweep: str_field(&v, "sweep")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op `{other}`; expected one of submit, status, metrics, quantile, result, shutdown"
            )),
        }
    }
}

fn parse_submit(v: &Value) -> Result<SubmitRequest, String> {
    let name = str_field(v, "name")?;
    if name.is_empty() {
        return Err("submit: `name` must be non-empty".into());
    }
    let seed = match v.get("seed") {
        None | Some(Value::Null) => DEFAULT_SEED,
        Some(s) => seed_value(s)?,
    };
    let kind = match str_field(v, "kind")?.as_str() {
        "async_grid" => SubmitKind::AsyncGrid {
            n: usize_list(v, "n")?,
            mu: f64_list(v, "mu")?,
            lambda: f64_list(v, "lambda")?,
            lines: usize_field(v, "lines")?,
            dist: match v.get("dist") {
                None | Some(Value::Null) => None,
                Some(d) => Some(parse_dist(d)?),
            },
        },
        "conformance" => SubmitKind::Conformance {
            quick: match v.get("effort") {
                None | Some(Value::Null) => true,
                Some(Value::Str(s)) if s == "quick" => true,
                Some(Value::Str(s)) if s == "full" => false,
                Some(other) => {
                    return Err(format!(
                        "submit: `effort` must be \"quick\" or \"full\", got {other:?}"
                    ))
                }
            },
        },
        other => Err(format!(
            "submit: unknown kind `{other}`; expected async_grid or conformance"
        ))?,
    };
    Ok(SubmitRequest { name, seed, kind })
}

fn parse_dist(v: &Value) -> Result<DistSpec, String> {
    let lo = f64_field(v, "lo")?;
    let hi = f64_field(v, "hi")?;
    let bins = usize_field(v, "bins")?;
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(format!("dist: need finite lo < hi, got lo={lo}, hi={hi}"));
    }
    if bins == 0 {
        return Err("dist: `bins` must be ≥ 1".into());
    }
    Ok(DistSpec::new(lo, hi, bins))
}

impl SubmitRequest {
    /// Builds the [`SweepSpec`] this submit describes, validating every
    /// parameter range first — the underlying constructors
    /// ([`AsyncParams::symmetric`], [`SweepSpec::new`]) treat violations
    /// as programmer error and panic, and a network request must never
    /// reach them invalid.
    pub fn build_spec(&self) -> Result<SweepSpec, String> {
        match &self.kind {
            SubmitKind::Conformance { quick } => {
                let cfg = if *quick {
                    SchemeConformance::quick()
                } else {
                    SchemeConformance::default()
                };
                Ok(SweepSpec::conformance_matrix(
                    self.name.clone(),
                    self.seed,
                    cfg,
                ))
            }
            SubmitKind::AsyncGrid {
                n,
                mu,
                lambda,
                lines,
                dist,
            } => {
                if n.is_empty() || mu.is_empty() || lambda.is_empty() {
                    return Err("async_grid: `n`, `mu`, `lambda` must be non-empty".into());
                }
                if let Some(&bad) = n.iter().find(|&&x| x < 2) {
                    return Err(format!("async_grid: every n must be ≥ 2, got {bad}"));
                }
                if let Some(&bad) = mu.iter().find(|&&x| !(x.is_finite() && x > 0.0)) {
                    return Err(format!(
                        "async_grid: every mu must be finite and > 0, got {bad}"
                    ));
                }
                if let Some(&bad) = lambda.iter().find(|&&x| !(x.is_finite() && x >= 0.0)) {
                    return Err(format!(
                        "async_grid: every lambda must be finite and ≥ 0, got {bad}"
                    ));
                }
                if *lines == 0 {
                    return Err("async_grid: `lines` must be ≥ 1".into());
                }
                // Same id scheme and n-major order as AsyncGrid::cells,
                // with the optional distribution folded in per cell.
                let mut cells = Vec::with_capacity(n.len() * mu.len() * lambda.len());
                for &n in n {
                    for &mu in mu {
                        for &lambda in lambda {
                            let mut w =
                                AsyncIntervals::new(AsyncParams::symmetric(n, mu, lambda), *lines);
                            if let Some(d) = dist {
                                w = w.with_distribution(*d);
                            }
                            cells.push(rbbench::sweep::SweepCell::named(
                                format!("n{n}/mu{mu}/lam{lambda}"),
                                w,
                            ));
                        }
                    }
                }
                Ok(SweepSpec::new(self.name.clone(), self.seed, cells))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Field extraction (total: every failure is an Err, never a panic)
// ---------------------------------------------------------------------

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("`{key}` must be a string, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Num(x)) => Ok(*x),
        Some(other) => Err(format!("`{key}` must be a number, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    match v.get(key) {
        Some(Value::Num(x)) if *x >= 0.0 && *x == x.trunc() && *x <= MAX_NUMERIC_SEED as f64 => {
            Ok(*x as usize)
        }
        Some(other) => Err(format!(
            "`{key}` must be a non-negative integer, got {other:?}"
        )),
        None => Err(format!("missing field `{key}`")),
    }
}

/// A `u64` that may arrive as an integral JSON number (exact below
/// 2⁵³) or as a decimal string (exact everywhere).
fn seed_value(v: &Value) -> Result<u64, String> {
    match v {
        Value::Num(x) if *x >= 0.0 && *x == x.trunc() && *x <= MAX_NUMERIC_SEED as f64 => {
            Ok(*x as u64)
        }
        Value::Num(x) => Err(format!(
            "seed {x} is not exactly representable as a JSON number; send seeds above 2^53 as a decimal string"
        )),
        Value::Str(s) => s
            .parse::<u64>()
            .map_err(|e| format!("seed string `{s}`: {e}")),
        other => Err(format!("`seed` must be a number or string, got {other:?}")),
    }
}

fn f64_list(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    match v.get(key) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|x| match x {
                Value::Num(f) => Ok(*f),
                other => Err(format!("`{key}` must contain numbers, got {other:?}")),
            })
            .collect(),
        Some(other) => Err(format!("`{key}` must be an array, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn usize_list(v: &Value, key: &str) -> Result<Vec<usize>, String> {
    match v.get(key) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|x| match x {
                Value::Num(f) if *f >= 0.0 && *f == f.trunc() => Ok(*f as usize),
                other => Err(format!(
                    "`{key}` must contain non-negative integers, got {other:?}"
                )),
            })
            .collect(),
        Some(other) => Err(format!("`{key}` must be an array, got {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

// ---------------------------------------------------------------------
// Response builders (one JSON line each, via the deterministic shim)
// ---------------------------------------------------------------------

/// Builds a [`Value::Map`] from `(key, value)` pairs, preserving order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders a [`Value`] as one compact JSON line (no trailing newline).
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("shim rendering is total")
}

/// `{"ok": false, "error": …}` — the malformed-request response.
pub fn error_line(msg: &str) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.to_string())),
    ]))
}

/// `{"ok": false, "event": "shed", "error": …}` — explicit
/// backpressure: the request was well-formed but the server refused it.
pub fn shed_line(reason: &str) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(false)),
        ("event", Value::Str("shed".into())),
        ("error", Value::Str(reason.to_string())),
    ]))
}

/// `{"ok": true, "event": "accepted", …}` — the sweep was queued.
pub fn accepted_line(sweep: &str, cells: usize) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("event", Value::Str("accepted".into())),
        ("sweep", Value::Str(sweep.to_string())),
        ("cells", Value::Num(cells as f64)),
    ]))
}

/// `{"ok": true, "event": "cell", …}` — one finished cell, streamed as
/// it completes. The embedded report is the cell's canonical
/// serialization: byte-identical whether served from cache or solved.
pub fn cell_line(sweep: &str, index: usize, cached: bool, report: &CellReport) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("event", Value::Str("cell".into())),
        ("sweep", Value::Str(sweep.to_string())),
        ("index", Value::Num(index as f64)),
        ("cached", Value::Bool(cached)),
        ("report", report.to_value()),
    ]))
}

/// `{"ok": …, "event": "done", …}` — the sweep finished (or aborted:
/// `ok: false` with an `error`). `solve_ns` is the job's wall time —
/// lookups, solves (overlapping under look-ahead), waits on other jobs'
/// solves, acceptance tests and inserts — less the time spent emitting
/// cell events while none of the job's attempts is in flight, which for
/// a job solving one cell at a time is all of it. It is reported here,
/// never inside cell payloads, which must stay execution-independent.
#[allow(clippy::too_many_arguments)]
pub fn done_line(
    sweep: &str,
    cells: usize,
    hits: u64,
    misses: u64,
    uncacheable: u64,
    solve_ns: f64,
    error: Option<&str>,
) -> String {
    let mut fields = vec![
        ("ok", Value::Bool(error.is_none())),
        ("event", Value::Str("done".into())),
        ("sweep", Value::Str(sweep.to_string())),
        ("cells", Value::Num(cells as f64)),
        ("cache_hits", Value::Num(hits as f64)),
        ("cache_misses", Value::Num(misses as f64)),
        ("uncacheable", Value::Num(uncacheable as f64)),
        ("solve_ns", Value::Num(solve_ns)),
    ];
    if let Some(e) = error {
        fields.push(("error", Value::Str(e.to_string())));
    }
    render(&obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(Request::parse(r#"{"op":"status"}"#), Ok(Request::Status));
        assert_eq!(Request::parse(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            Request::parse(r#"{"op":"result","sweep":"s"}"#),
            Ok(Request::Result { sweep: "s".into() })
        );
        let q =
            Request::parse(r#"{"op":"quantile","sweep":"s","cell":"c","metric":"X_dist","p":0.9}"#)
                .unwrap();
        assert_eq!(
            q,
            Request::Quantile {
                sweep: "s".into(),
                cell: "c".into(),
                metric: "X_dist".into(),
                p: 0.9
            }
        );
    }

    #[test]
    fn submit_async_grid_builds_the_same_cells_as_the_bench_grid() {
        let req = Request::parse(
            r#"{"op":"submit","name":"g","seed":42,"kind":"async_grid",
                "n":[2,3],"mu":[1],"lambda":[0.5,1],"lines":200}"#,
        )
        .unwrap();
        let Request::Submit(sub) = req else {
            panic!("expected submit")
        };
        let spec = sub.build_spec().unwrap();
        let reference = SweepSpec::async_grid(
            "g",
            42,
            &rbbench::sweep::AsyncGrid {
                n: vec![2, 3],
                mu: vec![1.0],
                lambda: vec![0.5, 1.0],
                lines: 200,
            },
        );
        assert_eq!(spec.cells.len(), reference.cells.len());
        for (a, b) in spec.cells.iter().zip(&reference.cells) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn submit_validation_rejects_bad_parameters_without_panicking() {
        let build = |body: &str| {
            let Request::Submit(sub) = Request::parse(body).unwrap() else {
                panic!("expected submit")
            };
            sub.build_spec().err().expect("expected a validation error")
        };
        // n = 1 would make AsyncParams::symmetric panic; the protocol
        // rejects it first.
        let err = build(
            r#"{"op":"submit","name":"g","kind":"async_grid","n":[1],"mu":[1],"lambda":[1],"lines":10}"#,
        );
        assert!(err.contains("n must be ≥ 2"), "{err}");
        let err = build(
            r#"{"op":"submit","name":"g","kind":"async_grid","n":[2],"mu":[0],"lambda":[1],"lines":10}"#,
        );
        assert!(err.contains("mu"), "{err}");
        let err = build(
            r#"{"op":"submit","name":"g","kind":"async_grid","n":[2],"mu":[1],"lambda":[-1],"lines":10}"#,
        );
        assert!(err.contains("lambda"), "{err}");
        let err = build(
            r#"{"op":"submit","name":"g","kind":"async_grid","n":[2],"mu":[1],"lambda":[1],"lines":0}"#,
        );
        assert!(err.contains("lines"), "{err}");
    }

    #[test]
    fn seeds_above_2_53_travel_as_strings() {
        let parse_seed = |body: &str| {
            let Request::Submit(sub) = Request::parse(body).unwrap() else {
                panic!("expected submit")
            };
            sub.seed
        };
        assert_eq!(
            parse_seed(r#"{"op":"submit","name":"s","seed":7,"kind":"conformance"}"#),
            7
        );
        assert_eq!(
            parse_seed(
                r#"{"op":"submit","name":"s","seed":"18446744073709551615","kind":"conformance"}"#
            ),
            u64::MAX
        );
        // Default when absent.
        assert_eq!(
            parse_seed(r#"{"op":"submit","name":"s","kind":"conformance"}"#),
            DEFAULT_SEED
        );
        // A lossy numeric seed is refused, not rounded.
        let err = Request::parse(r#"{"op":"submit","name":"s","seed":1e300,"kind":"conformance"}"#)
            .unwrap_err();
        assert!(err.contains("decimal string"), "{err}");
    }

    #[test]
    fn malformed_lines_become_errors_not_panics() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("[1,2]").is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse(r#"{"op":"quantile","sweep":"s"}"#).is_err());
        assert!(Request::parse(r#"{"op":"submit","name":"","kind":"conformance"}"#).is_err());
        assert!(Request::parse(
            r#"{"op":"submit","name":"s","kind":"conformance","effort":"mega"}"#
        )
        .is_err());
    }

    #[test]
    fn response_lines_are_single_json_objects() {
        assert_eq!(error_line("bad"), r#"{"ok":false,"error":"bad"}"#);
        assert_eq!(
            shed_line("queue full"),
            r#"{"ok":false,"event":"shed","error":"queue full"}"#
        );
        assert!(accepted_line("s", 4).contains(r#""cells":4"#));
        let done = done_line("s", 4, 3, 1, 0, 1.5e9, None);
        assert!(done.starts_with(r#"{"ok":true,"event":"done""#), "{done}");
        let failed = done_line("s", 4, 0, 0, 0, 0.0, Some("boom"));
        assert!(
            failed.contains(r#""ok":false"#) && failed.contains("boom"),
            "{failed}"
        );
    }
}
