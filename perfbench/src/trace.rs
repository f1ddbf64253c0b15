//! In-memory tracing for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the workspace crates: a name, start and end (nanoseconds since the
//! run began), the span that caused it, and one request identifier
//! shared by every span of one operation. Nothing is written until
//! [`write`] runs once at exit. With tracing off every call is a cheap
//! no-op, so the untraced run pays no recording cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u64,
    /// Request (operation) identifier shared by its spans.
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_req: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
    })
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    tracer().on.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

/// A fresh request identifier (0 when tracing is off).
pub fn next_req() -> u64 {
    if !enabled() {
        return 0;
    }
    tracer().next_req.fetch_add(1, Ordering::Relaxed)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(tracer().epoch).as_nanos() as u64
}

/// Runs `f` inside a span named `name`; `f` receives the span's id so
/// it can parent its own children.
pub fn span<T>(name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> T) -> T {
    if !enabled() {
        return f(0);
    }
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let out = f(id);
    push(id, parent, req, name, start, Instant::now());
    out
}

/// Records an interval measured elsewhere (e.g. between two protocol
/// events seen by the client). Returns its id, 0 when tracing is off.
pub fn record(name: &str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    push(id, parent, req, name, start, end);
    id
}

fn push(id: u64, parent: u64, req: u64, name: &str, start: Instant, end: Instant) {
    let span = Span {
        id,
        parent,
        req,
        name: name.to_string(),
        start_ns: ns(start),
        end_ns: ns(end).max(ns(start)),
    };
    tracer()
        .spans
        .lock()
        .expect("span buffer lock poisoned")
        .push(span);
}

/// Adds `v` to the counter `name` (recorded only when tracing is on).
pub fn add(name: &str, v: f64) {
    if enabled() {
        *tracer()
            .counters
            .lock()
            .expect("counter lock poisoned")
            .entry(name.to_string())
            .or_insert(0.0) += v;
    }
}

/// Raises the counter `name` to at least `v`.
pub fn max(name: &str, v: f64) {
    if enabled() {
        let mut c = tracer().counters.lock().expect("counter lock poisoned");
        let e = c.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }
}

pub fn counter(name: &str) -> Option<f64> {
    tracer()
        .counters
        .lock()
        .expect("counter lock poisoned")
        .get(name)
        .copied()
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    tracer()
        .spans
        .lock()
        .expect("span buffer lock poisoned")
        .clone()
}

/// Durations, in seconds, of every span named `name`.
pub fn durations(name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Summed duration, in seconds, of every span named `name`.
pub fn total_s(name: &str) -> f64 {
    durations(name).iter().sum()
}

/// Self time of every span name: its spans' durations minus the part
/// of each interval its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += total as f64 * 1e-9;
        e.2 += total.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Writes every span, the per-name totals and self times, and the
/// counters to `path` as one JSON document.
pub fn write(path: &Path) -> std::io::Result<()> {
    let spans = spans();
    let mut s = String::from("{\n  \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
            sp.id,
            sp.parent,
            sp.req,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"by_name\": {\n");
    let by_name = self_times(&spans);
    let n = by_name.len();
    for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"count\": {count}, \"total_s\": {total:.9}, \"self_s\": {own:.9}}}{}",
            if i + 1 < n { "," } else { "" }
        );
    }
    s.push_str("  },\n  \"counters\": {\n");
    let counters = tracer()
        .counters
        .lock()
        .expect("counter lock poisoned")
        .clone();
    let n = counters.len();
    for (i, (name, v)) in counters.iter().enumerate() {
        let _ = writeln!(s, "    \"{name}\": {v}{}", if i + 1 < n { "," } else { "" });
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, s)
}
