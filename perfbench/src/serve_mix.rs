//! `serve_mix`: an open loop of seeded `submit`s against the `rbserve`
//! binary on a pre-populated cache directory.
//!
//! Every input is a pure function of the seed ([`Schedule`]): the
//! pre-populated sweeps, the arrival times ([`RATE`] per second, one in
//! each slot of 1/[`RATE`]) and the request mix. New sweeps miss, solve
//! and insert; repeats of recent sweeps hit the hot tier; repeats of
//! pre-populated sweeps hit the warm tier first. The working set is several times the
//! server's 1024-entry hot tier. Each submit goes over its own
//! connection, as `rbserve::run_request` and `rbclient` do, from at
//! most [`SENDERS`] client threads, and is timed from when it was due.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbbench::cache::{cell_key, wal_stats, CacheKey, HitTier, ResultCache};
use rbbench::sweep::CellReport;
use rbserve::{run_request, ClientConfig, Request};

use crate::guard::wait_capped;
use crate::report::{gmean, median, pct, quantile, Outcome, Value};
use crate::{mix64, trace, Rng};

/// Arrival rate, submits per second.
pub const RATE: f64 = 50.0;
/// Client threads (and so concurrent connections): the host's 2 cores.
pub const SENDERS: usize = 2;
/// Cells per sweep: n × μ × λ below.
pub const CELLS: usize = 16;
/// Pre-populated sweeps: 4096 cells, four times the hot tier.
const PREPOP_SWEEPS: usize = 256;
/// A census pass still overfills the hot tier (1152 cells).
const CENSUS_PREPOP_SWEEPS: usize = 72;
/// Request mix per block of 20: new sweeps (misses), repeats of a
/// recent in-run sweep (hot hits), repeats of a pre-populated sweep
/// (warm hits, then hot).
const MIX: [Class; 20] = {
    use Class::{New as N, Prepop as P, Recent as R};
    [N, N, N, N, N, N, R, R, R, R, R, R, R, P, P, P, P, P, P, P]
};
/// Recent repeats pick among this many latest new sweeps.
const RECENT_WINDOW: usize = 8;
/// Server starts measured for `setup_s`; the last one serves the run.
const SETUP_STARTS: usize = 5;
/// Submits per block for `work_s` (the server's summed work on a block).
const BLOCK: usize = 100;
/// Per-request cap (the client's socket timeout).
const REQUEST_CAP: Duration = Duration::from_secs(30);
/// Keys timed by the in-process cache probes.
const PROBE_KEYS: usize = 512;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    New,
    Recent,
    Prepop,
}

impl Class {
    fn tag(self) -> &'static str {
        match self {
            Class::New => "new",
            Class::Recent => "recent",
            Class::Prepop => "prepop",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Submit {
    /// Due time, microseconds after the loop starts.
    pub due_us: u64,
    /// The sweep's id, which is also its master seed.
    pub sweep: u64,
    pub class: Class,
}

/// Everything the workload sends, derived from the seed alone.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub prepop: Vec<u64>,
    pub submits: Vec<Submit>,
}

impl Schedule {
    pub fn new(seed: u64, seconds: f64, census: bool) -> Schedule {
        let mut rng = Rng::new(mix64(seed ^ 0x5e_12e5));
        // Ids stay below 2⁵² so they travel exactly as JSON numbers.
        let id = |rng: &mut Rng| rng.next_u64() >> 12;
        let n_prepop = if census {
            CENSUS_PREPOP_SWEEPS
        } else {
            PREPOP_SWEEPS
        };
        let prepop: Vec<u64> = (0..n_prepop).map(|_| id(&mut rng)).collect();
        // One arrival at a seeded instant inside each 1/RATE slot, and
        // every block of MIX.len() arrivals carries the mix exactly, in
        // seeded order: seeds vary the inputs, not the offered load.
        let total = (seconds * RATE) as usize;
        let mut classes = Vec::with_capacity(total);
        while classes.len() < total {
            let mut block = MIX.to_vec();
            rng.shuffle(&mut block);
            classes.extend(block);
        }
        classes.truncate(total);
        if let Some(first_new) = classes.iter().position(|&c| c == Class::New) {
            classes.swap(0, first_new);
        }
        let (mut recent, mut submits) = (Vec::new(), Vec::with_capacity(total));
        for (k, class) in classes.into_iter().enumerate() {
            let due = (k as f64 + rng.next_f64()) / RATE;
            let sweep = match class {
                Class::New => {
                    let s = id(&mut rng);
                    recent.push(s);
                    s
                }
                Class::Recent => {
                    let k = (rng.next_u64() as usize) % recent.len().min(RECENT_WINDOW);
                    recent[recent.len() - 1 - k]
                }
                Class::Prepop => prepop[(rng.next_u64() as usize) % prepop.len()],
            };
            submits.push(Submit {
                due_us: (due * 1e6) as u64,
                sweep,
                class,
            });
        }
        Schedule { prepop, submits }
    }

    /// Canonical bytes of the schedule, for the determinism check.
    pub fn to_bytes(&self) -> String {
        let mut s = String::new();
        for id in &self.prepop {
            s.push_str(&format!("prepop {id}\n"));
        }
        for r in &self.submits {
            s.push_str(&format!(
                "submit {} {} {}\n",
                r.due_us,
                r.class.tag(),
                r.sweep
            ));
        }
        s
    }
}

/// The submit line of sweep `id`: a small-ρ `async_grid` sweep. 500
/// lines per cell keeps the cold path about serving and storing rather
/// than simulating (simulation cost is `solve_mix`'s and
/// `paper_repro`'s concern).
pub fn submit_line(id: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"name\":\"s{id}\",\"seed\":{id},\"kind\":\"async_grid\",\
         \"n\":[3,4],\"mu\":[1,2],\"lambda\":[0.1,0.2,0.35,0.5],\"lines\":500}}"
    )
}

fn spec_of(id: u64) -> Result<rbbench::sweep::SweepSpec, String> {
    match Request::parse(&submit_line(id))? {
        Request::Submit(s) => s.build_spec(),
        other => Err(format!("submit line parsed as {other:?}")),
    }
}

/// Fills the cache directory with the pre-populated sweeps, through the
/// same spec builder the server uses so the keys match. Returns the
/// keys and reports of the first [`PROBE_KEYS`] cells, for the cache
/// probes.
fn prepopulate(dir: &Path, ids: &[u64]) -> Result<Vec<(CacheKey, CellReport)>, String> {
    let cache = Mutex::new(ResultCache::open(dir).map_err(|e| e.to_string())?);
    let mut probe = Vec::new();
    for &id in ids {
        let spec = spec_of(id)?;
        let done = spec.run_cached(SENDERS, &cache);
        for (cell, report) in spec.cells.iter().zip(done.report.cells) {
            if probe.len() < PROBE_KEYS {
                let key = cell_key(cell, report.seed).ok_or("async_grid cells are cacheable")?;
                probe.push((key, report));
            }
        }
    }
    Ok(probe)
}

/// A running `rbserve` process; killed and reaped if dropped early.
struct Server {
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    addr: String,
}

impl Server {
    /// Starts the binary and waits for its `listening on` banner.
    fn start(bin: &Path, cache: &Path, log: &Path) -> Result<Server, String> {
        let err = std::fs::File::create(log).map_err(|e| format!("create log: {e}"))?;
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &SENDERS.to_string(),
                "--cache",
            ])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn rbserve: {e}"))?;
        let out = child.stdout.take().ok_or("rbserve stdout")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("rbserve: listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            stdout: Some(reader),
            addr: String::new(),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "rbserve printed no listening line".to_string())?;
        Ok(server)
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            addr: self.addr.clone(),
            max_attempts: 1,
            io_timeout: REQUEST_CAP,
            ..ClientConfig::default()
        }
    }

    /// Asks the server to drain and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = run_request(&self.client(), "{\"op\":\"shutdown\"}", &mut |_| {});
        let child = self.child.take().ok_or("server already stopped")?;
        let status = wait_capped(child, Duration::from_secs(30))?;
        if let Some(r) = self.stdout.take() {
            let _ = r.join();
        }
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("rbserve exited {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.stdout.take() {
            let _ = r.join();
        }
    }
}

/// The server's counters, by name.
fn server_metrics(cfg: &ClientConfig) -> Result<BTreeMap<String, f64>, String> {
    let line = run_request(cfg, "{\"op\":\"metrics\"}", &mut |_| {})?;
    let doc: serde::Value = serde_json::from_str(&line).map_err(|e| format!("{e:?}"))?;
    let Some(serde::Value::Seq(items)) = doc.get("metrics") else {
        return Err(format!("metrics response without metrics: {line}"));
    };
    Ok(items
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("value")) {
            (Some(serde::Value::Str(n)), Some(serde::Value::Num(v))) => Some((n.clone(), *v)),
            _ => None,
        })
        .collect())
}

/// What the client saw of one submit.
struct Seen {
    idx: usize,
    send: Instant,
    accepted: Option<Instant>,
    cells: Vec<Instant>,
    /// Cell lines with the `cached` flag cleared, for byte comparison.
    payloads: Vec<String>,
    done: Instant,
    result: Result<String, String>,
}

fn event_of(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"event\":\"")? + 9..];
    Some(&rest[..rest.find('"')?])
}

fn send_one(cfg: &ClientConfig, idx: usize, line: &str) -> Seen {
    let send = Instant::now();
    let (mut accepted, mut cells, mut payloads) = (None, Vec::new(), Vec::new());
    let result = run_request(cfg, line, &mut |ev| match event_of(ev) {
        Some("accepted") => accepted = Some(Instant::now()),
        Some("cell") => {
            cells.push(Instant::now());
            payloads.push(ev.replacen("\"cached\":true", "\"cached\":false", 1));
        }
        _ => {}
    });
    Seen {
        idx,
        send,
        accepted,
        cells,
        payloads,
        done: Instant::now(),
        result,
    }
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let doc: serde::Value = serde_json::from_str(line).ok()?;
    match doc.get(key)? {
        serde::Value::Num(x) => Some(*x),
        _ => None,
    }
}

/// Per-submit checks: the sweep finished, streamed every cell, and a
/// pre-populated one hit on every cell.
fn check(sub: &Submit, seen: &Seen) -> Result<(), String> {
    let done = seen.result.as_ref().map_err(Clone::clone)?;
    if !done.contains("\"ok\":true") {
        return Err(format!("done event not ok: {done}"));
    }
    if seen.cells.len() != CELLS {
        return Err(format!(
            "{} cell events, expected {CELLS}",
            seen.cells.len()
        ));
    }
    // A new sweep may race a repeat of itself (both in flight), so
    // only pre-populated sweeps have a fixed hit count.
    if sub.class == Class::Prepop {
        let hits = num_field(done, "cache_hits");
        if hits != Some(CELLS as f64) {
            return Err(format!(
                "pre-populated sweep: cache_hits = {hits:?}, expected {CELLS}"
            ));
        }
    }
    Ok(())
}

/// Runs the workload (or, with `census`, a short pass on a smaller
/// cache for another workload's traced run).
pub fn run(seed: u64, seconds: f64, bin_dir: &Path, work: &Path, census: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = body(seed, seconds, bin_dir, work, census, &mut out) {
        out.attempted += 1;
        out.fail("serve_mix", e);
    }
    out
}

fn body(
    seed: u64,
    seconds: f64,
    bin_dir: &Path,
    work: &Path,
    census: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced = trace::enabled();
    let schedule = Schedule::new(seed, seconds, census);
    if schedule.to_bytes() != Schedule::new(seed, seconds, census).to_bytes() {
        return Err("schedule is not a pure function of the seed".into());
    }
    let cache_dir: PathBuf = work.join("cache");
    std::fs::create_dir_all(work).map_err(|e| format!("create work dir: {e}"))?;
    let probe = prepopulate(&cache_dir, &schedule.prepop)?;

    // Set-up: server start and cache open until the first answered
    // request; the last start serves the run.
    let bin = bin_dir.join("rbserve");
    let starts = if census { 1 } else { SETUP_STARTS };
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..starts {
        let t0 = Instant::now();
        let s = Server::start(&bin, &cache_dir, &work.join(format!("rbserve_{i}.log")))?;
        run_request(&s.client(), "{\"op\":\"status\"}", &mut |_| {})?;
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < starts {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server started")?;
    let cfg = server.client();
    let before = server_metrics(&cfg)?;

    // The open loop.
    let lines: Vec<String> = schedule
        .submits
        .iter()
        .map(|s| submit_line(s.sweep))
        .collect();
    let next = AtomicUsize::new(0);
    let seen = Mutex::new(Vec::with_capacity(lines.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..SENDERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= lines.len() {
                    break;
                }
                let due = start + Duration::from_micros(schedule.submits[i].due_us);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let s = send_one(&cfg, i, &lines[i]);
                seen.lock().expect("results lock poisoned").push(s);
            });
        }
    });
    let mut seen = seen.into_inner().expect("results lock poisoned");
    seen.sort_by_key(|s| s.idx);

    let after = server_metrics(&cfg)?;
    server.stop()?;

    // Checks and latencies.
    let mut first: BTreeMap<u64, &Vec<String>> = BTreeMap::new();
    let (mut all, mut cold, mut hit, mut late) = (vec![], vec![], vec![], vec![]);
    for s in &seen {
        let sub = &schedule.submits[s.idx];
        let due = start + Duration::from_micros(sub.due_us);
        out.attempted += 1;
        let label = format!("submit/{}/{}", s.idx, sub.class.tag());
        let checked = check(sub, s).and_then(|()| match first.get(&sub.sweep) {
            Some(p) if **p != s.payloads => {
                Err("cell lines differ from the sweep's first response".to_string())
            }
            Some(_) => Ok(()),
            None => {
                first.insert(sub.sweep, &s.payloads);
                Ok(())
            }
        });
        if let Err(cause) = checked {
            out.fail(label, cause);
            continue;
        }
        let ms = (s.done - due).as_secs_f64() * 1e3;
        all.push(ms);
        late.push((s.send.saturating_duration_since(due)).as_secs_f64() * 1e3);
        if sub.class == Class::New {
            cold.push(ms);
        } else {
            hit.push(ms);
        }
        if traced {
            let req = trace::next_req();
            let root = trace::record("serve.submit", 0, req, due, s.done);
            trace::record("client.late", root, req, due, s.send);
            let accepted = s.accepted.unwrap_or(s.send);
            trace::record("serve.accept", root, req, s.send, accepted);
            if let Some(&c0) = s.cells.first() {
                trace::record("serve.first_cell", root, req, accepted, c0);
                trace::record("serve.stream", root, req, c0, s.done);
            }
        }
    }
    // Server work: its own summed lookup, solve and insert time
    // (`done.solve_ns`) per block of submits. Unlike latency it excludes
    // the accept poll and socket stalls.
    let blocks: Vec<f64> = seen
        .chunks_exact(BLOCK)
        .map(|b| {
            b.iter()
                .filter_map(|s| num_field(s.result.as_ref().ok()?, "solve_ns"))
                .sum::<f64>()
                * 1e-9
        })
        .collect();

    let setup = median(&setups);
    out.e2e
        .insert("setup_s", Value::new(setup, "s", setups.len()));
    out.e2e
        .insert("work_s", Value::new(median(&blocks), "s", blocks.len()));
    out.e2e
        .insert("op_gmean_ms", Value::new(gmean(&all), "ms", all.len()));
    out.named("cold_p50_ms", Value::new(median(&cold), "ms", cold.len()));
    out.named("cold_p95_ms", pct(&cold, 0.95, "ms"));
    out.named("hit_p50_ms", Value::new(median(&hit), "ms", hit.len()));
    out.named("hit_p95_ms", pct(&hit, 0.95, "ms"));
    out.named("submit_p50_ms", Value::new(median(&all), "ms", all.len()));
    out.named("submit_p99_ms", pct(&all, 0.99, "ms"));

    if traced {
        layers(
            out, &schedule, &seen, &before, &after, &cache_dir, work, probe, &late,
        )?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layers(
    out: &mut Outcome,
    schedule: &Schedule,
    seen: &[Seen],
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    cache_dir: &Path,
    work: &Path,
    probe: Vec<(CacheKey, CellReport)>,
    late: &[f64],
) -> Result<(), String> {
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let n = seen.len();
    let count = |v: f64| Value::new(v, "count", n);
    let (hot, warm, miss) = (
        delta("cache/hot_hits"),
        delta("cache/warm_hits"),
        delta("cache/misses"),
    );
    out.layer("cache.hot_hits", count(hot));
    out.layer("cache.warm_hits", count(warm));
    out.layer("cache.misses", count(miss));
    out.layer("cache.evictions", count(delta("cache/evictions")));
    out.layer("cache.inserts", count(delta("cache/inserts")));
    out.layer("solves.deduped", count(delta("solves/deduped")));
    out.layer("serve.retries", count(delta("cells/retries")));
    out.layer("serve.timed_out", count(delta("cells/timed_out")));
    out.layer("serve.shed", count(delta("submits/shed")));
    let lookups = hot + warm + miss;
    out.layer("cache.lookups", count(lookups));
    out.layer(
        "cache.hit_ratio",
        Value::new((hot + warm) / lookups, "ratio", lookups as usize),
    );

    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let accept: Vec<f64> = seen
        .iter()
        .filter_map(|s| s.accepted.map(|a| ms(s.send, a)))
        .collect();
    out.layer(
        "serve.accept_ms",
        Value::new(median(&accept), "ms", accept.len()),
    );
    let is = |s: &Seen, c: Class| schedule.submits[s.idx].class == c;
    let first_cell: Vec<f64> = seen
        .iter()
        .filter(|s| is(s, Class::New))
        .filter_map(|s| Some(ms(s.accepted?, *s.cells.first()?)))
        .collect();
    out.layer(
        "serve.first_cell_ms",
        Value::new(median(&first_cell), "ms", first_cell.len()),
    );
    let gaps: Vec<f64> = seen
        .iter()
        .filter(|s| !is(s, Class::New))
        .flat_map(|s| s.cells.windows(2).map(|w| ms(w[0], w[1]) * 1e3))
        .collect();
    out.layer(
        "serve.cell_gap_us",
        Value::new(median(&gaps), "us", gaps.len()),
    );
    let solve: Vec<f64> = seen
        .iter()
        .filter(|s| is(s, Class::New))
        .filter_map(|s| num_field(s.result.as_ref().ok()?, "solve_ns"))
        .map(|ns| ns * 1e-6)
        .collect();
    out.layer(
        "serve.solve_ms",
        Value::new(median(&solve), "ms", solve.len()),
    );
    out.layer(
        "client.late_p99_ms",
        Value::new(quantile(late, 0.99), "ms", late.len()),
    );

    // Request parsing and spec building, in process.
    let mut parse = Vec::new();
    for s in schedule.submits.iter().take(PROBE_KEYS) {
        let line = submit_line(s.sweep);
        let t = Instant::now();
        let spec = match Request::parse(&line)? {
            Request::Submit(r) => r.build_spec()?,
            _ => return Err("submit line did not parse as a submit".into()),
        };
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(spec);
    }
    out.layer(
        "serve.parse_us",
        Value::new(median(&parse), "us", parse.len()),
    );

    // The cache layer in process, on the directory the server used.
    let stats = wal_stats(cache_dir).map_err(|e| e.to_string())?;
    out.layer(
        "cache.wal_frames",
        Value::new(stats.frames as f64, "count", 1),
    );
    out.layer(
        "cache.wal_bytes",
        Value::new(stats.file_len as f64, "bytes", 1),
    );
    let mut opens = Vec::new();
    let mut cache = None;
    for _ in 0..3 {
        let t = Instant::now();
        let c = trace::span("cache.open", 0, 0, |_| ResultCache::open(cache_dir))
            .map_err(|e| e.to_string())?;
        opens.push(t.elapsed().as_secs_f64());
        cache = Some(c);
    }
    out.layer("cache.open_s", Value::new(median(&opens), "s", opens.len()));
    let mut cache = cache.ok_or("cache never opened")?;
    cache.set_hot_capacity(1024);
    let (mut warm_us, mut hot_us) = (Vec::new(), Vec::new());
    for (key, _) in &probe {
        for (want, into) in [(HitTier::Warm, &mut warm_us), (HitTier::Hot, &mut hot_us)] {
            let t = Instant::now();
            let got = cache.lookup_tiered(key);
            let us = t.elapsed().as_secs_f64() * 1e6;
            match got {
                Some((_, tier)) if tier == want => into.push(us),
                other => {
                    return Err(format!(
                        "probe lookup: expected a {want:?} hit, got {:?}",
                        other.map(|(_, t)| t)
                    ))
                }
            }
        }
    }
    out.layer(
        "cache.lookup_warm_us",
        Value::new(median(&warm_us), "us", warm_us.len()),
    );
    out.layer(
        "cache.lookup_hot_us",
        Value::new(median(&hot_us), "us", hot_us.len()),
    );
    let mut fresh = ResultCache::open(&work.join("insert_probe")).map_err(|e| e.to_string())?;
    let mut insert_us = Vec::new();
    for (key, report) in &probe {
        let t = Instant::now();
        fresh.insert(key, report).map_err(|e| e.to_string())?;
        insert_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.layer(
        "cache.insert_us",
        Value::new(median(&insert_us), "us", insert_us.len()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_schedule_bytes() {
        let a = Schedule::new(7, 20.0, false).to_bytes();
        let b = Schedule::new(7, 20.0, false).to_bytes();
        assert_eq!(a, b);
        assert_ne!(a, Schedule::new(8, 20.0, false).to_bytes());
    }

    #[test]
    fn schedule_mixes_every_class_over_a_working_set_past_the_hot_tier() {
        let s = Schedule::new(11, 25.0, false);
        assert!(s.prepop.len() * CELLS >= 4 * 1024);
        for class in [Class::New, Class::Recent, Class::Prepop] {
            let k = s.submits.iter().filter(|r| r.class == class).count();
            assert!(k >= 200, "{class:?}: only {k} submits");
        }
        assert!(s.submits.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert_eq!(s.submits[0].class, Class::New);
    }
}
