//! The rbserve server: accept loop, connection handlers, worker pool,
//! and the shared state they coordinate through.
//!
//! Threading model (all `std::net` + `std::sync` — no async runtime):
//!
//! * one **accept thread** owns the listener and blocks in `accept`.
//!   Every state change that can finish a drain wakes it with one
//!   loopback connection, and it checks the drain condition after each
//!   accept, so nothing polls;
//! * one **handler thread** per connection reads request lines and
//!   writes response lines; a `submit` streams its job's event channel
//!   until the worker drops the sending half, each write carrying every
//!   event already queued (never waiting for more). Sockets carry
//!   read/write timeouts ([`ServerConfig::io_timeout`]) and an idle reaper
//!   ([`ServerConfig::idle_timeout`]) so a stalled client can't pin a
//!   handler thread forever;
//! * `workers` **worker threads** pull jobs off a shared channel and
//!   supervise cells sequentially, consulting the result cache before
//!   each solve. They share the queue's one receiver behind a mutex,
//!   held only inside `recv` (as do the solvers below);
//! * `workers` **solver threads** actually execute cells, dispatched
//!   one at a time by the supervising worker. Each solve is a
//!   *recovery block*: primary attempt on a solver, acceptance test on
//!   the result (id/seed binding + codec round-trip), and on a panic,
//!   hang (deadline [`ServerConfig::cell_timeout`]), or acceptance
//!   failure, a bounded retry ([`ServerConfig::max_cell_retries`]) on
//!   a **fresh** solver thread — the recovery-blocks server practicing
//!   recovery blocks on itself.
//!
//! Degradation ladder (every refusal is an explicit response, never a
//! dropped connection):
//!
//! 1. malformed line → `{"ok": false, "error": …}`, connection stays up;
//! 2. oversized submit (more than [`ServerConfig::max_cells`] cells) →
//!    `shed`;
//! 3. queue full ([`ServerConfig::queue_capacity`] jobs waiting) →
//!    `shed` — the client retries later, the server never buffers
//!    unboundedly;
//! 4. draining (after `shutdown`) → `shed` for new submits while queued
//!    work finishes;
//! 5. a cell that exhausts its retries → the job aborts with an
//!    `ok: false` done-event naming the cell and the last failure —
//!    the documented refusal, never a silently wrong report.
//!
//! [`ChaosConfig`] injects deterministic faults (panic, hang, garbled
//! report) into solver attempts from a seeded schedule, so the whole
//! recovery path above is exercised by sweeps over fault schedules
//! rather than trusted on inspection.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbbench::cache::{CacheKey, HitTier, ResultCache};
use rbbench::sweep::{CellReport, SweepCell, SweepReport, SweepSpec};
use rbcore::metrics::Metric;
use rbruntime::faultio::mix64;
use rbsim::derive_seed;
use serde::{Serialize, Value};

use crate::protocol::{
    accepted_line, cell_line, done_line, error_line, obj, render, shed_line, Request,
};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the bound address is on
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads solving sweeps. `0` is permitted (nothing is
    /// ever dequeued — useful for exercising backpressure
    /// deterministically in tests).
    pub workers: usize,
    /// Jobs that may wait in the queue before submits are shed.
    pub queue_capacity: usize,
    /// Largest accepted sweep, in cells; bigger submits are shed.
    pub max_cells: usize,
    /// Result-cache directory; `None` disables caching (every cell
    /// solves).
    pub cache_dir: Option<PathBuf>,
    /// Per-cell deadline: a solver that hasn't reported by then is
    /// presumed hung, a replacement is spawned, and the cell retries.
    pub cell_timeout: Duration,
    /// Retries after the primary attempt before the job aborts with a
    /// named refusal (so a cell runs at most `1 + max_cell_retries`
    /// times).
    pub max_cell_retries: u32,
    /// Socket read/write timeout on accepted connections. Reads wake
    /// this often to check the idle clock; a write stalled longer than
    /// this fails and the handler closes the connection.
    pub io_timeout: Duration,
    /// Idle-connection reaper: a connection with no complete request
    /// for this long is closed (frees the handler thread).
    pub idle_timeout: Duration,
    /// Deterministic fault injection into solver attempts; `None` (the
    /// default) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Compact the result cache (rewrite its WAL dropping benign
    /// duplicate frames) after every this-many inserts; `None` (the
    /// default) never compacts from the server.
    pub compact_every: Option<u64>,
    /// Capacity of the cache's hot tier — decoded reports kept in an
    /// in-memory LRU so repeated hits skip the payload decode. `0`
    /// disables the tier.
    pub hot_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: rbsim::par::available_threads(),
            queue_capacity: 16,
            max_cells: 4096,
            cache_dir: None,
            cell_timeout: Duration::from_secs(120),
            max_cell_retries: 2,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(600),
            chaos: None,
            compact_every: None,
            hot_capacity: 1024,
        }
    }
}

/// A seeded, deterministic fault schedule for solver attempts: which
/// attempts fault, and how, is a pure function of
/// `(seed, cell seed, attempt)` — re-running the same configuration
/// injects the same faults, so chaos runs are reproducible and
/// diffable against a fault-free reference.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed for the schedule.
    pub seed: u64,
    /// Per-mille probability an attempt panics mid-solve.
    pub panic_per_mille: u16,
    /// Per-mille probability an attempt hangs for [`Self::hang_ms`]
    /// before solving (tripping the cell deadline when `hang_ms`
    /// exceeds it).
    pub hang_per_mille: u16,
    /// Per-mille probability an attempt returns a garbled report (seed
    /// field flipped — caught by the acceptance test, never served).
    pub garble_per_mille: u16,
    /// How long a hang fault sleeps, in milliseconds.
    pub hang_ms: u64,
    /// Inject on every attempt instead of only the primary — turns
    /// retry-succeeds into retries-exhausted, for exercising the
    /// refusal arm.
    pub every_attempt: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            panic_per_mille: 0,
            hang_per_mille: 0,
            garble_per_mille: 0,
            hang_ms: 50,
            every_attempt: false,
        }
    }
}

/// What a chaos schedule makes one solver attempt do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InjectedFault {
    /// Panic mid-solve (the solver thread dies; a fresh one replaces it).
    Panic,
    /// Sleep [`ChaosConfig::hang_ms`] before solving.
    Hang,
    /// Solve, then corrupt the report's seed field (acceptance-test bait).
    Garble,
}

impl ChaosConfig {
    /// The fault (if any) injected into attempt `attempt` of the cell
    /// seeded `cell_seed`. Pure — same inputs, same fault.
    fn decide(&self, cell_seed: u64, attempt: u32) -> Option<InjectedFault> {
        if attempt > 0 && !self.every_attempt {
            return None;
        }
        let h = mix64(self.seed ^ mix64(cell_seed) ^ mix64(u64::from(attempt) + 0xC4A05));
        let roll = (h % 1000) as u16;
        let (p, g) = (self.panic_per_mille, self.garble_per_mille);
        if roll < p {
            Some(InjectedFault::Panic)
        } else if roll < p + self.hang_per_mille {
            Some(InjectedFault::Hang)
        } else if roll < p + self.hang_per_mille + g {
            Some(InjectedFault::Garble)
        } else {
            None
        }
    }
}

/// Monotonic counters and gauges, updated lock-free and snapshotted by
/// the `metrics` endpoint.
#[derive(Default)]
pub struct Counters {
    /// `submit` requests received (accepted or not).
    pub req_submit: AtomicU64,
    /// `status` requests received.
    pub req_status: AtomicU64,
    /// `metrics` requests received.
    pub req_metrics: AtomicU64,
    /// `quantile` requests received.
    pub req_quantile: AtomicU64,
    /// `result` requests received.
    pub req_result: AtomicU64,
    /// `shutdown` requests received.
    pub req_shutdown: AtomicU64,
    /// Lines that failed to parse as any request.
    pub req_malformed: AtomicU64,
    /// Submits refused (queue full, oversize, or draining).
    pub shed: AtomicU64,
    /// Cells served from the result cache.
    pub cache_hits: AtomicU64,
    /// Cache hits served from the hot tier (decoded-report LRU — no
    /// decode work).
    pub cache_hot_hits: AtomicU64,
    /// Cache hits served from the warm tier (in-memory byte store —
    /// decoded on the way out, then promoted hot).
    pub cache_warm_hits: AtomicU64,
    /// Hot-tier evictions (mirrors the cache's own monotonic total).
    pub cache_evictions: AtomicU64,
    /// Reports inserted into the result cache.
    pub cache_inserts: AtomicU64,
    /// Cache compactions performed (the `--compact-every` trigger).
    pub cache_compactions: AtomicU64,
    /// Cells that subscribed to another job's in-flight solve of the
    /// same key instead of dispatching a duplicate solve.
    pub dedup_waits: AtomicU64,
    /// Cacheable cells that had to be solved.
    pub cache_misses: AtomicU64,
    /// Cells solved (misses + uncacheable).
    pub cells_solved: AtomicU64,
    /// Sweeps finished (including aborted ones).
    pub jobs_done: AtomicU64,
    /// Gauge: jobs accepted but not yet picked up by a worker.
    pub queue_depth: AtomicU64,
    /// Gauge: jobs currently being executed by workers.
    pub jobs_running: AtomicU64,
    /// Gauge: cells currently inside `Workload::run`.
    pub in_flight_solves: AtomicU64,
    /// Chaos faults injected into solver attempts.
    pub faults_injected: AtomicU64,
    /// Cell attempts retried (after a panic, timeout, or acceptance
    /// failure).
    pub cell_retries: AtomicU64,
    /// Cell attempts that overran [`ServerConfig::cell_timeout`].
    pub cells_timed_out: AtomicU64,
    /// Replacement solver threads spawned (after a panic or timeout).
    pub workers_restarted: AtomicU64,
}

impl Counters {
    /// The counters as a `Metric`-shaped snapshot — the same `exact`
    /// scalar shape every artifact in this workspace uses, so existing
    /// tooling (conformance diffing, plotting) consumes server metrics
    /// unchanged.
    pub fn snapshot(&self, extra: &[(&str, f64)]) -> Vec<Metric> {
        let c = |name: &str, v: &AtomicU64| Metric::exact(name, v.load(Ordering::Relaxed) as f64);
        let mut out = vec![
            c("requests/submit", &self.req_submit),
            c("requests/status", &self.req_status),
            c("requests/metrics", &self.req_metrics),
            c("requests/quantile", &self.req_quantile),
            c("requests/result", &self.req_result),
            c("requests/shutdown", &self.req_shutdown),
            c("requests/malformed", &self.req_malformed),
            c("submits/shed", &self.shed),
            c("cache/hits", &self.cache_hits),
            c("cache/hot_hits", &self.cache_hot_hits),
            c("cache/warm_hits", &self.cache_warm_hits),
            c("cache/evictions", &self.cache_evictions),
            c("cache/inserts", &self.cache_inserts),
            c("cache/compactions", &self.cache_compactions),
            c("solves/deduped", &self.dedup_waits),
            c("cache/misses", &self.cache_misses),
            c("cells/solved", &self.cells_solved),
            c("jobs/done", &self.jobs_done),
            c("queue/depth", &self.queue_depth),
            c("jobs/running", &self.jobs_running),
            c("solves/in_flight", &self.in_flight_solves),
            c("faults/injected", &self.faults_injected),
            c("cells/retries", &self.cell_retries),
            c("cells/timed_out", &self.cells_timed_out),
            c("workers/restarted", &self.workers_restarted),
        ];
        out.extend(extra.iter().map(|(n, v)| Metric::exact(*n, *v)));
        out
    }
}

/// One queued sweep: the spec plus the channel its progress streams
/// through. The handler keeps the receiving half; the worker drops the
/// sender when the job ends, terminating the stream. The spec is
/// `Arc`-shared because solver threads borrow cells from it while the
/// supervising worker holds the job.
struct Job {
    spec: Arc<SweepSpec>,
    events: Sender<String>,
}

/// One cell dispatched to a solver thread. The supervisor waits on
/// `reply` with a deadline; a reply to a supervisor that already gave
/// up (timed out, retried elsewhere) lands on a dropped receiver and
/// is discarded.
struct CellTask {
    spec: Arc<SweepSpec>,
    idx: usize,
    seed: u64,
    fault: Option<InjectedFault>,
    hang_ms: u64,
    /// `Ok(report)` from a completed solve; `Err(message)` when the
    /// attempt panicked (the solver thread dies after sending this).
    reply: Sender<Result<CellReport, String>>,
}

/// State shared by every thread of one server.
struct Shared {
    cfg: ServerConfig,
    /// The listener's bound address, which [`Shared::wake_accept`]
    /// connects to.
    addr: SocketAddr,
    counters: Counters,
    draining: AtomicBool,
    /// Submit handlers still streaming a queued job's events. The drain
    /// condition waits for them too, so `rbserve` never exits with a
    /// `done` event unwritten.
    streams: AtomicU64,
    cache: Option<Mutex<ResultCache>>,
    /// In-flight solve claims, keyed by full cache-key material. A job
    /// that misses the cache claims its key here before solving; jobs
    /// arriving at the same key subscribe instead of dispatching a
    /// duplicate solve, and are woken when the claim resolves.
    pending: Mutex<HashMap<Vec<u8>, Vec<Sender<()>>>>,
    finished: Mutex<HashMap<String, SweepReport>>,
    /// Cell dispatch channel into the solver pool. Both halves live
    /// here so the supervisor can spawn replacement solvers after a
    /// panic or timeout. Every solver takes its cells through
    /// [`recv_shared`] on the one receiver.
    solver_tx: Sender<CellTask>,
    solver_rx: Mutex<Receiver<CellTask>>,
}

impl Shared {
    /// Whether a `shutdown` was seen and no job is queued, running or
    /// still streaming to its client.
    fn drained(&self) -> bool {
        let c = &self.counters;
        self.draining.load(Ordering::SeqCst)
            && c.queue_depth.load(Ordering::SeqCst) == 0
            && c.jobs_running.load(Ordering::SeqCst) == 0
            && self.streams.load(Ordering::SeqCst) == 0
    }

    /// Wakes the accept thread out of its blocking `accept` with one
    /// throwaway connection, so it re-checks [`Shared::drained`]. Every
    /// caller changes the state first and wakes second, and the accept
    /// loop reads the state after `accept` returns, so no wakeup is
    /// lost. A listener bound to an unspecified address is reached
    /// through the loopback address of the same family.
    fn wake_accept(&self) {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }

    fn lock_cache(&self) -> Option<std::sync::MutexGuard<'_, ResultCache>> {
        self.cache
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<u8>, Vec<Sender<()>>>> {
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Retires this job's claim on `key`: stores the solved report (if
    /// the solve succeeded), removes the pending entry, and wakes every
    /// subscriber. The pending lock is held across the cache insert
    /// (lock order: pending, then cache) so nobody can subscribe to a
    /// claim that is being retired — a waiter either sees the pending
    /// entry and gets a wakeup, or misses it and finds the cache hit.
    fn resolve_claim(&self, key: &CacheKey, report: Option<&CellReport>) {
        let mut pending = self.lock_pending();
        if let Some(report) = report {
            if let Some(mut cache) = self.lock_cache() {
                if let Err(e) = cache.insert(key, report) {
                    // Losing the store degrades to cache-off; the
                    // sweep itself is fine.
                    eprintln!("rbserve: cache insert failed: {e}");
                } else {
                    let nth = self.counters.cache_inserts.fetch_add(1, Ordering::SeqCst) + 1;
                    self.maybe_compact(&mut cache, nth);
                }
                self.counters
                    .cache_evictions
                    .store(cache.hot_evictions(), Ordering::Relaxed);
            }
        }
        let waiters = pending.remove(key.material()).unwrap_or_default();
        drop(pending);
        for waiter in waiters {
            let _ = waiter.send(());
        }
    }

    /// The `--compact-every` trigger: after every n-th successful
    /// insert, rewrite the WAL dropping duplicate frames. A failed
    /// compaction leaves the old file serving, so it is logged, not
    /// fatal.
    fn maybe_compact(&self, cache: &mut ResultCache, nth_insert: u64) {
        let Some(every) = self.cfg.compact_every else {
            return;
        };
        if every == 0 || !nth_insert.is_multiple_of(every) {
            return;
        }
        match cache.compact() {
            Ok(_) => {
                self.counters
                    .cache_compactions
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("rbserve: cache compaction failed: {e}"),
        }
    }
}

/// A running server: its bound address and the accept thread to join.
pub struct ServerHandle {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server drains: a `shutdown` request was seen,
    /// all queued and running jobs finished, and every submit handler
    /// wrote its last event. The accept thread blocks in `accept` and
    /// is woken by the shutdown and by each job or submit stream that
    /// ends while draining, so `join` returns as soon as the last one
    /// does.
    pub fn join(self) {
        let _ = self.accept.join();
    }

    /// Flips the drain flag directly and wakes the accept thread (same
    /// effect as a `shutdown` request over the wire) — lets an
    /// embedding test stop a server it never connected to.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake_accept();
    }
}

/// Binds the listener, spawns the worker pool and accept thread, and
/// returns immediately. Fails only on bind/cache-open errors — after
/// `Ok`, every failure is reported over the wire.
pub fn spawn(cfg: ServerConfig) -> Result<ServerHandle, String> {
    let cache = match &cfg.cache_dir {
        None => None,
        Some(dir) => {
            let mut cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
            cache.set_hot_capacity(cfg.hot_capacity);
            Some(Mutex::new(cache))
        }
    };
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let (solver_tx, solver_rx) = channel::<CellTask>();
    let shared = Arc::new(Shared {
        addr,
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        streams: AtomicU64::new(0),
        cache,
        pending: Mutex::new(HashMap::new()),
        finished: Mutex::new(HashMap::new()),
        cfg,
        solver_tx,
        solver_rx: Mutex::new(solver_rx),
    });

    let (jobs_tx, jobs_rx) = channel::<Job>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    for _ in 0..shared.cfg.workers {
        spawn_solver(&shared);
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&jobs_rx);
        std::thread::spawn(move || worker_loop(&shared, &rx));
    }

    let accept_shared = Arc::clone(&shared);
    // The accept thread keeps one receiver alive so submits still
    // *queue* with zero workers (deterministic-backpressure tests)
    // instead of failing as disconnected.
    let accept =
        std::thread::spawn(move || accept_loop(&accept_shared, &listener, jobs_tx, jobs_rx));

    Ok(ServerHandle {
        addr,
        accept,
        shared,
    })
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    jobs: Sender<Job>,
    _jobs_alive: Arc<Mutex<Receiver<Job>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.drained() {
                    // Drained: stop accepting. Handler threads for
                    // still-open connections die with their sockets.
                    return;
                }
                // A wake that arrives before the drain completes is
                // served like any connection: it reads EOF and exits.
                if configure_accepted(&stream, shared.cfg.io_timeout).is_err() {
                    continue;
                }
                let shared = Arc::clone(shared);
                let jobs = jobs.clone();
                std::thread::spawn(move || handle_conn(&shared, &jobs, stream));
            }
            // A failing accept (EMFILE, say) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Socket options for an accepted connection. Handlers block on reads
/// and writes bounded by the io timeout, so the idle reaper gets a say
/// and a stalled client can't pin the writer forever. Every response
/// or event batch is one small write, so Nagle's algorithm is off:
/// otherwise a write issued while the previous one awaits the peer's
/// delayed ACK stalls for about 40 ms.
pub(crate) fn configure_accepted(stream: &TcpStream, io_timeout: Duration) -> std::io::Result<()> {
    let io = Some(io_timeout);
    stream.set_read_timeout(io)?;
    stream.set_write_timeout(io)?;
    stream.set_nodelay(true)
}

fn send_line(out: &mut TcpStream, line: &str) -> bool {
    let mut bytes = line.as_bytes().to_vec();
    bytes.push(b'\n');
    out.write_all(&bytes).and_then(|_| out.flush()).is_ok()
}

/// A line reader over a read-timeout socket that doubles as the idle
/// reaper: each timed-out read checks how long the connection has gone
/// without delivering a byte, and past [`ServerConfig::idle_timeout`]
/// the reader reports end-of-stream so the handler closes it.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    idle_timeout: Duration,
}

impl LineReader {
    fn new(stream: TcpStream, idle_timeout: Duration) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            idle_timeout,
        }
    }

    /// The next complete line (without the newline), or `None` on EOF,
    /// error, or idle reap.
    fn next_line(&mut self) -> Option<String> {
        let mut last_byte = Instant::now();
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                return Some(String::from_utf8_lossy(&line).into_owned());
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None, // EOF
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    last_byte = Instant::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if last_byte.elapsed() >= self.idle_timeout {
                        return None; // reaped
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, jobs: &Sender<Job>, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(s) => LineReader::new(s, shared.cfg.idle_timeout),
        Err(_) => return,
    };
    let mut out = stream;
    let c = &shared.counters;
    while let Some(line) = reader.next_line() {
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                c.req_malformed.fetch_add(1, Ordering::Relaxed);
                if !send_line(&mut out, &error_line(&e)) {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit(sub) => handle_submit(shared, jobs, &mut out, sub),
            Request::Status => {
                c.req_status.fetch_add(1, Ordering::Relaxed);
                send_line(&mut out, &status_line(shared))
            }
            Request::Metrics => {
                c.req_metrics.fetch_add(1, Ordering::Relaxed);
                send_line(&mut out, &metrics_line(shared))
            }
            Request::Quantile {
                sweep,
                cell,
                metric,
                p,
            } => {
                c.req_quantile.fetch_add(1, Ordering::Relaxed);
                send_line(&mut out, &quantile_line(shared, &sweep, &cell, &metric, p))
            }
            Request::Result { sweep } => {
                c.req_result.fetch_add(1, Ordering::Relaxed);
                send_line(&mut out, &result_line(shared, &sweep))
            }
            Request::Shutdown => {
                c.req_shutdown.fetch_add(1, Ordering::Relaxed);
                shared.draining.store(true, Ordering::SeqCst);
                let sent = send_line(
                    &mut out,
                    &render(&obj(vec![
                        ("ok", Value::Bool(true)),
                        ("status", Value::Str("draining".into())),
                    ])),
                );
                // Ack first: an idle server exits as soon as it wakes.
                shared.wake_accept();
                sent
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// A claimed queue slot. Dropping the guard releases the slot, so
/// every early-return between claim and enqueue gives the capacity
/// back instead of leaking it; a successful enqueue calls
/// [`SlotGuard::transfer`], handing the slot to the worker (which
/// releases it on pickup).
struct SlotGuard<'a> {
    counters: &'a Counters,
    armed: bool,
}

impl SlotGuard<'_> {
    /// Claims a slot by CAS on the depth gauge, or `None` at capacity.
    fn claim(counters: &Counters, capacity: u64) -> Option<SlotGuard<'_>> {
        counters
            .queue_depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                (d < capacity).then_some(d + 1)
            })
            .ok()
            .map(|_| SlotGuard {
                counters,
                armed: true,
            })
    }

    /// Disarms the guard: the slot now belongs to the queued job and
    /// `worker_loop` releases it on pickup.
    fn transfer(mut self) {
        self.armed = false;
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Counts one submit handler in [`Shared::streams`] from just before
/// its job is queued until the handler stops streaming, on every path.
/// The last stream to close during a drain wakes the accept thread.
struct StreamGuard<'a>(&'a Shared);

impl<'a> StreamGuard<'a> {
    fn open(shared: &'a Shared) -> StreamGuard<'a> {
        shared.streams.fetch_add(1, Ordering::SeqCst);
        StreamGuard(shared)
    }
}

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.0.streams.fetch_sub(1, Ordering::SeqCst);
        if self.0.draining.load(Ordering::SeqCst) {
            self.0.wake_accept();
        }
    }
}

/// Admission control + event streaming for one submit. Returns `false`
/// when the connection is gone.
fn handle_submit(
    shared: &Arc<Shared>,
    jobs: &Sender<Job>,
    out: &mut TcpStream,
    sub: crate::protocol::SubmitRequest,
) -> bool {
    let c = &shared.counters;
    c.req_submit.fetch_add(1, Ordering::Relaxed);
    if shared.draining.load(Ordering::SeqCst) {
        c.shed.fetch_add(1, Ordering::Relaxed);
        return send_line(out, &shed_line("server is draining; resubmit elsewhere"));
    }
    let spec = match sub.build_spec() {
        Ok(s) => s,
        Err(e) => {
            c.req_malformed.fetch_add(1, Ordering::Relaxed);
            return send_line(out, &error_line(&e));
        }
    };
    if spec.cells.len() > shared.cfg.max_cells {
        c.shed.fetch_add(1, Ordering::Relaxed);
        return send_line(
            out,
            &shed_line(&format!(
                "sweep has {} cells; this server accepts at most {}",
                spec.cells.len(),
                shared.cfg.max_cells
            )),
        );
    }
    // Bounded admission: claim a queue slot or shed. Between here and
    // a successful enqueue the slot lives in a guard, so every shed or
    // error return releases it — a leaked slot would permanently
    // shrink capacity.
    let cap = shared.cfg.queue_capacity as u64;
    let Some(slot) = SlotGuard::claim(c, cap) else {
        c.shed.fetch_add(1, Ordering::Relaxed);
        return send_line(
            out,
            &shed_line(&format!("queue full ({cap} jobs waiting); retry later")),
        );
    };
    let (events_tx, events_rx) = channel::<String>();
    let name = spec.name.clone();
    let cells = spec.cells.len();
    // Opened before the send, so no drain check can see the job
    // finished while its events are still unwritten.
    let _stream = StreamGuard::open(shared);
    if jobs
        .send(Job {
            spec: Arc::new(spec),
            events: events_tx,
        })
        .is_err()
    {
        drop(slot);
        c.shed.fetch_add(1, Ordering::Relaxed);
        return send_line(out, &shed_line("server is shutting down"));
    }
    // The job is queued: the slot is the worker's to release on pickup.
    slot.transfer();
    if !send_line(out, &accepted_line(&name, cells)) {
        // Client gone already; the worker still runs the job (warming
        // the cache). Returning drops `events_rx`, so the worker's
        // event sends fail and it discards them.
        return false;
    }
    // Stream until the worker drops the sender, one write per batch:
    // each event received takes along every event already queued behind
    // it, and nothing waits for more, so the first cell leaves as soon
    // as it exists.
    let mut batch = Vec::new();
    while let Ok(event) = events_rx.recv() {
        batch.clear();
        for event in std::iter::once(event).chain(events_rx.try_iter()) {
            batch.extend_from_slice(event.as_bytes());
            batch.push(b'\n');
        }
        if out.write_all(&batch).is_err() {
            return false;
        }
    }
    true
}

/// Takes the next message off a receiver a pool of threads shares. The
/// guard is a temporary of this call, held only while waiting inside
/// `recv` and never while running what was received, so one hung job
/// or cell cannot stall the rest of its pool. `None` after disconnect.
fn recv_shared<T>(rx: &Mutex<Receiver<T>>) -> Option<T> {
    rx.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .recv()
        .ok()
}

fn worker_loop(shared: &Arc<Shared>, jobs: &Mutex<Receiver<Job>>) {
    // recv errors only when the accept loop (the last sender) is gone
    // and the queue is empty — i.e. after drain.
    while let Some(job) = recv_shared(jobs) {
        let c = &shared.counters;
        // Running before dequeued: a drain check between the two must
        // never see both gauges at zero while this job is live.
        c.jobs_running.fetch_add(1, Ordering::SeqCst);
        c.queue_depth.fetch_sub(1, Ordering::SeqCst);
        run_job(shared, &job);
        c.jobs_running.fetch_sub(1, Ordering::SeqCst);
        c.jobs_done.fetch_add(1, Ordering::Relaxed);
        if shared.draining.load(Ordering::SeqCst) {
            shared.wake_accept();
        }
    }
}

/// Spawns one solver thread onto the shared dispatch channel — called
/// at startup for the initial pool and by [`solve_cell`] to replace a
/// solver lost to a panic or presumed hung after a deadline.
fn spawn_solver(shared: &Arc<Shared>) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        while let Some(task) = recv_shared(&shared.solver_rx) {
            let c = &shared.counters;
            c.in_flight_solves.fetch_add(1, Ordering::SeqCst);
            let solved = catch_unwind(AssertUnwindSafe(|| run_cell_task(&task)));
            c.in_flight_solves.fetch_sub(1, Ordering::SeqCst);
            match solved {
                Ok(report) => {
                    let _ = task.reply.send(Ok(report));
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    let _ = task.reply.send(Err(msg));
                    // Die: the recovery block retries on a *fresh*
                    // solver, never a thread that just unwound through
                    // a workload.
                    return;
                }
            }
        }
    });
}

/// Executes one solver attempt, applying the attempt's injected fault
/// (if the chaos schedule picked one).
fn run_cell_task(task: &CellTask) -> CellReport {
    let cell = &task.spec.cells[task.idx];
    match task.fault {
        Some(InjectedFault::Panic) => panic!("injected panic (chaos)"),
        Some(InjectedFault::Hang) => {
            std::thread::sleep(Duration::from_millis(task.hang_ms));
            cell.run(task.seed)
        }
        Some(InjectedFault::Garble) => {
            let mut r = cell.run(task.seed);
            r.seed ^= 1; // caught by the acceptance test
            r
        }
        None => cell.run(task.seed),
    }
}

/// The acceptance test of the cell recovery block: the report must
/// carry the cell's own id, the seed the supervisor derived, and must
/// survive the cache payload codec round-trip (what a later hit would
/// decode) — a garbled report is retried, never served or cached.
fn acceptance(cell: &SweepCell, seed: u64, report: &CellReport) -> Result<(), String> {
    if report.id != cell.id {
        return Err(format!(
            "report carries id `{}`, cell is `{}`",
            report.id, cell.id
        ));
    }
    if report.seed != seed {
        return Err(format!(
            "report carries seed {}, supervisor derived {seed}",
            report.seed
        ));
    }
    rbbench::cache::validate_report_roundtrip(report)
}

/// Solves one cell as a recovery block: dispatch to a solver (primary
/// attempt), acceptance-test the result, and on a panic, deadline
/// overrun, or acceptance failure retry on a fresh solver — at most
/// [`ServerConfig::max_cell_retries`] times before returning the
/// documented refusal.
fn solve_cell(
    shared: &Arc<Shared>,
    spec: &Arc<SweepSpec>,
    idx: usize,
    seed: u64,
) -> Result<CellReport, String> {
    let c = &shared.counters;
    let cell = &spec.cells[idx];
    let mut attempt: u32 = 0;
    loop {
        let fault = shared
            .cfg
            .chaos
            .as_ref()
            .and_then(|ch| ch.decide(seed, attempt));
        if fault.is_some() {
            c.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        let hang_ms = shared.cfg.chaos.as_ref().map_or(0, |ch| ch.hang_ms);
        let (reply_tx, reply_rx) = channel();
        if shared
            .solver_tx
            .send(CellTask {
                spec: Arc::clone(spec),
                idx,
                seed,
                fault,
                hang_ms,
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(format!("cell `{}`: solver pool is gone", cell.id));
        }
        let failure = match reply_rx.recv_timeout(shared.cfg.cell_timeout) {
            Ok(Ok(report)) => match acceptance(cell, seed, &report) {
                Ok(()) => {
                    c.cells_solved.fetch_add(1, Ordering::Relaxed);
                    return Ok(report);
                }
                Err(why) => format!("acceptance test failed: {why}"),
            },
            Ok(Err(panic_msg)) => {
                // The solver died sending this; replace it.
                c.workers_restarted.fetch_add(1, Ordering::Relaxed);
                spawn_solver(shared);
                format!("solver panicked: {panic_msg}")
            }
            Err(RecvTimeoutError::Timeout) => {
                // Presumed hung: spawn a replacement so the pool keeps
                // its capacity even if the old solver never returns
                // (its late reply lands on this dropped receiver).
                c.cells_timed_out.fetch_add(1, Ordering::Relaxed);
                c.workers_restarted.fetch_add(1, Ordering::Relaxed);
                spawn_solver(shared);
                format!(
                    "no result within the {:?} cell deadline",
                    shared.cfg.cell_timeout
                )
            }
            Err(RecvTimeoutError::Disconnected) => {
                c.workers_restarted.fetch_add(1, Ordering::Relaxed);
                spawn_solver(shared);
                "solver dropped the reply channel".into()
            }
        };
        if attempt >= shared.cfg.max_cell_retries {
            return Err(format!(
                "cell `{}` failed after {} retries: {failure}",
                cell.id, shared.cfg.max_cell_retries
            ));
        }
        attempt += 1;
        c.cell_retries.fetch_add(1, Ordering::Relaxed);
    }
}

/// How [`serve_cell`] produced a report: a cache hit (at either tier),
/// or a solve run by this job (as the key's primary, if cacheable).
enum CellSource {
    Hit(HitTier),
    Solved { cacheable: bool },
}

/// Produces one cell's report: cache hit (hot or warm tier), dedup —
/// subscribing to another job's in-flight solve of the same key — or a
/// solve dispatched by this job. `Err` is the job-aborting refusal
/// from the recovery block.
fn serve_cell(
    shared: &Arc<Shared>,
    spec: &Arc<SweepSpec>,
    idx: usize,
    seed: u64,
    key: Option<&CacheKey>,
) -> Result<(CellReport, CellSource), String> {
    let c = &shared.counters;
    // Without a key (or without a cache) there is no shared identity
    // to hit, store, or dedup under — just solve.
    let Some(key) = key.filter(|_| shared.cache.is_some()) else {
        let cacheable = key.is_some();
        return solve_cell(shared, spec, idx, seed).map(|r| (r, CellSource::Solved { cacheable }));
    };
    loop {
        // Lock order: pending, then cache — never the reverse. Probing
        // the cache while holding the pending lock makes
        // check-and-subscribe atomic against a primary's
        // insert-then-notify in `resolve_claim`: a waiter can neither
        // miss its wakeup nor wake to find nothing in the cache.
        let mut pending = shared.lock_pending();
        if let Some(waiters) = pending.get_mut(key.material()) {
            let (tx, rx) = channel::<()>();
            waiters.push(tx);
            drop(pending);
            c.dedup_waits.fetch_add(1, Ordering::Relaxed);
            // The primary always resolves its claim — on failure too,
            // and a dropped sender also wakes us — so this cannot
            // hang. Then re-probe: a successful solve is now a hit; a
            // failed one makes this job the next primary.
            let _ = rx.recv();
            continue;
        }
        let hit = shared.lock_cache().and_then(|mut cache| {
            let hit = cache.lookup_tiered(key);
            c.cache_evictions
                .store(cache.hot_evictions(), Ordering::Relaxed);
            hit
        });
        if let Some((report, tier)) = hit {
            return Ok((report, CellSource::Hit(tier)));
        }
        // Miss with nobody solving it: claim the key, solve here, and
        // retire the claim (insert + wake waiters) whatever happens.
        pending.insert(key.material().to_vec(), Vec::new());
        drop(pending);
        let solved = solve_cell(shared, spec, idx, seed);
        shared.resolve_claim(key, solved.as_ref().ok());
        return solved.map(|r| (r, CellSource::Solved { cacheable: true }));
    }
}

/// Runs one sweep cell-by-cell, cache-first, streaming each cell as it
/// completes. Timing is accumulated here and reported only in the done
/// event — cell payloads stay execution-independent, which is what
/// makes cached, solved, and dedup-waited responses byte-identical.
fn run_job(shared: &Arc<Shared>, job: &Job) {
    let c = &shared.counters;
    let spec = &job.spec;
    let (mut hits, mut misses, mut uncacheable) = (0u64, 0u64, 0u64);
    let mut solve_ns = 0.0f64;
    let mut reports = Vec::with_capacity(spec.cells.len());
    for (idx, cell) in spec.cells.iter().enumerate() {
        let seed = derive_seed(spec.master_seed, spec.seed_index(idx));
        let key = rbbench::cache::cell_key(cell, seed);
        let started = Instant::now();
        let (mut report, source) = match serve_cell(shared, spec, idx, seed, key.as_ref()) {
            Ok(served) => served,
            Err(refusal) => {
                let _ = job.events.send(done_line(
                    &spec.name,
                    spec.cells.len(),
                    hits,
                    misses,
                    uncacheable,
                    solve_ns,
                    Some(&refusal),
                ));
                return;
            }
        };
        let was_hit = match source {
            CellSource::Hit(tier) => {
                hits += 1;
                c.cache_hits.fetch_add(1, Ordering::Relaxed);
                match tier {
                    HitTier::Hot => c.cache_hot_hits.fetch_add(1, Ordering::Relaxed),
                    HitTier::Warm => c.cache_warm_hits.fetch_add(1, Ordering::Relaxed),
                };
                report.id = cell.id.clone();
                true
            }
            CellSource::Solved { cacheable: true } => {
                misses += 1;
                c.cache_misses.fetch_add(1, Ordering::Relaxed);
                false
            }
            CellSource::Solved { cacheable: false } => {
                uncacheable += 1;
                false
            }
        };
        solve_ns += started.elapsed().as_nanos() as f64;
        let _ = job
            .events
            .send(cell_line(&spec.name, idx, was_hit, &report));
        reports.push(report);
    }
    let report = SweepReport {
        sweep: spec.name.clone(),
        master_seed: spec.master_seed,
        cells: reports,
    };
    shared
        .finished
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(spec.name.clone(), report);
    let _ = job.events.send(done_line(
        &spec.name,
        spec.cells.len(),
        hits,
        misses,
        uncacheable,
        solve_ns,
        None,
    ));
}

fn status_line(shared: &Arc<Shared>) -> String {
    let c = &shared.counters;
    let finished = shared
        .finished
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();
    let cache_entries = shared.lock_cache().map(|c| c.len());
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        (
            "status",
            Value::Str(
                if shared.draining.load(Ordering::SeqCst) {
                    "draining"
                } else {
                    "serving"
                }
                .into(),
            ),
        ),
        (
            "queue_depth",
            Value::Num(c.queue_depth.load(Ordering::SeqCst) as f64),
        ),
        (
            "jobs_running",
            Value::Num(c.jobs_running.load(Ordering::SeqCst) as f64),
        ),
        ("sweeps_finished", Value::Num(finished as f64)),
        (
            "cache_entries",
            match cache_entries {
                Some(n) => Value::Num(n as f64),
                None => Value::Null,
            },
        ),
    ]))
}

fn metrics_line(shared: &Arc<Shared>) -> String {
    let finished = shared
        .finished
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len() as f64;
    let cache_entries = shared.lock_cache().map_or(-1.0, |c| c.len() as f64);
    let draining = shared.draining.load(Ordering::SeqCst) as u8 as f64;
    let metrics = shared.counters.snapshot(&[
        ("sweeps/finished", finished),
        ("cache/entries", cache_entries),
        ("draining", draining),
        ("queue/capacity", shared.cfg.queue_capacity as f64),
        ("workers", shared.cfg.workers as f64),
    ]);
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("metrics", metrics.to_value()),
    ]))
}

fn quantile_line(shared: &Arc<Shared>, sweep: &str, cell: &str, metric: &str, p: f64) -> String {
    let finished = shared
        .finished
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(report) = finished.get(sweep) else {
        return error_line(&format!(
            "no finished sweep `{sweep}` (still running, shed, or never submitted)"
        ));
    };
    let Some(cell_report) = report.cell(cell) else {
        return error_line(&format!("sweep `{sweep}` has no cell `{cell}`"));
    };
    let m = match cell_report.try_metric(metric) {
        Ok(m) => m,
        Err(e) => return error_line(&e.to_string()),
    };
    let Some(dist) = m.dist() else {
        return error_line(&format!(
            "metric `{metric}` is scalar; quantiles need a distribution metric"
        ));
    };
    let Some(x) = dist.quantile_at(p) else {
        return error_line(&format!(
            "p must be inside (0, 1) on a non-empty distribution, got p={p}"
        ));
    };
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("sweep", Value::Str(sweep.into())),
        ("cell", Value::Str(cell.into())),
        ("metric", Value::Str(metric.into())),
        ("p", Value::Num(p)),
        ("x", Value::Num(x)),
    ]))
}

fn result_line(shared: &Arc<Shared>, sweep: &str) -> String {
    let finished = shared
        .finished
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(report) = finished.get(sweep) else {
        return error_line(&format!(
            "no finished sweep `{sweep}` (still running, shed, or never submitted)"
        ));
    };
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("report", report.to_value()),
    ]))
}
