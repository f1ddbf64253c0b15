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
//!   supervise them, sharing the queue's one receiver behind a mutex
//!   held only inside `recv`. A worker looks its job's cells up in the
//!   result cache in index order and dispatches the misses ahead of the
//!   stream: one attempt queued or running at first, twice as many
//!   after each attempt that passes its acceptance test, up to two per
//!   solver; collected and streamed in index order;
//! * `workers` **solver threads** actually execute cells, taking them
//!   from one queue and signalling pickup to the supervising worker.
//!   Each solve is a *recovery block*: primary attempt on a solver,
//!   acceptance test on the result (id/seed binding + codec
//!   round-trip), and on a panic, hang (deadline
//!   [`ServerConfig::cell_timeout`], counted from pickup), or acceptance
//!   failure, a bounded retry ([`ServerConfig::max_cell_retries`]) on a
//!   **fresh** solver thread, queued ahead of every look-ahead attempt —
//!   the recovery-blocks server practicing recovery blocks on itself.
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
//!    the documented refusal, never a silently wrong report. Its worker
//!    then sees its running attempts out, replacing any that overrun
//!    their deadlines.
//!
//! [`ChaosConfig`] injects deterministic faults (panic, hang, garbled
//! report) into solver attempts from a seeded schedule, so the whole
//! recovery path above is exercised by sweeps over fault schedules
//! rather than trusted on inspection.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Per-attempt deadline, counted from when a solver picks the
    /// attempt up: a solver that hasn't reported by then is presumed
    /// hung, a replacement is spawned, and the cell retries.
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
/// sender once the done event is sent, terminating the stream. The spec is
/// `Arc`-shared because solver threads borrow cells from it while the
/// supervising worker holds the job.
struct Job {
    spec: Arc<SweepSpec>,
    events: Sender<String>,
}

/// One attempt at a cell, queued for the solver pool. The solver
/// reports pickup and outcome on `reply`, tagged with the cell and
/// attempt, so a supervisor can tell a late reply from an attempt it
/// already gave up on (timed out, retried elsewhere) and discard it.
struct CellTask {
    spec: Arc<SweepSpec>,
    idx: usize,
    seed: u64,
    attempt: u32,
    fault: Option<InjectedFault>,
    hang_ms: u64,
    reply: Sender<Note>,
}

/// A message to a job's supervising worker. Solver replies and claim
/// wakeups share one channel, so the worker waits on all of them, and
/// on its attempts' deadlines, at once.
enum Note {
    /// A solver picked up `attempt` of cell `idx` at `at`; the attempt's
    /// deadline starts here, not when it was queued.
    Picked {
        idx: usize,
        attempt: u32,
        at: Instant,
    },
    /// `attempt` of cell `idx` ended: `Ok(report)` from a completed
    /// solve, `Err(message)` when it panicked (that solver is gone).
    Done {
        idx: usize,
        attempt: u32,
        result: Result<CellReport, String>,
    },
    /// The claim that cell `idx` subscribed to was retired.
    Resolved(usize),
}

/// The solver pool's dispatch queue. Look-ahead attempts join the
/// back; a retry, and a first attempt dispatched while its job's stream
/// already waits on the cell, join the front, ahead of every job's
/// look-ahead. A look-ahead attempt stays where it was queued when its
/// cell later becomes the stream's head. Solvers hold the lock only to
/// take a task, never while running it, so a hung solver leaves the
/// rest of the pool taking work.
#[derive(Default)]
struct SolverQueue {
    tasks: Mutex<VecDeque<CellTask>>,
    ready: Condvar,
}

impl SolverQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<CellTask>> {
        self.tasks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, task: CellTask, urgent: bool) {
        let mut tasks = self.lock();
        if urgent {
            tasks.push_front(task);
        } else {
            tasks.push_back(task);
        }
        drop(tasks);
        self.ready.notify_one();
    }

    /// The next task, waiting for one if the queue is empty.
    fn pop(&self) -> CellTask {
        let mut tasks = self.lock();
        loop {
            if let Some(task) = tasks.pop_front() {
                return task;
            }
            tasks = self
                .ready
                .wait(tasks)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Drops every queued attempt of the job sweeping `spec`; returns
    /// the cells they were for.
    fn cancel(&self, spec: &Arc<SweepSpec>) -> Vec<usize> {
        let mut dropped = Vec::new();
        self.lock().retain(|task| {
            let ours = Arc::ptr_eq(&task.spec, spec);
            if ours {
                dropped.push(task.idx);
            }
            !ours
        });
        dropped
    }
}

/// Subscribers to one in-flight solve claim: each job's note channel
/// and the cell waiting on it.
type Waiters = Vec<(Sender<Note>, usize)>;

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
    pending: Mutex<HashMap<Vec<u8>, Waiters>>,
    finished: Mutex<HashMap<String, SweepReport>>,
    /// Cell dispatch into the solver pool, including the replacement
    /// solvers spawned after a panic or timeout.
    solvers: SolverQueue,
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

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<u8>, Waiters>> {
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
        for (waiter, idx) in waiters {
            let _ = waiter.send(Note::Resolved(idx));
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

    let shared = Arc::new(Shared {
        addr,
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        streams: AtomicU64::new(0),
        cache,
        pending: Mutex::new(HashMap::new()),
        finished: Mutex::new(HashMap::new()),
        cfg,
        solvers: SolverQueue::default(),
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
/// `recv` and never while running what was received, so one long job
/// cannot stall the rest of its pool. `None` after disconnect.
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
        run_job(shared, job);
        c.jobs_running.fetch_sub(1, Ordering::SeqCst);
        c.jobs_done.fetch_add(1, Ordering::Relaxed);
        if shared.draining.load(Ordering::SeqCst) {
            shared.wake_accept();
        }
    }
}

/// Spawns one solver thread onto the shared dispatch queue — called at
/// startup for the initial pool, by a solver that is about to die of a
/// panic, and by a supervisor replacing a solver presumed hung after a
/// deadline.
fn spawn_solver(shared: &Arc<Shared>) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || loop {
        let task = shared.solvers.pop();
        let (idx, attempt) = (task.idx, task.attempt);
        let at = Instant::now();
        let _ = task.reply.send(Note::Picked { idx, attempt, at });
        let c = &shared.counters;
        if task.fault.is_some() {
            c.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        c.in_flight_solves.fetch_add(1, Ordering::SeqCst);
        let solved = catch_unwind(AssertUnwindSafe(|| run_cell_task(&task)));
        c.in_flight_solves.fetch_sub(1, Ordering::SeqCst);
        let died = solved.is_err();
        let result = solved.map_err(|panic| {
            panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into())
        });
        if died {
            // Die: the recovery block retries on a *fresh* solver,
            // never a thread that just unwound through a workload. The
            // replacement starts before the reply, so the pool keeps its
            // size even when no supervisor is waiting any more.
            c.workers_restarted.fetch_add(1, Ordering::Relaxed);
            spawn_solver(&shared);
        }
        let _ = task.reply.send(Note::Done {
            idx,
            attempt,
            result,
        });
        if died {
            return;
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

/// How a ready cell was produced: a cache hit (at either tier), or a
/// solve run by this job (as the key's primary, if cacheable).
enum CellSource {
    Hit(HitTier),
    Solved { cacheable: bool },
}

/// Where one looked-up cell of a running job stands.
enum Slot {
    /// Its key was claimed by another solve when it was looked up. The
    /// job subscribes to the claim only at the cell's turn, and looks
    /// the cell up again once the claim is retired.
    Claimed { subscribed: bool },
    /// An attempt is queued or running; its deadline is set once a
    /// solver picks it up.
    Solving {
        attempt: u32,
        deadline: Option<Instant>,
    },
    /// A hit or an accepted solve, ready to stream.
    Ready(CellReport, CellSource),
    /// Retries exhausted: the job aborts with this refusal at the
    /// cell's turn.
    Failed(String),
    /// Streamed: its report has moved on to the sweep's.
    Streamed,
}

/// One looked-up cell of a running job.
struct JobCell {
    seed: u64,
    /// Whether the cell has a cache identity at all.
    cacheable: bool,
    /// The key its solve claims, looks up and stores under; `None`
    /// without a key or without a cache.
    key: Option<CacheKey>,
    slot: Slot,
}

/// A job's view of its cells while a worker supervises it: the cell
/// recovery blocks it keeps in flight, and the claims they hold.
struct Supervisor<'a> {
    shared: &'a Arc<Shared>,
    spec: &'a Arc<SweepSpec>,
    notes: Sender<Note>,
    /// The cells looked up so far, in index order.
    cells: Vec<JobCell>,
    /// Cells with an attempt queued or running.
    solving: Vec<usize>,
    /// How many attempts the job keeps queued or running: one at first,
    /// doubled by each attempt that passes its acceptance test, up to two
    /// per solver. A job whose every attempt fails so never floods the
    /// pool, and a cold sweep's first cell is not delivered while its
    /// whole look-ahead starts.
    window: usize,
}

impl<'a> Supervisor<'a> {
    fn new(shared: &'a Arc<Shared>, spec: &'a Arc<SweepSpec>, notes: Sender<Note>) -> Self {
        Supervisor {
            shared,
            spec,
            notes,
            cells: Vec::with_capacity(spec.cells.len()),
            solving: Vec::new(),
            window: 1,
        }
    }

    /// Derives the next cell's seed and key and looks it up; `turn`
    /// when the stream is waiting on it.
    fn look_up_next(&mut self, turn: bool) {
        let idx = self.cells.len();
        let seed = derive_seed(self.spec.master_seed, self.spec.seed_index(idx));
        let key = rbbench::cache::cell_key(&self.spec.cells[idx], seed);
        self.cells.push(JobCell {
            seed,
            cacheable: key.is_some(),
            key: key.filter(|_| self.shared.cache.is_some()),
            slot: Slot::Streamed,
        });
        self.look_up(idx, turn);
    }

    /// Looks cell `idx` up: a hit is ready at once, and a miss nobody
    /// is solving is claimed and dispatched. A key another solve has
    /// claimed is subscribed to only at the cell's `turn`, so a job
    /// never waits ahead of its stream — nor on a claim of its own.
    fn look_up(&mut self, idx: usize, turn: bool) {
        let shared = self.shared;
        let Some(key) = &self.cells[idx].key else {
            // Without a key (or without a cache) there is no shared
            // identity to hit, store, or dedup under — just solve.
            return self.dispatch(idx, 0, turn);
        };
        // Lock order: pending, then cache — never the reverse. Probing
        // the cache while holding the pending lock makes
        // check-and-subscribe atomic against a primary's
        // insert-then-notify in `resolve_claim`: a waiter can neither
        // miss its wakeup nor wake to find nothing in the cache.
        let mut pending = shared.lock_pending();
        if let Some(waiters) = pending.get_mut(key.material()) {
            if turn {
                // The primary always resolves its claim, on failure
                // too, so this cannot hang. Then the cell is looked up
                // again: a successful solve is now a hit; a failed one
                // makes this job the next primary.
                waiters.push((self.notes.clone(), idx));
                shared.counters.dedup_waits.fetch_add(1, Ordering::Relaxed);
            }
            self.cells[idx].slot = Slot::Claimed { subscribed: turn };
            return;
        }
        let hit = shared.lock_cache().and_then(|mut cache| {
            let hit = cache.lookup_tiered(key);
            shared
                .counters
                .cache_evictions
                .store(cache.hot_evictions(), Ordering::Relaxed);
            hit
        });
        if let Some((report, tier)) = hit {
            self.cells[idx].slot = Slot::Ready(report, CellSource::Hit(tier));
            return;
        }
        // Miss with nobody solving it: claim the key and solve here;
        // the claim is retired (insert + wake waiters) whatever happens.
        pending.insert(key.material().to_vec(), Vec::new());
        drop(pending);
        self.dispatch(idx, 0, turn);
    }

    /// Queues `attempt` of cell `idx` for the solver pool, ahead of the
    /// look-ahead when `urgent`.
    fn dispatch(&mut self, idx: usize, attempt: u32, urgent: bool) {
        let cfg = &self.shared.cfg;
        let seed = self.cells[idx].seed;
        self.shared.solvers.push(
            CellTask {
                spec: Arc::clone(self.spec),
                idx,
                seed,
                attempt,
                fault: cfg.chaos.as_ref().and_then(|ch| ch.decide(seed, attempt)),
                hang_ms: cfg.chaos.as_ref().map_or(0, |ch| ch.hang_ms),
                reply: self.notes.clone(),
            },
            urgent,
        );
        if attempt == 0 {
            self.solving.push(idx);
        }
        self.cells[idx].slot = Slot::Solving {
            attempt,
            deadline: None,
        };
    }

    /// Applies one note. A reply from an attempt the job already gave
    /// up on is discarded.
    fn note(&mut self, note: Note) {
        match note {
            Note::Picked { idx, attempt, at } => {
                if let Slot::Solving {
                    attempt: current,
                    deadline,
                } = &mut self.cells[idx].slot
                {
                    if *current == attempt {
                        *deadline = Some(at + self.shared.cfg.cell_timeout);
                    }
                }
            }
            Note::Done {
                idx,
                attempt,
                result,
            } => {
                if !matches!(self.cells[idx].slot, Slot::Solving { attempt: a, .. } if a == attempt)
                {
                    return;
                }
                let failure = match result {
                    Ok(report) => {
                        match acceptance(&self.spec.cells[idx], self.cells[idx].seed, &report) {
                            Ok(()) => return self.accept(idx, report),
                            Err(why) => format!("acceptance test failed: {why}"),
                        }
                    }
                    // The dying solver already spawned its replacement.
                    Err(panic_msg) => format!("solver panicked: {panic_msg}"),
                };
                self.fail(idx, attempt, &failure);
            }
            Note::Resolved(idx) => {
                if let Slot::Claimed { subscribed } = &mut self.cells[idx].slot {
                    *subscribed = false;
                }
            }
        }
    }

    /// Cell `idx` passed its acceptance test: store it, wake the jobs
    /// waiting on its claim, and widen the look-ahead window.
    fn accept(&mut self, idx: usize, report: CellReport) {
        self.shared
            .counters
            .cells_solved
            .fetch_add(1, Ordering::Relaxed);
        self.window = (2 * self.window).min(2 * self.shared.cfg.workers);
        self.solving.retain(|&i| i != idx);
        let cell = &mut self.cells[idx];
        if let Some(key) = &cell.key {
            self.shared.resolve_claim(key, Some(&report));
        }
        let cacheable = cell.cacheable;
        cell.slot = Slot::Ready(report, CellSource::Solved { cacheable });
    }

    /// The alternate of the recovery block: after a panic, deadline
    /// overrun or acceptance failure, retry on a fresh solver — at most
    /// [`ServerConfig::max_cell_retries`] times before the cell fails
    /// with the documented refusal.
    fn fail(&mut self, idx: usize, attempt: u32, failure: &str) {
        let retries = self.shared.cfg.max_cell_retries;
        if attempt < retries {
            self.shared
                .counters
                .cell_retries
                .fetch_add(1, Ordering::Relaxed);
            return self.dispatch(idx, attempt + 1, true);
        }
        self.solving.retain(|&i| i != idx);
        let cell = &mut self.cells[idx];
        if let Some(key) = &cell.key {
            self.shared.resolve_claim(key, None);
        }
        cell.slot = Slot::Failed(format!(
            "cell `{}` failed after {retries} retries: {failure}",
            self.spec.cells[idx].id
        ));
    }

    /// The next note, waiting no later than the nearest deadline of the
    /// attempts solvers have picked up; `None` when that deadline passes
    /// first.
    fn wait(&self, inbox: &Receiver<Note>) -> Option<Note> {
        let deadline = self
            .solving
            .iter()
            .filter_map(|&idx| match self.cells[idx].slot {
                Slot::Solving { deadline, .. } => deadline,
                _ => None,
            })
            .min();
        match deadline {
            Some(deadline) => inbox
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .ok(),
            None => inbox.recv().ok(),
        }
    }

    /// Counts every attempt whose deadline has passed as timed out and
    /// returns them, cell and attempt, for the caller to retry or drop.
    /// Each is presumed hung: a replacement solver keeps the pool's
    /// capacity even if the old one never returns, and its late reply
    /// is discarded.
    fn expire(&mut self) -> Vec<(usize, u32)> {
        let now = Instant::now();
        let expired: Vec<(usize, u32)> = self
            .solving
            .iter()
            .filter_map(|&idx| match self.cells[idx].slot {
                Slot::Solving {
                    attempt,
                    deadline: Some(deadline),
                } if deadline <= now => Some((idx, attempt)),
                _ => None,
            })
            .collect();
        let c = &self.shared.counters;
        for _ in &expired {
            c.cells_timed_out.fetch_add(1, Ordering::Relaxed);
            c.workers_restarted.fetch_add(1, Ordering::Relaxed);
            spawn_solver(self.shared);
        }
        expired
    }

    /// Retries (or fails) every attempt whose deadline has passed.
    fn retry_expired(&mut self) {
        for (idx, attempt) in self.expire() {
            let failure = format!(
                "no result within the {:?} cell deadline",
                self.shared.cfg.cell_timeout
            );
            self.fail(idx, attempt, &failure);
        }
    }

    /// Withdraws an aborting job: its queued attempts are dropped, and
    /// the claims of its running ones are retired unsolved, so jobs
    /// waiting on them take over.
    fn withdraw(&mut self) {
        let dropped = self.shared.solvers.cancel(self.spec);
        self.solving.retain(|idx| !dropped.contains(idx));
        for &idx in &self.solving {
            if let Some(key) = &self.cells[idx].key {
                self.shared.resolve_claim(key, None);
            }
        }
    }

    /// Supervises a withdrawn job's running attempts until each replies
    /// or overruns its deadline, so a hung one is replaced as at any
    /// other time and an abort never leaves the pool short. Replies are
    /// discarded: their claims are already retired.
    fn drain(mut self, inbox: &Receiver<Note>) {
        while !self.solving.is_empty() {
            match self.wait(inbox) {
                Some(note @ Note::Picked { .. }) => self.note(note),
                Some(Note::Done { idx, attempt, .. }) => {
                    if matches!(self.cells[idx].slot, Slot::Solving { attempt: a, .. } if a == attempt)
                    {
                        self.solving.retain(|&i| i != idx);
                    }
                }
                _ => {}
            }
            for (idx, _) in self.expire() {
                self.solving.retain(|&i| i != idx);
            }
        }
    }
}

/// Runs one sweep: looks its cells up in index order, dispatches the
/// misses ahead of the stream (cache hits are ready at once), and
/// streams each cell in index order as soon as it and every cell before
/// it are ready. Its wall time, less the cell events it emits while
/// none of its attempts is in flight, is `solve_ns`, reported only in
/// the done event — cell payloads stay
/// execution-independent, which is what makes cached, solved, and
/// dedup-waited responses byte-identical. An aborted job ends its
/// stream with the refusal first and then supervises its running
/// attempts to the end.
fn run_job(shared: &Arc<Shared>, job: Job) {
    let started = Instant::now();
    let mut unclocked = Duration::ZERO;
    let c = &shared.counters;
    let Job { spec, events } = job;
    let spec = &spec;
    let (notes, inbox) = channel();
    let mut sup = Supervisor::new(shared, spec, notes);
    let (mut hits, mut misses, mut uncacheable) = (0u64, 0u64, 0u64);
    let mut reports = Vec::with_capacity(spec.cells.len());
    let refusal = loop {
        let next = reports.len();
        if next == spec.cells.len() {
            break None;
        }
        if let Some(head) = sup.cells.get_mut(next) {
            match std::mem::replace(&mut head.slot, Slot::Streamed) {
                Slot::Ready(mut report, source) => {
                    let was_hit = match source {
                        CellSource::Hit(tier) => {
                            hits += 1;
                            c.cache_hits.fetch_add(1, Ordering::Relaxed);
                            match tier {
                                HitTier::Hot => c.cache_hot_hits.fetch_add(1, Ordering::Relaxed),
                                HitTier::Warm => c.cache_warm_hits.fetch_add(1, Ordering::Relaxed),
                            };
                            report.id = spec.cells[next].id.clone();
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
                    // Emitting is off the clock only while nothing of
                    // the job is in flight, so no solve hides behind it.
                    let emit = Instant::now();
                    let _ = events.send(cell_line(&spec.name, next, was_hit, &report));
                    if sup.solving.is_empty() {
                        unclocked += emit.elapsed();
                    }
                    reports.push(report);
                    continue;
                }
                Slot::Failed(refusal) => break Some(refusal),
                Slot::Claimed { subscribed: false } => {
                    sup.look_up(next, true);
                    continue;
                }
                waiting => head.slot = waiting,
            }
        }
        if sup.cells.len() < spec.cells.len() && sup.solving.len() < sup.window {
            sup.look_up_next(sup.cells.len() == next);
            continue;
        }
        if let Some(note) = sup.wait(&inbox) {
            sup.note(note);
        }
        sup.retry_expired();
    };
    if refusal.is_some() {
        sup.withdraw();
    }
    let solve_ns = (started.elapsed() - unclocked).as_nanos() as f64;
    if refusal.is_none() {
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
    }
    let _ = events.send(done_line(
        &spec.name,
        spec.cells.len(),
        hits,
        misses,
        uncacheable,
        solve_ns,
        refusal.as_deref(),
    ));
    // The stream is over: the handler can take the client's next request
    // while the attempts still running are seen out.
    drop(events);
    sup.drain(&inbox);
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
