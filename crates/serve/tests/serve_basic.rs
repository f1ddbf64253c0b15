//! In-process protocol tests: one embedded server per test, a plain
//! `TcpStream` as the client. These run in debug builds (the grids are
//! tiny); the release-only end-to-end harness — kill/restart, cache
//! warm-up ratios — lives in `serve_smoke.rs`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rbserve::{spawn, ChaosConfig, ServerConfig, ServerHandle};
use serde::Value;

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(&line).expect("response is JSON")
    }

    fn request(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
}

fn get_str(v: &Value, key: &str) -> String {
    match get(v, key) {
        Value::Str(s) => s.clone(),
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn get_num(v: &Value, key: &str) -> f64 {
    match get(v, key) {
        Value::Num(x) => *x,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

fn is_ok(v: &Value) -> bool {
    matches!(get(v, "ok"), Value::Bool(true))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbserve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 4,
        max_cells: 256,
        cache_dir: None,
        ..ServerConfig::default()
    }
}

const TINY_GRID: &str = r#"{"op":"submit","name":"g","seed":11,"kind":"async_grid",
    "n":[2],"mu":[1],"lambda":[0.5,1],"lines":60,
    "dist":{"lo":0,"hi":12,"bins":24}}"#;

/// Submits `TINY_GRID` and drains its event stream; returns the done
/// event.
fn run_tiny_grid(client: &mut Client) -> Value {
    let accepted = client.request(&TINY_GRID.replace('\n', " "));
    assert!(is_ok(&accepted), "{accepted:?}");
    assert_eq!(get_str(&accepted, "event"), "accepted");
    assert_eq!(get_num(&accepted, "cells"), 2.0);
    let mut cells_seen = 0;
    loop {
        let event = client.recv();
        match get_str(&event, "event").as_str() {
            "cell" => {
                assert!(is_ok(&event), "{event:?}");
                cells_seen += 1;
            }
            "done" => {
                assert!(is_ok(&event), "{event:?}");
                assert_eq!(cells_seen, 2, "every cell streams before done");
                return event;
            }
            other => panic!("unexpected event `{other}`: {event:?}"),
        }
    }
}

#[test]
fn submit_streams_cells_then_queries_answer() {
    let handle = spawn(test_config(2)).expect("spawn");
    let mut client = Client::connect(handle.addr());

    let done = run_tiny_grid(&mut client);
    assert_eq!(get_num(&done, "cells"), 2.0);
    assert_eq!(get_num(&done, "uncacheable"), 0.0);
    // No cache configured: nothing hits, every cacheable cell misses.
    assert_eq!(get_num(&done, "cache_hits"), 0.0);

    // Quantiles are monotone in p and inside the configured support.
    let q = |client: &mut Client, p: f64| {
        let resp = client.request(&format!(
            r#"{{"op":"quantile","sweep":"g","cell":"n2/mu1/lam0.5","metric":"X_dist","p":{p}}}"#
        ));
        assert!(is_ok(&resp), "{resp:?}");
        get_num(&resp, "x")
    };
    let (p10, p50, p90) = (
        q(&mut client, 0.1),
        q(&mut client, 0.5),
        q(&mut client, 0.9),
    );
    assert!(p10 <= p50 && p50 <= p90, "{p10} {p50} {p90}");
    assert!((0.0..=12.0).contains(&p10) && p90 <= 12.0);

    // The full report round-trips and names both cells.
    let result = client.request(r#"{"op":"result","sweep":"g"}"#);
    assert!(is_ok(&result), "{result:?}");
    let report = get(&result, "report");
    assert_eq!(get_str(report, "sweep"), "g");
    match get(report, "cells") {
        Value::Seq(cells) => assert_eq!(cells.len(), 2),
        other => panic!("cells is not a list: {other:?}"),
    }

    // Status reflects the finished sweep; metrics count our requests.
    let status = client.request(r#"{"op":"status"}"#);
    assert_eq!(get_str(&status, "status"), "serving");
    assert_eq!(get_num(&status, "sweeps_finished"), 1.0);
    assert_eq!(get(&status, "cache_entries"), &Value::Null);

    let metrics = client.request(r#"{"op":"metrics"}"#);
    assert!(is_ok(&metrics), "{metrics:?}");
    let Value::Seq(list) = get(&metrics, "metrics") else {
        panic!("metrics is not a list")
    };
    let metric = |name: &str| {
        list.iter()
            .find(|m| m.get("name") == Some(&Value::Str(name.into())))
            .unwrap_or_else(|| panic!("no metric `{name}`"))
    };
    assert_eq!(get_num(metric("requests/submit"), "value"), 1.0);
    assert_eq!(get_num(metric("requests/quantile"), "value"), 3.0);
    assert_eq!(get_num(metric("jobs/done"), "value"), 1.0);
    assert_eq!(get_num(metric("cells/solved"), "value"), 2.0);
    assert_eq!(get_num(metric("queue/depth"), "value"), 0.0);
    // No chaos configured, nothing hung or panicked: the self-recovery
    // counters exist and sit at zero.
    assert_eq!(get_num(metric("faults/injected"), "value"), 0.0);
    assert_eq!(get_num(metric("cells/retries"), "value"), 0.0);
    assert_eq!(get_num(metric("cells/timed_out"), "value"), 0.0);
    assert_eq!(get_num(metric("workers/restarted"), "value"), 0.0);

    // Graceful drain: shutdown acks, then join returns.
    let ack = client.request(r#"{"op":"shutdown"}"#);
    assert!(is_ok(&ack), "{ack:?}");
    assert_eq!(get_str(&ack, "status"), "draining");
    drop(client);
    handle.join();
}

#[test]
fn cache_round_trip_hits_on_resubmit() {
    let dir = scratch("basic-cache");
    let mut cfg = test_config(2);
    cfg.cache_dir = Some(dir.clone());
    let handle = spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr());

    let cold = run_tiny_grid(&mut client);
    assert_eq!(get_num(&cold, "cache_misses"), 2.0);
    let warm = run_tiny_grid(&mut client);
    assert_eq!(get_num(&warm, "cache_hits"), 2.0);
    assert_eq!(get_num(&warm, "cache_misses"), 0.0);

    let status = client.request(r#"{"op":"status"}"#);
    assert_eq!(get_num(&status, "cache_entries"), 2.0);

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_unknown_requests_get_errors_not_disconnects() {
    let handle = spawn(test_config(1)).expect("spawn");
    let mut client = Client::connect(handle.addr());

    let resp = client.request("this is not json");
    assert!(!is_ok(&resp));
    assert!(get_str(&resp, "error").contains("malformed JSON"));

    let resp = client.request(r#"{"op":"teleport"}"#);
    assert!(!is_ok(&resp));
    assert!(get_str(&resp, "error").contains("unknown op"));

    // Validation failures answer on the same (still-open) connection.
    let resp = client.request(
        r#"{"op":"submit","name":"bad","kind":"async_grid","n":[1],"mu":[1],"lambda":[1],"lines":10}"#,
    );
    assert!(!is_ok(&resp));
    assert!(get_str(&resp, "error").contains("≥ 2"));

    let resp =
        client.request(r#"{"op":"quantile","sweep":"ghost","cell":"c","metric":"m","p":0.5}"#);
    assert!(!is_ok(&resp));
    assert!(get_str(&resp, "error").contains("no finished sweep"));

    let resp = client.request(r#"{"op":"result","sweep":"ghost"}"#);
    assert!(!is_ok(&resp));

    // The connection survived all of the above.
    let status = client.request(r#"{"op":"status"}"#);
    assert!(is_ok(&status));

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
}

#[test]
fn quantile_errors_name_the_failure() {
    let handle = spawn(test_config(2)).expect("spawn");
    let mut client = Client::connect(handle.addr());
    run_tiny_grid(&mut client);

    let req = |client: &mut Client, body: &str| {
        let resp = client.request(body);
        assert!(!is_ok(&resp), "{resp:?}");
        get_str(&resp, "error")
    };
    let err = req(
        &mut client,
        r#"{"op":"quantile","sweep":"g","cell":"nope","metric":"X_dist","p":0.5}"#,
    );
    assert!(err.contains("no cell `nope`"), "{err}");
    let err = req(
        &mut client,
        r#"{"op":"quantile","sweep":"g","cell":"n2/mu1/lam0.5","metric":"EY","p":0.5}"#,
    );
    assert!(err.contains("has no metric `EY`"), "{err}");
    // EX exists but is scalar.
    let err = req(
        &mut client,
        r#"{"op":"quantile","sweep":"g","cell":"n2/mu1/lam0.5","metric":"EX","p":0.5}"#,
    );
    assert!(err.contains("scalar"), "{err}");
    let err = req(
        &mut client,
        r#"{"op":"quantile","sweep":"g","cell":"n2/mu1/lam0.5","metric":"X_dist","p":1.5}"#,
    );
    assert!(err.contains("inside (0, 1)"), "{err}");

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
}

#[test]
fn backpressure_sheds_when_queue_fills_and_when_draining() {
    // Zero workers: nothing is ever dequeued, so the queue state is
    // fully deterministic.
    let mut cfg = test_config(0);
    cfg.queue_capacity = 2;
    let handle = spawn(cfg).expect("spawn");

    // Two submits occupy both queue slots (each on its own connection —
    // a submitting connection stays busy streaming until its job runs).
    let submit = r#"{"op":"submit","name":"q","kind":"async_grid","n":[2],"mu":[1],"lambda":[1],"lines":10}"#;
    let mut first = Client::connect(handle.addr());
    let resp = first.request(submit);
    assert_eq!(get_str(&resp, "event"), "accepted");
    let mut second = Client::connect(handle.addr());
    let resp = second.request(submit);
    assert_eq!(get_str(&resp, "event"), "accepted");

    // Third submit: queue full → explicit shed, connection stays up.
    let mut third = Client::connect(handle.addr());
    let resp = third.request(submit);
    assert!(!is_ok(&resp));
    assert_eq!(get_str(&resp, "event"), "shed");
    assert!(get_str(&resp, "error").contains("queue full"), "{resp:?}");

    // Oversized submit sheds regardless of queue state.
    let resp = third.request(
        r#"{"op":"submit","name":"big","kind":"async_grid","n":[2,3,4,5,6,7],"mu":[1,2,3,4,5,6,7],"lambda":[1,2,3,4,5,6,7],"lines":10}"#,
    );
    assert_eq!(get_str(&resp, "event"), "shed");
    assert!(get_str(&resp, "error").contains("at most"), "{resp:?}");

    // Draining sheds too (and shed counts are visible in metrics).
    let ack = third.request(r#"{"op":"shutdown"}"#);
    assert_eq!(get_str(&ack, "status"), "draining");
    let resp = third.request(submit);
    assert_eq!(get_str(&resp, "event"), "shed");
    assert!(get_str(&resp, "error").contains("draining"), "{resp:?}");

    let metrics = third.request(r#"{"op":"metrics"}"#);
    let Value::Seq(list) = get(&metrics, "metrics") else {
        panic!("metrics is not a list")
    };
    let shed = list
        .iter()
        .find(|m| m.get("name") == Some(&Value::Str("submits/shed".into())))
        .expect("shed metric");
    assert_eq!(get_num(shed, "value"), 3.0);
    // Queued jobs never ran (no workers), so the server cannot drain;
    // the handle is dropped, not joined, and the test process exits.
}

/// One named metric's value via the `metrics` endpoint.
fn metric_value(client: &mut Client, name: &str) -> f64 {
    let metrics = client.request(r#"{"op":"metrics"}"#);
    let Value::Seq(list) = get(&metrics, "metrics") else {
        panic!("metrics is not a list")
    };
    let m = list
        .iter()
        .find(|m| m.get("name") == Some(&Value::Str(name.into())))
        .unwrap_or_else(|| panic!("no metric `{name}`"));
    get_num(m, "value")
}

/// The finished sweep `g`'s full report value (for byte-level
/// cross-server comparison).
fn result_report(client: &mut Client) -> Value {
    let result = client.request(r#"{"op":"result","sweep":"g"}"#);
    assert!(is_ok(&result), "{result:?}");
    get(&result, "report").clone()
}

fn chaos_config(chaos: ChaosConfig) -> ServerConfig {
    ServerConfig {
        cell_timeout: Duration::from_secs(30),
        chaos: Some(chaos),
        ..test_config(2)
    }
}

#[test]
fn chaos_panic_retries_on_a_fresh_solver_and_serves_reference_bytes() {
    // Reference: a chaos-free server solving the same grid.
    let clean = spawn(test_config(2)).expect("spawn clean");
    let mut clean_client = Client::connect(clean.addr());
    run_tiny_grid(&mut clean_client);
    let reference = result_report(&mut clean_client);

    // Every primary attempt panics; every retry (attempt 1, fault-free
    // by default) succeeds on a fresh solver.
    let handle = spawn(chaos_config(ChaosConfig {
        panic_per_mille: 1000,
        ..ChaosConfig::default()
    }))
    .expect("spawn chaos");
    let mut client = Client::connect(handle.addr());
    let done = run_tiny_grid(&mut client);
    assert!(is_ok(&done), "{done:?}");

    assert_eq!(get_num(&done, "cells"), 2.0);
    assert_eq!(metric_value(&mut client, "faults/injected"), 2.0);
    assert_eq!(metric_value(&mut client, "cells/retries"), 2.0);
    assert_eq!(metric_value(&mut client, "workers/restarted"), 2.0);
    assert_eq!(metric_value(&mut client, "cells/solved"), 2.0);
    assert_eq!(
        result_report(&mut client),
        reference,
        "a report served through panic-recovery must match the fault-free bytes"
    );

    for (mut c, h) in [(client, handle), (clean_client, clean)] {
        c.send(r#"{"op":"shutdown"}"#);
        drop(c);
        h.join();
    }
}

#[test]
fn chaos_hang_trips_the_cell_deadline_and_recovers() {
    // Every primary attempt sleeps 10× the cell deadline; the
    // supervisor times it out, restarts a solver, and the retry
    // completes well before the hung solver wakes.
    let handle = spawn(ServerConfig {
        cell_timeout: Duration::from_millis(60),
        chaos: Some(ChaosConfig {
            hang_per_mille: 1000,
            hang_ms: 600,
            ..ChaosConfig::default()
        }),
        ..test_config(2)
    })
    .expect("spawn");
    let mut client = Client::connect(handle.addr());
    let done = run_tiny_grid(&mut client);
    assert!(is_ok(&done), "{done:?}");

    assert_eq!(metric_value(&mut client, "cells/timed_out"), 2.0);
    assert_eq!(metric_value(&mut client, "workers/restarted"), 2.0);
    assert_eq!(metric_value(&mut client, "cells/retries"), 2.0);
    assert_eq!(metric_value(&mut client, "cells/solved"), 2.0);

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
}

#[test]
fn chaos_garble_is_caught_by_the_acceptance_test_never_served() {
    // Every primary attempt returns a report with a corrupted seed
    // field. The acceptance test rejects it; the retry serves clean
    // bytes. If a garbled report ever leaked, run_tiny_grid's cell
    // stream (and the seed binding below) would show it.
    let clean = spawn(test_config(2)).expect("spawn clean");
    let mut clean_client = Client::connect(clean.addr());
    run_tiny_grid(&mut clean_client);
    let reference = result_report(&mut clean_client);

    let handle = spawn(chaos_config(ChaosConfig {
        garble_per_mille: 1000,
        ..ChaosConfig::default()
    }))
    .expect("spawn chaos");
    let mut client = Client::connect(handle.addr());
    let done = run_tiny_grid(&mut client);
    assert!(is_ok(&done), "{done:?}");

    assert_eq!(metric_value(&mut client, "faults/injected"), 2.0);
    assert_eq!(metric_value(&mut client, "cells/retries"), 2.0);
    // Garble doesn't kill solvers — no restarts, no timeouts.
    assert_eq!(metric_value(&mut client, "workers/restarted"), 0.0);
    assert_eq!(metric_value(&mut client, "cells/timed_out"), 0.0);
    assert_eq!(result_report(&mut client), reference);

    for (mut c, h) in [(client, handle), (clean_client, clean)] {
        c.send(r#"{"op":"shutdown"}"#);
        drop(c);
        h.join();
    }
}

#[test]
fn chaos_on_every_attempt_exhausts_retries_into_a_named_refusal() {
    // Panic on *every* attempt: the recovery block runs out of
    // alternates and the job aborts with the documented refusal — and
    // the server itself survives to answer the next request.
    let handle = spawn(chaos_config(ChaosConfig {
        panic_per_mille: 1000,
        every_attempt: true,
        ..ChaosConfig::default()
    }))
    .expect("spawn");
    let mut client = Client::connect(handle.addr());

    let accepted = client.request(&TINY_GRID.replace('\n', " "));
    assert_eq!(get_str(&accepted, "event"), "accepted");
    let done = loop {
        let event = client.recv();
        if get_str(&event, "event") == "done" {
            break event;
        }
    };
    assert!(!is_ok(&done), "{done:?}");
    let err = get_str(&done, "error");
    assert!(err.contains("failed after 2 retries"), "{err}");
    assert!(err.contains("solver panicked"), "{err}");
    assert!(err.contains("injected panic (chaos)"), "{err}");

    // 1 primary + 2 retries, all injected, all fresh solvers.
    assert_eq!(metric_value(&mut client, "faults/injected"), 3.0);
    assert_eq!(metric_value(&mut client, "cells/retries"), 2.0);
    assert_eq!(metric_value(&mut client, "workers/restarted"), 3.0);
    assert_eq!(metric_value(&mut client, "cells/solved"), 0.0);

    // The server is fine: status still answers on the same connection.
    let status = client.request(r#"{"op":"status"}"#);
    assert!(is_ok(&status), "{status:?}");

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
}

/// Drains one submit's event stream without asserting hit/miss shape:
/// returns each cell event's `report` sub-value (in index order) and
/// the done event.
fn collect_stream(client: &mut Client) -> (Vec<Value>, Value) {
    let accepted = client.recv();
    assert!(is_ok(&accepted), "{accepted:?}");
    assert_eq!(get_str(&accepted, "event"), "accepted");
    stream_to_done(client)
}

/// The cell reports and done event that follow `accepted`.
fn stream_to_done(client: &mut Client) -> (Vec<Value>, Value) {
    let mut cells = Vec::new();
    loop {
        let event = client.recv();
        match get_str(&event, "event").as_str() {
            "cell" => {
                assert!(is_ok(&event), "{event:?}");
                assert_eq!(get_num(&event, "index"), cells.len() as f64);
                cells.push(get(&event, "report").clone());
            }
            "done" => return (cells, event),
            other => panic!("unexpected event `{other}`: {event:?}"),
        }
    }
}

#[test]
fn concurrent_identical_submits_dedup_to_one_solve_per_cell() {
    // Reference bytes from a chaos-free, cache-free, dedup-free server.
    let clean = spawn(test_config(2)).expect("spawn clean");
    let mut clean_client = Client::connect(clean.addr());
    run_tiny_grid(&mut clean_client);
    let reference = result_report(&mut clean_client);

    // Every solve hangs 700ms before completing: submitting the same
    // grid twice back-to-back guarantees client B reaches a cell while
    // client A is still solving it, so B must subscribe to A's solve
    // (the pending map forbids a second concurrent solve of a key).
    let dir = scratch("dedup");
    let handle = spawn(ServerConfig {
        cache_dir: Some(dir.clone()),
        chaos: Some(ChaosConfig {
            hang_per_mille: 1000,
            hang_ms: 700,
            ..ChaosConfig::default()
        }),
        cell_timeout: Duration::from_secs(30),
        ..test_config(2)
    })
    .expect("spawn");

    let mut a = Client::connect(handle.addr());
    let mut b = Client::connect(handle.addr());
    a.send(&TINY_GRID.replace('\n', " "));
    b.send(&TINY_GRID.replace('\n', " "));
    let (cells_a, done_a) = collect_stream(&mut a);
    let (cells_b, done_b) = collect_stream(&mut b);
    assert!(is_ok(&done_a), "{done_a:?}");
    assert!(is_ok(&done_b), "{done_b:?}");

    // Exactly one solve per cell, proven by the counters: 2 cells,
    // 2 solves total across both jobs, at least one dedup wait, and
    // hit+miss totals that sum to the 4 cell servings.
    let mut m = Client::connect(handle.addr());
    assert_eq!(metric_value(&mut m, "cells/solved"), 2.0);
    assert_eq!(metric_value(&mut m, "faults/injected"), 2.0);
    assert!(
        metric_value(&mut m, "solves/deduped") >= 1.0,
        "at least one cell must have subscribed instead of solving"
    );
    assert_eq!(metric_value(&mut m, "cache/misses"), 2.0);
    assert_eq!(metric_value(&mut m, "cache/hits"), 2.0);
    assert_eq!(metric_value(&mut m, "jobs/done"), 2.0);
    assert_eq!(metric_value(&mut m, "queue/depth"), 0.0);

    // Both clients' cell payloads and the stored result are
    // byte-identical to the undeduplicated reference run.
    assert_eq!(cells_a, cells_b, "the two streams diverged");
    assert_eq!(
        result_report(&mut m),
        reference,
        "dedup changed the report bytes"
    );

    m.send(r#"{"op":"shutdown"}"#);
    clean_client.send(r#"{"op":"shutdown"}"#);
    drop((a, b, m, clean_client));
    handle.join();
    clean.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_concurrent_submits_than_workers_each_run_exactly_once() {
    // Six distinct sweeps, two workers on one shared job queue; every
    // solve hangs 50ms, so jobs wait while both workers are busy.
    let chaos = ChaosConfig {
        hang_per_mille: 1000,
        hang_ms: 50,
        ..ChaosConfig::default()
    };
    let handle = spawn(ServerConfig {
        queue_capacity: 6,
        ..chaos_config(chaos)
    })
    .expect("spawn");
    std::thread::scope(|s| {
        for k in 0..6 {
            let addr = handle.addr();
            s.spawn(move || {
                let name = format!(r#""name":"c{k}","seed":{k}"#);
                let mut client = Client::connect(addr);
                client.send(
                    &TINY_GRID
                        .replace('\n', " ")
                        .replace(r#""name":"g","seed":11"#, &name),
                );
                let (cells, done) = collect_stream(&mut client);
                assert!(is_ok(&done), "{done:?}");
                assert_eq!(get_str(&done, "sweep"), format!("c{k}"));
                assert_eq!(cells.len(), 2);
                // Exactly one done: the next line answers the next request.
                let status = client.request(r#"{"op":"status"}"#);
                assert!(status.get("event").is_none(), "{status:?}");
            });
        }
    });
    let mut m = Client::connect(handle.addr());
    assert_eq!(metric_value(&mut m, "jobs/done"), 6.0);
    assert_eq!(metric_value(&mut m, "cells/solved"), 12.0);
    m.send(r#"{"op":"shutdown"}"#);
    drop(m);
    handle.join();
}

#[test]
fn every_shed_and_error_path_returns_the_queue_slot() {
    // Zero workers: accepted jobs stay queued, so the depth gauge is
    // fully deterministic after each request.
    let mut cfg = test_config(0);
    cfg.queue_capacity = 2;
    let handle = spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr());
    let depth = |c: &mut Client| metric_value(c, "queue/depth");

    // Early-return paths with an empty queue: each must leave depth 0.
    let resp = client.request(r#"{"op":"submit","name":"bad","kind":"async_grid","n":[1],"mu":[1],"lambda":[1],"lines":10}"#);
    assert!(!is_ok(&resp));
    assert_eq!(depth(&mut client), 0.0, "malformed submit leaked a slot");

    let resp = client.request(
        r#"{"op":"submit","name":"big","kind":"async_grid","n":[2,3,4,5,6,7],"mu":[1,2,3,4,5,6,7],"lambda":[1,2,3,4,5,6,7],"lines":10}"#,
    );
    assert_eq!(get_str(&resp, "event"), "shed");
    assert_eq!(depth(&mut client), 0.0, "oversized submit leaked a slot");

    // Fill both slots, then shed at capacity: depth must stay exactly
    // at capacity — a leak would show as 3, a double-release as 1.
    let submit = r#"{"op":"submit","name":"q","kind":"async_grid","n":[2],"mu":[1],"lambda":[1],"lines":10}"#;
    let mut first = Client::connect(handle.addr());
    assert_eq!(get_str(&first.request(submit), "event"), "accepted");
    let mut second = Client::connect(handle.addr());
    assert_eq!(get_str(&second.request(submit), "event"), "accepted");
    let resp = client.request(submit);
    assert_eq!(get_str(&resp, "event"), "shed");
    assert!(get_str(&resp, "error").contains("queue full"));
    assert_eq!(depth(&mut client), 2.0, "queue-full shed changed the depth");
    // No workers: the handle is dropped, not joined.

    // The draining shed path, on a server that can actually drain.
    let handle = spawn(test_config(1)).expect("spawn draining");
    let mut client = Client::connect(handle.addr());
    let ack = client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(get_str(&ack, "status"), "draining");
    let resp = client.request(submit);
    assert_eq!(get_str(&resp, "event"), "shed");
    assert!(get_str(&resp, "error").contains("draining"));
    assert_eq!(depth(&mut client), 0.0, "draining shed leaked a slot");
    drop(client);
    handle.join();
}

#[test]
fn tier_counters_split_hot_and_warm_hits() {
    let dir = scratch("tiers");
    // One worker: cells are served sequentially, so tier counters are
    // exact. Server 1 (default hot capacity): inserts seed the hot
    // tier, so the warm resubmit hits hot, never warm.
    let mut cfg = test_config(1);
    cfg.cache_dir = Some(dir.clone());
    let handle = spawn(cfg).expect("spawn hot");
    let mut client = Client::connect(handle.addr());
    let cold = run_tiny_grid(&mut client);
    assert_eq!(get_num(&cold, "cache_misses"), 2.0);
    let warm = run_tiny_grid(&mut client);
    assert_eq!(get_num(&warm, "cache_hits"), 2.0);
    assert_eq!(metric_value(&mut client, "cache/hot_hits"), 2.0);
    assert_eq!(metric_value(&mut client, "cache/warm_hits"), 0.0);
    assert_eq!(metric_value(&mut client, "cache/inserts"), 2.0);
    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();

    // Server 2, same store, hot tier disabled: every hit decodes from
    // the warm byte store.
    let mut cfg = test_config(1);
    cfg.cache_dir = Some(dir.clone());
    cfg.hot_capacity = 0;
    let handle = spawn(cfg).expect("spawn warm");
    let mut client = Client::connect(handle.addr());
    let warm = run_tiny_grid(&mut client);
    assert_eq!(get_num(&warm, "cache_hits"), 2.0);
    assert_eq!(metric_value(&mut client, "cache/hot_hits"), 0.0);
    assert_eq!(metric_value(&mut client, "cache/warm_hits"), 2.0);
    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();

    // Server 3, hot capacity 1: two resident-hungry cells evict each
    // other — the eviction counter must move.
    let mut cfg = test_config(1);
    cfg.cache_dir = Some(dir.clone());
    cfg.hot_capacity = 1;
    let handle = spawn(cfg).expect("spawn evict");
    let mut client = Client::connect(handle.addr());
    run_tiny_grid(&mut client);
    assert!(
        metric_value(&mut client, "cache/evictions") >= 1.0,
        "a capacity-1 hot tier serving 2 cells must evict"
    );
    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_every_trigger_rewrites_the_wal_and_preserves_hits() {
    let dir = scratch("compact-every");
    let mut cfg = test_config(1);
    cfg.cache_dir = Some(dir.clone());
    cfg.compact_every = Some(1);
    let handle = spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr());

    let cold = run_tiny_grid(&mut client);
    assert_eq!(get_num(&cold, "cache_misses"), 2.0);
    // Every insert triggered a compaction, and lookups survived them.
    assert_eq!(metric_value(&mut client, "cache/compactions"), 2.0);
    let warm = run_tiny_grid(&mut client);
    assert_eq!(get_num(&warm, "cache_hits"), 2.0);

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();

    // The published file is minimal (one frame per entry) and valid.
    let stats = rbbench::cache::wal_stats(&dir).expect("compacted wal is readable");
    assert_eq!(stats.entries, 2);
    assert_eq!(
        stats.frames, stats.entries,
        "compaction left duplicate frames"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_but_the_server_keeps_serving() {
    let handle = spawn(ServerConfig {
        io_timeout: Duration::from_millis(25),
        idle_timeout: Duration::from_millis(150),
        ..test_config(1)
    })
    .expect("spawn");

    // An idle connection (no request ever sent) is closed by the
    // reaper: the blocking read below observes EOF, well inside the
    // test deadline.
    let idle = std::net::TcpStream::connect(handle.addr()).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut idle_reader = std::io::BufReader::new(idle);
    let mut sink = String::new();
    let started = std::time::Instant::now();
    let n = std::io::BufRead::read_line(&mut idle_reader, &mut sink).expect("read until EOF");
    assert_eq!(n, 0, "reaper must close the idle connection, got: {sink}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "reap took {:?}",
        started.elapsed()
    );

    // The server survived the reap and still serves fresh connections.
    let mut client = Client::connect(handle.addr());
    let status = client.request(r#"{"op":"status"}"#);
    assert!(is_ok(&status), "{status:?}");

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    handle.join();
}

/// Joins `handle` on a helper thread; the receiver fires when `join`
/// returns, so a lost accept wakeup fails a `recv_timeout` instead of
/// hanging the test.
fn join_in_background(handle: ServerHandle) -> mpsc::Receiver<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx
}

/// A one-worker server whose every solve sleeps `hang_ms` first, so a
/// job's length is known from below.
fn slow_server(hang_ms: u64) -> ServerHandle {
    spawn(ServerConfig {
        workers: 1,
        ..chaos_config(ChaosConfig {
            hang_per_mille: 1000,
            hang_ms,
            ..ChaosConfig::default()
        })
    })
    .expect("spawn")
}

#[test]
fn shutdown_of_an_idle_server_lets_join_return() {
    let handle = spawn(test_config(1)).expect("spawn");
    handle.shutdown();
    join_in_background(handle)
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns after ServerHandle::shutdown");

    let handle = spawn(test_config(1)).expect("spawn");
    let ack = Client::connect(handle.addr()).request(r#"{"op":"shutdown"}"#);
    assert_eq!(get_str(&ack, "status"), "draining");
    join_in_background(handle)
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns after a shutdown request");
}

#[test]
fn shutdown_waits_for_a_job_whose_client_disconnected() {
    // Four cells at 150 ms each. The client leaves after `accepted`, so
    // its handler stops streaming at the latest on the second cell's
    // write; the job still runs to the end, and join follows it.
    let handle = slow_server(150);
    let mut client = Client::connect(handle.addr());
    let accepted = client.request(
        &TINY_GRID
            .replace('\n', " ")
            .replace(r#""lambda":[0.5,1]"#, r#""lambda":[0.25,0.5,1,2]"#),
    );
    assert_eq!(get_num(&accepted, "cells"), 4.0, "{accepted:?}");
    drop(client);
    handle.shutdown();
    let joined = join_in_background(handle);
    assert_eq!(
        joined.recv_timeout(Duration::from_millis(100)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "join returned while the abandoned job was still running"
    );
    joined
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns once the abandoned job ends");
}

#[test]
fn shutdown_mid_stream_delivers_done_before_join_returns() {
    // Two cells at 300 ms each: the job outlives the shutdown below.
    let handle = slow_server(300);
    let mut submitter = Client::connect(handle.addr());
    submitter.send(&TINY_GRID.replace('\n', " "));
    let accepted = submitter.recv();
    assert_eq!(get_str(&accepted, "event"), "accepted");

    let mut admin = Client::connect(handle.addr());
    let ack = admin.request(r#"{"op":"shutdown"}"#);
    assert_eq!(get_str(&ack, "status"), "draining");
    drop(admin);
    let joined = join_in_background(handle);
    assert_eq!(
        joined.recv_timeout(Duration::from_millis(100)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "join returned while a job was still running"
    );

    let (cells, done) = stream_to_done(&mut submitter);
    assert!(is_ok(&done), "{done:?}");
    assert_eq!(cells.len(), 2);
    joined
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns once the streaming job is done");
}

#[test]
fn shutdown_drains_every_queued_job_before_join_returns() {
    // One worker, two jobs: the second waits in the queue while the
    // first runs, and both must finish after the shutdown.
    let handle = slow_server(150);
    let submit = |name: &str| {
        let mut client = Client::connect(handle.addr());
        client.send(
            &TINY_GRID
                .replace('\n', " ")
                .replace(r#""name":"g""#, &format!(r#""name":"{name}""#)),
        );
        let accepted = client.recv();
        assert_eq!(get_str(&accepted, "event"), "accepted", "{accepted:?}");
        client
    };
    let mut first = submit("a");
    let mut second = submit("b");

    let mut admin = Client::connect(handle.addr());
    let ack = admin.request(r#"{"op":"shutdown"}"#);
    assert_eq!(get_str(&ack, "status"), "draining");
    drop(admin);
    let joined = join_in_background(handle);
    assert_eq!(
        joined.recv_timeout(Duration::from_millis(100)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "join returned with jobs still queued"
    );
    joined
        .recv_timeout(Duration::from_secs(20))
        .expect("join returns once both jobs finish");

    for (client, name) in [(&mut first, "a"), (&mut second, "b")] {
        let (cells, done) = stream_to_done(client);
        assert!(is_ok(&done), "{done:?}");
        assert_eq!(get_str(&done, "sweep"), name);
        assert_eq!(cells.len(), 2);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: a latency bound is meaningless at debug speed"
)]
fn idle_server_answers_a_fresh_connection_within_2ms() {
    // Each round trip opens a new connection, so it times the accept
    // path as well as the request; the pause lets the server go idle
    // between connections.
    let handle = spawn(test_config(1)).expect("spawn");
    let mut micros: Vec<u128> = (0..21)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(3));
            let started = Instant::now();
            let status = Client::connect(handle.addr()).request(r#"{"op":"status"}"#);
            let elapsed = started.elapsed().as_micros();
            assert!(is_ok(&status), "{status:?}");
            elapsed
        })
        .collect();
    micros.sort_unstable();
    let median = micros[micros.len() / 2];
    assert!(
        median < 2_000,
        "median status round trip {median} µs on an idle server: {micros:?}"
    );
    handle.shutdown();
    join_in_background(handle)
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns");
}

/// `TINY_GRID` widened to four cells.
fn four_cell_grid() -> String {
    TINY_GRID
        .replace('\n', " ")
        .replace(r#""lambda":[0.5,1]"#, r#""lambda":[0.25,0.5,1,2]"#)
}

/// A server whose every primary attempt sleeps 500 ms before solving.
fn hanging_server(workers: usize, cell_timeout: Duration) -> ServerHandle {
    spawn(ServerConfig {
        workers,
        cell_timeout,
        ..chaos_config(ChaosConfig {
            hang_per_mille: 1000,
            hang_ms: 500,
            ..ChaosConfig::default()
        })
    })
    .expect("spawn")
}

#[test]
fn a_cold_sweep_keeps_every_solver_busy() {
    // Two solvers, four cells whose primaries each hang 500 ms well
    // inside the deadline: a job that dispatched one cell at a time
    // would never have more than one solve in flight.
    let handle = hanging_server(2, Duration::from_secs(30));
    let mut client = Client::connect(handle.addr());
    client.send(&four_cell_grid());
    let mut probe = Client::connect(handle.addr());
    let mut most_in_flight = 0.0f64;
    while metric_value(&mut probe, "jobs/done") < 1.0 {
        most_in_flight = most_in_flight.max(metric_value(&mut probe, "solves/in_flight"));
        std::thread::sleep(Duration::from_millis(20));
    }
    let (cells, done) = collect_stream(&mut client);
    assert!(is_ok(&done), "{done:?}");
    assert_eq!(cells.len(), 4);
    assert_eq!(most_in_flight, 2.0, "the cold sweep left a solver idle");

    probe.send(r#"{"op":"shutdown"}"#);
    drop((client, probe));
    handle.join();
}

#[test]
fn look_ahead_never_spends_a_deadline_in_the_queue() {
    // One solver, so look-ahead queues a cell behind a 500 ms hang; a
    // deadline counted from dispatch (500 ms queued + 500 ms hang) would
    // overrun the 750 ms cell timeout, one counted from pickup never does.
    let grid = four_cell_grid();
    let clean = spawn(test_config(1)).expect("spawn clean");
    let mut clean_client = Client::connect(clean.addr());
    clean_client.send(&grid);
    let (reference_cells, done) = collect_stream(&mut clean_client);
    assert!(is_ok(&done), "{done:?}");
    let reference = result_report(&mut clean_client);

    let handle = hanging_server(1, Duration::from_millis(750));
    let mut client = Client::connect(handle.addr());
    client.send(&grid);
    let (cells, done) = collect_stream(&mut client);
    assert!(is_ok(&done), "{done:?}");
    assert_eq!(metric_value(&mut client, "faults/injected"), 4.0);
    assert_eq!(metric_value(&mut client, "cells/timed_out"), 0.0);
    assert_eq!(metric_value(&mut client, "workers/restarted"), 0.0);
    assert_eq!(metric_value(&mut client, "cells/retries"), 0.0);
    assert_eq!(cells, reference_cells, "the hangs changed the cell bytes");
    assert_eq!(result_report(&mut client), reference);

    for (mut c, h) in [(client, handle), (clean_client, clean)] {
        c.send(r#"{"op":"shutdown"}"#);
        drop(c);
        h.join();
    }
}

#[test]
fn an_aborting_job_still_times_out_its_running_look_ahead() {
    // Chaos seed 102011 on `TINY_GRID` widened to three cells: cell 0's
    // primary is clean, which widens the look-ahead window to two
    // attempts; every attempt at cell 1 panics; cell 2's primary hangs
    // 2 s, ten times the deadline. So when cell 1 runs out of retries,
    // cell 2's primary is usually still hanging on a solver (unless the
    // abort cancelled it before any solver took it). The two-cell sweep
    // `h` draws no fault at all.
    let handle = spawn(ServerConfig {
        cell_timeout: Duration::from_millis(200),
        chaos: Some(ChaosConfig {
            seed: 102_011,
            panic_per_mille: 333,
            hang_per_mille: 333,
            hang_ms: 2000,
            every_attempt: true,
            ..ChaosConfig::default()
        }),
        ..test_config(2)
    })
    .expect("spawn");
    let mut client = Client::connect(handle.addr());
    client.send(
        &TINY_GRID
            .replace('\n', " ")
            .replace(r#""lambda":[0.5,1]"#, r#""lambda":[0.25,0.5,1]"#),
    );
    let (cells, done) = collect_stream(&mut client);
    assert!(!is_ok(&done), "{done:?}");
    assert_eq!(cells.len(), 1, "only the cell before the refusal streams");
    let err = get_str(&done, "error");
    assert!(err.contains("failed after 2 retries"), "{err}");
    assert!(err.contains("solver panicked"), "{err}");

    // Every fault is a panic or a hang past the deadline, so each one
    // applied must end in exactly one replaced solver — the hangs still
    // running when the job gave up included.
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let injected = metric_value(&mut client, "faults/injected");
        let restarted = metric_value(&mut client, "workers/restarted");
        if injected == restarted {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "{injected} faults applied, {restarted} solvers replaced: \
             an attempt of the aborted job hangs unsupervised"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The pool still serves the next job.
    client.send(
        &TINY_GRID
            .replace('\n', " ")
            .replace(r#""name":"g","seed":11"#, r#""name":"h","seed":12"#),
    );
    let (cells, done) = collect_stream(&mut client);
    assert!(is_ok(&done), "{done:?}");
    assert_eq!(cells.len(), 2);

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    join_in_background(handle)
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns");
}
