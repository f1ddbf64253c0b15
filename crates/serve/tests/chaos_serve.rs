//! Chaos matrix for the server's self-recovery: 24 seeded fault
//! schedules (panic / hang-past-deadline / garbled-report / mixed)
//! against in-process servers, each solving the same grid. The
//! acceptance criterion is byte-level: every chaos run's `result`
//! report must equal the fault-free reference — recovery may cost
//! retries, never bytes. A 25th schedule injects on every attempt to
//! prove retry exhaustion degrades into a *named refusal*, not a dead
//! server.
//!
//! Counterpart to `rbbench`'s `chaos_matrix.rs`, which does the same
//! for the persistence layer (the result cache under faulty I/O).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use rbserve::{spawn, ChaosConfig, ServerConfig};
use serde::Value;

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
    let dir = std::env::temp_dir().join(format!("rbserve-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four cells: enough distinct (cell, seed) pairs that every fault
/// kind gets exercised per schedule, small enough that 25 schedules
/// stay inside a debug-build test budget.
const GRID: &str = r#"{"op":"submit","name":"g","seed":11,"kind":"async_grid",
    "n":[2],"mu":[1],"lambda":[0.5,0.75,1.0,1.25],"lines":60,
    "dist":{"lo":0,"hi":12,"bins":24}}"#;

const CELLS: usize = 4;

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

/// Submits `GRID`, drains the event stream asserting every cell event
/// is ok, returns the done event.
fn run_grid(client: &mut Client) -> Value {
    let accepted = client.request(&GRID.replace('\n', " "));
    assert!(is_ok(&accepted), "{accepted:?}");
    assert_eq!(get_num(&accepted, "cells"), CELLS as f64);
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
                assert_eq!(cells_seen, CELLS, "every cell streams before done");
                return event;
            }
            other => panic!("unexpected event `{other}`: {event:?}"),
        }
    }
}

fn result_report(client: &mut Client) -> Value {
    let result = client.request(r#"{"op":"result","sweep":"g"}"#);
    assert!(is_ok(&result), "{result:?}");
    get(&result, "report").clone()
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 4,
        max_cells: 256,
        cache_dir: None,
        ..ServerConfig::default()
    }
}

/// Schedule `i`'s chaos knobs and the matching cell deadline. Cycles
/// through the four fault families; rates always sum to 1000‰ so every
/// primary attempt faults (exact counter arithmetic per schedule).
fn schedule(i: u64) -> (ChaosConfig, Duration) {
    let seed = 0xC4A0_5EED ^ (i.wrapping_mul(0x9E37_79B9));
    match i % 4 {
        // Every primary attempt panics; fresh solver retries clean.
        0 => (
            ChaosConfig {
                seed,
                panic_per_mille: 1000,
                ..ChaosConfig::default()
            },
            Duration::from_secs(30),
        ),
        // Every primary attempt hangs far past the deadline; the
        // supervisor times it out and retries on a fresh solver.
        1 => (
            ChaosConfig {
                seed,
                hang_per_mille: 1000,
                hang_ms: 1500,
                ..ChaosConfig::default()
            },
            Duration::from_millis(40),
        ),
        // Every primary attempt returns a corrupted report; the
        // acceptance test refuses it.
        2 => (
            ChaosConfig {
                seed,
                garble_per_mille: 1000,
                ..ChaosConfig::default()
            },
            Duration::from_secs(30),
        ),
        // Mixed: the schedule's hash picks per-attempt which fault
        // fires. Hangs stay inside the deadline (pure latency).
        _ => (
            ChaosConfig {
                seed,
                panic_per_mille: 350,
                hang_per_mille: 300,
                garble_per_mille: 350,
                hang_ms: 20,
                ..ChaosConfig::default()
            },
            Duration::from_secs(30),
        ),
    }
}

/// 24 seeded schedules; every one must serve the reference bytes.
#[test]
fn chaos_schedules_all_serve_the_fault_free_bytes() {
    // Fault-free reference run.
    let clean = spawn(base_config()).expect("spawn clean");
    let mut clean_client = Client::connect(clean.addr());
    run_grid(&mut clean_client);
    let reference = result_report(&mut clean_client);
    clean_client.send(r#"{"op":"shutdown"}"#);
    drop(clean_client);
    clean.join();

    let mut total_faults = 0.0;
    for i in 0..24u64 {
        let (chaos, cell_timeout) = schedule(i);
        let cache = if i % 3 == 0 {
            Some(scratch(&format!("s{i}")))
        } else {
            None
        };
        let handle = spawn(ServerConfig {
            cell_timeout,
            chaos: Some(chaos),
            cache_dir: cache.clone(),
            ..base_config()
        })
        .unwrap_or_else(|e| panic!("schedule {i}: spawn: {e}"));
        let mut client = Client::connect(handle.addr());

        let done = run_grid(&mut client);
        assert_eq!(
            get_num(&done, "cells"),
            CELLS as f64,
            "schedule {i}: {done:?}"
        );
        assert_eq!(
            result_report(&mut client),
            reference,
            "schedule {i}: recovery must not change served bytes"
        );

        // Rates sum to 1000‰: every primary attempt faulted, and every
        // cell recovered within the retry budget (or we'd have panicked
        // on a non-ok done above).
        let faults = metric_value(&mut client, "faults/injected");
        assert!(
            faults >= CELLS as f64,
            "schedule {i}: expected ≥ {CELLS} injected faults, saw {faults}"
        );
        total_faults += faults;
        assert_eq!(
            metric_value(&mut client, "cells/solved"),
            CELLS as f64,
            "schedule {i}"
        );

        // A cache written through chaos serves a clean 100%-hit rerun.
        if cache.is_some() {
            let done = run_grid(&mut client);
            assert_eq!(
                get_num(&done, "cache_hits"),
                CELLS as f64,
                "schedule {i}: rerun must hit the cache for every cell: {done:?}"
            );
            assert_eq!(
                result_report(&mut client),
                reference,
                "schedule {i}: cached bytes diverged"
            );
        }

        client.send(r#"{"op":"shutdown"}"#);
        drop(client);
        handle.join();
        if let Some(dir) = cache {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    assert!(
        total_faults >= 96.0,
        "matrix under-injected: {total_faults}"
    );
}

/// The 25th schedule: faults on *every* attempt exhaust the retry
/// budget. The job must abort with a named refusal — and the server
/// must keep serving.
#[test]
fn exhausted_retries_are_a_named_refusal_not_a_dead_server() {
    let handle = spawn(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xDEAD_C4A0,
            panic_per_mille: 1000,
            every_attempt: true,
            ..ChaosConfig::default()
        }),
        ..base_config()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.addr());

    let accepted = client.request(&GRID.replace('\n', " "));
    assert!(is_ok(&accepted), "{accepted:?}");
    let done = loop {
        let event = client.recv();
        if get_str(&event, "event") == "done" {
            break event;
        }
    };
    assert!(!is_ok(&done), "{done:?}");
    let err = get_str(&done, "error");
    assert!(err.contains("failed after 2 retries"), "{err}");

    // The server survived its own worst schedule: a fresh connection
    // still gets answers.
    let mut probe = Client::connect(handle.addr());
    let status = probe.request(r#"{"op":"status"}"#);
    assert!(is_ok(&status), "{status:?}");

    probe.send(r#"{"op":"shutdown"}"#);
    drop((client, probe));
    handle.join();
}
