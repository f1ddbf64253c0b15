//! The rbclient side: a reconnecting, resubmitting rbserve client with
//! seeded exponential backoff.
//!
//! The protocol is deliberately `nc`-able (line-delimited JSON over
//! TCP), but scripts shouldn't need `nc` — or hand-rolled retry loops.
//! This module gives them the fault-tolerant half of the conversation:
//!
//! * **reconnect**: a refused or dropped connection is retried with
//!   exponential backoff plus *seeded* jitter ([`Backoff`]) — pure in
//!   `(seed, attempt)`, so client behaviour in tests is reproducible;
//! * **resubmit-after-disconnect**: a `submit` whose event stream dies
//!   mid-flight (server killed, socket reset) is submitted again from
//!   scratch on a fresh connection. This is safe *because* the server's
//!   result cache is content-addressed: the cells the dead server
//!   already solved and persisted come back as cache hits, so a
//!   resubmit converges on the same byte-identical report instead of
//!   redoing (or worse, double-counting) work;
//! * **shed-aware retry**: a `shed` response (queue full, draining) is
//!   an explicit "try later", and the client does, under the same
//!   backoff schedule.
//!
//! A plain `{"ok": false, "error": …}` response is *terminal* — the
//! request itself is wrong, and retrying it would loop forever.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rbruntime::faultio::mix64;
use serde::Value;

/// Client behaviour knobs. `Default` suits tests and scripts talking
/// to a local server.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7077`.
    pub addr: String,
    /// Total connection/submission attempts before giving up.
    pub max_attempts: u32,
    /// First backoff delay, in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Ceiling on any single backoff delay, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the jitter schedule — same seed, same delays.
    pub backoff_seed: u64,
    /// Socket read/write timeout. Must comfortably exceed the server's
    /// per-cell solve time: the event stream may be silent that long.
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7077".into(),
            max_attempts: 8,
            backoff_base_ms: 50,
            backoff_cap_ms: 5_000,
            backoff_seed: 0,
            io_timeout: Duration::from_secs(120),
        }
    }
}

/// Seeded exponential backoff: attempt `k` waits
/// `min(base << k, cap) + jitter(seed, k)` milliseconds, where the
/// jitter is a pure hash of `(seed, k)` bounded by `base`. No clocks,
/// no global RNG — two clients with different seeds desynchronize
/// (no thundering herd), while one client replays identically.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
}

impl Backoff {
    /// A schedule from the client config's knobs.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms,
            seed,
        }
    }

    /// The delay before retry attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let shifted = self
            .base_ms
            .checked_shl(attempt.min(32))
            .unwrap_or(u64::MAX);
        let exp = shifted.min(self.cap_ms);
        let jitter = mix64(self.seed ^ u64::from(attempt).wrapping_add(0xB0FF)) % self.base_ms;
        Duration::from_millis(exp + jitter)
    }
}

/// One connected line-protocol session.
struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(cfg: &ClientConfig) -> Result<Session, String> {
        let stream =
            TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
        // Requests are single small writes; without TCP_NODELAY one
        // can sit behind the server's delayed ACK for about 40 ms.
        stream
            .set_read_timeout(Some(cfg.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(cfg.io_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = stream
            .try_clone()
            .map(BufReader::new)
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Session {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// How one response line classifies for retry purposes.
enum Disposition {
    /// `{"event": "shed", …}` — explicit try-later.
    Shed,
    /// `{"ok": false, "error": …}` with no event field — the request
    /// itself is wrong; retrying cannot help.
    Terminal,
    /// `{"event": "done", …}` — the end of a submit's stream.
    Done,
    /// Anything else (ok responses, accepted/cell events).
    Normal,
}

/// Parses `line` once and sorts it into a [`Disposition`].
fn classify(line: &str) -> Disposition {
    let Ok(v) = serde_json::from_str::<Value>(line) else {
        return Disposition::Normal;
    };
    match (v.get("event"), v.get("ok")) {
        (Some(Value::Str(e)), _) if e == "shed" => Disposition::Shed,
        (Some(Value::Str(e)), _) if e == "done" => Disposition::Done,
        (Some(Value::Str(_)), _) => Disposition::Normal,
        (_, Some(Value::Bool(false))) => Disposition::Terminal,
        _ => Disposition::Normal,
    }
}

fn is_submit(line: &str) -> bool {
    serde_json::from_str::<Value>(line)
        .is_ok_and(|v| matches!(v.get("op"), Some(Value::Str(op)) if op == "submit"))
}

/// Sends one request line and drives it to completion, reconnecting
/// and retrying (with seeded backoff) through connection failures,
/// mid-stream disconnects, and `shed` responses.
///
/// For a `submit`, every streamed line (`accepted`, `cell`, `done`) is
/// passed to `on_event` as it arrives — on a reconnect the stream
/// restarts from `accepted`, and previously solved cells return as
/// cache hits — and the final `done` line is returned. For any other
/// request the single response line is returned (and also passed to
/// `on_event`).
///
/// `Err` means attempts were exhausted (transport failures/sheds) or
/// the server answered with a terminal protocol error.
pub fn run_request(
    cfg: &ClientConfig,
    line: &str,
    on_event: &mut dyn FnMut(&str),
) -> Result<String, String> {
    let backoff = Backoff::new(cfg.backoff_base_ms, cfg.backoff_cap_ms, cfg.backoff_seed);
    let streaming = is_submit(line);
    let mut last_failure = String::from("no attempts made");
    for attempt in 0..cfg.max_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff.delay(attempt - 1));
        }
        let mut session = match Session::connect(cfg) {
            Ok(s) => s,
            Err(e) => {
                last_failure = e;
                continue;
            }
        };
        if let Err(e) = session.send(line) {
            last_failure = e;
            continue;
        }
        if !streaming {
            match session.recv() {
                Ok(resp) => match classify(&resp) {
                    Disposition::Shed => {
                        last_failure = format!("shed: {resp}");
                        continue;
                    }
                    _ => {
                        on_event(&resp);
                        return Ok(resp);
                    }
                },
                Err(e) => {
                    last_failure = e;
                    continue;
                }
            }
        }
        // Submit: stream events until `done` (complete), a shed or
        // terminal error (handled per disposition), or a transport
        // failure (reconnect + resubmit; the content-addressed cache
        // makes the resubmit idempotent).
        'stream: loop {
            let resp = match session.recv() {
                Ok(r) => r,
                Err(e) => {
                    last_failure = format!("{e} (mid-stream; will resubmit)");
                    break 'stream;
                }
            };
            match classify(&resp) {
                Disposition::Shed => {
                    last_failure = format!("shed: {resp}");
                    break 'stream;
                }
                Disposition::Terminal => {
                    on_event(&resp);
                    return Err(format!("server refused the request: {resp}"));
                }
                Disposition::Done => {
                    on_event(&resp);
                    return Ok(resp);
                }
                Disposition::Normal => on_event(&resp),
            }
        }
    }
    Err(format!(
        "gave up after {} attempts; last failure: {last_failure}",
        cfg.max_attempts.max(1)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_pure_and_capped() {
        let b = Backoff::new(50, 400, 7);
        let again = Backoff::new(50, 400, 7);
        for k in 0..10 {
            assert_eq!(b.delay(k), again.delay(k), "attempt {k} must replay");
            // exp part capped at 400, jitter < base
            assert!(b.delay(k) < Duration::from_millis(400 + 50));
        }
        // Monotone-ish growth before the cap: attempt 2's exponential
        // part (200) dominates attempt 0's (50) + max jitter (49).
        assert!(b.delay(3) + Duration::from_millis(50) > b.delay(0));
    }

    #[test]
    fn different_seeds_desynchronize() {
        let a = Backoff::new(64, 10_000, 1);
        let b = Backoff::new(64, 10_000, 2);
        assert!(
            (0..8).any(|k| a.delay(k) != b.delay(k)),
            "two seeds should not share the whole schedule"
        );
    }

    #[test]
    fn classify_distinguishes_shed_terminal_normal() {
        assert!(matches!(
            classify(r#"{"ok": false, "event": "shed", "reason": "queue full"}"#),
            Disposition::Shed
        ));
        assert!(matches!(
            classify(r#"{"ok": false, "error": "bad op"}"#),
            Disposition::Terminal
        ));
        assert!(matches!(
            classify(r#"{"ok": true, "status": "serving"}"#),
            Disposition::Normal
        ));
        assert!(matches!(
            classify(r#"{"event": "done", "ok": true}"#),
            Disposition::Done
        ));
        // An aborted job's done carries `ok: false` and still ends the
        // stream.
        assert!(matches!(
            classify(r#"{"event": "done", "ok": false, "error": "cell failed"}"#),
            Disposition::Done
        ));
        assert!(matches!(
            classify(r#"{"event": "cell", "ok": true}"#),
            Disposition::Normal
        ));
        assert!(matches!(classify("not json"), Disposition::Normal));
    }

    #[test]
    fn both_ends_disable_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = ClientConfig {
            addr: listener.local_addr().unwrap().to_string(),
            ..ClientConfig::default()
        };
        let session = Session::connect(&cfg).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        crate::server::configure_accepted(&accepted, Duration::from_secs(5)).unwrap();
        assert!(session.writer.nodelay().unwrap(), "client stream");
        assert!(accepted.nodelay().unwrap(), "accepted stream");
    }

    #[test]
    fn request_kind_detection() {
        assert!(is_submit(r#"{"op": "submit", "kind": "echo"}"#));
        assert!(!is_submit(r#"{"op": "status"}"#));
    }
}
