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
#[derive(Debug, PartialEq)]
enum Disposition {
    /// `{"event": "shed", …}` — explicit try-later.
    Shed,
    /// `{"ok": false, "error": …}` with no event field — the request
    /// itself is wrong; retrying cannot help.
    Terminal,
    /// `{"event": "done", …}` — the end of a submit's stream.
    Done,
    /// Anything else (ok responses, accepted/cell events, lines that
    /// are not JSON).
    Normal,
}

/// Sorts `line` into a [`Disposition`] by its top-level `event` and
/// `ok` members.
fn classify(line: &str) -> Disposition {
    let Some(top) = TopLevel::read(line) else {
        return Disposition::Normal;
    };
    match (top.event, top.ok) {
        (Some(Member::Str(e)), _) if e.is("shed") => Disposition::Shed,
        (Some(Member::Str(e)), _) if e.is("done") => Disposition::Done,
        (Some(Member::Str(_)), _) => Disposition::Normal,
        (_, Some(Member::False)) => Disposition::Terminal,
        _ => Disposition::Normal,
    }
}

/// Whether request `line` has top-level `"op": "submit"`.
fn is_submit(line: &str) -> bool {
    TopLevel::read(line)
        .is_some_and(|top| matches!(top.op, Some(Member::Str(op)) if op.is("submit")))
}

/// The top-level members the client acts on, each the first of its
/// name as in [`Value::get`](serde::Value::get). [`TopLevel::read`]
/// accepts exactly the lines the `serde_json` shim parses, in one pass
/// that allocates nothing and keeps no member below the top level.
#[derive(Default)]
struct TopLevel {
    event: Option<Member>,
    ok: Option<Member>,
    op: Option<Member>,
}

/// What the client needs of a member's value.
enum Member {
    Str(Word),
    False,
    Other,
}

/// A decoded JSON string, comparable against short ASCII words without
/// allocating: any longer string or non-ASCII character compares
/// unequal to all of them.
struct Word {
    buf: [u8; 8],
    len: usize,
}

impl Word {
    fn extend(&mut self, bytes: &[u8]) {
        let end = self.len.saturating_add(bytes.len());
        match self.buf.get_mut(self.len..end) {
            Some(slots) => {
                slots.copy_from_slice(bytes);
                self.len = end;
            }
            None => self.len = usize::MAX,
        }
    }

    fn is(&self, word: &str) -> bool {
        self.buf.get(..self.len) == Some(word.as_bytes())
    }
}

impl TopLevel {
    /// `None` when `line` is not one JSON document.
    fn read(line: &str) -> Option<TopLevel> {
        let mut scan = Scan {
            bytes: line.as_bytes(),
            pos: 0,
        };
        let mut top = TopLevel::default();
        scan.skip_ws();
        if scan.peek() == Some(b'{') {
            scan.object(|key, value| {
                let slot = if key.is("event") {
                    &mut top.event
                } else if key.is("ok") {
                    &mut top.ok
                } else if key.is("op") {
                    &mut top.op
                } else {
                    return;
                };
                slot.get_or_insert(value);
            })?;
        } else {
            scan.value()?;
        }
        scan.skip_ws();
        (scan.pos == scan.bytes.len()).then_some(top)
    }
}

/// A validating JSON scanner with the `serde_json` shim parser's
/// grammar, quirks included: the same whitespace, escapes (`\u` read
/// by `u32::from_str_radix`) and number syntax (the span `str::parse`
/// gets). Every method returns `None` where that parser fails.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    fn keyword(&mut self, kw: &[u8], member: Member) -> Option<Member> {
        self.bytes[self.pos..].starts_with(kw).then(|| {
            self.pos += kw.len();
            member
        })
    }

    fn value(&mut self) -> Option<Member> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.keyword(b"null", Member::Other),
            b't' => self.keyword(b"true", Member::Other),
            b'f' => self.keyword(b"false", Member::False),
            b'"' => self.string().map(Member::Str),
            b'[' => {
                self.pos += 1;
                self.skip_ws();
                if self.eat(b']').is_none() {
                    loop {
                        self.value()?;
                        self.skip_ws();
                        if self.eat(b',').is_none() {
                            self.eat(b']')?;
                            break;
                        }
                    }
                }
                Some(Member::Other)
            }
            b'{' => self.object(|_, _| {}).map(|()| Member::Other),
            b'-' | b'0'..=b'9' => self.number().map(|()| Member::Other),
            _ => None,
        }
    }

    /// An object at `pos`, passing each member to `each` in order.
    fn object(&mut self, mut each: impl FnMut(Word, Member)) -> Option<()> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            each(key, self.value()?);
            self.skip_ws();
            if self.eat(b',').is_none() {
                return self.eat(b'}');
            }
        }
    }

    fn string(&mut self) -> Option<Word> {
        self.eat(b'"')?;
        let mut word = Word {
            buf: [0; 8],
            len: 0,
        };
        loop {
            // The plain run up to the next `"` or `\\`; a non-ASCII byte
            // in it matches no word.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\'))?;
            word.extend(&self.bytes[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Some(word);
            }
            let decoded = match self.peek()? {
                e @ (b'"' | b'\\' | b'/') => e,
                b'n' => b'\n',
                b'r' => b'\r',
                b't' => b'\t',
                b'b' => 0x08,
                b'f' => 0x0c,
                b'u' => {
                    let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())?;
                    self.pos += 4;
                    // Non-ASCII decodes to a byte no word holds.
                    u8::try_from(code).ok().filter(u8::is_ascii).unwrap_or(0xff)
                }
                _ => return None,
            };
            self.pos += 1;
            word.extend(&[decoded]);
        }
    }

    fn number(&mut self) -> Option<()> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        is_float(&self.bytes[start..self.pos]).then_some(())
    }
}

/// Whether `text`, a `-` or digit followed by signs, digits, `.`, `e`
/// and `E`, is a float `str::parse::<f64>` accepts: an optional `-`,
/// digits with at most one `.` (at least one digit), then optionally
/// `e`/`E`, an optional sign and at least one digit.
fn is_float(text: &[u8]) -> bool {
    fn digits(t: &[u8]) -> usize {
        t.iter().take_while(|c| c.is_ascii_digit()).count()
    }
    let mut rest = text.strip_prefix(b"-").unwrap_or(text);
    let int = digits(rest);
    rest = &rest[int..];
    let mut frac = 0;
    if let Some(after) = rest.strip_prefix(b".") {
        frac = digits(after);
        rest = &after[frac..];
    }
    if int + frac == 0 {
        return false;
    }
    match rest.split_first() {
        None => true,
        Some((b'e' | b'E', exp)) => {
            let exp = exp
                .strip_prefix(b"-")
                .or_else(|| exp.strip_prefix(b"+"))
                .unwrap_or(exp);
            !exp.is_empty() && digits(exp) == exp.len()
        }
        Some(_) => false,
    }
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
    use serde::Value;

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

    /// What `classify` returns, read off the full `Value` tree.
    fn classify_by_tree(line: &str) -> Disposition {
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

    /// What `is_submit` returns, read off the full `Value` tree.
    fn is_submit_by_tree(line: &str) -> bool {
        serde_json::from_str::<Value>(line)
            .is_ok_and(|v| matches!(v.get("op"), Some(Value::Str(op)) if op == "submit"))
    }

    fn assert_reads_like_tree(line: &str) {
        assert_eq!(classify(line), classify_by_tree(line), "classify {line:?}");
        assert_eq!(
            is_submit(line),
            is_submit_by_tree(line),
            "is_submit {line:?}"
        );
    }

    /// Every line kind a live server writes, in the order asked.
    fn server_lines() -> (Vec<String>, Vec<String>) {
        use std::io::{BufRead, BufReader, Write};
        let handle = crate::server::spawn(crate::server::ServerConfig {
            workers: 1,
            max_cells: 2,
            ..crate::server::ServerConfig::default()
        })
        .expect("spawn");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            line.trim_end().to_string()
        };
        let submit = r#"{"op":"submit","name":"g","seed":11,"kind":"async_grid","n":[2],"mu":[1],"lambda":[0.5,1],"lines":60,"dist":{"lo":0,"hi":12,"bins":24}}"#;
        let requests = [
            submit,
            r#"{"op":"submit","name":"big","seed":1,"kind":"async_grid","n":[2],"mu":[1],"lambda":[0.5,1,2],"lines":60,"dist":{"lo":0,"hi":12,"bins":24}}"#,
            r#"{"op":"quantile","sweep":"g","cell":"n2/mu1/lam0.5","metric":"X_dist","p":0.5}"#,
            r#"{"op":"result","sweep":"g"}"#,
            r#"{"op":"result","sweep":"nope"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"metrics"}"#,
            r#"{"op":"bogus"}"#,
            r#"{"op":"shutdown"}"#,
        ];
        let mut lines = Vec::new();
        for request in requests {
            writer
                .write_all(format!("{request}\n").as_bytes())
                .expect("send");
            if request == submit {
                // accepted, two cells, done.
                lines.extend((0..4).map(|_| recv()));
            } else {
                lines.push(recv());
            }
        }
        drop((reader, writer));
        handle.join();
        (requests.iter().map(|r| r.to_string()).collect(), lines)
    }

    /// `line` with each member of its top-level object in reverse
    /// order, pretty-printed, and padded with every whitespace byte.
    fn variants(line: &str) -> Vec<String> {
        let mut out = vec![line.to_string(), format!(" \t\r\n{line}\n\r\t ")];
        if let Ok(v) = serde_json::from_str::<Value>(line) {
            out.push(serde_json::to_string_pretty(&v).unwrap());
            if let Value::Map(mut entries) = v {
                entries.reverse();
                out.push(serde_json::to_string_pretty(&Value::Map(entries)).unwrap());
            }
        }
        out
    }

    #[test]
    fn top_level_reader_matches_the_full_parse() {
        let (requests, responses) = server_lines();
        for kind in ["accepted", "cell", "done", "shed"] {
            let tag = format!(r#""event":"{kind}""#);
            assert!(responses.iter().any(|l| l.contains(&tag)), "no {kind} line");
        }
        for key in ["error", "status", "metrics", "report", "x", "draining"] {
            assert!(
                responses.iter().any(|l| l.contains(&format!(r#""{key}""#))),
                "no {key}"
            );
        }
        let cell = responses
            .iter()
            .find(|l| l.contains(r#""event":"cell""#))
            .unwrap();
        // Protocol keys nested inside a report are not the line's own.
        let nested = cell.replace(
            r#""report":{"#,
            r#""report":{"event":"shed","ok":false,"op":"submit","m":{"event":"done","op":"submit"},"#,
        );
        assert_ne!(&nested, cell);
        let mut corpus: Vec<String> = requests.into_iter().chain(responses).collect();
        corpus.push(nested.clone());
        corpus.push(nested.replace(r#""event":"cell","#, ""));
        corpus.extend(
            [
                r#"{"event":"done","ok":false,"error":"cell n2 failed"}"#,
                r#"{"ok":false,"error":"bad","report":{"ok":true,"event":"shed"}}"#,
                r#"{"ok":true,"report":[{"ok":false},{"event":"shed"}]}"#,
                // First of a repeated name wins.
                r#"{"event":"cell","event":"shed"}"#,
                r#"{"event":3,"event":"shed","ok":false}"#,
                r#"{"ok":true,"ok":false}"#,
                r#"{"op":"status","op":"submit"}"#,
                r#"{"op":"submit","op":"status"}"#,
                // Names and tags spelled with escapes.
                r#"{"\u0065vent":"sh\u0065d"}"#,
                r#"{"ev\u0065nt":"don\u+065"}"#,
                r#"{"\u006fk":false}"#,
                r#"{"o\u0070":"s\/ubmit"}"#,
                r#"{"op":"submit\u0000"}"#,
                r#"{"op":"subm\u00efit"}"#,
                r#"{"op":"submi\u-074"}"#,
                r#"{"op":"s\u00"}"#,
                r#"{"op":"\ud800"}"#,
                r#"{"event":"done\n"}"#,
                r#"{"ok":false,"e":"\b\f\r\t\"\\"}"#,
                r#"{"ok":false,"e":"\x"}"#,
                r#"{"ok":false,"é":"日本語 😀"}"#,
                r#"{"eventé":"shed","ok":false}"#,
                r#"{"event":"shedshedshed","ok":false}"#,
                r#"{"event":"s","ok":false}"#,
                // Members whose values are not strings or false.
                r#"{"event":null,"ok":false}"#,
                r#"{"event":["shed"],"ok":false}"#,
                r#"{"event":{"event":"shed"},"ok":false}"#,
                r#"{"ok":0}"#,
                r#"{"ok":"false"}"#,
                r#"{"ok":true}"#,
                r#"{"op":true}"#,
                // Documents that are not objects, or not documents.
                r#"["shed"]"#,
                r#""shed""#,
                "5",
                "null",
                "false",
                "",
                "   ",
                "{}",
                "[]",
                "{ }",
                "[ ]",
                r#"{"ok":false}x"#,
                r#"{"ok":false}{}"#,
                r#"{"ok":false,}"#,
                r#"{"ok":false "e":1}"#,
                r#"{"ok" false}"#,
                r#"{ok:false}"#,
                r#"{"ok":fals}"#,
                r#"{"ok":falsey}"#,
                r#"{"ok":false,"a":[1,]}"#,
                r#"{"ok":false,"a":[1 2]}"#,
                r#"{"ok":false,"a":nul}"#,
                r#"{"ok":false,"a":tru}"#,
                "{\"ok\":false,\"a\":\"raw\u{1}control\ttab\"}",
                "{\"ok\":false,\u{b}\"a\":1}",
                // Numbers at the edges of `str::parse::<f64>`.
                r#"{"ok":false,"a":[0,-0,01,1.,-.5,1.e5,1e+5,1E-5,1e999,-1e-999]}"#,
                r#"{"ok":false,"a":-}"#,
                r#"{"ok":false,"a":--1}"#,
                r#"{"ok":false,"a":-+1}"#,
                r#"{"ok":false,"a":1e}"#,
                r#"{"ok":false,"a":1e+}"#,
                r#"{"ok":false,"a":1.2.3}"#,
                r#"{"ok":false,"a":1-2}"#,
                r#"{"ok":false,"a":1ee5}"#,
                r#"{"ok":false,"a":+1}"#,
                r#"{"ok":false,"a":.5}"#,
            ]
            .map(String::from),
        );
        let mut checked = 0usize;
        for line in &corpus {
            for variant in variants(line) {
                for end in (0..=variant.len()).filter(|&i| variant.is_char_boundary(i)) {
                    assert_reads_like_tree(&variant[..end]);
                    checked += 1;
                }
            }
        }
        // The corpus reaches every disposition in full.
        let full: Vec<_> = corpus.iter().map(|l| classify(l)).collect();
        for d in [
            Disposition::Shed,
            Disposition::Terminal,
            Disposition::Done,
            Disposition::Normal,
        ] {
            assert!(full.contains(&d), "no {d:?} line");
        }
        assert!(corpus.iter().filter(|l| is_submit(l)).count() >= 3);
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn number_syntax_matches_the_full_parse() {
        // Every string of up to five bytes drawn from the characters a
        // JSON number's span may hold.
        let alphabet = b"-+.eE01";
        let mut text = Vec::new();
        for len in 1..=5u32 {
            for mut code in 0..alphabet.len().pow(len) {
                text.clear();
                for _ in 0..len {
                    text.push(alphabet[code % alphabet.len()]);
                    code /= alphabet.len();
                }
                let number = std::str::from_utf8(&text).unwrap();
                assert_reads_like_tree(&format!(r#"{{"ok":false,"a":{number}}}"#));
                assert_reads_like_tree(&format!(r#"{{"op":"submit","a":[{number}]}}"#));
            }
        }
    }

    #[test]
    fn mutated_lines_read_like_the_full_parse() {
        let seedlines = [
            r#"{"ok":true,"event":"cell","sweep":"g","index":1,"cached":false,"report":{"id":"n2/mu1/lam1","seed":3.5e-3,"metrics":[{"name":"X","value":-1.25e+2}]}}"#,
            r#"{"ok":false,"event":"shed","error":"queue full (4 jobs waiting); retry later"}"#,
            r#"{"op":"submit","name":"g","seed":11,"n":[2],"dist":{"lo":0,"hi":12}}"#,
            r#"{"\u006fk":false,"error":"bad \"op\""}"#,
        ];
        let noise = b"{}[],:\"\\ -+.eE0169ntrufalsu";
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = mix64(state);
            (state % bound as u64) as usize
        };
        for _ in 0..20_000 {
            let mut bytes = seedlines[next(seedlines.len())].as_bytes().to_vec();
            for _ in 0..1 + next(3) {
                let at = next(bytes.len() + 1);
                match next(3) {
                    0 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    1 if at < bytes.len() => bytes[at] = noise[next(noise.len())],
                    _ => bytes.insert(at, noise[next(noise.len())]),
                }
            }
            assert_reads_like_tree(std::str::from_utf8(&bytes).unwrap());
        }
    }
}
