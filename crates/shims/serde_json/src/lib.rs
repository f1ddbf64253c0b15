//! Offline shim for the `serde_json` crate.
//!
//! Works against the `serde` shim's [`Value`] tree: `to_string` /
//! `to_string_pretty` render it as JSON, `from_str` parses JSON back
//! into any `Deserialize` type. Number formatting matches Rust's
//! shortest-round-trip `Display` for `f64`, with integral values
//! printed without a decimal point (as serde_json prints integers).

#![forbid(unsafe_code)]

use std::fmt::Write;

use serde::{Deserialize, Serialize, Value};

/// Serialization or parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), None, 0);
    Ok(out)
}

/// Renders `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = Parser::new(s).parse_document()?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/inf; serde_json maps them to null via
        // Serialize, but Value::Num can be built directly — keep the
        // emitted document parseable either way.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        write!(out, "{}", x as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{x}").expect("writing to a String cannot fail");
    }
}

/// Writes `s` quoted, copying each run of bytes that needs no escape in
/// one piece. Every escaped byte is ASCII, so the runs end on char
/// boundaries.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Starts a new line indented `depth` levels in pretty mode; writes
/// nothing in compact mode.
fn break_line(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => write_num(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                break_line(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            break_line(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (k, (key, item)) in entries.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                break_line(out, indent, depth + 1);
                write_escaped(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent, depth + 1);
            }
            break_line(out, indent, depth);
            out.push('}');
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_document(&mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|_| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':', "expected `:`")?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for the
                            // artifacts this workspace writes.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the plain run up to the next `"` or `\`. Both
                    // are ASCII, so the run ends on a char boundary of
                    // the (already valid) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_vectors() {
        let s = to_string_pretty(&vec![1, 2, 3]).unwrap();
        assert_eq!(from_str::<Vec<i32>>(&s).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn pretty_output_shape() {
        let v = Value::Map(vec![
            ("a".into(), Value::Num(1.0)),
            ("b".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}");
    }

    #[test]
    fn compact_output_and_floats() {
        let v = Value::Seq(vec![Value::Num(1.5), Value::Num(2.0), Value::Num(-0.25)]);
        assert_eq!(to_string(&v).unwrap(), "[1.5,2,-0.25]");
    }

    #[test]
    fn strings_escape_and_parse() {
        let v = Value::Str("a\"b\\c\nd".into());
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<String>(&s).unwrap(), "a\"b\\c\nd");
    }

    /// `s` through `write_escaped` and back.
    fn round_trip(s: &str) -> String {
        let mut json = String::new();
        write_escaped(&mut json, s);
        from_str::<String>(&json).unwrap_or_else(|e| panic!("{json:?}: {e}"))
    }

    #[test]
    fn multibyte_utf8_round_trips_next_to_escapes() {
        for s in [
            "é",
            "é\"",
            "\"é",
            "\\é\\",
            "日本語",
            "\n日本\t語\n",
            "😀",
            "😀\\😀",
            "a\"😀\"b",
            "é日😀\u{1}x\u{1f}",
            "\u{7f}é",
            "",
        ] {
            assert_eq!(round_trip(s), s);
        }
    }

    #[test]
    fn long_string_round_trips() {
        let unit = "plain ascii run, é, 日本語, 😀, \"quoted\", back\\slash\n";
        let s = unit.repeat(64 * 1024 / unit.len() + 1);
        assert!(s.len() >= 64 * 1024);
        assert_eq!(round_trip(&s), s);
    }

    /// The exact text the writer produces, compact and pretty, for the
    /// numbers, strings and containers at the edges of its formatting.
    #[test]
    fn writer_bytes_are_pinned() {
        let tiny = format!("0.{}5", "0".repeat(323));
        let nested = Value::Seq(vec![
            Value::Seq(vec![]),
            Value::Map(vec![]),
            Value::Seq(vec![Value::Seq(vec![Value::Map(vec![])])]),
            Value::Map(vec![(
                "k".into(),
                Value::Seq(vec![
                    Value::Num(1.0),
                    Value::Null,
                    Value::Map(vec![("".into(), Value::Num(-0.5))]),
                ]),
            )]),
        ]);
        let nested_pretty = "[\n  [],\n  {},\n  [\n    [\n      {}\n    ]\n  ],\n  {\n    \"k\": [\n      1,\n      null,\n      {\n        \"\": -0.5\n      }\n    ]\n  }\n]";
        let map_pretty = format!(
            "{{\n  \"ok\": true,\n  \"e\\\"v\": \"\",\n  \"x\": {}\n}}",
            nested_pretty.replace('\n', "\n  ")
        );
        let corpus: Vec<(Value, &str, &str)> = vec![
            (Value::Num(-0.0), "0", "0"),
            (
                Value::Num(999_999_999_999_999.0),
                "999999999999999",
                "999999999999999",
            ),
            (Value::Num(1e15), "1000000000000000", "1000000000000000"),
            (
                Value::Num((1u64 << 53) as f64 + 1.0),
                "9007199254740992",
                "9007199254740992",
            ),
            (
                Value::Num(1e21),
                "1000000000000000000000",
                "1000000000000000000000",
            ),
            (Value::Num(5e-324), &tiny, &tiny),
            (Value::Num(f64::NAN), "null", "null"),
            (Value::Num(f64::INFINITY), "null", "null"),
            (Value::Num(f64::NEG_INFINITY), "null", "null"),
            (Value::Num(-1.5e-7), "-0.00000015", "-0.00000015"),
            (
                Value::Str("a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é😀".into()),
                "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}é😀\"",
                "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}é😀\"",
            ),
            (Value::Seq(vec![]), "[]", "[]"),
            (Value::Map(vec![]), "{}", "{}"),
            (
                nested.clone(),
                r#"[[],{},[[{}]],{"k":[1,null,{"":-0.5}]}]"#,
                nested_pretty,
            ),
            (
                Value::Map(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("e\"v".into(), Value::Str(String::new())),
                    ("x".into(), nested),
                ]),
                r#"{"ok":true,"e\"v":"","x":[[],{},[[{}]],{"k":[1,null,{"":-0.5}]}]}"#,
                &map_pretty,
            ),
        ];
        for (v, compact, pretty) in &corpus {
            assert_eq!(to_string(v).unwrap(), *compact, "compact {v:?}");
            assert_eq!(to_string_pretty(v).unwrap(), *pretty, "pretty {v:?}");
            // A reference renders the same text as the value itself.
            assert_eq!(to_string(&v).unwrap(), *compact, "compact &{v:?}");
        }
        // Non-finite floats serialize to null before reaching the writer.
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(
            to_string_pretty(&vec![f64::INFINITY, 0.5]).unwrap(),
            "[\n  null,\n  0.5\n]"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Vec<i32>>("[1, 2,").is_err());
        assert!(from_str::<Vec<i32>>("[1] trailing").is_err());
    }
}
