//! Minimal JSON reading and writing.
//!
//! The workspace has no serde; this module is its one JSON codec:
//! escaping writers for the trace serializer, the serve wire and the
//! artifacts (bench, lint findings and baselines), and a
//! recursive-descent parser for reading them back. It parses objects,
//! arrays, strings, finite numbers, bools and null, and rejects
//! anything malformed with a positioned error.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-fractional, non-negative numeric literal (no `-`, `.`,
    /// or exponent) that fits `u64`, kept exact. `f64` alone loses
    /// integer precision above 2^53, which silently corrupted large
    /// RNG seeds crossing the serve wire (found by `dut fuzz`'s
    /// differential plane).
    Uint(u64),
    /// Any other number (stored as `f64`; exact for integers below
    /// 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `f64`, if numeric. `Uint` values above 2^53
    /// round to the nearest representable `f64` — callers that need
    /// exact large integers use [`Self::as_u64`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Json::Uint(x) => Some(*x as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer. Plain integer
    /// literals arrive as `Uint` and return exactly; a `Num` that
    /// happens to be integral (e.g. `1e3`) is accepted too.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(x) => Some(*x),
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::float_cmp
            )]
            // dut-lint: allow(float-eq): fract() of an integral f64 is exactly +0.0 — this is an exact integrality test, an epsilon would accept non-integers
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key, if this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number to `out` (non-finite values become `null`).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends the canonical serialization of a parsed value to `out`
/// (object keys in `BTreeMap` order, shortest-round-trip numbers).
/// `parse(write(x)) == x` for every finite-numbered value.
pub fn write(out: &mut String, node: &Json) {
    match node {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Uint(x) => {
            let _ = write!(out, "{x}");
        }
        Json::Num(x) => write_f64(out, *x),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (key, value)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                write(out, value);
            }
            out.push('}');
        }
    }
}

/// Deepest container nesting [`parse`] accepts. The parser is
/// recursive-descent, so without a bound a hostile line of `[[[[…`
/// converts input length into call-stack depth and aborts the whole
/// process with a stack overflow — a fuzzer-found crash, not a
/// hypothetical. 64 levels is far beyond anything the workspace
/// writes (traces nest 2–3 deep).
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document from `input`.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error,
/// if trailing non-whitespace follows the document, or if containers
/// nest deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid utf8 in number at byte {start}"))?;
        // Plain digit runs stay exact: `f64` cannot represent every
        // u64 above 2^53, and seeds ride this wire.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Uint(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (1–4 bytes).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid utf8 at byte {}", self.pos))?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_escapes() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}f");
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed, Json::Str("a\"b\\c\nd\te\u{1}f".into()));
    }

    #[test]
    fn parses_nested_document() {
        let doc =
            r#"{"event":"manifest","seed":42,"cfg":{"n":[1,2,3],"ok":true,"x":null},"rate":0.5}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("rate").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            v.get("cfg").and_then(|c| c.get("ok")),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            v.get("cfg").and_then(|c| c.get("n")),
            Some(&Json::Arr(vec![
                Json::Uint(1),
                Json::Uint(2),
                Json::Uint(3)
            ]))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1}x"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        // One past the cap fails with a structured error…
        let mut hostile = "[".repeat(MAX_DEPTH + 1);
        hostile.push_str(&"]".repeat(MAX_DEPTH + 1));
        assert!(parse(&hostile).unwrap_err().contains("nesting"));
        // …and far past the cap must not overflow the stack (this is
        // the fuzzer's original crashing input shape).
        let bomb = "[".repeat(200_000);
        assert!(parse(&bomb).is_err());
        // Exactly at the cap still parses.
        let mut legal = "[".repeat(MAX_DEPTH);
        legal.push_str(&"]".repeat(MAX_DEPTH));
        assert!(parse(&legal).is_ok());
        // Depth is nesting, not total container count: siblings at the
        // same level don't accumulate.
        let wide = format!("[{}]", vec!["[1]"; 100].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn number_forms() {
        assert_eq!(parse("-3.25e2").unwrap().as_f64(), Some(-325.0));
        assert_eq!(
            parse("18446744073709").unwrap().as_u64(),
            Some(18_446_744_073_709)
        );
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn large_integers_survive_exactly() {
        // Above 2^53, f64 cannot hold every integer; seeds this large
        // cross the serve wire and must round-trip bit-exactly (found
        // by the differential fuzz plane).
        let seed = 13_827_855_532_095_422_826_u64;
        let text = seed.to_string();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, Json::Uint(seed));
        assert_eq!(parsed.as_u64(), Some(seed));
        let mut out = String::new();
        write(&mut out, &parsed);
        assert_eq!(out, text);
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        // One past u64::MAX falls back to f64 rather than erroring.
        assert!(parse("18446744073709551616").unwrap().as_f64().is_some());
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ☃"));
    }

    #[test]
    fn write_round_trips() {
        let source = r#"{"a":[1,2.5,null,true],"b":{"nested":"va\"lue"},"c":-3}"#;
        let doc = parse(source).unwrap();
        let mut out = String::new();
        write(&mut out, &doc);
        assert_eq!(parse(&out).unwrap(), doc);
        // Canonical form is stable under re-serialization.
        let mut again = String::new();
        write(&mut again, &parse(&out).unwrap());
        assert_eq!(out, again);
    }
}
