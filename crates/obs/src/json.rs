//! Minimal JSON reading and writing.
//!
//! The workspace has no serde; this module is its one JSON reader and
//! writer. Every artifact — trace events, the serve wire, the stats
//! and flight replies, arrival traces, the fuzz corpus — is built as a
//! [`Json`] value and rendered by [`write()`], and read back by
//! [`parse`], a recursive-descent parser that accepts objects, arrays,
//! strings, finite numbers, bools and null and rejects anything
//! malformed with a positioned error. A parsed document is a [`Value`] that borrows
//! every string and key without an escape from its input, so reading a
//! request line allocates little beyond its containers.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value. Strings and object keys are `Cow<'a, str>`: a parsed
/// document borrows them from its input (an escaped string owns its
/// decoded text), and a built one borrows its static field names, so
/// building a reply allocates nothing for them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
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
    /// 2^53). Non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object: members in insertion order, which is the order
    /// [`write()`] emits. Duplicate keys are kept; [`Value::get`]
    /// reads the last one.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// A value that borrows only `'static` text: what every builder and
/// artifact writer makes.
pub type Json = Value<'static>;

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Uint(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Uint(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Uint(u64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<&'static str> for Json {
    fn from(v: &'static str) -> Self {
        Json::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(Cow::Owned(v))
    }
}

impl Json {
    /// An object of statically named members, in the given order.
    #[must_use]
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(key, value)| (Cow::Borrowed(key), value))
                .collect(),
        )
    }

    /// Appends a member to an object; a no-op on any other value.
    pub fn push(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            members.push((key.into(), value.into()));
        }
    }
}

impl<'a> Value<'a> {
    /// The value as `f64`, if numeric. `Uint` values above 2^53
    /// round to the nearest representable `f64` — callers that need
    /// exact large integers use [`Self::as_u64`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Uint(x) => Some(*x as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer. Plain integer
    /// literals arrive as `Uint` and return exactly; a `Num` that
    /// happens to be integral (e.g. `1e3`) is accepted too.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(x) => Some(*x),
            #[allow(
                clippy::cast_possible_truncation,
                clippy::float_cmp,
                reason = "an integral non-negative f64 casts exactly, and one past u64::MAX saturates"
            )]
            // dut-lint: allow(float-eq): fract() of an integral f64 is exactly +0.0 — this is an exact integrality test, an epsilon would accept non-integers
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key, if this is an object. With duplicate keys the
    /// last one wins, as it would in a map filled in document order.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.as_obj()?
            .iter()
            .rev()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The member `key` as `u64`, if present and a non-negative integer.
    #[must_use]
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_u64)
    }

    /// The member `key` as `f64`, if present and numeric.
    #[must_use]
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// The member `key` as `&str`, if present and a string.
    #[must_use]
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// The member `key` as `bool`, if present and a boolean.
    #[must_use]
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// The member `key` read by `read` (e.g. [`Value::as_u64`]).
    ///
    /// # Errors
    ///
    /// ``missing `key` `` when it is absent or `read` rejects it.
    pub fn need<'s, T>(
        &'s self,
        key: &str,
        read: impl FnOnce(&'s Value<'a>) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing `{key}`"))
    }
}

/// Bytes [`to_string`] reserves up front: a served reply line is about
/// 150, so one allocation holds it.
const LINE_CAPACITY: usize = 256;

/// The compact serialization of `node` as a new string.
#[must_use]
pub fn to_string(node: &Value<'_>) -> String {
    let mut out = String::with_capacity(LINE_CAPACITY);
    write(&mut out, node);
    out
}

/// Appends the compact serialization of `node` to `out`: no
/// whitespace, object members in insertion order, strings escaped,
/// numbers in Rust's shortest round-trip form (`Num(1.0)` writes `1`,
/// non-finite numbers write `null`).
///
/// Writing is stable under a round trip, `write(parse(write(x))) ==
/// write(x)`, but the values need not be equal: an integral `Num`
/// writes as an integer literal, which parses back as `Uint`, and a
/// non-finite `Num` comes back as `Null`.
pub fn write(out: &mut String, node: &Value<'_>) {
    match node {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Uint(x) => write_uint(out, *x),
        Value::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
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

/// Appends `x` in decimal, the bytes `{x}` formats to, without going
/// through `core::fmt`.
fn write_uint(out: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        #[allow(clippy::cast_possible_truncation, reason = "x % 10 < 10")]
        let digit = (x % 10) as u8;
        digits[at] = b'0' + digit;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no
/// escape are copied as one slice; every byte that does is ASCII, so
/// each run ends on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest container nesting [`parse`] accepts. The parser is
/// recursive-descent, so without a bound a hostile line of `[[[[…`
/// converts input length into call-stack depth and aborts the whole
/// process with a stack overflow — a fuzzer-found crash, not a
/// hypothetical. 64 levels is far beyond anything the workspace
/// writes (traces nest 2–3 deep).
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document from `input`. Strings and keys without an
/// escape borrow from `input`; a string with an escape owns its
/// decoded text. `\u` escapes decode UTF-16: a high surrogate followed
/// by a low one is their one character, any other surrogate U+FFFD.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error,
/// if trailing non-whitespace follows the document, or if containers
/// nest deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value<'_>, String> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
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

    fn value(&mut self) -> Result<Value<'a>, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if self.input[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so both ends are boundaries.
        let text = &self.input[start..self.pos];
        // Plain digit runs stay exact: `f64` cannot represent every
        // u64 above 2^53, and seeds ride this wire.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Uint(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    /// Reads a string. Each run of bytes up to the next `"` or `\` is
    /// taken as one slice of the input, so the scan is linear in the
    /// string's length; both bytes are ASCII, so every run ends on a
    /// character boundary. A string without an escape borrows its one
    /// run.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        loop {
            let rest = &self.input.as_bytes()[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let run = &self.input[self.pos..self.pos + len];
            self.pos += len;
            if rest[len] == b'"' {
                self.pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(run),
                    Some(mut text) => {
                        text.push_str(run);
                        Cow::Owned(text)
                    }
                });
            }
            let text = decoded.get_or_insert_with(String::new);
            text.push_str(run);
            self.escape(text)?;
        }
    }

    /// Decodes the escape whose `\` is at `self.pos` onto `out` and
    /// moves past it.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                let low = if (0xD800..0xDC00).contains(&code) {
                    self.low_surrogate()
                } else {
                    None
                };
                match low {
                    Some(low) => {
                        // The low half's `\uXXXX` follows: skip to its
                        // last digit.
                        self.pos += 6;
                        let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(scalar).unwrap_or('\u{fffd}')
                    }
                    None => char::from_u32(code).unwrap_or('\u{fffd}'),
                }
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .input
            .as_bytes()
            .get(at..at + 4)
            .ok_or("truncated \\u escape")?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| "bad \\u escape".to_owned())
    }

    /// The code unit of a `\u` low surrogate right after the last hex
    /// digit at `self.pos`, if one is there. Reads without consuming:
    /// anything else is left for the next escape to read or reject.
    fn low_surrogate(&self) -> Option<u32> {
        let next = self.input.as_bytes().get(self.pos + 1..self.pos + 3)?;
        if next != b"\\u" {
            return None;
        }
        let code = self.hex4(self.pos + 3).ok()?;
        (0xDC00..0xE000).contains(&code).then_some(code)
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(Vec::new()));
        }
        // A request line has eight members: one allocation holds them.
        let mut members = Vec::with_capacity(8);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
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

    /// Today's string reader before the linear scan, kept as the
    /// reference the run-at-a-time reader must agree with: it takes one
    /// character at a time by validating the whole rest of the input,
    /// which is quadratic. Escapes decode through the same
    /// [`Parser::escape`].
    fn reference_string(p: &mut Parser<'_>) -> Result<String, String> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => p.escape(&mut out)?,
                Some(_) => {
                    let rest = std::str::from_utf8(&p.input.as_bytes()[p.pos..])
                        .map_err(|_| format!("invalid utf8 at byte {}", p.pos))?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    /// Both readers on `input` (which starts with the opening quote):
    /// each one's string and where it stopped, or its error.
    fn both_readers(input: &str) -> [Result<(String, usize), String>; 2] {
        let fresh = || Parser {
            input,
            pos: 0,
            depth: 0,
        };
        let mut linear = fresh();
        let got = linear.string().map(|s| (s.into_owned(), linear.pos));
        let mut reference = fresh();
        let want = reference_string(&mut reference).map(|s| (s, reference.pos));
        [got, want]
    }

    /// Pieces of string bodies: plain text, 2-, 3- and 4-byte UTF-8,
    /// raw control bytes, every escape, surrogate halves and pairs,
    /// and the malformed escapes.
    const PIECES: [&str; 28] = [
        "a",
        "plain text ",
        "é",
        "☃",
        "😀",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "\t",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\b",
        "\\f",
        "\\u00e9",
        "\\u0000",
        "\\ud83d\\ude00",
        "\\ud83d",
        "\\ude00",
        "\\u12",
        "\\uzzzz",
        "\\u+041",
        "\\x",
        "\\",
        "\"",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn linear_reader_agrees_with_the_reference(
            picks in proptest::prop::collection::vec(0..PIECES.len(), 0..24),
            closed in proptest::prop::bool::ANY,
        ) {
            let mut input = String::from("\"");
            for &i in &picks {
                input.push_str(PIECES[i]);
            }
            if closed {
                input.push('"');
            }
            let [linear, reference] = both_readers(&input);
            proptest::prop_assert_eq!(linear, reference, "{:?}", input);
        }

        #[test]
        fn written_strings_parse_back_equal(
            picks in proptest::prop::collection::vec(0..PIECES.len(), 0..24),
        ) {
            // The pieces taken as text, not as escapes: every byte of
            // them must survive a write and a parse.
            let text: String = picks.iter().map(|&i| PIECES[i]).collect();
            let written = to_string(&Value::Str(Cow::Borrowed(&text)));
            proptest::prop_assert_eq!(parse(&written), Ok(Value::Str(Cow::Borrowed(&text))));
        }
    }

    #[test]
    fn string_errors_keep_their_messages_and_offsets() {
        for (input, message) in [
            (r#"{"a":"xyz"#, "unterminated string"),
            (r#"{"a":"é\"#, "bad escape at byte 9"),
            (r#"{"a":"\q"}"#, "bad escape at byte 7"),
            (r#"{"a":"\u12"}"#, "bad \\u escape"),
            (r#"{"a":"\u12"#, "truncated \\u escape"),
            (r#"{"a":"\uzzzz"}"#, "bad \\u escape"),
            (r#"{"a":"\ud83d\u00"#, "truncated \\u escape"),
            (r#"{"a" "b"}"#, "expected `:` at byte 5"),
            (r#"{a:1}"#, "expected `\"` at byte 1"),
        ] {
            assert_eq!(parse(input), Err(message.to_owned()), "{input}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_do_not() {
        let decoded = |text: &str| parse(text).map(|v| v.as_str().map(str::to_owned));
        assert_eq!(decoded(r#""😀""#), Ok(Some("😀".to_owned())));
        assert_eq!(decoded(r#""x😀y""#), Ok(Some("x😀y".to_owned())));
        // A lone half, either way round.
        assert_eq!(decoded(r#""\ud83d""#), Ok(Some("\u{fffd}".to_owned())));
        assert_eq!(decoded(r#""\ude00x""#), Ok(Some("\u{fffd}x".to_owned())));
        assert_eq!(decoded(r#""\ud83dA""#), Ok(Some("\u{fffd}A".to_owned())));
        // Reversed: each half alone.
        assert_eq!(
            decoded(r#""\ude00\ud83d""#),
            Ok(Some("\u{fffd}\u{fffd}".to_owned()))
        );
    }

    #[test]
    fn strings_without_escapes_borrow_from_the_input() {
        let line = r#"{"cmd":"stats","tenant":"a\"b"}"#;
        let doc = parse(line).unwrap();
        let members = doc.as_obj().unwrap();
        assert!(members
            .iter()
            .all(|(key, _)| matches!(key, Cow::Borrowed(_))));
        assert!(matches!(
            doc.get("cmd"),
            Some(Value::Str(Cow::Borrowed("stats")))
        ));
        assert!(matches!(doc.get("tenant"), Some(Value::Str(Cow::Owned(s))) if s == "a\"b"));
    }

    #[test]
    fn a_long_string_member_parses_in_linear_time() {
        // 4 MiB of text with an escape and a multi-byte character in
        // every 4 KiB. The character-at-a-time reader revalidated the
        // rest of the input per character: hours at this size in a
        // debug build.
        let chunk = format!("{}\\n\\u00e9☃", "x".repeat(4096 - 11));
        let body = chunk.repeat(1024);
        let line = format!(r#"{{"n":1,"pad":"{body}"}}"#);
        let started = std::time::Instant::now();
        let doc = parse(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            doc.get_str("pad").map(str::len),
            Some((4096 - 11 + 6) * 1024)
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "4 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn unsigned_integers_write_as_display_does() {
        for x in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(to_string(&Json::Uint(x)), x.to_string());
        }
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ☃"));
    }

    #[test]
    fn objects_keep_member_order_and_read_the_last_duplicate() {
        let doc = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(doc.get_u64("b"), Some(3));
        assert_eq!(to_string(&doc), r#"{"b":1,"a":2,"b":3}"#);
        let mut built = Json::obj([("z", Json::from(1u64)), ("a", Json::from("x"))]);
        built.push("m", Json::Null);
        assert_eq!(to_string(&built), r#"{"z":1,"a":"x","m":null}"#);
        assert_eq!(built.need("a", Json::as_u64), Err("missing `a`".to_owned()));
    }

    #[test]
    fn integral_and_non_finite_numbers_round_trip_as_bytes_not_values() {
        for (value, text, back) in [
            (Json::Num(1.0), "1", Json::Uint(1)),
            (Json::Num(f64::NAN), "null", Json::Null),
            (Json::Num(-0.5), "-0.5", Json::Num(-0.5)),
        ] {
            assert_eq!(to_string(&value), text);
            assert_eq!(parse(text).unwrap(), back);
        }
    }
}
