//! Minimal JSON reading and writing.
//!
//! The workspace has no serde; this module is its one JSON reader and
//! writer. Every artifact — trace events, the serve wire, the stats
//! and flight replies, arrival traces, the fuzz corpus, the lint
//! findings and baseline — is built as a [`Json`] value and rendered
//! by [`write()`] (or [`write_pretty`]), and read back by [`parse`], a
//! recursive-descent parser that accepts objects, arrays, strings,
//! finite numbers, bools and null and rejects anything malformed with
//! a positioned error.

use std::borrow::Cow;
use std::fmt::Write as _;

/// An object key or string value: static names borrow, so building a
/// reply from field names allocates nothing for them; parsed text owns.
pub type Text = Cow<'static, str>;

/// A JSON value.
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
    /// 2^53). Non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(Text),
    /// An array.
    Arr(Vec<Json>),
    /// An object: members in insertion order, which is the order
    /// [`write()`] emits. Duplicate keys are kept; [`Json::get`] reads
    /// the last one.
    Obj(Vec<(Text, Json)>),
}

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
    pub fn push(&mut self, key: impl Into<Text>, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            members.push((key.into(), value.into()));
        }
    }

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

    /// The value as `bool`, if a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(Text, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
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

    /// Looks up a key, if this is an object. With duplicate keys the
    /// last one wins, as it would in a map filled in document order.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .rev()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The member `key` as `u64`, if present and a non-negative integer.
    #[must_use]
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// The member `key` as `f64`, if present and numeric.
    #[must_use]
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// The member `key` as `&str`, if present and a string.
    #[must_use]
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// The member `key` as `bool`, if present and a boolean.
    #[must_use]
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }

    /// The member `key` read by `read` (e.g. [`Json::as_u64`]).
    ///
    /// # Errors
    ///
    /// ``missing `key` `` when it is absent or `read` rejects it.
    pub fn need<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing `{key}`"))
    }
}

/// The compact serialization of `node` as a new string.
#[must_use]
pub fn to_string(node: &Json) -> String {
    let mut out = String::new();
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
pub fn write(out: &mut String, node: &Json) {
    write_with(out, node, ",", ":");
}

/// Appends `doc`, an object, one member per line with a two-space
/// indent, and the array member named `rows` one element per line with
/// a four-space indent. Every other value is written compactly with
/// `", "` and `": "` separators. The lint findings document and
/// baseline use this layout so that a diff reads one finding per line.
/// A `doc` that is not an object is written compactly.
pub fn write_pretty(out: &mut String, doc: &Json, rows: &str) {
    let Json::Obj(members) = doc else {
        write_with(out, doc, ", ", ": ");
        return;
    };
    out.push('{');
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        write_escaped(out, key);
        out.push_str(": ");
        match value {
            Json::Arr(items) if key == rows => {
                out.push('[');
                for (j, item) in items.iter().enumerate() {
                    out.push_str(if j == 0 { "\n    " } else { ",\n    " });
                    write_with(out, item, ", ", ": ");
                }
                out.push_str("\n  ]");
            }
            _ => write_with(out, value, ", ", ": "),
        }
    }
    out.push_str("\n}");
}

fn write_with(out: &mut String, node: &Json, comma: &str, colon: &str) {
    match node {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Uint(x) => {
            let _ = write!(out, "{x}");
        }
        Json::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(comma);
                }
                write_with(out, item, comma, colon);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(comma);
                }
                write_escaped(out, key);
                out.push_str(colon);
                write_with(out, value, comma, colon);
            }
            out.push('}');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
            Some(b'"') => Ok(Json::Str(Cow::Owned(self.string()?))),
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
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((Cow::Owned(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
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

    #[test]
    fn pretty_layout_lists_rows_one_per_line() {
        let doc = Json::obj([
            ("schema", Json::from("s")),
            ("ids", Json::Arr(vec![Json::from("a"), Json::from("b")])),
            (
                "rows",
                Json::Arr(vec![Json::obj([
                    ("k", Json::from(1u64)),
                    ("v", true.into()),
                ])]),
            ),
        ]);
        let mut out = String::new();
        write_pretty(&mut out, &doc, "rows");
        assert_eq!(
            out,
            "{\n  \"schema\": \"s\",\n  \"ids\": [\"a\", \"b\"],\n  \"rows\": [\n    {\"k\": 1, \"v\": true}\n  ]\n}"
        );
        let empty = Json::obj([("rows", Json::Arr(Vec::new()))]);
        out.clear();
        write_pretty(&mut out, &empty, "rows");
        assert_eq!(out, "{\n  \"rows\": [\n  ]\n}");
    }
}
