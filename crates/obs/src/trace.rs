//! Trace events and spans.

use crate::json::{self, Json};
use std::borrow::Cow;

/// One structured trace event.
///
/// Serialized as a single JSON Lines record:
/// `{"event":"<name>","ts_us":<t>,<fields...>}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event type name (e.g. `"span"`, `"probe"`, `"manifest"`).
    pub name: &'static str,
    /// Microseconds since the recorder's epoch (set at emit time).
    pub ts_micros: u64,
    /// Ordered key/value fields.
    pub fields: Vec<(&'static str, Json)>,
}

impl Event {
    /// A new event with no fields (timestamp is set by the recorder).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            ts_micros: 0,
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Looks up a field by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields
            .iter()
            .find_map(|(k, v)| (*k == key).then_some(v))
    }

    /// The event as one JSON object: `event` and `ts_us`, then the
    /// fields in order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let head = [
            ("event", Json::from(self.name)),
            ("ts_us", self.ts_micros.into()),
        ];
        let fields = self.fields.iter().map(|(k, v)| (*k, v.clone()));
        Json::Obj(
            head.into_iter()
                .chain(fields)
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Serializes to one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        json::to_string(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn event_serializes_to_parseable_json() {
        let e = Event {
            ts_micros: 17,
            ..Event::new("probe")
        }
        .with("value", 64u64)
        .with("sufficient", true)
        .with("rate", 0.625)
        .with("rule", "and")
        .with("cfg", Json::obj([("n", 8u64.into())]));
        let line = e.to_json_line();
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("event").and_then(Value::as_str), Some("probe"));
        assert_eq!(parsed.get("ts_us").and_then(Value::as_u64), Some(17));
        assert_eq!(parsed.get("value").and_then(Value::as_u64), Some(64));
        assert_eq!(parsed.get("sufficient"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("rate").and_then(Value::as_f64), Some(0.625));
        assert_eq!(
            parsed
                .get("cfg")
                .and_then(|c| c.get("n"))
                .and_then(Value::as_u64),
            Some(8)
        );
    }

    #[test]
    fn every_field_type_renders_as_before() {
        let e = Event {
            ts_micros: 17,
            ..Event::new("probe")
        }
        .with("u", 64u64)
        .with("us", 7usize)
        .with("u32", 9u32)
        .with("f_int", 1.0)
        .with("f", 0.625)
        .with("f_neg", -2.5e-7)
        .with("f_big", 1e300)
        .with("nan", f64::NAN)
        .with("inf", f64::INFINITY)
        .with("b", true)
        .with("b2", false)
        .with("s", "a\"b\\c\nd\te\u{1}f é☃")
        .with("owned", String::from("x"))
        .with(
            "cfg",
            Json::obj([
                ("n", 8u64.into()),
                ("xs", Json::Arr(vec![1u64.into(), 2.5.into(), Json::Null])),
                ("o", Json::obj([])),
            ]),
        );
        let big = format!("1{}", "0".repeat(300));
        assert_eq!(
            e.to_json_line(),
            format!(
                "{{\"event\":\"probe\",\"ts_us\":17,\"u\":64,\"us\":7,\"u32\":9,\"f_int\":1,\
                 \"f\":0.625,\"f_neg\":-0.00000025,\"f_big\":{big},\"nan\":null,\"inf\":null,\
                 \"b\":true,\"b2\":false,\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f é☃\",\
                 \"owned\":\"x\",\"cfg\":{{\"n\":8,\"xs\":[1,2.5,null],\"o\":{{}}}}}}"
            )
        );
    }

    #[test]
    fn field_lookup() {
        let e = Event::new("x").with("a", 1u64);
        assert_eq!(e.field("a"), Some(&Json::Uint(1)));
        assert_eq!(e.field("b"), None);
    }
}
