//! The committed findings baseline: ratchet, don't block.
//!
//! `analyze-baseline.json` (schema [`SCHEMA`]) freezes the set of
//! findings that existed when a rule was introduced or tightened.
//! CI runs `dut lint --baseline analyze-baseline.json`: baselined
//! findings pass, **new** findings fail, and baseline entries that no
//! longer match anything also fail (the file must be regenerated with
//! `--write-baseline` so the debt count only moves down). Matching is
//! by stable finding id (see [`crate::findings::Finding::id`]); the
//! rule/path/line/message fields are carried for human review of the
//! diff, not for matching.

use crate::findings::Finding;
use crate::quoted;
use dut_obs::json::{self, Json};
use std::fmt::Write as _;

/// Schema tag of the baseline file.
pub const SCHEMA: &str = "dut-analyze-baseline/v1";

/// One baselined finding.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Stable finding id (the matching key).
    pub id: String,
    /// Rule id, for review only.
    pub rule: String,
    /// Path at capture time, for review only.
    pub path: String,
    /// Line at capture time, for review only.
    pub line: u32,
    /// Message at capture time, for review only.
    pub message: String,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// The ids, in file order.
    #[must_use]
    pub fn ids(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.id.clone()).collect()
    }
}

/// Parses a baseline document, validating the schema tag.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(format!(
            "baseline schema is `{schema}`, expected `{SCHEMA}` — regenerate with `dut lint --write-baseline`"
        ));
    }
    let mut entries = Vec::new();
    for item in doc.get("findings").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |k: &str| item.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let id = field("id");
        if id.is_empty() {
            return Err("baseline entry is missing its `id`".to_owned());
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let line = item.get("line").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        entries.push(BaselineEntry {
            id,
            rule: field("rule"),
            path: field("path"),
            line,
            message: field("message"),
        });
    }
    Ok(Baseline { entries })
}

/// Renders `findings` as a baseline document: one entry per line so
/// ratchet diffs review as deletions.
#[must_use]
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {},", quoted(SCHEMA));
    let _ = writeln!(out, "  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}{comma}",
            quoted(&f.id),
            quoted(f.rule),
            quoted(&f.path),
            f.line,
            quoted(&f.message),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(id: &str, rule: &'static str, line: u32) -> Finding {
        let mut f = Finding::new("crates/x/src/lib.rs", line, rule, "msg".to_owned(), "h");
        f.id = id.to_owned();
        f
    }

    #[test]
    fn render_parse_round_trip() {
        let findings = vec![finding("aaaa", "unwrap", 3), finding("bbbb", "float-eq", 9)];
        let text = render(&findings);
        let baseline = parse(&text).expect("parse");
        assert_eq!(baseline.ids(), vec!["aaaa".to_owned(), "bbbb".to_owned()]);
        assert_eq!(baseline.entries[1].rule, "float-eq");
        assert_eq!(baseline.entries[1].line, 9);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = "{\"schema\": \"something/v9\", \"findings\": []}";
        assert!(parse(text).is_err());
    }

    #[test]
    fn empty_baseline_is_valid() {
        let text = render(&[]);
        assert!(parse(text.as_str()).expect("parse").entries.is_empty());
    }
}
