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
use dut_obs::json::{self, Json};

/// Schema tag of the baseline file.
pub const SCHEMA: &str = "dut-analyze-baseline/v1";

/// One baselined finding.
#[derive(Debug, Clone, PartialEq)]
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
    let schema = doc.get_str("schema").unwrap_or("");
    if schema != SCHEMA {
        return Err(format!(
            "baseline schema is `{schema}`, expected `{SCHEMA}` — regenerate with `dut lint --write-baseline`"
        ));
    }
    let mut entries = Vec::new();
    for item in doc.get("findings").and_then(Json::as_arr).unwrap_or(&[]) {
        let text = |k: &str| item.get_str(k).unwrap_or("").to_owned();
        let id = text("id");
        if id.is_empty() {
            return Err("baseline entry is missing its `id`".to_owned());
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let line = item.get_f64("line").unwrap_or(0.0) as u32;
        entries.push(BaselineEntry {
            id,
            rule: text("rule"),
            path: text("path"),
            line,
            message: text("message"),
        });
    }
    Ok(Baseline { entries })
}

/// Renders `findings` as a baseline document: one entry per line so
/// ratchet diffs review as deletions.
#[must_use]
pub fn render(findings: &[Finding]) -> String {
    let rows = findings.iter().map(finding_json);
    let doc = Json::obj([
        ("schema", SCHEMA.into()),
        ("findings", Json::Arr(rows.collect())),
    ]);
    let mut out = String::new();
    json::write_pretty(&mut out, &doc, "findings");
    out
}

/// A finding's id, rule, path, line and message, in file order.
pub(crate) fn finding_json(f: &Finding) -> Json {
    Json::obj([
        ("id", f.id.clone().into()),
        ("rule", f.rule.into()),
        ("path", f.path.clone().into()),
        ("line", f.line.into()),
        ("message", f.message.clone().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_schema_is_rejected() {
        let text = "{\"schema\": \"something/v9\", \"findings\": []}";
        assert!(parse(text).is_err());
    }
}
