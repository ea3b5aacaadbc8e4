//! `dut-analyze`: workspace static analysis for the distributed
//! uniformity testing repo (the `dut lint` subcommand).
//!
//! Every claim this repo makes about the Meir–Minzer–Oshman bounds
//! rests on simulations being reproducible and numerically sound: an
//! unseeded RNG, a `HashMap`-ordered reduction, or a float `==` in a
//! verdict path silently invalidates a scaling-law fit. This crate
//! enforces those invariants mechanically, on every commit:
//!
//! * **determinism** — no OS entropy (`thread_rng`, `from_entropy`),
//!   no wall-clock branching (`SystemTime::now`), no randomized
//!   iteration order (`HashMap`/`HashSet`) in non-test code;
//! * **numeric soundness** — no float `==`/`!=` against literals, no
//!   `partial_cmp` (use `total_cmp`), no silent float→int `as` casts
//!   in probability/stats, no `.unwrap()`/`.expect()` in library code;
//! * **structure** — every bench experiment emits a dut-obs run
//!   manifest; library crates never print (output goes through obs or
//!   returned values);
//! * **concurrency** — no opposite-order nested lock acquisitions
//!   anywhere in the workspace (`lock-order`), writes to
//!   `guarded_by`-annotated symbols only while the named guard is
//!   live (`guarded-by`), no presence check in one lock region acted
//!   on in another (`check-then-act`), and no atomic load→store
//!   read-modify-write (`atomic-rmw`).
//!
//! The environment is offline, so there is no `syn`: analysis runs on
//! a small comment- and string-aware lexer ([`lexer`]), with a
//! brace/statement tree ([`tree`]) and a lock-region model ([`locks`])
//! layered on top for the concurrency pass. Rules are heuristic where
//! a lexer must be (see each rule's docs); the workspace `[lints]`
//! table promotes the matching clippy lints (`float_cmp`,
//! `unwrap_used`, `cast_possible_truncation`) to deny so the
//! type-aware and token-aware passes agree.
//!
//! Findings print as `file:line: [rule] message` plus a fix hint, and
//! any unsuppressed finding makes `dut lint` exit nonzero; `--format
//! json` emits the same findings machine-readably with stable ids,
//! and `--baseline analyze-baseline.json` ratchets pre-existing debt
//! (see [`baseline`]). Justified exceptions are annotated inline:
//!
//! ```text
//! // dut-lint: allow(float-eq): boolean tables hold exact 0.0/1.0
//! ```
//!
//! The reason after the `:` is mandatory — a reasonless suppression is
//! itself a finding (`bad-suppression`). The concurrency pass's data
//! annotations use the same marker:
//!
//! ```text
//! // dut-lint: guarded_by(queue)
//! ServeQueueDepth,
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tests assert exact constructed values and index with small literals.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]

pub mod baseline;
mod concurrency;
pub mod findings;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod source;
pub mod tree;
pub mod walk;

pub use findings::{Finding, Report};
pub use rules::{FileOutcome, RuleInfo, RULES};
pub use source::{classify, FileKind, GuardedBy, SourceFile};

use std::path::Path;

/// Lints a set of parsed files as one workspace: per-file token and
/// concurrency rules, then the cross-file lock-order pass, then id
/// assignment. This is the core the CLI, the single-file helpers, and
/// the tests all share.
#[must_use]
pub fn lint_files(files: &[SourceFile]) -> Report {
    // Pass 1: collect every guarded_by annotation (they scope
    // cross-file for uppercase symbols).
    let annotations: Vec<concurrency::Annotated> = files
        .iter()
        .filter(|f| f.kind != FileKind::Excluded)
        .flat_map(|f| {
            f.annotations.iter().map(|ann| concurrency::Annotated {
                path: f.path.clone(),
                ann: ann.clone(),
            })
        })
        .collect();

    // Pass 2: per-file rules, accumulating lock-order edges.
    let mut report = Report::default();
    let mut edges: Vec<concurrency::WorkspaceEdge> = Vec::new();
    for file in files {
        if file.kind == FileKind::Excluded {
            continue;
        }
        report.files_checked += 1;
        let mut raw = rules::raw_findings(file);
        let (conc, mut file_edges) = concurrency::file_findings(file, &annotations);
        raw.extend(conc);
        edges.append(&mut file_edges);
        absorb(&mut report, file, raw);
    }

    // Pass 3: the workspace-level lock-order graph.
    let lock_order = concurrency::lock_order_findings(&edges);
    for finding in lock_order {
        let file = files.iter().find(|f| f.path == finding.path);
        match file {
            Some(f) if f.is_suppressed(finding.rule, finding.line) => report.suppressed += 1,
            _ => report.findings.push(finding),
        }
    }

    report.finalize();
    report
}

/// Dedups one file's raw findings per (rule, line) and routes them
/// through its suppressions into the report.
fn absorb(report: &mut Report, file: &SourceFile, mut raw: Vec<Finding>) {
    raw.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    for f in raw {
        if f.rule != "bad-suppression" && file.is_suppressed(f.rule, f.line) {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }
}

/// Runs every applicable rule on one file (including the concurrency
/// rules, with the file's own annotations in scope).
#[must_use]
pub fn check_file(file: &SourceFile) -> FileOutcome {
    let report = lint_files(std::slice::from_ref(file));
    FileOutcome {
        findings: report.findings,
        suppressed: report.suppressed,
    }
}

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or a source file
/// cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    Ok(lint_files(&load_workspace(root)?))
}

/// Reads and parses every lintable file under `root`.
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or a source file
/// cannot be read.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let paths =
        walk::rust_files(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let mut files = Vec::new();
    for relative in paths {
        let path_text = relative.to_string_lossy().replace('\\', "/");
        if classify(&path_text) == FileKind::Excluded {
            continue;
        }
        let absolute = root.join(&relative);
        let source = std::fs::read_to_string(&absolute)
            .map_err(|e| format!("cannot read {}: {e}", absolute.display()))?;
        files.push(SourceFile::parse(&path_text, &source));
    }
    Ok(files)
}

/// Lints a single in-memory source, as the fixture tests do.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> FileOutcome {
    check_file(&SourceFile::parse(path, source))
}

/// Lints several in-memory sources as one workspace — the cross-file
/// rules (lock-order, uppercase guarded-by symbols) see all of them.
#[must_use]
pub fn lint_sources(sources: &[(&str, &str)]) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();
    lint_files(&files)
}

/// One `// dut-lint: allow(...)` occurrence, for `--list-suppressions`.
#[derive(Debug, Clone)]
pub struct SuppressionRecord {
    /// Workspace-relative path.
    pub path: String,
    /// Line the comment sits on.
    pub line: u32,
    /// The suppressed rule.
    pub rule: String,
    /// The stated reason.
    pub reason: String,
}

/// Collects every suppression in the workspace, for audit.
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or read.
pub fn list_suppressions(root: &Path) -> Result<Vec<SuppressionRecord>, String> {
    let files = load_workspace(root)?;
    let mut out = Vec::new();
    for file in &files {
        for s in &file.suppressions {
            out.push(SuppressionRecord {
                path: file.path.clone(),
                line: s.comment_line,
                rule: s.rule.clone(),
                reason: s.reason.clone(),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(out)
}

/// Renders the rule table (for `dut lint --rules`).
#[must_use]
pub fn rules_table() -> String {
    use std::fmt::Write;
    let mut out = String::from("rule                   family        summary\n");
    for rule in RULES {
        let _ = writeln!(out, "{:<22} {:<13} {}", rule.id, rule.family, rule.summary);
    }
    out
}

/// Renders a report as the machine-readable findings document
/// (`dut lint --format json`, schema `dut-analyze-findings/v1`).
#[must_use]
pub fn render_report_json(report: &Report) -> String {
    use dut_obs::json::{self, Json};
    let stale = report.stale_baseline.iter().map(|id| id.clone().into());
    let rows = report.findings.iter().map(|f| {
        let mut row = baseline::finding_json(f);
        row.push("hint", f.hint);
        row
    });
    let doc = Json::obj([
        ("schema", "dut-analyze-findings/v1".into()),
        ("files_checked", report.files_checked.into()),
        ("suppressed", report.suppressed.into()),
        ("baselined", report.baselined.into()),
        ("stale_baseline", Json::Arr(stale.collect())),
        ("clean", report.is_clean().into()),
        ("findings", Json::Arr(rows.collect())),
    ]);
    let mut out = String::new();
    json::write_pretty(&mut out, &doc, "findings");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_table_lists_every_rule() {
        let table = rules_table();
        for rule in RULES {
            assert!(table.contains(rule.id), "missing {}", rule.id);
        }
    }

    #[test]
    fn cross_file_guarded_by_is_enforced_via_lint_sources() {
        let decl = "\
pub enum Gauge {
    // dut-lint: guarded_by(queue)
    ServeQueueDepth,
}
";
        let misuse = "\
fn f(shared: &S, registry: &R) {
    let queue = shared.lock_queue();
    drop(queue);
    registry.set_gauge(Gauge::ServeQueueDepth, 0);
}
";
        let report = lint_sources(&[
            ("crates/obs/src/metrics.rs", decl),
            ("crates/serve/src/server.rs", misuse),
        ]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "guarded-by");
        assert_eq!(report.findings[0].path, "crates/serve/src/server.rs");
        assert!(!report.findings[0].id.is_empty());
    }

    #[test]
    fn findings_documents_keep_their_bytes() {
        let finding = |path: &str, line, rule, message: &str, hint, id: &str| {
            let mut f = Finding::new(path, line, rule, message.to_owned(), hint);
            f.id = id.to_owned();
            f
        };
        let findings = vec![
            finding(
                "crates/x/src/lib.rs",
                3,
                "unwrap",
                "`.unwrap()` \"quoted\"",
                "use ? \\ instead",
                "aaaa",
            ),
            finding(
                "crates/y/src/a b.rs",
                9,
                "float-eq",
                "msg\twith tab é",
                "h",
                "bbbb",
            ),
        ];
        let expected = [
            r#"{"#,
            r#"  "schema": "dut-analyze-baseline/v1","#,
            r#"  "findings": ["#,
            r#"    {"id": "aaaa", "rule": "unwrap", "path": "crates/x/src/lib.rs", "line": 3, "message": "`.unwrap()` \"quoted\""},"#,
            r#"    {"id": "bbbb", "rule": "float-eq", "path": "crates/y/src/a b.rs", "line": 9, "message": "msg\twith tab é"}"#,
            r#"  ]"#,
            r#"}"#,
        ]
        .join("\n");
        assert_eq!(baseline::render(&findings), expected);
        let empty = [
            r#"{"#,
            r#"  "schema": "dut-analyze-baseline/v1","#,
            r#"  "findings": ["#,
            r#"  ]"#,
            r#"}"#,
        ]
        .join("\n");
        assert_eq!(baseline::render(&[]), empty);
        let report = Report {
            findings,
            files_checked: 12,
            suppressed: 3,
            baselined: 1,
            stale_baseline: vec!["cccc".to_owned(), "dd\"d".to_owned()],
        };
        let expected = [
            r#"{"#,
            r#"  "schema": "dut-analyze-findings/v1","#,
            r#"  "files_checked": 12,"#,
            r#"  "suppressed": 3,"#,
            r#"  "baselined": 1,"#,
            r#"  "stale_baseline": ["cccc", "dd\"d"],"#,
            r#"  "clean": false,"#,
            r#"  "findings": ["#,
            r#"    {"id": "aaaa", "rule": "unwrap", "path": "crates/x/src/lib.rs", "line": 3, "message": "`.unwrap()` \"quoted\"", "hint": "use ? \\ instead"},"#,
            r#"    {"id": "bbbb", "rule": "float-eq", "path": "crates/y/src/a b.rs", "line": 9, "message": "msg\twith tab é", "hint": "h"}"#,
            r#"  ]"#,
            r#"}"#,
        ]
        .join("\n");
        assert_eq!(render_report_json(&report), expected);
        let empty = [
            r#"{"#,
            r#"  "schema": "dut-analyze-findings/v1","#,
            r#"  "files_checked": 0,"#,
            r#"  "suppressed": 0,"#,
            r#"  "baselined": 0,"#,
            r#"  "stale_baseline": [],"#,
            r#"  "clean": true,"#,
            r#"  "findings": ["#,
            r#"  ]"#,
            r#"}"#,
        ]
        .join("\n");
        assert_eq!(render_report_json(&Report::default()), empty);
    }

    #[test]
    fn json_report_parses_back() {
        use dut_obs::json::Json;
        let report = lint_sources(&[(
            "crates/x/src/lib.rs",
            "fn f(o: Option<u8>) -> u8 { o.unwrap() }",
        )]);
        let doc = dut_obs::json::parse(&render_report_json(&report)).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("dut-analyze-findings/v1")
        );
        let findings = doc
            .get("findings")
            .and_then(Json::as_arr)
            .expect("findings");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(Json::as_str),
            Some("unwrap")
        );
    }
}
