//! `dut-analyze`: the `dut lint` checks that clippy cannot express.
//!
//! Every claim this repo makes about the Meir–Minzer–Oshman bounds
//! rests on simulations being reproducible and numerically sound. The
//! workspace `[lints]` table and `clippy.toml` enforce most of that
//! (no wall clock, no hash-ordered collections, no `partial_cmp`, no
//! lossy casts, no `.unwrap()`/`.expect()` or printing in library
//! code, and a reason on every `#[allow]`). This crate checks the rest:
//!
//! * **float-eq** — no `==`/`!=` against a float literal or an
//!   `f64::` constant in library code. Clippy's `float_cmp` skips
//!   comparisons with `0.0` and the infinities;
//! * **concurrency** — no opposite-order nested lock acquisitions
//!   anywhere in the workspace (`lock-order`), writes to
//!   `guarded_by`-annotated symbols only while the named guard is
//!   live (`guarded-by`), no presence check in one lock region acted
//!   on in another (`check-then-act`), and no atomic load→store
//!   read-modify-write (`atomic-rmw`);
//! * **bad-suppression** — every `// dut-lint:` marker parses, names
//!   one of these rules, and carries a reason.
//!
//! The environment is offline, so there is no `syn`: analysis runs on
//! a small comment- and string-aware lexer ([`lexer`]), with a
//! brace/statement tree ([`tree`]) and a lock-region model ([`locks`])
//! layered on top for the concurrency pass.
//!
//! Findings print as `file:line: [rule] message` plus a fix hint, and
//! any unsuppressed finding makes `dut lint` exit nonzero. Justified
//! exceptions are annotated inline:
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
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact constructed values and index with small literals"
    )
)]

mod concurrency;
pub mod findings;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod source;
pub mod tree;
pub mod walk;

pub use findings::{Finding, Report};
pub use rules::{FileOutcome, RULES};
pub use source::{classify, FileKind, GuardedBy, SourceFile};

use std::path::Path;

/// Lints a set of parsed files as one workspace: per-file token and
/// concurrency rules, then the cross-file lock-order pass. This is the
/// core the CLI, the single-file helpers, and the tests all share.
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

    report.sort();
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

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
