//! The token rules: float-eq and bad-suppression.
//!
//! Both work on the token stream of one [`SourceFile`], with no type
//! information. The concurrency rules live in the private
//! `concurrency` module. Every other determinism and numeric check is
//! a clippy lint in the workspace `[lints]` table.

use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};

/// Every rule id, the names `// dut-lint: allow(<rule>)` accepts.
pub const RULES: &[&str] = &[
    "float-eq",
    "lock-order",
    "guarded-by",
    "check-then-act",
    "atomic-rmw",
    "bad-suppression",
];

/// Outcome of checking one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified suppression.
    pub suppressed: usize,
}

/// Runs the token rules on `file`, returning raw (pre-dedup,
/// pre-suppression) findings. [`crate::lint_files`] adds the
/// concurrency rules and applies suppressions.
#[must_use]
pub(crate) fn raw_findings(file: &SourceFile) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    if file.kind == FileKind::Excluded {
        return raw;
    }
    if file.kind == FileKind::Library {
        float_eq(file, &mut raw);
    }

    // Malformed suppressions are findings themselves and cannot be
    // suppressed.
    for (line, problem) in &file.malformed {
        raw.push(Finding::new(
            &file.path,
            *line,
            "bad-suppression",
            problem.clone(),
            "syntax: `// dut-lint: allow(<rule>): <reason>` or `// dut-lint: guarded_by(<lock>)`",
        ));
    }
    raw
}

/// float-eq: `==`/`!=` with a float literal or an `f64::`/`f32::`
/// constant on either side, in library code outside tests. Clippy's
/// `float_cmp` skips comparisons with `0.0` and the infinities, which
/// are exactly the degenerate-mass checks this rule exists for.
fn float_eq(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if (token.is_punct("==") || token.is_punct("!="))
            && !file.is_test_line(token.line)
            && float_operand(tokens, i)
        {
            out.push(Finding::new(
                &file.path,
                token.line,
                "float-eq",
                format!("float compared with `{}`", token.text),
                "compare with an epsilon, a non-equality bound (`<= 0.0`), or f64::total_cmp",
            ));
        }
    }
}

/// Whether either operand of the comparison at `i` is a float literal
/// or an `f64::`/`f32::` associated constant. (Comparisons between two
/// float *variables* are invisible to a lexer; clippy's `float_cmp`
/// covers those.)
fn float_operand(tokens: &[Token], i: usize) -> bool {
    if i > 0 && tokens[i - 1].kind == TokenKind::Float {
        return true;
    }
    match tokens.get(i + 1) {
        Some(t) if t.kind == TokenKind::Float => true,
        // `== -1.0`
        Some(t) if t.is_punct("-") => {
            matches!(tokens.get(i + 2), Some(t) if t.kind == TokenKind::Float)
        }
        // `== f64::INFINITY`
        Some(t) if t.is_ident("f64") || t.is_ident("f32") => {
            matches!(tokens.get(i + 2), Some(t) if t.is_punct("::"))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> FileOutcome {
        crate::check_file(&SourceFile::parse(path, src))
    }

    fn rule_ids(outcome: &FileOutcome) -> Vec<&'static str> {
        outcome.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn detects_float_eq_variants() {
        let out = lint(
            "crates/x/src/lib.rs",
            "fn f(v: f64) -> bool { v == 0.0 || 1.0 != v || v == -2.5 || v == f64::INFINITY }",
        );
        assert_eq!(out.findings.len(), 1, "deduped per line");
        let out = lint(
            "crates/x/src/lib.rs",
            "fn f(v: f64) -> bool {\n v == 0.0\n}",
        );
        assert_eq!(rule_ids(&out), vec!["float-eq"]);
    }

    #[test]
    fn integer_eq_is_fine() {
        let out = lint("crates/x/src/lib.rs", "fn f(v: u64) -> bool { v == 0 }");
        assert!(out.findings.is_empty());
    }

    #[test]
    fn float_eq_only_in_library_code_outside_tests() {
        let src = "fn f(v: f64) -> bool { v == 0.0 }";
        assert!(lint("src/bin/dut.rs", src).findings.is_empty());
        assert!(lint("crates/bench/src/lib.rs", src).findings.is_empty());
        let test_src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(0.5 * 2.0 == 1.0); }
}
";
        assert!(lint("crates/x/src/lib.rs", test_src).findings.is_empty());
    }

    #[test]
    fn suppression_silences_and_counts() {
        let src = "\
// dut-lint: allow(float-eq): boolean-valued table entries are exact
fn f(v: f64) -> bool { v == 1.0 }
";
        let out = lint("crates/x/src/lib.rs", src);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn reasonless_suppression_reports_and_does_not_silence() {
        let src = "fn f(v: f64) -> bool { v == 1.0 } // dut-lint: allow(float-eq)\n";
        let out = lint("crates/x/src/lib.rs", src);
        let ids = rule_ids(&out);
        assert!(ids.contains(&"bad-suppression"));
        assert!(ids.contains(&"float-eq"));
    }

    #[test]
    fn suppressing_an_unknown_rule_is_a_finding() {
        // `dut lint` has no `unwrap` rule (clippy's `unwrap_used` checks
        // unwraps), so this marker would silence nothing.
        let src = "// dut-lint: allow(unwrap): always present\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let out = lint("crates/x/src/lib.rs", src);
        assert_eq!(rule_ids(&out), vec!["bad-suppression"]);
        assert!(out.findings[0].message.contains("unknown rule"));
    }
}
