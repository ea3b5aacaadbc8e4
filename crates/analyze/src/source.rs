//! Per-file analysis context: path classification, `#[cfg(test)]`
//! region detection, and `// dut-lint: allow(...)` suppressions.

use crate::lexer::{lex, Lexed, LineComment, Token, TokenKind};
use crate::rules::RULES;
use std::collections::BTreeSet;

/// What kind of code a file holds; rules scope themselves by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A library crate source file (`crates/*/src/**`, root `src/`).
    /// Every rule applies.
    Library,
    /// A binary or the bench harness (`src/bin/**`,
    /// `crates/bench/**`): only the concurrency rules apply.
    Binary,
    /// Integration tests, fixtures, vendored shims, build output —
    /// not linted.
    Excluded,
}

/// Classifies `path` (workspace-relative, `/`-separated) into a
/// [`FileKind`].
#[must_use]
pub fn classify(path: &str) -> FileKind {
    let normalized = path.replace('\\', "/");
    let p = normalized.trim_start_matches("./");
    if !p.ends_with(".rs") {
        return FileKind::Excluded;
    }
    let in_any = |dir: &str| p.starts_with(&format!("{dir}/")) || p.contains(&format!("/{dir}/"));
    if in_any("vendor") || in_any("target") || in_any("tests") || in_any("examples") {
        return FileKind::Excluded;
    }
    if p.starts_with("crates/bench/") || in_any("bin") {
        return FileKind::Binary;
    }
    if p.starts_with("crates/") || p.starts_with("src/") {
        return FileKind::Library;
    }
    FileKind::Excluded
}

/// A parsed `// dut-lint: allow(<rule>): <reason>` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory justification (may be empty — then reported).
    pub reason: String,
    /// Line whose findings it suppresses (the same line for trailing
    /// comments, the next code line for standalone ones).
    pub target_line: u32,
}

/// A parsed `// dut-lint: guarded_by(<lock>)` annotation: the
/// symbol declared on the target line may only be written while a
/// guard of `lock` is live (the `guarded-by` rule).
#[derive(Debug, Clone)]
pub struct GuardedBy {
    /// The lock whose guard must be held.
    pub lock: String,
    /// The annotated symbol: the first identifier on the target line
    /// after declaration keywords (`pub`, `static`, `let`, …).
    pub symbol: String,
    /// Line of the annotated declaration.
    pub decl_line: u32,
}

impl GuardedBy {
    /// Uppercase-initial symbols (statics, enum variants) are checked
    /// workspace-wide; lowercase field names only in their own file,
    /// because short field names like `map` collide across crates.
    #[must_use]
    pub fn cross_file(&self) -> bool {
        self.symbol.chars().next().is_some_and(char::is_uppercase)
    }
}

/// A lexed source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Classification.
    pub kind: FileKind,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Parsed suppressions.
    pub suppressions: Vec<Suppression>,
    /// Parsed `guarded_by` annotations.
    pub annotations: Vec<GuardedBy>,
    /// Comments whose `dut-lint:` marker failed to parse, with the
    /// parse problem (reported as `bad-suppression` findings).
    pub malformed: Vec<(u32, String)>,
    /// 1-based lines inside `#[cfg(test)]` items or `#[test]` fns.
    test_lines: BTreeSet<u32>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    #[must_use]
    pub fn parse(path: &str, source: &str) -> Self {
        let lexed = lex(source);
        let test_lines = find_test_lines(&lexed.tokens);
        let (suppressions, annotations, malformed) = parse_markers(&lexed);
        Self {
            path: path.replace('\\', "/"),
            kind: classify(path),
            tokens: lexed.tokens,
            suppressions,
            annotations,
            malformed,
            test_lines,
        }
    }

    /// Whether `line` is inside test-only code.
    #[must_use]
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// Whether a finding of `rule` at `line` is suppressed by a
    /// well-formed (reason-carrying) suppression comment.
    #[must_use]
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && s.target_line == line && !s.reason.is_empty())
    }
}

/// Marks every line belonging to an item annotated `#[cfg(test)]`
/// (or `#[cfg(all(test, …))]`, or `#[test]`) as test code. The item
/// extent is found by brace matching from the first `{` at depth 0, or
/// the terminating `;` for brace-less items.
fn find_test_lines(tokens: &[Token]) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut names: Vec<&str> = Vec::new();
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                } else if depth == 1 {
                    names.push(tokens[j].text.as_str());
                }
                j += 1;
            }
            let is_test_attr = names.first() == Some(&"test")
                || (names.first() == Some(&"cfg")
                    && names.contains(&"test")
                    && !names.contains(&"not"));
            if is_test_attr {
                let start_line = tokens[i].line;
                let end = item_extent(tokens, j);
                let end_line = tokens
                    .get(end.saturating_sub(1))
                    .map_or(start_line, |t| t.line);
                out.extend(start_line..=end_line);
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Returns the token index one past the item starting at `from`
/// (skipping any further attributes), using brace matching.
fn item_extent(tokens: &[Token], from: usize) -> usize {
    let mut i = from;
    // Skip stacked attributes between the test attr and the item.
    while i < tokens.len() && tokens[i].is_punct("#") {
        let mut depth = 0usize;
        i += 1;
        if i < tokens.len() && tokens[i].is_punct("[") {
            loop {
                if tokens[i].is_punct("[") {
                    depth += 1;
                } else if tokens[i].is_punct("]") {
                    depth -= 1;
                }
                i += 1;
                if depth == 0 || i >= tokens.len() {
                    break;
                }
            }
        }
    }
    // Scan to the item body start (`{`) or end (`;`), whichever first.
    while i < tokens.len() {
        if tokens[i].is_punct(";") {
            return i + 1;
        }
        if tokens[i].is_punct("{") {
            let mut depth = 0usize;
            while i < tokens.len() {
                if tokens[i].is_punct("{") {
                    depth += 1;
                } else if tokens[i].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

const MARKER: &str = "dut-lint:";

/// Parses the two `dut-lint:` comment forms: `allow(<rule>): <reason>`
/// suppressions and `guarded_by(<lock>)` annotations. Standalone
/// comments target the next code line; trailing comments target their
/// own line. The marker must *lead* the comment (doc-comment `/`/`!`
/// prefixes aside) — prose that merely mentions `dut-lint:` syntax,
/// like this sentence, is not a marker.
fn parse_markers(lexed: &Lexed) -> (Vec<Suppression>, Vec<GuardedBy>, Vec<(u32, String)>) {
    let mut ok = Vec::new();
    let mut anns = Vec::new();
    let mut bad = Vec::new();
    for comment in &lexed.comments {
        let body = comment.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim();
        let target_line = if comment.standalone {
            next_code_line(lexed, comment)
        } else {
            comment.line
        };
        if rest.starts_with("guarded_by") {
            match parse_guarded_by(rest, lexed, target_line) {
                Ok(ann) => anns.push(ann),
                Err(problem) => bad.push((comment.line, problem)),
            }
            continue;
        }
        match parse_allow(rest) {
            Ok((rule, reason)) => {
                if !RULES.contains(&rule.as_str()) {
                    bad.push((
                        comment.line,
                        format!(
                            "suppression names unknown rule `{rule}` — `dut lint` rules are {}",
                            RULES.join(", ")
                        ),
                    ));
                } else if reason.is_empty() {
                    bad.push((
                        comment.line,
                        format!("suppression of `{rule}` is missing its reason — write `// dut-lint: allow({rule}): <why this is sound>`"),
                    ));
                }
                ok.push(Suppression {
                    rule,
                    reason,
                    target_line,
                });
            }
            Err(problem) => bad.push((comment.line, problem)),
        }
    }
    (ok, anns, bad)
}

/// Keywords that may precede the annotated symbol on its declaration
/// line (`pub static FOO`, `let mut bar`, a struct field, …).
const DECL_KEYWORDS: &[&str] = &[
    "pub", "static", "let", "mut", "const", "ref", "crate", "super", "in",
];

/// Parses the `guarded_by(<lock>)` tail and resolves the annotated
/// symbol: the first non-keyword identifier on the target line.
fn parse_guarded_by(rest: &str, lexed: &Lexed, target_line: u32) -> Result<GuardedBy, String> {
    let rest = rest
        .strip_prefix("guarded_by(")
        .ok_or_else(|| "expected `guarded_by(<lock>)` after `dut-lint:`".to_owned())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `guarded_by(` in annotation".to_owned())?;
    let lock = rest[..close].trim();
    if lock.is_empty() || !lock.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(
            "guarded_by names exactly one lock identifier, e.g. `guarded_by(queue)`".to_owned(),
        );
    }
    let symbol = lexed
        .tokens
        .iter()
        .filter(|t| t.line == target_line && t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .find(|name| !DECL_KEYWORDS.contains(name))
        .ok_or_else(|| "guarded_by annotation targets a line with no symbol to guard".to_owned())?;
    Ok(GuardedBy {
        lock: lock.to_owned(),
        symbol: symbol.to_owned(),
        decl_line: target_line,
    })
}

/// Parses the `allow(<rule>): <reason>` tail of a suppression.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let rest = rest
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<rule>): <reason>` after `dut-lint:`".to_owned())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(` in suppression".to_owned())?;
    let rule = rest[..close].trim();
    if rule.is_empty() || rule.contains(',') {
        return Err("suppressions name exactly one rule, e.g. `allow(float-eq)`".to_owned());
    }
    let reason = rest[close + 1..]
        .trim()
        .trim_start_matches([':', '-', '—'])
        .trim()
        .to_owned();
    Ok((rule.to_owned(), reason))
}

/// The first token line after a standalone comment (falls back to the
/// line after the comment when the file ends).
fn next_code_line(lexed: &Lexed, comment: &LineComment) -> u32 {
    lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .find(|&l| l > comment.line)
        .unwrap_or(comment.line + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/probability/src/dense.rs"),
            FileKind::Library
        );
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(classify("src/bin/dut.rs"), FileKind::Binary);
        assert_eq!(
            classify("crates/bench/src/bin/e1_any_rule_scaling.rs"),
            FileKind::Binary
        );
        assert_eq!(classify("crates/bench/src/lib.rs"), FileKind::Binary);
        assert_eq!(
            classify("crates/simnet/tests/properties.rs"),
            FileKind::Excluded
        );
        assert_eq!(classify("vendor/rand/src/lib.rs"), FileKind::Excluded);
        assert_eq!(
            classify("crates/analyze/tests/fixtures/bad/float_eq.rs"),
            FileKind::Excluded
        );
        assert_eq!(classify("README.md"), FileKind::Excluded);
    }

    #[test]
    fn test_region_detection() {
        let src = "\
pub fn lib_code() -> f64 { 1.0 }

#[cfg(test)]
mod tests {
    #[test]
    fn check() {
        assert!(super::lib_code() == 1.0);
    }
}
";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!file.is_test_line(1));
        assert!(file.is_test_line(3));
        assert!(file.is_test_line(7));
        assert!(file.is_test_line(9));
    }

    #[test]
    fn cfg_test_on_single_item() {
        let src = "\
#[cfg(test)]
use std::collections::HashSet;

pub fn live() {}
";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(file.is_test_line(2));
        assert!(!file.is_test_line(4));
    }

    #[test]
    fn suppression_round_trip() {
        let src = "\
// dut-lint: allow(float-eq): boolean tables hold exact 0.0/1.0 values
let exact = v == 1.0;
let trailing = w == 0.0; // dut-lint: allow(float-eq): mass is exactly zero here
";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(file.is_suppressed("float-eq", 2));
        assert!(file.is_suppressed("float-eq", 3));
        assert!(!file.is_suppressed("float-eq", 1));
        assert!(!file.is_suppressed("atomic-rmw", 2));
        assert!(file.malformed.is_empty());
    }

    #[test]
    fn suppression_without_reason_is_malformed() {
        let src = "// dut-lint: allow(float-eq)\nlet x = v == 1.0;\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(file.malformed.len(), 1);
        assert!(!file.is_suppressed("float-eq", 2));
    }

    #[test]
    fn guarded_by_annotation_resolves_symbol() {
        let src = "\
struct CacheState {
    // dut-lint: guarded_by(state)
    map: BTreeMap<u64, u64>,
    tick: u64, // dut-lint: guarded_by(state)
}
// dut-lint: guarded_by(queue)
pub static DEPTH: AtomicU64 = AtomicU64::new(0);
";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(file.annotations.len(), 3);
        assert_eq!(file.annotations[0].symbol, "map");
        assert_eq!(file.annotations[0].lock, "state");
        assert!(!file.annotations[0].cross_file());
        assert_eq!(file.annotations[1].symbol, "tick");
        assert_eq!(file.annotations[1].decl_line, 4);
        assert_eq!(file.annotations[2].symbol, "DEPTH");
        assert_eq!(file.annotations[2].lock, "queue");
        assert!(file.annotations[2].cross_file());
        assert!(file.malformed.is_empty());
    }

    #[test]
    fn malformed_guarded_by_is_reported() {
        let src = "// dut-lint: guarded_by(\nlet x = 1;\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(file.malformed.len(), 1);
        let src2 = "// dut-lint: guarded_by(two locks)\nlet x = 1;\n";
        let file2 = SourceFile::parse("crates/x/src/lib.rs", src2);
        assert_eq!(file2.malformed.len(), 1);
    }

    #[test]
    fn garbled_suppression_is_malformed() {
        let src = "// dut-lint: alow(float-eq): typo in keyword\nlet x = 1;\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(file.malformed.len(), 1);
    }

    #[test]
    fn prose_mentioning_the_marker_is_not_a_marker() {
        let src = "\
/// A parsed `// dut-lint: allow(<rule>): <reason>` suppression.
//! The `dut-lint: guarded_by(<lock>)` form is documented elsewhere.
// write `// dut-lint: allow(float-eq): <reason>` to suppress
let x = 1;
";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(file.suppressions.is_empty());
        assert!(file.annotations.is_empty());
        assert!(file.malformed.is_empty());
    }
}
