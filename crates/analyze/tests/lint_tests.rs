//! Fixture corpus + workspace self-test for `dut lint`.
//!
//! Each rule has at least one known-bad and one known-good snippet
//! under `tests/fixtures/{bad,good}/<stem>.rs`. The bad snippet must
//! produce exactly its rule's finding; the good snippet must lint
//! clean. The self-test then lints the real workspace and asserts it
//! is clean — the same gate CI runs via `dut lint`.

use dut_analyze::rules::FileOutcome;
use dut_analyze::{lint_source, lint_workspace};
use std::path::Path;

/// Maps a fixture stem to (rule id, virtual path). The path controls
/// file-kind classification: float-eq only fires in library code.
const CASES: &[(&str, &str, &str)] = &[
    ("float_eq", "float-eq", "crates/probability/src/fixture.rs"),
    ("lock_order", "lock-order", "crates/serve/src/fixture.rs"),
    ("guarded_by", "guarded-by", "crates/serve/src/fixture.rs"),
    ("gauge_race", "guarded-by", "crates/serve/src/fixture.rs"),
    (
        "check_then_act",
        "check-then-act",
        "crates/testers/src/fixture.rs",
    ),
    ("atomic_rmw", "atomic-rmw", "crates/obs/src/fixture.rs"),
    (
        "bad_suppression",
        "bad-suppression",
        "crates/lowerbound/src/fixture.rs",
    ),
];

fn fixture(kind: &str, stem: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(format!("{stem}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn lint_fixture(kind: &str, stem: &str, virtual_path: &str) -> FileOutcome {
    lint_source(virtual_path, &fixture(kind, stem))
}

#[test]
fn every_bad_fixture_triggers_its_rule() {
    for &(stem, rule, path) in CASES {
        let outcome = lint_fixture("bad", stem, path);
        assert!(
            outcome.findings.iter().any(|f| f.rule == rule),
            "bad/{stem}.rs should trigger `{rule}`, got {:?}",
            outcome.findings
        );
        // Every finding carries a clickable location and a fix hint.
        for f in &outcome.findings {
            assert!(f.line >= 1, "finding without a line: {f}");
            assert!(!f.hint.is_empty(), "finding without a hint: {f}");
            assert_eq!(f.path, path);
        }
    }
}

#[test]
fn every_good_fixture_lints_clean() {
    for &(stem, rule, path) in CASES {
        // The good suppression fixture legitimately reports one
        // suppressed finding; everything else must be silent too.
        let outcome = lint_fixture("good", stem, path);
        assert!(
            outcome.findings.is_empty(),
            "good/{stem}.rs (rule `{rule}`) should be clean, got {:?}",
            outcome.findings
        );
    }
}

#[test]
fn bad_fixtures_trigger_only_their_rule_family() {
    // The corpus is curated: a bad fixture may not drag in unrelated
    // findings, or a rule regression could hide behind another rule's
    // hit.
    for &(stem, rule, path) in CASES {
        let outcome = lint_fixture("bad", stem, path);
        for f in &outcome.findings {
            // A reasonless suppression deliberately does NOT silence its
            // target, so that fixture also reports the float-eq it fails
            // to suppress.
            if stem == "bad_suppression" && f.rule == "float-eq" {
                continue;
            }
            assert_eq!(
                f.rule, rule,
                "bad/{stem}.rs triggered unrelated rule `{}`: {f}",
                f.rule
            );
        }
    }
}

#[test]
fn suppression_round_trip() {
    let src = fixture("good", "bad_suppression");
    let outcome = lint_source("crates/probability/src/fixture.rs", &src);
    assert!(outcome.findings.is_empty());
    assert_eq!(
        outcome.suppressed, 1,
        "the justified float-eq should be counted as suppressed"
    );

    // Stripping the reason flips the suppression into two findings:
    // the original float-eq plus bad-suppression.
    let reasonless = src.replace(
        "// dut-lint: allow(float-eq): table entries are exactly 0.0 or 1.0 by construction",
        "// dut-lint: allow(float-eq)",
    );
    assert_ne!(src, reasonless, "fixture must contain the suppression");
    let outcome = lint_source("crates/probability/src/fixture.rs", &reasonless);
    let rules: Vec<_> = outcome.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"bad-suppression"), "got {rules:?}");
    assert!(rules.contains(&"float-eq"), "got {rules:?}");
    assert_eq!(outcome.suppressed, 0);
}

#[test]
fn fixture_corpus_is_complete() {
    // At least one bad/good snippet pair per registered rule — adding
    // a rule without fixtures fails here. (`guarded-by` also carries
    // the serve queue-depth gauge-race regression shape.)
    for &rule in dut_analyze::RULES {
        assert!(
            CASES.iter().any(|&(_, r, _)| r == rule),
            "rule `{rule}` has no fixture pair"
        );
    }
    for &(stem, rule, _) in CASES {
        assert!(
            dut_analyze::RULES.contains(&rule),
            "fixture {stem} names unregistered rule `{rule}`"
        );
    }
}

#[test]
fn workspace_lints_clean() {
    // CARGO_MANIFEST_DIR = <root>/crates/analyze.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists");
    assert!(
        root.join("Cargo.toml").exists(),
        "not a workspace root: {}",
        root.display()
    );
    let report = lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        report.files_checked > 50,
        "suspiciously few files checked: {}",
        report.files_checked
    );
    assert!(
        report.is_clean(),
        "workspace has dut lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
