//! Findings and the aggregate lint report.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (e.g. `float-eq`).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl Finding {
    /// A finding of `rule` at `path:line`.
    #[must_use]
    pub fn new(
        path: &str,
        line: u32,
        rule: &'static str,
        message: String,
        hint: &'static str,
    ) -> Self {
        Finding {
            path: path.to_owned(),
            line,
            rule,
            message,
            hint,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        write!(f, "    hint: {}", self.hint)
    }
}

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Files analyzed (excluded files are not counted).
    pub files_checked: usize,
    /// Suppressions that matched a finding (justified exceptions).
    pub suppressed: usize,
}

impl Report {
    /// True when the tree is lint-clean: no unsuppressed findings.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sorts findings into reporting order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        if !self.findings.is_empty() {
            writeln!(f)?;
        }
        write!(
            f,
            "dut lint: {} file{} checked, {} finding{}, {} suppressed",
            self.files_checked,
            if self.files_checked == 1 { "" } else { "s" },
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(path: &str, line: u32, rule: &'static str, message: &str) -> Finding {
        Finding::new(path, line, rule, message.to_owned(), "h")
    }

    #[test]
    fn display_formats_location_rule_and_hint() {
        let f = Finding::new(
            "crates/x/src/lib.rs",
            7,
            "float-eq",
            "float compared with `==`".into(),
            "use an epsilon comparison or f64::total_cmp",
        );
        let text = f.to_string();
        assert!(text.starts_with("crates/x/src/lib.rs:7: [float-eq]"));
        assert!(text.contains("hint:"));
    }

    #[test]
    fn report_sorts_and_summarizes() {
        let mut report = Report {
            findings: vec![
                finding("b.rs", 2, "float-eq", "m"),
                finding("a.rs", 9, "float-eq", "m"),
            ],
            files_checked: 2,
            suppressed: 1,
        };
        report.sort();
        assert_eq!(report.findings[0].path, "a.rs");
        assert!(!report.is_clean());
        assert!(report
            .to_string()
            .contains("2 files checked, 2 findings, 1 suppressed"));
    }
}
