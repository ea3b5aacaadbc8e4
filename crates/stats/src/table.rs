//! Markdown and CSV table rendering for experiment output.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// An incrementally-built table rendered as Markdown or CSV.
///
/// # Example
///
/// ```
/// use dut_stats::table::Table;
///
/// let mut t = Table::new(vec!["k".into(), "q*".into()]);
/// t.push_row(vec!["4".into(), "120".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| k | q* |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a GitHub-flavored Markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV (simple quoting: cells containing commas or quotes
    /// are quoted with doubled quotes).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into(), "x".into()]);
        t.push_row(vec!["2".into(), "y,z".into()]);
        t
    }

    #[test]
    fn markdown_layout() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | x |");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let csv = sample().to_csv();
        assert!(csv.contains("2,\"y,z\""));
        let mut t = Table::new(vec!["q".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        assert!(t.to_csv().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn len_and_empty() {
        let t = Table::new(vec!["a".into()]);
        assert!(t.is_empty());
        assert_eq!(sample().len(), 2);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("dut_stats_table_test");
        let path = dir.join("out.csv");
        sample().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "match header width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }
}
