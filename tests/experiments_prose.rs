//! EXPERIMENTS.md quotes the E1 and E2 q* values and log-log slopes;
//! these tests refit the slopes from the committed CSVs under
//! `results/` with the same `log_log_slope` the experiments use, and
//! fail when the prose and the tables disagree.

use dut_stats::sweep::log_log_slope;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The data rows of a results CSV, as numbers.
fn csv_rows(relative: &str) -> Vec<Vec<f64>> {
    read(relative)
        .lines()
        .skip(1)
        .map(|line| {
            line.split(',')
                .map(|cell| {
                    cell.parse()
                        .unwrap_or_else(|e| panic!("{relative}: {cell}: {e}"))
                })
                .collect()
        })
        .collect()
}

/// Column `y` against column 0.
fn points(rows: &[Vec<f64>], y: usize) -> Vec<(f64, f64)> {
    rows.iter().map(|row| (row[0], row[y])).collect()
}

/// `x` to `places` decimals with an explicit sign, the way the prose
/// writes it: `+0.517`, `−0.443` (U+2212).
fn signed(x: f64, places: usize) -> String {
    format!("{x:+.places$}").replace('-', "−")
}

/// The text of the `## <heading>` section.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `## {heading}` section"));
    let body = &doc[start + 1..];
    let end = body[3..].find("\n## ").map_or(body.len(), |i| i + 3);
    &body[..end]
}

/// The Summary table row of experiment `id`.
fn summary_row<'a>(doc: &'a str, id: &str) -> &'a str {
    section(doc, "Summary")
        .lines()
        .find(|line| line.starts_with(&format!("| {id} |")))
        .unwrap_or_else(|| panic!("Summary has no {id} row"))
}

fn assert_quotes(text: &str, quote: &str, what: &str) {
    assert!(
        text.contains(quote),
        "{what}: expected `{quote}` in\n{text}"
    );
}

#[test]
fn e1_prose_matches_its_csvs() {
    let doc = read("EXPERIMENTS.md");
    let e1 = section(&doc, "E1 ");
    let mut slopes = Vec::new();
    for axis in ["k", "n", "eps"] {
        let rows = csv_rows(&format!("results/e1_sweep_{axis}.csv"));
        let qstars: Vec<String> = rows.iter().map(|row| row[1].to_string()).collect();
        assert_quotes(e1, &format!("q* = {} at", qstars.join(", ")), axis);
        let slope = log_log_slope(&points(&rows, 1));
        assert_quotes(e1, &format!("slope **{}**", signed(slope, 3)), axis);
        slopes.push(signed(slope, 2));
    }
    assert_quotes(
        summary_row(&doc, "E1"),
        &format!("**{}**", slopes.join(", ")),
        "Summary E1",
    );
}

#[test]
fn e2_prose_matches_its_csv() {
    let doc = read("EXPERIMENTS.md");
    let e2 = section(&doc, "E2 ");
    let rows = csv_rows("results/e2_and_vs_k.csv");
    for row in &rows {
        assert_quotes(
            e2,
            &format!("| {} | {} | {} |", row[0], row[1], row[2]),
            "E2 table",
        );
    }
    let and = log_log_slope(&points(&rows, 1));
    let balanced = log_log_slope(&points(&rows, 2));
    assert_quotes(
        e2,
        &format!(
            "AND slope **{}** vs balanced **{}**",
            signed(and, 3),
            signed(balanced, 3)
        ),
        "E2",
    );
    assert_quotes(
        summary_row(&doc, "E2"),
        &format!(
            "**AND {} vs balanced {}**",
            signed(and, 2),
            signed(balanced, 2)
        ),
        "Summary E2",
    );
}
