//! The numbers EXPERIMENTS.md quotes must be the numbers the recorded
//! runs printed: its headline table against `results/headline.txt`,
//! and its Table 2 rows against `results/table2.txt`. CI regenerates
//! those files with `vsv-cli reproduce NAME` and diffs them, so a
//! change that moves a paper number has to move the prose with it.

use std::path::PathBuf;

fn read(path: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The data rows of a recorded table: the lines between its two rule
/// lines, split into whitespace-separated fields with the `|` column
/// separators dropped.
fn recorded_rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.starts_with("---"))
        .map(|l| {
            l.split_whitespace()
                .filter(|f| *f != "|")
                .map(str::to_owned)
                .collect()
        })
        .collect()
}

/// The lines of the markdown section under `heading`.
fn section<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    doc.lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .collect()
}

#[test]
fn experiments_headline_table_matches_the_recorded_run() {
    let doc = read("EXPERIMENTS.md");
    // Rows "| label | **power** | paper | **perf** | paper |", in the
    // recorded run's order; the labels are worded differently.
    let quoted: Vec<Vec<String>> = section(&doc, "## Headline")
        .into_iter()
        .filter(|l| l.starts_with("| VSV"))
        .map(|l| {
            l.split('|')
                .skip(2)
                .filter(|c| !c.trim().is_empty())
                .map(|c| c.trim().trim_matches('*').to_owned())
                .collect()
        })
        .collect();
    let recorded: Vec<Vec<String>> = recorded_rows(&read("results/headline.txt"))
        .into_iter()
        .map(|row| row[row.len() - 4..].to_vec())
        .collect();
    assert_eq!(recorded.len(), 4, "{recorded:?}");
    assert_eq!(quoted, recorded, "EXPERIMENTS.md headline vs results/");
}

#[test]
fn experiments_table2_rows_match_the_recorded_run() {
    let doc = read("EXPERIMENTS.md");
    let rows = section(&doc, "## Table 2");
    let recorded = recorded_rows(&read("results/table2.txt"));
    assert_eq!(recorded.len(), 26, "{recorded:?}");
    let quoted: Vec<&str> = rows
        .into_iter()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| bench"))
        .collect();
    let expected: Vec<String> = recorded
        .iter()
        .map(|r| {
            format!(
                "| {} | {} / {} | {} / {} | {} / {} |",
                r[0], r[1], r[2], r[3], r[4], r[5], r[6]
            )
        })
        .collect();
    assert_eq!(quoted, expected, "EXPERIMENTS.md Table 2 vs results/");
}
