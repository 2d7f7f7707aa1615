//! The numbers EXPERIMENTS.md quotes must be the numbers the recorded
//! runs printed: its headline table against `results/headline.txt`,
//! its Table 2 rows against `results/table2.txt`, and its multicore
//! table against `BENCH_multicore.json`. CI regenerates those files
//! with `vsv-cli reproduce NAME` and diffs them, so a change that
//! moves a recorded number has to move the prose with it.

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

#[test]
fn experiments_multicore_table_matches_the_recorded_run() {
    let doc = read("EXPERIMENTS.md");
    let bench: serde_json::Value =
        serde_json::from_str(&read("BENCH_multicore.json")).expect("valid JSON");
    let records = bench
        .get("records")
        .and_then(|r| r.as_seq())
        .expect("records");
    // Rows "| twin | cores | low residency % | slowdown % | power saved % |",
    // a subset of the recorded (twin, cores) cells.
    let quoted: Vec<Vec<String>> = section(&doc, "## Multicore scaling")
        .into_iter()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| twin"))
        .map(|l| {
            l.split('|')
                .map(|c| c.trim().trim_matches('*').to_owned())
                .filter(|c| !c.is_empty())
                .collect()
        })
        .collect();
    assert!(quoted.len() >= 5, "{quoted:?}");
    for row in &quoted {
        let record = records
            .iter()
            .find(|r| {
                r.get("workload").and_then(|w| w.as_str()) == Some(row[0].as_str())
                    && r.get("cores")
                        .and_then(|c| c.as_u64())
                        .map(|c| c.to_string())
                        == Some(row[1].clone())
            })
            .unwrap_or_else(|| panic!("no recorded cell for {row:?}"));
        let field = |name: &str| record.get(name).and_then(|v| v.as_f64()).expect(name);
        let recorded = vec![
            row[0].clone(),
            row[1].clone(),
            format!("{:.1}", field("low_residency_pct")),
            format!("{:.2}", field("slowdown_pct")),
            format!("{:.1}", field("power_saving_pct")),
        ];
        assert_eq!(
            row, &recorded,
            "EXPERIMENTS.md multicore table vs BENCH_multicore.json"
        );
    }
}
