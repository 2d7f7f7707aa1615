//! Link checker for the repository's markdown documentation: every
//! relative link target in the tracked docs must exist on disk. Keeps
//! cross-references (README ⇄ DESIGN ⇄ EXPERIMENTS ⇄
//! `docs/observability.md`) from silently rotting as files move —
//! run by CI's `check` job with the workspace tests. External (`://`, `mailto:`) links and
//! in-page `#anchors` are out of scope. DESIGN.md §3's crate table is
//! held to the source tree the same way: every module it names exists,
//! and every module that exists is named.

use std::path::{Path, PathBuf};

/// The documents whose links are checked, relative to the repo root.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGELOG.md",
];

/// Extracts inline markdown link targets — the `(target)` of
/// `[text](target)` — from one line. Deliberately simple: no nested
/// parentheses, no reference-style links (the docs use neither).
fn link_targets(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(close) = rest.find("](") {
        let after = &rest[close + 2..];
        if let Some(end) = after.find(')') {
            out.push(&after[..end]);
            rest = &after[end + 1..];
        } else {
            break;
        }
    }
    out
}

/// Checks every relative link in `doc` (a path relative to the repo
/// root), returning a list of broken-link descriptions.
fn broken_links(root: &Path, doc: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join(doc))
        .unwrap_or_else(|e| panic!("read {}: {e}", doc.display()));
    let dir = doc.parent().unwrap_or_else(|| Path::new(""));
    let mut broken = Vec::new();
    let mut in_code_block = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_code_block = !in_code_block;
            continue;
        }
        if in_code_block {
            continue;
        }
        for target in link_targets(line) {
            // External links and pure in-page anchors are not checked.
            if target.contains("://") || target.starts_with("mailto:") {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            let resolved = root.join(dir).join(path_part);
            if !resolved.exists() {
                broken.push(format!(
                    "{}:{}: broken link `{target}` (resolved {})",
                    doc.display(),
                    lineno + 1,
                    resolved.display()
                ));
            }
        }
    }
    broken
}

#[test]
fn relative_links_in_docs_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<PathBuf> = DOCS.iter().map(PathBuf::from).collect();
    // Everything under docs/ is checked without being listed by hand.
    let docs_dir = root.join("docs");
    let entries = std::fs::read_dir(&docs_dir).expect("docs/ exists");
    for entry in entries {
        let entry = entry.expect("readable docs/ entry");
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(PathBuf::from("docs").join(path.file_name().expect("file name")));
        }
    }
    let mut broken = Vec::new();
    for doc in &docs {
        broken.extend(broken_links(&root, doc));
    }
    assert!(
        broken.is_empty(),
        "broken documentation links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn link_extraction_handles_the_common_shapes() {
    assert_eq!(
        link_targets("see [a](x.md) and [b](y.md#sec), not (z.md)"),
        vec!["x.md", "y.md#sec"]
    );
    assert!(link_targets("no links here").is_empty());
}

#[test]
fn observability_doc_is_linked_from_readme_and_design() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        assert!(
            text.contains("docs/observability.md"),
            "{doc} does not link docs/observability.md"
        );
    }
}

/// The crate rows of DESIGN.md §3's inventory table: each crate
/// directory (`crates/NAME`) with the backticked names of its "Key
/// modules" cell, the row's last.
fn design_crate_table(design: &str) -> Vec<(String, Vec<String>)> {
    let section = design.split("\n## 3. ").nth(1).expect("DESIGN.md has a §3");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| {
            let dir = line.strip_prefix("| `crates/")?.split('`').next()?;
            let modules = line.trim_end().strip_suffix('|')?.rsplit('|').next()?;
            let names = modules.split('`').skip(1).step_by(2).map(str::to_owned);
            Some((format!("crates/{dir}"), names.collect()))
        })
        .collect()
}

/// The file stems of every `.rs` file under `dir`, recursively.
fn rs_stems(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rs_stems(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let stem = path.file_stem().expect("file stem");
            out.push(stem.to_string_lossy().into_owned());
        }
    }
}

#[test]
fn design_crate_table_names_exactly_the_real_modules() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md exists");
    let table = design_crate_table(&design);
    let mut problems = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let name = entry.expect("readable crates/ entry").file_name();
        let dir = format!("crates/{}", name.to_string_lossy());
        if !table.iter().any(|(d, _)| *d == dir) {
            problems.push(format!("{dir} has no row"));
        }
    }
    for (dir, modules) in &table {
        let src = root.join(dir).join("src");
        let mut stems = Vec::new();
        rs_stems(&src, &mut stems);
        for module in modules {
            if !stems.contains(module) {
                problems.push(format!(
                    "{dir}: names `{module}`, which is no file under src/"
                ));
            }
        }
        for entry in std::fs::read_dir(&src).expect("src/ exists") {
            let path = entry.expect("readable src/ entry").path();
            let Some(stem) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
                continue;
            };
            let top_level_module =
                path.extension().is_some_and(|e| e == "rs") && stem != "lib" && stem != "main";
            if top_level_module && !modules.contains(&stem) {
                problems.push(format!("{dir}: src/{stem}.rs is not named"));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md §3's crate table disagrees with the tree:\n{}",
        problems.join("\n")
    );
}
