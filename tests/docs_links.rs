//! Link checker for the repository's markdown documentation: every
//! relative link target in the tracked docs must exist on disk. Keeps
//! cross-references (README ⇄ DESIGN ⇄ EXPERIMENTS ⇄
//! `docs/observability.md`) from silently rotting as files move —
//! run by CI's `check` job with the workspace tests. External (`://`, `mailto:`) links and
//! in-page `#anchors` are out of scope.

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
