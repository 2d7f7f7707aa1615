//! Link checker for the repository's markdown documentation: every
//! relative link target in the tracked docs must exist on disk. Keeps
//! cross-references (README ⇄ DESIGN ⇄ EXPERIMENTS ⇄
//! `docs/observability.md`) from silently rotting as files move —
//! run by CI's `check` job with the workspace tests. External (`://`, `mailto:`) links and
//! in-page `#anchors` are out of scope. DESIGN.md §3's crate table is
//! held to the source tree the same way: every module it names exists,
//! and every module that exists is named. So are the artifact, binary
//! and environment-variable names the user-facing docs cite, and every
//! Rust-looking name in their inline code.

use std::collections::HashSet;
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

/// The prose lines of a markdown text, numbered from 0: fenced code
/// blocks (and their fences) are skipped.
fn prose_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut in_code_block = false;
    text.lines().enumerate().filter(move |(_, line)| {
        if line.trim_start().starts_with("```") {
            in_code_block = !in_code_block;
            return false;
        }
        !in_code_block
    })
}

/// Checks every relative link in `doc` (a path relative to the repo
/// root), returning a list of broken-link descriptions.
fn broken_links(root: &Path, doc: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join(doc))
        .unwrap_or_else(|e| panic!("read {}: {e}", doc.display()));
    let dir = doc.parent().unwrap_or_else(|| Path::new(""));
    let mut broken = Vec::new();
    for (lineno, line) in prose_lines(&text) {
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

/// `docs/*.md`, relative to the repo root: checked without being
/// listed by hand.
fn docs_dir_pages(root: &Path) -> Vec<PathBuf> {
    let mut pages = Vec::new();
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            pages.push(PathBuf::from("docs").join(path.file_name().expect("file name")));
        }
    }
    pages.sort();
    pages
}

#[test]
fn relative_links_in_docs_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<PathBuf> = DOCS.iter().map(PathBuf::from).collect();
    docs.extend(docs_dir_pages(&root));
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

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
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
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        let stems: Vec<String> = files
            .iter()
            .map(|f| {
                f.file_stem()
                    .expect("file stem")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
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

/// Every `prefix`-led name in `text`: the `prefix` plus the longest run
/// of characters `keep` accepts that follows it.
fn names_after<'a>(text: &'a str, prefix: &str, keep: impl Fn(char) -> bool) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(prefix) {
        let rest = &text[at + prefix.len()..];
        let len = rest.find(|c: char| !keep(c)).unwrap_or(rest.len());
        out.push(&text[at..at + prefix.len() + len]);
    }
    out
}

/// The names of every binary target in the tree: `[[bin]]` entries,
/// `src/bin/*.rs` files, and packages with a `src/main.rs`.
fn binary_targets(root: &Path) -> Vec<String> {
    let mut dirs = vec![root.to_path_buf(), root.join("perfbench")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        dirs.push(entry.expect("readable crates/ entry").path());
    }
    let mut bins = Vec::new();
    for dir in dirs {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
        let main = dir.join("src/main.rs").exists();
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if let Some(value) = line.strip_prefix("name = ") {
                if section == "[[bin]]" || (section == "[package]" && main) {
                    bins.push(value.trim_matches('"').to_owned());
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(dir.join("src/bin")) {
            for entry in entries {
                let path = entry.expect("readable src/bin entry").path();
                let stem = path.file_stem().expect("file stem");
                bins.push(stem.to_string_lossy().into_owned());
            }
        }
    }
    bins
}

#[test]
fn names_the_docs_cite_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(PathBuf::from)
        .collect();
    docs.extend(docs_dir_pages(&root));
    let bins = binary_targets(&root);
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "perfbench/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    let sources: String = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("readable source"))
        .collect();
    let words: HashSet<&str> = sources
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    let mut stale = Vec::new();
    for doc in &docs {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        let doc = doc.display();
        // Artifacts: `BENCH_NAME.json` and `BENCH_*.json` are placeholders.
        let artifact = |c: char| c.is_ascii_alphanumeric() || "_*.".contains(c);
        for file in names_after(&text, "BENCH_", artifact) {
            let file = file.trim_end_matches('.');
            let placeholder = file == "BENCH_NAME.json" || file == "BENCH_*.json";
            if file.ends_with(".json") && !placeholder && !root.join(file).is_file() {
                stale.push(format!("{doc}: `{file}` is no file at the repo root"));
            }
        }
        for flag in names_after(&text, "--bin ", |c| {
            c.is_ascii_alphanumeric() || "_-".contains(c)
        }) {
            let name = &flag["--bin ".len()..];
            if !bins.iter().any(|b| b == name) {
                stale.push(format!("{doc}: `{flag}` names no binary target"));
            }
        }
        for name in names_after(&text, "VSV_", |c| c.is_ascii_uppercase() || c == '_') {
            let name = name.trim_end_matches('_');
            if !sources.contains(&format!("\"{name}\"")) {
                stale.push(format!("{doc}: `{name}` is read by no source file"));
            }
        }
        for (lineno, line) in prose_lines(&text) {
            for name in rust_names(line) {
                let path = name.trim_end_matches("()");
                if EXTERNAL_NAMES.contains(&path) {
                    continue;
                }
                if let Some(part) = path.split("::").find(|p| !words.contains(p)) {
                    stale.push(format!(
                        "{doc}:{}: `{name}` cites `{part}`, which no source has",
                        lineno + 1
                    ));
                }
            }
        }
    }
    stale.sort();
    stale.dedup();
    assert!(
        stale.is_empty(),
        "the docs cite names the tree no longer has:\n{}",
        stale.join("\n")
    );
}

/// Names the docs cite in inline code that no `.rs` source under
/// `crates/`, `src/`, `examples/` or `perfbench/src/` spells: a POSIX
/// signal and the vendored serde stand-in's compiler interface.
const EXTERNAL_NAMES: &[&str] = &["SIGPROF", "proc_macro", "serde_derive"];

/// The Rust-looking names in one line's inline code spans: a span that
/// is a `::`-path of identifiers, optionally called (`name()`), with a
/// `::`, a call, an underscore or a capital letter in it. Plain words
/// (`sweep`), flags and file names are not names.
fn rust_names(line: &str) -> Vec<&str> {
    let ident = |s: &str| {
        s.chars().next().is_some_and(|c| !c.is_ascii_digit())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    line.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            let path = span.strip_suffix("()").unwrap_or(span);
            path.split("::").all(ident)
                && (*span != path
                    || path.contains("::")
                    || path.contains('_')
                    || path.contains(|c: char| c.is_ascii_uppercase()))
        })
        .collect()
}

#[test]
fn rust_name_extraction_takes_paths_calls_and_capitals() {
    let line = "`System` runs `try_run()` via `vsv::Sweep`; `sweep`, `--tk`, `a.rs`, `H`, `x y`";
    assert_eq!(rust_names(line), ["System", "try_run()", "vsv::Sweep", "H"]);
}

#[test]
fn name_extraction_takes_the_longest_run() {
    let text = "run --bin campaign_scale; set VSV_INSTS, VSV_CAMPAIGN_JSON.";
    let upper = |c: char| c.is_ascii_uppercase() || c == '_';
    assert_eq!(
        names_after(text, "VSV_", upper),
        ["VSV_INSTS", "VSV_CAMPAIGN_JSON"]
    );
    let bin = |c: char| c.is_ascii_alphanumeric() || "_-".contains(c);
    assert_eq!(names_after(text, "--bin ", bin), ["--bin campaign_scale"]);
}
