//! The invariant linter: workspace walk + rule engine.
//!
//! See [`rules`] for the catalog and the `safeloc_lint` binary for the
//! CLI. The library surface exists so the engine can be tested against
//! fixture snippets (`tests/lint_engine.rs`) and so the self-lint test
//! can assert this workspace lints clean.

pub mod dead_pub;
pub mod rules;
pub mod source;

pub use rules::{Finding, RuleInfo, RULES};
pub use source::SourceFile;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crate directories under `crates/` that are not ours to lint: vendor
/// stubs exist only because the build env is offline.
const SKIP_CRATES: &[&str] = &["vendor"];

/// Where Rust code that can call into `crates/*/src` lives, besides those
/// sources themselves: per-crate and repo-root test / example
/// directories, the facade, and the standalone `benchmark/` crate.
/// `dead-pub` reads these for uses only.
const CALLER_DIRS_PER_CRATE: &[&str] = &["tests", "examples"];
const CALLER_DIRS_AT_ROOT: &[&str] = &[
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "benchmark/tests",
];

/// Lints one file's text as if it lived at `path` in crate `crate_name`
/// — the fixture-testing entry point.
pub fn lint_text(path: &str, crate_name: &str, text: &str) -> Vec<Finding> {
    rules::lint_file(&SourceFile::parse(path, crate_name, text))
}

/// Walks `<root>/crates/*/src/**/*.rs` (skipping vendor stubs) and runs
/// every rule, returning findings sorted by (path, line, rule). The one
/// cross-file rule, [`dead_pub`], additionally reads every other Rust
/// source in the repo that could hold a caller.
///
/// # Errors
///
/// Any I/O error reading the tree (a vanished file mid-walk, unreadable
/// permissions). Missing `crates/` is an error: the linter refusing to
/// run must never look like a clean run.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} is not a workspace root (no crates/ dir)",
                root.display()
            ),
        ));
    }
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    let mut caller_dirs: Vec<PathBuf> = CALLER_DIRS_AT_ROOT.iter().map(|d| root.join(d)).collect();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if SKIP_CRATES.contains(&crate_name.as_str()) {
            continue;
        }
        caller_dirs.extend(CALLER_DIRS_PER_CRATE.iter().map(|d| crate_dir.join(d)));
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for parsed in parse_dir(root, &src, &crate_name)? {
            findings.extend(rules::lint_file(&parsed));
            sources.push(parsed);
        }
    }
    let mut callers = Vec::new();
    for dir in caller_dirs.iter().filter(|d| d.is_dir()) {
        callers.extend(parse_dir(root, dir, "")?);
    }
    findings.extend(dead_pub::dead_pub(&sources, &callers));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// Parses every `.rs` file under `dir`, in path order.
fn parse_dir(root: &Path, dir: &Path, crate_name: &str) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    collect_rs_files(dir, &mut files)?;
    files.sort();
    files
        .iter()
        .map(|file| {
            let text = fs::read_to_string(file)?;
            Ok(SourceFile::parse(
                &relative_path(root, file),
                crate_name,
                &text,
            ))
        })
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `/`-separated path relative to `root` (stable finding paths across
/// platforms and absolute-path prefixes).
fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
