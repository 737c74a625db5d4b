//! `dead-pub`: a free `pub fn` nothing calls.
//!
//! The one cross-file rule. rustc's `dead_code` stops at `pub`, so a
//! library function whose last caller was deleted stays exported,
//! documented and unit-tested forever. The linter sees the whole repo
//! and can say so — within what a lexical engine can claim honestly:
//!
//! * **Candidates** are *free* functions spelled `pub fn` (with
//!   `const`/`async`/`unsafe` in between) in non-test code under
//!   `crates/*/src`: every enclosing brace block is a `mod`. Methods,
//!   trait items, types and consts are out of scope — telling
//!   `x.len()` on one type from `y.len()` on another needs type
//!   information.
//! * **A use** is any other occurrence of the identifier as a code token
//!   anywhere in the repo's Rust sources. Comments and string literals
//!   are already blanked; the token after `fn` is a definition; a
//!   `pub use …;` statement re-exports without calling; and the defining
//!   file's own `#[cfg(test)]` regions do not count — a function only its
//!   own unit tests call has no caller.
//!
//! Name-based matching errs toward silence: an unrelated identifier of
//! the same name hides a dead function, never the reverse. A finding is
//! therefore always real, and is fixed by deleting the function, giving
//! it its caller, or stating the reason it is exported with
//! `// pub-ok: <reason>`.

use super::rules::{justified, Finding};
use super::source::SourceFile;
use std::collections::BTreeSet;

/// Runs the rule: `defs` are the workspace's `crates/*/src` files (where
/// candidates are looked for and which can also use each other), `others`
/// every other Rust source that can call into them (integration tests,
/// benches, examples, the facade, `benchmark/`).
pub fn dead_pub(defs: &[SourceFile], others: &[SourceFile]) -> Vec<Finding> {
    let scanned: Vec<Scan<'_>> = defs.iter().map(scan).collect();
    let elsewhere: Vec<Scan<'_>> = others.iter().map(scan).collect();
    let mut findings = Vec::new();
    for (file, own) in defs.iter().zip(&scanned) {
        for &(name, line0) in &own.free_pub_fns {
            // Another file's unit tests are a use; the defining file's
            // are not.
            let used = elsewhere
                .iter()
                .any(|s| s.uses.contains(name) || s.test_uses.contains(name))
                || scanned.iter().any(|s| {
                    s.uses.contains(name) || (!std::ptr::eq(s, own) && s.test_uses.contains(name))
                });
            if used || justified(file, line0, "pub-ok:") {
                continue;
            }
            findings.push(Finding::new(
                "dead-pub",
                file,
                line0,
                format!(
                    "free `pub fn {name}` has no caller outside its own file's tests \
                     (re-exports, comments and strings do not count): delete it, give it \
                     its caller, or justify the export with `pub-ok:`"
                ),
            ));
        }
    }
    findings
}

/// What one file contributes: the free `pub fn`s it defines and the
/// identifiers it uses, split by whether the use sits in test code.
struct Scan<'a> {
    /// `(name, 0-based line)` of each candidate definition.
    free_pub_fns: Vec<(&'a str, usize)>,
    /// Identifiers used in non-test code.
    uses: BTreeSet<&'a str>,
    /// Identifiers used under `#[cfg(test)]` / `#[test]`.
    test_uses: BTreeSet<&'a str>,
}

#[derive(PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(char),
}

fn scan(file: &SourceFile) -> Scan<'_> {
    let tokens = tokenize(file);
    let mut out = Scan {
        free_pub_fns: Vec::new(),
        uses: BTreeSet::new(),
        test_uses: BTreeSet::new(),
    };
    // One entry per open brace: is the block a `mod`?
    let mut blocks: Vec<bool> = Vec::new();
    // Where the current item header started (after the last `;`/`{`/`}`).
    let mut header = 0;
    let mut i = 0;
    while i < tokens.len() {
        let (tok, line0) = &tokens[i];
        match tok {
            Tok::Punct('{') => {
                let is_mod = tokens[header..i]
                    .iter()
                    .any(|(t, _)| *t == Tok::Ident("mod"));
                blocks.push(is_mod);
                header = i + 1;
            }
            Tok::Punct('}') => {
                blocks.pop();
                header = i + 1;
            }
            Tok::Punct(';') => header = i + 1,
            Tok::Ident("pub") if next_ident_after_visibility(&tokens, i) == Some("use") => {
                // A re-export names without calling: skip to its `;`.
                while i < tokens.len() && tokens[i].0 != Tok::Punct(';') {
                    i += 1;
                }
                header = i + 1;
            }
            Tok::Ident("fn") => {
                if let Some((Tok::Ident(name), def_line)) = tokens.get(i + 1) {
                    let free = blocks.iter().all(|&is_mod| is_mod);
                    if free && !file.in_test[*def_line] && is_plain_pub(&tokens[header..i]) {
                        out.free_pub_fns.push((name, *def_line));
                    }
                    // The defined name is not a use of itself.
                    i += 1;
                }
            }
            Tok::Ident(name) => {
                let set = if file.in_test[*line0] {
                    &mut out.test_uses
                } else {
                    &mut out.uses
                };
                set.insert(name);
            }
            Tok::Punct(_) => {}
        }
        i += 1;
    }
    out
}

/// `pub fn`, `pub const fn`, `pub async unsafe fn`, … — but not
/// `pub(crate) fn` (rustc's own `dead_code` covers crate-private items).
fn is_plain_pub(header: &[(Tok<'_>, usize)]) -> bool {
    let Some(at) = header.iter().rposition(|(t, _)| *t == Tok::Ident("pub")) else {
        return false;
    };
    header[at + 1..].iter().all(|(t, _)| {
        matches!(
            t,
            Tok::Ident("const") | Tok::Ident("async") | Tok::Ident("unsafe")
        )
    })
}

/// The identifier following `pub` / `pub(…)` at `at`.
fn next_ident_after_visibility<'a>(tokens: &[(Tok<'a>, usize)], at: usize) -> Option<&'a str> {
    let mut j = at + 1;
    if tokens.get(j)?.0 == Tok::Punct('(') {
        while tokens.get(j)?.0 != Tok::Punct(')') {
            j += 1;
        }
        j += 1;
    }
    match tokens.get(j)?.0 {
        Tok::Ident(name) => Some(name),
        Tok::Punct(_) => None,
    }
}

/// Identifier and punctuation tokens of the blanked code view, each with
/// its 0-based line. Number literals (`0x0C`, `1e5`, `2usize`) are
/// dropped whole so their letters never read as identifiers.
fn tokenize(file: &SourceFile) -> Vec<(Tok<'_>, usize)> {
    let mut tokens = Vec::new();
    for (line0, line) in file.code.iter().enumerate() {
        let mut rest = line.as_str();
        while let Some(c) = rest.chars().next() {
            if c.is_alphanumeric() || c == '_' {
                let end = rest
                    .find(|c: char| !c.is_alphanumeric() && c != '_')
                    .unwrap_or(rest.len());
                if !c.is_numeric() {
                    tokens.push((Tok::Ident(&rest[..end]), line0));
                }
                rest = &rest[end..];
            } else {
                if !c.is_whitespace() {
                    tokens.push((Tok::Punct(c), line0));
                }
                rest = &rest[c.len_utf8()..];
            }
        }
    }
    tokens
}
