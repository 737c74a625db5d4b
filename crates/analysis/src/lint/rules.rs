//! The rule catalog: every repo invariant `safeloc_lint` enforces.
//!
//! Rules are lexical (see [`super::source`]) and deliberately
//! over-approximate: a finding means "this line *looks like* it violates
//! the invariant". Two escape hatches keep that workable as a hard CI
//! gate that fails on any finding:
//!
//! 1. **Justification comments** — a comment containing the rule's
//!    token (`det:`, `panic-ok:`, `relaxed:`, `seqcst:`, `pub-ok:`) on the
//!    flagged line or within [`JUSTIFY_WINDOW`] lines above it suppresses
//!    the finding. The token must carry a reason; reviewers see it inline.
//!    `det-fused-arith` takes none by design.
//! 2. **Test code is exempt** — lines under `#[cfg(test)]` / `#[test]`
//!    are skipped by the production-path rules (`panic-*`, `det-*`).
//!    Atomic-ordering rules apply everywhere: a test that models
//!    orderings wrongly is still wrong.

use super::source::SourceFile;

/// Crates whose defense/training trajectories are bitwise-pinned: any
/// nondeterminism here silently weakens the poisoning defenses without
/// failing an accuracy test.
pub const PINNED_CRATES: &[&str] = &["fl", "nn", "core", "baselines"];

/// Crates whose request-handling paths run on attacker-controlled input
/// and must never panic (typed `WireError` / `ServeError` instead).
pub const PANIC_FREE_CRATES: &[&str] = &["serve", "wire"];

/// Justification comments are honored on the flagged line or up to this
/// many lines above it (multi-line statements: one comment above a
/// `compare_exchange` covers both of its `Ordering` arguments).
pub const JUSTIFY_WINDOW: usize = 6;

/// One catalog entry, rendered by `--list-rules` and the README table.
pub struct RuleInfo {
    /// Stable rule id (finding key).
    pub id: &'static str,
    /// Where it applies.
    pub scope: &'static str,
    /// What it enforces and why.
    pub rationale: &'static str,
    /// Inline suppression token, if the rule has one.
    pub justify: Option<&'static str>,
}

/// The full catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det-hash-iter",
        scope: "bitwise-pinned crates (fl, nn, core, baselines)",
        rationale: "HashMap/HashSet iteration order is randomized per process; iterating one on \
                    a defense or training path makes trajectories nondeterministic, which is \
                    exactly the regression an adaptive poisoning adversary exploits. Sort keys \
                    or use a Vec/BTreeMap.",
        justify: Some("det:"),
    },
    RuleInfo {
        id: "det-wall-clock",
        scope: "bitwise-pinned crates",
        rationale: "Instant::now/SystemTime readings feeding returned values break bitwise \
                    reproducibility. Wall-clock telemetry that never feeds model state must say \
                    so with a `det:` justification.",
        justify: Some("det:"),
    },
    RuleInfo {
        id: "det-ambient-rng",
        scope: "bitwise-pinned crates",
        rationale: "thread_rng/from_entropy/OsRng draw from ambient process entropy; every \
                    random choice on a pinned path must come from an explicit per-scenario \
                    seed.",
        justify: Some("det:"),
    },
    RuleInfo {
        id: "det-par-float-reduce",
        scope: "bitwise-pinned crates",
        rationale: "Floating-point reduction over a parallel iterator (`par_iter().sum()`, \
                    `.reduce(...)`) folds in scheduling order; f32 addition is not associative, \
                    so results vary by thread count. Collect in order, then fold sequentially.",
        justify: Some("det:"),
    },
    RuleInfo {
        id: "det-fused-arith",
        scope: "non-test code of every workspace crate except crates/nn/src/kernels.rs",
        rationale: "`mul_add` rounds a·b + c once where `a * b + c` rounds twice, so it moves \
                    output bits. The matrix kernels' group sums are the one place that \
                    contracts, under safeloc-bench's tolerance contract (tolerance.rs); a \
                    `mul_add` anywhere else changes results the contract never checked. Route \
                    the arithmetic through safeloc_nn::kernels or write the multiply and the \
                    add apart.",
        justify: None,
    },
    RuleInfo {
        id: "panic-path",
        scope: "request-handling crates (serve, wire), non-test code",
        rationale: "unwrap/expect/panic! on the serving and wire paths turn attacker-controlled \
                    input into a process abort. Return typed WireError/ServeError/RegistryError \
                    instead; a genuinely infallible site documents why with `panic-ok:`.",
        justify: Some("panic-ok:"),
    },
    RuleInfo {
        id: "atomic-relaxed-justify",
        scope: "all workspace crates",
        rationale: "Every Ordering::Relaxed must carry a `relaxed:` comment explaining why no \
                    synchronization edge is needed. Relaxed is usually right for monotonic \
                    counters and flags — the comment is the audit trail that someone checked.",
        justify: Some("relaxed:"),
    },
    RuleInfo {
        id: "atomic-seqcst-audit",
        scope: "all workspace crates",
        rationale: "Ordering::SeqCst is flagged where Acquire/Release suffices: a `seqcst:` \
                    comment must state which cross-variable total-order property needs it, \
                    otherwise downgrade (hand-rolled lock-free code should spend exactly the \
                    ordering it needs).",
        justify: Some("seqcst:"),
    },
    RuleInfo {
        id: "dead-pub",
        scope: "free `pub fn` and inherent-impl `pub fn` in non-test code under crates/*/src",
        rationale: "rustc's dead_code stops at `pub`: a library function whose last caller was \
                    deleted stays exported, documented and unit-tested. A free or inherent \
                    `pub fn` whose name occurs nowhere else in the repo's Rust sources — \
                    comments, strings, `pub use` re-exports and the defining file's own \
                    #[cfg(test)] code do not count as uses — is a finding: delete it or give \
                    it its caller. Any same-named token counts as a use, so a collision can \
                    hide a dead method but never invent one. Trait-impl methods, fields, \
                    variants, types and consts are out of scope.",
        justify: Some("pub-ok:"),
    },
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from the catalog.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line the finding points at.
    pub excerpt: String,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    pub(super) fn new(
        rule: &'static str,
        file: &SourceFile,
        line0: usize,
        message: String,
    ) -> Self {
        Self {
            rule,
            path: file.path.clone(),
            line: line0 + 1,
            excerpt: file.raw[line0].trim().to_string(),
            message,
        }
    }
}

/// Runs every applicable rule over one parsed file.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let pinned = PINNED_CRATES.contains(&file.crate_name.as_str());
    let panic_free =
        PANIC_FREE_CRATES.contains(&file.crate_name.as_str()) && !file.path.contains("/src/bin/");
    if pinned {
        det_hash_iter(file, &mut findings);
        det_pattern_rule(
            file,
            "det-wall-clock",
            &[
                "Instant::now(",
                "SystemTime::now(",
                "SystemTime::UNIX_EPOCH",
            ],
            "wall-clock reading on a bitwise-pinned path",
            &mut findings,
        );
        det_pattern_rule(
            file,
            "det-ambient-rng",
            &["thread_rng(", "rand::random", "from_entropy(", "OsRng"],
            "ambient (unseeded) randomness on a bitwise-pinned path",
            &mut findings,
        );
        det_par_float_reduce(file, &mut findings);
    }
    if !file.path.ends_with(FUSED_ARITH_HOME) {
        det_fused_arith(file, &mut findings);
    }
    if panic_free {
        panic_path(file, &mut findings);
    }
    atomic_orderings(file, &mut findings);
    findings
}

pub(super) fn justified(file: &SourceFile, line0: usize, token: &str) -> bool {
    let lo = line0.saturating_sub(JUSTIFY_WINDOW);
    file.comment_window_contains(lo, line0, token)
}

/// Production-path (non-test) lines only.
fn prod_lines(file: &SourceFile) -> impl Iterator<Item = (usize, &str)> {
    file.code
        .iter()
        .enumerate()
        .filter(|&(i, _)| !file.in_test[i])
        .map(|(i, l)| (i, l.as_str()))
}

fn det_pattern_rule(
    file: &SourceFile,
    rule: &'static str,
    patterns: &[&str],
    what: &str,
    findings: &mut Vec<Finding>,
) {
    for (i, line) in prod_lines(file) {
        for pat in patterns {
            if line.contains(pat) && !justified(file, i, "det:") {
                findings.push(Finding::new(rule, file, i, format!("{what} ({pat})")));
                break;
            }
        }
    }
}

/// The one file allowed to contract a multiply and an add.
const FUSED_ARITH_HOME: &str = "crates/nn/src/kernels.rs";

fn det_fused_arith(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, line) in prod_lines(file) {
        let called = line.match_indices("mul_add(").any(|(pos, _)| {
            line[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
        });
        if called {
            findings.push(Finding::new(
                "det-fused-arith",
                file,
                i,
                format!("`mul_add` outside {FUSED_ARITH_HOME}, the one place the tolerance contract covers"),
            ));
        }
    }
}

/// Methods whose call on a hash collection observes iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain()",
];

fn det_hash_iter(file: &SourceFile, findings: &mut Vec<Finding>) {
    // Pass 1: names lexically bound to a HashMap/HashSet in this file
    // (let bindings, fields, params — `name: HashMap<…>` / `= HashMap::`).
    let mut hash_names: Vec<String> = Vec::new();
    for (_, line) in prod_lines(file) {
        for ty in ["HashMap", "HashSet"] {
            for pat in [format!(": {ty}<"), format!(": {ty} <")] {
                if let Some(pos) = line.find(&pat) {
                    if let Some(name) = ident_before(line, pos) {
                        hash_names.push(name);
                    }
                }
            }
            let assign = format!("= {ty}::");
            if let Some(pos) = line.find(&assign) {
                if let Some(name) = ident_before(line, pos) {
                    hash_names.push(name);
                }
            }
            // `RwLock<HashMap<…>>` fields: the guard is usually read into
            // a local of the same name; catch `let name = …` on lines
            // mentioning the type too.
            if line.contains(&format!("{ty}<")) && line.trim_start().starts_with("let ") {
                if let Some(name) = let_binding_name(line) {
                    hash_names.push(name);
                }
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();

    // Pass 2: iteration over those names, or directly over a hash type.
    for (i, line) in prod_lines(file) {
        let mut hit = None;
        for m in HASH_ITER_METHODS {
            if let Some(pos) = line.find(m) {
                // Receiver identifier directly before the method call.
                if let Some(recv) = ident_before(line, pos) {
                    if hash_names.contains(&recv) {
                        hit = Some(format!("`{recv}{m}` iterates a hash collection"));
                        break;
                    }
                }
            }
        }
        if hit.is_none() {
            for name in &hash_names {
                for pat in [
                    format!("in {name}"),
                    format!("in &{name}"),
                    format!("in &mut {name}"),
                ] {
                    if let Some(pos) = line.find(&pat) {
                        let end = pos + pat.len();
                        let boundary_ok = line[end..]
                            .chars()
                            .next()
                            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                        let before_ok = pos == 0
                            || line[..pos]
                                .chars()
                                .next_back()
                                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                        if boundary_ok && before_ok && line.contains("for ") {
                            hit = Some(format!("`for … {pat}` iterates a hash collection"));
                            break;
                        }
                    }
                }
                if hit.is_some() {
                    break;
                }
            }
        }
        if let Some(msg) = hit {
            if !justified(file, i, "det:") {
                findings.push(Finding::new(
                    "det-hash-iter",
                    file,
                    i,
                    format!("{msg}; iteration order is nondeterministic"),
                ));
            }
        }
    }
}

/// The identifier (or `ident()` call receiver) ending right before `pos`.
fn ident_before(line: &str, pos: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut end = pos;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            start -= 1;
        } else {
            break;
        }
    }
    if start == end {
        return None;
    }
    Some(line[start..end].to_string())
}

fn let_binding_name(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| rest[..end].to_string())
}

/// Unordered-reduction methods that close a parallel chain.
const PAR_REDUCE_METHODS: &[&str] = &[".sum()", ".sum::<", ".product()", ".product::<", ".reduce("];
/// How many lines after a `par_*` adapter a chained reduction is searched.
const PAR_CHAIN_WINDOW: usize = 6;

fn det_par_float_reduce(file: &SourceFile, findings: &mut Vec<Finding>) {
    let starts = [
        "par_iter(",
        "par_iter_mut(",
        "into_par_iter(",
        "par_chunks(",
        "par_bridge(",
    ];
    let lines: Vec<(usize, &str)> = prod_lines(file).collect();
    for w in 0..lines.len() {
        let (i, line) = lines[w];
        if !starts.iter().any(|s| line.contains(s)) {
            continue;
        }
        for &(j, later) in lines.iter().skip(w).take(PAR_CHAIN_WINDOW + 1) {
            if let Some(m) = PAR_REDUCE_METHODS.iter().find(|m| later.contains(**m)) {
                if !justified(file, j, "det:") {
                    findings.push(Finding::new(
                        "det-par-float-reduce",
                        file,
                        j,
                        format!(
                            "`{m}` closes a parallel chain started on line {}; float reduction \
                             order depends on scheduling",
                            i + 1
                        ),
                    ));
                }
                break;
            }
            // A sequential collect/for_each ends the chain harmlessly.
            if later.contains(".collect") || later.contains(";") {
                break;
            }
        }
    }
}

const PANIC_PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "unwrap() panics on Err/None"),
    (".expect(", "expect() panics on Err/None"),
    ("panic!(", "explicit panic"),
    ("unreachable!(", "unreachable!() is a panic if ever reached"),
    ("todo!(", "todo!() panics"),
    ("unimplemented!(", "unimplemented!() panics"),
];

fn panic_path(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, line) in prod_lines(file) {
        for (pat, why) in PANIC_PATTERNS {
            if line.contains(pat) && !justified(file, i, "panic-ok:") {
                findings.push(Finding::new(
                    "panic-path",
                    file,
                    i,
                    format!(
                        "{why}; request-handling code must return a typed error \
                         (or justify with `panic-ok:`)"
                    ),
                ));
                break;
            }
        }
    }
}

fn atomic_orderings(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, line) in file.code.iter().enumerate() {
        if line.contains("Ordering::Relaxed") && !justified(file, i, "relaxed:") {
            findings.push(Finding::new(
                "atomic-relaxed-justify",
                file,
                i,
                "Ordering::Relaxed without a `relaxed:` justification comment".to_string(),
            ));
        }
        if line.contains("Ordering::SeqCst") && !justified(file, i, "seqcst:") {
            findings.push(Finding::new(
                "atomic-seqcst-audit",
                file,
                i,
                "Ordering::SeqCst without a `seqcst:` justification — downgrade to \
                 Acquire/Release unless a cross-variable total order is required"
                    .to_string(),
            ));
        }
    }
}
