//! Lint-engine tests: the fixture corpus pins every rule's positives
//! and negatives, and the self-lint test asserts this workspace lints
//! clean — so CI's `safeloc_lint --check` gate and `cargo test` can never
//! disagree.

use safeloc_analysis::lint::dead_pub::dead_pub;
use safeloc_analysis::lint::{lint_text, lint_workspace, Finding, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Rule-id histogram of findings, for order-insensitive assertions.
fn by_rule(findings: &[Finding]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    counts
}

#[test]
fn det_violations_fixture_trips_every_determinism_rule() {
    let findings = lint_text(
        "crates/fl/src/fixture.rs",
        "fl",
        &fixture("det_violations.rs"),
    );
    let counts = by_rule(&findings);
    assert_eq!(counts.get("det-hash-iter"), Some(&2), "{findings:#?}");
    assert_eq!(counts.get("det-wall-clock"), Some(&2), "{findings:#?}");
    assert_eq!(counts.get("det-ambient-rng"), Some(&1), "{findings:#?}");
    assert_eq!(
        counts.get("det-par-float-reduce"),
        Some(&1),
        "{findings:#?}"
    );
    // Findings carry usable positions.
    for f in &findings {
        assert!(f.line > 0 && f.path.ends_with("fixture.rs"));
        assert!(!f.excerpt.is_empty() && !f.message.is_empty());
    }
}

#[test]
fn det_clean_fixture_is_silent() {
    let findings = lint_text("crates/fl/src/fixture.rs", "fl", &fixture("det_clean.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn determinism_rules_do_not_apply_outside_pinned_crates() {
    // The same violating source in a non-pinned crate (bench) is fine.
    let findings = lint_text(
        "crates/bench/src/fixture.rs",
        "bench",
        &fixture("det_violations.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

/// `mul_add` is a finding on a production line of any crate — a call in
/// method or path form, not a comment, a string, a longer name or test
/// code — except in the one kernel file the tolerance contract covers.
#[test]
fn fused_arithmetic_is_flagged_outside_the_matrix_kernels() {
    let text = r#"
fn group(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}
fn path_form(a: f32, b: f32, c: f32) -> f32 {
    f32::mul_add(a, b, c)
}
fn lookalikes(x: Normal) -> f32 {
    // a.mul_add(b, c) in a comment
    let _ = "mul_add(";
    x.mul_add_val(1.0, 2.0) + fused_mul_add(1.0)
}
#[cfg(test)]
mod tests {
    fn oracle(a: f32) -> f32 {
        a.mul_add(2.0, 1.0)
    }
}
"#;
    let fused = |path: &str, krate: &str| -> Vec<usize> {
        lint_text(path, krate, text)
            .iter()
            .filter(|f| f.rule == "det-fused-arith")
            .map(|f| f.line)
            .collect()
    };
    assert_eq!(fused("crates/fl/src/fixture.rs", "fl"), [3, 6]);
    assert_eq!(fused("crates/bench/src/fixture.rs", "bench"), [3, 6]);
    assert_eq!(fused("crates/nn/src/tensor.rs", "nn"), [3, 6]);
    assert!(fused("crates/nn/src/kernels.rs", "nn").is_empty());
}

#[test]
fn panic_fixture_flags_each_panic_form_once() {
    let findings = lint_text(
        "crates/serve/src/fixture.rs",
        "serve",
        &fixture("panic_paths.rs"),
    );
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented! — and
    // nothing from the justified/typed/test functions.
    assert_eq!(
        by_rule(&findings).get("panic-path"),
        Some(&6),
        "{findings:#?}"
    );
    assert!(
        findings.iter().all(|f| f.line <= 17),
        "justified or test code was flagged: {findings:#?}"
    );
}

#[test]
fn panic_rules_do_not_apply_outside_request_handling_crates() {
    let findings = lint_text("crates/fl/src/fixture.rs", "fl", &fixture("panic_paths.rs"));
    assert!(
        findings.iter().all(|f| f.rule != "panic-path"),
        "{findings:#?}"
    );
}

#[test]
fn atomics_fixture_flags_unjustified_orderings_only() {
    let findings = lint_text(
        "crates/telemetry/src/fixture.rs",
        "telemetry",
        &fixture("atomics.rs"),
    );
    let counts = by_rule(&findings);
    assert_eq!(
        counts.get("atomic-relaxed-justify"),
        Some(&1),
        "{findings:#?}"
    );
    assert_eq!(counts.get("atomic-seqcst-audit"), Some(&1), "{findings:#?}");
}

#[test]
fn dead_pub_fixture_flags_uncalled_free_pub_fns_only() {
    let defs = SourceFile::parse(
        "crates/bench/src/fixture.rs",
        "bench",
        &fixture("dead_pub_defs.rs"),
    );
    let callers = SourceFile::parse("tests/fixture.rs", "", &fixture("dead_pub_callers.rs"));
    let findings = dead_pub(&[defs], &[callers]);
    assert!(findings.iter().all(|f| f.rule == "dead-pub"));
    let flagged: Vec<&str> = findings
        .iter()
        .map(|f| {
            let name = f.excerpt.split("fn ").nth(1).expect("a fn definition line");
            &name[..name.find('(').expect("a parameter list")]
        })
        .collect();
    // Silent: called, tested from another file, justified, pub(crate),
    // a method.
    assert_eq!(
        flagged,
        [
            "fixture_orphan",
            "fixture_reexported_only",
            "fixture_tested_here_only",
            "fixture_mentioned_in_prose",
            "fixture_nested_orphan",
        ],
        "{findings:#?}"
    );
}

/// The self-lint: this workspace has no findings. This is the same
/// invariant CI's `safeloc_lint --check` enforces, pinned here so a
/// plain `cargo test -q` catches a regression without the extra CI step.
#[test]
fn workspace_lint_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace lints");
    assert!(
        findings.is_empty(),
        "justify each site inline or fix it: {findings:#?}"
    );
}
