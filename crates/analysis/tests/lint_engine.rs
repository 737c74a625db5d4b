//! Lint-engine tests: the fixture corpus pins every rule's positives
//! and negatives, and the self-lint test asserts the committed baseline
//! is exactly what linting this workspace produces — so CI's
//! `safeloc_lint --check` gate and `cargo test` can never disagree.

use safeloc_analysis::lint::dead_pub::dead_pub;
use safeloc_analysis::lint::{
    default_baseline_path, lint_text, lint_workspace, load_baseline, Finding, SourceFile,
};
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
fn wire_frame_bad_fixture_reports_duplicate_gap_and_coupling() {
    let findings = lint_text(
        "crates/wire/src/frame.rs",
        "wire",
        &fixture("wire_frame_bad.rs"),
    );
    let counts = by_rule(&findings);
    assert_eq!(counts.get("wire-tag-unique"), Some(&1), "{findings:#?}");
    // 0x03 and 0x04 are two separate gap findings.
    assert_eq!(counts.get("wire-tag-dense"), Some(&2), "{findings:#?}");
    assert_eq!(counts.get("wire-schema-bump"), Some(&1), "{findings:#?}");
    let coupling = findings
        .iter()
        .find(|f| f.rule == "wire-schema-bump")
        .unwrap();
    assert!(coupling.excerpt.contains("schema=7"), "{coupling:?}");
}

#[test]
fn wire_frame_good_fixture_yields_only_the_coupling_record() {
    let findings = lint_text(
        "crates/wire/src/frame.rs",
        "wire",
        &fixture("wire_frame_good.rs"),
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "wire-schema-bump");
    assert!(findings[0]
        .excerpt
        .contains("tags=[0x01,0x02,0x03,0x04] schema=2"));
}

#[test]
fn frame_rules_only_fire_on_the_frame_module() {
    let findings = lint_text(
        "crates/wire/src/conn.rs",
        "wire",
        &fixture("wire_frame_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
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

/// The self-lint: linting this workspace must reproduce the committed
/// baseline exactly — zero new findings, zero stale entries. This is the
/// same invariant CI's `safeloc_lint --check` enforces, pinned here so a
/// plain `cargo test -q` catches drift without the extra CI step.
#[test]
fn workspace_lint_exactly_reproduces_the_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace lints");
    let baseline_path = default_baseline_path(&root);
    let baseline = load_baseline(&baseline_path)
        .unwrap_or_else(|e| panic!("baseline {} unreadable: {e}", baseline_path.display()));
    let diff = baseline.check(&findings);
    assert!(
        diff.is_clean(),
        "workspace lint drifted from {}:\n  new: {:#?}\n  stale: {:?}\n  schema: {:?}\n\
         (run `cargo run --bin safeloc_lint -- --bless` after reviewing)",
        baseline_path.display(),
        diff.new,
        diff.stale,
        diff.schema_conflict,
    );
    // The committed baseline is not an empty formality: it pins the two
    // intentional wire records (the historical 0x0D gap and the
    // tag-table ↔ WIRE_SCHEMA coupling).
    assert_eq!(baseline.accepted(), 2);
}
