//! Fixture tests: every rule must fire on its seeded violation file, stay
//! silent on the corrected form, and honor the annotated escape hatch —
//! including rejecting an annotation that carries no reason, and any
//! annotation for `panic-free-decode`, which admits no waiver.

use seizure_lint::{classify, crate_forbid_diagnostic, scan_file, Rule};

const NAN_BAD: &str = include_str!("../fixtures/nan_ordering_bad.rs");
const NAN_GOOD: &str = include_str!("../fixtures/nan_ordering_good.rs");
const NAN_ALLOWED: &str = include_str!("../fixtures/nan_ordering_allowed.rs");
const NAN_NO_REASON: &str = include_str!("../fixtures/nan_ordering_no_reason.rs");
const DECODE_BAD: &str = include_str!("../fixtures/decode_bad.rs");
const DECODE_GOOD: &str = include_str!("../fixtures/decode_good.rs");
const DECODE_WAIVED: &str = include_str!("../fixtures/decode_waived.rs");
const HOT_PATH: &str = include_str!("../fixtures/hot_path.rs");
const DETERMINISM_BAD: &str = include_str!("../fixtures/determinism_bad.rs");
const UNSAFE_AUDIT: &str = include_str!("../fixtures/unsafe_audit.rs");

fn rule_lines(src: &str, label: &str, rule: Rule) -> Vec<usize> {
    scan_file(label, src)
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule.name())
        .map(|d| d.line)
        .collect()
}

#[test]
fn nan_ordering_fires_on_every_seeded_pattern() {
    let lines = rule_lines(NAN_BAD, "crates/dsp/src/fixture.rs", Rule::NanOrdering);
    // sort_by + unwrap, max_by + expect, and the multi-line unwrap_or(Equal).
    assert_eq!(lines, vec![5, 12, 20]);
}

#[test]
fn nan_ordering_applies_to_test_scope_too() {
    // The repo keeps even test code violation-free, so test paths are in
    // scope for this rule (unlike determinism/panic-free-decode).
    let lines = rule_lines(NAN_BAD, "crates/ml/tests/fixture.rs", Rule::NanOrdering);
    assert_eq!(lines.len(), 3);
}

#[test]
fn nan_ordering_silent_on_corrected_form() {
    let report = scan_file("crates/dsp/src/fixture.rs", NAN_GOOD);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn nan_ordering_honors_both_allow_placements() {
    let report = scan_file("crates/dsp/src/fixture.rs", NAN_ALLOWED);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn allow_without_reason_is_rejected_and_violation_survives() {
    let report = scan_file("crates/dsp/src/fixture.rs", NAN_NO_REASON);
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"lint-annotation"), "{rules:?}");
    assert!(rules.contains(&Rule::NanOrdering.name()), "{rules:?}");
}

#[test]
fn unknown_rule_in_allow_is_rejected() {
    let src = "// lint: allow(no-such-rule) — because\nfn f() {}\n";
    let report = scan_file("crates/dsp/src/fixture.rs", src);
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].rule, "lint-annotation");
}

#[test]
fn unused_allow_is_rejected() {
    let src = "// lint: allow(nan-ordering) — stale exemption\nfn f() {}\n";
    let report = scan_file("crates/dsp/src/fixture.rs", src);
    assert_eq!(report.diagnostics.len(), 1);
    assert!(report.diagnostics[0].message.contains("unused"));
}

#[test]
fn panic_free_decode_fires_inside_persist_only() {
    let lines = rule_lines(
        DECODE_BAD,
        "crates/ml/src/persist/fixture.rs",
        Rule::PanicFreeDecode,
    );
    // bytes[..8], panic!, the expect + [12..20] line (two findings), the
    // unwrap line, and unreachable! — the cfg(test) block stays silent.
    assert_eq!(lines, vec![5, 6, 8, 8, 9, 16]);

    // The same file outside the persist surface is out of scope.
    let elsewhere = rule_lines(DECODE_BAD, "crates/ml/src/flat.rs", Rule::PanicFreeDecode);
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn panic_free_decode_silent_on_checked_reads() {
    let lines = rule_lines(
        DECODE_GOOD,
        "crates/ml/src/persist/fixture.rs",
        Rule::PanicFreeDecode,
    );
    assert!(lines.is_empty(), "{lines:?}");
}

#[test]
fn panic_free_decode_admits_no_waiver() {
    let label = "crates/ml/src/persist/fixture.rs";
    // Both annotations are findings themselves (standalone and trailing)...
    let report = scan_file(label, DECODE_WAIVED);
    let annotations: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lint-annotation")
        .map(|d| d.line)
        .collect();
    assert_eq!(annotations, vec![6, 12], "{:?}", report.diagnostics);
    assert!(report.diagnostics[0].message.contains("cannot be waived"));
    // ...and the literal index and the unwrap they cover still fire.
    let lines = rule_lines(DECODE_WAIVED, label, Rule::PanicFreeDecode);
    assert_eq!(lines, vec![7, 12]);
}

#[test]
fn hot_path_alloc_fires_only_inside_marked_blocks() {
    let lines = rule_lines(
        HOT_PATH,
        "crates/features/src/fixture.rs",
        Rule::HotPathAlloc,
    );
    // Seven allocations in `hot` (Box::new and .clone() share a line);
    // `cold` allocates freely; `hot_clean` is silent; the annotated
    // exemption in `hot_with_exemption` is honored.
    assert_eq!(lines, vec![7, 8, 9, 9, 11, 12, 13]);
}

#[test]
fn determinism_fires_in_scope_and_only_outside_tests() {
    let lines = rule_lines(
        DETERMINISM_BAD,
        "crates/ml/src/fixture.rs",
        Rule::Determinism,
    );
    // use HashMap, thread_rng, Instant::now, HashMap return type, and
    // HashMap::new — the HashSet inside cfg(test) stays silent.
    assert_eq!(lines, vec![3, 7, 12, 15, 16]);

    // The same code in a non-deterministic-scope crate is out of scope.
    let data = rule_lines(
        DETERMINISM_BAD,
        "crates/data/src/fixture.rs",
        Rule::Determinism,
    );
    assert!(data.is_empty(), "{data:?}");

    // ... and in test files of in-scope crates.
    let tests = rule_lines(
        DETERMINISM_BAD,
        "crates/ml/tests/fixture.rs",
        Rule::Determinism,
    );
    assert!(tests.is_empty(), "{tests:?}");
}

#[test]
fn unsafe_audit_requires_adjacent_safety_comment() {
    let lines = rule_lines(
        UNSAFE_AUDIT,
        "crates/parallel/src/fixture.rs",
        Rule::UnsafeAudit,
    );
    // Only the undocumented block fires.
    assert_eq!(lines, vec![9]);
}

#[test]
fn unsafe_free_crate_must_forbid_unsafe() {
    let missing = crate_forbid_diagnostic("demo", "crates/demo/src/lib.rs", false, false);
    assert!(missing.is_some());
    let diag = missing.unwrap();
    assert_eq!(diag.rule, Rule::UnsafeAudit.name());
    assert_eq!(diag.line, 1);

    // Present attribute, or a crate that really uses unsafe: no finding.
    assert!(crate_forbid_diagnostic("demo", "crates/demo/src/lib.rs", false, true).is_none());
    assert!(crate_forbid_diagnostic("demo", "crates/demo/src/lib.rs", true, false).is_none());
}

#[test]
fn scan_file_reports_unsafe_census() {
    let report = scan_file("crates/parallel/src/fixture.rs", UNSAFE_AUDIT);
    assert!(report.has_unsafe);
    assert!(!report.has_forbid_unsafe);
    let report = scan_file("crates/parallel/src/lib.rs", "#![forbid(unsafe_code)]\n");
    assert!(!report.has_unsafe);
    assert!(report.has_forbid_unsafe);
}

#[test]
fn classification_scopes_paths() {
    let persist = classify("crates/ml/src/persist/journal.rs");
    assert_eq!(persist.crate_dir.as_deref(), Some("ml"));
    assert!(persist.in_persist);
    assert!(!persist.is_test_file);

    let bench = classify("crates/bench/benches/retrain.rs");
    assert!(bench.is_test_file);

    let root_example = classify("examples/quickstart.rs");
    assert!(root_example.is_test_file);
    assert_eq!(root_example.crate_dir, None);
}

#[test]
fn the_workspace_itself_is_violation_free() {
    // The acceptance criterion as a test: the real tree must carry zero
    // unannotated violations at all times.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (diagnostics, files) = seizure_lint::lint_workspace(&root).expect("scan");
    assert!(files > 50, "unexpectedly small scan: {files} files");
    assert!(
        diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
