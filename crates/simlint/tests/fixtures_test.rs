//! Fixture-based rule tests: each rule has a violation fixture that must
//! trip it and a waived fixture that must pass clean. Fixtures live in
//! `tests/fixtures/` (not compiled, excluded from workspace linting) and
//! are linted *as if* they sat at an in-scope workspace path.

use simlint::rules::lint_source;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint a fixture as if it lived at `rel` inside the workspace.
fn lint_fixture(name: &str, rel: &str) -> Vec<simlint::Finding> {
    lint_source(rel, &fixture(name))
}

#[test]
fn d1_fixture_trips_and_waiver_clears() {
    let f = lint_fixture("d1_unordered_map_violation.rs", "crates/simcore/src/fx.rs");
    assert!(!f.is_empty(), "violation fixture must trip");
    assert!(f.iter().all(|f| f.rule == "unordered-map"), "{f:?}");
    let w = lint_fixture("d1_unordered_map_waived.rs", "crates/simcore/src/fx.rs");
    assert!(w.is_empty(), "waived fixture must be clean: {w:?}");
}

#[test]
fn d2_fixture_trips_and_waiver_clears() {
    let f = lint_fixture("d2_wall_clock_violation.rs", "crates/simcore/src/fx.rs");
    assert!(f.iter().any(|f| f.rule == "wall-clock"), "{f:?}");
    let w = lint_fixture("d2_wall_clock_waived.rs", "crates/simcore/src/fx.rs");
    assert!(w.is_empty(), "waived fixture must be clean: {w:?}");
    // The same source in the harness crate is out of scope entirely.
    let bench = lint_fixture("d2_wall_clock_violation.rs", "crates/bench/src/fx.rs");
    assert!(bench.iter().all(|f| f.rule != "wall-clock"), "{bench:?}");
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let f = lint_fixture("d1_unordered_map_violation.rs", "crates/simcore/src/fx.rs");
    let line = f[0].to_string();
    assert!(
        line.starts_with("crates/simcore/src/fx.rs:2: unordered-map — "),
        "unexpected rendering: {line}"
    );
}

#[test]
fn d7_fixture_trips_and_waiver_clears() {
    let f = lint_fixture("d7_nondet_iteration_violation.rs", "crates/simcore/src/fx.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "nondet-iteration");
    let w = lint_fixture("d7_nondet_iteration_waived.rs", "crates/simcore/src/fx.rs");
    assert!(w.is_empty(), "waived fixture must be clean: {w:?}");
}

#[test]
fn d8_fixture_trips_and_waiver_clears() {
    let f = lint_fixture("d8_float_reduction_violation.rs", "crates/simcore/src/fx.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "float-reduction-order");
    let w = lint_fixture("d8_float_reduction_waived.rs", "crates/simcore/src/fx.rs");
    assert!(w.is_empty(), "waived fixture must be clean: {w:?}");
}

#[test]
fn d11_fixture_trips_with_path_and_waiver_clears() {
    let f = lint_fixture("d11_determinism_taint_violation.rs", "crates/workloads/src/fx.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "determinism-taint");
    // The message must carry the full interprocedural source -> sink path.
    assert!(f[0].message.contains("wall-clock read `Instant::now()`"), "{}", f[0].message);
    assert!(f[0].message.contains("`started`"), "{}", f[0].message);
    assert!(f[0].message.contains("`wall`"), "{}", f[0].message);
    assert!(f[0].message.contains("construction of `RunManifest`"), "{}", f[0].message);
    let w = lint_fixture("d11_determinism_taint_waived.rs", "crates/workloads/src/fx.rs");
    assert!(w.is_empty(), "waived fixture must be clean: {w:?}");
    // bench reads clocks legitimately: out of scope.
    let b = lint_fixture("d11_determinism_taint_violation.rs", "crates/bench/src/fx.rs");
    assert!(b.iter().all(|f| f.rule != "determinism-taint"), "{b:?}");
}

#[test]
fn d13_fixture_trips_and_waiver_clears() {
    let f = lint_fixture("d13_shared_mut_parallel_violation.rs", "crates/workloads/src/fx.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "shared-mut-parallel");
    assert!(f[0].message.contains("mutable capture `xs`"), "{}", f[0].message);
    let w = lint_fixture("d13_shared_mut_parallel_waived.rs", "crates/workloads/src/fx.rs");
    assert!(w.is_empty(), "waived fixture must be clean: {w:?}");
}

#[test]
fn same_site_findings_collapse_and_order_is_stable() {
    // One call site whose callee reaches two distinct sink lines: both
    // cross-fn findings land on the same (rule, file, line) and must
    // collapse to one deterministic entry.
    let src = "pub struct RunRecord { pub a: f64, pub b: f64 }\n\
               pub fn emit(v: f64) {\n\
                 let r1 = RunRecord { a: v, b: 0.0 };\n\
                 let r2 = RunRecord { a: 0.0, b: v };\n\
               }\n\
               pub fn go() {\n\
                 let t = Instant::now().secs();\n\
                 emit(t);\n\
               }\n";
    let ws = simlint::Workspace::from_sources(&[("crates/workloads/src/fx.rs", src)]);
    let findings = ws.lint();
    let at_call: Vec<_> =
        findings.iter().filter(|f| f.line == 8 && f.rule == "determinism-taint").collect();
    assert_eq!(at_call.len(), 1, "same-(rule,file,line) findings collapse: {findings:?}");
    // And the report is sorted by (file, line, rule).
    let mut sorted = findings.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    assert_eq!(findings, sorted);
}
