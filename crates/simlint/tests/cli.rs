//! CLI contract tests: flag parsing, exit codes, and the `--list-rules`
//! table (asserted verbatim so the CLI, the rule registry, and the docs
//! cannot drift apart).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test when their setup cannot hold"
)]

use std::path::Path;
use std::process::Command;

fn simlint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root")
}

#[test]
fn list_rules_prints_the_exact_rule_table() {
    let out = simlint().arg("--list-rules").output().expect("run simlint");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let expected = "\
unordered-map          no HashMap/HashSet tokens where iteration order can leak (token)
wall-clock             no std::time/Instant/SystemTime in the cycle-accurate stack (token)
nondet-iteration       no iteration over unordered containers, through aliases (semantic)
float-reduction-order  no order-sensitive float reduction over unordered/parallel sources (semantic)
determinism-taint      no nondeterministic value may flow into result records (dataflow)
shared-mut-parallel    no shared mutable state written in parallel closures on the result path (dataflow)
";
    assert_eq!(stdout, expected);
}

#[test]
fn clean_workspace_exits_zero_with_no_findings() {
    let out = simlint().arg(workspace_root()).output().expect("run simlint");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    assert!(String::from_utf8_lossy(&out.stderr).contains(" 0 violation(s)"));
}

#[test]
fn audit_waivers_flag_exits_zero_when_all_live() {
    let out = simlint().arg(workspace_root()).arg("--audit-waivers").output().expect("run simlint");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("stale waiver"));
}

/// `[ROOT]`, `--audit-waivers`, `--list-rules` and `--help` are the whole
/// surface: the retired report formats and filters are unknown flags.
#[test]
fn unknown_and_retired_flags_fail_with_usage() {
    for flag in ["--bogus", "--json", "--format", "--out", "--changed-only", "--time-budget"] {
        let out = simlint().arg(flag).output().expect("run simlint");
        assert!(!out.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("unknown flag {flag}")), "{flag}: {stdout}");
        assert!(stdout.contains("usage:"), "{flag}");
    }
}
