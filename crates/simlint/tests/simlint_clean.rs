//! The enforcement test: the workspace itself must be simlint-clean.
//! This is what lets CI run the linter as a plain `cargo test` too — a
//! regression that reintroduces nondeterministic iteration, wall-clock
//! reads, or a nondeterministic value flowing into a result record fails
//! here with the exact `file:line: rule — message` list. The generic
//! invariants (no unwrap, no prints, no unsafe, no truncating casts in
//! simcore) are `[workspace.lints]`; the last test here pins that every
//! package opts in to them.

use std::path::Path;

#[test]
fn workspace_is_violation_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/simlint sits two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "not a workspace root: {}", root.display());

    let findings = simlint::lint_workspace(&root).expect("workspace walk failed");
    if !findings.is_empty() {
        let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        panic!(
            "simlint found {} violation(s):\n{}\n\nfix the code or add a \
             `// simlint::allow(<rule>): <reason>` waiver",
            findings.len(),
            report.join("\n")
        );
    }
}

#[test]
fn workspace_walk_sees_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    let files = simlint::workspace_sources(root).expect("walk");
    let as_str: Vec<String> =
        files.iter().map(|p| p.to_string_lossy().replace('\\', "/")).collect();
    for krate in ["simcore", "core", "graph", "kernels", "workloads", "bench", "simlint"] {
        assert!(
            as_str.iter().any(|p| p.contains(&format!("crates/{krate}/src/"))),
            "walk missed crate {krate}"
        );
    }
    // Dirty fixtures must never be walked.
    assert!(as_str.iter().all(|p| !p.contains("/fixtures/")), "fixtures leaked into the walk");
}

/// Parser smoke test: simlint's own recursive-descent parser must read
/// every file it owns without recording a single error — a parse error
/// means the semantic rules silently see less than the whole file.
#[test]
fn parser_reads_every_owned_workspace_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    let ws = simlint::Workspace::load(root).expect("workspace walk failed");
    assert!(ws.files.len() > 100, "walk shrank unexpectedly: {} files", ws.files.len());
    let mut bad = Vec::new();
    for sf in &ws.files {
        if sf.ctx.is_some() && !sf.parse_errors.is_empty() {
            for e in &sf.parse_errors {
                bad.push(format!("{}:{}: {}", sf.rel, e.line, e.what));
            }
        }
    }
    assert!(bad.is_empty(), "parse errors in owned files:\n{}", bad.join("\n"));
}

/// Dataflow smoke test: `lint()` runs the interprocedural taint
/// fixpoint over every owned file, so this asserts the fixpoint
/// converges on the real workspace (a hang here means the summary
/// lattice stopped being monotone) and that two runs over the same
/// tree produce byte-identical reports — the dataflow layer must be as
/// deterministic as the simulator it polices.
#[test]
fn whole_workspace_dataflow_converges_deterministically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    let ws = simlint::Workspace::load(root).expect("workspace walk failed");
    let parse_errors: usize =
        ws.files.iter().filter(|sf| sf.ctx.is_some()).map(|sf| sf.parse_errors.len()).sum();
    assert_eq!(parse_errors, 0, "dataflow over a partially parsed workspace proves nothing");
    let first = ws.lint();
    let second = ws.lint();
    assert_eq!(first, second, "interprocedural lint must be deterministic");
}

/// The workspace's waivers must all be live: a stale waiver would
/// silently mask the next real finding at that location.
#[test]
fn workspace_has_no_stale_waivers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    let ws = simlint::Workspace::load(root).expect("workspace walk failed");
    let stale = ws.audit_waivers();
    let report: Vec<String> = stale.iter().map(|f| f.to_string()).collect();
    assert!(stale.is_empty(), "stale waivers:\n{}", report.join("\n"));
}

/// Does this manifest carry `[lints] workspace = true`?
fn opts_in_to_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// `[workspace.lints]` (unsafe_code forbidden, unwrap/expect denied,
/// truncating casts warned) binds only packages that opt in: the root
/// package and every crate must carry `[lints] workspace = true`.
#[test]
fn every_package_opts_in_to_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "walk shrank unexpectedly: {manifests:?}");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| !opts_in_to_workspace_lints(&std::fs::read_to_string(m).expect("manifest")))
        .map(|m| m.display().to_string())
        .collect();
    assert!(missing.is_empty(), "packages without `[lints] workspace = true`: {missing:?}");
}
