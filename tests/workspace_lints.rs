//! The lint configuration binds the packages it is meant to bind.
//!
//! `[workspace.lints]` (unsafe code forbidden, unwrap/expect denied,
//! truncating casts warned) applies only to packages that opt in, and the
//! root `clippy.toml`'s determinism bans apply only to packages with no
//! nearer `clippy.toml`: clippy reads the nearest file above a package and
//! does not merge it with the root one.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
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

/// The root package and every crate must carry `[lints] workspace = true`.
#[test]
fn every_package_opts_in_to_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    for entry in std::fs::read_dir(root().join("crates")).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 9, "walk shrank unexpectedly: {manifests:?}");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| !opts_in_to_workspace_lints(&std::fs::read_to_string(m).expect("manifest")))
        .map(|m| m.display().to_string())
        .collect();
    assert!(missing.is_empty(), "packages without `[lints] workspace = true`: {missing:?}");
}

/// Every `clippy.toml` under `dir`, skipping build output and hidden dirs.
fn clippy_configs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                clippy_configs(&path, out)?;
            }
        } else if name == "clippy.toml" || name == ".clippy.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// A new per-crate `clippy.toml` would silently drop the determinism bans
/// for that crate; only the harness and the vendored stand-ins are exempt.
#[test]
fn only_bench_and_vendor_replace_the_root_clippy_config() {
    let mut found = Vec::new();
    clippy_configs(root(), &mut found).expect("walk the workspace");
    let mut rel: Vec<String> = found
        .iter()
        .map(|p| p.strip_prefix(root()).expect("under root").to_string_lossy().replace('\\', "/"))
        .collect();
    rel.sort();
    assert_eq!(rel, ["clippy.toml", "crates/bench/clippy.toml", "vendor/clippy.toml"]);
}

/// The root file names every banned type and method.
#[test]
fn root_clippy_config_bans_hash_seeds_clocks_and_thread_identity() {
    let config = std::fs::read_to_string(root().join("clippy.toml")).expect("root clippy.toml");
    let banned = |key: &str| -> Vec<String> {
        let start = config.find(&format!("{key} = [")).unwrap_or_else(|| panic!("no {key}"));
        let list = &config[start..start + config[start..].find("\n]").expect("list end")];
        list.split("path = \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quote")].to_string())
            .collect()
    };
    let types = banned("disallowed-types");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::time::Duration",
    ] {
        assert!(types.iter().any(|t| t == path), "disallowed-types lacks {path}");
    }
    let methods = banned("disallowed-methods");
    for path in ["std::time::Instant::now", "std::time::SystemTime::now", "std::thread::current"] {
        assert!(methods.iter().any(|m| m == path), "disallowed-methods lacks {path}");
    }
}
