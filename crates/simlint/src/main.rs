#![forbid(unsafe_code)]
//! CLI driver: `cargo run -p simlint [--release] -- [ROOT] [FLAGS]`.
//!
//! Lints every owned source under the workspace root (auto-detected from
//! the current directory unless given), prints one
//! `file:line: rule — message` per finding, and exits non-zero when
//! anything is found.
//!
//! Flags:
//! - `--audit-waivers`    report stale waivers instead of findings
//! - `--list-rules`       print the rule table and exit
//! - `--help`             usage

use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    root: Option<PathBuf>,
    audit_waivers: bool,
    list_rules: bool,
}

fn usage() -> String {
    format!(
        "usage: simlint [ROOT] [--audit-waivers] [--list-rules]\n\n\
         rules: {}\n\
         waiver: // simlint::allow(<rule>): <reason>  (covers its line and the next)",
        simlint::RULES.join(", ")
    )
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli { root: None, audit_waivers: false, list_rules: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => return Err(usage()),
            "--audit-waivers" => cli.audit_waivers = true,
            "--list-rules" => cli.list_rules = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}\n\n{}", usage()))
            }
            path if cli.root.is_none() => cli.root = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument {extra}\n\n{}", usage())),
        }
    }
    Ok(cli)
}

/// The `--list-rules` table, exact output asserted by an integration
/// test so docs and CLI cannot drift apart.
fn rule_listing() -> String {
    let mut out = String::new();
    for rule in simlint::RULES {
        out.push_str(&format!("{rule:<22} {}\n", simlint::rules::describe(rule)));
    }
    out
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            println!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if cli.list_rules {
        print!("{}", rule_listing());
        return ExitCode::SUCCESS;
    }

    let root = match cli.root {
        Some(root) => root,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("simlint: cannot read current directory: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match simlint::find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("simlint: no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let ws = match simlint::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("simlint: walking {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let (findings, what) = if cli.audit_waivers {
        (ws.audit_waivers(), "stale waiver(s)")
    } else {
        (ws.lint(), "violation(s)")
    };
    for f in &findings {
        println!("{f}");
    }
    eprintln!("simlint: {} files checked, {} {what}", ws.files.len(), findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
