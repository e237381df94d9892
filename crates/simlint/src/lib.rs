#![forbid(unsafe_code)]
//! `simlint` — a self-contained static-analysis pass for this workspace's
//! determinism invariants.
//!
//! The paper's evaluation depends on bit-identical, replayable simulations
//! (parallel sweeps are pinned byte-for-byte to sequential runs, golden
//! end-state fixtures pin every system config). Generic invariants —
//! no `unwrap`, no prints in simulator crates, no `unsafe`, no truncating
//! casts in `simcore` — are compiler and clippy lints (`[workspace.lints]`
//! in the root `Cargo.toml`). What no off-the-shelf lint can see is where
//! a nondeterministic value may reach a result, so this crate checks that
//! directly, in three layers:
//!
//! 1. **Token rules** (D1, D2): a real lexer strips comments/strings, then
//!    line-local patterns flag `HashMap`/`HashSet` and host-clock reads.
//! 2. **Semantic rules** (D7, D8): a hand-written recursive-descent
//!    [`parser`] builds a lightweight AST per file, [`resolve`] assembles
//!    a workspace symbol table (use/type aliases, struct field types),
//!    and the rules check alias-resistant unordered iteration and float
//!    reduction order.
//! 3. **Dataflow rules** (D11, D13): [`callgraph`] resolves call sites to
//!    fn definitions and [`dataflow`] propagates taint from
//!    nondeterministic sources into result records.
//!
//! See [`rules`] for the rule table and waiver syntax, and README.md /
//! DESIGN.md §6 for the architecture and how to add a rule.
//!
//! Drive it as `cargo run -p simlint` (non-zero exit on findings) or via
//! [`Workspace`] from tests.

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;

pub use rules::{FileCtx, Finding, RULES};

use rules::Waiver;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One lexed + parsed source file inside a [`Workspace`].
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Lint context; `None` for files the linter does not own (fixtures).
    pub ctx: Option<FileCtx>,
    pub lexed: lexer::Lexed,
    pub ast: ast::File,
    pub parse_errors: Vec<parser::ParseError>,
    waivers: Vec<Waiver>,
    waiver_errors: Vec<Finding>,
}

/// The two-phase analysis unit: parse every file, then run token rules
/// per file and semantic rules across the whole set.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Build from in-memory `(rel_path, source)` pairs (tests, and the
    /// single-file [`rules::lint_source`] entry point).
    pub fn from_sources<S: AsRef<str>>(sources: &[(S, S)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(rel, src)| {
                let rel = rel.as_ref().replace('\\', "/");
                let ctx = FileCtx::from_rel_path(&rel);
                let lexed = lexer::lex(src.as_ref());
                let (ast, parse_errors) = parser::parse(&lexed);
                let (waivers, mut waiver_errors) = rules::parse_waivers(&lexed.comments);
                for f in &mut waiver_errors {
                    f.file = rel.clone();
                }
                SourceFile { rel, ctx, lexed, ast, parse_errors, waivers, waiver_errors }
            })
            .collect();
        Workspace { files }
    }

    /// Load every workspace source from disk under `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut sources = Vec::new();
        for path in workspace_sources(root)? {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            sources.push((rel, std::fs::read_to_string(&path)?));
        }
        Ok(Workspace::from_sources(&sources))
    }

    /// All findings before waiver filtering (waiver-syntax errors and
    /// parse errors included — those are never waivable).
    fn raw_findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for sf in &self.files {
            if let Some(ctx) = &sf.ctx {
                let mut fs = rules::token_findings(ctx, &sf.lexed);
                for f in &mut fs {
                    f.file = sf.rel.clone();
                }
                findings.extend(fs);
                for e in &sf.parse_errors {
                    findings.push(Finding {
                        file: sf.rel.clone(),
                        line: e.line,
                        rule: "parse-error",
                        message: format!("simlint's parser could not read this file: {}", e.what),
                    });
                }
                findings.extend(sf.waiver_errors.iter().cloned());
            }
        }
        let units: Vec<rules::Unit<'_>> = self
            .files
            .iter()
            .map(|sf| rules::Unit { rel: &sf.rel, ctx: sf.ctx.as_ref(), file: &sf.ast })
            .collect();
        findings.extend(rules::semantic_findings(&units));
        findings
    }

    /// Lines waived per file per rule (a waiver covers its own line and
    /// the one below).
    fn waived(&self) -> BTreeMap<&str, BTreeMap<&str, Vec<u32>>> {
        let mut map: BTreeMap<&str, BTreeMap<&str, Vec<u32>>> = BTreeMap::new();
        for sf in &self.files {
            let per_file = map.entry(sf.rel.as_str()).or_default();
            for w in &sf.waivers {
                per_file.entry(w.rule.as_str()).or_default().extend([w.line, w.line + 1]);
            }
        }
        map
    }

    /// Run both rule layers and apply waivers; sorted by (file, line,
    /// rule) for deterministic output.
    pub fn lint(&self) -> Vec<Finding> {
        let waived = self.waived();
        let mut findings: Vec<Finding> = self
            .raw_findings()
            .into_iter()
            .filter(|f| {
                !waived
                    .get(f.file.as_str())
                    .and_then(|per| per.get(f.rule))
                    .is_some_and(|lines| lines.contains(&f.line))
            })
            .collect();
        findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        // Collapse same-(rule, file, line) duplicates (e.g. one call site
        // whose callee reaches two sinks) — first message wins, which
        // after the sort is deterministic.
        findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
        findings
    }

    /// The stale-waiver audit: report every well-formed waiver whose rule
    /// produces no raw finding on the waived lines — dead comments that
    /// would silently mask a future regression.
    pub fn audit_waivers(&self) -> Vec<Finding> {
        let raw = self.raw_findings();
        let mut stale = Vec::new();
        for sf in &self.files {
            for w in &sf.waivers {
                let live = raw.iter().any(|f| {
                    f.file == sf.rel
                        && f.rule == w.rule
                        && (f.line == w.line || f.line == w.line + 1)
                });
                if !live {
                    stale.push(Finding {
                        file: sf.rel.clone(),
                        line: w.line,
                        rule: "stale-waiver",
                        message: format!(
                            "waiver for '{}' no longer matches a finding on line {} or {}; \
                             delete it so it cannot mask a future regression",
                            w.rule,
                            w.line,
                            w.line + 1
                        ),
                    });
                }
            }
        }
        stale.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        stale
    }
}

/// Collect every `.rs` file the linter owns: `crates/*` (src and tests),
/// the top-level `src/` facade, and root `tests/`, sorted for
/// deterministic output. Skips `target/`, vendored shims under
/// `vendor/`, and fixture trees (`fixtures/` directories hold
/// intentionally dirty sources).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> =
        ["crates", "src", "tests"].iter().map(|d| root.join(d)).filter(|p| p.is_dir()).collect();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "fixtures" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml` and `crates/`).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(Workspace::load(root)?.lint())
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
