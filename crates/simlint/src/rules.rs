//! The rule pass: the workspace's determinism invariants over two
//! layers — token patterns (D1, D2) and AST/dataflow checks (D7, D8, D11,
//! D13).
//!
//! Each rule has a kebab-case name used both in reports and in waivers:
//!
//! | rule                    | invariant                                                       |
//! |-------------------------|-----------------------------------------------------------------|
//! | `unordered-map`         | D1: no `HashMap`/`HashSet` where iteration order can leak       |
//! | `wall-clock`            | D2: no `std::time`/`Instant`/`SystemTime` in simulator crates   |
//! | `nondet-iteration`      | D7: no iteration over unordered containers, through aliases     |
//! | `float-reduction-order` | D8: no order-sensitive float reduction over unordered/parallel  |
//! | `determinism-taint`     | D11: no nondeterministic value may reach result records         |
//! | `shared-mut-parallel`   | D13: no shared mutable state in parallel closures on results    |
//! | `waiver-syntax`         | a malformed waiver is itself a violation (not waivable)         |
//! | `parse-error`           | simlint's own parser must read every owned file (not waivable)  |
//! | `stale-waiver`          | `--audit-waivers` only: waiver with no live finding             |
//!
//! The numbers D3–D6, D9, D10 and D12 belonged to rules that compiler
//! and clippy lints now enforce, or that were retired (DESIGN.md §6).
//!
//! A waiver is a line comment `// simlint::allow(<rule>): <reason>` with a
//! mandatory non-empty reason; it silences that one rule on its own line
//! and on the line directly below (so it can trail the offending line or
//! sit just above it).

use crate::ast::{File, FnDef, ItemKind};
use crate::callgraph::CallGraph;
use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::resolve::{FnScope, Resolver, TyClass};
use std::fmt;

/// All waivable rule names, for waiver validation and `--list-rules`.
pub const RULES: [&str; 6] = [
    "unordered-map",
    "wall-clock",
    "nondet-iteration",
    "float-reduction-order",
    "determinism-taint",
    "shared-mut-parallel",
];

/// One-line description per rule (kept in sync with README by a test).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "unordered-map" => "no HashMap/HashSet tokens where iteration order can leak (token)",
        "wall-clock" => "no std::time/Instant/SystemTime in the cycle-accurate stack (token)",
        "nondet-iteration" => "no iteration over unordered containers, through aliases (semantic)",
        "float-reduction-order" => {
            "no order-sensitive float reduction over unordered/parallel sources (semantic)"
        }
        "determinism-taint" => "no nondeterministic value may flow into result records (dataflow)",
        "shared-mut-parallel" => {
            "no shared mutable state written in parallel closures on the result path (dataflow)"
        }
        _ => "",
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (workspace-relative when driven by `Workspace`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (kebab-case, waivable) or `waiver-syntax`/`parse-error`.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} — {}", self.file, self.line, self.rule, self.message)
    }
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Directory name under `crates/` (`simcore`, `bench`, ...), or
    /// `root` for the top-level facade crate.
    pub crate_name: String,
    /// Integration-test code (`crates/<c>/tests/`, root `tests/`):
    /// parsed for symbols and waiver hygiene, exempt from rules.
    pub is_test: bool,
}

impl FileCtx {
    /// Derive the context from a workspace-relative path like
    /// `crates/simcore/src/cache.rs`. The linter owns crate sources and
    /// integration tests plus the top-level `src/` facade and root
    /// `tests/`; it returns None for fixture trees (intentionally dirty)
    /// and anything else (benches, vendored shims).
    pub fn from_rel_path(rel: &str) -> Option<FileCtx> {
        let rel = rel.replace('\\', "/");
        if rel.split('/').any(|seg| seg == "fixtures") {
            return None;
        }
        let parts: Vec<&str> = rel.split('/').collect();
        let (crate_name, is_test) = match parts.as_slice() {
            ["crates", c, "src", ..] => (*c, false),
            ["crates", c, "tests", ..] => (*c, true),
            ["src", ..] => ("root", false),
            ["tests", ..] => ("root", true),
            _ => return None,
        };
        Some(FileCtx { crate_name: crate_name.to_string(), is_test })
    }

    pub(crate) fn rule_applies(&self, rule: &str) -> bool {
        if self.is_test {
            return false;
        }
        match rule {
            // Result-aggregation and simulator state live everywhere but
            // the harness crate (bench aggregates for printing only) and
            // the linter itself.
            "unordered-map" => !matches!(self.crate_name.as_str(), "bench" | "simlint"),
            // Time belongs to bench (wall-clock reporting) and to the
            // workloads manifest recorder; the simulation stack is
            // cycle-accurate and must never read host clocks. simstate is
            // in scope so checkpoint retries stay count-bounded, never
            // backoff-timed; simserve is in scope so daemon liveness
            // comes from blocking I/O and condvars, never timeouts.
            "wall-clock" => {
                matches!(
                    self.crate_name.as_str(),
                    "simcore" | "core" | "kernels" | "graph" | "simtel" | "simstate" | "simserve"
                )
            }
            // The semantic rules guard result determinism everywhere but
            // the linter's own sources (which deliberately exercise
            // forbidden shapes in fixtures/tests).
            "nondet-iteration" => !matches!(self.crate_name.as_str(), "bench" | "simlint"),
            "float-reduction-order" => self.crate_name != "simlint",
            // D11 anchors at the sink: bench legitimately reads clocks
            // for wall-time reporting, and the linter's own sources
            // exercise forbidden shapes.
            "determinism-taint" => !matches!(self.crate_name.as_str(), "bench" | "simlint"),
            "shared-mut-parallel" => self.crate_name != "simlint",
            _ => false,
        }
    }
}

/// A parsed waiver: rule name + location (the reason was validated at
/// parse time).
#[derive(Debug)]
pub struct Waiver {
    pub line: u32,
    pub rule: String,
}

const WAIVER_MARK: &str = "simlint::allow(";

pub(crate) fn parse_waivers(comments: &[Comment]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Doc comments (`///` -> text starts with '/', `//!` -> '!') talk
        // *about* waivers; they never are one.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(start) = c.text.find(WAIVER_MARK) else { continue };
        let after = &c.text[start + WAIVER_MARK.len()..];
        let bad = |msg: &str| Finding {
            file: String::new(),
            line: c.line,
            rule: "waiver-syntax",
            message: msg.to_string(),
        };
        let Some(close) = after.find(')') else {
            errors.push(bad("waiver is missing the closing ')'"));
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            errors.push(bad(&format!(
                "unknown rule '{rule}' in waiver (known: {})",
                RULES.join(", ")
            )));
            continue;
        }
        let rest = &after[close + 1..];
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            errors.push(bad(&format!(
                "waiver for '{rule}' needs a reason: `// simlint::allow({rule}): <why>`"
            )));
            continue;
        }
        waivers.push(Waiver { line: c.line, rule });
    }
    (waivers, errors)
}

/// Mark every token that belongs to test-only code: items annotated
/// `#[cfg(test)]` (or `#[cfg(all(test, ...))]` etc.) or `#[test]`. The
/// attribute's argument tokens just need to contain the `test` ident.
fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching ']'.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_test_attr = false;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if tokens[j].kind == TokKind::Ident => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip further attributes, then the item they decorate: either a
        // braced body (fn/mod/impl) or a `;`-terminated item.
        let item_end = {
            let mut k = j;
            loop {
                match tokens.get(k).map(|t| t.text.as_str()) {
                    Some("#") if tokens.get(k + 1).map(|t| t.text.as_str()) == Some("[") => {
                        let mut d = 1i32;
                        k += 2;
                        while k < tokens.len() && d > 0 {
                            match tokens[k].text.as_str() {
                                "[" => d += 1,
                                "]" => d -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    Some("{") => {
                        let mut d = 1i32;
                        k += 1;
                        while k < tokens.len() && d > 0 {
                            match tokens[k].text.as_str() {
                                "{" => d += 1,
                                "}" => d -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        break k;
                    }
                    Some(";") => break k + 1,
                    Some(_) => k += 1,
                    None => break k,
                }
            }
        };
        for m in mask.iter_mut().take(item_end).skip(i) {
            *m = true;
        }
        i = item_end;
    }
    mask
}

/// Run every applicable token rule (D1, D2) over one lexed file. Findings
/// come back without a file name; the caller attaches it.
pub(crate) fn token_findings(ctx: &FileCtx, lexed: &Lexed) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let in_test = test_mask(tokens);
    let mut findings = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        findings.push(Finding { file: String::new(), line, rule, message });
    };

    let d1 = ctx.rule_applies("unordered-map");
    let d2 = ctx.rule_applies("wall-clock");

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if d1 => push(
                t.line,
                "unordered-map",
                format!(
                    "{} iteration order is nondeterministic and can reach results or \
                     manifests; use BTreeMap/BTreeSet (or sort before iterating)",
                    t.text
                ),
            ),
            "Instant" | "SystemTime" if d2 => push(
                t.line,
                "wall-clock",
                format!(
                    "{} reads the host clock inside the cycle-accurate stack; time \
                     belongs only to bench and manifest recording",
                    t.text
                ),
            ),
            // `std :: time` — the bare module path (covers `use std::time::...`).
            "time"
                if d2
                    && i >= 3
                    && tokens[i - 1].text == ":"
                    && tokens[i - 2].text == ":"
                    && tokens[i - 3].text == "std" =>
            {
                push(
                    t.line,
                    "wall-clock",
                    "std::time is wall-clock; simulated time is the only clock allowed here"
                        .to_string(),
                );
            }
            _ => {}
        }
    }

    findings
}

// ---------------------------------------------------------------------------
// Semantic rules (D7, D8; D11 and D13 live in `dataflow`)
// ---------------------------------------------------------------------------

/// One file's view handed to the semantic pass; indices into the slice
/// are the file ids used by the resolver and call graph.
pub struct Unit<'a> {
    pub rel: &'a str,
    pub ctx: Option<&'a FileCtx>,
    pub file: &'a File,
}

fn fns_of(item: &ItemKind) -> Vec<(Option<&str>, &FnDef)> {
    match item {
        ItemKind::Fn(f) => vec![(None, f.as_ref())],
        ItemKind::Impl(ib) => ib.fns.iter().map(|f| (Some(ib.self_ty.as_str()), f)).collect(),
        ItemKind::Trait { name, fns } => fns.iter().map(|f| (Some(name.as_str()), f)).collect(),
        _ => Vec::new(),
    }
}

/// Is the accumulation target provably float-typed in this scope?
fn accum_is_float(
    resolver: &Resolver,
    fi: usize,
    scope: &FnScope<'_>,
    acc: &crate::ast::AccumSite,
) -> bool {
    if acc.rhs_float {
        return true;
    }
    if let Some(body) = &scope.f.body {
        if let Some(l) = body.locals.iter().find(|l| l.name == acc.target) {
            if l.float_init {
                return true;
            }
            if let Some(ty) = &l.ty {
                return resolver.classify(fi, ty) == TyClass::Float;
            }
        }
    }
    for (name, ty) in &scope.f.params {
        if name == &acc.target {
            return resolver.classify(fi, ty) == TyClass::Float;
        }
    }
    if let Some(self_ty) = scope.self_ty {
        let fty = resolver.field_ty(fi, self_ty, std::slice::from_ref(&acc.target));
        if resolver.classify(fi, &fty) == TyClass::Float {
            return true;
        }
    }
    false
}

/// Run D7, D8, D11 and D13 across the whole workspace. Findings carry
/// their file.
pub fn semantic_findings(units: &[Unit<'_>]) -> Vec<Finding> {
    let files: Vec<&File> = units.iter().map(|u| u.file).collect();
    let resolver = Resolver::new(&files);
    let graph = CallGraph::build(&files, &resolver);
    let mut findings: Vec<Finding> = Vec::new();

    // ---- D7 / D8: per-file walks -----------------------------------------
    for (fi, unit) in units.iter().enumerate() {
        let Some(ctx) = unit.ctx else { continue };
        let d7 = ctx.rule_applies("nondet-iteration");
        let d8 = ctx.rule_applies("float-reduction-order");
        if !(d7 || d8) {
            continue;
        }
        let mut push = |line: u32, rule: &'static str, message: String| {
            findings.push(Finding { file: unit.rel.to_string(), line, rule, message });
        };
        for item in &unit.file.items {
            if item.cfg_test {
                continue;
            }
            for (self_ty, f) in fns_of(&item.kind) {
                if f.cfg_test {
                    continue;
                }
                let Some(body) = &f.body else { continue };
                let scope = FnScope { self_ty, f };
                for fl in &body.for_loops {
                    let info = resolver.chain_source(fi, &scope, &fl.source);
                    if info.class != TyClass::Unordered {
                        continue;
                    }
                    if d7 {
                        push(
                            fl.line,
                            "nondet-iteration",
                            "for-loop over an unordered container (resolved through \
                             aliases/fields): iteration order is nondeterministic and can \
                             reach results or manifests; use a BTree container or sort first"
                                .to_string(),
                        );
                    }
                    if d8 {
                        for acc in &body.accum_sites {
                            if acc.pos >= fl.body.0
                                && acc.pos < fl.body.1
                                && accum_is_float(&resolver, fi, &scope, acc)
                            {
                                push(
                                    acc.line,
                                    "float-reduction-order",
                                    format!(
                                        "float accumulation into `{}` inside a loop over an \
                                         unordered source: float addition is not associative, \
                                         so the result depends on iteration order",
                                        acc.target
                                    ),
                                );
                            }
                        }
                    }
                }
                for call in &body.method_calls {
                    let name = call.name.as_str();
                    if !((d7 && name == "for_each")
                        || (d8 && matches!(name, "sum" | "product" | "fold" | "reduce")))
                    {
                        continue;
                    }
                    let info = resolver.chain_source(fi, &scope, &call.receiver);
                    if d7 && name == "for_each" && info.class == TyClass::Unordered {
                        push(
                            call.line,
                            "nondet-iteration",
                            "for_each over an unordered container: iteration order is \
                             nondeterministic; use a BTree container or sort first"
                                .to_string(),
                        );
                    }
                    if d8 {
                        let float_turbofish = call
                            .turbofish
                            .as_ref()
                            .is_some_and(|t| matches!(t.base.as_str(), "f32" | "f64"));
                        let fires = match name {
                            "sum" | "product" => {
                                float_turbofish
                                    && (info.class == TyClass::Unordered || info.parallel)
                            }
                            "fold" | "reduce" => info.class == TyClass::Unordered,
                            _ => false,
                        };
                        if fires {
                            push(
                                call.line,
                                "float-reduction-order",
                                format!(
                                    ".{name}() over an {} sequence: non-associative \
                                     reduction order must be deterministic — aggregate from \
                                     an ordered source (slice, BTree) instead",
                                    if info.parallel { "unordered/parallel" } else { "unordered" }
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    // ---- D11 / D13: interprocedural taint dataflow -----------------------
    findings.extend(crate::dataflow::Dataflow::run(units, &files, &resolver, &graph));

    findings
}

/// Lint one file's source. `rel` is the path used in reports and for rule
/// scoping; sources outside the linter's ownership produce no findings.
/// Single-file convenience over [`crate::Workspace`] — cross-file
/// symbols are invisible here.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    crate::Workspace::from_sources(&[(rel, src)]).lint()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    const SIM_FILE: &str = "crates/simcore/src/cache.rs";

    // ---- D1 ----

    #[test]
    fn d1_flags_hashmap_and_waiver_silences_it() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
        let f = lint_as(SIM_FILE, src);
        assert_eq!(rules_of(&f), ["unordered-map", "unordered-map"]);
        assert_eq!(f[0].line, 1);

        let waived = "// simlint::allow(unordered-map): scratch map, never iterated\n\
                      use std::collections::HashMap;\n";
        assert!(lint_as(SIM_FILE, waived).is_empty());
    }

    #[test]
    fn d1_skips_bench_and_test_modules() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_as("crates/bench/src/lib.rs", src).iter().all(|f| f.rule != "unordered-map"));
        let test_mod = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(lint_as(SIM_FILE, test_mod).is_empty());
    }

    // ---- D2 ----

    #[test]
    fn d2_flags_wall_clock_in_sim_crates_only() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().all(|f| f.rule == "wall-clock"));
        assert!(f.len() >= 2, "both the import and the use site: {f:?}");
        // workloads records wall time into manifests; out of D2 scope.
        assert!(lint_as("crates/workloads/src/matrix.rs", src)
            .iter()
            .all(|f| f.rule != "wall-clock"));
    }

    #[test]
    fn d2_waiver_works() {
        let src = "fn f() { let t = Instant::now(); } \
                   // simlint::allow(wall-clock): progress display only\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- D7 ----

    #[test]
    fn d7_sees_through_use_alias_type_alias_and_fields() {
        // The HashMap token is aliased away, so D1 can't see it in the
        // using file — D7 resolves it.
        let ws = crate::Workspace::from_sources(&[
            (
                "crates/core/src/types.rs",
                "// simlint::allow(unordered-map): alias definition only, D7 guards iteration\n\
                 use std::collections::HashMap as FastMap;\n\
                 pub type RouteTable = FastMap<u64, u64>;\n",
            ),
            (
                "crates/core/src/router.rs",
                "use crate::types::RouteTable;\n\
                 pub struct Router { table: RouteTable }\n\
                 impl Router {\n\
                   pub fn dump(&self) { for e in self.table.values() { work(e); } }\n\
                 }\n",
            ),
        ]);
        let f = ws.lint();
        assert_eq!(rules_of(&f), ["nondet-iteration"], "{f:?}");
        assert_eq!(f[0].file, "crates/core/src/router.rs");
        assert_eq!(f[0].line, 4, "{f:?}");
    }

    #[test]
    fn d7_passes_ordered_and_unknown_sources() {
        let src = "struct S { m: BTreeMap<u64, u64>, v: Vec<u64> }\n\
                   impl S {\n\
                     fn f(&self, other: &Unknown) {\n\
                       for x in self.m.values() {}\n\
                       for y in self.v.iter() {}\n\
                       for z in other.things() {}\n\
                     }\n\
                   }\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    #[test]
    fn d7_flags_for_each_and_accepts_waiver() {
        let src = "fn f() {\n\
                     let m = HashMap::new();\n\
                     m.keys().for_each(|k| work(k));\n\
                   }\n";
        // Line 2 gets D1 (HashMap token); line 3 gets D7.
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().any(|f| f.rule == "nondet-iteration" && f.line == 3), "{f:?}");
        let waived = "fn f() {\n\
                      let m = HashMap::new(); // simlint::allow(unordered-map): local scratch\n\
                      // simlint::allow(nondet-iteration): side-effect-free count\n\
                      m.keys().for_each(|k| work(k));\n\
                    }\n";
        assert!(lint_as(SIM_FILE, waived).is_empty());
    }

    // ---- D8 ----

    #[test]
    fn d8_flags_float_accumulation_over_unordered_source() {
        let src = "struct S { shares: HashMap<u64, f64> }\n\
                   impl S {\n\
                     fn total(&self) -> f64 {\n\
                       let mut sum = 0.0;\n\
                       for v in self.shares.values() { sum += v; }\n\
                       sum\n\
                     }\n\
                   }\n";
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().any(|f| f.rule == "float-reduction-order" && f.line == 5), "{f:?}");
        // The loop itself is also nondeterministic iteration.
        assert!(f.iter().any(|f| f.rule == "nondet-iteration" && f.line == 5));
    }

    #[test]
    fn d8_flags_float_sum_turbofish_over_unordered_or_parallel() {
        let unordered = "struct S { m: HashSet<u64> }\n\
                         impl S { fn f(&self) -> f64 { self.m.iter().map(|x| 1.0).sum::<f64>() } }\n";
        let f = lint_as(SIM_FILE, unordered);
        assert!(f.iter().any(|f| f.rule == "float-reduction-order"), "{f:?}");

        let par = "fn f(xs: &Vec<f64>) -> f64 { xs.par_iter().cloned().sum::<f64>() }\n";
        let f = lint_as(SIM_FILE, par);
        assert_eq!(rules_of(&f), ["float-reduction-order"], "{f:?}");
    }

    #[test]
    fn d8_passes_ordered_reductions() {
        // The geomean shape: slice iteration, float sum — ordered, fine.
        let src = "pub fn geomean(xs: &[f64]) -> f64 {\n\
                     let s: f64 = xs.iter().map(|x| x.ln()).sum::<f64>();\n\
                     (s / xs.len() as f64).exp()\n\
                   }\n\
                   fn sums(v: &Vec<f64>) -> f64 {\n\
                     let mut acc = 0.0;\n\
                     for x in v.iter() { acc += x; }\n\
                     acc\n\
                   }\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- waiver hygiene ----

    #[test]
    fn malformed_waivers_are_violations() {
        let no_reason = "// simlint::allow(unordered-map):\nuse std::collections::HashMap;\n";
        let f = lint_as(SIM_FILE, no_reason);
        assert!(f.iter().any(|f| f.rule == "waiver-syntax"), "{f:?}");
        assert!(
            f.iter().any(|f| f.rule == "unordered-map"),
            "reasonless waiver must not waive: {f:?}"
        );

        // A retired rule name is as unknown as a made-up one.
        for rule in ["no-such-rule", "panic-path"] {
            let unknown = format!("// simlint::allow({rule}): whatever\n");
            let f = lint_as(SIM_FILE, &unknown);
            assert_eq!(rules_of(&f), ["waiver-syntax"], "{rule}");
        }
    }

    #[test]
    fn waiver_only_silences_its_own_rule() {
        let src = "// simlint::allow(wall-clock): wrong rule on purpose\n\
                   use std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint_as(SIM_FILE, src)), ["unordered-map"]);
    }

    #[test]
    fn stale_waivers_are_audited() {
        let ws = crate::Workspace::from_sources(&[(
            "crates/simcore/src/cache.rs",
            "// simlint::allow(unordered-map): stale — nothing below hashes anymore\n\
             fn f(x: u32) -> u32 { x }\n\
             fn g() {\n\
               let m = HashMap::new(); // simlint::allow(unordered-map): live waiver\n\
             }\n",
        )]);
        let stale = ws.audit_waivers();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, "stale-waiver");
        assert_eq!(stale[0].line, 1);
    }

    // ---- path ownership ----

    #[test]
    fn fixtures_are_ignored_and_root_crate_is_linted() {
        let dirty = "use std::collections::HashMap;\n";
        assert!(lint_as("crates/simlint/tests/fixtures/d1.rs", dirty).is_empty());
        // The top-level src/ facade is owned by the linter.
        assert_eq!(rules_of(&lint_as("src/lib.rs", dirty)), ["unordered-map"]);
        // Integration tests are parsed but exempt from rules...
        assert!(lint_as("tests/kernel_correctness.rs", dirty).is_empty());
        assert!(lint_as("crates/simcore/tests/engine.rs", dirty).is_empty());
        // ...except waiver hygiene.
        let bad_waiver = "// simlint::allow(bogus-rule): nope\nfn t() {}\n";
        let f = lint_as("tests/kernel_correctness.rs", bad_waiver);
        assert_eq!(rules_of(&f), ["waiver-syntax"]);
    }

    #[test]
    fn rule_table_and_descriptions_cover_all_rules() {
        for rule in RULES {
            assert!(!describe(rule).is_empty(), "missing description for {rule}");
        }
    }
}
