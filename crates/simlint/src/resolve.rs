//! Workspace symbol table + type approximation.
//!
//! Maps the [`crate::ast`] facts onto the five coarse type classes the
//! semantic rules need. Resolution sees through `use` aliases (per file),
//! `type` aliases (workspace-wide), struct field types, local `let`
//! annotations / constructors / `collect::<T>()` turbofish, and fn
//! parameters. Everything it cannot prove is [`TyClass::Other`] — rules
//! only ever fire on a *positive* classification, so unknown stays quiet.

use crate::ast::{Chain, ChainBase, File, FnDef, ItemKind, TypeRef};
use std::collections::BTreeMap;

/// Coarse type classification, exactly as fine as D7, D8 and D11 need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TyClass {
    /// Iteration order is nondeterministic: `HashMap`, `HashSet`,
    /// `BinaryHeap` (its `iter` is arbitrary-order).
    Unordered,
    /// Deterministic iteration order: B-trees, `Vec`, slices, tuples.
    Ordered,
    /// `f32` / `f64`.
    Float,
    /// `simtel::TelemetryHandle` (a D11 serialization sink).
    TelHandle,
    /// Everything unproven.
    Other,
}

/// What a for-loop source / reduction receiver chain resolves to.
#[derive(Debug, Clone, Copy)]
pub struct SourceInfo {
    /// Order class of the produced *sequence* (propagated through
    /// iterator adapters).
    pub class: TyClass,
    /// The chain goes through a rayon `par_iter`-family method.
    pub parallel: bool,
    /// The produced *value* depends on the iteration order of an
    /// unordered container — sticky through unknown methods (`collect`,
    /// `fold`, user methods), cleared by order-insensitive terminators
    /// (`count`, `max`, ...). This is what D11 calls an
    /// iteration-order taint source.
    pub tainted_order: bool,
}

/// Resolution context for one fn body.
pub struct FnScope<'a> {
    /// Base name of the impl self type, when inside an `impl`.
    pub self_ty: Option<&'a str>,
    pub f: &'a FnDef,
}

/// Container → iterator methods: the produced sequence iterates the
/// container itself, so its order class carries over.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Sequence adapters that preserve the source's order class.
const ADAPTERS: [&str; 22] = [
    "map",
    "filter",
    "filter_map",
    "enumerate",
    "rev",
    "zip",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "chain",
    "flatten",
    "flat_map",
    "cloned",
    "copied",
    "inspect",
    "peekable",
    "fuse",
    "step_by",
    "windows",
    "chunks",
    "by_ref",
];

/// Rayon entry points: order class preserved, `parallel` set.
pub(crate) const PAR_METHODS: [&str; 5] =
    ["par_iter", "par_iter_mut", "into_par_iter", "par_chunks", "par_bridge"];

/// Constructor tails that name the constructed type (`HashMap::new()`).
const CTORS: [&str; 6] = ["new", "with_capacity", "default", "from", "from_iter", "with_hasher"];

/// Sequence terminators whose result does *not* depend on iteration
/// order (`sum`/`product` are order-sensitive for floats, but that case
/// is D8's — for integer counters they are order-free).
const ORDER_INSENSITIVE: [&str; 12] = [
    "count",
    "len",
    "max",
    "min",
    "sum",
    "any",
    "all",
    "is_empty",
    "contains",
    "max_by_key",
    "min_by_key",
    "product",
];

fn classify_name(name: &str) -> TyClass {
    match name {
        "HashMap" | "HashSet" | "BinaryHeap" => TyClass::Unordered,
        "BTreeMap" | "BTreeSet" | "Vec" | "VecDeque" | "[slice]" | "(tuple)" | "String" => {
            TyClass::Ordered
        }
        "f32" | "f64" => TyClass::Float,
        "TelemetryHandle" => TyClass::TelHandle,
        _ => TyClass::Other,
    }
}

/// The workspace symbol table.
pub struct Resolver {
    /// struct base name → field name → approximate field type.
    structs: BTreeMap<String, BTreeMap<String, TypeRef>>,
    /// workspace `type` aliases: alias name → target (one step).
    type_aliases: BTreeMap<String, TypeRef>,
    /// Per-file `use` aliases: local name → real (last) path segment.
    file_uses: Vec<BTreeMap<String, String>>,
    /// Workspace-wide `use ... as` renames, for cross-crate re-export
    /// chains (`crate a` renames, `crate b` re-exports, `crate c`
    /// consumes). Aliases that conflict across files or shadow a
    /// workspace struct / type alias are dropped — an unresolved name
    /// classifies as `Other`, which no rule fires on.
    global_renames: BTreeMap<String, String>,
}

impl Resolver {
    /// Build the table from every parsed file (index order is the file
    /// id used in later queries). Test-gated items still contribute —
    /// symbols are symbols; rules decide what to skip.
    ///
    /// Type aliases and struct field types are *normalized through the
    /// defining file's `use` aliases* before entering the workspace-wide
    /// tables: a consumer of `type RouteTable = FastMap<..>` cannot see
    /// the defining file's `use HashMap as FastMap`, so the table must
    /// already say `HashMap`.
    pub fn new(files: &[&File]) -> Resolver {
        fn chase(uses: &BTreeMap<String, String>, name: &str) -> String {
            let mut cur = name.to_string();
            for _ in 0..8 {
                match uses.get(&cur) {
                    Some(real) if *real != cur => cur = real.clone(),
                    _ => break,
                }
            }
            cur
        }
        fn normalize(uses: &BTreeMap<String, String>, ty: &TypeRef) -> TypeRef {
            TypeRef {
                base: chase(uses, &ty.base),
                args: ty.args.iter().map(|a| normalize(uses, a)).collect(),
            }
        }

        let mut file_uses: Vec<BTreeMap<String, String>> = Vec::with_capacity(files.len());
        for file in files {
            let mut uses = BTreeMap::new();
            for item in &file.items {
                if let ItemKind::Use { path, alias } = &item.kind {
                    if let Some(last) = path.last() {
                        if alias != last {
                            uses.insert(alias.clone(), last.clone());
                        }
                    }
                }
            }
            file_uses.push(uses);
        }

        let mut structs: BTreeMap<String, BTreeMap<String, TypeRef>> = BTreeMap::new();
        let mut type_aliases = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            let uses = &file_uses[fi];
            for item in &file.items {
                match &item.kind {
                    ItemKind::TypeAlias { name, target } => {
                        type_aliases.insert(name.clone(), normalize(uses, target));
                    }
                    ItemKind::Struct { name, fields } => {
                        let entry = structs.entry(name.clone()).or_default();
                        for f in fields {
                            entry.insert(f.name.clone(), normalize(uses, &f.ty));
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut global_renames: BTreeMap<String, String> = BTreeMap::new();
        let mut conflicted: Vec<String> = Vec::new();
        for uses in &file_uses {
            for (alias, target) in uses {
                if structs.contains_key(alias) || type_aliases.contains_key(alias) {
                    continue;
                }
                let resolved = chase(uses, target);
                match global_renames.get(alias) {
                    Some(prev) if *prev != resolved => conflicted.push(alias.clone()),
                    _ => {
                        global_renames.insert(alias.clone(), resolved);
                    }
                }
            }
        }
        for alias in conflicted {
            global_renames.remove(&alias);
        }

        Resolver { structs, type_aliases, file_uses, global_renames }
    }

    /// Resolve a type base name through this file's `use` aliases and
    /// the workspace `type` aliases (bounded chase).
    pub fn resolve_base(&self, file: usize, name: &str) -> String {
        let mut cur = name.to_string();
        for _ in 0..8 {
            if let Some(real) = self.file_uses.get(file).and_then(|u| u.get(&cur)) {
                if *real != cur {
                    cur = real.clone();
                    continue;
                }
            }
            if let Some(target) = self.type_aliases.get(&cur) {
                if target.base != cur {
                    cur = target.base.clone();
                    continue;
                }
            }
            if let Some(real) = self.global_renames.get(&cur) {
                if *real != cur {
                    cur = real.clone();
                    continue;
                }
            }
            break;
        }
        cur
    }

    /// Classify an approximate type, resolving aliases first.
    pub fn classify(&self, file: usize, ty: &TypeRef) -> TyClass {
        classify_name(&self.resolve_base(file, &ty.base))
    }

    /// Resolve an alias-aware `TypeRef`, replacing the base with its
    /// final name (generic args of the alias target are kept when the
    /// alias had none of its own).
    fn resolve_ty(&self, file: usize, ty: &TypeRef) -> TypeRef {
        // One level of full-alias expansion keeps `type Index =
        // HashMap<u64, Entry>` usable for element lookups.
        let mut cur = ty.clone();
        for _ in 0..8 {
            if let Some(real) = self.file_uses.get(file).and_then(|u| u.get(&cur.base)) {
                if *real != cur.base {
                    cur.base = real.clone();
                    continue;
                }
            }
            if let Some(target) = self.type_aliases.get(&cur.base) {
                if target.base != cur.base {
                    let keep_args =
                        if cur.args.is_empty() { target.args.clone() } else { cur.args };
                    cur = TypeRef { base: target.base.clone(), args: keep_args };
                    continue;
                }
            }
            if let Some(real) = self.global_renames.get(&cur.base) {
                if *real != cur.base {
                    cur.base = real.clone();
                    continue;
                }
            }
            break;
        }
        cur
    }

    /// Field lookup: type of `self_ty.path[0].path[1]...`.
    pub fn field_ty(&self, file: usize, self_ty: &str, path: &[String]) -> TypeRef {
        let mut cur = TypeRef::named(&self.resolve_base(file, self_ty));
        for seg in path {
            let Some(fields) = self.structs.get(&cur.base) else { return TypeRef::unknown() };
            let Some(ty) = fields.get(seg) else { return TypeRef::unknown() };
            cur = self.resolve_ty(file, ty);
        }
        cur
    }

    /// Type of a chain base inside a fn scope.
    pub fn base_ty(
        &self,
        file: usize,
        scope: &FnScope<'_>,
        base: &ChainBase,
        line: u32,
    ) -> TypeRef {
        self.base_ty_at(file, scope, base, line, 0)
    }

    /// Depth-guarded worker: chasing a local's initializer can revisit
    /// the same binding (`let entry = entry?;` re-binds the loop
    /// variable), so the chase is bounded instead of structural.
    fn base_ty_at(
        &self,
        file: usize,
        scope: &FnScope<'_>,
        base: &ChainBase,
        line: u32,
        depth: usize,
    ) -> TypeRef {
        if depth > 8 {
            return TypeRef::unknown();
        }
        match base {
            ChainBase::Ident(name) => self.local_or_param_ty(file, scope, name, line, depth),
            ChainBase::SelfField(fields) => {
                let Some(self_ty) = scope.self_ty else { return TypeRef::unknown() };
                self.field_ty(file, self_ty, fields)
            }
            ChainBase::Path(segs) => {
                // `Ty::ctor(..)` names the constructed type.
                if segs.len() >= 2 && CTORS.contains(&segs[segs.len() - 1].as_str()) {
                    self.resolve_ty(file, &TypeRef::named(&segs[segs.len() - 2]))
                } else {
                    TypeRef::unknown()
                }
            }
            ChainBase::Other => TypeRef::unknown(),
        }
    }

    fn local_or_param_ty(
        &self,
        file: usize,
        scope: &FnScope<'_>,
        name: &str,
        line: u32,
        depth: usize,
    ) -> TypeRef {
        if let Some(body) = &scope.f.body {
            // Last shadow declared at or before the use site wins.
            let local = body
                .locals
                .iter()
                .rfind(|l| l.name == name && l.line <= line)
                .or_else(|| body.locals.iter().find(|l| l.name == name));
            if let Some(l) = local {
                if let Some(ty) = &l.ty {
                    return self.resolve_ty(file, ty);
                }
                if let Some(ty) = &l.collect_ty {
                    return self.resolve_ty(file, ty);
                }
                if let Some(init) = &l.init {
                    if init.methods.is_empty() || matches!(init.base, ChainBase::Path(_)) {
                        // `let m = HashMap::new();` / `let m = other;`
                        let t = self.base_ty_at(file, scope, &init.base, l.line, depth + 1);
                        if t.base != "?" {
                            return t;
                        }
                    }
                }
                return TypeRef::unknown();
            }
        }
        for (pname, pty) in &scope.f.params {
            if pname == name {
                return self.resolve_ty(file, pty);
            }
        }
        TypeRef::unknown()
    }

    /// Resolve a chain used as a *sequence source* (for-loop source or
    /// reduction receiver): order class of the produced sequence.
    pub fn chain_source(&self, file: usize, scope: &FnScope<'_>, chain: &Chain) -> SourceInfo {
        let mut ty = self.base_ty(file, scope, &chain.base, chain.line);
        let mut class = self.classify(file, &ty);
        let mut parallel = false;
        let mut in_seq = false;
        let mut unordered_seq = false;
        for m in &chain.methods {
            let m = m.as_str();
            if m == "[]" && !in_seq {
                // Container element: Vec<T> → T, map → value type.
                ty = match (classify_name(&ty.base), ty.base.as_str()) {
                    (_, "[slice]") | (TyClass::Ordered, "Vec" | "VecDeque") => {
                        ty.args.first().cloned().unwrap_or_else(TypeRef::unknown)
                    }
                    (_, "HashMap" | "BTreeMap") => {
                        ty.args.get(1).cloned().unwrap_or_else(TypeRef::unknown)
                    }
                    _ => TypeRef::unknown(),
                };
                ty = self.resolve_ty(file, &ty);
                class = self.classify(file, &ty);
            } else if ITER_METHODS.contains(&m) {
                // The sequence inherits the container's order class.
                in_seq = true;
                unordered_seq |= class == TyClass::Unordered;
            } else if PAR_METHODS.contains(&m) {
                in_seq = true;
                parallel = true;
            } else if ADAPTERS.contains(&m) {
                // Order class preserved; nothing to do.
            } else if m.starts_with('.') && !in_seq {
                // Field projection after a method: type lost.
                ty = TypeRef::unknown();
                class = TyClass::Other;
            } else {
                // Unknown terminator (`collect` without turbofish,
                // `fold`, user methods): stop claiming a class — but if
                // the sequence being consumed iterates an unordered
                // container and the terminator is not provably
                // order-insensitive, the *value* it produces depends on
                // iteration order.
                let order_dep = unordered_seq && !ORDER_INSENSITIVE.contains(&m);
                return SourceInfo { class: TyClass::Other, parallel, tainted_order: order_dep };
            }
        }
        SourceInfo { class, parallel, tainted_order: unordered_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn ws(srcs: &[&str]) -> (Vec<File>, Vec<usize>) {
        let files: Vec<File> = srcs.iter().map(|s| parse(&lex(s)).0).collect();
        let ids = (0..files.len()).collect();
        (files, ids)
    }

    fn scope_of<'a>(file: &'a File, fn_name: &str) -> FnScope<'a> {
        for item in &file.items {
            match &item.kind {
                ItemKind::Fn(f) if f.name == fn_name => {
                    return FnScope { self_ty: None, f };
                }
                ItemKind::Impl(ib) => {
                    for f in &ib.fns {
                        if f.name == fn_name {
                            return FnScope { self_ty: Some(&ib.self_ty), f };
                        }
                    }
                }
                _ => {}
            }
        }
        panic!("no fn {fn_name}");
    }

    #[test]
    fn use_alias_and_type_alias_resolve_to_unordered() {
        let (files, _) = ws(&["use std::collections::HashMap as FastMap;\n\
             type Index = FastMap<u64, u64>;\n\
             struct S { m: Index }\n"]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        assert_eq!(r.resolve_base(0, "FastMap"), "HashMap");
        assert_eq!(r.resolve_base(0, "Index"), "HashMap");
        assert_eq!(r.field_ty(0, "S", &["m".into()]).base, "HashMap");
        assert_eq!(r.classify(0, &TypeRef::named("Index")), TyClass::Unordered);
    }

    #[test]
    fn alias_cycles_terminate_under_the_depth_guard() {
        // Mutually recursive type aliases: the bounded chase must
        // return (either name is acceptable) instead of spinning.
        let (files, _) = ws(&["type A = B;\ntype B = A;\n"]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        let base = r.resolve_base(0, "A");
        assert!(base == "A" || base == "B", "unexpected resolution {base}");
        assert_eq!(r.classify(0, &TypeRef::named("A")), TyClass::Other);
        // Cross-file `use` rename cycle: X -> Y in one file, Y -> X in
        // the other. The global rename chase is bounded the same way.
        let (files, _) = ws(&["use b::Y as X;\n", "use a::X as Y;\n"]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        let base = r.resolve_base(0, "X");
        assert!(base == "X" || base == "Y", "unexpected resolution {base}");
    }

    #[test]
    fn cross_crate_reexport_chains_resolve() {
        // crate a renames HashMap, crate b re-exports the renamed name,
        // crate c consumes it: the consumer's file has no local rename,
        // so only the workspace-global table can recover `HashMap`.
        let (files, _) = ws(&[
            "pub use std::collections::HashMap as FastMap;\n",
            "pub use crate_a::FastMap;\n",
            "use crate_b::FastMap;\nstruct S { m: FastMap<u64, u64> }\n",
        ]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        assert_eq!(r.resolve_base(2, "FastMap"), "HashMap");
        assert_eq!(r.classify(2, &TypeRef::named("FastMap")), TyClass::Unordered);
        assert_eq!(r.field_ty(2, "S", &["m".into()]).base, "HashMap");
    }

    #[test]
    fn conflicting_global_renames_are_dropped_not_guessed() {
        // Two files rename the same alias to different targets: a third
        // file's use of the bare name must stay unresolved (`Other`)
        // rather than pick a winner.
        let (files, _) = ws(&[
            "use std::collections::HashMap as Table;\n",
            "use std::collections::BTreeMap as Table;\n",
            "struct S { t: Table<u64, u64> }\n",
        ]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        assert_eq!(r.resolve_base(2, "Table"), "Table");
        assert_eq!(r.classify(2, &TypeRef::named("Table")), TyClass::Other);
        // But each defining file still resolves its own local alias.
        assert_eq!(r.resolve_base(0, "Table"), "HashMap");
        assert_eq!(r.resolve_base(1, "Table"), "BTreeMap");
    }

    #[test]
    fn struct_field_paths_walk_nested_structs() {
        let (files, _) = ws(&[
            "struct Inner { map: HashSet<u64> }\nstruct Outer { inner: Inner, v: Vec<u64> }\n",
        ]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        let ty = r.field_ty(0, "Outer", &["inner".into(), "map".into()]);
        assert_eq!(ty.base, "HashSet");
        assert_eq!(r.classify(0, &r.field_ty(0, "Outer", &["v".into()])), TyClass::Ordered);
    }

    #[test]
    fn chain_sources_classify_through_adapters() {
        let (files, _) = ws(&["struct S { m: HashMap<u64, u64>, v: Vec<f64> }\n\
             impl S {\n\
               fn f(&self) {\n\
                 for k in self.m.keys().map(|k| k + 1) {}\n\
                 for x in self.v.iter().rev() {}\n\
                 let local = HashMap::new();\n\
                 for e in local.values() {}\n\
                 let sorted: Vec<u64> = Vec::new();\n\
                 for s in sorted.iter().max() {}\n\
               }\n\
             }\n"]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        let scope = scope_of(&files[0], "f");
        let body = scope.f.body.as_ref().unwrap();
        let classes: Vec<TyClass> =
            body.for_loops.iter().map(|fl| r.chain_source(0, &scope, &fl.source).class).collect();
        assert_eq!(
            classes,
            [TyClass::Unordered, TyClass::Ordered, TyClass::Unordered, TyClass::Other]
        );
    }

    #[test]
    fn par_iter_sets_parallel() {
        let (files, _) =
            ws(&["fn f(xs: &Vec<f64>) { let s: f64 = xs.par_iter().map(|x| x).sum(); }\n"]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        let scope = scope_of(&files[0], "f");
        let body = scope.f.body.as_ref().unwrap();
        let sum = body.method_calls.iter().find(|m| m.name == "sum").unwrap();
        let info = r.chain_source(0, &scope, &sum.receiver);
        assert!(info.parallel);
        assert_eq!(info.class, TyClass::Ordered);
    }

    #[test]
    fn local_annotations_and_params_resolve() {
        let (files, _) = ws(&["fn f(tel: &TelemetryHandle, xs: &[f64]) {\n\
               let m: BTreeMap<u64, u64> = BTreeMap::new();\n\
               for x in m.values() {}\n\
               for y in xs.iter() {}\n\
             }\n"]);
        let refs: Vec<&File> = files.iter().collect();
        let r = Resolver::new(&refs);
        let scope = scope_of(&files[0], "f");
        assert_eq!(
            r.base_ty(0, &scope, &ChainBase::Ident("tel".into()), 2).base,
            "TelemetryHandle"
        );
        let body = scope.f.body.as_ref().unwrap();
        assert_eq!(r.chain_source(0, &scope, &body.for_loops[0].source).class, TyClass::Ordered);
        assert_eq!(r.chain_source(0, &scope, &body.for_loops[1].source).class, TyClass::Ordered);
    }
}
