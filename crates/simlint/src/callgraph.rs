//! Intra-workspace call graph over the parsed files.
//!
//! Nodes are fn definitions keyed by `(self_ty, name)`. Each call site
//! resolves to its callee nodes: path calls by path (`Ty::fn`, `mod::fn`,
//! bare free fns), method calls by *receiver type* where the
//! [`crate::resolve::Resolver`] can prove one. The D11/D13 dataflow reads
//! these per-site targets to map a call onto its callees' summaries. A
//! call whose receiver type is unproven (a trait-typed generic, a call
//! result) links nothing, which errs toward silence like every other
//! approximation in simlint.

use crate::ast::{ChainBase, File, FnDef, ItemKind};
use crate::resolve::{FnScope, Resolver};
use std::collections::BTreeMap;

/// One fn definition in the graph.
#[derive(Debug)]
pub struct FnNode {
    pub file: usize,
    /// Impl self type (or trait name for trait default bodies).
    pub self_ty: Option<String>,
    pub name: String,
    pub cfg_test: bool,
    /// (item index, fn index) locating the `FnDef` in its file: the fn
    /// index is `None` for free fns, `Some(i)` into an impl/trait.
    pub loc: (usize, Option<usize>),
}

impl FnNode {
    /// `Ty::name` / `name` for messages.
    pub fn label(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Per-node: call-site token position (`MethodCall::pos` /
    /// `PathCall::pos`) → resolved callee node ids.
    call_targets: Vec<BTreeMap<usize, Vec<usize>>>,
}

impl CallGraph {
    /// Build nodes and per-site call targets for the whole workspace.
    pub fn build(files: &[&File], resolver: &Resolver) -> CallGraph {
        // Every fn with a body (bodyless trait signatures are no callees).
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                let (self_ty, fns): (Option<&String>, Vec<(Option<usize>, &FnDef)>) = match &item
                    .kind
                {
                    ItemKind::Fn(f) => (None, vec![(None, f.as_ref())]),
                    ItemKind::Impl(ib) => (
                        Some(&ib.self_ty),
                        ib.fns.iter().enumerate().map(|(k, f)| (Some(k), f)).collect(),
                    ),
                    ItemKind::Trait { name, fns } => {
                        (Some(name), fns.iter().enumerate().map(|(k, f)| (Some(k), f)).collect())
                    }
                    _ => continue,
                };
                for (ki, f) in fns {
                    if f.body.is_some() {
                        nodes.push(FnNode {
                            file: fi,
                            self_ty: self_ty.cloned(),
                            name: f.name.clone(),
                            cfg_test: f.cfg_test,
                            loc: (ii, ki),
                        });
                    }
                }
            }
        }
        let mut typed: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            match &node.self_ty {
                Some(t) => typed.entry((t.clone(), node.name.clone())).or_default().push(id),
                None => free.entry(node.name.clone()).or_default().push(id),
            }
        }

        let mut call_targets: Vec<BTreeMap<usize, Vec<usize>>> = vec![BTreeMap::new(); nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            let Some(f) = fn_def(files[node.file], node.loc) else { continue };
            let Some(body) = &f.body else { continue };
            let scope = FnScope { self_ty: node.self_ty.as_deref(), f };
            let sites = &mut call_targets[id];

            for call in &body.path_calls {
                let Some(fname) = call.segments.last() else { continue };
                let n = call.segments.len();
                let qualified = if n >= 2 {
                    let qual = resolver.resolve_base(node.file, &call.segments[n - 2]);
                    typed.get(&(qual, fname.clone()))
                } else {
                    None
                };
                // Otherwise a bare or module-qualified free fn.
                if let Some(ids) = qualified.or_else(|| free.get(fname)) {
                    sites.insert(call.pos, ids.clone());
                }
            }

            for call in &body.method_calls {
                // Only a receiver chain without trailing method calls
                // resolves to a concrete type.
                if !call.receiver.methods.iter().all(|m| m.starts_with('.')) {
                    continue;
                }
                let base = match &call.receiver.base {
                    // Extend the field path with `.field` projections
                    // recorded as methods.
                    ChainBase::SelfField(fields) if !fields.is_empty() => {
                        let mut path = fields.clone();
                        path.extend(
                            call.receiver
                                .methods
                                .iter()
                                .map(|m| m.trim_start_matches('.').to_string()),
                        );
                        ChainBase::SelfField(path)
                    }
                    base => base.clone(),
                };
                let base_ty = resolver.base_ty(node.file, &scope, &base, call.line);
                if let Some(ids) = typed.get(&(base_ty.base, call.name.clone())) {
                    sites.insert(call.pos, ids.clone());
                }
            }
        }

        CallGraph { nodes, call_targets }
    }

    /// Callees resolved for the call site at token position `pos` inside
    /// node `id`'s body (empty when nothing resolved there).
    pub fn targets_at(&self, id: usize, pos: usize) -> &[usize] {
        self.call_targets[id].get(&pos).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Locate a `FnDef` from a node's `(item, fn)` indices.
pub fn fn_def(file: &File, loc: (usize, Option<usize>)) -> Option<&FnDef> {
    let item = file.items.get(loc.0)?;
    match (&item.kind, loc.1) {
        (ItemKind::Fn(f), None) => Some(f.as_ref()),
        (ItemKind::Impl(ib), Some(k)) => ib.fns.get(k),
        (ItemKind::Trait { fns, .. }, Some(k)) => fns.get(k),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(srcs: &[&str]) -> (Vec<File>, CallGraph) {
        let files: Vec<File> = srcs.iter().map(|s| parse(&lex(s)).0).collect();
        let refs: Vec<&File> = files.iter().collect();
        let resolver = Resolver::new(&refs);
        let cg = CallGraph::build(&refs, &resolver);
        (files, cg)
    }

    /// Labels of the callees resolved at the calls to `name` in `caller`.
    fn targets(files: &[File], cg: &CallGraph, caller: &str, name: &str) -> Vec<String> {
        let id = cg.nodes.iter().position(|n| n.label() == caller).expect("caller node");
        let node = &cg.nodes[id];
        let body = fn_def(&files[node.file], node.loc).and_then(|f| f.body.as_ref()).unwrap();
        let methods = body.method_calls.iter().filter(|m| m.name == name).map(|m| m.pos);
        let paths = body.path_calls.iter().filter(|c| c.segments.last().unwrap() == name);
        let mut out: Vec<String> = methods
            .chain(paths.map(|c| c.pos))
            .flat_map(|pos| cg.targets_at(id, pos))
            .map(|&t| cg.nodes[t].label())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn typed_method_calls_resolve_through_fields() {
        let (files, cg) = graph(&["struct Mem { inner: u64 }\n\
             impl Mem { fn access(&mut self, a: u64) -> u64 { a } }\n\
             struct Engine { mem: Mem }\n\
             impl Engine { fn replay(&mut self) { self.mem.access(1); } }\n"]);
        assert_eq!(targets(&files, &cg, "Engine::replay", "access"), ["Mem::access"]);
    }

    #[test]
    fn free_and_path_calls_link() {
        let (files, cg) = graph(&["fn helper(x: u64) -> u64 { x }\n\
             struct Runner;\n\
             impl Runner {\n\
               fn run_matrix(&self) { helper(1); crate::stats::geomean(); }\n\
               fn run_matrix_points(&self) { self.run_matrix(); }\n\
             }\n\
             fn geomean() {}\n"]);
        assert_eq!(targets(&files, &cg, "Runner::run_matrix", "helper"), ["helper"]);
        assert_eq!(targets(&files, &cg, "Runner::run_matrix", "geomean"), ["geomean"]);
        assert_eq!(
            targets(&files, &cg, "Runner::run_matrix_points", "run_matrix"),
            ["Runner::run_matrix"]
        );
    }

    #[test]
    fn unproven_receivers_link_nothing() {
        let (files, cg) = graph(&[
            "struct A; impl A { fn probe(&self) {} }\n\
             struct E; impl E { fn run(&self, x: SomeUnknown, a: A) { x.probe(); a.probe(); } }\n",
        ]);
        let id = cg.nodes.iter().position(|n| n.label() == "E::run").unwrap();
        let node = &cg.nodes[id];
        let body = fn_def(&files[node.file], node.loc).and_then(|f| f.body.as_ref()).unwrap();
        let linked: Vec<usize> =
            body.method_calls.iter().map(|m| cg.targets_at(id, m.pos).len()).collect();
        assert_eq!(linked, [0, 1], "only the typed receiver `a: A` resolves");
    }
}
