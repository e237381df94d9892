//! The lightweight AST the recursive-descent [`crate::parser`] produces.
//!
//! This is deliberately not a full Rust AST: it keeps exactly the shape
//! the semantic rules (D7, D8) and the dataflow rules (D11, D13) consume —
//! items, `use` aliases, struct field types, fn signatures, and per-body
//! *fact lists* (for-loop sources, call sites, accumulations, def/use
//! events) instead of full expression trees. Everything the rules do not read is
//! parsed far enough to be skipped soundly and then dropped.

/// A parsed source file: the flattened item list (items inside inline
/// modules appear here too, with `cfg_test` inherited from the module).
#[derive(Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
}

/// One top-level (or module-nested) item.
#[derive(Debug)]
pub struct Item {
    /// True when the item (or an enclosing module) is `#[cfg(test)]` /
    /// `#[test]`-gated — rule passes skip test code.
    pub cfg_test: bool,
    pub kind: ItemKind,
}

#[derive(Debug)]
pub enum ItemKind {
    /// One leaf of a `use` tree: `use a::b::C as D` → path `[a,b,C]`,
    /// alias `D` (alias = last segment when no `as`).
    Use { path: Vec<String>, alias: String },
    /// `type Name = Target;`
    TypeAlias { name: String, target: TypeRef },
    /// `struct Name { fields }` (tuple/unit structs carry no fields).
    Struct { name: String, fields: Vec<Field> },
    /// `enum Name { .. }` — only the name matters (type existence).
    Enum { name: String },
    /// A free function (boxed: `FnDef` dwarfs the other variants).
    Fn(Box<FnDef>),
    /// `impl [Trait for] Type { fns }`
    Impl(ImplBlock),
    /// `trait Name { fns }` — signatures (and default bodies) kept.
    Trait { name: String, fns: Vec<FnDef> },
}

/// One named struct field and its (approximate) type.
#[derive(Debug)]
pub struct Field {
    pub name: String,
    pub ty: TypeRef,
}

/// An approximate type reference: the final path segment is the base
/// name (`HashMap`, `Vec`, `TelemetryHandle`, ...), `args` are the
/// generic arguments. Tuples parse as base `"(tuple)"`, slices/arrays as
/// `"[slice]"`, unparsable shapes as `"?"`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeRef {
    pub base: String,
    pub args: Vec<TypeRef>,
}

impl TypeRef {
    pub fn named(base: &str) -> TypeRef {
        TypeRef { base: base.to_string(), args: Vec::new() }
    }

    pub fn unknown() -> TypeRef {
        TypeRef::named("?")
    }
}

/// A function definition (free, impl method, or trait default).
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    pub cfg_test: bool,
    /// `(name, type)` for plain `name: Type` params; pattern params (and
    /// a typed `self: Ty` receiver) keep the type under an empty name.
    pub params: Vec<(String, TypeRef)>,
    /// `None` for bodyless trait signatures.
    pub body: Option<Body>,
}

/// `impl [Trait for] SelfTy { .. }`
#[derive(Debug)]
pub struct ImplBlock {
    /// Base name of the implemented type (`Engine`, `Collector`, ...).
    pub self_ty: String,
    pub fns: Vec<FnDef>,
}

// ---------------------------------------------------------------------------
// Body facts
// ---------------------------------------------------------------------------

/// What a value expression hangs off: the start of a method/field chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainBase {
    /// A plain local / param name.
    Ident(String),
    /// `self.a.b` → fields `[a, b]`.
    SelfField(Vec<String>),
    /// A `::`-separated path (`HashMap::new`, `mod::helper`).
    Path(Vec<String>),
    /// Literal ranges, arithmetic, unparsed shapes.
    Other,
}

/// A value expression approximated as base + applied method names, in
/// application order (`self.shards.values().map(..)` → base
/// `SelfField([shards])`, methods `[values, map]`). Indexing inside the
/// chain appears as the pseudo-method `"[]"`; a field projection after a
/// method call appears as `".field"`.
#[derive(Debug, Clone)]
pub struct Chain {
    pub base: ChainBase,
    pub methods: Vec<String>,
    pub line: u32,
}

impl Chain {
    pub fn other(line: u32) -> Chain {
        Chain { base: ChainBase::Other, methods: Vec::new(), line }
    }
}

/// One value *read* inside an expression span, as the def/use scanner
/// sees it: a plain local/param name or a `self.field` access (keyed by
/// the first field — taint tracking is field-insensitive past one hop).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum UseRef {
    Ident(String),
    SelfField(String),
}

/// Where an assignment statement writes. Complex targets the scanner
/// cannot key (`*guard = ..`, `f().x = ..`) are dropped — taint through
/// them is lost, which errs toward silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignTarget {
    /// `name = ..`, `name.field = ..`, `name[i] = ..` — all keyed by the
    /// root local (container-coarse).
    Local(String),
    /// `self.f = ..`, `self.f.g = ..`, `self.f[i] = ..` — keyed by the
    /// first field.
    SelfField(String),
}

/// `target = rhs;` / `target op= rhs;` (compound ops included: for taint
/// purposes both only ever *add* to the target).
#[derive(Debug)]
pub struct AssignSite {
    pub line: u32,
    /// Token index of the `=`.
    pub pos: usize,
    pub target: AssignTarget,
    /// Token span of the right-hand side.
    pub rhs: (usize, usize),
    /// Value reads inside the right-hand side.
    pub uses: Vec<UseRef>,
}

/// `return expr;` — or the fn's tail expression when it has a return
/// type (approximated as the last `;`-free statement of the body).
#[derive(Debug)]
pub struct ReturnSite {
    pub line: u32,
    /// Token span of the returned expression.
    pub rhs: (usize, usize),
    pub uses: Vec<UseRef>,
}

/// `Name { field: expr, .. }` record construction. Pattern positions
/// (`let`/`match` destructuring) are filtered where recognizable; the
/// residue only matters when a *tainted* read sits inside the braces.
#[derive(Debug)]
pub struct StructLit {
    pub name: String,
    pub line: u32,
    /// Token span inside the braces.
    pub span: (usize, usize),
    /// Value reads inside the braces (field-name positions excluded;
    /// shorthand `Name { field }` counts as a read of `field`).
    pub uses: Vec<UseRef>,
}

/// `let [mut] name [: ty] = init;`
#[derive(Debug)]
pub struct Local {
    pub name: String,
    pub line: u32,
    pub ty: Option<TypeRef>,
    /// Leading chain of the initializer (`BTreeMap::new()` → Path).
    pub init: Option<Chain>,
    /// Turbofish of a `.collect::<T>()` in the initializer, if any.
    pub collect_ty: Option<TypeRef>,
    /// The initializer is visibly a float expression (float literal or
    /// `as f64` / `as f32` cast).
    pub float_init: bool,
    /// Token span of the initializer (empty when there is none).
    pub rhs: (usize, usize),
    /// Value reads inside the initializer.
    pub uses: Vec<UseRef>,
}

/// `for pat in <chain> { .. }`
#[derive(Debug)]
pub struct ForLoop {
    pub line: u32,
    pub source: Chain,
    /// Token span of the loop body (used to place accumulations).
    pub body: (usize, usize),
}

/// `.name(args)` with a resolved receiver chain.
#[derive(Debug)]
pub struct MethodCall {
    pub name: String,
    pub line: u32,
    /// Token index of the method name (keys per-call-site resolution).
    pub pos: usize,
    pub receiver: Chain,
    /// Turbofish type (`.sum::<f64>()`), if present.
    pub turbofish: Option<TypeRef>,
    /// Token span of the argument list (inside the parentheses).
    pub args: (usize, usize),
    /// Value reads anywhere inside the argument list (flat — the taint
    /// pass does not map arguments to parameter positions).
    pub arg_uses: Vec<UseRef>,
    /// Names written inside argument closures (`x = ..`, `x op= ..`, or
    /// a mutating call like `x.push(..)`) that are *not* bound inside
    /// the closure — i.e. mutable captures.
    pub closure_writes: Vec<String>,
}

/// `path::to::fn(args)` — a non-method call.
#[derive(Debug)]
pub struct PathCall {
    pub segments: Vec<String>,
    pub line: u32,
    /// Token index of the final path segment.
    pub pos: usize,
    /// Token span of the argument list (inside the parentheses).
    pub args: (usize, usize),
    /// Value reads anywhere inside the argument list.
    pub arg_uses: Vec<UseRef>,
}

/// `target += ..` / `target *= ..` accumulation.
#[derive(Debug)]
pub struct AccumSite {
    pub line: u32,
    /// Accumulator name (`geo`) or `self.field` path tail.
    pub target: String,
    /// Token index of the site (to find the enclosing for loop).
    pub pos: usize,
    /// The right-hand side is visibly float-typed.
    pub rhs_float: bool,
}

/// Everything the scanner extracted from one fn body.
#[derive(Debug, Default)]
pub struct Body {
    /// Token span of the body (between the braces).
    pub span: (usize, usize),
    pub locals: Vec<Local>,
    pub for_loops: Vec<ForLoop>,
    pub method_calls: Vec<MethodCall>,
    pub path_calls: Vec<PathCall>,
    pub accum_sites: Vec<AccumSite>,
    pub assigns: Vec<AssignSite>,
    pub returns: Vec<ReturnSite>,
    pub struct_lits: Vec<StructLit>,
}
