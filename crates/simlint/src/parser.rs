//! Hand-written recursive-descent parser over [`crate::lexer`]'s token
//! stream, producing the [`crate::ast`] item/fact model.
//!
//! Design: item structure (fns, impls, structs, uses, modules) is parsed
//! for real; *expression* structure inside fn bodies is not — a single
//! forward scan extracts the fact lists the semantic rules need
//! (for-loop sources, call sites with receiver chains, accumulations,
//! def/use events). The parser never fails a file: unparsable
//! regions are skipped with a recorded [`ParseError`] and parsing
//! resynchronizes at the next item boundary. The workspace smoke test
//! pins that the real tree produces zero errors.

use crate::ast::*;
use crate::lexer::{Lexed, Tok, TokKind};

/// A recovered parse problem (the file still yields a usable AST).
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: u32,
    pub what: String,
}

/// Keywords that can never be expression chain bases / index receivers.
const KEYWORDS: [&str; 28] = [
    "as", "break", "const", "continue", "crate", "else", "enum", "extern", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "self",
    "static", "struct", "trait", "use", "where",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Methods that mutate their receiver in place — used to detect mutable
/// captures inside closure arguments (`out.push(x)` in a `par_iter`
/// closure).
pub(crate) const MUT_METHODS: [&str; 13] = [
    "push",
    "push_back",
    "push_front",
    "push_str",
    "insert",
    "remove",
    "extend",
    "clear",
    "pop",
    "truncate",
    "sort",
    "sort_by",
    "sort_unstable",
];

/// Keywords that may still *start* an expression chain (`self.f`,
/// `crate::path::fn()`).
fn chain_base_ok(s: &str) -> bool {
    !is_keyword(s) || matches!(s, "self" | "crate")
}

/// Parse one lexed file.
pub fn parse(lexed: &Lexed) -> (File, Vec<ParseError>) {
    let mut p = Parser::new(&lexed.tokens);
    let items = p.parse_items(lexed.tokens.len(), false);
    (File { items }, p.errors)
}

pub(crate) struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    errors: Vec<ParseError>,
    /// For each opening `(`/`[`/`{`: index of its matching close.
    close: Vec<usize>,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [Tok]) -> Self {
        // Precompute bracket matches in one pass; unmatched brackets map
        // to end-of-file so skips stay in bounds.
        let mut close = vec![usize::MAX; toks.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "{" => stack.push(i),
                ")" | "]" | "}" => {
                    if let Some(open) = stack.pop() {
                        close[open] = i;
                    }
                }
                _ => {}
            }
        }
        Parser { toks, pos: 0, errors: Vec::new(), close }
    }

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn err(&mut self, line: u32, what: impl Into<String>) {
        if self.errors.len() < 32 {
            self.errors.push(ParseError { line, what: what.into() });
        }
    }

    /// Matching close bracket for the open bracket at `i` (EOF if
    /// unmatched).
    fn close_of(&self, i: usize) -> usize {
        let c = self.close.get(i).copied().unwrap_or(usize::MAX);
        if c == usize::MAX {
            self.toks.len()
        } else {
            c
        }
    }

    /// Skip a balanced `<...>` starting at `self.pos` (which must be
    /// `<`). Angle depth ignores the `>` of `->` arrows.
    fn skip_angles(&mut self) {
        debug_assert_eq!(self.text(self.pos), "<");
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "<" => depth += 1,
                ">" if self.text(self.pos.wrapping_sub(1)) != "-" => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                "(" | "[" | "{" => {
                    self.pos = self.close_of(self.pos);
                }
                ";" => return, // runaway: bail at statement boundary
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Advance to just past the next `stop` token at bracket depth 0,
    /// skipping balanced brackets. Returns the index of the stop token.
    fn skip_to(&mut self, stop: &str) -> usize {
        while self.pos < self.toks.len() {
            let t = self.text(self.pos);
            if t == stop {
                let at = self.pos;
                self.pos += 1;
                return at;
            }
            match t {
                "(" | "[" | "{" => self.pos = self.close_of(self.pos) + 1,
                _ => self.pos += 1,
            }
        }
        self.toks.len()
    }

    // -- attributes and modifiers --------------------------------------

    /// Consume `#[...]` / `#![...]` runs; returns true when any attribute
    /// mentions the `test` ident (same semantics as the token rules'
    /// test mask: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]`).
    fn parse_attrs(&mut self) -> bool {
        let mut is_test = false;
        while self.text(self.pos) == "#" {
            let mut j = self.pos + 1;
            if self.text(j) == "!" {
                j += 1;
            }
            if self.text(j) != "[" {
                break;
            }
            let end = self.close_of(j);
            for k in j + 1..end.min(self.toks.len()) {
                if self.toks[k].kind == TokKind::Ident && self.toks[k].text == "test" {
                    is_test = true;
                }
            }
            self.pos = end + 1;
        }
        is_test
    }

    /// Consume visibility / `unsafe` / `async` / `default` / `const fn`
    /// / `extern "C" fn` prefixes before an item keyword.
    fn parse_modifiers(&mut self) {
        loop {
            match self.text(self.pos) {
                "pub" => {
                    self.pos += 1;
                    if self.text(self.pos) == "(" {
                        self.pos = self.close_of(self.pos) + 1;
                    }
                }
                "unsafe" | "async" | "default" => self.pos += 1,
                "const" if self.text(self.pos + 1) == "fn" => self.pos += 1,
                "extern"
                    if self.toks.get(self.pos + 1).is_some_and(|t| t.kind == TokKind::Str)
                        && self.text(self.pos + 2) == "fn" =>
                {
                    self.pos += 2;
                }
                _ => return,
            }
        }
    }

    // -- items ----------------------------------------------------------

    /// Parse items until `end`. `in_test` marks an enclosing
    /// `#[cfg(test)]` module.
    fn parse_items(&mut self, end: usize, in_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < end && self.pos < self.toks.len() {
            let attr_test = self.parse_attrs();
            self.parse_modifiers();
            if self.pos >= end {
                break;
            }
            let cfg_test = in_test || attr_test;
            match self.text(self.pos) {
                "use" => {
                    self.pos += 1;
                    let mut leaves = Vec::new();
                    let stop = self.collect_use_tree(&mut Vec::new(), &mut leaves);
                    self.pos = stop;
                    for (path, alias) in leaves {
                        items.push(Item { cfg_test, kind: ItemKind::Use { path, alias } });
                    }
                }
                "type" => {
                    self.pos += 1;
                    let name = self.expect_ident("type alias name");
                    if self.text(self.pos) == "<" {
                        self.skip_angles();
                    }
                    if self.text(self.pos) == "=" {
                        self.pos += 1;
                        let start = self.pos;
                        let semi = self.skip_to(";");
                        let target = self.parse_type(start, semi);
                        if let Some(name) = name {
                            items.push(Item {
                                cfg_test,
                                kind: ItemKind::TypeAlias { name, target },
                            });
                        }
                    } else {
                        self.skip_to(";");
                    }
                }
                "struct" => {
                    self.pos += 1;
                    let name = self.expect_ident("struct name");
                    if self.text(self.pos) == "<" {
                        self.skip_angles();
                    }
                    // `where` clause, then unit `;` / tuple `(..);` /
                    // braced field list.
                    while self.pos < self.toks.len() {
                        match self.text(self.pos) {
                            ";" => {
                                self.pos += 1;
                                break;
                            }
                            "(" => {
                                self.pos = self.close_of(self.pos) + 1;
                            }
                            "{" => {
                                let close = self.close_of(self.pos);
                                let fields = self.parse_fields(self.pos + 1, close);
                                self.pos = close + 1;
                                if let Some(name) = name {
                                    items.push(Item {
                                        cfg_test,
                                        kind: ItemKind::Struct { name, fields },
                                    });
                                }
                                break;
                            }
                            _ => self.pos += 1,
                        }
                    }
                }
                "enum" | "union" => {
                    self.pos += 1;
                    let name = self.expect_ident("enum name");
                    while self.pos < self.toks.len() && self.text(self.pos) != "{" {
                        if self.text(self.pos) == "<" {
                            self.skip_angles();
                        } else {
                            self.pos += 1;
                        }
                    }
                    self.pos = self.close_of(self.pos) + 1;
                    if let Some(name) = name {
                        items.push(Item { cfg_test, kind: ItemKind::Enum { name } });
                    }
                }
                "fn" => {
                    if let Some(f) = self.parse_fn(cfg_test) {
                        items.push(Item { cfg_test, kind: ItemKind::Fn(Box::new(f)) });
                    }
                }
                "impl" => {
                    if let Some(ib) = self.parse_impl(cfg_test) {
                        items.push(Item { cfg_test, kind: ItemKind::Impl(ib) });
                    }
                }
                "trait" => {
                    self.pos += 1;
                    let name = self.expect_ident("trait name");
                    while self.pos < self.toks.len() && self.text(self.pos) != "{" {
                        if self.text(self.pos) == "<" {
                            self.skip_angles();
                        } else if self.text(self.pos) == "(" {
                            self.pos = self.close_of(self.pos) + 1;
                        } else {
                            self.pos += 1;
                        }
                    }
                    let close = self.close_of(self.pos);
                    self.pos += 1;
                    let fns = self.parse_trait_fns(close, cfg_test);
                    self.pos = close + 1;
                    if let Some(name) = name {
                        items.push(Item { cfg_test, kind: ItemKind::Trait { name, fns } });
                    }
                }
                "mod" => {
                    self.pos += 1;
                    let _name = self.expect_ident("module name");
                    match self.text(self.pos) {
                        ";" => self.pos += 1,
                        "{" => {
                            let close = self.close_of(self.pos);
                            self.pos += 1;
                            let inner = self.parse_items(close, cfg_test);
                            items.extend(inner);
                            self.pos = close + 1;
                        }
                        other => {
                            let l = self.line(self.pos);
                            let what = format!("after mod: `{other}`");
                            self.err(l, what);
                        }
                    }
                }
                "const" | "static" => {
                    self.pos += 1;
                    self.skip_to(";");
                }
                "macro_rules" => {
                    // macro_rules ! name { .. }
                    self.pos += 1;
                    if self.text(self.pos) == "!" {
                        self.pos += 1;
                    }
                    self.pos += 1; // name
                    if matches!(self.text(self.pos), "{" | "(" | "[") {
                        self.pos = self.close_of(self.pos) + 1;
                    }
                }
                "extern" => {
                    // `extern crate x;` or an extern block.
                    self.pos += 1;
                    while self.pos < self.toks.len() {
                        match self.text(self.pos) {
                            ";" => {
                                self.pos += 1;
                                break;
                            }
                            "{" => {
                                self.pos = self.close_of(self.pos) + 1;
                                break;
                            }
                            _ => self.pos += 1,
                        }
                    }
                }
                other => {
                    let l = self.line(self.pos);
                    self.err(l, format!("unexpected item token `{other}`"));
                    self.pos += 1;
                }
            }
        }
        items
    }

    fn expect_ident(&mut self, what: &str) -> Option<String> {
        if self.is_ident(self.pos) {
            let s = self.toks[self.pos].text.clone();
            self.pos += 1;
            Some(s)
        } else {
            let l = self.line(self.pos);
            self.err(l, format!("expected {what}"));
            None
        }
    }

    /// Expand a `use` tree into (path, alias) leaves. Returns the index
    /// just past the terminating `;`.
    fn collect_use_tree(
        &mut self,
        prefix: &mut Vec<String>,
        out: &mut Vec<(Vec<String>, String)>,
    ) -> usize {
        let depth_base = prefix.len();
        let mut i = self.pos;
        loop {
            match self.text(i) {
                ";" | "" => {
                    if prefix.len() > depth_base {
                        self.push_use_leaf(prefix, None, out);
                    }
                    return i + 1;
                }
                "{" => {
                    // Group: recurse per comma-separated element.
                    let close = self.close_of(i);
                    let saved = self.pos;
                    self.pos = i + 1;
                    while self.pos < close {
                        let before = prefix.len();
                        self.pos = self.collect_group_elem(close, prefix, out);
                        prefix.truncate(before);
                    }
                    self.pos = saved;
                    prefix.truncate(depth_base);
                    i = close + 1;
                }
                "::" => unreachable!("lexer emits single-char puncts"),
                ":" => i += 1,
                "," => {
                    if prefix.len() > depth_base {
                        self.push_use_leaf(prefix, None, out);
                        prefix.truncate(depth_base);
                    }
                    i += 1;
                }
                "as" => {
                    let alias = if self.is_ident(i + 1) {
                        self.toks[i + 1].text.clone()
                    } else {
                        "_".into()
                    };
                    self.push_use_leaf(prefix, Some(alias), out);
                    prefix.truncate(depth_base);
                    // Skip to next `,` or `;` at this level.
                    let mut j = i + 2;
                    while !matches!(self.text(j), "," | ";" | "") {
                        j += 1;
                    }
                    i = j;
                }
                "*" => {
                    // Glob import: nothing aliasable.
                    prefix.truncate(depth_base);
                    i += 1;
                }
                _ if self.is_ident(i) => {
                    prefix.push(self.toks[i].text.clone());
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// One element inside a use group `{ a, b::c, d as e }`; returns the
    /// index just past the element's trailing comma (or the close).
    fn collect_group_elem(
        &mut self,
        close: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<(Vec<String>, String)>,
    ) -> usize {
        let depth_base = prefix.len();
        let mut i = self.pos;
        while i < close {
            match self.text(i) {
                "," => {
                    if prefix.len() > depth_base {
                        self.push_use_leaf(prefix, None, out);
                    }
                    return i + 1;
                }
                "{" => {
                    let inner_close = self.close_of(i);
                    let saved = self.pos;
                    self.pos = i + 1;
                    while self.pos < inner_close {
                        let before = prefix.len();
                        self.pos = self.collect_group_elem(inner_close, prefix, out);
                        prefix.truncate(before);
                    }
                    self.pos = saved;
                    prefix.truncate(depth_base);
                    i = inner_close + 1;
                }
                ":" => i += 1,
                "as" => {
                    let alias = if self.is_ident(i + 1) {
                        self.toks[i + 1].text.clone()
                    } else {
                        "_".into()
                    };
                    self.push_use_leaf(prefix, Some(alias), out);
                    prefix.truncate(depth_base);
                    i += 2;
                }
                "*" => {
                    prefix.truncate(depth_base);
                    i += 1;
                }
                _ if self.is_ident(i) => {
                    prefix.push(self.toks[i].text.clone());
                    i += 1;
                }
                _ => i += 1,
            }
        }
        if prefix.len() > depth_base {
            self.push_use_leaf(prefix, None, out);
        }
        close
    }

    fn push_use_leaf(
        &self,
        prefix: &[String],
        alias: Option<String>,
        out: &mut Vec<(Vec<String>, String)>,
    ) {
        let Some(last) = prefix.last() else { return };
        // `use foo::bar::{self}` aliases the module itself.
        let effective =
            if last == "self" { prefix[..prefix.len() - 1].to_vec() } else { prefix.to_vec() };
        let Some(tail) = effective.last() else { return };
        let alias = alias.unwrap_or_else(|| tail.clone());
        out.push((effective.clone(), alias));
    }

    fn parse_fields(&mut self, start: usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut i = start;
        while i < end {
            // Skip attributes and visibility per field.
            while self.texts_at(i, &["#", "["]) {
                i = self.close_of(i + 1) + 1;
            }
            if self.text(i) == "pub" {
                i += 1;
                if self.text(i) == "(" {
                    i = self.close_of(i) + 1;
                }
            }
            if !self.is_ident(i) || self.text(i + 1) != ":" {
                i += 1;
                continue;
            }
            let name = self.toks[i].text.clone();
            let ty_start = i + 2;
            // Field type runs to the next top-level comma.
            let mut j = ty_start;
            let mut angle = 0i32;
            while j < end {
                match self.text(j) {
                    "<" => angle += 1,
                    ">" if self.text(j.wrapping_sub(1)) != "-" => angle -= 1,
                    "(" | "[" | "{" => {
                        j = self.close_of(j);
                    }
                    "," if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let ty = self.parse_type(ty_start, j);
            fields.push(Field { name, ty });
            i = j + 1;
        }
        fields
    }

    fn texts_at(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter().enumerate().all(|(k, s)| self.text(i + k) == *s)
    }

    /// Parse a type from a token range into the approximate [`TypeRef`].
    fn parse_type(&self, start: usize, end: usize) -> TypeRef {
        let mut i = start;
        // Strip reference/pointer/qualifier prefixes.
        while i < end {
            match self.text(i) {
                "&" | "*" | "mut" | "dyn" | "impl" | "const" => i += 1,
                _ if self.toks.get(i).is_some_and(|t| t.kind == TokKind::Lifetime) => i += 1,
                _ => break,
            }
        }
        if i >= end {
            return TypeRef::unknown();
        }
        match self.text(i) {
            "(" => {
                let close = self.close_of(i).min(end);
                let args = self.split_type_args(i + 1, close);
                if args.len() == 1 {
                    // Parenthesized type, not a tuple.
                    return args.into_iter().next().unwrap_or_else(TypeRef::unknown);
                }
                TypeRef { base: "(tuple)".into(), args }
            }
            "[" => {
                let close = self.close_of(i).min(end);
                // `[T; N]` / `[T]`: element type up to `;`.
                let mut semi = close;
                let mut k = i + 1;
                while k < close {
                    match self.text(k) {
                        ";" => {
                            semi = k;
                            break;
                        }
                        "(" | "[" | "{" => k = self.close_of(k) + 1,
                        _ => k += 1,
                    }
                }
                TypeRef { base: "[slice]".into(), args: vec![self.parse_type(i + 1, semi)] }
            }
            _ => {
                // Path type: segments separated by `::`, generics on the
                // last segment encountered.
                let mut base = String::new();
                let mut args = Vec::new();
                while i < end {
                    if self.is_ident(i) {
                        base = self.toks[i].text.clone();
                        i += 1;
                    } else if self.text(i) == ":" {
                        i += 1;
                    } else if self.text(i) == "<" {
                        // Find matching `>` with arrow-aware depth.
                        let mut depth = 0i32;
                        let mut j = i;
                        while j < end {
                            match self.text(j) {
                                "<" => depth += 1,
                                ">" if self.text(j.wrapping_sub(1)) != "-" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                "(" | "[" | "{" => j = self.close_of(j),
                                _ => {}
                            }
                            j += 1;
                        }
                        args = self.split_type_args(i + 1, j.min(end));
                        i = j + 1;
                    } else {
                        break;
                    }
                }
                if base.is_empty() {
                    TypeRef::unknown()
                } else {
                    TypeRef { base, args }
                }
            }
        }
    }

    /// Split a generic-argument or tuple-element range at top-level
    /// commas and parse each piece as a type (lifetimes and const
    /// generics fall out as `?`).
    fn split_type_args(&self, start: usize, end: usize) -> Vec<TypeRef> {
        let mut out = Vec::new();
        let mut i = start;
        let mut piece = start;
        let mut angle = 0i32;
        while i < end {
            match self.text(i) {
                "<" => angle += 1,
                ">" if self.text(i.wrapping_sub(1)) != "-" => angle -= 1,
                "(" | "[" | "{" => i = self.close_of(i),
                "," if angle <= 0 => {
                    out.push(self.parse_type(piece, i));
                    piece = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if piece < end {
            out.push(self.parse_type(piece, end));
        }
        out
    }

    // -- functions -------------------------------------------------------

    fn parse_trait_fns(&mut self, end: usize, cfg_test: bool) -> Vec<FnDef> {
        let mut fns = Vec::new();
        while self.pos < end {
            let attr_test = self.parse_attrs();
            self.parse_modifiers();
            if self.pos >= end {
                break;
            }
            match self.text(self.pos) {
                "fn" => {
                    if let Some(f) = self.parse_fn(cfg_test || attr_test) {
                        fns.push(f);
                    }
                }
                "type" | "const" => {
                    self.pos += 1;
                    self.skip_to(";");
                }
                _ => self.pos += 1,
            }
        }
        fns
    }

    /// Parse `fn name<..>(params) -> Ret where .. { body }` starting at
    /// the `fn` token.
    fn parse_fn(&mut self, cfg_test: bool) -> Option<FnDef> {
        debug_assert_eq!(self.text(self.pos), "fn");
        let line = self.line(self.pos);
        self.pos += 1;
        let name = self.expect_ident("fn name")?;
        if self.text(self.pos) == "<" {
            self.skip_angles();
        }
        if self.text(self.pos) != "(" {
            self.err(line, format!("fn {name}: expected parameter list"));
            return None;
        }
        let pclose = self.close_of(self.pos);
        let params = self.parse_params(self.pos + 1, pclose);
        self.pos = pclose + 1;

        // Return type, where clause.
        let has_ret = self.texts_at(self.pos, &["-", ">"]);
        if has_ret {
            let mut j = self.pos + 2;
            while j < self.toks.len() {
                match self.text(j) {
                    "{" | ";" => break,
                    "where" => break,
                    "(" | "[" => j = self.close_of(j) + 1,
                    "<" => {
                        let save = self.pos;
                        self.pos = j;
                        self.skip_angles();
                        j = self.pos;
                        self.pos = save;
                    }
                    _ => j += 1,
                }
            }
            self.pos = j;
        }
        if self.text(self.pos) == "where" {
            while self.pos < self.toks.len() && !matches!(self.text(self.pos), "{" | ";") {
                if matches!(self.text(self.pos), "(" | "[") {
                    self.pos = self.close_of(self.pos) + 1;
                } else if self.text(self.pos) == "<" {
                    self.skip_angles();
                } else {
                    self.pos += 1;
                }
            }
        }

        let body = match self.text(self.pos) {
            "{" => {
                let close = self.close_of(self.pos);
                let b = self.scan_body(self.pos + 1, close, has_ret);
                self.pos = close + 1;
                Some(b)
            }
            ";" => {
                self.pos += 1;
                None
            }
            other => {
                let l = self.line(self.pos);
                self.err(l, format!("fn {name}: expected body, got `{other}`"));
                None
            }
        };
        Some(FnDef { name, line, cfg_test, params, body })
    }

    /// `name: Type` params; receivers (`self`, `&mut self`) have no
    /// top-level `:` and drop out.
    fn parse_params(&self, start: usize, end: usize) -> Vec<(String, TypeRef)> {
        let mut params = Vec::new();
        let mut i = start;
        let mut piece = start;
        let mut angle = 0i32;
        while i <= end {
            let at_end = i == end;
            let split = at_end || (self.text(i) == "," && angle <= 0);
            if split {
                // `name: Type` (or a pattern param — type only).
                let mut colon = None;
                let mut k = piece;
                let mut a = 0i32;
                while k < i {
                    match self.text(k) {
                        "<" => a += 1,
                        ">" if self.text(k.wrapping_sub(1)) != "-" => a -= 1,
                        "(" | "[" | "{" => k = self.close_of(k),
                        ":" if a <= 0 => {
                            colon = Some(k);
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(c) = colon {
                    let name = if self.is_ident(c.wrapping_sub(1))
                        && !is_keyword(self.text(c.wrapping_sub(1)))
                        && (c == piece + 1 || (c == piece + 2 && self.text(piece) == "mut"))
                    {
                        self.toks[c - 1].text.clone()
                    } else {
                        String::new()
                    };
                    params.push((name, self.parse_type(c + 1, i)));
                }
                piece = i + 1;
                if at_end {
                    break;
                }
            } else {
                match self.text(i) {
                    "<" => angle += 1,
                    ">" if self.text(i.wrapping_sub(1)) != "-" => angle -= 1,
                    "(" | "[" | "{" => i = self.close_of(i),
                    _ => {}
                }
            }
            i += 1;
        }
        params
    }

    // -- impls -----------------------------------------------------------

    fn parse_impl(&mut self, cfg_test: bool) -> Option<ImplBlock> {
        debug_assert_eq!(self.text(self.pos), "impl");
        let line = self.line(self.pos);
        self.pos += 1;
        if self.text(self.pos) == "<" {
            self.skip_angles();
        }
        // First type (trait when `for` follows).
        let first_start = self.pos;
        let mut saw_for = None;
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "{" | "where" => break,
                "for" => {
                    saw_for = Some(self.pos);
                    self.pos += 1;
                }
                "<" => self.skip_angles(),
                "(" | "[" => self.pos = self.close_of(self.pos) + 1,
                _ => self.pos += 1,
            }
        }
        let head_end = self.pos;
        if self.text(self.pos) == "where" {
            while self.pos < self.toks.len() && self.text(self.pos) != "{" {
                if self.text(self.pos) == "<" {
                    self.skip_angles();
                } else if matches!(self.text(self.pos), "(" | "[") {
                    self.pos = self.close_of(self.pos) + 1;
                } else {
                    self.pos += 1;
                }
            }
        }
        if self.text(self.pos) != "{" {
            self.err(line, "impl: expected body");
            return None;
        }
        // `impl Trait for Ty`: the implemented type follows `for`.
        let self_ty = self.parse_type(saw_for.map_or(first_start, |f| f + 1), head_end).base;
        let close = self.close_of(self.pos);
        self.pos += 1;
        let mut fns = Vec::new();
        while self.pos < close {
            let attr_test = self.parse_attrs();
            self.parse_modifiers();
            if self.pos >= close {
                break;
            }
            match self.text(self.pos) {
                "fn" => {
                    if let Some(f) = self.parse_fn(cfg_test || attr_test) {
                        fns.push(f);
                    }
                }
                "type" | "const" => {
                    self.pos += 1;
                    self.skip_to(";");
                }
                _ => self.pos += 1,
            }
        }
        self.pos = close + 1;
        Some(ImplBlock { self_ty, fns })
    }

    // -- body fact scanning ----------------------------------------------

    /// Forward scan of a fn body extracting the fact lists. Closure
    /// bodies are scanned flat as part of the enclosing fn. `has_ret`
    /// enables tail-expression extraction (unit fns return nothing worth
    /// tracking).
    fn scan_body(&mut self, start: usize, end: usize, has_ret: bool) -> Body {
        let mut b = Body { span: (start, end), ..Body::default() };
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            match t.text.as_str() {
                "let" => {
                    if let Some((local, next)) = self.scan_let(i, end) {
                        b.locals.push(local);
                        i = next;
                        continue;
                    }
                }
                "return" => {
                    let rhs_end = self.stmt_end(i + 1, end);
                    if rhs_end > i + 1 {
                        b.returns.push(ReturnSite {
                            line: t.line,
                            rhs: (i + 1, rhs_end),
                            uses: self.collect_uses(i + 1, rhs_end),
                        });
                    }
                }
                "for" => {
                    if let Some((fl, next)) = self.scan_for(i, end) {
                        b.for_loops.push(fl);
                        i = next;
                        continue;
                    }
                }
                "+" | "*" if self.text(i + 1) == "=" => {
                    if let Some(site) = self.make_accum_site(start, i, end) {
                        b.accum_sites.push(site);
                    }
                }
                "=" => {
                    let prev = self.text(i.wrapping_sub(1));
                    if i > start
                        && !matches!(prev, "=" | "<" | ">" | "!" | ".")
                        && !matches!(self.text(i + 1), ">" | "=")
                    {
                        // Assignment (plain or compound — both only ever
                        // *add* to the target for taint purposes).
                        let compound =
                            matches!(prev, "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^");
                        let target_end = if compound { i.wrapping_sub(2) } else { i - 1 };
                        if let Some(target) = self.assign_target(target_end, start) {
                            let rhs_end = self.stmt_end(i + 1, end);
                            b.assigns.push(AssignSite {
                                line: t.line,
                                pos: i,
                                target,
                                rhs: (i + 1, rhs_end),
                                uses: self.collect_uses(i + 1, rhs_end),
                            });
                        }
                    }
                }
                "(" if self.is_ident(i.wrapping_sub(1)) && i > start => {
                    let name_at = i - 1;
                    let name = self.toks[name_at].text.clone();
                    if is_keyword(&name) || self.text(name_at.wrapping_sub(1)) == "fn" {
                        // `if (..)`, `match (..)`, nested fn defs.
                    } else if self.text(name_at.wrapping_sub(1)) == "." {
                        b.method_calls.push(self.make_method_call(name_at, None, i, start));
                    } else if self.text(name_at.wrapping_sub(1)) == "!" {
                        // `!name(..)`: a negated call, not recorded
                    } else {
                        // Free/path call; collect `a::b::name` backwards.
                        let segments = self.path_back(name_at, start);
                        // Turbofish method call `x.collect::<T>()` puts
                        // `(` after `>`; handled below at `>`+`(`.
                        let close = self.close_of(i);
                        b.path_calls.push(PathCall {
                            segments,
                            line: t.line,
                            pos: name_at,
                            args: (i + 1, close),
                            arg_uses: self.collect_uses(i + 1, close),
                        });
                    }
                }
                ">" if self.text(i + 1) == "(" => {
                    // Possible turbofish call: `name :: < .. > (`.
                    if let Some((name_at, ty)) = self.turbofish_back(i, start) {
                        if self.text(name_at.wrapping_sub(1)) == "." {
                            b.method_calls.push(self.make_method_call(
                                name_at,
                                Some(ty),
                                i + 1,
                                start,
                            ));
                        }
                    }
                }
                "{" if i > start && self.is_ident(i.wrapping_sub(1)) => {
                    let name_at = i - 1;
                    let name = self.toks[name_at].text.clone();
                    let starts_upper = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    let before = self.text(name_at.wrapping_sub(1));
                    let ret_ty_pos = before == ">" && self.text(name_at.wrapping_sub(2)) == "-";
                    if starts_upper
                        && !is_keyword(&name)
                        && !ret_ty_pos
                        && !matches!(before, "let" | "match" | "in" | ".")
                    {
                        let close = self.close_of(i).min(end);
                        // `Name { .. } =>` / `Name { .. } if .. =>` is a
                        // match-arm pattern, not a construction.
                        let arm_pattern = (self.text(close + 1) == "="
                            && self.text(close + 2) == ">")
                            || self.text(close + 1) == "if";
                        if !arm_pattern && self.looks_like_struct_lit(i + 1, close) {
                            b.struct_lits.push(StructLit {
                                name,
                                line: t.line,
                                span: (i + 1, close),
                                uses: self.collect_uses(i + 1, close),
                            });
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        if has_ret {
            // Tail expression: the last top-level statement without a
            // trailing `;`. A statement-position block (`if`/`match`/loop
            // bodies) also starts a new statement unless the next token
            // continues the expression.
            let mut last_start = start;
            let mut m = start;
            while m < end {
                match self.text(m) {
                    "(" | "[" => m = self.close_of(m) + 1,
                    "{" => {
                        let c = self.close_of(m);
                        m = c + 1;
                        if m < end
                            && !matches!(self.text(m), "else" | "." | "?" | ";" | "," | ")" | "]")
                        {
                            last_start = m;
                        }
                    }
                    ";" => {
                        last_start = m + 1;
                        m += 1;
                    }
                    _ => m += 1,
                }
            }
            if last_start < end {
                b.returns.push(ReturnSite {
                    line: self.line(last_start),
                    rhs: (last_start, end),
                    uses: self.collect_uses(last_start, end),
                });
            }
        }
        b
    }

    /// End of the statement-expression starting at `from`: the next `;`
    /// or `,` at depth 0, or an unmatched closer, bounded by `end`.
    fn stmt_end(&self, from: usize, end: usize) -> usize {
        let mut m = from;
        while m < end {
            match self.text(m) {
                "(" | "[" | "{" => m = self.close_of(m),
                ";" | "," | ")" | "]" | "}" => return m,
                _ => {}
            }
            m += 1;
        }
        end
    }

    /// Collect the value *reads* inside a token span: plain local/param
    /// names and `self.field` accesses. Method/field names after `.`,
    /// path segments, macro names, and annotation/field-name positions
    /// (`name :`) are excluded. Over-collection (type names, closure
    /// params) is harmless — taint only flows from names that are
    /// actually tainted.
    fn collect_uses(&self, start: usize, end: usize) -> Vec<UseRef> {
        let mut out = Vec::new();
        let mut i = start;
        let end = end.min(self.toks.len());
        while i < end {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let txt = t.text.as_str();
            if txt == "self" {
                if self.text(i + 1) == "." && self.is_ident(i + 2) && self.text(i + 3) != "(" {
                    out.push(UseRef::SelfField(self.toks[i + 2].text.clone()));
                    i += 3;
                } else {
                    i += 1;
                }
                continue;
            }
            if is_keyword(txt) {
                i += 1;
                continue;
            }
            let prev = self.text(i.wrapping_sub(1));
            let next = self.text(i + 1);
            let path_seg = prev == ":" && self.text(i.wrapping_sub(2)) == ":";
            if prev == "." || path_seg || next == "!" || next == ":" {
                // method/field name, path segment, macro name,
                // annotation/field-name/path-head position
                i += 1;
                continue;
            }
            out.push(UseRef::Ident(t.text.clone()));
            i += 1;
        }
        out
    }

    /// Resolve the *place* ending at token `e` (just before the `=` /
    /// `op=`) into an assignment-target key, walking `a.b.c`, `self.a`,
    /// and `x[i]` back to the root. Returns `None` for let-bindings (the
    /// `Local` fact covers those), type annotations, and complex places
    /// taint cannot key (`*guard = ..`, `f().x = ..`).
    fn assign_target(&self, mut e: usize, lo: usize) -> Option<AssignTarget> {
        // Strip trailing index groups: `x[i] = ..` keys the container.
        while self.text(e) == "]" {
            e = self.open_of(e, lo)?.checked_sub(1)?;
        }
        if !self.is_ident(e) || (is_keyword(self.text(e)) && self.text(e) != "self") {
            return None;
        }
        let mut root = e;
        while root >= lo + 2 && self.text(root - 1) == "." && self.is_ident(root - 2) {
            root -= 2;
        }
        if self.text(root.wrapping_sub(1)) == "." {
            return None; // rooted in a call result or similar
        }
        if root > lo && matches!(self.text(root - 1), "let" | "mut" | ":") {
            return None; // let-binding or annotation
        }
        if self.text(root) == "self" {
            if root == e {
                return None;
            }
            return Some(AssignTarget::SelfField(self.toks[root + 2].text.clone()));
        }
        if is_keyword(self.text(root)) {
            return None;
        }
        Some(AssignTarget::Local(self.toks[root].text.clone()))
    }

    /// Distinguish `Name { field: .., .. }` construction from a block
    /// following an uppercase-ident-ending expression: require a
    /// depth-0 `field:` / `..` shape, or a shorthand-only body
    /// (idents and commas), or empty braces.
    fn looks_like_struct_lit(&self, start: usize, close: usize) -> bool {
        if close <= start {
            return true; // `Name {}`
        }
        let mut shorthand_only = true;
        let mut saw_ident = false;
        let mut k = start;
        while k < close {
            match self.text(k) {
                "(" | "[" | "{" => {
                    shorthand_only = false;
                    k = self.close_of(k) + 1;
                    continue;
                }
                ":" if k > start && self.is_ident(k - 1) && self.text(k + 1) != ":" => {
                    return true; // `field: value`
                }
                "." if self.text(k + 1) == "." => return true, // `..base` update
                "," => {}
                _ if self.is_ident(k) => saw_ident = true,
                _ => shorthand_only = false,
            }
            k += 1;
        }
        shorthand_only && saw_ident
    }

    /// `let [mut] name [: ty] [= init] ;` — returns the local plus the
    /// index to resume at (just past the binding name, so the
    /// initializer is still scanned for calls/index sites by the main
    /// loop).
    fn scan_let(&self, i: usize, end: usize) -> Option<(Local, usize)> {
        let mut j = i + 1;
        if self.text(j) == "mut" {
            j += 1;
        }
        if !self.is_ident(j) || is_keyword(self.text(j)) {
            return None; // pattern binding (`let (a, b) = ..`, `let Some(x)`)
        }
        let name = self.toks[j].text.clone();
        let line = self.toks[j].line;
        let mut k = j + 1;
        let mut ty = None;
        if self.text(k) == ":" {
            // Type annotation to `=` or `;` at depth 0.
            let ty_start = k + 1;
            let mut a = 0i32;
            let mut m = ty_start;
            while m < end {
                match self.text(m) {
                    "<" => a += 1,
                    ">" if self.text(m.wrapping_sub(1)) != "-" => a -= 1,
                    "(" | "[" | "{" => m = self.close_of(m),
                    "=" | ";" if a <= 0 => break,
                    _ => {}
                }
                m += 1;
            }
            ty = Some(self.parse_type(ty_start, m));
            k = m;
        }
        let mut init = None;
        let mut collect_ty = None;
        let mut float_init = false;
        let mut rhs = (k, k);
        let mut uses = Vec::new();
        if self.text(k) == "=" && self.text(k + 1) != "=" {
            let init_start = k + 1;
            // Statement end: `;` at depth 0 (brackets skipped).
            let mut m = init_start;
            while m < end {
                match self.text(m) {
                    "(" | "[" | "{" => m = self.close_of(m),
                    ";" => break,
                    _ => {}
                }
                m += 1;
            }
            init = Some(self.chain_forward(init_start, m));
            rhs = (init_start, m.min(end));
            uses = self.collect_uses(init_start, m.min(end));
            for idx in init_start..m.min(end) {
                let tk = &self.toks[idx];
                match tk.text.as_str() {
                    "f64" | "f32" => float_init = true,
                    "collect" if self.texts_at(idx + 1, &[":", ":", "<"]) => {
                        // Turbofish of collect.
                        let lt = idx + 3;
                        let mut depth = 0i32;
                        let mut e = lt;
                        while e < m {
                            match self.text(e) {
                                "<" => depth += 1,
                                ">" if self.text(e.wrapping_sub(1)) != "-" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            e += 1;
                        }
                        collect_ty = Some(self.parse_type(lt + 1, e));
                    }
                    _ => {
                        if tk.kind == TokKind::Num && tk.text.contains('.') {
                            float_init = true;
                        }
                    }
                }
            }
        }
        Some((
            Local { name, line, ty, init, collect_ty, float_init, rhs, uses },
            k, // resume inside the statement so nested facts still scan
        ))
    }

    /// `for pat in expr {` — extract the source chain. Rust forbids
    /// struct literals in the loop-source position, so the body `{` is
    /// the first `{` at depth 0 after `in`.
    fn scan_for(&self, i: usize, end: usize) -> Option<(ForLoop, usize)> {
        let line = self.toks[i].line;
        // Find `in` at depth 0 (skip the pattern).
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "in" => break,
                "(" | "[" | "{" => j = self.close_of(j) + 1,
                ";" | "}" => return None, // not a for loop after all
                _ => j += 1,
            }
        }
        if j >= end {
            return None;
        }
        let src_start = j + 1;
        let mut k = src_start;
        while k < end {
            match self.text(k) {
                "{" => break,
                "(" | "[" => k = self.close_of(k) + 1,
                ";" => return None,
                _ => k += 1,
            }
        }
        if k >= end {
            return None;
        }
        let body_close = self.close_of(k).min(end);
        let source = self.chain_forward(src_start, k);
        Some((ForLoop { line, source, body: (k + 1, body_close) }, src_start))
    }

    fn make_accum_site(&self, body_start: usize, op_at: usize, end: usize) -> Option<AccumSite> {
        // Walk back over the target place: ident or self.field path.
        let mut e = op_at.checked_sub(1)?;
        if !self.is_ident(e) || is_keyword(self.text(e)) {
            return None;
        }
        let target = self.toks[e].text.clone();
        let line = self.toks[e].line;
        // Reject `a + = b`? (never valid) and compound tokens like `**`.
        while e > body_start && self.text(e.wrapping_sub(1)) == "." {
            e = e.saturating_sub(2);
        }
        // Float evidence in the RHS (to `;` at depth 0).
        let mut rhs_float = false;
        let mut m = op_at + 2;
        while m < end {
            match self.text(m) {
                "(" | "[" | "{" => m = self.close_of(m),
                ";" => break,
                "f64" | "f32" => rhs_float = true,
                _ => {
                    if self.toks[m].kind == TokKind::Num && self.toks[m].text.contains('.') {
                        rhs_float = true;
                    }
                }
            }
            m += 1;
        }
        Some(AccumSite { line, target, pos: op_at, rhs_float })
    }

    fn make_method_call(
        &self,
        name_at: usize,
        turbofish: Option<TypeRef>,
        open_paren: usize,
        lo: usize,
    ) -> MethodCall {
        let close = self.close_of(open_paren);
        MethodCall {
            name: self.toks[name_at].text.clone(),
            line: self.toks[name_at].line,
            pos: name_at,
            receiver: self.chain_backward(name_at.wrapping_sub(2), lo),
            turbofish,
            args: (open_paren + 1, close),
            arg_uses: self.collect_uses(open_paren + 1, close),
            closure_writes: self.closure_captured_writes(open_paren + 1, close),
        }
    }
    /// Names written inside closure arguments (`x = ..`, `x op= ..`, or
    /// a mutating call `x.push(..)`) that are not bound inside the
    /// argument span — i.e. mutable captures of enclosing-scope state.
    /// Over-*binding* (type names in annotations, `|`-confusion with
    /// bitwise-or) errs toward silence.
    fn closure_captured_writes(&self, start: usize, close: usize) -> Vec<String> {
        if !(start..close).any(|k| self.text(k) == "|") {
            return Vec::new(); // no closure argument
        }
        // Names bound inside the span: closure params + let-bindings
        // (pattern bindings included — every ident up to `=`/`;`).
        let mut bound: Vec<String> = Vec::new();
        let mut k = start;
        let mut in_params = false;
        while k < close {
            match self.text(k) {
                "let" => {
                    let mut j = k + 1;
                    while j < close && !matches!(self.text(j), "=" | ";") {
                        if self.is_ident(j) && !is_keyword(self.text(j)) {
                            bound.push(self.toks[j].text.clone());
                        }
                        j += 1;
                    }
                    k = j;
                }
                "|" => {
                    if self.text(k + 1) == "|" {
                        k += 1; // `||`: zero-param closure or logical-or
                    } else {
                        in_params = !in_params;
                    }
                }
                _ => {
                    if in_params && self.is_ident(k) && !is_keyword(self.text(k)) {
                        bound.push(self.toks[k].text.clone());
                    }
                }
            }
            k += 1;
        }
        let mut writes: Vec<String> = Vec::new();
        for k in start..close {
            if !self.is_ident(k) || is_keyword(self.text(k)) {
                continue;
            }
            let prev = self.text(k.wrapping_sub(1));
            if prev == "." || prev == ":" {
                continue;
            }
            let n1 = self.text(k + 1);
            let n2 = self.text(k + 2);
            let direct = n1 == "=" && n2 != "=" && !matches!(n2, ">");
            let compound = matches!(n1, "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") && n2 == "=";
            let mut_call = n1 == "."
                && self.is_ident(k + 2)
                && MUT_METHODS.contains(&n2)
                && self.text(k + 3) == "(";
            if direct || compound || mut_call {
                let name = &self.toks[k].text;
                if !bound.iter().any(|b| b == name) {
                    writes.push(name.clone());
                }
            }
        }
        writes.sort();
        writes.dedup();
        writes
    }

    /// Walk a turbofish backwards from its closing `>` at `gt`:
    /// `name :: < .. >` — returns (name index, parsed type).
    fn turbofish_back(&self, gt: usize, lo: usize) -> Option<(usize, TypeRef)> {
        let mut depth = 0i32;
        let mut j = gt;
        loop {
            match self.text(j) {
                ">" if self.text(j.wrapping_sub(1)) != "-" => depth += 1,
                "<" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ")" | "]" | "}" => {
                    // Bracket groups inside generics: find the opener.
                    let mut open = j;
                    while open > lo && self.close_of(open) != j {
                        open -= 1;
                    }
                    j = open;
                }
                _ => {}
            }
            if j == lo || j == 0 {
                return None;
            }
            j -= 1;
            if gt - j > 64 {
                return None;
            }
        }
        let lt = j;
        if !(self.text(lt.wrapping_sub(1)) == ":" && self.text(lt.wrapping_sub(2)) == ":") {
            return None;
        }
        let name_at = lt.checked_sub(3)?;
        if !self.is_ident(name_at) {
            return None;
        }
        Some((name_at, self.parse_type(lt + 1, gt)))
    }

    /// Collect a `::`-separated path ending at the ident `last`
    /// (inclusive), walking backwards.
    fn path_back(&self, last: usize, lo: usize) -> Vec<String> {
        let mut segs = vec![self.toks[last].text.clone()];
        let mut i = last;
        while i >= lo + 3
            && self.text(i - 1) == ":"
            && self.text(i - 2) == ":"
            && self.is_ident(i - 3)
        {
            // Skip turbofish segments (`Vec::<u8>::new`): handled rarely,
            // treat `>` as a stop.
            segs.push(self.toks[i - 3].text.clone());
            i -= 3;
        }
        segs.reverse();
        segs
    }

    /// Parse a value expression forward into a [`Chain`]:
    /// `base.method().field.method2()`.
    fn chain_forward(&self, start: usize, end: usize) -> Chain {
        let line = self.line(start);
        let mut i = start;
        // Strip leading `&`, `&mut`, `*`.
        while i < end && matches!(self.text(i), "&" | "mut" | "*") {
            i += 1;
        }
        if i >= end {
            return Chain::other(line);
        }
        // Parenthesized head: `(a..b).rev()` — descend.
        let mut base;
        if self.text(i) == "(" {
            let close = self.close_of(i).min(end);
            let inner = self.chain_forward(i + 1, close);
            base = inner.base;
            let mut methods = inner.methods;
            i = close + 1;
            self.chain_forward_tail(&mut methods, &mut base, &mut i, end);
            return Chain { base, methods, line };
        }
        if !self.is_ident(i) || !chain_base_ok(self.text(i)) {
            return Chain::other(line);
        }
        // `self.a.b...` or ident / path.
        if self.text(i) == "self" && self.text(i + 1) == "." {
            let mut fields = Vec::new();
            let mut j = i + 1;
            while self.text(j) == "." && self.is_ident(j + 1) && self.text(j + 2) != "(" {
                fields.push(self.toks[j + 1].text.clone());
                j += 2;
            }
            base = ChainBase::SelfField(fields);
            i = j;
        } else if self.text(i + 1) == ":" && self.text(i + 2) == ":" {
            let mut segs = vec![self.toks[i].text.clone()];
            let mut j = i + 1;
            while self.text(j) == ":" && self.text(j + 1) == ":" && self.is_ident(j + 2) {
                segs.push(self.toks[j + 2].text.clone());
                j += 3;
            }
            base = ChainBase::Path(segs);
            i = j;
        } else {
            base = ChainBase::Ident(self.toks[i].text.clone());
            i += 1;
        }
        let mut methods = Vec::new();
        self.chain_forward_tail(&mut methods, &mut base, &mut i, end);
        Chain { base, methods, line }
    }

    /// Continue a forward chain at `i`: `.method(..)`, `.field`, `[..]`,
    /// `?`. Anything else ends the chain; trailing operators degrade the
    /// base to `Other` (e.g. `a + b` is not a container).
    fn chain_forward_tail(
        &self,
        methods: &mut Vec<String>,
        base: &mut ChainBase,
        i: &mut usize,
        end: usize,
    ) {
        while *i < end {
            match self.text(*i) {
                "." => {
                    if self.is_ident(*i + 1) {
                        let name = self.toks[*i + 1].text.clone();
                        if self.text(*i + 2) == "(" {
                            methods.push(name);
                            *i = self.close_of(*i + 2) + 1;
                        } else if self.texts_at(*i + 2, &[":", ":", "<"]) {
                            // turbofish method
                            methods.push(name);
                            let mut j = *i + 4;
                            let mut depth = 1i32;
                            while j < end && depth > 0 {
                                match self.text(j) {
                                    "<" => depth += 1,
                                    ">" if self.text(j.wrapping_sub(1)) != "-" => depth -= 1,
                                    _ => {}
                                }
                                j += 1;
                            }
                            if self.text(j) == "(" {
                                j = self.close_of(j) + 1;
                            }
                            *i = j;
                        } else {
                            // Field projection.
                            if methods.is_empty() {
                                if let ChainBase::SelfField(f) = base {
                                    f.push(name);
                                } else {
                                    methods.push(format!(".{name}"));
                                }
                            } else {
                                methods.push(format!(".{name}"));
                            }
                            *i += 2;
                            continue;
                        }
                    } else {
                        // `..` range: not a chain.
                        *base = ChainBase::Other;
                        return;
                    }
                }
                "[" => {
                    methods.push("[]".into());
                    *i = self.close_of(*i) + 1;
                }
                "?" => *i += 1,
                ")" | "," | ";" => return,
                // Trailing binary operator: the overall expression is
                // arithmetic, not the chained container itself.
                "+" | "-" | "*" | "/" | "%" | "<" | ">" | "=" | "!" | "|" | "&" | "^" => {
                    *base = ChainBase::Other;
                    return;
                }
                _ => return,
            }
        }
    }

    /// Walk a receiver chain *backwards* from `e` (the last token of the
    /// receiver expression). Used for method calls.
    fn chain_backward(&self, e: usize, lo: usize) -> Chain {
        let line = self.line(e.min(self.toks.len().saturating_sub(1)));
        let mut methods_rev: Vec<String> = Vec::new();
        let mut i = e as isize;
        let lo = lo as isize;
        loop {
            if i < lo || i < 0 {
                return Chain { base: ChainBase::Other, methods: reversed(methods_rev), line };
            }
            let iu = i as usize;
            match self.text(iu) {
                ")" => {
                    // `..)(` call result: find opener, expect `.name` before.
                    let open = self.open_of(iu, lo as usize);
                    let Some(open) = open else {
                        return Chain {
                            base: ChainBase::Other,
                            methods: reversed(methods_rev),
                            line,
                        };
                    };
                    let before = open as isize - 1;
                    if before >= lo && self.is_ident(before as usize) {
                        let name_at = before as usize;
                        if self.text(name_at.wrapping_sub(1)) == "." {
                            methods_rev.push(self.toks[name_at].text.clone());
                            i = name_at as isize - 2;
                            continue;
                        }
                        // Free call / constructor as base.
                        let segs = self.path_back(name_at, lo as usize);
                        return Chain {
                            base: ChainBase::Path(segs),
                            methods: reversed(methods_rev),
                            line,
                        };
                    }
                    return Chain { base: ChainBase::Other, methods: reversed(methods_rev), line };
                }
                "]" => {
                    let open = self.open_of(iu, lo as usize);
                    let Some(open) = open else {
                        return Chain {
                            base: ChainBase::Other,
                            methods: reversed(methods_rev),
                            line,
                        };
                    };
                    methods_rev.push("[]".into());
                    i = open as isize - 1;
                }
                ">" => {
                    // Turbofish tail `name::<T>` — map back to the name.
                    if let Some((name_at, _)) = self.turbofish_back(iu, lo as usize) {
                        i = name_at as isize;
                        continue;
                    }
                    return Chain { base: ChainBase::Other, methods: reversed(methods_rev), line };
                }
                "?" => i -= 1,
                _ if self.is_ident(iu) && chain_base_ok(self.text(iu)) => {
                    // Field or base ident; look left for `.` / `::`.
                    if self.text(iu.wrapping_sub(1)) == "." && iu >= 1 {
                        // part of a field path; walk left to its base
                        let mut fields_rev = vec![self.toks[iu].text.clone()];
                        let mut j = iu as isize - 2;
                        while j >= lo
                            && self.is_ident(j as usize)
                            && self.text((j as usize).wrapping_sub(1)) == "."
                            && self.text(j as usize) != "self"
                        {
                            fields_rev.push(self.toks[j as usize].text.clone());
                            j -= 2;
                        }
                        if j >= lo && self.text(j as usize) == "self" {
                            fields_rev.reverse();
                            return Chain {
                                base: ChainBase::SelfField(fields_rev),
                                methods: reversed(methods_rev),
                                line,
                            };
                        }
                        if j >= lo && self.is_ident(j as usize) {
                            // `a.b.c` rooted at local `a`: record fields
                            // as projections after the base.
                            let mut ms: Vec<String> =
                                fields_rev.iter().rev().map(|f| format!(".{f}")).collect();
                            ms.extend(reversed(methods_rev));
                            return Chain {
                                base: ChainBase::Ident(self.toks[j as usize].text.clone()),
                                methods: ms,
                                line,
                            };
                        }
                        return Chain {
                            base: ChainBase::Other,
                            methods: reversed(methods_rev),
                            line,
                        };
                    }
                    if iu >= 2 && self.text(iu - 1) == ":" && self.text(iu.wrapping_sub(2)) == ":" {
                        let segs = self.path_back(iu, lo as usize);
                        return Chain {
                            base: ChainBase::Path(segs),
                            methods: reversed(methods_rev),
                            line,
                        };
                    }
                    let base = if self.text(iu) == "self" {
                        ChainBase::SelfField(Vec::new())
                    } else {
                        ChainBase::Ident(self.toks[iu].text.clone())
                    };
                    return Chain { base, methods: reversed(methods_rev), line };
                }
                _ => return Chain { base: ChainBase::Other, methods: reversed(methods_rev), line },
            }
        }
    }

    /// Find the opening bracket matching the closer at `c` (linear scan
    /// bounded below by `lo`).
    fn open_of(&self, c: usize, lo: usize) -> Option<usize> {
        let mut i = c;
        while i > lo {
            i -= 1;
            if matches!(self.text(i), "(" | "[" | "{") && self.close_of(i) == c {
                return Some(i);
            }
        }
        None
    }
}

fn reversed(mut v: Vec<String>) -> Vec<String> {
    v.reverse();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        let (file, errors) = parse(&lex(src));
        assert!(errors.is_empty(), "parse errors: {errors:?}");
        file
    }

    fn fns(file: &File) -> Vec<&FnDef> {
        let mut out = Vec::new();
        for item in &file.items {
            match &item.kind {
                ItemKind::Fn(f) => out.push(f.as_ref()),
                ItemKind::Impl(ib) => out.extend(ib.fns.iter()),
                ItemKind::Trait { fns, .. } => out.extend(fns.iter()),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn use_trees_expand_to_aliases() {
        let file = parse_src(
            "use std::collections::{HashMap as FastMap, HashSet, btree_map::Entry};\n\
             use crate::lexer::lex;\n",
        );
        let uses: Vec<(String, String)> = file
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use { path, alias } => Some((path.join("::"), alias.clone())),
                _ => None,
            })
            .collect();
        assert!(uses.contains(&("std::collections::HashMap".into(), "FastMap".into())));
        assert!(uses.contains(&("std::collections::HashSet".into(), "HashSet".into())));
        assert!(uses.contains(&("std::collections::btree_map::Entry".into(), "Entry".into())));
        assert!(uses.contains(&("crate::lexer::lex".into(), "lex".into())));
    }

    #[test]
    fn struct_fields_carry_types() {
        let file = parse_src(
            "pub struct S<'a, T> { pub m: HashMap<u64, Vec<T>>, n: &'a mut BTreeMap<u32, u32>, f: f64 }",
        );
        let ItemKind::Struct { name, fields } = &file.items[0].kind else {
            panic!("expected struct")
        };
        assert_eq!(name, "S");
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].ty.base, "HashMap");
        assert_eq!(fields[0].ty.args[1].base, "Vec");
        assert_eq!(fields[1].ty.base, "BTreeMap");
        assert_eq!(fields[2].ty.base, "f64");
    }

    #[test]
    fn impl_blocks_and_params() {
        let file = parse_src(
            "impl<M: Mem> Engine<M> {\n\
               pub fn step(&mut self, n: u64) -> u64 { n }\n\
               fn peek(&self) {}\n\
               fn consume(self) {}\n\
             }\n\
             impl TelemetrySink for Collector { fn event(&mut self, e: &Event) {} }\n",
        );
        let ItemKind::Impl(ib) = &file.items[0].kind else { panic!() };
        assert_eq!(ib.self_ty, "Engine");
        assert_eq!(ib.fns.len(), 3);
        assert_eq!(ib.fns[0].params, vec![("n".to_string(), TypeRef::named("u64"))]);
        assert!(ib.fns[1].params.is_empty() && ib.fns[2].params.is_empty());
        let ItemKind::Impl(sink) = &file.items[1].kind else { panic!() };
        assert_eq!(sink.self_ty, "Collector", "a trait impl is keyed by the type after `for`");
    }

    #[test]
    fn for_loop_sources_parse_as_chains() {
        let file = parse_src(
            "fn f(&self) {\n\
               for (k, v) in self.shards.iter() { work(k, v); }\n\
               for x in map.values() {}\n\
               for i in 0..n {}\n\
             }",
        );
        let f = &fns(&file)[0];
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.for_loops.len(), 3);
        assert_eq!(body.for_loops[0].source.base, ChainBase::SelfField(vec!["shards".into()]));
        assert_eq!(body.for_loops[0].source.methods, vec!["iter"]);
        assert_eq!(body.for_loops[1].source.base, ChainBase::Ident("map".into()));
        assert_eq!(body.for_loops[1].source.methods, vec!["values"]);
        assert_eq!(body.for_loops[2].source.base, ChainBase::Other);
    }

    #[test]
    fn locals_record_annotations_and_constructors() {
        let file = parse_src(
            "fn f() {\n\
               let mut m: HashMap<u64, u64> = HashMap::new();\n\
               let v = BTreeMap::new();\n\
               let g = 1.5f64;\n\
               let c = xs.iter().collect::<Vec<u64>>();\n\
             }",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        assert_eq!(body.locals.len(), 4);
        assert_eq!(body.locals[0].ty.as_ref().unwrap().base, "HashMap");
        let init = body.locals[1].init.as_ref().unwrap();
        assert_eq!(init.base, ChainBase::Path(vec!["BTreeMap".into(), "new".into()]));
        assert!(body.locals[2].float_init);
        assert_eq!(body.locals[3].collect_ty.as_ref().unwrap().base, "Vec");
    }

    #[test]
    fn call_and_accum_sites() {
        let file = parse_src(
            "fn f(&mut self, i: usize) {\n\
               let x = self.tags[i];\n\
               let q = total / count;\n\
               self.sum += x as f64;\n\
               helper(x);\n\
               self.mem.access(q);\n\
               crate::util::hash(x);\n\
             }",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        assert_eq!(body.accum_sites.len(), 1);
        assert!(body.accum_sites[0].rhs_float);
        assert!(body.path_calls.iter().any(|c| c.segments == ["helper"]));
        assert!(body.path_calls.iter().any(|c| c.segments == ["crate", "util", "hash"]));
        let access = body.method_calls.iter().find(|m| m.name == "access").unwrap();
        assert_eq!(access.receiver.base, ChainBase::SelfField(vec!["mem".into()]));
    }

    #[test]
    fn turbofish_reductions_are_method_calls() {
        let file = parse_src("fn f(xs: &[f64]) -> f64 { xs.iter().map(|x| x.ln()).sum::<f64>() }");
        let body = fns(&file)[0].body.as_ref().unwrap();
        let sum = body.method_calls.iter().find(|m| m.name == "sum").unwrap();
        assert_eq!(sum.turbofish.as_ref().unwrap().base, "f64");
        assert_eq!(sum.receiver.base, ChainBase::Ident("xs".into()));
        assert_eq!(sum.receiver.methods, vec!["iter", "map"]);
    }

    #[test]
    fn cfg_test_marks_fns_in_test_modules() {
        let file = parse_src(
            "#[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn t() {}\n}\n\
             fn lib() {}\n",
        );
        let all = fns(&file);
        assert!(all.iter().find(|f| f.name == "helper").unwrap().cfg_test);
        assert!(all.iter().find(|f| f.name == "t").unwrap().cfg_test);
        assert!(!all.iter().find(|f| f.name == "lib").unwrap().cfg_test);
    }

    #[test]
    fn trait_defs_keep_signatures() {
        let file = parse_src(
            "pub trait Sink: Send {\n\
               fn interval(&mut self, i: &Interval) {}\n\
               fn take(&mut self) -> Option<Out>;\n\
             }",
        );
        let ItemKind::Trait { name, fns } = &file.items[0].kind else { panic!() };
        assert_eq!(name, "Sink");
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_none());
    }

    #[test]
    fn type_aliases_resolve_targets() {
        let file = parse_src("type Index = HashMap<u64, Entry>;\ntype Pair = (u32, u32);\n");
        let ItemKind::TypeAlias { name, target } = &file.items[0].kind else { panic!() };
        assert_eq!(name, "Index");
        assert_eq!(target.base, "HashMap");
        let ItemKind::TypeAlias { target, .. } = &file.items[1].kind else { panic!() };
        assert_eq!(target.base, "(tuple)");
    }

    #[test]
    fn assign_sites_key_roots_and_record_uses() {
        let file = parse_src(
            "fn f(&mut self, src: u64) {\n\
               let mut acc = 0u64;\n\
               acc = src;\n\
               acc += src;\n\
               let same = acc == src;\n\
               self.stats.total = acc;\n\
               self.tags[3] = src;\n\
               out.field = helper(acc);\n\
               *guard = src;\n\
             }",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        let targets: Vec<&AssignTarget> = body.assigns.iter().map(|a| &a.target).collect();
        assert_eq!(
            targets,
            vec![
                &AssignTarget::Local("acc".into()),
                &AssignTarget::Local("acc".into()),
                &AssignTarget::SelfField("stats".into()),
                &AssignTarget::SelfField("tags".into()),
                &AssignTarget::Local("out".into()),
                &AssignTarget::Local("guard".into()),
            ],
            "deref writes key the local; let-bindings are Local facts; `==` is no write"
        );
        assert!(body.assigns[0].uses.contains(&UseRef::Ident("src".into())));
        assert!(body.assigns[2].uses.contains(&UseRef::Ident("acc".into())));
        // Let initializer uses recorded on the Local itself.
        let helper_call = &body.assigns[4];
        assert!(helper_call.uses.contains(&UseRef::Ident("acc".into())));
    }

    #[test]
    fn return_sites_cover_return_and_tail() {
        let file = parse_src(
            "fn f(x: u64) -> u64 {\n\
               if x > 3 { return x; }\n\
               let y = x + 1;\n\
               y\n\
             }\n\
             fn unit_fn(x: u64) { let _ = x; }\n",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        assert_eq!(body.returns.len(), 2);
        assert!(body.returns[0].uses.contains(&UseRef::Ident("x".into())));
        assert!(body.returns[1].uses.contains(&UseRef::Ident("y".into())));
        let unit = fns(&file)[1].body.as_ref().unwrap();
        assert!(unit.returns.is_empty(), "unit fns record no tail");
    }

    #[test]
    fn struct_lits_record_uses_not_field_names() {
        let file = parse_src(
            "fn f(wall: f64, n: u64) -> Manifest {\n\
               let m = Manifest { wall_seconds: wall, count: n, kind };\n\
               match m { Manifest { count, .. } => {} }\n\
               m\n\
             }",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        let lits: Vec<&StructLit> =
            body.struct_lits.iter().filter(|s| s.name == "Manifest").collect();
        assert_eq!(lits.len(), 1, "match-pattern position is not a literal");
        let uses = &lits[0].uses;
        assert!(uses.contains(&UseRef::Ident("wall".into())));
        assert!(uses.contains(&UseRef::Ident("n".into())));
        assert!(uses.contains(&UseRef::Ident("kind".into())), "shorthand init is a read");
        assert!(!uses.contains(&UseRef::Ident("wall_seconds".into())), "field names excluded");
    }

    #[test]
    fn closure_captured_writes_detected() {
        let file = parse_src(
            "fn f(xs: &Vec<u64>) {\n\
               let mut total = 0u64;\n\
               let mut out = Vec::new();\n\
               xs.par_iter().for_each(|x| { total += x; out.push(*x); let local = x + 1; });\n\
               xs.iter().for_each(|x| { let mut inner = 0; inner += x; });\n\
             }",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        let fe: Vec<&MethodCall> =
            body.method_calls.iter().filter(|m| m.name == "for_each").collect();
        assert_eq!(fe.len(), 2);
        assert_eq!(fe[0].closure_writes, vec!["out".to_string(), "total".to_string()]);
        assert!(fe[1].closure_writes.is_empty(), "closure-local writes are not captures");
    }

    #[test]
    fn call_sites_carry_positions_and_arg_uses() {
        let file = parse_src(
            "fn f(w: u64) {\n\
               let t = Instant::now();\n\
               submit(w, t);\n\
               sink.write(t);\n\
             }",
        );
        let body = fns(&file)[0].body.as_ref().unwrap();
        let submit = body.path_calls.iter().find(|c| c.segments == ["submit"]).unwrap();
        assert!(submit.arg_uses.contains(&UseRef::Ident("w".into())));
        assert!(submit.arg_uses.contains(&UseRef::Ident("t".into())));
        let write = body.method_calls.iter().find(|m| m.name == "write").unwrap();
        assert!(write.arg_uses.contains(&UseRef::Ident("t".into())));
        let now = body.path_calls.iter().find(|c| c.segments == ["Instant", "now"]).unwrap();
        // Positions land inside the recording fn's let span.
        assert!(now.pos > body.span.0 && now.pos < body.span.1);
        assert!(body.locals[0].rhs.0 <= now.pos && now.pos < body.locals[0].rhs.1);
    }

    #[test]
    fn gnarly_shapes_parse_without_errors() {
        // Shapes that have broken naive Rust scanners: arrows in
        // generics, nested closures, match guards, shifts vs generics.
        parse_src(
            "fn a(f: impl Fn(u64) -> bool, xs: Vec<Box<dyn Iterator<Item = (u32, u32)>>>) {}\n\
             fn b(x: u64) -> u64 { let y = x >> 2; let z: Vec<Vec<u8>> = vec![]; y << 1 }\n\
             fn c(o: Option<u32>) -> u32 { match o { Some(v) if v > 3 => v, _ => 0 } }\n\
             fn d() { let f = |a: u64, b: u64| -> u64 { a + b }; f(1, 2); }\n\
             const T: &[(&str, fn(&str) -> bool)] = &[];\n\
             struct W where u64: Sized { x: u64 }\n",
        );
    }
}
