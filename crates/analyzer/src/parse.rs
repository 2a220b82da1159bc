//! A lightweight *item* parser on top of the token stream.
//!
//! The interprocedural passes (call graph, dataflow) need to know which
//! function a token belongs to, which `impl` block that function lives
//! in, and what names a file imports — but nothing about expression
//! structure. So this module parses exactly the item skeleton:
//! `mod`/`impl`/`trait`/`fn` nesting with brace-matched bodies, plus
//! `use` aliases. No expression grammar, no types beyond the path
//! segments needed to name an impl's self type.
//!
//! Known limits (deliberate, see DESIGN.md §15): `macro_rules!` bodies
//! are parsed as ordinary token soup (same as the token lints always
//! did), and generic arguments are skipped wholesale, so `impl<T>
//! Server<T>` names its self type `Server`.

use crate::lexer::{Tok, Token};

/// One `fn` item: its name, where it sits (module path / impl block),
/// and its signature + body token spans.
#[derive(Debug, Clone, PartialEq)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Scope-qualified name: `Type::name` inside `impl Type`,
    /// `Trait::name` for trait default methods, `mod_path::name`
    /// otherwise (`name` alone at file scope).
    pub qual: String,
    /// Self type of the enclosing `impl` block, if any.
    pub self_ty: Option<String>,
    /// Trait being implemented (`impl Trait for Type`) or declared on
    /// (`trait Trait { fn name ... }`), if any.
    pub trait_name: Option<String>,
    /// True when the first parameter is a `self` receiver.
    pub has_receiver: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub tok_fn: usize,
    /// Token indices of the body `{` and its matching `}` (inclusive).
    pub body: (usize, usize),
}

/// One name a `use` declaration brings into scope.
#[derive(Debug, Clone, PartialEq)]
pub struct UseAlias {
    /// The in-scope name (the `as` alias, or the path's last segment).
    pub alias: String,
    /// Full path segments, e.g. `["std", "sync", "Mutex"]`.
    pub path: Vec<String>,
}

/// A `trait` declaration and the method names it declares (signatures
/// and default methods alike).
#[derive(Debug, Clone, PartialEq)]
pub struct TraitDecl {
    /// Trait name.
    pub name: String,
    /// Declared method names.
    pub methods: Vec<String>,
}

/// An `impl` block: `impl [Trait for] Type`.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplDecl {
    /// Self type (last path segment, generics stripped).
    pub self_ty: String,
    /// Implemented trait, if a trait impl.
    pub trait_name: Option<String>,
}

/// Everything the item parser extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All `fn` items with bodies, in source order (nested included).
    pub fns: Vec<FnItem>,
    /// All trait declarations.
    pub traits: Vec<TraitDecl>,
    /// All impl blocks.
    pub impls: Vec<ImplDecl>,
    /// All use aliases.
    pub uses: Vec<UseAlias>,
}

/// Parser scope context threaded through the recursive descent.
#[derive(Debug, Clone, Default)]
struct Ctx {
    /// Module path + enclosing fn names (for nested-fn quals).
    path: Vec<String>,
    /// Innermost enclosing impl, if any.
    imp: Option<ImplDecl>,
    /// Innermost enclosing trait, if any.
    trait_name: Option<String>,
}

impl Ctx {
    fn qual_for(&self, name: &str) -> String {
        let mut parts: Vec<&str> = self.path.iter().map(|s| s.as_str()).collect();
        if let Some(imp) = &self.imp {
            parts.push(imp.self_ty.as_str());
        } else if let Some(t) = &self.trait_name {
            parts.push(t.as_str());
        }
        parts.push(name);
        parts.join("::")
    }
}

/// Parses the item skeleton of a whole file.
pub fn parse_items(toks: &[Token]) -> FileItems {
    let mut out = FileItems::default();
    parse_region(toks, 0, toks.len(), &Ctx::default(), &mut out);
    out
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.tok == Tok::Punct(c))
}

/// Index of the matching `}` for the `{` at `open` (or the last token).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Recursive scan of `toks[start..end)` for items; descends into every
/// brace-delimited block so nested fns are found at any depth.
fn parse_region(toks: &[Token], start: usize, end: usize, ctx: &Ctx, out: &mut FileItems) {
    let mut i = start;
    while i < end {
        match ident_at(toks, i) {
            Some("mod") => {
                if let Some(name) = ident_at(toks, i + 1) {
                    if punct_at(toks, i + 2, '{') {
                        let close = match_brace(toks, i + 2);
                        let mut c = ctx.clone();
                        c.path.push(name.to_string());
                        c.imp = None;
                        c.trait_name = None;
                        parse_region(toks, i + 3, close, &c, out);
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Some("impl") => {
                match parse_impl_header(toks, i, end) {
                    Some((decl, open)) => {
                        let close = match_brace(toks, open);
                        out.impls.push(decl.clone());
                        let mut c = ctx.clone();
                        c.imp = Some(decl);
                        c.trait_name = None;
                        parse_region(toks, open + 1, close, &c, out);
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            Some("trait") => {
                // `trait Name [<..>] [: Bounds] [where ..] { .. }`
                match ident_at(toks, i + 1) {
                    Some(name) => {
                        let mut j = i + 2;
                        let mut open = None;
                        while j < end {
                            match &toks[j].tok {
                                Tok::Punct('{') => {
                                    open = Some(j);
                                    break;
                                }
                                Tok::Punct(';') => break,
                                _ => j += 1,
                            }
                        }
                        match open {
                            Some(open) => {
                                let close = match_brace(toks, open);
                                let mut c = ctx.clone();
                                c.imp = None;
                                c.trait_name = Some(name.to_string());
                                let fns_before = out.fns.len();
                                parse_region(toks, open + 1, close, &c, out);
                                // Declared methods: default-bodied fns found by the
                                // recursion plus body-less signatures scanned here.
                                let mut methods: Vec<String> = out.fns[fns_before..]
                                    .iter()
                                    .filter(|f| f.trait_name.as_deref() == Some(name))
                                    .map(|f| f.name.clone())
                                    .collect();
                                methods.extend(sig_only_methods(toks, open + 1, close));
                                methods.sort();
                                methods.dedup();
                                out.traits.push(TraitDecl { name: name.to_string(), methods });
                                i = close + 1;
                            }
                            None => i = j + 1,
                        }
                    }
                    None => i += 1,
                }
            }
            Some("fn") => {
                match parse_fn(toks, i, end, ctx) {
                    Some(item) => {
                        let (bo, bc) = item.body;
                        let mut c = ctx.clone();
                        c.path.push(item.name.clone());
                        c.imp = None;
                        c.trait_name = None;
                        out.fns.push(item);
                        parse_region(toks, bo + 1, bc, &c, out);
                        i = bc + 1;
                    }
                    None => {
                        // Signature without a body (trait sig, extern): skip
                        // past the terminating `;`.
                        let mut j = i + 1;
                        while j < end && !punct_at(toks, j, ';') && !punct_at(toks, j, '{') {
                            j += 1;
                        }
                        i = j + 1;
                    }
                }
            }
            Some("use") => {
                i = parse_use(toks, i, end, out);
            }
            _ => {
                if punct_at(toks, i, '{') {
                    // Expression or struct/enum body: descend so nested items
                    // (fns inside blocks) are still found. `impl`/`trait`
                    // context does not leak into expression blocks, but the
                    // module path does.
                    let close = match_brace(toks, i);
                    let mut c = ctx.clone();
                    c.imp = ctx.imp.clone();
                    c.trait_name = ctx.trait_name.clone();
                    parse_region(toks, i + 1, close, &c, out);
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Method names for body-less `fn name(..);` signatures directly inside
/// a trait body.
fn sig_only_methods(toks: &[Token], start: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if ident_at(toks, i) == Some("fn") {
            if let Some(name) = ident_at(toks, i + 1) {
                let mut j = i + 2;
                while j < end {
                    match &toks[j].tok {
                        Tok::Punct('{') => {
                            j = match_brace(toks, j);
                            break;
                        }
                        Tok::Punct(';') => {
                            out.push(name.to_string());
                            break;
                        }
                        _ => j += 1,
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses `impl [<..>] Path1 [for Path2] [where ..] {`, returning the
/// decl and the index of the body `{`.
fn parse_impl_header(toks: &[Token], at: usize, end: usize) -> Option<(ImplDecl, usize)> {
    let mut j = at + 1;
    let mut angle = 0i32;
    // Idents collected at angle-depth 0, split at the `for` keyword.
    let mut first: Vec<String> = Vec::new();
    let mut second: Vec<String> = Vec::new();
    let mut saw_for = false;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            // `->` in a fn-pointer type does not close an angle bracket.
            Tok::Punct('>') if !punct_at(toks, j - 1, '-') => angle -= 1,
            Tok::Punct('{') if angle <= 0 => {
                let seg = if saw_for { &second } else { &first };
                let self_ty = seg.last()?.clone();
                let trait_name = if saw_for { first.last().cloned() } else { None };
                return Some((ImplDecl { self_ty, trait_name }, j));
            }
            Tok::Punct(';') => return None,
            Tok::Ident(id) if angle <= 0 => match id.as_str() {
                "for" => saw_for = true,
                "where" => {
                    // Bounds follow; scan straight to the body brace.
                    let mut k = j + 1;
                    while k < end && !punct_at(toks, k, '{') {
                        k += 1;
                    }
                    if k >= end {
                        return None;
                    }
                    let seg = if saw_for { &second } else { &first };
                    let self_ty = seg.last()?.clone();
                    let trait_name = if saw_for { first.last().cloned() } else { None };
                    return Some((ImplDecl { self_ty, trait_name }, k));
                }
                "dyn" | "mut" => {}
                _ => {
                    if saw_for {
                        second.push(id.clone());
                    } else {
                        first.push(id.clone());
                    }
                }
            },
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `fn` item starting at the `fn` keyword; returns `None`
/// for body-less signatures.
fn parse_fn(toks: &[Token], at: usize, end: usize, ctx: &Ctx) -> Option<FnItem> {
    let name = ident_at(toks, at + 1)?.to_string();
    // Find the parameter list `(` (skipping generics), then the body `{`
    // or the terminating `;`.
    let mut j = at + 2;
    let mut angle = 0i32;
    let mut params_open = None;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !punct_at(toks, j - 1, '-') => angle -= 1,
            Tok::Punct('(') if angle <= 0 => {
                params_open = Some(j);
                break;
            }
            Tok::Punct(';') | Tok::Punct('{') => return None,
            _ => {}
        }
        j += 1;
    }
    let po = params_open?;
    let has_receiver = receiver_in_params(toks, po);
    // Body `{` before any `;` (same rule the token-level fn_spans used).
    let mut m = matching_paren(toks, po)? + 1;
    let mut body_open = None;
    while m < end {
        match &toks[m].tok {
            Tok::Punct('{') => {
                body_open = Some(m);
                break;
            }
            Tok::Punct(';') => break,
            _ => {}
        }
        m += 1;
    }
    let bo = body_open?;
    let bc = match_brace(toks, bo);
    Some(FnItem {
        qual: ctx.qual_for(&name),
        self_ty: ctx.imp.as_ref().map(|i| i.self_ty.clone()),
        trait_name: ctx
            .imp
            .as_ref()
            .and_then(|i| i.trait_name.clone())
            .or_else(|| ctx.trait_name.clone()),
        has_receiver,
        line: toks[at].line,
        tok_fn: at,
        body: (bo, bc),
        name,
    })
}

/// True when the parameter list opening at `open` starts with a `self`
/// receiver (`self`, `mut self`, `&self`, `&'a mut self`, ...).
fn receiver_in_params(toks: &[Token], open: usize) -> bool {
    let mut j = open + 1;
    for _ in 0..4 {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Punct('&')) | Some(Tok::Lifetime(_)) => j += 1,
            Some(Tok::Ident(s)) if s == "mut" => j += 1,
            Some(Tok::Ident(s)) if s == "self" => return true,
            _ => return false,
        }
    }
    matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "self")
}

/// Index of the matching `)` for the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses one `use` declaration starting at the `use` keyword; returns
/// the index just past the terminating `;`. Handles `as` renames and
/// arbitrarily nested `{..}` groups; glob imports are dropped.
fn parse_use(toks: &[Token], at: usize, end: usize, out: &mut FileItems) -> usize {
    let mut i = at + 1;
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(toks, &mut i, end, &mut prefix, out)
}

/// Recursive use-tree walk; `i` sits on the first token of a tree.
/// Returns the index just past the `;` (or group close) it consumed.
fn parse_use_tree(
    toks: &[Token],
    i: &mut usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut FileItems,
) -> usize {
    let base_len = prefix.len();
    let mut last: Option<String> = None;
    while *i < end {
        match &toks[*i].tok {
            Tok::Ident(s) if s == "as" => {
                if let Some(alias) = ident_at(toks, *i + 1) {
                    let mut path = prefix.clone();
                    if let Some(l) = last.take() {
                        path.push(l);
                    }
                    out.uses.push(UseAlias { alias: alias.to_string(), path });
                }
                *i += 2;
            }
            Tok::Ident(seg) => {
                if let Some(l) = last.replace(seg.clone()) {
                    prefix.push(l);
                }
                *i += 1;
            }
            Tok::Punct(':') => {
                *i += 1; // path separator halves
            }
            Tok::Punct('{') => {
                if let Some(l) = last.take() {
                    prefix.push(l);
                }
                *i += 1;
                loop {
                    if *i >= end || punct_at(toks, *i, '}') {
                        *i += 1;
                        break;
                    }
                    let mut sub = prefix.clone();
                    parse_use_tree(toks, i, end, &mut sub, out);
                    if *i < end && punct_at(toks, *i, ',') {
                        *i += 1;
                    } else if *i < end && punct_at(toks, *i, '}') {
                        *i += 1;
                        break;
                    } else if *i >= end {
                        break;
                    }
                }
                prefix.truncate(base_len);
                return *i;
            }
            Tok::Punct('*') => {
                last = None; // glob: nothing nameable to record
                *i += 1;
            }
            Tok::Punct(',') | Tok::Punct('}') => break,
            Tok::Punct(';') => {
                *i += 1;
                break;
            }
            _ => {
                *i += 1;
            }
        }
    }
    if let Some(l) = last {
        let mut path = prefix.clone();
        path.push(l.clone());
        out.uses.push(UseAlias { alias: l, path });
    }
    prefix.truncate(base_len);
    *i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn free_fns_and_module_paths() {
        let it = items("fn top() {}\nmod a { fn inner() {} mod b { fn deep() {} } }");
        let quals: Vec<&str> = it.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["top", "a::inner", "a::b::deep"]);
        assert!(it.fns.iter().all(|f| !f.has_receiver && f.self_ty.is_none()));
    }

    #[test]
    fn impl_methods_get_type_qualified_names() {
        let src = "struct S;\nimpl S {\n  fn new() -> S { S }\n  fn go(&mut self) { self.halt(); }\n  fn halt(&self) {}\n}";
        let it = items(src);
        let quals: Vec<&str> = it.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["S::new", "S::go", "S::halt"]);
        assert!(!it.fns[0].has_receiver);
        assert!(it.fns[1].has_receiver);
        assert_eq!(it.impls, vec![ImplDecl { self_ty: "S".into(), trait_name: None }]);
    }

    #[test]
    fn trait_impls_carry_the_trait_name() {
        let src = "impl std::fmt::Display for Engine { fn fmt(&self, f: &mut F) -> R { x() } }";
        let it = items(src);
        assert_eq!(it.fns[0].qual, "Engine::fmt");
        assert_eq!(it.fns[0].self_ty.as_deref(), Some("Engine"));
        assert_eq!(it.fns[0].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn generic_impl_headers_strip_generics() {
        let src = "impl<T: Policy> Server<T> where T: Send { fn run(&self) {} }";
        let it = items(src);
        assert_eq!(it.fns[0].qual, "Server::run");
        assert_eq!(it.impls[0].self_ty, "Server");
    }

    #[test]
    fn trait_decls_collect_sigs_and_default_methods() {
        let src = "trait Tuner {\n  fn propose(&mut self) -> A;\n  fn observe(&mut self, r: f64);\n  fn name(&self) -> String { dflt() }\n}";
        let it = items(src);
        assert_eq!(it.traits.len(), 1);
        assert_eq!(it.traits[0].name, "Tuner");
        assert_eq!(it.traits[0].methods, vec!["name", "observe", "propose"]);
        // The default method is a real fn item attributed to the trait.
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].qual, "Tuner::name");
        assert_eq!(it.fns[0].trait_name.as_deref(), Some("Tuner"));
    }

    #[test]
    fn nested_fns_qualify_through_the_outer_fn() {
        let it = items("fn outer() { fn inner() {} inner(); }");
        let quals: Vec<&str> = it.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["outer", "outer::inner"]);
    }

    #[test]
    fn use_aliases_plain_renamed_and_grouped() {
        let src = "use std::sync::Mutex;\nuse std::sync::mpsc::sync_channel as bounded;\nuse crate::lints::{panic_safety, lock_order as lo};";
        let it = items(src);
        let find = |a: &str| it.uses.iter().find(|u| u.alias == a).map(|u| u.path.join("::"));
        assert_eq!(find("Mutex").as_deref(), Some("std::sync::Mutex"));
        assert_eq!(find("bounded").as_deref(), Some("std::sync::mpsc::sync_channel"));
        assert_eq!(find("panic_safety").as_deref(), Some("crate::lints::panic_safety"));
        assert_eq!(find("lo").as_deref(), Some("crate::lints::lock_order"));
    }

    #[test]
    fn fn_pointer_arrow_does_not_break_generic_skipping() {
        let src = "impl Runner { fn apply<F: Fn(u32) -> u32>(&self, f: F) -> u32 { f(1) } }";
        let it = items(src);
        assert_eq!(it.fns[0].qual, "Runner::apply");
        assert!(it.fns[0].has_receiver);
    }

    #[test]
    fn body_less_signatures_produce_no_fn_items() {
        let it = items("extern \"C\" { fn ext(x: u32) -> u32; }\ntrait T { fn sig(&self); }");
        assert!(it.fns.is_empty());
        assert_eq!(it.traits[0].methods, vec!["sig"]);
    }

    #[test]
    fn struct_bodies_and_expression_blocks_do_not_confuse_scoping() {
        let src = "struct S { f: u32 }\nfn a() { let c = { fn b() {} 3 }; }\nimpl S { fn m(&self) {} }";
        let it = items(src);
        let quals: Vec<&str> = it.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["a", "a::b", "S::m"]);
    }
}
