//! Workspace call graph over the item-parsed sources.
//!
//! Nodes are every `fn` item found by [`crate::parse`]; edges are call
//! sites resolved symbolically — no type checking, just the item tables:
//!
//! * **free calls** `helper(..)` resolve same-file, then same-crate,
//!   then workspace-unique;
//! * **path calls** `Type::new(..)` / `module::helper(..)` resolve
//!   through the file's `use` aliases to associated fns or module fns;
//! * **method calls** `recv.step(..)` resolve via the receiver: `self`
//!   uses the enclosing impl, named receivers get a local type
//!   inference over their declaration (`r: &Engine`, `let r = Engine::
//!   new(..)`), and receivers typed as a workspace trait (incl. `dyn
//!   Trait`) resolve conservatively to **all** impls plus the trait's
//!   default body — that over-approximation is what makes trait-object
//!   dispatch sound for the may-block/may-panic lints;
//! * a method with no inferable receiver type resolves through any
//!   workspace trait declaring it (all impls, conservatively), else to
//!   the unique workspace method of that name, else is recorded
//!   **unresolved**.
//!
//! Unresolved calls (std/external or ambiguous) are kept explicitly so
//! every `tunelint` run can print coverage and the golden dump can
//! assert them. Known approximations are documented in DESIGN.md §15.

use crate::lexer::Tok;
use crate::{ident_at, is_keyword, is_punct, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One call-graph node: a `fn` item plus where it lives.
#[derive(Debug, Clone)]
pub struct FnMeta {
    /// Index into the `sources` slice the graph was built from.
    pub file: usize,
    /// Bare fn name.
    pub name: String,
    /// Scope-qualified name (`Engine::exec_op`, `wal::replay`).
    pub qual: String,
    /// Enclosing impl self type, if any.
    pub self_ty: Option<String>,
    /// Enclosing trait (impl'd or declared-with-default), if any.
    pub trait_name: Option<String>,
    /// True when the fn takes a `self` receiver.
    pub has_receiver: bool,
    /// Token indices of the body braces (inclusive).
    pub body: (usize, usize),
    /// Token index of the `fn` keyword.
    pub tok_fn: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// A resolved call edge out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// Token index of the callee-name token (for event ordering).
    pub tok: usize,
}

/// A call site that did not resolve to a workspace fn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the call site.
    pub line: u32,
    /// Rendered callee as written (`.recv`, `io::copy`).
    pub written: String,
}

/// Nodes/edges/unresolved counters, printed on every `tunelint` run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of fn nodes.
    pub nodes: usize,
    /// Number of resolved call edges (call sites, not deduped).
    pub edges: usize,
    /// Number of unresolved (external/ambiguous) call sites.
    pub unresolved: usize,
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nodes={} edges={} unresolved={}", self.nodes, self.edges, self.unresolved)
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All fn nodes, in (file, source) order.
    pub nodes: Vec<FnMeta>,
    /// Outgoing resolved edges per node, in token order.
    pub edges: Vec<Vec<Edge>>,
    /// Unresolved call sites per node, in token order.
    pub unresolved: Vec<Vec<CallSite>>,
    /// Incoming edge sources per node, deduped (for the fixpoint).
    pub callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Coverage counters.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            nodes: self.nodes.len(),
            edges: self.edges.iter().map(|e| e.len()).sum(),
            unresolved: self.unresolved.iter().map(|u| u.len()).sum(),
        }
    }

    /// Deterministic text dump for golden tests: `node`, `edge`, `ext`
    /// lines, deduped and sorted within each section.
    pub fn dump(&self, sources: &[SourceFile]) -> String {
        let loc = |i: usize| {
            let n = &self.nodes[i];
            format!("{}|{}", sources[n.file].path, n.qual)
        };
        let mut nodes: Vec<String> =
            (0..self.nodes.len()).map(|i| format!("node {}", loc(i))).collect();
        nodes.sort();
        let mut edges: BTreeSet<String> = BTreeSet::new();
        let mut exts: BTreeSet<String> = BTreeSet::new();
        for i in 0..self.nodes.len() {
            for e in &self.edges[i] {
                edges.insert(format!("edge {} -> {}", loc(i), loc(e.callee)));
            }
            for u in &self.unresolved[i] {
                exts.insert(format!("ext {} -> {}", loc(i), u.written));
            }
        }
        let mut out = nodes;
        out.extend(edges);
        out.extend(exts);
        out.join("\n") + "\n"
    }
}

/// Symbol tables shared by the resolution rules.
struct Tables {
    /// name -> node indices of free fns (no impl, no trait).
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// (self_ty, name) -> node indices (impl methods + assoc fns).
    assoc: BTreeMap<(String, String), Vec<usize>>,
    /// (trait, name) -> node index of the default body.
    trait_default: BTreeMap<(String, String), usize>,
    /// name -> node indices of receiver-taking methods.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// trait name -> declared method names (merged across files).
    traits: BTreeMap<String, BTreeSet<String>>,
    /// trait name -> implementing self types.
    impls_of: BTreeMap<String, Vec<String>>,
    /// self type -> implemented traits.
    traits_of: BTreeMap<String, Vec<String>>,
    /// Per file: use alias -> full path segments.
    uses: Vec<BTreeMap<String, Vec<String>>>,
    /// Per file: repo-relative path (for module/crate matching).
    file_paths: Vec<String>,
}

impl Tables {
    /// `crates/<name>/` prefix of a file, if it has one.
    fn crate_of(&self, file: usize) -> Option<&str> {
        let p = self.file_paths.get(file)?;
        let rest = p.strip_prefix("crates/")?;
        let end = rest.find('/')?;
        Some(&rest[..end])
    }
}

/// Builds the graph over all sources.
pub fn build(sources: &[SourceFile]) -> CallGraph {
    let mut nodes: Vec<FnMeta> = Vec::new();
    let mut t = Tables {
        free_by_name: BTreeMap::new(),
        assoc: BTreeMap::new(),
        trait_default: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        traits: BTreeMap::new(),
        impls_of: BTreeMap::new(),
        traits_of: BTreeMap::new(),
        uses: Vec::with_capacity(sources.len()),
        file_paths: sources.iter().map(|s| s.path.clone()).collect(),
    };

    for (fi, s) in sources.iter().enumerate() {
        let mut aliases = BTreeMap::new();
        for u in &s.items.uses {
            aliases.insert(u.alias.clone(), u.path.clone());
        }
        t.uses.push(aliases);
        for tr in &s.items.traits {
            t.traits.entry(tr.name.clone()).or_default().extend(tr.methods.iter().cloned());
        }
        for im in &s.items.impls {
            if let Some(tn) = &im.trait_name {
                t.impls_of.entry(tn.clone()).or_default().push(im.self_ty.clone());
                t.traits_of.entry(im.self_ty.clone()).or_default().push(tn.clone());
            }
        }
        for it in &s.items.fns {
            let idx = nodes.len();
            nodes.push(FnMeta {
                file: fi,
                name: it.name.clone(),
                qual: it.qual.clone(),
                self_ty: it.self_ty.clone(),
                trait_name: it.trait_name.clone(),
                has_receiver: it.has_receiver,
                body: it.body,
                tok_fn: it.tok_fn,
                line: it.line,
            });
            match (&it.self_ty, &it.trait_name) {
                (Some(ty), _) => {
                    t.assoc.entry((ty.clone(), it.name.clone())).or_default().push(idx);
                }
                (None, Some(tr)) => {
                    t.trait_default.insert((tr.clone(), it.name.clone()), idx);
                }
                (None, None) => {
                    t.free_by_name.entry(it.name.clone()).or_default().push(idx);
                }
            }
            if it.has_receiver {
                t.methods_by_name.entry(it.name.clone()).or_default().push(idx);
            }
        }
    }

    let mut edges = vec![Vec::new(); nodes.len()];
    let mut unresolved = vec![Vec::new(); nodes.len()];
    for n in 0..nodes.len() {
        extract_calls(n, &nodes, sources, &t, &mut edges[n], &mut unresolved[n]);
    }
    let mut callers = vec![Vec::new(); nodes.len()];
    for (n, es) in edges.iter().enumerate() {
        for e in es.iter() {
            callers[e.callee].push(n);
        }
    }
    for c in &mut callers {
        c.sort_unstable();
        c.dedup();
    }
    CallGraph { nodes, edges, unresolved, callers }
}

/// Scans node `n`'s body for call sites, resolving each.
fn extract_calls(
    n: usize,
    nodes: &[FnMeta],
    sources: &[SourceFile],
    t: &Tables,
    edges: &mut Vec<Edge>,
    unresolved: &mut Vec<CallSite>,
) {
    let node = &nodes[n];
    let toks = &sources[node.file].lexed.tokens;
    let (bo, bc) = node.body;

    // Token ranges of fns nested inside this body: their calls belong to
    // the nested node, not to us.
    let mut skip: Vec<(usize, usize)> = nodes
        .iter()
        .filter(|m| m.file == node.file && m.body.0 > bo && m.body.1 < bc)
        .map(|m| (m.tok_fn, m.body.1))
        .collect();
    skip.sort_unstable();

    let mut i = bo + 1;
    while i < bc {
        if let Some(&(_, se)) = skip.iter().find(|&&(ss, se)| ss <= i && i <= se) {
            i = se + 1;
            continue;
        }
        let name = match ident_at(toks, i) {
            Some(x) if !is_keyword(x) => x,
            _ => {
                i += 1;
                continue;
            }
        };
        if !is_punct(toks, i + 1, '(') {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let (resolved, written) = if i >= 1 && is_punct(toks, i - 1, '.') {
            // Method call: receiver token right before the dot.
            (resolve_method(node, nodes, name, i.checked_sub(2), toks, t), format!(".{name}"))
        } else if i >= 2 && is_punct(toks, i - 1, ':') && is_punct(toks, i - 2, ':') {
            // Path call `Q::name(..)`.
            let q = if i >= 3 { ident_at(toks, i - 3).map(|x| x.to_string()) } else { None };
            (
                resolve_path(node, nodes, name, q.as_deref(), t),
                format!("{}::{name}", q.as_deref().unwrap_or("?")),
            )
        } else if name.starts_with(|c: char| c.is_ascii_uppercase()) {
            // Tuple-struct/variant constructor (`Some(..)`, `Job(..)`).
            i += 1;
            continue;
        } else {
            (resolve_free(node, nodes, name, t), name.to_string())
        };
        match resolved {
            Some(callees) => {
                for c in callees {
                    edges.push(Edge { callee: c, line, tok: i });
                }
            }
            None => unresolved.push(CallSite { line, written }),
        }
        i += 1;
    }
}

/// All impls of `tr` providing `name` (falling back to the trait's
/// default body per impl), plus the default itself.
fn trait_targets(tr: &str, name: &str, t: &Tables) -> Vec<usize> {
    let mut out = Vec::new();
    if let Some(tys) = t.impls_of.get(tr) {
        for ty in tys {
            if let Some(v) = t.assoc.get(&(ty.clone(), name.to_string())) {
                out.extend(v.iter().copied());
            }
        }
    }
    if let Some(&d) = t.trait_default.get(&(tr.to_string(), name.to_string())) {
        out.push(d);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Targets for `<ty>.name(..)` where `ty` is a workspace type or trait
/// name: trait -> all impls; type -> inherent impl, then defaults of
/// traits `ty` implements.
fn type_targets(ty: &str, name: &str, t: &Tables) -> Option<Vec<usize>> {
    if t.traits.contains_key(ty) {
        let v = trait_targets(ty, name, t);
        return if v.is_empty() { None } else { Some(v) };
    }
    if let Some(v) = t.assoc.get(&(ty.to_string(), name.to_string())) {
        return Some(v.clone());
    }
    if let Some(trs) = t.traits_of.get(ty) {
        for tr in trs {
            if let Some(&d) = t.trait_default.get(&(tr.clone(), name.to_string())) {
                return Some(vec![d]);
            }
        }
    }
    None
}

fn resolve_method(
    node: &FnMeta,
    nodes: &[FnMeta],
    name: &str,
    recv: Option<usize>,
    toks: &[crate::lexer::Token],
    t: &Tables,
) -> Option<Vec<usize>> {
    let _ = nodes;
    let recv_name = recv.and_then(|r| ident_at(toks, r));
    if recv_name == Some("self") || recv_name == Some("Self") {
        if let Some(ty) = &node.self_ty {
            if let Some(v) = type_targets(ty, name, t) {
                return Some(v);
            }
        } else if let Some(tr) = &node.trait_name {
            // Default trait body: `self.m()` dispatches to any impl.
            let v = trait_targets(tr, name, t);
            if !v.is_empty() {
                return Some(v);
            }
        }
        return fallback_by_name(name, t);
    }
    // Named receiver: infer its type from the fn's own tokens, trying
    // inner (last-collected) candidates first.
    if let Some(r) = recv_name {
        for ty in infer_recv_types(node, r, toks).iter().rev() {
            if let Some(v) = type_targets(ty, name, t) {
                return Some(v);
            }
        }
    }
    fallback_by_name(name, t)
}

/// Method names ubiquitous on std types (iterators, collections,
/// strings, Option/Result, sync primitives). A bare-name match with no
/// receiver-type evidence is overwhelmingly more likely to be a std
/// call than a workspace one — `fields.iter().find(..)` must not edge
/// to `SumTree::find` — so these never resolve through the name
/// fallback; type evidence is required (DESIGN.md §15).
const STD_METHOD_NAMES: &[&str] = &[
    "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "borrow", "borrow_mut", "chain", "chars", "clear", "clone", "cloned", "collect",
    "contains", "contains_key", "copied", "count", "dedup", "drain", "ends_with",
    "entry", "enumerate", "err", "expect", "extend", "filter", "filter_map", "find",
    "first", "flat_map", "flatten", "fold", "get", "get_mut", "get_or_insert_with",
    "insert", "into_iter", "is_empty", "is_none", "is_some", "iter", "iter_mut",
    "join", "keys", "last", "len", "lines", "lock", "map", "map_err", "max", "min",
    "next", "ok", "ok_or", "ok_or_else", "or_else", "or_insert", "or_insert_with",
    "parse", "position", "pop", "push", "push_back", "push_front", "push_str", "read",
    "recv", "remove", "retain", "rev", "saturating_sub", "send", "skip", "sort",
    "sort_by", "sort_by_key", "sort_unstable", "split", "starts_with", "sum", "take",
    "to_owned", "to_string", "to_vec", "trim", "truncate", "try_into", "unwrap",
    "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values", "values_mut",
    "windows", "zip",
];

/// Receiver-less resolution: any workspace trait declaring the method
/// (all impls, conservatively), else the unique workspace method.
fn fallback_by_name(name: &str, t: &Tables) -> Option<Vec<usize>> {
    if STD_METHOD_NAMES.contains(&name) {
        return None;
    }
    let mut via_traits = Vec::new();
    for (tr, methods) in &t.traits {
        if methods.contains(name) {
            via_traits.extend(trait_targets(tr, name, t));
        }
    }
    if !via_traits.is_empty() {
        via_traits.sort_unstable();
        via_traits.dedup();
        return Some(via_traits);
    }
    match t.methods_by_name.get(name) {
        Some(v) if v.len() == 1 => Some(v.clone()),
        // Zero or several candidates and no type evidence: ambiguous —
        // recorded unresolved rather than guessed (under-approximation,
        // DESIGN.md §15).
        _ => None,
    }
}

/// Candidate type names for local `r`, in collection order: scans the
/// fn's signature+body for `r: <type>` and `let r = Type::..`.
fn infer_recv_types(node: &FnMeta, r: &str, toks: &[crate::lexer::Token]) -> Vec<String> {
    let (start, end) = (node.tok_fn, node.body.1);
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if ident_at(toks, i) == Some(r) {
            let prev_colon = i >= 1 && is_punct(toks, i - 1, ':');
            // `r : Type` (param or annotated let); exclude `::r` paths
            // and `r::` segments.
            if is_punct(toks, i + 1, ':') && !is_punct(toks, i + 2, ':') && !prev_colon {
                collect_type_idents(toks, i + 2, end, &mut out);
            }
            // `let [mut] r = Path::..` (constructor-ish initializer).
            if is_punct(toks, i + 1, '=')
                && matches!(ident_at(toks, i.wrapping_sub(1)), Some("let") | Some("mut"))
            {
                let mut j = i + 2;
                let mut path: Vec<String> = Vec::new();
                while j < end {
                    match &toks[j].tok {
                        Tok::Ident(seg) if !is_keyword(seg) => path.push(seg.clone()),
                        Tok::Punct(':') => {}
                        _ => break,
                    }
                    j += 1;
                }
                // Drop a trailing lowercase segment (`Engine::new` -> Engine).
                if path.last().is_some_and(|p| p.starts_with(|c: char| c.is_ascii_lowercase())) {
                    path.pop();
                }
                out.extend(path);
            }
        }
        i += 1;
    }
    out.dedup();
    out
}

/// Collects the ident path/generic segments of one type expression
/// starting at `i` (stops at a depth-0 `,` `)` `;` `=` `{` `>`).
fn collect_type_idents(
    toks: &[crate::lexer::Token],
    mut i: usize,
    end: usize,
    out: &mut Vec<String>,
) {
    let mut angle = 0i32;
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) if matches!(s.as_str(), "mut" | "dyn" | "impl") => {}
            Tok::Ident(s) => out.push(s.clone()),
            Tok::Lifetime(_) | Tok::Punct('&') | Tok::Punct(':') => {}
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                if angle == 0 {
                    return;
                }
                angle -= 1;
            }
            Tok::Punct(',') if angle > 0 => {} // generic-argument separator
            _ => return,
        }
        i += 1;
    }
}

fn resolve_path(
    node: &FnMeta,
    nodes: &[FnMeta],
    name: &str,
    q: Option<&str>,
    t: &Tables,
) -> Option<Vec<usize>> {
    let mut q = q?.to_string();
    if q == "Self" {
        q = node.self_ty.clone().or_else(|| node.trait_name.clone())?;
    }
    // `use x::y as q` makes `q` stand for `y`.
    if let Some(path) = t.uses.get(node.file).and_then(|u| u.get(&q)) {
        if let Some(last) = path.last() {
            q = last.clone();
        }
    }
    if t.traits.contains_key(&q) {
        let v = trait_targets(&q, name, t);
        return if v.is_empty() { None } else { Some(v) };
    }
    if let Some(v) = t.assoc.get(&(q.clone(), name.to_string())) {
        return Some(v.clone());
    }
    // Module-qualified free fn: `wal::replay(..)` matches free fns whose
    // qualified name passes through module `q`, or whose file is the
    // module (`.../wal.rs`, `.../wal/mod.rs`, `crates/wal/...`).
    if let Some(cands) = t.free_by_name.get(name) {
        let seg = format!("{q}::");
        let file_a = format!("/{q}.rs");
        let file_b = format!("/{q}/");
        let hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                let m = &nodes[c];
                let fp = t.file_paths.get(m.file).map(|s| s.as_str()).unwrap_or("");
                m.qual.contains(&seg) || fp.contains(&file_a) || fp.contains(&file_b)
            })
            .collect();
        if !hits.is_empty() {
            return Some(hits);
        }
    }
    None
}

fn resolve_free(node: &FnMeta, nodes: &[FnMeta], name: &str, t: &Tables) -> Option<Vec<usize>> {
    let cands = t.free_by_name.get(name)?;
    // Same file wins (covers nested fns and module siblings).
    let same_file: Vec<usize> =
        cands.iter().copied().filter(|&c| nodes[c].file == node.file).collect();
    if !same_file.is_empty() {
        return Some(same_file);
    }
    // Then same crate (in tests / loose files both sides have no
    // `crates/<name>/` prefix, which also compares equal).
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| t.crate_of(nodes[c].file) == t.crate_of(node.file))
        .collect();
    if !same_crate.is_empty() {
        return Some(same_crate);
    }
    // Cross-crate only through a visible `use` of the name: an
    // unqualified call can't reach another crate without one, and
    // guessing workspace-unique here turns closure parameters named
    // like some far-away free fn into false edges (DESIGN.md §15).
    if let Some(path) = t.uses.get(node.file).and_then(|u| u.get(name)) {
        let segs = &path[..path.len().saturating_sub(1)];
        let hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                let m = &nodes[c];
                let fp = t.file_paths.get(m.file).map(|s| s.as_str()).unwrap_or("");
                segs.iter().all(|seg| {
                    matches!(seg.as_str(), "crate" | "super" | "self")
                        || m.qual.contains(&format!("{seg}::"))
                        || fp.contains(&format!("/{seg}/"))
                        || fp.contains(&format!("/{seg}.rs"))
                        || t.crate_of(m.file) == Some(seg.as_str())
                })
            })
            .collect();
        if !hits.is_empty() {
            return Some(hits);
        }
    }
    None
}
