//! dead-surface: a `pub` item no caller names is surface the tree
//! carries for nothing. The lint flags every `pub` fn, const, static,
//! struct, enum, trait or type declared outside test code in
//! `crates/*/src` whose name appears as an identifier token nowhere else
//! outside test code — in the crates' sources or in the reference-only
//! files (integration tests, examples, the root package, the benchmark).
//! `use`/`pub use` items are not uses, and doc-tests live in comments,
//! which never become tokens. Names are matched bare, with no
//! resolution: a name shared with any live item is never flagged, an
//! accepted false negative.

use crate::lexer::{Tok, Token};
use crate::{ident_at, is_punct, mk_finding, Finding, SourceFile};
use std::collections::BTreeMap;

const KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Runs the lint: declarations come from `sources`, uses from `sources`
/// and `refs` alike.
pub fn run(sources: &[SourceFile], refs: &[SourceFile]) -> Vec<Finding> {
    let mut named: BTreeMap<&str, usize> = BTreeMap::new();
    for s in sources.iter().chain(refs) {
        // An integration test's `#[test]` fns are callers.
        let integration = s.path.split('/').any(|p| p == "tests");
        let toks = &s.lexed.tokens;
        let mut i = 0;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Ident(id) if id == "use" => {
                    while i < toks.len() && !is_punct(toks, i, ';') {
                        i += 1;
                    }
                }
                Tok::Ident(id) if integration || !s.in_test(toks[i].line) => {
                    *named.entry(id).or_default() += 1
                }
                _ => {}
            }
            i += 1;
        }
    }

    let mut out = Vec::new();
    for s in sources.iter().filter(|s| is_crate_src(&s.path)) {
        let toks = &s.lexed.tokens;
        for i in 0..toks.len() {
            let Some((kind, at)) = pub_decl(toks, i) else { continue };
            let name = ident_at(toks, at).unwrap_or_default();
            let line = toks[i].line;
            if named.get(name) != Some(&1) || s.in_test(line) || s.allowed("dead-surface", line) {
                continue;
            }
            let qual = s.items.fns.iter().find(|f| f.tok_fn + 1 == at).map_or(name, |f| &f.qual);
            out.push(mk_finding(
                s,
                "dead-surface",
                line,
                &format!("{kind}:{qual}"),
                format!(
                    "`pub {kind} {qual}` is named nowhere outside its declaration, test code and \
                     `use` items; delete it, move it under #[cfg(test)], or annotate \
                     `// lint:allow(dead-surface) reason=...`"
                ),
            ));
        }
    }
    out
}

/// The lint's subjects: bare-`pub` declarations outside test code in
/// `crates/*/src`, named elsewhere or not.
pub(crate) fn declarations(sources: &[SourceFile]) -> usize {
    let decls = |s: &SourceFile| {
        let toks = &s.lexed.tokens;
        (0..toks.len()).filter(|&i| pub_decl(toks, i).is_some() && !s.in_test(toks[i].line)).count()
    };
    sources.iter().filter(|s| is_crate_src(&s.path)).map(decls).sum()
}

/// True for a library or binary source file of a workspace crate.
fn is_crate_src(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// When token `i` opens a bare-`pub` item of one of [`KINDS`], its kind
/// and the token index of its name. `pub(crate)` and `pub(super)` items
/// are the compiler's to check.
fn pub_decl(toks: &[Token], i: usize) -> Option<(&str, usize)> {
    if ident_at(toks, i) != Some("pub") || is_punct(toks, i + 1, '(') {
        return None;
    }
    // `pub unsafe fn` and `pub const fn`: the qualifier is not the kind.
    let mut j = i + 1;
    while ident_at(toks, j) == Some("unsafe")
        || (ident_at(toks, j) == Some("const") && ident_at(toks, j + 1) == Some("fn"))
    {
        j += 1;
    }
    let kind = ident_at(toks, j).filter(|k| KINDS.contains(k))?;
    ident_at(toks, j + 1).filter(|n| *n != "_").map(|_| (kind, j + 1))
}
