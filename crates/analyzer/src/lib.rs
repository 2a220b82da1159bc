//! `tunelint` — token-level static analysis for the CDBTune workspace.
//!
//! The workspace's correctness rests on invariants the compiler cannot
//! check: seeded determinism (checkpoint resume, same-seed tests),
//! panic-free resilient paths, audited `unsafe`, a reactor that never
//! blocks and no `pub` surface that nothing calls. This crate enforces
//! them with a std-only lexer + lint framework so the gate runs even in
//! registry-less containers where clippy cannot.
//!
//! Design: lints pattern-match the *token stream* (never raw text, so
//! strings/comments cannot confuse them) produced by [`lexer::lex`].
//! Every finding fails the build; a reasoned
//! `// lint:allow(<id>) reason=...` annotation on the site is the only
//! exception.

pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod lints;
pub mod parse;

use crate::lexer::{Lexed, Tok, Token};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint ids accepted inside `// lint:allow(<id>) reason=...` annotations.
pub const ALLOW_IDS: &[&str] =
    &["panic", "determinism", "dead-surface", "unsafe", "reactor"];

/// `(lint id, one-line description)` pairs for `tunelint --list`.
pub const LINT_DOCS: &[(&str, &str)] = &[
    ("panic-safety", "unwrap()/expect()/panic!/todo!/slice-indexing in resilient hot paths"),
    ("determinism", "wall-clock, thread_rng, or HashMap/HashSet iteration in seeded RL/replay/fingerprint code"),
    ("dead-surface", "pub items no non-test code, integration test, example or benchmark names"),
    ("unsafe-audit", "unsafe blocks/fns without a `// SAFETY:` comment"),
    ("reactor-blocking", "blocking reads/sleeps/recv/locks inside the event-driven reactor modules"),
    ("annotation", "malformed lint:allow annotations (unknown id or missing reason)"),
];

/// One lint violation. Field order matters: the derived `Ord` sorts
/// findings by file, then line, then lint id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the violating token.
    pub line: u32,
    /// Lint id, e.g. `panic-safety`.
    pub lint: &'static str,
    /// Short machine-stable tag (fixture golden files pin it), e.g.
    /// `unwrap`, `index`, `Instant::now`.
    pub tag: String,
    /// Human-readable explanation with the suggested fix; interprocedural
    /// findings carry every frame of the call chain here.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// A parsed `// lint:allow(<id>) reason=...` annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allow {
    /// Line the annotation comment starts on. It suppresses findings on
    /// this line and the next.
    pub line: u32,
    /// The id inside the parentheses, unvalidated.
    pub lint: String,
    /// Whether a nonempty `reason=` followed.
    pub reason_ok: bool,
}

/// A lexed source file plus the derived structure lints need: test-code
/// line ranges and allow annotations.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// All `lint:allow` annotations found in comments.
    pub allows: Vec<Allow>,
    /// The parsed item skeleton (fns, impls, traits, use aliases) the
    /// interprocedural passes build on.
    pub items: parse::FileItems,
}

impl SourceFile {
    /// Lexes `text` and derives test regions, annotations, and items.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lexer::lex(text);
        let test_regions = test_regions(&lexed.tokens);
        let allows = parse_allows(&lexed);
        let items = parse::parse_items(&lexed.tokens);
        SourceFile { path: path.to_string(), lexed, test_regions, allows, items }
    }

    /// True when `line` falls inside a `#[test]`/`#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// True when a well-formed `lint:allow(id)` on `line` or the line
    /// above covers this lint.
    pub fn allowed(&self, id: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.reason_ok && a.lint == id && (a.line == line || a.line + 1 == line)
        })
    }
}

/// Which paths each lint applies to. Matching is plain substring on the
/// repo-relative path, which keeps fixture tests trivial to scope.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// panic-safety fires only in these paths.
    pub panic_hot_paths: Vec<String>,
    /// determinism fires in these paths...
    pub determinism_scope: Vec<String>,
    /// ...except these (telemetry/bench wall-clock timing is fine).
    pub determinism_allowlist: Vec<String>,
    /// reactor-blocking forbids blocking calls in these paths.
    pub reactor_scope: Vec<String>,
    /// Compute-kernel files whose panic sites (dim-derived slice indexing,
    /// debug_asserted at entry) never seed the interprocedural may-panic
    /// lattice. Token-level panic-safety still applies if such a file is
    /// also a hot path.
    pub panic_kernel_allowlist: Vec<String>,
}

impl AnalysisConfig {
    /// The scoping this repo commits to (see DESIGN.md §10).
    pub fn default_for_repo() -> AnalysisConfig {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        AnalysisConfig {
            panic_hot_paths: v(&[
                "crates/core/src/env.rs",
                "crates/core/src/online.rs",
                "crates/core/src/trainer.rs",
                "crates/service/src/reactor/",
                "crates/service/src/session.rs",
                "crates/simdb/src/engine.rs",
                "crates/simdb/src/wal/",
            ]),
            determinism_scope: v(&[
                "crates/rl/src/",
                "crates/core/src/env.rs",
                "crates/core/src/trainer.rs",
                "crates/core/src/online.rs",
                "crates/core/src/parallel.rs",
                "crates/core/src/memory_pool.rs",
                "crates/core/src/state.rs",
                "crates/core/src/action.rs",
                "crates/core/src/reward.rs",
                "crates/service/src/fingerprint.rs",
                "crates/simdb/src/",
            ]),
            // timing.rs and the bench crate (including the perf gate in
            // crates/bench/src/perf.rs) measure wall-clock time by design;
            // their RNG use is still seeded.
            determinism_allowlist: v(&["crates/core/src/timing.rs", "crates/bench/"]),
            reactor_scope: v(&["crates/service/src/reactor/"]),
            panic_kernel_allowlist: v(&["crates/tinynn/src/kernels.rs"]),
        }
    }

    /// Substring match of `path` against any pattern.
    pub fn matches_any(&self, path: &str, patterns: &[String]) -> bool {
        patterns.iter().any(|p| path.contains(p.as_str()))
    }
}

/// Result of analyzing a tree: how many files were scanned plus the
/// sorted findings and the call-graph coverage counters.
#[derive(Debug)]
pub struct Analysis {
    /// Number of `.rs` files lexed and linted.
    pub files: usize,
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Call-graph size/coverage (`tunelint` prints it on every run).
    pub graph_stats: callgraph::GraphStats,
}

/// Everything the interprocedural lints consume: the parsed sources,
/// the workspace call graph, and the dataflow facts propagated over it.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// All parsed source files, in the order the graph indexes them.
    pub sources: &'a [SourceFile],
    /// Symbol-resolved call graph over `sources`.
    pub graph: callgraph::CallGraph,
    /// Fixpoint facts (may-block / may-panic).
    pub flow: dataflow::Dataflow,
}

impl<'a> Workspace<'a> {
    /// Builds the call graph and runs the dataflow fixpoint with no
    /// kernel allowlist (fixture tests exercise every seed).
    pub fn build(sources: &'a [SourceFile]) -> Workspace<'a> {
        Workspace::build_with(sources, &[])
    }

    /// Builds the call graph and runs the dataflow fixpoint. Panic events
    /// in files matching `kernel_allowlist` are not extracted as seeds.
    pub fn build_with(sources: &'a [SourceFile], kernel_allowlist: &[String]) -> Workspace<'a> {
        let graph = callgraph::build(sources);
        let flow = dataflow::run(sources, &graph, kernel_allowlist);
        Workspace { sources, graph, flow }
    }
}

/// Walks `root/crates` for `.rs` files, skipping `tests/`, `benches/`,
/// `fixtures/`, and `target/` directories. Sorted for determinism.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        walk(&crates, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "tests" | "benches" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The files `dead-surface` reads for uses only: integration tests,
/// examples, the root package and the benchmark. No lint runs on them.
fn collect_ref_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> =
        ["tests", "examples", "src", "benchmark/src"].iter().map(|d| root.join(d)).collect();
    if root.join("crates").is_dir() {
        for entry in fs::read_dir(root.join("crates"))? {
            dirs.push(entry?.path().join("tests"));
        }
    }
    let mut out = Vec::new();
    for d in dirs.iter().filter(|d| d.is_dir()) {
        walk(d, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn load(root: &Path, files: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    files
        .iter()
        .map(|f| {
            let text = fs::read_to_string(f)?;
            let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");
            Ok(SourceFile::parse(&rel, &text))
        })
        .collect()
}

/// Loads and analyzes every source file under `root/crates`, then runs
/// `dead-surface` with the reference-only files as extra callers.
pub fn analyze_tree(root: &Path, cfg: &AnalysisConfig) -> io::Result<Analysis> {
    let sources = load(root, &collect_rs_files(root)?)?;
    let refs = load(root, &collect_ref_files(root)?)?;
    let ws = Workspace::build_with(&sources, &cfg.panic_kernel_allowlist);
    let mut findings = analyze_workspace(&ws, cfg);
    findings.extend(lints::dead_surface::run(&sources, &refs));
    findings.sort();
    Ok(Analysis { files: sources.len(), graph_stats: ws.graph.stats(), findings })
}

/// Runs every lint — token-level per file, then the interprocedural
/// passes over the prebuilt workspace.
pub fn analyze_workspace(ws: &Workspace<'_>, cfg: &AnalysisConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in ws.sources {
        findings.extend(lints::panic_safety::run(s, cfg));
        findings.extend(lints::determinism::run(s, cfg));
        findings.extend(lints::reactor_blocking::run(s, cfg));
        findings.extend(lints::unsafe_audit::run(s));
        findings.extend(annotation_findings(s));
    }
    let flow = &ws.flow;
    for (lint, scope, facts, allow, tag) in [
        ("panic-safety", &cfg.panic_hot_paths, &flow.may_panic, "panic", "calls-panic"),
        ("reactor-blocking", &cfg.reactor_scope, &flow.may_block, "reactor", "calls-block"),
    ] {
        findings.extend(lints::run_transitive(ws, lint, scope, facts, allow, tag));
    }
    findings.sort();
    findings
}

/// Malformed annotations are themselves findings: a suppression without
/// a reason (or with an unknown lint id) silently rots.
fn annotation_findings(s: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in &s.allows {
        if s.in_test(a.line) {
            continue;
        }
        if !ALLOW_IDS.contains(&a.lint.as_str()) {
            out.push(mk_finding(
                s,
                "annotation",
                a.line,
                "unknown-id",
                format!(
                    "unknown lint id `{}` in lint:allow (known: {})",
                    a.lint,
                    ALLOW_IDS.join(", ")
                ),
            ));
        } else if !a.reason_ok {
            out.push(mk_finding(
                s,
                "annotation",
                a.line,
                "missing-reason",
                format!("lint:allow({}) requires a nonempty `reason=...`", a.lint),
            ));
        }
    }
    out
}

pub(crate) fn mk_finding(
    s: &SourceFile,
    lint: &'static str,
    line: u32,
    tag: &str,
    message: String,
) -> Finding {
    Finding { file: s.path.clone(), line, lint, tag: tag.to_string(), message }
}

// ---- token helpers shared by the lints ----

pub(crate) fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.tok == Tok::Punct(c))
}

pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Given the index of a type ident (`Mutex`, `HashMap`, ...), walks
/// backwards over wrappers (`Arc<`, `&`, `'a`, `mut`, `dyn`) and path
/// segments (`std::sync::`) to recover the declared binding name from
/// `name: ...Type<...>` fields/params or `let [mut] name = Type::...`.
pub(crate) fn decl_name_before(toks: &[Token], type_idx: usize) -> Option<String> {
    let t = |k: isize| -> Option<&Tok> {
        if k < 0 {
            None
        } else {
            toks.get(k as usize).map(|x| &x.tok)
        }
    };
    let mut j = type_idx as isize - 1;
    loop {
        match t(j)? {
            Tok::Punct(':') if matches!(t(j - 1), Some(Tok::Punct(':'))) => {
                j -= 2;
                if matches!(t(j), Some(Tok::Ident(_))) {
                    j -= 1;
                } else {
                    return None;
                }
            }
            Tok::Punct('<') if matches!(t(j - 1), Some(Tok::Ident(_))) => j -= 2,
            Tok::Punct('&') => j -= 1,
            Tok::Lifetime(_) => j -= 1,
            Tok::Ident(s) if s == "mut" || s == "dyn" => j -= 1,
            _ => break,
        }
    }
    match t(j)? {
        Tok::Punct(':') => match t(j - 1) {
            Some(Tok::Ident(name)) if !is_keyword(name) => Some(name.clone()),
            _ => None,
        },
        Tok::Punct('=') => match t(j - 1) {
            Some(Tok::Ident(name))
                if matches!(t(j - 2), Some(Tok::Ident(k)) if k == "let" || k == "mut") =>
            {
                Some(name.clone())
            }
            _ => None,
        },
        _ => None,
    }
}

// ---- derived structure: test regions, annotations ----

/// Index of the matching `}` for the `{` at `open` (token indices).
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

/// Line ranges of items carrying a `test`-bearing attribute
/// (`#[test]`, `#[cfg(test)]`, `#[tokio::test]`, ...). `not(test)`
/// attributes are real code and excluded.
fn test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks, i, '#') && is_punct(toks, i + 1, '[') {
            if let Some(close) = match_bracket(toks, i + 1) {
                let attr = &toks[i + 2..close];
                let has_test = attr.iter().any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"));
                let negated = attr.iter().any(|t| matches!(&t.tok, Tok::Ident(s) if s == "not"));
                if has_test && !negated {
                    // Skip any stacked attributes after this one.
                    let mut k = close + 1;
                    while is_punct(toks, k, '#') && is_punct(toks, k + 1, '[') {
                        match match_bracket(toks, k + 1) {
                            Some(c) => k = c + 1,
                            None => break,
                        }
                    }
                    // The item body is the first `{` before any `;`.
                    let mut body = None;
                    let mut m = k;
                    while m < toks.len() {
                        match toks[m].tok {
                            Tok::Punct('{') => {
                                body = Some(m);
                                break;
                            }
                            Tok::Punct(';') => break,
                            _ => {}
                        }
                        m += 1;
                    }
                    match body {
                        Some(b) => {
                            let e = match_brace(toks, b);
                            out.push((toks[i].line, toks[e].line));
                            i = e + 1;
                        }
                        None => {
                            out.push((toks[i].line, toks[close.min(toks.len() - 1)].line));
                            i = close + 1;
                        }
                    }
                    continue;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Index of the matching `]` for the `[` at `open`.
fn match_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
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

/// Extracts `lint:allow(<id>) reason=...` from comment text.
fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim_start();
        if let Some(rest) = t.strip_prefix("lint:allow(") {
            if let Some(end) = rest.find(')') {
                let lint = rest[..end].trim().to_string();
                let after = rest[end + 1..].trim_start();
                let reason_ok = after
                    .strip_prefix("reason=")
                    .map(|r| !r.trim().is_empty())
                    .unwrap_or(false);
                out.push(Allow { line: c.line, lint, reason_ok });
            }
        }
    }
    out
}

#[cfg(test)]
mod framework_tests {
    use super::*;

    #[test]
    fn allow_annotation_parses_and_covers_next_line() {
        let s = SourceFile::parse(
            "x.rs",
            "// lint:allow(panic) reason=init cannot fail\nlet x = 1;\n",
        );
        assert_eq!(s.allows.len(), 1);
        assert!(s.allows[0].reason_ok);
        assert!(s.allowed("panic", 1));
        assert!(s.allowed("panic", 2));
        assert!(!s.allowed("panic", 3));
        assert!(!s.allowed("determinism", 2));
    }

    #[test]
    fn allow_without_reason_is_not_effective_and_is_a_finding() {
        let s = SourceFile::parse("x.rs", "// lint:allow(panic)\nlet x = 1;\n");
        assert!(!s.allowed("panic", 2));
        let fs = annotation_findings(&s);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].tag, "missing-reason");
    }

    #[test]
    fn allow_with_unknown_id_is_a_finding() {
        let s = SourceFile::parse("x.rs", "// lint:allow(speling) reason=whatever\n");
        let fs = annotation_findings(&s);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].tag, "unknown-id");
    }

    #[test]
    fn test_regions_cover_cfg_test_modules_and_test_fns() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let s = SourceFile::parse("x.rs", src);
        assert!(!s.in_test(1));
        assert!(s.in_test(2));
        assert!(s.in_test(5));
        assert!(s.in_test(6));
        assert!(!s.in_test(7));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let s = SourceFile::parse("x.rs", "#[cfg(not(test))]\nfn real() { body(); }\n");
        assert!(!s.in_test(2));
    }

    #[test]
    fn repo_config_allowlists_perf_harness_timing() {
        // The perf gate times hot loops with `Instant`; the
        // repo config must keep it (and timing.rs) off the determinism
        // lint while leaving the RL core in scope.
        let cfg = AnalysisConfig::default_for_repo();
        for path in [
            "crates/bench/src/perf.rs",
            "crates/bench/src/bin/perf.rs",
            "crates/core/src/timing.rs",
        ] {
            assert!(
                cfg.matches_any(path, &cfg.determinism_allowlist),
                "{path} must be determinism-allowlisted"
            );
        }
        assert!(!cfg.matches_any("crates/rl/src/ddpg.rs", &cfg.determinism_allowlist));
        assert!(cfg.matches_any("crates/rl/src/ddpg.rs", &cfg.determinism_scope));
    }

    #[test]
    fn repo_config_scopes_the_reactor_modules() {
        // The event-driven runtime must be covered by both the blocking-call
        // lint and the panic-safety lint (a panic on the reactor thread
        // takes down every connection at once).
        let cfg = AnalysisConfig::default_for_repo();
        for path in [
            "crates/service/src/reactor/events.rs",
            "crates/service/src/reactor/poll.rs",
            "crates/service/src/reactor/conn.rs",
            "crates/service/src/reactor/frame.rs",
        ] {
            assert!(cfg.matches_any(path, &cfg.reactor_scope), "{path} in reactor scope");
            assert!(cfg.matches_any(path, &cfg.panic_hot_paths), "{path} panic-checked");
        }
        assert!(!cfg.matches_any("crates/service/src/session.rs", &cfg.reactor_scope));
    }

    #[test]
    fn decl_name_recovers_fields_params_and_lets() {
        let cases: &[(&str, &str, &str)] = &[
            ("struct A { heat: HashMap<u64, u32> }", "HashMap", "heat"),
            ("fn f(guard: &std::sync::Mutex<u8>) {}", "Mutex", "guard"),
            ("struct B { inner: Arc<std::sync::Mutex<Vec<u8>>> }", "Mutex", "inner"),
            ("fn g() { let mut m = HashMap::new(); }", "HashMap", "m"),
            ("fn h(x: &'a mut RwLock<u8>) {}", "RwLock", "x"),
        ];
        for (src, ty, want) in cases {
            let l = lexer::lex(src);
            let idx = l
                .tokens
                .iter()
                .position(|t| matches!(&t.tok, Tok::Ident(s) if s == ty))
                .expect("type token");
            assert_eq!(
                decl_name_before(&l.tokens, idx).as_deref(),
                Some(*want),
                "case: {src}"
            );
        }
        // A bare import has no binding name.
        let l = lexer::lex("use std::collections::HashMap;");
        let idx = l
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "HashMap"))
            .expect("type token");
        assert_eq!(decl_name_before(&l.tokens, idx), None);
    }
}

#[cfg(test)]
mod fixture_tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Runs every lint over already-parsed sources (no filesystem walking).
    fn analyze_sources(sources: &[SourceFile], cfg: &AnalysisConfig) -> Vec<Finding> {
        let ws = Workspace::build_with(sources, &cfg.panic_kernel_allowlist);
        analyze_workspace(&ws, cfg)
    }

    /// Deterministic text dump of a call graph for the golden: `node`,
    /// `edge`, `ext` lines, deduped and sorted within each section.
    fn dump(g: &callgraph::CallGraph, sources: &[SourceFile]) -> String {
        let loc = |i: usize| {
            let n = &g.nodes[i];
            format!("{}|{}", sources[n.file].path, n.qual)
        };
        let mut nodes: Vec<String> = (0..g.nodes.len()).map(|i| format!("node {}", loc(i))).collect();
        nodes.sort();
        let mut edges: BTreeSet<String> = BTreeSet::new();
        let mut exts: BTreeSet<String> = BTreeSet::new();
        for i in 0..g.nodes.len() {
            for e in &g.edges[i] {
                edges.insert(format!("edge {} -> {}", loc(i), loc(e.callee)));
            }
            for u in &g.unresolved[i] {
                exts.insert(format!("ext {} -> {}", loc(i), u.written));
            }
        }
        let mut out = nodes;
        out.extend(edges);
        out.extend(exts);
        out.join("\n") + "\n"
    }

    /// Locates `tests/fixtures` whether the test binary runs with CWD at
    /// the package dir (cargo) or the repo root (offline rustc harness).
    fn fixture_dir() -> PathBuf {
        if let Ok(d) = std::env::var("CARGO_MANIFEST_DIR") {
            let p = PathBuf::from(d).join("tests/fixtures");
            if p.is_dir() {
                return p;
            }
        }
        for c in ["crates/analyzer/tests/fixtures", "tests/fixtures"] {
            let p = PathBuf::from(c);
            if p.is_dir() {
                return p;
            }
        }
        panic!("fixture dir not found from cwd {:?}", std::env::current_dir());
    }

    fn run_fixture(names: &[&str], cfg: &AnalysisConfig) -> Vec<String> {
        let dir = fixture_dir();
        let sources: Vec<SourceFile> = names
            .iter()
            .map(|n| {
                let text = fs::read_to_string(dir.join(n))
                    .unwrap_or_else(|e| panic!("read fixture {n}: {e}"));
                SourceFile::parse(&format!("fixtures/{n}"), &text)
            })
            .collect();
        analyze_sources(&sources, cfg)
            .iter()
            .map(|f| format!("{}:{}:{}:{}", f.lint, f.file, f.line, f.tag))
            .collect()
    }

    fn golden(name: &str) -> Vec<String> {
        let text = fs::read_to_string(fixture_dir().join(name))
            .unwrap_or_else(|e| panic!("read golden {name}: {e}"));
        text.lines()
            .map(|l| l.trim())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.to_string())
            .collect()
    }

    #[test]
    fn panic_safety_fixture_matches_golden() {
        let cfg = AnalysisConfig {
            panic_hot_paths: vec!["panic_hot.rs".into()],
            ..AnalysisConfig::default()
        };
        assert_eq!(run_fixture(&["panic_hot.rs"], &cfg), golden("panic_hot.expected"));
    }

    #[test]
    fn determinism_fixture_matches_golden() {
        let cfg = AnalysisConfig {
            determinism_scope: vec!["determinism.rs".into()],
            ..AnalysisConfig::default()
        };
        assert_eq!(run_fixture(&["determinism.rs"], &cfg), golden("determinism.expected"));
    }

    #[test]
    fn determinism_allowlist_suppresses_entirely() {
        let cfg = AnalysisConfig {
            determinism_scope: vec!["determinism.rs".into()],
            determinism_allowlist: vec!["determinism.rs".into()],
            ..AnalysisConfig::default()
        };
        assert_eq!(run_fixture(&["determinism.rs"], &cfg), Vec::<String>::new());
    }

    #[test]
    fn reactor_blocking_fixture_matches_golden() {
        let cfg = AnalysisConfig {
            reactor_scope: vec!["reactor_blocking.rs".into()],
            ..AnalysisConfig::default()
        };
        assert_eq!(
            run_fixture(&["reactor_blocking.rs"], &cfg),
            golden("reactor_blocking.expected")
        );
    }

    #[test]
    fn unsafe_audit_fixture_matches_golden() {
        let cfg = AnalysisConfig::default();
        assert_eq!(run_fixture(&["unsafe_audit.rs"], &cfg), golden("unsafe_audit.expected"));
    }

    #[test]
    fn per_file_and_dataflow_seeds_agree() {
        // The per-file lints and the dataflow classify through one
        // function: every per-file finding inside a fn body must be a
        // seed event of that fn, on the same line with the same tag.
        let cfg = AnalysisConfig {
            panic_hot_paths: vec!["panic_hot.rs".into()],
            reactor_scope: vec!["reactor_blocking.rs".into()],
            ..AnalysisConfig::default()
        };
        let sources = parse_as(&[
            ("fixtures/panic_hot.rs", "panic_hot.rs"),
            ("fixtures/reactor_blocking.rs", "reactor_blocking.rs"),
        ]);
        let ws = Workspace::build(&sources);
        let mut checked = 0;
        for (file, s) in sources.iter().enumerate() {
            let toks = &s.lexed.tokens;
            let findings = [
                lints::panic_safety::run(s, &cfg),
                lints::reactor_blocking::run(s, &cfg),
            ]
            .concat();
            for f in findings {
                let innermost = (0..ws.graph.nodes.len())
                    .filter(|&n| {
                        let (open, close) = ws.graph.nodes[n].body;
                        ws.graph.nodes[n].file == file
                            && toks[open].line <= f.line
                            && f.line <= toks[close].line
                    })
                    .min_by_key(|&n| ws.graph.nodes[n].body.1 - ws.graph.nodes[n].body.0);
                let Some(n) = innermost else { continue };
                let seeded = ws.flow.events[n].iter().any(|ev| match ev {
                    dataflow::Event::Panic { tag, line } | dataflow::Event::Block { tag, line } => {
                        *tag == f.tag && *line == f.line
                    }
                    _ => false,
                });
                assert!(seeded, "{f} has no matching seed in `{}`", ws.graph.nodes[n].qual);
                checked += 1;
            }
        }
        assert_eq!(checked, 6 + 8, "every fixture finding sits in a fn body");
    }

    /// Parses fixtures under caller-chosen repo-relative paths (the graph
    /// fixtures need `crates/<name>/` prefixes so cross-crate resolution
    /// rules engage).
    fn parse_as(pairs: &[(&str, &str)]) -> Vec<SourceFile> {
        let dir = fixture_dir();
        pairs
            .iter()
            .map(|(path, fixture)| {
                let text = fs::read_to_string(dir.join(fixture))
                    .unwrap_or_else(|e| panic!("read fixture {fixture}: {e}"));
                SourceFile::parse(path, &text)
            })
            .collect()
    }

    #[test]
    fn callgraph_fixture_matches_golden() {
        let sources = parse_as(&[
            ("crates/gdep/src/lib.rs", "graph_dep.rs"),
            ("crates/gmain/src/lib.rs", "graph_main.rs"),
        ]);
        let ws = Workspace::build(&sources);
        let got: Vec<String> =
            dump(&ws.graph, &sources).lines().map(|l| l.to_string()).collect();
        assert_eq!(got, golden("callgraph.expected"));
        // Spot-check the edge classes the golden encodes, so a regenerated
        // golden can't silently drop one: trait-object dispatch reaches
        // BOTH impls, the use-alias call crosses crates, and both flavors
        // of recursion produce edges.
        for must in [
            "edge crates/gmain/src/lib.rs|run_all -> crates/gdep/src/lib.rs|Fast::go",
            "edge crates/gmain/src/lib.rs|run_all -> crates/gdep/src/lib.rs|Slow::go",
            "edge crates/gmain/src/lib.rs|run_all -> crates/gdep/src/lib.rs|helper",
            "edge crates/gdep/src/lib.rs|recurse -> crates/gdep/src/lib.rs|recurse",
            "edge crates/gmain/src/lib.rs|ping -> crates/gmain/src/lib.rs|pong",
            "edge crates/gmain/src/lib.rs|pong -> crates/gmain/src/lib.rs|ping",
        ] {
            assert!(got.iter().any(|l| l == must), "missing {must}");
        }
    }

    #[test]
    fn dead_surface_fixture_matches_golden() {
        let sources = parse_as(&[("crates/dead/src/lib.rs", "dead_surface.rs")]);
        let refs = parse_as(&[("tests/dead_surface_ref.rs", "dead_surface_ref.rs")]);
        let got: Vec<String> = lints::dead_surface::run(&sources, &refs)
            .iter()
            .map(|f| format!("{}:{}:{}:{}", f.lint, f.file, f.line, f.tag))
            .collect();
        assert_eq!(got, golden("dead_surface.expected"));
        assert!(annotation_findings(&sources[0]).is_empty(), "dead-surface is a known allow id");
    }

    #[test]
    fn reactor_transitive_two_level_fixture() {
        let sources = parse_as(&[
            ("fixtures/reactor_entry2.rs", "reactor_entry2.rs"),
            ("fixtures/reactor_helpers2.rs", "reactor_helpers2.rs"),
        ]);
        let cfg = AnalysisConfig {
            reactor_scope: vec!["reactor_entry2.rs".into()],
            ..AnalysisConfig::default()
        };
        let findings = analyze_sources(&sources, &cfg);
        let got: Vec<String> = findings
            .iter()
            .map(|f| format!("{}:{}:{}:{}", f.lint, f.file, f.line, f.tag))
            .collect();
        assert_eq!(got, golden("reactor_transitive.expected"));
        // The single finding must carry the FULL two-level chain: the
        // boundary callee and the deeper helper that actually blocks.
        let msg = &findings[0].message;
        assert!(msg.contains("dispatch_work (fixtures/reactor_helpers2.rs:"), "{msg}");
        assert!(msg.contains("finish (fixtures/reactor_helpers2.rs:"), "{msg}");
        assert!(msg.contains("`thread::sleep`"), "{msg}");
    }

    #[test]
    fn fixpoint_terminates_on_call_cycle() {
        // Mutual recursion with a blocking seed inside the cycle: the
        // fixpoint must terminate and may_block must reach both fns.
        let src = "\
pub fn a(n: u64) {
    if n > 0 {
        b(n - 1);
    }
}

pub fn b(n: u64) {
    std::thread::sleep(Duration::from_millis(n));
    a(n);
}
";
        let sources = vec![SourceFile::parse("fixtures/cycle.rs", src)];
        let ws = Workspace::build(&sources);
        for name in ["a", "b"] {
            let i = ws
                .graph
                .nodes
                .iter()
                .position(|n| n.qual == name)
                .unwrap_or_else(|| panic!("node {name}"));
            assert!(ws.flow.may_block[i].is_some(), "may_block not reached for {name}");
        }
    }
}
