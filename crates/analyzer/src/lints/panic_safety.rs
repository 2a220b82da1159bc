//! panic-safety: the resilient hot paths (env recovery loop, service
//! request handling, WAL replay, engine stepping) must not be able to
//! panic — a panic there tears down a worker mid-episode and defeats the
//! typed-error recovery machinery built in PR 1. Flags `.unwrap()`,
//! `.expect(..)`, `panic!`/`todo!`/`unimplemented!`, and slice/array
//! indexing (which can panic on out-of-bounds) outside test code, unless
//! annotated `// lint:allow(panic) reason=...`.

use crate::dataflow::{seed_at, Event};
use crate::{mk_finding, AnalysisConfig, Finding, SourceFile};

/// Runs the lint over one file (no-op outside the configured hot paths).
/// The whole file is scanned, not only fn bodies, so closures in `const`
/// items are covered too.
pub fn run(s: &SourceFile, cfg: &AnalysisConfig) -> Vec<Finding> {
    if !cfg.matches_any(&s.path, &cfg.panic_hot_paths) {
        return Vec::new();
    }
    let toks = &s.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let line = toks[i].line;
        if s.in_test(line) || s.allowed("panic", line) {
            continue;
        }
        if let Some(Event::Panic { tag, .. }) = seed_at(toks, i) {
            let message = if tag == "index" {
                "slice/array indexing can panic on out-of-bounds in a hot path; use `.get()` / \
                 iterators or annotate `// lint:allow(panic) reason=...`"
                    .to_string()
            } else {
                format!(
                    "`{tag}` in a resilient hot path; return a typed error or annotate \
                     `// lint:allow(panic) reason=...`"
                )
            };
            out.push(mk_finding(s, "panic-safety", line, &tag, message));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig { panic_hot_paths: vec!["hot.rs".into()], ..AnalysisConfig::default() }
    }

    fn tags(src: &str) -> Vec<String> {
        let s = SourceFile::parse("hot.rs", src);
        run(&s, &cfg()).into_iter().map(|f| f.tag).collect()
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"x\"); todo!(); }";
        assert_eq!(tags(src), vec!["unwrap", "expect", "panic!", "todo!"]);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f() { a.unwrap_or(0); a.unwrap_or_else(|| 1); a.unwrap_or_default(); }";
        assert!(tags(src).is_empty());
    }

    #[test]
    fn flags_indexing_but_not_attrs_macros_or_array_literals() {
        let src = "#[derive(Debug)]\nfn f() { let a = vec![1]; let b = [0u8; 4]; return [1, 2]; }\nfn g(xs: &[u8]) -> u8 { xs[0] }";
        assert_eq!(tags(src), vec!["index"]);
    }

    #[test]
    fn chained_and_call_result_indexing_flagged() {
        let src = "fn f() { m[i][j]; f()[0]; self.buf[k]; }";
        assert_eq!(tags(src), vec!["index", "index", "index", "index"]);
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let src = "fn f() {\n  // lint:allow(panic) reason=checked above\n  a.unwrap();\n  b.unwrap();\n}";
        // Only the un-annotated second unwrap fires.
        let s = SourceFile::parse("hot.rs", src);
        let fs = run(&s, &cfg());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); x[0]; panic!(); } }";
        assert!(tags(src).is_empty());
    }

    #[test]
    fn out_of_scope_file_is_skipped() {
        let s = SourceFile::parse("cold.rs", "fn f() { a.unwrap(); }");
        assert!(run(&s, &cfg()).is_empty());
    }

    #[test]
    fn strings_mentioning_unwrap_are_not_code() {
        let src = "fn f() { log(\"please .unwrap() later\"); }";
        assert!(tags(src).is_empty());
    }

    fn transitive(ws: &Workspace<'_>) -> Vec<Finding> {
        let c = cfg();
        crate::lints::run_transitive(
            ws,
            "panic-safety",
            &c.panic_hot_paths,
            &ws.flow.may_panic,
            "panic",
            "calls-panic",
        )
    }

    #[test]
    fn transitive_panic_through_a_helper_is_flagged_with_chain() {
        let hot = SourceFile::parse("hot.rs", "fn step() { decode(b); }\n");
        let cold =
            SourceFile::parse("cold.rs", "pub fn decode(b: &[u8]) -> u8 { b.first().unwrap() }\n");
        let sources = vec![hot, cold];
        let ws = Workspace::build(&sources);
        let fs = transitive(&ws);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].tag, "calls-panic:decode");
        // Every frame of the chain, ending at the seed.
        assert!(
            fs[0].message.contains("step (hot.rs:1) -> decode (cold.rs:1) -> `unwrap`;"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn annotated_seed_does_not_propagate() {
        let hot = SourceFile::parse("hot.rs", "fn step() { decode(b); }\n");
        let cold = SourceFile::parse(
            "cold.rs",
            "pub fn decode(b: &[u8]) -> u8 {\n  // lint:allow(panic) reason=len checked by caller\n  b.first().unwrap()\n}\n",
        );
        let sources = vec![hot, cold];
        let ws = Workspace::build(&sources);
        assert!(transitive(&ws).is_empty());
    }
}
