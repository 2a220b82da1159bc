//! reactor-blocking: the event-driven runtime (PR 8) serves thousands of
//! connections from one reactor thread, so a single blocking call in its
//! modules stalls every session at once. Flags blocking-read helpers
//! (`read_to_string`, `read_to_end`, `read_line`, `read_exact`),
//! `BufReader` (its fill is a blocking read), `thread::sleep`, blocking
//! channel `.recv()`, `set_nonblocking(false)`, and Mutex `.lock()` (the
//! reactor is share-nothing by design; a contended lock blocks the event
//! loop) outside test code, unless annotated
//! `// lint:allow(reactor) reason=...` — worker threads that block on the
//! job queue by design carry exactly that annotation.

use crate::dataflow::{chain_of, Event};
use crate::lexer::Tok;
use crate::{is_punct, mk_finding, AnalysisConfig, Finding, SourceFile, Workspace};
use std::collections::BTreeSet;

/// Blocking `Read`-trait helpers: each parks the thread until the peer
/// sends enough bytes, which is never acceptable on the reactor thread.
const BLOCKING_READS: &[&str] = &["read_to_string", "read_to_end", "read_line", "read_exact"];

/// Runs the lint over one file (no-op outside the configured reactor
/// modules).
pub fn run(s: &SourceFile, cfg: &AnalysisConfig) -> Vec<Finding> {
    if !cfg.matches_any(&s.path, &cfg.reactor_scope) {
        return Vec::new();
    }
    let toks = &s.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let line = toks[i].line;
        if s.in_test(line) || s.allowed("reactor", line) {
            continue;
        }
        let id = match &toks[i].tok {
            Tok::Ident(id) => id.as_str(),
            _ => continue,
        };
        if BLOCKING_READS.contains(&id) && i > 0 && is_punct(toks, i - 1, '.') && is_punct(toks, i + 1, '(')
        {
            out.push(mk_finding(
                s,
                "reactor-blocking",
                line,
                id,
                format!(
                    "`.{id}(..)` blocks until the peer delivers bytes; reactor modules must \
                     use the nonblocking `FrameDecoder` path or annotate \
                     `// lint:allow(reactor) reason=...`"
                ),
            ));
        } else if id == "BufReader" {
            out.push(mk_finding(
                s,
                "reactor-blocking",
                line,
                "BufReader",
                "`BufReader` refills with a blocking read; reactor modules buffer \
                 incrementally via `FrameDecoder` instead"
                    .to_string(),
            ));
        } else if id == "sleep" && is_punct(toks, i + 1, '(') {
            out.push(mk_finding(
                s,
                "reactor-blocking",
                line,
                "thread::sleep",
                "`thread::sleep` parks the reactor thread and stalls every connection; \
                 use the poller timeout for pacing or annotate \
                 `// lint:allow(reactor) reason=...`"
                    .to_string(),
            ));
        } else if id == "recv"
            && i > 0
            && is_punct(toks, i - 1, '.')
            && is_punct(toks, i + 1, '(')
            && is_punct(toks, i + 2, ')')
        {
            out.push(mk_finding(
                s,
                "reactor-blocking",
                line,
                "recv",
                "blocking `.recv()` parks the thread until a message arrives; the reactor \
                 drains completions with `try_recv()` after a poller wake — worker threads \
                 that block by design must annotate `// lint:allow(reactor) reason=...`"
                    .to_string(),
            ));
        } else if id == "set_nonblocking"
            && is_punct(toks, i + 1, '(')
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(v)) if v == "false")
            && is_punct(toks, i + 3, ')')
        {
            out.push(mk_finding(
                s,
                "reactor-blocking",
                line,
                "set_nonblocking(false)",
                "switching a socket back to blocking mode re-introduces stalls the \
                 reactor exists to avoid"
                    .to_string(),
            ));
        } else if id == "lock" && i > 0 && is_punct(toks, i - 1, '.') && is_punct(toks, i + 1, '(')
        {
            out.push(mk_finding(
                s,
                "reactor-blocking",
                line,
                "lock",
                "a Mutex `.lock()` can block the event loop (and holding it across a \
                 poller wait deadlocks under contention); the reactor is share-nothing — \
                 route state through the job/done channels or annotate \
                 `// lint:allow(reactor) reason=...`"
                    .to_string(),
            ));
        }
    }
    out
}

/// Transitive pass: a reactor-scope fn calling an out-of-scope callee
/// that *may block* (directly or deeper down) is flagged at the call
/// site, with the full call chain to the blocking operation in the
/// message. In-scope callees are skipped — their own direct seeds or
/// outward calls are already reported at the deeper frame, so each
/// blocking path surfaces exactly once.
pub fn run_transitive(ws: &Workspace<'_>, cfg: &AnalysisConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for n in 0..ws.graph.nodes.len() {
        let node = &ws.graph.nodes[n];
        let s = &ws.sources[node.file];
        if !cfg.matches_any(&s.path, &cfg.reactor_scope) || s.in_test(node.line) {
            continue;
        }
        for ev in &ws.flow.events[n] {
            let (callee, line) = match ev {
                Event::Call { callee, line } => (*callee, *line),
                _ => continue,
            };
            let target = &ws.graph.nodes[callee];
            if cfg.matches_any(&ws.sources[target.file].path, &cfg.reactor_scope)
                || ws.flow.may_block[callee].is_none()
                || s.allowed("reactor", line)
                || !seen.insert((n, callee))
            {
                continue;
            }
            let mut chain = vec![format!("{} ({}:{})", node.qual, s.path, line)];
            chain.extend(chain_of(&ws.flow.may_block, &ws.graph, ws.sources, callee));
            let mut f = mk_finding(
                s,
                "reactor-blocking",
                line,
                &format!("calls-block:{}", target.qual),
                format!(
                    "reactor fn `{}` reaches a blocking call through `{}`: {}; move the \
                     blocking work to a worker thread or annotate the call \
                     `// lint:allow(reactor) reason=...`",
                    node.qual,
                    target.qual,
                    chain.join(" -> ")
                ),
            );
            f.chain = chain;
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig { reactor_scope: vec!["evloop.rs".into()], ..AnalysisConfig::default() }
    }

    #[test]
    fn transitive_blocking_via_two_helpers_is_flagged_with_chain() {
        let reactor = SourceFile::parse(
            "evloop.rs",
            "fn on_ready() { dispatch(1); }\n",
        );
        let helpers = SourceFile::parse(
            "helpers.rs",
            "pub fn dispatch(x: u32) { fetch(x); }\n\
             pub fn fetch(x: u32) { let mut b = String::new(); stream.read_to_string(&mut b); }\n",
        );
        let sources = vec![reactor, helpers];
        let ws = Workspace::build(&sources);
        let fs = run_transitive(&ws, &cfg());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].tag, "calls-block:dispatch");
        assert_eq!(fs[0].line, 1);
        // Full chain: entry -> dispatch -> fetch -> seed.
        assert_eq!(fs[0].chain.len(), 4);
        assert!(fs[0].chain[0].starts_with("on_ready"));
        assert!(fs[0].chain[1].starts_with("dispatch"));
        assert!(fs[0].chain[2].starts_with("fetch"));
        assert_eq!(fs[0].chain[3], "`read_to_string`");
        assert!(fs[0].message.contains("fetch (helpers.rs:2)"));
    }

    #[test]
    fn allow_at_the_call_site_cuts_the_transitive_finding() {
        let reactor = SourceFile::parse(
            "evloop.rs",
            "fn on_ready() {\n  // lint:allow(reactor) reason=handed to worker pool\n  dispatch(1);\n}\n",
        );
        let helpers =
            SourceFile::parse("helpers.rs", "pub fn dispatch(x: u32) { rx.recv(); }\n");
        let sources = vec![reactor, helpers];
        let ws = Workspace::build(&sources);
        assert!(run_transitive(&ws, &cfg()).is_empty());
    }

    #[test]
    fn nonblocking_helpers_produce_no_transitive_findings() {
        let reactor = SourceFile::parse("evloop.rs", "fn on_ready() { dispatch(1); }\n");
        let helpers =
            SourceFile::parse("helpers.rs", "pub fn dispatch(x: u32) { rx.try_recv(); }\n");
        let sources = vec![reactor, helpers];
        let ws = Workspace::build(&sources);
        assert!(run_transitive(&ws, &cfg()).is_empty());
    }

    fn tags(src: &str) -> Vec<String> {
        let s = SourceFile::parse("evloop.rs", src);
        run(&s, &cfg()).into_iter().map(|f| f.tag).collect()
    }

    #[test]
    fn flags_blocking_reads_and_bufreader() {
        let src = "fn f(s: &mut TcpStream) { let mut b = String::new(); \
                   s.read_to_string(&mut b); s.read_exact(&mut buf); \
                   let r = BufReader::new(s); }";
        assert_eq!(tags(src), vec!["read_to_string", "read_exact", "BufReader"]);
    }

    #[test]
    fn flags_sleep_recv_lock_and_reblocking() {
        let src = "fn f() { std::thread::sleep(d); rx.recv(); m.lock(); \
                   sock.set_nonblocking(false); }";
        assert_eq!(
            tags(src),
            vec!["thread::sleep", "recv", "lock", "set_nonblocking(false)"]
        );
    }

    #[test]
    fn nonblocking_idioms_are_fine() {
        let src = "fn f() { sock.set_nonblocking(true); rx.try_recv(); \
                   rx.recv_timeout(d); stream.read(&mut buf); }";
        assert!(tags(src).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let src = "fn f() {\n  // lint:allow(reactor) reason=worker blocks by design\n  \
                   rx.recv();\n  rx2.recv();\n}";
        let s = SourceFile::parse("evloop.rs", src);
        let fs = run(&s, &cfg());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn test_code_and_out_of_scope_files_are_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn t() { rx.recv(); thread::sleep(d); } }";
        assert!(tags(src).is_empty());
        let s = SourceFile::parse("other.rs", "fn f() { rx.recv(); }");
        assert!(run(&s, &cfg()).is_empty());
    }

    #[test]
    fn strings_mentioning_blocking_calls_are_not_code() {
        let src = "fn f() { log(\"never .recv() or sleep( here\"); }";
        assert!(tags(src).is_empty());
    }
}
