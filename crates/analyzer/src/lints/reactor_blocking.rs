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

use crate::dataflow::{seed_at, Event};
use crate::{mk_finding, AnalysisConfig, Finding, SourceFile};

/// Runs the lint over one file (no-op outside the configured reactor
/// modules). The whole file is scanned, not only fn bodies.
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
        if let Some(Event::Block { tag, .. }) = seed_at(toks, i) {
            let message = format!(
                "`{tag}` can park the reactor thread and stall every connection; use the \
                 nonblocking path (`FrameDecoder`, `try_recv`, the poller timeout) or annotate \
                 `// lint:allow(reactor) reason=...`"
            );
            out.push(mk_finding(s, "reactor-blocking", line, &tag, message));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig { reactor_scope: vec!["evloop.rs".into()], ..AnalysisConfig::default() }
    }

    fn transitive(ws: &Workspace<'_>) -> Vec<Finding> {
        let c = cfg();
        crate::lints::run_transitive(
            ws,
            "reactor-blocking",
            &c.reactor_scope,
            &ws.flow.may_block,
            "reactor",
            "calls-block",
        )
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
        let fs = transitive(&ws);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].tag, "calls-block:dispatch");
        assert_eq!(fs[0].line, 1);
        // Full chain, all four frames: entry -> dispatch -> fetch -> seed.
        assert!(
            fs[0].message.contains(
                "on_ready (evloop.rs:1) -> dispatch (helpers.rs:1) -> fetch (helpers.rs:2) \
                 -> `read_to_string`;"
            ),
            "{}",
            fs[0].message
        );
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
        assert!(transitive(&ws).is_empty());
    }

    #[test]
    fn nonblocking_helpers_produce_no_transitive_findings() {
        let reactor = SourceFile::parse("evloop.rs", "fn on_ready() { dispatch(1); }\n");
        let helpers =
            SourceFile::parse("helpers.rs", "pub fn dispatch(x: u32) { rx.try_recv(); }\n");
        let sources = vec![reactor, helpers];
        let ws = Workspace::build(&sources);
        assert!(transitive(&ws).is_empty());
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
