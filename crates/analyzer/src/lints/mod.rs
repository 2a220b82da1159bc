//! The repo-specific lints. Each module exposes a `run` function
//! returning findings; scoping (which paths a lint applies to) lives in
//! [`crate::AnalysisConfig`] so fixture tests can target fixture files.
//! [`run_transitive`] carries `panic-safety` and `reactor-blocking`
//! across calls, consuming the interprocedural facts from
//! [`crate::dataflow`]; `dead_surface` reads every parsed file at once,
//! with the reference-only files beside them.

pub mod dead_surface;
pub mod determinism;
pub mod panic_safety;
pub mod reactor_blocking;
pub mod unsafe_audit;

use crate::dataflow::{chain_of, Event, Witness};
use crate::{mk_finding, Finding, Workspace};
use std::collections::BTreeSet;

/// The transitive pass: a fn in `scope` calling an out-of-scope callee
/// whose fact holds (directly or deeper down) is flagged at the call
/// site as `<tag>:<callee>`, with every frame of the chain to the seed
/// in the message. In-scope callees are skipped — their own seeds are
/// reported by the per-file lint and their outward calls by this pass at
/// the deeper frame — so each path surfaces once. A call annotated
/// `lint:allow(<allow>)` is not flagged.
pub fn run_transitive(
    ws: &Workspace<'_>,
    lint: &'static str,
    scope: &[String],
    facts: &[Option<Witness>],
    allow: &str,
    tag: &str,
) -> Vec<Finding> {
    let in_scope = |file: usize| scope.iter().any(|p| ws.sources[file].path.contains(p.as_str()));
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for n in 0..ws.graph.nodes.len() {
        let node = &ws.graph.nodes[n];
        let s = &ws.sources[node.file];
        if !in_scope(node.file) || s.in_test(node.line) {
            continue;
        }
        for ev in &ws.flow.events[n] {
            let (callee, line) = match ev {
                Event::Call { callee, line } => (*callee, *line),
                _ => continue,
            };
            let target = &ws.graph.nodes[callee];
            if in_scope(target.file)
                || facts[callee].is_none()
                || s.allowed(allow, line)
                || !seen.insert((n, callee))
            {
                continue;
            }
            let mut chain = vec![format!("{} ({}:{})", node.qual, s.path, line)];
            chain.extend(chain_of(facts, &ws.graph, ws.sources, callee));
            let seed = chain.last().cloned().unwrap_or_default();
            out.push(mk_finding(
                s,
                lint,
                line,
                &format!("{tag}:{}", target.qual),
                format!(
                    "`{}` reaches {seed} through `{}`: {}; keep it off this path or annotate \
                     the call `// lint:allow({allow}) reason=...`",
                    node.qual,
                    target.qual,
                    chain.join(" -> ")
                ),
            ));
        }
    }
    out
}
