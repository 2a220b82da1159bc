//! Interprocedural dataflow over the call graph.
//!
//! Propagates three facts from the seed detector [`seed_at`] — the same
//! one the per-file `panic-safety` and `reactor-blocking` lints use — to
//! a fixpoint, caller-ward along call edges:
//!
//! * **may-block** — blocking reads, `BufReader`, `thread::sleep`,
//!   blocking `.recv()`, `set_nonblocking(false)` and `.lock(..)`;
//! * **may-panic** — `.unwrap()`, `.expect(..)`, `panic!`-family
//!   macros, slice indexing;
//! * **locks-acquired** — the set of lock bindings a fn (or anything it
//!   calls) acquires.
//!
//! The lattices are tiny and monotone — booleans with a witness, and
//! finite name sets — so a plain worklist terminates even on cyclic
//! (recursive) graphs. Each boolean fact keeps a [`Witness`]: the line
//! it was observed at and, for propagated facts, the callee it came
//! through, so lints can reconstruct the full call chain for messages.
//!
//! Suppression composes with the existing annotations: a seed under
//! `lint:allow(reactor|panic|lock-order)` never enters the
//! lattice, and propagation through a *call site* annotated with the
//! matching id is cut, which is how deliberate blocking workers stay
//! out of their callers' facts.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, Token};
use crate::{decl_name_before, ident_at, is_keyword, is_punct, SourceFile};
use std::collections::BTreeSet;

/// Blocking `Read`-trait helpers: each parks the thread until the peer
/// sends enough bytes.
pub const BLOCKING_READS: &[&str] =
    &["read_to_string", "read_to_end", "read_line", "read_exact"];

/// Why a boolean fact holds for a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Line inside the node where the seed or the propagating call is.
    pub line: u32,
    /// Seed tag (`recv`, `unwrap`, ...) or callee qual for propagated.
    pub desc: String,
    /// Callee node the fact came through (None for a direct seed).
    pub via: Option<usize>,
}

/// One ordered observation inside a fn body (token order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A lock acquisition `name.lock()/.read()/.write()`.
    Acquire {
        /// Lock binding name.
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// A resolved call to another node.
    Call {
        /// Callee node index.
        callee: usize,
        /// 1-based line.
        line: u32,
    },
    /// A direct blocking operation.
    Block {
        /// Seed tag (`recv`, `thread::sleep`, ...).
        tag: String,
        /// 1-based line.
        line: u32,
    },
    /// A direct panic site.
    Panic {
        /// Seed tag (`unwrap`, `index`, ...).
        tag: String,
        /// 1-based line.
        line: u32,
    },
}

/// Fixpoint results, indexed by call-graph node.
#[derive(Debug, Default)]
pub struct Dataflow {
    /// Ordered events per node (test regions and allowed lines elided).
    pub events: Vec<Vec<Event>>,
    /// may-block witness per node.
    pub may_block: Vec<Option<Witness>>,
    /// may-panic witness per node.
    pub may_panic: Vec<Option<Witness>>,
    /// Lock bindings acquired by the node or anything it calls.
    pub locks: Vec<BTreeSet<String>>,
    /// Every binding declared with a Mutex/RwLock type, workspace-wide.
    pub lock_names: BTreeSet<String>,
}

/// Reconstructs the call chain behind a propagated fact as
/// `qual (file:line)` frames, ending at the seed tag. `start` must have
/// a witness in `facts`.
pub fn chain_of(
    facts: &[Option<Witness>],
    graph: &CallGraph,
    sources: &[SourceFile],
    start: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = start;
    for _ in 0..=graph.nodes.len() {
        let w = match &facts[cur] {
            Some(w) => w,
            None => break,
        };
        let n = &graph.nodes[cur];
        out.push(format!("{} ({}:{})", n.qual, sources[n.file].path, w.line));
        match w.via {
            Some(next) => cur = next,
            None => {
                out.push(format!("`{}`", w.desc));
                break;
            }
        }
    }
    out
}

/// Runs seed extraction and the propagation fixpoint. Panic events in
/// files matching `kernel_allowlist` (dim-asserted compute kernels) are
/// skipped at extraction, so they never enter the may-panic lattice.
pub fn run(sources: &[SourceFile], graph: &CallGraph, kernel_allowlist: &[String]) -> Dataflow {
    let mut d = Dataflow { lock_names: collect_lock_names(sources), ..Dataflow::default() };
    let n = graph.nodes.len();
    d.events = (0..n)
        .map(|i| {
            let path = &sources[graph.nodes[i].file].path;
            let kernel = kernel_allowlist.iter().any(|p| path.contains(p.as_str()));
            extract_events(i, graph, sources, &d, kernel)
        })
        .collect();
    d.may_block = vec![None; n];
    d.may_panic = vec![None; n];
    d.locks = vec![BTreeSet::new(); n];

    // Seed the boolean facts and the direct lock sets.
    for i in 0..n {
        for ev in &d.events[i] {
            match ev {
                Event::Block { tag, line } if d.may_block[i].is_none() => {
                    d.may_block[i] =
                        Some(Witness { line: *line, desc: tag.clone(), via: None });
                }
                Event::Panic { tag, line } if d.may_panic[i].is_none() => {
                    d.may_panic[i] =
                        Some(Witness { line: *line, desc: tag.clone(), via: None });
                }
                Event::Acquire { name, .. } => {
                    d.locks[i].insert(name.clone());
                }
                _ => {}
            }
        }
    }

    propagate_bool(&mut d.may_block, &d.events, graph, sources, "reactor");
    propagate_bool(&mut d.may_panic, &d.events, graph, sources, "panic");
    propagate_locks(&mut d.locks, &d.events, graph, sources);
    d
}

/// Caller-ward worklist for one boolean fact. Propagation into a caller
/// happens through its first non-suppressed call site of the callee;
/// a call line annotated `lint:allow(<allow_id>)` cuts the flow.
fn propagate_bool(
    facts: &mut [Option<Witness>],
    events: &[Vec<Event>],
    graph: &CallGraph,
    sources: &[SourceFile],
    allow_id: &str,
) {
    let mut work: Vec<usize> =
        (0..facts.len()).filter(|&i| facts[i].is_some()).collect();
    while let Some(m) = work.pop() {
        for &c in &graph.callers[m] {
            if facts[c].is_some() {
                continue;
            }
            let site = events[c].iter().find_map(|ev| match ev {
                Event::Call { callee, line }
                    if *callee == m
                        && !sources[graph.nodes[c].file].allowed(allow_id, *line) =>
                {
                    Some(*line)
                }
                _ => None,
            });
            if let Some(line) = site {
                facts[c] = Some(Witness {
                    line,
                    desc: graph.nodes[m].qual.clone(),
                    via: Some(m),
                });
                work.push(c);
            }
        }
    }
}

/// Caller-ward worklist for the lock sets (finite union lattice).
fn propagate_locks(
    locks: &mut [BTreeSet<String>],
    events: &[Vec<Event>],
    graph: &CallGraph,
    sources: &[SourceFile],
) {
    let mut work: Vec<usize> =
        (0..locks.len()).filter(|&i| !locks[i].is_empty()).collect();
    while let Some(m) = work.pop() {
        let from = locks[m].clone();
        for &c in &graph.callers[m] {
            let calls_through = events[c].iter().any(|ev| matches!(ev,
                Event::Call { callee, line }
                    if *callee == m
                        && !sources[graph.nodes[c].file].allowed("lock-order", *line)));
            if !calls_through {
                continue;
            }
            let before = locks[c].len();
            locks[c].extend(from.iter().cloned());
            if locks[c].len() != before {
                work.push(c);
            }
        }
    }
}

/// Every binding declared with a `Mutex`/`RwLock` type, in any file.
fn collect_lock_names(sources: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for s in sources {
        let toks = &s.lexed.tokens;
        for i in 0..toks.len() {
            if matches!(ident_at(toks, i), Some("Mutex") | Some("RwLock")) {
                if let Some(n) = decl_name_before(toks, i) {
                    names.insert(n);
                }
            }
        }
    }
    names
}

/// Token ranges of fns nested inside `node`'s body (their events belong
/// to the nested node).
fn nested_ranges(node: usize, graph: &CallGraph) -> Vec<(usize, usize)> {
    let me = &graph.nodes[node];
    let mut skip: Vec<(usize, usize)> = graph
        .nodes
        .iter()
        .filter(|m| m.file == me.file && m.body.0 > me.body.0 && m.body.1 < me.body.1)
        .map(|m| (m.tok_fn, m.body.1))
        .collect();
    skip.sort_unstable();
    skip
}

/// Extracts the ordered event list for one node: lock acquisitions,
/// blocking/panic seeds (suppressed by their allow ids and test
/// regions), and resolved calls — all in token order.
fn extract_events(
    node: usize,
    graph: &CallGraph,
    sources: &[SourceFile],
    d: &Dataflow,
    kernel: bool,
) -> Vec<Event> {
    let me = &graph.nodes[node];
    let s = &sources[me.file];
    let toks = &s.lexed.tokens;
    let (bo, bc) = me.body;
    let skip = nested_ranges(node, graph);

    // (token index, event) pairs; calls merge in by their site token.
    let mut evs: Vec<(usize, Event)> = Vec::new();
    for e in &graph.edges[node] {
        let line = e.line;
        if !s.in_test(line) {
            evs.push((e.tok, Event::Call { callee: e.callee, line }));
        }
    }

    let mut i = bo + 1;
    while i < bc {
        if let Some(&(_, se)) = skip.iter().find(|&&(ss, se)| ss <= i && i <= se) {
            i = se + 1;
            continue;
        }
        let line = toks[i].line;
        if s.in_test(line) {
            i += 1;
            continue;
        }
        match seed_at(toks, i) {
            Some(ev @ Event::Panic { .. }) if !kernel && !s.allowed("panic", line) => {
                evs.push((i, ev))
            }
            Some(ev @ Event::Block { .. }) if !s.allowed("reactor", line) => evs.push((i, ev)),
            _ => {}
        }
        // Acquisitions stay limited to bindings declared as a lock.
        if matches!(ident_at(toks, i), Some("lock" | "read" | "write"))
            && i > 0
            && is_punct(toks, i - 1, '.')
            && is_punct(toks, i + 1, '(')
            && is_punct(toks, i + 2, ')')
            && !s.allowed("lock-order", line)
        {
            if let Some(recv) = ident_at(toks, i.wrapping_sub(2)) {
                if d.lock_names.contains(recv) {
                    // After the Block at the same site.
                    evs.push((i + 1, Event::Acquire { name: recv.to_string(), line }));
                }
            }
        }
        i += 1;
    }
    evs.sort_by_key(|(tok, _)| *tok);
    evs.into_iter().map(|(_, e)| e).collect()
}

/// The one place the seed rules live: whether token `i` is a panic site
/// or a blocking site, and with what tag, as an `Event` on its line. The
/// per-file `panic-safety` and `reactor-blocking` lints and
/// `extract_events` all classify through here; callers apply scope,
/// test regions and `lint:allow` annotations.
pub fn seed_at(toks: &[Token], i: usize) -> Option<Event> {
    let line = toks[i].line;
    let dot_before = i > 0 && is_punct(toks, i - 1, '.');
    let paren_after = is_punct(toks, i + 1, '(');
    let zero_arg = paren_after && is_punct(toks, i + 2, ')');
    let panic = |tag: &str| Some(Event::Panic { tag: tag.to_string(), line });
    let block = |tag: &str| Some(Event::Block { tag: tag.to_string(), line });
    let id = match &toks[i].tok {
        Tok::Punct('[') if i > 0 && is_index_receiver(toks, i - 1) => return panic("index"),
        Tok::Ident(id) => id.as_str(),
        _ => return None,
    };
    match id {
        _ if BLOCKING_READS.contains(&id) && dot_before && paren_after => block(id),
        "BufReader" => block(id),
        "sleep" if paren_after => block("thread::sleep"),
        "recv" if dot_before && zero_arg => block(id),
        "set_nonblocking"
            if paren_after && ident_at(toks, i + 2) == Some("false") && is_punct(toks, i + 3, ')') =>
        {
            block("set_nonblocking(false)")
        }
        "lock" if dot_before && paren_after => block(id),
        "unwrap" if dot_before && zero_arg => panic(id),
        "expect" if dot_before && paren_after => panic(id),
        "panic" | "todo" | "unimplemented" if is_punct(toks, i + 1, '!') => {
            panic(&format!("{id}!"))
        }
        _ => None,
    }
}

/// True when the token before `[` makes it an *indexing* expression:
/// an identifier (`buf[i]`), a call result (`f()[i]`), or a prior index
/// (`m[i][j]`). Attributes (`#[..]`), macro brackets (`vec![..]`), array
/// types/literals (`[u8; 4]`, `= [a, b]`) all have different predecessors
/// and are excluded; keywords (`return [x]`) are array literals.
fn is_index_receiver(toks: &[Token], prev: usize) -> bool {
    match &toks[prev].tok {
        Tok::Punct(')') | Tok::Punct(']') => true,
        Tok::Ident(s) => !is_keyword(s) || s == "self",
        _ => false,
    }
}
