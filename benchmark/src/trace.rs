//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own files, around calls into a
//! layer's public functions; nothing inside the workspace crates is
//! instrumented. They stay in memory while the workload runs and are
//! written out as JSONL when it ends.

use std::io::Write;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root; spans of one request share
/// `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

const DISABLED: usize = usize::MAX;

/// Records spans on one thread. A disabled tracer costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: u32,
    request: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// `id_base` keeps span ids of different threads apart; `epoch` is the
    /// shared zero of all their clocks.
    pub fn new(enabled: bool, epoch: Instant, id_base: u32) -> Self {
        Self { enabled, epoch, id_base, request: 0, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans entered from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> usize {
        let id = self.id_base + self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, request: self.request, name, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(DISABLED);
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let now = self.now_ns();
        let idx = self.push(name, parent, now, now);
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if open.0 == DISABLED {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Attaches children whose durations the callee reported (µs) to the
    /// closed span `open`: laid back to back from the parent's start and
    /// clipped to its end, since only their lengths are known.
    pub fn add_children(&mut self, open: Open, children: &[(&'static str, u64)]) {
        if open.0 == DISABLED {
            return;
        }
        let (parent, mut at, end) = {
            let p = &self.spans[open.0];
            (p.id, p.start_ns, p.end_ns)
        };
        for &(name, dur_us) in children {
            let stop = (at + dur_us * 1000).min(end);
            self.push(name, parent, at, stop);
            at = stop;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span must be closed");
        self.spans
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover. Returned in span order, nanoseconds.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            covered[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&covered).map(|(s, &c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Self times (µs) of every span called `name`.
pub fn self_us(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

/// Writes one JSON object per span, with its self time.
pub fn write_jsonl(mut w: impl Write, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    for (s, self_ns) in spans.iter().zip(&selfs) {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, "step", 0, 1000),
            span(2, 1, "act", 0, 100),
            span(3, 1, "env", 100, 700),
            span(4, 3, "stress", 150, 650),
        ];
        // Grandchildren count against their own parent only.
        assert_eq!(self_times_ns(&spans), vec![300, 100, 100, 500]);
        assert_eq!(self_us(&spans, "env"), vec![0.1]);
        assert_eq!(durations_us(&spans, "stress"), vec![0.5]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Reported child lengths can exceed a coarse parent clock.
        let spans = [span(1, 0, "p", 0, 100), span(2, 1, "c", 0, 80), span(3, 1, "c", 80, 130)];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new(true, Instant::now(), 1000);
        t.set_request(7);
        let a = t.enter("outer");
        let b = t.enter("inner");
        t.exit(b);
        t.exit(a);
        t.add_children(b, &[("x", 0), ("y", 0)]);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].id, spans[0].parent, spans[0].request), (1001, 0, 7));
        assert_eq!(spans[1].parent, 1001);
        assert_eq!((spans[2].name, spans[2].parent), ("x", 1002));
        assert!(spans[3].end_ns <= spans[1].end_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let a = t.enter("outer");
        t.add_children(a, &[("x", 5)]);
        t.exit(a);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_self_time() {
        let spans = [span(1, 0, "p", 0, 100), span(2, 1, "c", 10, 40)];
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"p\"") && lines[0].contains("\"self_ns\":70"));
        assert!(lines[1].contains("\"parent\":1") && lines[1].contains("\"self_ns\":30"));
    }
}
