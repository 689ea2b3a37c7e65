//! In-memory spans for the traced run, self-time accounting, the
//! per-workload ledger, and the Chrome/Perfetto JSON writer.
//!
//! Spans are recorded from the benchmark's own files around the calls
//! into each layer; a span takes the instants the workload code already
//! read for its own timings, so tracing adds no clock reads to a timed
//! region. A span's *self time* is its duration minus the durations of
//! its children (children nest inside their parent and do not overlap,
//! because every tracer belongs to one thread).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{num, quote};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`runtime.commit`, `wire.parse`, ...).
    pub name: &'static str,
    /// Request or update sequence number; 0 for spans that are not
    /// scoped to one request.
    pub seq: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Recording thread (Chrome `tid`).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(on: bool, origin: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            origin,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (between, not inside, open spans).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `at`; it encloses every span recorded until the
    /// matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, seq: u64, at: Instant) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(at);
        self.spans.push(Span {
            name,
            seq,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            tid: self.tid,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span at `at`.
    pub fn close(&mut self, at: Instant) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(at);
        let i = self.stack.pop().expect("close without open");
        self.spans[i].end_ns = end_ns;
    }

    /// Records a complete span inside the innermost open span.
    pub fn leaf(&mut self, name: &'static str, seq: u64, from: Instant, to: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            seq,
            start_ns: self.ns(from),
            end_ns: self.ns(to),
            parent: self.stack.last().copied(),
            tid: self.tid,
        };
        self.spans.push(span);
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Appends another tracer's spans (re-basing their parent indices),
    /// e.g. the second connection thread's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Σ self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// The traced total of a workload broken into per-layer parts plus a
/// reported residual: `Σ parts + residual = total`.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Names of the root spans whose durations sum to the total.
    pub roots: Vec<String>,
    /// The traced total, nanoseconds.
    pub total_ns: f64,
    /// Per-layer parts, nanoseconds.
    pub parts: Vec<(String, f64)>,
    /// What no layer span covers, nanoseconds.
    pub residual_ns: f64,
}

impl Ledger {
    /// The ledger of a single-threaded span tree: the total is the sum
    /// of the root spans, each non-root name contributes its self time,
    /// and the roots' own self time is the residual.
    pub fn from_tree(spans: &[Span]) -> Ledger {
        let mut roots = BTreeSet::new();
        let mut total = 0u64;
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            roots.insert(s.name);
            total += s.dur_ns();
        }
        let mut ledger = Ledger {
            roots: roots.iter().map(|r| r.to_string()).collect(),
            total_ns: total as f64,
            ..Ledger::default()
        };
        for (name, ns) in self_times(spans) {
            if roots.contains(name) {
                ledger.residual_ns += ns as f64;
            } else {
                ledger.parts.push((name.to_string(), ns as f64));
            }
        }
        ledger
    }
}

/// Renders spans as a Chrome/Perfetto trace (`X` complete events,
/// microsecond timestamps) with the ledger attached as a top-level
/// `ledger` member.
pub fn chrome_json(workload: &str, spans: &[Span], ledger: &Ledger) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 512);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}",
        quote(workload)
    );
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"seq\": {}}}}}",
            quote(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.parent.map_or(-1, |p| p as i64),
            s.seq
        );
    }
    out.push_str("\n],\n\"ledger\": {");
    let roots: Vec<String> = ledger.roots.iter().map(|r| quote(r)).collect();
    let _ = write!(
        out,
        "\"workload\": {}, \"roots\": [{}], \"total_ns\": {}, \"residual_ns\": {}, \"parts\": {{",
        quote(workload),
        roots.join(", "),
        num(ledger.total_ns),
        num(ledger.residual_ns)
    );
    for (i, (name, ns)) in ledger.parts.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {}", quote(name), num(*ns));
    }
    out.push_str("}}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_ledger_closes() {
        let o = Instant::now();
        let at = |us: u64| o + Duration::from_micros(us);
        let mut t = Tracer::new(true, o, 1);
        t.open("rep", 0, at(0));
        t.open("update", 1, at(10));
        t.leaf("runtime.stage", 1, at(10), at(12));
        t.leaf("runtime.commit", 1, at(12), at(20));
        t.close(at(20));
        t.leaf("check", 0, at(25), at(30));
        t.close(at(40));
        let st = self_times(t.spans());
        assert_eq!(st["rep"], 25_000);
        assert_eq!(st["update"], 0);
        assert_eq!(st["runtime.commit"], 8_000);
        let l = Ledger::from_tree(t.spans());
        assert_eq!(l.total_ns, 40_000.0);
        assert_eq!(l.residual_ns, 25_000.0);
        let parts: f64 = l.parts.iter().map(|(_, v)| v).sum();
        assert_eq!(parts + l.residual_ns, l.total_ns);
        let json = chrome_json("w", t.spans(), &l);
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().arr().unwrap().len(), 6);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let o = Instant::now();
        let mut t = Tracer::new(false, o, 1);
        t.open("rep", 0, o);
        t.leaf("x", 0, o, o);
        t.close(o);
        assert!(t.spans().is_empty());
    }
}
