//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent, request id). Spans stay in memory
//! while the workload runs and are written out as JSON lines when it
//! ends. Untraced runs pass `None` wherever a `&Tracer` is optional, so
//! they record nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request (or batch) the span belongs to; spans of one request share it.
    pub req: u64,
    /// Layer call, e.g. `"store.fanout"`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span sink.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that has not
    /// been recorded yet.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id` over `[start, end]`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = self.ns(start);
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
        };
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Runs `f`, recording it as span `name` when `tr` is set. `f` receives
/// the span's id (0 when untraced) so it can parent child spans; a child
/// may be recorded before its parent closes.
pub fn timed<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    let Some(tr) = tr else {
        return f(0);
    };
    let id = tr.id();
    let start = Instant::now();
    let out = f(id);
    tr.record(id, name, parent, req, start, Instant::now());
    out
}

/// `span`'s duration minus the part of it that `children` cover. Children
/// may nest, overlap each other (concurrent calls) or stick out of the
/// parent; only their union inside the parent's interval is subtracted.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    span.dur_ns() - covered
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_time(s, kids);
    }
    out
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let p = span(1, 0, 0, 100);
        let a = span(2, 1, 10, 20);
        let b = span(3, 1, 50, 80);
        assert_eq!(self_time(&p, &[&a, &b]), 60);
        assert_eq!(self_time(&p, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let p = span(1, 0, 0, 100);
        let a = span(2, 1, 10, 60);
        let b = span(3, 1, 40, 70);
        let c = span(4, 1, 65, 75);
        // Union is [10, 75): 65 ns covered.
        assert_eq!(self_time(&p, &[&a, &b, &c]), 35);
    }

    #[test]
    fn self_time_merges_nested_children_and_clips_overhang() {
        let p = span(1, 0, 100, 200);
        let child = span(2, 1, 90, 150); // starts before the parent
        let inner = span(3, 1, 110, 140); // nested inside `child`
        let late = span(4, 1, 190, 260); // ends after the parent
                                         // Covered: [100, 150) and [190, 200) = 60 ns.
        assert_eq!(self_time(&p, &[&child, &inner, &late]), 40);
    }

    #[test]
    fn totals_group_by_name_with_self_time() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 0, 30),
            span(3, 1, 20, 50),
            span(4, 0, 200, 210),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            Totals {
                count: 2,
                total_ns: 110,
                self_ns: 50 + 10
            }
        );
        assert_eq!(
            t["child"],
            Totals {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
    }

    #[test]
    fn untraced_calls_record_nothing_and_traced_calls_parent() {
        assert_eq!(timed(None, "x", 0, 0, |id| id), 0);
        let tr = Tracer::new();
        let outer = timed(Some(&tr), "outer", 0, 7, |id| {
            timed(Some(&tr), "inner", id, 7, |_| ());
            id
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, outer);
        assert_eq!(spans[1].id, outer);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
