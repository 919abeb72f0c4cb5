//! The benchmark's own tracing: spans kept in memory around each call
//! into a layer's public function, folded into per-layer self time and
//! counts, and written out when the run ends.
//!
//! A disabled tracer records nothing and reads no clock, so the same
//! code runs traced and untraced and the difference is the tracing
//! overhead.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; spans of one request
/// share `rid`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Shared span-id source and clock epoch. Spans themselves live in
/// per-thread [`Local`] buffers.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    /// A span buffer for the calling thread whose root spans hang under
    /// `parent` (0 for none), e.g. a fan-out span on another thread.
    #[must_use]
    pub fn local(&self, parent: u64) -> Local<'_> {
        Local {
            tracer: self,
            spans: Vec::new(),
            open: vec![parent],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A per-thread span buffer.
pub struct Local<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Local<'_> {
    /// Run `f` inside a span named `name`, child of the innermost open
    /// span of this buffer.
    pub fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.tracer.enabled {
            return f(self);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = *self.open.last().expect("root parent is never popped");
        let start_ns = self.tracer.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.tracer.now_ns();
        self.spans.push(Span {
            id,
            parent,
            rid,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// The innermost open span (0 outside any span or when disabled).
    #[must_use]
    pub fn current(&self) -> u64 {
        *self.open.last().expect("root parent is never popped")
    }

    /// The spans recorded so far, in completion order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time and count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_s: f64,
}

/// Fold spans into per-name totals. A span's self time is its
/// duration minus the union of its children's intervals clipped to it,
/// so children running in parallel on other threads are not
/// subtracted twice.
#[must_use]
pub fn layer_times(spans: &[Span]) -> HashMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: HashMap<&'static str, LayerTime> = HashMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Appends spans to a tab-separated file, up to a cap so a long traced
/// run cannot fill the disk; spans beyond the cap are still folded into
/// the layer totals, only not written.
pub struct SpanFile {
    out: Option<std::io::BufWriter<std::fs::File>>,
    written: usize,
    dropped: usize,
}

/// Most spans one run writes out.
pub const SPAN_FILE_CAP: usize = 200_000;

impl SpanFile {
    /// Create (truncate) `path`; tracing still works if it cannot be
    /// created, the spans are just not written.
    #[must_use]
    pub fn create(path: &std::path::Path) -> Self {
        let out = std::fs::File::create(path)
            .ok()
            .map(std::io::BufWriter::new);
        let mut file = Self {
            out,
            written: 0,
            dropped: 0,
        };
        if let Some(w) = file.out.as_mut() {
            let _ = writeln!(w, "id\tparent\trid\tname\tstart_ns\tend_ns");
        }
        file
    }

    pub fn write(&mut self, spans: &[Span]) {
        let room = SPAN_FILE_CAP.saturating_sub(self.written).min(spans.len());
        if let Some(w) = self.out.as_mut() {
            for s in &spans[..room] {
                let _ = writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}\t{}",
                    s.id, s.parent, s.rid, s.name, s.start_ns, s.end_ns
                );
            }
        }
        self.written += room;
        self.dropped += spans.len() - room;
    }

    /// Flush and return `(written, dropped)`.
    pub fn finish(mut self) -> (usize, usize) {
        if let Some(w) = self.out.as_mut() {
            let _ = w.flush();
        }
        (self.written, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            rid: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "rules", 40, 90),
            span(4, 3, "inner", 50, 60),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["request"].count, 1);
        assert!((t["request"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["parse"].self_s - 20e-9).abs() < 1e-15);
        assert!((t["rules"].self_s - 40e-9).abs() < 1e-15);
        assert!((t["inner"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn parallel_children_are_covered_once_and_clipped() {
        // A fan-out whose children overlap on two threads and one of
        // which outlives the parent's recorded end.
        let spans = [
            span(1, 0, "fanout", 0, 100),
            span(2, 1, "work", 0, 60),
            span(3, 1, "work", 20, 80),
            span(4, 1, "work", 90, 130),
        ];
        let t = layer_times(&spans);
        // Covered: [0, 80) and [90, 100) -> 90 of 100.
        assert!((t["fanout"].self_s - 10e-9).abs() < 1e-15);
        assert_eq!(t["work"].count, 3);
    }

    #[test]
    fn recorded_spans_nest_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let mut local = tracer.local(0);
        let v = local.span("outer", 7, |l| {
            let parent = l.current();
            l.span("inner", 7, |l2| {
                assert_ne!(l2.current(), parent);
                5
            })
        });
        assert_eq!(v, 5);
        let spans = local.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (spans[0], spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        let mut local = off.local(0);
        assert_eq!(local.span("outer", 1, |l| l.current()), 0);
        assert!(local.into_spans().is_empty());
    }
}
