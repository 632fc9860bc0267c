//! Spans the bench records around its own calls into each layer.
//!
//! Spans live in memory for the run and are written out once at exit. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Spans of one benchmark operation share this identifier.
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        // Spans close innermost-first; a span ended out of order also
        // closes whatever was opened inside it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Append another tracer's spans (a second thread's, the in-process
    /// twin's): parent links kept, times moved onto this tracer's clock,
    /// operation ids raised by `op_offset` so they stay apart from ours.
    pub fn absorb(&mut self, other: Tracer, op_offset: u64) {
        let id_offset = self.spans.len() as u32;
        let later = other.origin.saturating_duration_since(self.origin);
        let earlier = self.origin.saturating_duration_since(other.origin);
        let rebase =
            |ns: u64| (ns + later.as_nanos() as u64).saturating_sub(earlier.as_nanos() as u64);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + id_offset);
            s.start_ns = rebase(s.start_ns);
            s.end_ns = rebase(s.end_ns);
            s.op += op_offset;
            s
        }));
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span with this name: its duration minus
    /// the part its direct children cover.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .collect()
    }

    /// One JSON object per line: name, start, end, parent, operation id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::count(id)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                ),
                ("op", Json::Int(s.op as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a tracer with hand-set times: parent 0..100, children 10..30
    /// and 40..80, grandchild 50..60 inside the second child.
    fn fixture() -> Tracer {
        let mut t = Tracer::new(true);
        let p = t.begin("parent", 1);
        let a = t.begin("child", 1);
        t.end(a);
        let b = t.begin("child", 1);
        let g = t.begin("grandchild", 1);
        t.end(g);
        t.end(b);
        t.end(p);
        let times = [(0, 100), (10, 30), (40, 80), (50, 60)];
        for (span, (start, end)) in t.spans.iter_mut().zip(times) {
            span.start_ns = start * 1_000_000;
            span.end_ns = end * 1_000_000;
        }
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        assert_eq!(t.durations_ms("parent"), vec![100.0]);
        // 100 − (20 + 40); the grandchild is already inside a child.
        assert_eq!(t.self_times_ms("parent"), vec![40.0]);
        assert_eq!(t.self_times_ms("child"), vec![20.0, 30.0]);
        assert_eq!(t.self_times_ms("grandchild"), vec![10.0]);
    }

    #[test]
    fn parents_follow_nesting() {
        let t = fixture();
        let parents: Vec<Option<u32>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
    }

    #[test]
    fn absorbed_spans_move_onto_one_clock_and_keep_their_links() {
        let mut ours = fixture();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut theirs = Tracer::new(true);
        let gap_ns = theirs.origin.duration_since(ours.origin).as_nanos() as u64;
        let p = theirs.begin("parent", 1);
        let c = theirs.begin("child", 1);
        theirs.end(c);
        theirs.end(p);
        let child_start = theirs.spans[1].start_ns;
        ours.absorb(theirs, 100);
        let child = &ours.spans[5];
        assert_eq!(child.parent, Some(4));
        assert_eq!(child.op, 101);
        assert_eq!(child.start_ns, child_start + gap_ns);
        assert!(gap_ns >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let out = t.span("x", 1, || 7);
        assert_eq!(out, 7);
        assert!(t.spans.is_empty());
    }
}
