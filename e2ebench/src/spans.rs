//! In-memory spans recorded by the benchmark around its calls into the
//! workbench's public functions.
//!
//! A span's name is `<layer>.<call>`; the layer prefix is what per-layer
//! metrics aggregate over. Spans are kept in memory and written out once,
//! when the run ends, so recording costs two clock reads and a push.

use crate::stats::self_time;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans from one thread.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: impl Into<String>) -> Self {
        Tracer {
            run_id: run_id.into(),
            epoch: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
        }
    }

    /// Runs `f` inside a span named `name` (children opened by `f` nest
    /// under it) and returns its result.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { id, parent, name, start_ns: self.now_ns(), end_ns: 0 });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// All finished spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Summed duration in milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.borrow().iter().filter(|s| s.name == name).map(Span::duration_ns).sum();
        ns as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.borrow().iter().filter(|s| s.name == name).count()
    }

    /// Durations in milliseconds of the spans named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus what its children
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans.iter().map(|s| self_time(s.start_ns, s.end_ns, &children[s.id])).collect()
    }

    /// The spans as JSON lines: name, start, end, parent, run id and
    /// self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (s, self_ns) in self.spans.borrow().iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run_id\": \"{}\", \"self_ns\": {self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns, self.run_id
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new("r1");
        t.span("run", || {
            t.span("codecs.encode", || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("pipeline.replay", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].layer(), "codecs");
        let own = t.self_times_ns();
        assert!(own[0] < spans[0].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns());
        assert_eq!(t.count("codecs.encode"), 1);
        assert!(t.total_ms("codecs.encode") >= 2.0);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"run_id\": \"r1\"") && jsonl.contains("\"parent\": null"));
    }
}
