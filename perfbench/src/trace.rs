//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends, so recording costs two clock reads and a
//! short lock, and no I/O lands inside the timed phase.

use sspc_common::json::Value;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.run` or `http.poll`.
    pub name: &'static str,
    /// The job the call belongs to (set-up and reference jobs use id
    /// ranges of their own, see README.md).
    pub job: u64,
    /// The span whose work caused this one.
    pub parent: Option<SpanId>,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin; `NaN` while open.
    pub end: f64,
    /// Values the call reported, e.g. the server's `seconds` for a job.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall-clock seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The named attribute, if recorded.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// An in-memory span recorder, shareable across client threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracing thread panicked")
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.at(Instant::now());
        let mut spans = self.lock();
        spans.push(Span {
            name,
            job,
            parent,
            start,
            end: f64::NAN,
            attrs: Vec::new(),
        });
        spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&self, id: SpanId) {
        let end = self.at(Instant::now());
        self.lock()[id].end = end;
    }

    /// Attaches a value to a span.
    pub fn attr(&self, id: SpanId, key: &'static str, value: f64) {
        self.lock()[id].attrs.push((key, value));
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Where a traced call records its span: the tracer, the job it belongs
/// to, and the enclosing span.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    /// The recorder.
    pub tracer: &'a Tracer,
    /// Job id shared by every span of one job.
    pub job: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
}

impl<'a> Scope<'a> {
    /// A root scope for `job`.
    pub fn root(tracer: &'a Tracer, job: u64) -> Scope<'a> {
        Scope {
            tracer,
            job,
            parent: None,
        }
    }

    /// Attaches a value to the enclosing span.
    pub fn attr(&self, key: &'static str, value: f64) {
        if let Some(id) = self.parent {
            self.tracer.attr(id, key, value);
        }
    }
}

/// Runs `f` inside a span named `name` when `scope` is set, and plainly
/// otherwise; `f` receives the scope its own calls nest under.
pub fn span<'a, T>(
    scope: Option<Scope<'a>>,
    name: &'static str,
    f: impl FnOnce(Option<Scope<'a>>) -> T,
) -> T {
    let Some(outer) = scope else {
        return f(None);
    };
    let id = outer.tracer.open(name, outer.job, outer.parent);
    let out = f(Some(Scope {
        parent: Some(id),
        ..outer
    }));
    outer.tracer.close(id);
    out
}

/// Recorded spans with each span's children indexed.
pub struct Tree<'s> {
    /// The spans, in recording order.
    pub spans: &'s [Span],
    children: Vec<Vec<SpanId>>,
}

impl<'s> Tree<'s> {
    /// Indexes `spans` by parent.
    pub fn new(spans: &'s [Span]) -> Tree<'s> {
        let mut children = vec![Vec::new(); spans.len()];
        for (id, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        Tree { spans, children }
    }

    /// The direct children of a span.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &'s Span> + '_ {
        self.children[id].iter().map(|&c| &self.spans[c])
    }

    /// Seconds of a span that its children cover (overlaps counted once).
    pub fn child_secs(&self, id: SpanId) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self.children(id).map(|s| (s.start, s.end)).collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_secs(&self, id: SpanId) -> f64 {
        self.spans[id].secs() - self.child_secs(id)
    }

    /// Root spans named `name`.
    pub fn roots(&self, name: &'s str) -> impl Iterator<Item = (SpanId, &'s Span)> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent.is_none() && s.name == name)
    }
}

/// Writes one JSON object per span, in recording order; `id` is the
/// line's index and `parent` refers to it.
///
/// # Errors
///
/// I/O failures.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let tree = Tree::new(spans);
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let mut v = Value::object()
            .with("id", id)
            .with("name", s.name)
            .with("job", s.job)
            .with("start_us", (s.start * 1e6).round())
            .with("end_us", (s.end * 1e6).round())
            .with("self_us", (tree.self_secs(id) * 1e6).round());
        if let Some(p) = s.parent {
            v = v.with("parent", p);
        }
        for &(key, value) in &s.attrs {
            v = v.with(key, value);
        }
        out.push_str(&v.to_string());
        out.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name,
            job: 1,
            parent,
            start,
            end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 5.0), // overlaps `a` by one second
            span("c", Some(0), 7.0, 8.0),
            span("grandchild", Some(1), 1.0, 2.0),
        ];
        let tree = Tree::new(&spans);
        assert_eq!(tree.child_secs(0), 5.0);
        assert_eq!(tree.self_secs(0), 5.0);
        assert_eq!(tree.self_secs(1), 2.0);
        assert_eq!(tree.self_secs(3), 1.0);
        assert_eq!(tree.children(0).count(), 3);
        assert_eq!(tree.roots("job").count(), 1);
    }

    #[test]
    fn spans_nest_through_the_tracer() {
        let tracer = Tracer::default();
        let job = tracer.open("job", 7, None);
        let child = tracer.open("child", 7, Some(job));
        tracer.attr(child, "seconds", 0.5);
        tracer.close(child);
        tracer.close(job);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].attr("seconds"), Some(0.5));
        assert!(spans[0].secs() >= spans[1].secs());
        assert!(tracer.take().is_empty());
    }
}
