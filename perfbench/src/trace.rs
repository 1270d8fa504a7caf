//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in [`Tracer::span`]. A span keeps its name, thread, start and end
//! (nanoseconds since the tracer was made), the span that was open on the
//! same thread when it started (its parent), and a request id inherited
//! from the enclosing [`Tracer::request`]. Nothing is written until
//! [`Tracer::write_json`] at the end of the run. A disabled tracer just
//! calls the closure, so the untraced run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span open on the same thread at start; 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request or tick; 0 if none.
    pub req: u64,
    pub name: &'static str,
    pub thread: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Open spans on this thread: `(span id, request id)`, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let req = OPEN.with(|o| o.borrow().last().map_or(0, |&(_, r)| r));
        self.record(name, req, f)
    }

    /// Runs `f` inside a span that starts request `req`: every span
    /// opened inside it on this thread carries the same request id.
    pub fn request<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.record(name, req, f)
    }

    fn record<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().map_or(0, |&(p, _)| p);
            o.push((id, req));
            parent
        });
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|o| o.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            req,
            name,
            thread: std::thread::current().name().unwrap_or("?").to_string(),
            start_ns: start,
            end_ns: end,
        };
        // A push either happened or did not, so a span list whose lock
        // was poisoned by a panicking workload thread is still whole.
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
        out
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Durations in seconds of the spans named `name`, in finishing order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Mean duration of the spans named `name` (0 when there are none).
    pub fn mean_s(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations(name)).unwrap_or(0.0)
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus that of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_s.entry(s.parent).or_default() += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// Writes `{"header": <header>, "summary": {...}, "spans": [...]}`.
    /// `header` must already be a JSON value.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"header\": {header},")?;
        writeln!(f, " \"summary\": {{")?;
        let summary = self.summary();
        for (i, (name, (n, total, own))) in summary.iter().enumerate() {
            let sep = if i + 1 == summary.len() { "" } else { "," };
            writeln!(
                f,
                "  \"{name}\": {{\"count\": {n}, \"total_s\": {total}, \"self_s\": {own}}}{sep}"
            )?;
        }
        writeln!(f, " }},")?;
        writeln!(f, " \"spans\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                f,
                "  {{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"thread\": \"{}\", \
\"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.parent, s.req, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        writeln!(f, " ]}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_s("a"), 0.0);
    }

    #[test]
    fn spans_nest_and_inherit_the_request_id() {
        let t = Tracer::new(true);
        t.request("req", 42, || {
            t.span("child", || t.span("grandchild", || ()));
        });
        t.span("loose", || ());
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (req, child, grand, loose) = (by("req"), by("child"), by("grandchild"), by("loose"));
        assert_eq!(req.parent, 0);
        assert_eq!(child.parent, req.id);
        assert_eq!(grand.parent, child.id);
        assert_eq!((req.req, child.req, grand.req, loose.req), (42, 42, 42, 0));
        assert_eq!(loose.parent, 0);
        let summary = t.summary();
        let (n, total, own) = summary["req"];
        assert_eq!(n, 1);
        assert!(own <= total && own >= 0.0);
    }
}
