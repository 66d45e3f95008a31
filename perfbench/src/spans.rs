//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on the host clock, the span that
//! caused it and the workload it belongs to. Spans are kept in memory
//! and written out once the run ends, so recording costs one clock
//! read and one push per call. With tracing off, [`Tracer::span`] only
//! calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = Option<u32>;

struct Span {
    id: u32,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    workload: &'static str,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str, on: bool) -> Self {
        Tracer {
            on,
            workload,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing, for the untraced half of a
    /// traced run.
    pub fn off(&self) -> Tracer {
        Tracer::new(self.workload, false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` gets
    /// the new span's id to parent its own children.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f(Some(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        result
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list not poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Per span name: call count, total and self milliseconds. Self
    /// time is a span's duration minus the part its children cover
    /// (children of one span never overlap: each runs inside its
    /// parent's closure on the parent's thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("span list not poisoned");
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list not poisoned");
        let mut text = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, self.workload, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
