//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans stay in memory while the workload runs and are written once, at
//! exit, so the trace costs two clock reads and one push per call. With
//! tracing off every method is a plain call-through.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span; `0` is the root (no parent).
pub type SpanId = u64;

#[derive(Debug, Clone, Copy)]
struct Span {
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if id != 0 {
            let end = self.now_ns();
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span's duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += total as f64 / 1e6;
            entry.2 += total.saturating_sub(*children) as f64 / 1e6;
        }
        out
    }

    /// Writes one line per span: `id parent name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# id parent name start_ns end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{} {} {} {} {}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
