//! In-memory span recorder for the traced runs: each span has a name, a
//! start and end, the span that caused it and the request (tick) it
//! belongs to. Spans are kept in memory and written out as JSON lines
//! when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans relative to its creation time. A disabled tracer
/// records nothing, so the untraced runs pay one branch per span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent: parent.map(|p| p.0), request, start_ns, end_ns: 0 });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name, Some(parent), request);
        let out = f();
        self.end(id);
        out
    }

    /// Total self time (duration minus the time its child spans cover)
    /// of every span named `name` in a tick `i` with `ticks[i]` set, in
    /// nanoseconds.
    pub fn self_ns(&self, name: &str, ticks: &[bool]) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(span, _)| {
                span.name == name && ticks.get(span.request as usize).copied().unwrap_or(false)
            })
            .map(|(span, &children)| (span.end_ns - span.start_ns).saturating_sub(children) as f64)
            .fold(0.0, |total, ns| total + ns)
    }

    /// Writes the spans to `perfbench/traces/<workload>-seed<seed>.jsonl`,
    /// reporting (not failing on) an I/O error.
    pub fn write(&self, args: &crate::Args) {
        let path = format!("perfbench/traces/{}-seed{}.jsonl", args.workload, args.seed);
        if let Err(err) = self.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("perfbench: could not write {path}: {err}");
        }
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
