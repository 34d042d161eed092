//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are only kept while the tracer is switched on, live in memory for the
//! whole run, and are written out as JSON lines when the run ends. A
//! span's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Handle of an open span; `None` when the tracer was off at `begin`.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off for the spans begun from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.end_as(id, None);
    }

    /// Closes a span, renaming it when its kind is only known at the end
    /// (a cache tier, a batch mode).
    pub fn end_as(&mut self, id: SpanId, name: Option<&'static str>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per span name: (count, total seconds, self seconds).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                line,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new();
        let skipped = t.begin("off", 0);
        t.end(skipped);
        assert_eq!(t.len(), 0);
        t.set_on(true);
        let root = t.begin("root", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end_as(child, Some("leaf"));
        t.end(root);
        assert_eq!(t.spans[1].parent, Some(0));
        let s = t.summary();
        let (n, total, own) = s["root"];
        let (_, leaf_total, leaf_self) = s["leaf"];
        assert_eq!(n, 1);
        assert!(leaf_total >= 0.002);
        assert_eq!(leaf_total, leaf_self, "a leaf's self time is its duration");
        assert!((total - own - leaf_total).abs() < 1e-9);
    }
}
