//! In-memory spans for the traced run.
//!
//! A span is (name, start, end, parent, op id), recorded by the benchmark
//! around each public call it makes. Spans stay in memory and are written
//! out once, when the run ends; per-layer metrics are computed from them.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: usize = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Spans beyond this many are kept for the metrics but not written out.
const WRITE_CAP: usize = 200_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span whose times were taken by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens a span that children can name as their parent; see
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, op: u64) -> usize {
        let now = self.now();
        self.push(name, now, now, parent, op)
    }

    pub fn close(&mut self, i: usize) {
        self.spans[i].end_ns = self.now();
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let v = f();
        let end = self.now();
        self.push(name, start, end, parent, op);
        v
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes the spans as TSV (`op name start_ns end_ns parent`), capped
    /// at [`WRITE_CAP`] lines. Returns the number written.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
        let n = self.spans.len().min(WRITE_CAP);
        for s in &self.spans[..n] {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()?;
        Ok(n)
    }
}
