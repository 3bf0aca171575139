//! In-memory span recorder. Spans are recorded by the benchmark around
//! the public calls it makes into each layer (never inside the program),
//! kept in memory while the workload runs, and written out at the end.

use crate::stats::{clipped, self_times, SpanTimes};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The batch (or fit cell) the span worked on.
    pub batch: u64,
}

/// Per span name: calls, total time and self time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        batch: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span and return its result with the span's index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, batch))
    }

    pub fn span_times(&self) -> Vec<SpanTimes> {
        self.spans
            .iter()
            .map(|s| SpanTimes {
                start: s.start_ns,
                end: s.end_ns,
                parent: s.parent,
            })
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.span_times())) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Spans whose self time was clipped to zero (see [`clipped`]).
    pub fn clipped(&self) -> usize {
        clipped(&self.span_times())
    }

    /// Σ total time of the named spans, nanoseconds.
    pub fn total_ns(&self, names: &[&str]) -> u64 {
        let totals = self.totals();
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.total_ns)
            .sum()
    }

    /// Write the spans to `.bench_out/trace-<workload>-<seed>.csv` in the
    /// working directory; a failure to write is reported, not fatal.
    pub fn save(&self, workload: &str, seed: u64) {
        let path = std::path::Path::new(".bench_out").join(format!("trace-{workload}-{seed}.csv"));
        if let Err(e) = self.write_csv(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    /// Write the spans as CSV (`name,start_ns,end_ns,parent,batch`).
    fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,batch")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.batch
            )?;
        }
        out.flush()
    }
}
