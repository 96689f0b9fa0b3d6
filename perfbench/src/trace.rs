//! In-memory spans for the traced pass, plus the order statistics every
//! metric is reported with.
//!
//! Spans are recorded by the benchmark around its calls into the
//! system's public entry points; nothing is recorded inside the program.
//! Each thread owns a [`Tracer`]; the tracers are merged and written out
//! once the pass has ended.

use crate::alloc;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the
/// request it served. Times are nanoseconds since the pass began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Allocations made during the span (0 unless the allocator is armed).
    pub allocs: alloc::Count,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Which allocation counter a tracer reads at span boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocScope {
    /// Every thread: right when one caller drives the system, so pool
    /// workers' allocations land on the query that caused them.
    Process,
    /// The calling thread only: right when several callers run at once
    /// and each query runs on its caller's thread.
    Thread,
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    scope: AllocScope,
    pub spans: Vec<Span>,
    open: Vec<alloc::Count>,
}

impl Tracer {
    pub fn new(epoch: Instant, scope: AllocScope) -> Self {
        Tracer {
            epoch,
            scope,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn allocs(&self) -> alloc::Count {
        match self.scope {
            AllocScope::Process => alloc::global(),
            AllocScope::Thread => alloc::local(),
        }
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            allocs: alloc::Count::default(),
        });
        // The allocation baseline is read after the push, so the span's
        // own bookkeeping is not charged to the call it wraps.
        let base = self.allocs();
        self.open.push(base);
        self.spans.len() - 1
    }

    /// Close the most recently opened span, which must be `index`.
    pub fn end(&mut self, index: usize) {
        let after = self.allocs();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let base = self.open.pop().expect("end matches a begin");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = after - base;
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.begin(name, parent, request);
        let out = f();
        self.end(index);
        out
    }

    /// The spans named `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (µs) of the spans named `name`, in recording order.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::micros).collect()
    }

    /// Append `other`'s spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time (µs) of every span: its duration minus the part of it
    /// its child spans cover. Children of one span never overlap (one
    /// thread records them one after another).
    pub fn self_micros(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::micros).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.micros();
            }
        }
        own
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent request allocs alloc_bytes self_us`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_micros();
        let mut out = String::with_capacity(self.spans.len() * 64);
        out.push_str(
            "index\tname\tstart_ns\tend_ns\tparent\trequest\tallocs\talloc_bytes\tself_us\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{:.3}",
                s.name, s.start_ns, s.end_ns, s.request, s.allocs.allocs, s.allocs.bytes, own[i]
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Throughput and latency per measurement window, reported as medians
/// across windows: on a shared host, a stretch of interference moves a
/// few windows, not the run's figure.
#[derive(Default)]
pub struct Windows {
    /// `(qps, p50, p99)` of each window; latencies in milliseconds.
    windows: Vec<(f64, f64, f64)>,
    samples: usize,
}

impl Windows {
    /// One window: `completed` operations in `secs`, with their
    /// latencies in milliseconds.
    pub fn push(&mut self, completed: usize, secs: f64, latencies_ms: &[f64]) {
        let window = (
            ratio(completed as f64, secs),
            quantile(latencies_ms, 0.5),
            quantile(latencies_ms, 0.99),
        );
        self.windows.push(window);
        self.samples += latencies_ms.len();
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    fn column(&self, f: fn(&(f64, f64, f64)) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    pub fn qps(&self) -> f64 {
        self.column(|w| w.0)
    }

    pub fn p99(&self) -> f64 {
        self.column(|w| w.2)
    }

    pub fn report(&self, report: &mut crate::Report) {
        report.add("qps", self.column(|w| w.0), "1/s");
        report.add("latency_p50_ms", self.column(|w| w.1), "ms");
        report.add("latency_p99_ms", self.column(|w| w.2), "ms");
        eprintln!(
            "perfbench: {} windows, {} latency samples; per-window qps {:?}",
            self.windows.len(),
            self.samples,
            self.windows.iter().map(|w| w.0.round()).collect::<Vec<_>>()
        );
    }
}

/// The `q`-quantile of `values` (nearest rank); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The lower quartile of repeated times of identical work: interference
/// from other tenants of a shared host only ever adds time, so the
/// faster repetitions are the steadier estimate of the program's cost.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
