//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around calls into the program's public functions,
//! kept in memory, and written as NDJSON when the run ends. Each span
//! holds its name, id, parent, request id, start and end (ns since the
//! tracer's epoch), and the process-wide allocator-byte delta over it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::{sorted_us, tail};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn allocated() -> u64 {
    datareuse_obs::alloc_snapshot().bytes_allocated
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    request: u64,
    on: bool,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            request: 0,
            on: true,
        }
    }

    /// A tracer that records nothing: [`Tracer::span`] only runs its
    /// closure. Running the same code under it gives the untraced
    /// baseline of `trace.overhead_pct`.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Tags the spans recorded from now on with a request id.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let alloc0 = allocated();
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let alloc_bytes = allocated() - alloc0;
        self.open.pop();
        self.spans.push(Span {
            name,
            id,
            parent,
            request: self.request,
            start_ns,
            end_ns,
            alloc_bytes,
        });
        out
    }

    /// Records a root span measured elsewhere (client round trips timed
    /// on other threads).
    pub fn record_root(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id,
            parent: 0,
            request,
            start_ns: at(start),
            end_ns: at(end),
            alloc_bytes: 0,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let mut ordered: Vec<&Span> = self.spans.iter().collect();
        ordered.sort_by_key(|s| s.id);
        for s in ordered {
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{},"request":{},"start_ns":{},"end_ns":{},"alloc_bytes":{}}}"#,
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns, s.alloc_bytes
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Each span's self time: its duration minus what its direct children
/// cover. Children run sequentially inside their parent on one thread,
/// so their durations add without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name aggregate of a span set.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub alloc_bytes: u64,
    pub durations_ns: Vec<u64>,
    pub self_durations_ns: Vec<u64>,
}

impl Agg {
    pub fn p50_us(&self) -> f64 {
        crate::stats::median(&sorted_us(&self.durations_ns))
    }

    pub fn self_p50_us(&self) -> f64 {
        crate::stats::median(&sorted_us(&self.self_durations_ns))
    }

    /// The tail by [`crate::stats::tail`] and the percentile it sits at.
    pub fn tail_us(&self) -> Option<(f64, f64)> {
        tail(&sorted_us(&self.durations_ns))
    }
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.duration_ns();
        a.self_ns += own;
        a.alloc_bytes += s.alloc_bytes;
        a.durations_ns.push(s.duration_ns());
        a.self_durations_ns.push(own);
    }
    out
}

/// Prints the per-name table: count, total, self, p50, tail, KiB/call.
/// The tail column is blank for spans too few to have a p90 or higher.
pub fn print_table(aggs: &BTreeMap<&'static str, Agg>) {
    println!(
        "{:<28} {:>8} {:>11} {:>11} {:>11} {:>11} {:>10}",
        "span", "count", "total_ms", "self_ms", "p50_us", "p99_us", "KiB/call"
    );
    for (name, a) in aggs {
        let tail = match a.tail_us() {
            Some((p, v)) if p >= 90.0 => format!("{v:.3}"),
            _ => "-".to_string(),
        };
        println!(
            "{:<28} {:>8} {:>11.3} {:>11.3} {:>11.3} {:>11} {:>10.3}",
            name,
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.p50_us(),
            tail,
            a.alloc_bytes as f64 / 1024.0 / a.count.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    #[test]
    fn self_times_partition_each_root() {
        let mut t = Tracer::new(Instant::now());
        for request in 0..20 {
            t.set_request(request);
            t.span("op", |t| {
                spin(2_000);
                t.span("load", |_| spin(5_000));
                t.span("explore", |t| {
                    t.span("pairs", |_| spin(8_000));
                    spin(1_000);
                    t.span("chains", |_| std::hint::black_box(vec![0u8; 4096]).len())
                });
                spin(3_000)
            });
        }
        let spans = t.spans();
        let selfs = self_times(spans);
        for root in spans.iter().filter(|s| s.parent == 0) {
            let tree_self: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.request == root.request)
                .map(|(_, &own)| own)
                .sum();
            let d = root.duration_ns() as f64;
            assert!(
                (tree_self as f64 - d).abs() <= 0.01 * d,
                "self times {tree_self} vs root {d}"
            );
        }
        let aggs = aggregate(spans);
        assert_eq!(aggs["op"].count, 20);
        assert!(aggs["chains"].alloc_bytes >= 20 * 4096);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(Instant::now());
        t.span("a", |t| t.span("b", |t| t.span("c", |_| ())));
        t.span("d", |_| ());
        let by_name = |n: &str| t.spans().iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by_name("c").parent, by_name("b").id);
        assert_eq!(by_name("b").parent, by_name("a").id);
        assert_eq!(by_name("a").parent, 0);
        assert_eq!(by_name("d").parent, 0);
    }

    #[test]
    fn an_off_tracer_runs_the_closures_and_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
