//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end (nanoseconds since the tracer
//! was created) and the span that was open when it began. Spans are kept in
//! memory and written out when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time in nanoseconds: its duration minus the union of
/// its children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut busy = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *busy.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    busy
}

/// Writes one JSON line per span, tagged with its traced iteration; parent
/// indices refer to spans of the same iteration.
pub fn write_jsonl(iterations: &[Vec<Span>], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (iteration, spans) in iterations.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"iteration\":{iteration},\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("e2e", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps `a`: union 10..50
            span("b", 60, 70, Some(0)),
            span("inner", 12, 18, Some(1)),
            span("late", 95, 140, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 5, 14, 30, 10, 6, 45]
        );
        let busy = busy_by_name(&spans);
        assert!((busy["b"] - 40e-9).abs() < 1e-15);
        assert!((busy["e2e"] - 45e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, spans[0].end_ns - spans[0].start_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.into_spans().is_empty());
    }
}
