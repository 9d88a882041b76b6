//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Spans stay in memory and are written out at exit.
//!
//! Every op is a root span; the calls it makes are its children. A probe
//! is an extra call made after the op, outside its interval, to measure a
//! layer the op only reaches from inside a library call (a table scan
//! inside `Ppdb::compiled_population`, say). Probes are flagged and never
//! count against their op's self time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `crate.module.call`.
    pub name: &'static str,
    /// Index of the causing span; `None` for an op.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub request: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// A measurement made outside the op's interval.
    pub probe: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise only times ops.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    last_op: Option<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last_op: None,
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time one op. Spans opened inside `f` become its children. Returns
    /// `f`'s result and the op's latency in milliseconds, traced or not.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.request += 1;
        // Grow the span buffer here, outside the op: a reallocation
        // inside it would read as the op's own time.
        if self.enabled && self.spans.capacity() - self.spans.len() < 1024 {
            self.spans.reserve(self.spans.len().max(4096));
        }
        let start = Instant::now();
        let id = self.open("op", None, false);
        let out = f(self);
        self.close(id);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if id.is_some() {
            self.last_op = id;
        }
        (out, ms)
    }

    /// A call made inside the current op (or inside another span).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.stack.last().copied();
        let id = self.open(name, parent, false);
        let out = f();
        self.close(id);
        out
    }

    /// A measurement attached to the last op but made after it ended.
    /// Only meaningful when tracing: callers skip probes otherwise.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        debug_assert!(self.stack.is_empty(), "probes run outside ops");
        let id = self.open(name, self.last_op, true);
        let out = f();
        self.close(id);
        out
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, probe: bool) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request: self.request,
            start_ns,
            end_ns: start_ns,
            probe,
        });
        self.stack.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its non-probe children cover. A probe keeps its whole duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let (Some(p), false) = (s.parent, s.probe) {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration_ns() - covered(s, kids.iter().map(|&k| &spans[k])))
        .collect()
}

/// Length of the union of `kids`' intervals, clipped to `parent`'s.
fn covered<'a>(parent: &Span, kids: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = kids
        .map(|k| {
            (
                k.start_ns.clamp(parent.start_ns, parent.end_ns),
                k.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = parent.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Totals per layer over a whole traced run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotals {
    /// Summed self time per span name (ops under `"op"`).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed duration of every op.
    pub op_ns: u64,
    /// Ops whose non-probe children cover less than 95% of the op.
    pub ops_under_95: u64,
    pub ops: u64,
}

impl LayerTotals {
    pub fn from_spans(spans: &[Span]) -> LayerTotals {
        let own = self_times(spans);
        let mut totals = LayerTotals::default();
        for (s, self_ns) in spans.iter().zip(own) {
            *totals.self_ns.entry(s.name).or_default() += self_ns;
            *totals.calls.entry(s.name).or_default() += 1;
            if s.parent.is_none() && !s.probe {
                totals.ops += 1;
                totals.op_ns += s.duration_ns();
                if self_ns * 20 > s.duration_ns() {
                    totals.ops_under_95 += 1;
                }
            }
        }
        totals
    }

    /// `name`'s summed self time as a percentage of all op time.
    pub fn share_pct(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        if self.op_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.op_ns as f64
        }
    }

    /// `name`'s mean self time per op, in milliseconds.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }
}

/// Spans beyond this many are counted but not written, keeping trace
/// files to a few megabytes on the fastest workloads.
const MAX_WRITTEN: usize = 200_000;

/// Write `spans` with the run's metadata as JSON to `path`.
pub fn write_trace(path: &Path, meta: Value, spans: &[Span]) -> std::io::Result<()> {
    let rows: Vec<Value> = spans
        .iter()
        .take(MAX_WRITTEN)
        .enumerate()
        .map(|(id, s)| {
            Value::Object(vec![
                ("id".into(), Value::Int(id as i128)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                ),
                ("request".into(), Value::Int(s.request as i128)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::Int(s.start_ns as i128)),
                ("end_ns".into(), Value::Int(s.end_ns as i128)),
                ("probe".into(), Value::Bool(s.probe)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("meta".into(), meta),
        ("spans_recorded".into(), Value::Int(spans.len() as i128)),
        ("spans".into(), Value::Array(rows)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, probe: bool) -> Span {
        Span {
            name,
            parent,
            request: 1,
            start_ns: start,
            end_ns: end,
            probe,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("op", None, 0, 100, false),
            span("a", Some(0), 10, 40, false),
            // Nested under `a`: counts against `a`, not against the op.
            span("a.inner", Some(1), 15, 25, false),
            span("b", Some(0), 50, 90, false),
            // A probe outside the op's interval: never covers the op.
            span("probe", Some(0), 100, 130, true),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", None, 100, 200, false),
            span("a", Some(0), 90, 150, false),
            span("b", Some(0), 140, 160, false),
            span("c", Some(0), 190, 250, false),
        ];
        // Covered: [100,160) + [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_flag_ops_the_children_do_not_cover() {
        let spans = vec![
            span("op", None, 0, 100, false),
            span("a", Some(0), 0, 99, false),
            span("op", None, 200, 300, false),
            span("a", Some(2), 200, 280, false),
            span("probe", Some(2), 300, 400, true),
        ];
        let t = LayerTotals::from_spans(&spans);
        assert_eq!(t.ops, 2);
        assert_eq!(t.op_ns, 200);
        assert_eq!(t.ops_under_95, 1);
        assert_eq!(t.self_ns["a"], 179);
        assert_eq!(t.self_ns["probe"], 100);
        assert!((t.share_pct("a") - 89.5).abs() < 1e-9);
        assert!((t.share_pct("missing")).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_under_the_current_op() {
        let mut tr = Tracer::new(true);
        let (v, ms) = tr.op(|tr| tr.span("a", || tr_sum(3)));
        assert_eq!(v, 6);
        assert!(ms >= 0.0);
        tr.probe("p", || ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("op", None));
        assert_eq!((s[1].name, s[1].parent), ("a", Some(0)));
        assert_eq!((s[2].name, s[2].parent, s[2].probe), ("p", Some(0), true));
        assert!(s.iter().all(|x| x.request == 1));

        let mut off = Tracer::new(false);
        let (v, _) = off.op(|tr| tr.span("a", || 1));
        assert_eq!(v, 1);
        assert!(off.spans().is_empty());
    }

    fn tr_sum(n: u64) -> u64 {
        (1..=n).sum()
    }
}
