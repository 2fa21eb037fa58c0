//! Wall-clock spans recorded from outside the program.
//!
//! The traced run wraps every call the benchmark makes into a layer's
//! public API in a span (name, start, end, parent, op id). Spans stay in
//! memory and are written out once, when the run ends. A disabled
//! recorder (the untraced run) only calls through, so both runs share
//! one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `service.serve.plain`.
    pub name: &'static str,
    /// Op the call belonged to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a run: call count, wall time and self time (wall
/// time minus the part covered by direct child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (warm-up ops run with it off).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans that follow with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Forget spans left open by a panicking op, so the next op's spans
    /// are roots again.
    pub fn abandon_open(&mut self) {
        self.stack.clear();
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-op summed duration (ns) of spans named `name`, one entry per
    /// op that recorded at least one such span.
    pub fn per_op_ns(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.dur_ns();
        }
        by_op.into_values().map(|ns| ns as f64).collect()
    }

    /// Median over ops of the per-op time in spans named `name`, in µs.
    pub fn median_us(&self, name: &str) -> f64 {
        crate::stats::median(&self.per_op_ns(name)) / 1e3
    }

    /// Totals and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        totals
    }

    /// Write every span as one JSON object per line after a `meta` line.
    pub fn write_jsonl(&self, path: &std::path::Path, meta: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(meta);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Cost of recording one span, in ns: the median of several batches of
/// empty spans timed into a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let mut rec = Spans::new(true);
            let start = Instant::now();
            for _ in 0..BATCH {
                rec.time("calibrate", |_| std::hint::black_box(()));
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut rec = Spans::new(true);
        rec.set_op(3);
        rec.time("outer", |r| {
            r.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = rec.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(rec.per_op_ns("inner").len(), 1);
        assert!(inner.total_ns >= 2_000_000);

        let mut off = Spans::new(false);
        assert_eq!(off.time("x", |_| 7), 7);
        assert_eq!(off.len(), 0);
    }
}
