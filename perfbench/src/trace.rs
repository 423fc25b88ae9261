//! In-memory span recorder and self-time attribution.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public API — the library itself is not instrumented. A span's
//! layer is its name minus the last dot-segment
//! (`monitor.ingest.offer` → `monitor.ingest`). With tracing off the
//! recorder still times every span (end-to-end metrics such as the flush
//! latency need the durations) but keeps nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the span around one repetition's measured region (first
/// offer or sampler call to the result); self times are attributed below it.
pub const ROOT: &str = "bench.result";

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the recorder's epoch.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Operation id: the flush interval (pipelines) or the trace index
    /// (paper sweep); the iteration number on root spans.
    pub op: u64,
    /// `"gen"` for the generator thread, `"serve"` for the serve thread.
    pub thread: &'static str,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// A span that has begun but not ended.
#[must_use = "end the span with Tracer::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a generator-thread span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start: start - self.epoch,
                end: start - self.epoch,
                parent: self.stack.last().copied(),
                op,
                thread: "gen",
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, idx }
    }

    /// Closes `open` (which must be the innermost open span) and returns
    /// its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
            self.spans[idx].end = now - self.epoch;
        }
        now - open.start
    }

    /// Records a finished span measured on another thread (no parent).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        thread: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
                parent: None,
                op,
                thread,
            });
        }
    }

    /// The spans as JSON lines (times in microseconds from the epoch).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"thread\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.thread,
                s.op,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out
    }
}

/// Self time per layer below the root span `root`, in seconds: each
/// descendant's duration minus the part its own children cover, summed
/// by layer. The root's own self time — the part of the result no layer
/// span covers — is returned under `"unattributed"`.
pub fn self_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let mut under_root = vec![false; spans.len()];
    under_root[root] = true;
    let mut child_secs = vec![0.0f64; spans.len()];
    // Parents are always recorded before their children.
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        if let Some(p) = s.parent {
            if under_root[p] {
                under_root[i] = true;
                child_secs[p] += s.secs();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !under_root[i] {
            continue;
        }
        let layer = if i == root { "unattributed" } else { s.layer() };
        *out.entry(layer).or_insert(0.0) += s.secs() - child_secs[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            op: 0,
            thread: "gen",
        }
    }

    #[test]
    fn self_time_subtracts_children_and_keeps_the_residual() {
        let spans = vec![
            span("bench.result", 0, 100, None),
            span("monitor.topology.flush", 10, 50, Some(0)),
            span("monitor.codec.encode", 20, 30, Some(1)),
            span("monitor.codec.encode", 60, 70, Some(0)),
            span("nettrace.synth", 200, 300, None),
        ];
        let t = self_times(&spans, 0);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t["monitor.topology"], 0.030));
        assert!(close(t["monitor.codec"], 0.020));
        assert!(close(t["unattributed"], 0.050));
        assert!(
            !t.contains_key("nettrace"),
            "spans outside the root are ignored"
        );
        let total: f64 = t.values().sum();
        assert!(close(total, spans[0].secs()));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("core.bss", 0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.end(o) >= Duration::from_millis(2));
        assert!(t.spans().is_empty());
    }
}
