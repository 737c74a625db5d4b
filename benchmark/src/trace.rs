//! Outside-in spans for the traced run.
//!
//! The driver wraps each public call into the stack in a span
//! `{name, cat = layer, ts, dur, id, parent, op}`; every span of one op
//! shares `op`. Spans live in a buffer allocated before the window opens
//! (a full buffer counts drops instead of growing) and are written as
//! chrome-trace JSON when the run ends. Nothing here reaches inside
//! `fl`/`serve`/`wire`: a span is either the driver's own stopwatch around
//! a call, or an interval the API already reports (`RoundReport`,
//! `StageTelemetry`) laid under the call that returned it.

use crate::sys::median;
use std::collections::HashMap;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = 0;

/// Name of the span that covers one whole op.
pub const ROOT: &str = "op";

#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub name: &'static str,
    pub cat: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
}

/// The span buffer of one traced window.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    cap: usize,
    next_id: u32,
    dropped: u64,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    cat: &'static str,
    pub start_ns: u64,
    pub id: u32,
    parent: u32,
    op: u64,
}

impl Tracer {
    /// A buffer of `cap` spans; its clock starts now.
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            next_id: NO_PARENT + 1,
            dropped: 0,
        }
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, cat: &'static str, op: u64, parent: u32) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            cat,
            start_ns: self.now_ns(),
            id,
            parent,
            op,
        }
    }

    /// Closes `open` now; returns its duration.
    pub fn end(&mut self, open: Open) -> u64 {
        let dur_ns = self.now_ns().saturating_sub(open.start_ns);
        self.store(SpanRecord {
            name: open.name,
            cat: open.cat,
            ts_ns: open.start_ns,
            dur_ns,
            id: open.id,
            parent: open.parent,
            op: open.op,
        });
        dur_ns
    }

    /// Records an interval measured elsewhere (timestamps from
    /// [`Tracer::now_ns`], or a duration the API returned); returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        op: u64,
        parent: u32,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.store(SpanRecord {
            name,
            cat,
            ts_ns,
            dur_ns,
            id,
            parent,
            op,
        });
        id
    }

    fn store(&mut self, span: SpanRecord) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Runs `f` inside a span when `tracer` is recording, bare otherwise.
pub fn spanned<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    cat: &'static str,
    op: u64,
    parent: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(tracer) => {
            let open = tracer.begin(name, cat, op, parent);
            let out = f();
            tracer.end(open);
            out
        }
    }
}

/// What the buffer says once the window is closed.
impl Tracer {
    /// Median duration per span name, ns. Every span but [`ROOT`] and the
    /// few that group per-item children is a leaf, where duration *is*
    /// self time.
    pub fn median_durations(&self) -> HashMap<&'static str, f64> {
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.dur_ns as f64);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| (name, median(&mut v)))
            .collect()
    }

    /// Median over ops of the root span's self time (duration minus the
    /// time its direct children cover) as a share of its duration, percent:
    /// how much of an op the layer spans leave unexplained.
    pub fn root_residual_pct(&self) -> f64 {
        let mut covered: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                *covered.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == ROOT && s.dur_ns > 0)
            .map(|s| {
                let child = covered.get(&s.id).copied().unwrap_or(0).min(s.dur_ns);
                (s.dur_ns - child) as f64 / s.dur_ns as f64 * 100.0
            })
            .collect();
        median(&mut shares)
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events,
    /// timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.cat,
                s.ts_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_root_minus_direct_children() {
        let mut t = Tracer::new(16);
        let root = t.push(ROOT, "driver", 0, 1_000, 7, NO_PARENT);
        let child = t.push("a", "wire", 0, 600, 7, root);
        t.push("b", "serve", 600, 300, 7, root);
        // A grandchild must not be counted against the root twice.
        t.push("c", "wire", 0, 500, 7, child);
        assert!((t.root_residual_pct() - 10.0).abs() < 1e-9);
        assert_eq!(t.median_durations()["a"], 600.0);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(2);
        for op in 0..5 {
            t.push(ROOT, "driver", 0, 1, op, NO_PARENT);
        }
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans.capacity(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn chrome_json_carries_every_span_field() {
        let mut t = Tracer::new(4);
        let open = t.begin("wire.req_encode", "wire", 42, NO_PARENT);
        t.end(open);
        let json = t.chrome_json();
        for needle in [
            "\"name\":\"wire.req_encode\"",
            "\"cat\":\"wire\"",
            "\"ph\":\"X\"",
            "\"tid\":1",
            "\"op\":42",
            "\"parent\":0",
        ] {
            assert!(json.contains(needle), "{needle} missing in {json}");
        }
    }
}
