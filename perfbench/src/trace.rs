//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark itself, around its calls into each
//! layer of the program (scenario build, world acquisition, engine build,
//! each step, the batch, report serialization). A step's pipeline stages
//! are added as child spans from the per-step deltas of
//! `Engine::step_timings()`, laid end to end from the step's start in
//! execution order. Nothing is written until the run ends, when
//! [`Tracer::chrome_json`] renders Chrome trace-event JSON (open it in
//! Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span: times are offsets from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `world.compile`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so the untraced run takes the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its index.
    pub fn exit(&mut self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end = self.epoch.elapsed();
        Some(id)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Add child spans of durations `parts` under span `parent`, laid end
    /// to end from the parent's start.
    pub fn children(&mut self, parent: Option<usize>, parts: &[(&'static str, Duration)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start;
        for &(name, dur) in parts {
            self.spans.push(Span {
                name,
                start: at,
                end: at + dur,
                parent: Some(parent),
            });
            at += dur;
        }
    }

    /// Every recorded span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name. Self time is a span's duration
    /// minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, Duration, usize)> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, Duration, usize)> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur();
            e.1 += s.dur().saturating_sub(cov);
            e.2 += 1;
        }
        out
    }

    /// Chrome trace-event JSON of every span (complete `X` events, µs),
    /// each carrying its own and its parent's index.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.dur().as_secs_f64() * 1e6,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        let outer = t.exit();
        t.children(outer, &[("part", Duration::from_micros(10))]);
        let times = t.self_times();
        let (total, own, n) = times["outer"];
        assert_eq!(n, 1);
        assert!(own < total);
        assert_eq!(times["part"].2, 1);
        assert!(t.chrome_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.spans().is_empty());
    }
}
