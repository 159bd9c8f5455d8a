//! Spans kept in memory while a traced run measures, written out once
//! when it ends.
//!
//! Every span is recorded from the benchmark's own side of a call into
//! the program's public API. A span's `op` is the id of the event, pin,
//! pass or batch it belongs to; `parent` links a stage to the operation
//! it is part of.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Its index in the trace.
    pub id: usize,
    /// The span this one is a stage of.
    pub parent: Option<usize>,
    /// What was timed (see `layers.rs` for the names).
    pub name: &'static str,
    /// The event, pin, pass or batch id shared by a span and its stages.
    pub op: u64,
    /// When it started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
}

impl Span {
    /// The span's length in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// The spans of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose written times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start,
            end,
        });
        id
    }

    /// Every span.
    pub fn spans(&self) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter()
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The lengths in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// The self time in milliseconds of every span called `name`: its
    /// length minus the part its stages cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(Span::ms)
                    .sum();
                s.ms() - children
            })
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span, times in microseconds from the origin.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"start_us\": {}, \"end_us\": {}}}",
                s.id,
                s.name,
                s.op,
                at(s.start),
                at(s.end)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_stages() {
        let t0 = Instant::now();
        let ms = |v: u64| t0 + Duration::from_millis(v);
        let mut trace = Trace::new(t0);
        let root = trace.record("pin", 7, None, ms(0), ms(10));
        trace.record("enqueue", 7, Some(root), ms(0), ms(1));
        trace.record("wait", 7, Some(root), ms(1), ms(4));
        assert_eq!(trace.ms("pin"), vec![10.0]);
        let own = trace.self_ms("pin");
        assert!((own[0] - 6.0).abs() < 1e-9);
        let lines = trace.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"parent\": 0, \"name\": \"enqueue\", \"op\": 7"));
    }
}
