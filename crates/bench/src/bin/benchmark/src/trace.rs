//! Spans recorded by `benchmark trace` around the public calls it makes.
//!
//! Spans stay in memory while the workload runs and are written once at the
//! end as Chrome trace-event JSON (complete `"X"` events), which
//! `chrome://tracing` and Perfetto open offline. Each event's `args` carry
//! the span's parent, its self time (duration minus the time its children
//! cover) and the counters recorded when it closed.

use minijson::{obj, Value};
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
    args: Vec<(String, f64)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) {
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, attaching `args`; returns its duration
    /// in seconds.
    pub fn end(&mut self, args: Vec<(String, f64)>) -> f64 {
        let i = self.open.pop().expect("end without a matching begin");
        let span = &mut self.spans[i];
        span.dur_us = self.origin.elapsed().as_secs_f64() * 1e6 - span.start_us;
        span.args = args;
        span.dur_us / 1e6
    }

    fn self_us(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.dur_us)
            .sum();
        self.spans[i].dur_us - children
    }

    /// The closed spans as a Chrome trace-event document.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    (
                        "parent".to_string(),
                        Value::from(s.parent.map_or("", |p| self.spans[p].name.as_str())),
                    ),
                    ("self_us".to_string(), Value::Num(self.self_us(i))),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.clone(), Value::Num(*v))));
                obj([
                    ("name", Value::from(s.name.clone())),
                    ("ph", Value::from("X")),
                    ("ts", Value::Num(s.start_us)),
                    ("dur", Value::Num(s.dur_us)),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(1u64)),
                    ("args", Value::Obj(args)),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_parent_and_self_time() {
        let mut t = Tracer::new();
        t.begin("root");
        t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = t.end(vec![("events".into(), 7.0)]);
        let root = t.end(Vec::new());
        assert!(child >= 0.002 && root >= child);
        assert!((t.self_us(0) - (root - child) * 1e6).abs() < 1e-6);

        let doc = Value::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_str(), Some("root"));
        assert_eq!(args.get("events").unwrap().as_f64(), Some(7.0));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
    }
}
