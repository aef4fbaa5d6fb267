//! Benchmark-side spans around every call into a layer.
//!
//! Spans are recorded from the benchmark's own files — nothing inside
//! the program is instrumented — and kept in memory until the run
//! ends, when they are written as a Chrome trace-event file. A span's
//! *self time* is its duration minus the part its direct children
//! cover. The recorder is disabled during the untraced reps every
//! end-to-end metric comes from; a disabled recorder costs one branch
//! per call.

use std::time::Instant;

use cmp_common::journal::Json;

/// One recorded span. Times are nanoseconds since the recorder was
/// created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The rep this span belongs to (spans of one rep share it).
    pub rep: u32,
}

/// Handle of an open span (`None` while the recorder is disabled).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Per-name aggregate: how often, how long, and how long excluding
/// children.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (off around the reps that are timed
    /// for the tracing-overhead comparison).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans opened from now on carry this rep id.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id` (and, defensively, anything opened inside it that
    /// an early return left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span and also return its wall time in
    /// nanoseconds (measured whether or not recording is on).
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.end(id);
        (out, ns)
    }

    /// Attach measured-elsewhere parts (the engine's phase-profile
    /// buckets) as children of `parent`, laid end to end from its
    /// start: they carry durations, not real start times.
    pub fn attach_children(&mut self, parent: SpanId, parts: &[(&str, u64)]) {
        let Some(parent) = parent.0 else { return };
        let mut at = self.spans[parent].start_ns;
        let rep = self.spans[parent].rep;
        for &(name, ns) in parts {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                rep,
            });
            at += ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregate by span name, in first-appearance order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|a| a.name == s.name) {
                Some(a) => {
                    a.count += 1;
                    a.total_ns += total;
                    a.self_ns += own;
                }
                None => out.push(SelfTime {
                    name: s.name.clone(),
                    count: 1,
                    total_ns: total,
                    self_ns: own,
                }),
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events (`ph: "X"`) with microsecond times;
    /// span id, parent id and rep id ride in `args`.
    pub fn to_chrome_trace(&self) -> Json {
        let us = |ns: u64| Json::f64(ns as f64 / 1000.0);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&s.name)),
                    ("cat".into(), Json::str("benchmark")),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), us(s.start_ns)),
                    ("dur".into(), us(s.end_ns - s.start_ns)),
                    ("pid".into(), Json::u64(1)),
                    ("tid".into(), Json::u64(1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::u64(i as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                            ),
                            ("rep".into(), Json::u64(u64::from(s.rep))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::str("ms")),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let id = t.begin("outer");
        let (v, _ns) = t.time("inner", || 7);
        t.end(id);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.attach_children(outer, &[("bucket", 10), ("bucket", 5)]);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.rep == 3));
        assert_eq!(s[3].start_ns, s[2].end_ns, "attached parts lie end to end");
        let agg = t.self_times();
        let outer = agg.iter().find(|a| a.name == "outer").expect("outer row");
        let bucket = agg.iter().find(|a| a.name == "bucket").expect("bucket row");
        assert_eq!((bucket.count, bucket.total_ns, bucket.self_ns), (2, 15, 15));
        let inner_ns = s[1].end_ns - s[1].start_ns;
        assert_eq!(
            outer.self_ns,
            outer.total_ns.saturating_sub(inner_ns + 15),
            "self = span - children"
        );
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let _leaked = t.begin("leaked");
        t.end(outer);
        let next = t.begin("next");
        t.end(next);
        assert_eq!(t.spans()[2].parent, None, "stack fully unwound");
    }

    #[test]
    fn chrome_trace_is_parseable_and_complete() {
        let mut t = Tracer::new(true);
        let a = t.begin("a \"quoted\" name");
        t.end(a);
        let text = t.to_chrome_trace().render();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("a \"quoted\" name")
        );
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Null)
        );
    }
}
