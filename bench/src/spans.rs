//! Bench-side spans: `{name, start_ns, end_ns, parent}` records kept in
//! memory around the calls into each layer and written out when the run
//! ends. No span lives inside the program under test.

use serde_json::{Map, Number, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

/// A stack-disciplined span recorder over one monotonic clock.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut m = Map::new();
                    m.insert("name".into(), Value::Str(s.name.into()));
                    m.insert("start_ns".into(), Value::Num(Number::U(s.start_ns)));
                    m.insert("end_ns".into(), Value::Num(Number::U(s.end_ns)));
                    m.insert(
                        "parent".into(),
                        s.parent
                            .map_or(Value::Null, |p| Value::Num(Number::U(p as u64))),
                    );
                    m.insert("workload".into(), Value::Str(workload.into()));
                    Value::Object(m)
                })
                .collect(),
        )
    }
}

/// Per span name: `(calls, total duration, self time)` in nanoseconds, in
/// first-seen order. Self time is a span's duration minus the durations of
/// its direct children (children are nested and do not overlap).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns[i]);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += dur;
                r.3 += own;
            }
            None => rows.push((s.name, 1, dur, own)),
        }
    }
    rows
}

/// The share of the root span's duration that is not covered by any child
/// span: the part of the run no named layer accounts for.
pub fn unaccounted_share(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().position(|s| s.parent.is_none()) else {
        return 0.0;
    };
    let dur = spans[root].end_ns - spans[root].start_ns;
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if dur == 0 {
        0.0
    } else {
        dur.saturating_sub(covered) as f64 / dur as f64
    }
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
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("workload", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("plan", 15, 35, Some(1)),
            span("run", 40, 90, Some(0)),
            span("run", 90, 98, Some(0)),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows[0], ("workload", 1, 100, 100 - 30 - 50 - 8));
        assert_eq!(rows[1], ("setup", 1, 30, 10));
        assert_eq!(rows[2], ("plan", 1, 20, 20));
        assert_eq!(rows[3], ("run", 2, 58, 58));
        // Self times partition the root's duration.
        assert_eq!(rows.iter().map(|r| r.3).sum::<u64>(), 100);
        assert!((unaccounted_share(&spans) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut s = Spans::new();
        let root = s.enter("workload");
        let a = s.enter("a");
        s.exit(a);
        let b = s.enter("b");
        let c = s.enter("c");
        s.exit(c);
        s.exit(b);
        s.exit(root);
        let parents: Vec<_> = s.all().iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(s.all().iter().all(|x| x.end_ns >= x.start_ns));
    }
}
