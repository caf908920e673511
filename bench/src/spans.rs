//! Bench-side spans: the traced pass wraps every call into a layer in a
//! span recorded here, from outside the program. Spans stay in memory and
//! are written as one chrome trace when the run ends.

use crate::json::Val;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same log) of the span that was open when this one
    /// started — the span that caused it.
    pub parent: Option<usize>,
    /// Spans of one benchmark call share this identifier.
    pub call: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`SpanLog::begin`]; pass it back to [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// One rank thread's span record.
#[derive(Debug)]
pub struct SpanLog {
    pub rank: usize,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    call: u64,
}

impl SpanLog {
    /// All ranks pass the same `origin` so their lanes share a time axis.
    pub fn new(rank: usize, origin: Instant) -> SpanLog {
        SpanLog {
            rank,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            call: 0,
        }
    }

    /// Start the next benchmark call: spans opened from now on carry a
    /// fresh call identifier.
    pub fn next_call(&mut self) {
        self.call += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            call: self.call,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span; spans close in the reverse order they opened.
    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `(count, total nanoseconds)` of the spans called `name`.
    fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
    }

    /// Mean duration in microseconds of the spans called `name`; 0 when
    /// none were recorded (the workload does not enter that stage).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.totals(name) {
            (0, _) => 0.0,
            (n, total) => total as f64 / n as f64 / 1e3,
        }
    }

    /// Microseconds spent in spans called `name` per span called `root`
    /// (a stage may run more than once per call); 0 without either.
    pub fn per_call_us(&self, name: &str, root: &str) -> f64 {
        match (self.totals(name), self.totals(root)) {
            ((0, _), _) | (_, (0, _)) => 0.0,
            ((_, total), (calls, _)) => total as f64 / calls as f64 / 1e3,
        }
    }

    /// Mean self time in microseconds of the spans called `name`.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let selfs: Vec<u64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i))
            .collect();
        if selfs.is_empty() {
            0.0
        } else {
            selfs.iter().sum::<u64>() as f64 / selfs.len() as f64 / 1e3
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur_ns() - covered
}

/// Chrome-trace document (`{"traceEvents": [...]}`, loadable in Perfetto
/// or `chrome://tracing`): one lane per rank, one complete (`"X"`) event
/// per span with its call identifier and parent name as arguments.
pub fn chrome_trace(logs: &[SpanLog]) -> Val {
    let mut events = Vec::new();
    for log in logs {
        events.push(Val::obj([
            ("name", Val::str("thread_name")),
            ("ph", Val::str("M")),
            ("pid", Val::Num(1.0)),
            ("tid", Val::Num(log.rank as f64)),
            (
                "args",
                Val::obj([("name", Val::str(format!("rank {}", log.rank)))]),
            ),
        ]));
        for span in log.spans() {
            let mut args = vec![("call".to_string(), Val::Num(span.call as f64))];
            if let Some(p) = span.parent {
                args.push(("parent".to_string(), Val::str(log.spans[p].name)));
            }
            events.push(Val::obj([
                ("name", Val::str(span.name)),
                ("ph", Val::str("X")),
                ("pid", Val::Num(1.0)),
                ("tid", Val::Num(log.rank as f64)),
                ("ts", Val::Num(span.start_ns as f64 / 1e3)),
                ("dur", Val::Num(span.dur_ns() as f64 / 1e3)),
                ("args", Val::Obj(args)),
            ]));
        }
    }
    Val::obj([("traceEvents", Val::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            call: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("call", 0, 100, None),
            span("mask", 10, 30, Some(0)),
            // Overlaps `mask` by 10: the union covers 10..50.
            span("tag", 20, 50, Some(0)),
            span("unmask", 70, 90, Some(0)),
            // A grandchild never counts against the grandparent twice.
            span("kernel", 12, 28, Some(1)),
            // A child sticking out of its parent is clipped to it.
            span("late", 95, 120, Some(0)),
        ];
        // Cover: 10..50 (40) + 70..90 (20) + 95..100 (5) = 65.
        assert_eq!(self_time_ns(&spans, 0), 35);
        assert_eq!(self_time_ns(&spans, 1), 20 - 16);
        assert_eq!(self_time_ns(&spans, 3), 20);
    }

    #[test]
    fn log_records_parents_calls_and_means() {
        let mut log = SpanLog::new(1, Instant::now());
        for _ in 0..2 {
            log.next_call();
            let call = log.begin("call");
            let mask = log.begin("mask");
            log.end(mask);
            log.end(call);
        }
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[0].call, spans[1].call, spans[2].call), (1, 1, 2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(log.mean_us("call") >= log.mean_us("mask"));
        assert!(log.mean_self_us("call") <= log.mean_us("call"));
        assert_eq!(log.mean_us("absent"), 0.0);
    }

    #[test]
    fn chrome_trace_passes_the_repo_schema_check() {
        let mut log = SpanLog::new(0, Instant::now());
        log.next_call();
        let call = log.begin("call");
        let mask = log.begin("mask");
        log.end(mask);
        log.end(call);
        let text = chrome_trace(&[log]).render();
        let events = hear::telemetry::parse::parse_chrome_trace(&text).expect("valid trace");
        let complete: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(complete.len(), 2);
        let mask = complete.iter().find(|e| e.name == "mask").expect("mask");
        assert_eq!(
            mask.args.get("parent").and_then(|p| p.as_str()),
            Some("call")
        );
        assert_eq!(mask.args.get("call").and_then(|c| c.as_f64()), Some(1.0));
    }
}
