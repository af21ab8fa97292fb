//! Benchmark-side spans: one per call into a layer, recorded from outside.
//!
//! The traced run wraps every call the benchmark makes into the program
//! (`generate`, `compile`, `run_server`, each `ShardCluster::run`, each
//! `sweep_serial`, each micro-loop) in a span — name, start, end, parent,
//! operation id — kept in memory and written out once, when the run ends.
//! A span's self time is its duration minus the part its children cover.
//! With tracing off the recorder is inert: `span` just runs the closure.

use ptp_obs::json_escape;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Which operation of the run the span belongs to (a pass number, a
    /// repeat number, a sample number), so spans of one operation group.
    op: u64,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder of one run.
pub struct Tracer {
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Tracer {
        let inner = enabled.then(|| {
            RefCell::new(Inner { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() })
        });
        Tracer { inner }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` inside a span named `name` for operation `op`; the span's
    /// parent is whichever span is open on this thread right now.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let Some(cell) = &self.inner else { return f() };
        let id = {
            let mut inner = cell.borrow_mut();
            let start_us = inner.epoch.elapsed().as_micros() as u64;
            let parent = inner.open.last().copied();
            inner.spans.push(Span { name, op, parent, start_us, end_us: start_us });
            let id = inner.spans.len() - 1;
            inner.open.push(id);
            id
        };
        let out = f();
        let mut inner = cell.borrow_mut();
        inner.spans[id].end_us = inner.epoch.elapsed().as_micros() as u64;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |c| c.borrow().spans.len())
    }

    /// Spans other than the root that have no parent (must be 0).
    pub fn orphans(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |c| c.borrow().spans.iter().skip(1).filter(|s| s.parent.is_none()).count())
    }

    /// Renders every span with its self time: `{"spans": [{id, name, op,
    /// parent, start_us, end_us, self_us}, ...]}`. The root's parent is
    /// `null`.
    pub fn to_json(&self, workload: &str) -> String {
        let Some(cell) = &self.inner else { return String::from("{}") };
        let inner = cell.borrow();
        let mut child_us = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{\"workload\": \"{}\", \"spans\": [", json_escape(workload));
        for (id, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let dur = s.end_us - s.start_us;
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                json_escape(s.name),
                s.op,
                s.start_us,
                s.end_us,
                dur.saturating_sub(child_us[id]),
            );
            out.push_str(if id + 1 == inner.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let t = Tracer::new(true);
        let v = t.span("root", 0, || {
            t.span("child", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("child", 2, || 5)
        });
        assert_eq!(v, 5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.orphans(), 0);
        let json = t.to_json("w");
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"), "{json}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 3), 3);
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_json("w"), "{}");
    }
}
