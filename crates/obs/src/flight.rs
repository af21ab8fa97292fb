//! A fault flight recorder: a fixed-capacity ring buffer of recent
//! structured events, cheap to feed on the hot path and dumped as JSON
//! only when something goes wrong (invariant-audit failure, a run that
//! fails to drain, a campaign counterexample).
//!
//! Events are plain `Copy` structs with `&'static str` kinds — recording
//! one is an index bump and a few word stores, no allocation — so nodes
//! can leave the recorder on during fault campaigns without disturbing
//! the latencies it exists to explain. When the ring wraps, the oldest
//! events fall off and a `dropped` counter says how many the dump is
//! missing.

use crate::json::json_escape;
use std::fmt::Write as _;

/// One recorded event: a microsecond timestamp (offset from run start),
/// the site it happened on, a static kind (`"send"`, `"recv"`,
/// `"lock-park"`, `"lease-grant"`, ...), a static tag refining it (message
/// kind, protocol name), and two free `u64` operands (txn id, peer site,
/// round number — whatever the kind needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since run start.
    pub at_us: u64,
    /// Site the event happened on.
    pub site: u64,
    /// Event kind.
    pub kind: &'static str,
    /// Kind-specific refinement (message/lock/lease detail).
    pub tag: &'static str,
    /// First operand (usually the transaction id).
    pub a: u64,
    /// Second operand (usually the peer site or a round/count).
    pub b: u64,
}

/// A fixed-capacity ring of [`FlightEvent`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events pushed out of the ring by later ones.
    dropped: u64,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "a flight recorder needs capacity for at least one event");
        FlightRecorder {
            buf: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Shorthand for [`record`](Self::record) from parts.
    pub fn log(
        &mut self,
        at_us: u64,
        site: u64,
        kind: &'static str,
        tag: &'static str,
        a: u64,
        b: u64,
    ) {
        self.record(FlightEvent { at_us, site, kind, tag, a, b });
    }

    /// Events currently held, oldest first.
    pub fn tail(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Events held right now.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders an event list as one JSON object: `{"reason": ..., "dropped":
    /// N, "events": [{at_us, site, kind, tag, a, b}, ...]}` — the one dump
    /// format, for the live stack's per-node recorders merged into one
    /// timeline and for a campaign's counterexample alike.
    pub fn render_dump(reason: &str, dropped: u64, events: &[FlightEvent]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"reason\": \"{}\", \"dropped\": {dropped}, \"events\": [",
            json_escape(reason)
        );
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"at_us\": {}, \"site\": {}, \"kind\": \"{}\", \"tag\": \"{}\", \"a\": {}, \"b\": {}}}",
                ev.at_us,
                ev.site,
                json_escape(ev.kind),
                json_escape(ev.tag),
                ev.a,
                ev.b,
            );
        }
        out.push_str("\n]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64) -> FlightEvent {
        FlightEvent { at_us, site: 0, kind: "send", tag: "VOTE_REQ", a: at_us, b: 1 }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = FlightRecorder::new(4);
        assert!(r.is_empty());
        for t in 0..4 {
            r.record(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.tail().iter().map(|e| e.at_us).collect::<Vec<_>>(), vec![0, 1, 2, 3]);

        // Two more evict the two oldest.
        r.record(ev(4));
        r.record(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.tail().iter().map(|e| e.at_us).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn wraps_many_times_over() {
        let mut r = FlightRecorder::new(3);
        for t in 0..100 {
            r.log(t, 7, "recv", "ACK", t, 0);
        }
        assert_eq!(r.dropped(), 97);
        assert_eq!(r.tail().iter().map(|e| e.at_us).collect::<Vec<_>>(), vec![97, 98, 99]);
    }

    #[test]
    fn capacity_one_keeps_only_latest() {
        let mut r = FlightRecorder::new(1);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.tail(), vec![ev(2)]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn dump_reports_truncation_and_order() {
        let mut r = FlightRecorder::new(2);
        for t in 0..5 {
            r.record(ev(t));
        }
        let dump = FlightRecorder::render_dump("audit failed: lost write", r.dropped(), &r.tail());
        assert!(dump.contains("\"reason\": \"audit failed: lost write\""));
        assert!(dump.contains("\"dropped\": 3"));
        assert!(dump.contains("\"at_us\": 3") && dump.contains("\"at_us\": 4"));
        assert!(!dump.contains("\"at_us\": 2"), "evicted event leaked into dump: {dump}");
        // Oldest first.
        let i3 = dump.find("\"at_us\": 3").unwrap();
        let i4 = dump.find("\"at_us\": 4").unwrap();
        assert!(i3 < i4);
    }

    #[test]
    fn dump_escapes_reason() {
        let dump = FlightRecorder::render_dump("line1\n\"quoted\"", 0, &[]);
        assert!(dump.contains("line1\\n\\\"quoted\\\""));
        assert!(dump.contains("\"events\": [\n]}"));
    }
}
