//! Execution traces.
//!
//! Every simulation records a complete, ordered log of network and timer
//! activity. The timing experiments (Figs. 5–7, 9) are measurements over
//! these traces, and failed invariant checks print them for replay debugging.

use crate::message::{MsgId, SiteId};
use crate::time::SimTime;

/// One record in the execution trace.
///
/// `kind` fields carry the payload's message-kind tag (e.g. `"prepare"`),
/// supplied by the payload's [`crate::Payload::kind`] implementation, so
/// traces stay allocation-free and comparable across runs.
///
/// Field meanings are uniform across variants: `at` is the instant, `id`
/// the message, `src`/`dst` its addressing, `site` the acting site, `timer`
/// the timer handle, `tag` the actor-chosen timer tag.
#[allow(missing_docs)] // fields documented collectively above
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A site handed a message to the network.
    Sent { at: SimTime, id: MsgId, src: SiteId, dst: SiteId, kind: &'static str },
    /// The network delivered a message to its destination.
    Delivered { at: SimTime, id: MsgId, src: SiteId, dst: SiteId, kind: &'static str },
    /// The network returned a message to its sender as undeliverable.
    Returned { at: SimTime, id: MsgId, src: SiteId, dst: SiteId, kind: &'static str },
    /// The network dropped a message (pessimistic mode or crashed receiver).
    Dropped { at: SimTime, id: MsgId, src: SiteId, dst: SiteId, kind: &'static str },
    /// A timer was armed.
    TimerSet { at: SimTime, site: SiteId, timer: u64, tag: u64, fire_at: SimTime },
    /// A timer fired and was dispatched.
    TimerFired { at: SimTime, site: SiteId, timer: u64, tag: u64 },
    /// A timer was cancelled before firing.
    TimerCancelled { at: SimTime, site: SiteId, timer: u64 },
    /// A timer expired but was suppressed (cancelled earlier or site down).
    TimerSuppressed { at: SimTime, site: SiteId, timer: u64, tag: u64 },
    /// A site crashed.
    Crashed { at: SimTime, site: SiteId },
    /// A site recovered.
    Recovered { at: SimTime, site: SiteId },
    /// Free-form site annotation (state transitions, decisions, ...).
    Note { at: SimTime, site: SiteId, label: &'static str, detail: u64 },
}

impl TraceEvent {
    /// The instant the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Sent { at, .. }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::Returned { at, .. }
            | TraceEvent::Dropped { at, .. }
            | TraceEvent::TimerSet { at, .. }
            | TraceEvent::TimerFired { at, .. }
            | TraceEvent::TimerCancelled { at, .. }
            | TraceEvent::TimerSuppressed { at, .. }
            | TraceEvent::Crashed { at, .. }
            | TraceEvent::Recovered { at, .. }
            | TraceEvent::Note { at, .. } => at,
        }
    }
}

/// Per-category event tallies, maintained by every run whether or not it
/// records a [`Trace`].
///
/// Sweeps that judge verdicts without a trace still get these for free
/// (they are a handful of integer bumps), so experiment reports can cite
/// message counts without paying for full traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to their destinations.
    pub delivered: u64,
    /// Messages returned to their senders as undeliverable.
    pub returned: u64,
    /// Messages dropped (pessimistic mode or crashed receiver).
    pub dropped: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Timers fired and dispatched.
    pub timers_fired: u64,
    /// Timers cancelled before firing.
    pub timers_cancelled: u64,
    /// Timers that expired but were suppressed.
    pub timers_suppressed: u64,
    /// Site crashes.
    pub crashes: u64,
    /// Site recoveries.
    pub recoveries: u64,
    /// Free-form annotations.
    pub notes: u64,
}

impl TraceCounters {
    /// Total events tallied.
    pub fn total(&self) -> u64 {
        self.sent
            + self.delivered
            + self.returned
            + self.dropped
            + self.timers_set
            + self.timers_fired
            + self.timers_cancelled
            + self.timers_suppressed
            + self.crashes
            + self.recoveries
            + self.notes
    }
}

/// The full, ordered execution log of one simulation run.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// A trace of events logged elsewhere — a host that keeps only its sites'
/// notes builds its run's trace from them — kept in the given order.
///
/// ```
/// use ptp_simnet::{SimTime, SiteId, Trace, TraceEvent};
///
/// let note = |at, detail| TraceEvent::Note { at: SimTime(at), site: SiteId(1), label: "voted", detail };
/// let trace = Trace::from(vec![note(12, 1), note(30, 0)]);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.first_note(SiteId(1), "voted"), Some((SimTime(12), 1)));
/// ```
impl From<Vec<TraceEvent>> for Trace {
    fn from(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }
}

impl Trace {
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All events in occurrence order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Deliveries of a given message kind to a given site.
    pub fn deliveries_to<'a>(
        &'a self,
        site: SiteId,
        kind: &'a str,
    ) -> impl Iterator<Item = (SimTime, MsgId, SiteId)> + 'a {
        self.events.iter().filter_map(move |e| match *e {
            TraceEvent::Delivered { at, id, src, dst, kind: k } if dst == site && k == kind => {
                Some((at, id, src))
            }
            _ => None,
        })
    }

    /// Undeliverable returns of a given message kind to a given sender.
    pub fn returns_to<'a>(
        &'a self,
        site: SiteId,
        kind: &'a str,
    ) -> impl Iterator<Item = (SimTime, MsgId, SiteId)> + 'a {
        self.events.iter().filter_map(move |e| match *e {
            TraceEvent::Returned { at, id, src, dst, kind: k } if src == site && k == kind => {
                Some((at, id, dst))
            }
            _ => None,
        })
    }

    /// First `Note` with the given label at the given site.
    pub fn first_note(&self, site: SiteId, label: &str) -> Option<(SimTime, u64)> {
        self.events.iter().find_map(|e| match *e {
            TraceEvent::Note { at, site: s, label: l, detail } if s == site && l == label => {
                Some((at, detail))
            }
            _ => None,
        })
    }

    /// All `Note`s with the given label, across sites.
    pub fn notes<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = (SimTime, SiteId, u64)> + 'a {
        self.events.iter().filter_map(move |e| match *e {
            TraceEvent::Note { at, site, label: l, detail } if l == label => {
                Some((at, site, detail))
            }
            _ => None,
        })
    }

    /// Renders the trace as one event per line — used in failure messages.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 48);
        for e in &self.events {
            let _ = writeln!(out, "{e:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.push(TraceEvent::Sent {
            at: SimTime(0),
            id: MsgId(0),
            src: SiteId(0),
            dst: SiteId(1),
            kind: "xact",
        });
        t.push(TraceEvent::Delivered {
            at: SimTime(10),
            id: MsgId(0),
            src: SiteId(0),
            dst: SiteId(1),
            kind: "xact",
        });
        t.push(TraceEvent::Note { at: SimTime(12), site: SiteId(1), label: "voted", detail: 1 });
        t.push(TraceEvent::Note { at: SimTime(30), site: SiteId(1), label: "decided", detail: 0 });
        t
    }

    #[test]
    fn deliveries_filter_by_site_and_kind() {
        let t = sample_trace();
        let d: Vec<_> = t.deliveries_to(SiteId(1), "xact").collect();
        assert_eq!(d, vec![(SimTime(10), MsgId(0), SiteId(0))]);
        assert_eq!(t.deliveries_to(SiteId(0), "xact").count(), 0);
        assert_eq!(t.deliveries_to(SiteId(1), "yes").count(), 0);
    }

    #[test]
    fn first_note_found() {
        let t = sample_trace();
        assert_eq!(t.first_note(SiteId(1), "voted"), Some((SimTime(12), 1)));
        assert_eq!(t.first_note(SiteId(1), "missing"), None);
    }

    #[test]
    fn event_at_returns_timestamp() {
        let t = sample_trace();
        assert_eq!(t.events()[0].at(), SimTime(0));
        assert_eq!(t.events()[3].at(), SimTime(30));
    }

    #[test]
    fn render_one_line_per_event() {
        let t = sample_trace();
        assert_eq!(t.render().lines().count(), t.len());
    }
}
