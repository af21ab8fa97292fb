//! The discrete-event queue.
//!
//! Events fire in `(time, class, sequence)` order. Ties in simulated time are
//! broken first by event *class* — crash/recover, then message deliveries
//! and returns, then timers — and then by insertion order, which makes every
//! run fully deterministic.
//!
//! Messages-before-timers at equal instants matters for protocol fidelity:
//! the paper's timing analyses (Figs. 5, 6) size timeouts so that the
//! triggering message or undeliverable return arrives *within* the timeout
//! interval. The worst-case arrival can coincide exactly with the timer's
//! expiry (e.g. an undeliverable prepare returning at `2T`, the master's
//! timeout); a site that checks its mailbox when the alarm rings must see
//! the message.
//!
//! The queue keeps two lanes that realise that one order:
//!
//! * a **message heap** — a binary heap of crash/recover events,
//!   deliveries and returns, ordered by `(time, class, sequence)`;
//! * a **timer lane** — a `VecDeque` of timers sorted by `(time,
//!   sequence)`. A commit protocol's sites mostly arm timers in the order
//!   they expire, so a timer is usually appended at the back; one that
//!   sorts behind it is shifted into place, unless its place is more than
//!   64 entries from both ends of the lane: then it goes to a small
//!   timers-only overflow heap, which bounds the cost of a store's sites
//!   arming thousands of submissions out of order.
//!
//! Because a timer is the last class at its instant, a pop takes the lane's
//! front exactly when it is *strictly* earlier than the heap's top. One
//! sequence counter numbers every push, so the two lanes pop precisely what
//! one heap over all events would. Most timers are cancelled before they
//! expire; cancellation stays lazy (the simulator drops a dead timer when it
//! pops), so a cancelled timer still counts as a dispatched event.

use crate::message::{Envelope, SiteId};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// How far from the nearer end of the timer lane a timer may sort and still
/// be inserted in place; deeper ones go to the overflow heap.
const LANE_SHIFT_MAX: usize = 64;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<P> {
    /// Deliver a message to its destination.
    Deliver(Envelope<P>),
    /// Return a message to its sender as undeliverable.
    ReturnUd(Envelope<P>),
    /// A timer at `site` expires.
    Timer { site: SiteId, timer: u64, tag: u64 },
    /// A site halts.
    Crash(SiteId),
    /// A site comes back.
    Recover(SiteId),
}

impl<P> EventKind<P> {
    /// Same-instant processing class: crash/recover first, then message
    /// traffic, then timers. Only the first two meet in the message heap;
    /// the timer lane realises the third.
    fn class(&self) -> u8 {
        match self {
            EventKind::Crash(_) | EventKind::Recover(_) => 0,
            EventKind::Deliver(_) | EventKind::ReturnUd(_) => 1,
            EventKind::Timer { .. } => 2,
        }
    }
}

#[derive(Debug)]
pub(crate) struct QueuedEvent<P> {
    pub at: SimTime,
    pub seq: u64,
    /// [`EventKind::class`], precomputed at push time: heap sifts compare
    /// each element O(log n) times, and resolving the class through a match
    /// on every comparison was measurable on the sweep hot path.
    class: u8,
    pub kind: EventKind<P>,
}

impl<P> PartialEq for QueuedEvent<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P> Eq for QueuedEvent<P> {}

impl<P> Ord for QueuedEvent<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<P> PartialOrd for QueuedEvent<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A queued [`EventKind::Timer`]. The lane holds these rather than
/// [`QueuedEvent`]s so an in-place insert shifts 40-byte entries, not
/// envelopes. `seq` is unique, so the derived order is `(at, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEvent {
    at: SimTime,
    seq: u64,
    site: SiteId,
    timer: u64,
    tag: u64,
}

impl TimerEvent {
    fn into_event<P>(self) -> QueuedEvent<P> {
        let kind = EventKind::Timer { site: self.site, timer: self.timer, tag: self.tag };
        QueuedEvent { at: self.at, seq: self.seq, class: kind.class(), kind }
    }
}

/// Deterministic event queue: a message heap and a timer lane (see the
/// module docs).
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    /// Crash/recover events, deliveries and returns.
    heap: BinaryHeap<QueuedEvent<P>>,
    /// Timers, sorted by `(at, seq)`.
    lane: VecDeque<TimerEvent>,
    /// Timers whose sorted place lay deeper than [`LANE_SHIFT_MAX`] in the
    /// lane. Together with `lane` it holds every queued timer; a pop first
    /// moves its minimum to the lane's front when that is earlier.
    overflow: BinaryHeap<Reverse<TimerEvent>>,
    next_seq: u64,
}

impl<P> EventQueue<P> {
    /// An empty queue; allocates nothing until [`EventQueue::reset`] sizes it.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Drops any queued events and rewinds the sequence counter, keeping the
    /// allocations, and guarantees room for `messages` heap events and
    /// `timers` lane entries before the first growth. A cleared queue behaves
    /// exactly like a freshly constructed one, which is what lets
    /// [`crate::net::SimScratch`] recycle it across runs without perturbing
    /// determinism.
    pub fn reset(&mut self, messages: usize, timers: usize) {
        // Both are empty after `clear`, so `reserve` guarantees the slots
        // (and is a no-op when the recycled allocation already suffices).
        self.heap.clear();
        self.heap.reserve(messages);
        self.lane.clear();
        self.lane.reserve(timers);
        self.overflow.clear();
        self.next_seq = 0;
    }

    // Inlined into each caller, which names the event kind it pushes, so the
    // lane/heap choice folds away. Left to LLVM, `push` and `pop` stayed out
    // of line and the benchmark's `sim_sweep` lost ≈ 7 % of its operations
    // per second (2-vCPU Xeon).
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match kind {
            EventKind::Timer { site, timer, tag } => {
                self.push_timer(TimerEvent { at, seq, site, timer, tag })
            }
            kind => self.heap.push(QueuedEvent { at, seq, class: kind.class(), kind }),
        }
    }

    /// `t.seq` is the largest yet, so `t` sorts after every queued timer at
    /// or before its instant.
    fn push_timer(&mut self, t: TimerEvent) {
        if self.lane.back().is_none_or(|back| back.at <= t.at) {
            self.lane.push_back(t);
            return;
        }
        let i = self.lane.partition_point(|e| e.at <= t.at);
        if i.min(self.lane.len() - i) > LANE_SHIFT_MAX {
            self.overflow.push(Reverse(t));
        } else {
            self.lane.insert(i, t);
        }
    }

    #[inline(always)]
    pub fn pop(&mut self) -> Option<QueuedEvent<P>> {
        if self.overflow.peek().is_some_and(|Reverse(o)| self.lane.front().is_none_or(|f| o < f)) {
            let Reverse(o) = self.overflow.pop()?;
            self.lane.push_front(o);
        }
        let timer_first = match (self.lane.front(), self.heap.peek()) {
            (Some(t), Some(m)) => t.at < m.at,
            (t, _) => t.is_some(),
        };
        if timer_first {
            self.lane.pop_front().map(TimerEvent::into_event)
        } else {
            self.heap.pop()
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + self.overflow.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgId;
    use proptest::prelude::*;

    fn timer(site: u16, tag: u64) -> EventKind<()> {
        EventKind::Timer { site: SiteId(site), timer: tag, tag }
    }

    fn envelope(id: u64) -> Envelope<()> {
        Envelope { id: MsgId(id), src: SiteId(0), dst: SiteId(1), sent_at: SimTime(0), payload: () }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer(0, 0));
        q.push(SimTime(10), timer(0, 1));
        q.push(SimTime(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..5 {
            q.push(SimTime(7), timer(0, tag));
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deliver_events_carry_envelopes() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(
            SimTime(5),
            EventKind::Deliver(Envelope {
                id: MsgId(0),
                src: SiteId(0),
                dst: SiteId(1),
                sent_at: SimTime(0),
                payload: "m",
            }),
        );
        match q.pop().unwrap().kind {
            EventKind::Deliver(env) => assert_eq!(env.payload, "m"),
            _ => panic!("wrong event kind"),
        }
        assert!(q.is_empty());
    }

    #[test]
    fn deliveries_beat_timers_at_equal_time() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(SimTime(10), EventKind::Timer { site: SiteId(0), timer: 7, tag: 7 });
        q.push(
            SimTime(10),
            EventKind::Deliver(Envelope {
                id: MsgId(0),
                src: SiteId(1),
                dst: SiteId(0),
                sent_at: SimTime(0),
                payload: "m",
            }),
        );
        // Delivery was inserted second but must come out first.
        assert!(matches!(q.pop().unwrap().kind, EventKind::Deliver(_)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Timer { .. }));
    }

    #[test]
    fn crashes_beat_deliveries_at_equal_time() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(
            SimTime(10),
            EventKind::Deliver(Envelope {
                id: MsgId(0),
                src: SiteId(1),
                dst: SiteId(0),
                sent_at: SimTime(0),
                payload: "m",
            }),
        );
        q.push(SimTime(10), EventKind::Crash(SiteId(0)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Crash(_)));
    }

    #[test]
    fn len_tracks_queue_size() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(SimTime(1), timer(0, 0));
        q.push(SimTime(2), timer(0, 1));
        q.push(SimTime(3), EventKind::Crash(SiteId(0)));
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn a_timer_sorting_deep_inside_the_lane_overflows_and_still_pops_in_order() {
        let mut q = EventQueue::new();
        for tag in 0..200 {
            q.push(SimTime(10 * tag), timer(0, tag));
        }
        // Sorts 100 entries from both ends: into the overflow heap.
        q.push(SimTime(995), timer(1, 1000));
        // Sorts 2 entries from the back: shifted into place.
        q.push(SimTime(1975), timer(1, 1001));
        assert_eq!((q.lane.len(), q.overflow.len()), (201, 1));
        let mut popped: Vec<u64> = Vec::new();
        let mut pop = |q: &mut EventQueue<()>| match q.pop().map(|e| e.kind) {
            Some(EventKind::Timer { tag, .. }) => popped.push(tag),
            other => panic!("expected a timer, popped {other:?}"),
        };
        for _ in 0..100 {
            pop(&mut q);
        }
        // The lane now starts at 1000 and the overflow still holds 995: a
        // second timer for 995 goes to the lane's front, and must still pop
        // after the first, which was armed earlier.
        q.push(SimTime(995), timer(1, 1002));
        while !q.is_empty() {
            pop(&mut q);
        }
        let mut expected: Vec<u64> = (0..200).collect();
        expected.insert(100, 1000);
        expected.insert(101, 1002);
        expected.insert(200, 1001);
        assert_eq!(popped, expected);
    }

    /// The queue the two lanes replaced, kept verbatim as the oracle: one
    /// binary heap over every event, ordered by `(at, class, seq)`.
    struct SingleHeap<P> {
        heap: BinaryHeap<OracleEvent<P>>,
        next_seq: u64,
    }

    struct OracleEvent<P> {
        at: SimTime,
        seq: u64,
        class: u8,
        kind: EventKind<P>,
    }

    impl<P> PartialEq for OracleEvent<P> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<P> Eq for OracleEvent<P> {}

    impl<P> Ord for OracleEvent<P> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.class.cmp(&self.class))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<P> PartialOrd for OracleEvent<P> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<P> SingleHeap<P> {
        fn push(&mut self, at: SimTime, kind: EventKind<P>) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(OracleEvent { at, seq, class: kind.class(), kind });
        }

        fn pop(&mut self) -> Option<OracleEvent<P>> {
            self.heap.pop()
        }
    }

    /// What a popped event is, down to the message id or timer handle.
    fn signature(at: SimTime, seq: u64, kind: &EventKind<()>) -> (u64, u64, u8, u64) {
        let (code, id) = match kind {
            EventKind::Crash(site) => (0, u64::from(site.0)),
            EventKind::Recover(site) => (1, u64::from(site.0)),
            EventKind::Deliver(env) => (2, env.id.0),
            EventKind::ReturnUd(env) => (3, env.id.0),
            EventKind::Timer { timer, .. } => (4, *timer),
        };
        (at.0, seq, code, id)
    }

    /// Op `code` of the property's script: 0 pops, 1–5 push the five kinds,
    /// timers four times out of ten so the lane grows past the overflow
    /// depth. `id` names the event in [`signature`].
    fn scripted(code: u8, id: u64) -> Option<EventKind<()>> {
        let site = SiteId((id % 5) as u16);
        Some(match code {
            0 => return None,
            1 => EventKind::Crash(site),
            2 => EventKind::Recover(site),
            3 | 4 => EventKind::Deliver(envelope(id)),
            5 => EventKind::ReturnUd(envelope(id)),
            _ => EventKind::Timer { site, timer: id, tag: id },
        })
    }

    fn lane_is_sorted(q: &EventQueue<()>) -> bool {
        q.lane.iter().zip(q.lane.iter().skip(1)).all(|(a, b)| a < b)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 256 } else { 10_000 },
            ..ProptestConfig::default()
        })]

        /// Pushes land `dt` after the last popped instant, as the simulator
        /// schedules them; the narrow `dt` range makes same-instant crash,
        /// delivery and timer ties common, and a lane a few hundred deep
        /// sends mid-lane timers to the overflow.
        #[test]
        fn two_lanes_pop_what_the_single_heap_popped(
            script in prop::collection::vec((0u8..10, 0u64..48), 1..600),
        ) {
            let mut lanes = EventQueue::new();
            let mut oracle = SingleHeap { heap: BinaryHeap::new(), next_seq: 0 };
            let mut now = SimTime::ZERO;
            for (id, &(code, dt)) in script.iter().enumerate() {
                let id = id as u64;
                match (scripted(code, id), scripted(code, id)) {
                    (Some(kind), Some(twin)) => {
                        lanes.push(SimTime(now.0 + dt), kind);
                        oracle.push(SimTime(now.0 + dt), twin);
                    }
                    _ => {
                        let got = lanes.pop().map(|e| signature(e.at, e.seq, &e.kind));
                        let want = oracle.pop().map(|e| signature(e.at, e.seq, &e.kind));
                        prop_assert_eq!(got, want);
                        if let Some((at, ..)) = got {
                            now = SimTime(at);
                        }
                    }
                }
                prop_assert!(lane_is_sorted(&lanes));
            }
            loop {
                let got = lanes.pop().map(|e| signature(e.at, e.seq, &e.kind));
                let want = oracle.pop().map(|e| signature(e.at, e.seq, &e.kind));
                prop_assert_eq!(got, want);
                prop_assert!(lane_is_sorted(&lanes));
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
