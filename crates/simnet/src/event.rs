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
//! The queue keeps three stores that realise that one order:
//!
//! * a **wheel** of deliveries and returns — one FIFO per instant over a
//!   window of `slots` instants starting at the last popped one, `slots`
//!   being the smallest power of two above `2T` (the timing wheels of
//!   Varghese & Lauck, the calendar queue of Brown). A message leg lasts at
//!   most `T` and an undeliverable message is back within `2T` of its send
//!   (Fig. 6), so every message the simulator schedules lands in the window
//!   unless an envelope fault delayed or duplicated it;
//! * a **far heap** — a binary heap, ordered by `(time, class, sequence)`,
//!   of crash/recover events and of the messages pushed beyond the window;
//! * a **timer lane** — a `VecDeque` of timers sorted by `(time,
//!   sequence)`. A commit protocol's sites mostly arm timers in the order
//!   they expire, so a timer is usually appended at the back; one that
//!   sorts behind it is shifted into place, unless its place is more than
//!   64 entries from both ends of the lane: then it goes to a small
//!   timers-only overflow heap, which bounds the cost of a store's sites
//!   arming thousands of submissions out of order.
//!
//! A wheel slot holds one instant (the window is `slots` instants wide) and
//! one class, and one sequence counter numbers every push, so a slot's FIFO
//! order is its `sequence` order. A pop takes the earlier of the wheel's
//! front and the far heap's top by `(time, class, sequence)`; because a
//! timer is the last class at its instant, the lane's front goes first
//! exactly when it is *strictly* earlier than that message. The three stores
//! thus pop precisely what one heap over all events would. Most timers are
//! cancelled before they expire; cancellation stays lazy (the simulator
//! drops a dead timer when it pops), so a cancelled timer still counts as a
//! dispatched event.

use crate::message::{Envelope, SiteId};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// How far from the nearer end of the timer lane a timer may sort and still
/// be inserted in place; deeper ones go to the overflow heap.
const LANE_SHIFT_MAX: usize = 64;

/// The most slots a wheel gets, whatever the clock: a coarser `T` sends the
/// messages beyond this window to the far heap instead of sizing a wheel of
/// millions of slots.
const WHEEL_SLOTS_MAX: u64 = 1 << 16;

/// A wheel's "no node" link.
const NIL: u32 = u32::MAX;

/// The wheel's slot count for a clock of `t_unit` ticks per `T`: the
/// smallest power of two above `2·t_unit`, at most [`WHEEL_SLOTS_MAX`].
fn wheel_slots(t_unit: u64) -> u64 {
    t_unit.saturating_mul(2).saturating_add(1).min(WHEEL_SLOTS_MAX).next_power_of_two()
}

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

/// [`EventKind::class`] of every wheel entry.
const MESSAGE_CLASS: u8 = 1;

impl<P> EventKind<P> {
    /// Same-instant processing class: crash/recover first, then message
    /// traffic, then timers. Only the first two meet in the far heap; the
    /// wheel holds the second alone and the timer lane realises the third.
    fn class(&self) -> u8 {
        match self {
            EventKind::Crash(_) | EventKind::Recover(_) => 0,
            EventKind::Deliver(_) | EventKind::ReturnUd(_) => MESSAGE_CLASS,
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

/// One message in the wheel's node arena: an entry of its slot's FIFO, or a
/// link of the free list once popped.
#[derive(Debug)]
struct WheelNode<P> {
    at: SimTime,
    seq: u64,
    next: u32,
    /// `None` while the node is free.
    kind: Option<EventKind<P>>,
}

/// The deliveries and returns due within `slots` instants of the last pop:
/// one FIFO per instant, linked through a node arena, with a two-level
/// occupancy bitmap to find the earliest occupied slot.
#[derive(Debug)]
struct Wheel<P> {
    /// A power of two, or 0 before [`EventQueue::reset`] sizes the queue
    /// (every message then takes the far heap).
    slots: u64,
    /// The last popped instant. No queued entry is earlier and the window
    /// is `[base, base + slots)`, so slot `at % slots` holds instant `at`
    /// alone.
    base: u64,
    /// The `(first, last)` node of each slot's FIFO, meaningful only while
    /// the slot's `occupied` bit is set.
    ends: Vec<(u32, u32)>,
    /// One bit per slot.
    occupied: Vec<u64>,
    /// One bit per word of `occupied` that has a bit set.
    summary: Vec<u64>,
    nodes: Vec<WheelNode<P>>,
    /// Head of the free nodes' list.
    free: u32,
    len: usize,
    /// The earliest occupied slot, or [`NIL`] when it has to be searched.
    front: u32,
}

impl<P> Wheel<P> {
    fn new() -> Self {
        Wheel {
            slots: 0,
            base: 0,
            ends: Vec::new(),
            occupied: Vec::new(),
            summary: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            front: NIL,
        }
    }

    /// Empties the wheel for a clock of `t_unit` ticks per `T`, keeping the
    /// allocations unless the clock changed the slot count.
    fn reset(&mut self, t_unit: u64, messages: usize) {
        let slots = wheel_slots(t_unit);
        if slots != self.slots {
            let words = slots.div_ceil(64) as usize;
            self.slots = slots;
            self.ends = vec![(NIL, NIL); slots as usize];
            self.occupied = vec![0; words];
            self.summary = vec![0; words.div_ceil(64)];
        } else if self.len > 0 {
            self.occupied.fill(0);
            self.summary.fill(0);
        }
        self.nodes.clear();
        self.nodes.reserve(messages);
        self.free = NIL;
        self.len = 0;
        self.base = 0;
        self.front = NIL;
    }

    /// Does the window hold instant `at`?
    #[inline(always)]
    fn holds(&self, at: SimTime) -> bool {
        at.0.wrapping_sub(self.base) < self.slots
    }

    /// Appends a message to its instant's FIFO; `holds(at)` must be true.
    #[inline(always)]
    fn push(&mut self, at: SimTime, seq: u64, kind: EventKind<P>) {
        let node = WheelNode { at, seq, next: NIL, kind: Some(kind) };
        let i = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        let slot = (at.0 & (self.slots - 1)) as usize;
        let (word, bit) = (slot >> 6, 1u64 << (slot & 63));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.summary[word >> 6] |= 1 << (word & 63);
            self.ends[slot] = (i, i);
            // A newly occupied slot is a new instant: the front if the
            // wheel was empty or the old front is later.
            if self.len == 0
                || (self.front != NIL
                    && at < self.nodes[self.ends[self.front as usize].0 as usize].at)
            {
                self.front = slot as u32;
            }
        } else {
            let tail = self.ends[slot].1;
            self.nodes[tail as usize].next = i;
            self.ends[slot].1 = i;
        }
        self.len += 1;
    }

    /// The first occupied slot at or after `base`'s, going round once. The
    /// wheel must not be empty.
    fn search(&self) -> usize {
        let start = (self.base & (self.slots - 1)) as usize;
        let (word, bit) = (start >> 6, start & 63);
        let above = self.occupied[word] & (!0u64 << bit);
        if above != 0 {
            return word << 6 | above.trailing_zeros() as usize;
        }
        // The next occupied word after `word`, round the summary; `word`
        // itself last, for the slots below `start` the window wrapped to.
        let words = self.occupied.len();
        let from = (word + 1) & (words - 1);
        let mut s = from >> 6;
        let mut bits = self.summary[s] & (!0u64 << (from & 63));
        while bits == 0 {
            s = (s + 1) % self.summary.len();
            bits = self.summary[s];
        }
        let word = s << 6 | bits.trailing_zeros() as usize;
        word << 6 | self.occupied[word].trailing_zeros() as usize
    }

    /// `(at, seq)` of the earliest message, caching its slot.
    #[inline(always)]
    fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.front == NIL {
            self.front = self.search() as u32;
        }
        let node = &self.nodes[self.ends[self.front as usize].0 as usize];
        Some((node.at, node.seq))
    }

    /// Removes the message [`Wheel::peek`] just reported.
    #[inline(always)]
    fn pop_front(&mut self) -> QueuedEvent<P> {
        let slot = self.front as usize;
        let (first, last) = self.ends[slot];
        let node = &mut self.nodes[first as usize];
        let (at, seq, next) = (node.at, node.seq, node.next);
        let kind = node.kind.take().expect("a queued node holds its message");
        node.next = self.free;
        self.free = first;
        if first == last {
            let word = slot >> 6;
            self.occupied[word] &= !(1u64 << (slot & 63));
            if self.occupied[word] == 0 {
                self.summary[word >> 6] &= !(1u64 << (word & 63));
            }
            self.front = NIL;
        } else {
            self.ends[slot].0 = next;
        }
        self.len -= 1;
        QueuedEvent { at, seq, class: MESSAGE_CLASS, kind }
    }
}

/// Deterministic event queue: a wheel, a far heap and a timer lane (see the
/// module docs).
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    /// Deliveries and returns due inside the window.
    wheel: Wheel<P>,
    /// Crash/recover events, and the messages due beyond the window.
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
    /// An empty queue; allocates nothing until [`EventQueue::reset`] sizes
    /// it. Until then it has no wheel and keeps every message in the far
    /// heap.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Drops any queued events and rewinds the sequence counter, keeping the
    /// allocations, sizes the wheel for a clock of `t_unit` ticks per `T`,
    /// and guarantees room for `messages` wheel entries and `timers` lane
    /// entries before the first growth. A cleared queue behaves exactly like
    /// a freshly constructed one, which is what lets
    /// [`crate::net::SimScratch`] recycle it across runs without perturbing
    /// determinism.
    pub fn reset(&mut self, t_unit: u64, messages: usize, timers: usize) {
        self.wheel.reset(t_unit, messages);
        self.heap.clear();
        // The lane is empty after `clear`, so `reserve` guarantees the slots
        // (and is a no-op when the recycled allocation already suffices).
        self.lane.clear();
        self.lane.reserve(timers);
        self.overflow.clear();
        self.next_seq = 0;
    }

    // Inlined into each caller, which names the event kind it pushes, so the
    // store choice folds away. Left to LLVM, `push` and `pop` stayed out of
    // line and the benchmark's `sim_sweep` lost ≈ 7 % of its operations per
    // second (2-vCPU Xeon).
    /// Queues `kind` at `at`, which must not be earlier than the last popped
    /// instant.
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, kind: EventKind<P>) {
        debug_assert!(at.0 >= self.wheel.base, "an event pushed into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        match kind {
            EventKind::Timer { site, timer, tag } => {
                self.push_timer(TimerEvent { at, seq, site, timer, tag })
            }
            kind @ (EventKind::Deliver(_) | EventKind::ReturnUd(_)) if self.wheel.holds(at) => {
                self.wheel.push(at, seq, kind)
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
        let wheel = self.wheel.peek();
        let (from_wheel, message_at) = match (wheel, self.heap.peek()) {
            (Some((at, seq)), Some(far)) => {
                let wheel_first = (at, MESSAGE_CLASS, seq) < (far.at, far.class, far.seq);
                (wheel_first, Some(if wheel_first { at } else { far.at }))
            }
            (Some((at, _)), None) => (true, Some(at)),
            (None, far) => (false, far.map(|far| far.at)),
        };
        let timer_first = match (self.lane.front(), message_at) {
            (Some(t), Some(m)) => t.at < m,
            (t, _) => t.is_some(),
        };
        let event = if timer_first {
            self.lane.pop_front().map(TimerEvent::into_event)
        } else if from_wheel {
            Some(self.wheel.pop_front())
        } else {
            self.heap.pop()
        };
        if let Some(e) = &event {
            self.wheel.base = e.at.0;
        }
        event
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.wheel.len + self.heap.len() + self.lane.len() + self.overflow.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wheel's slot count and how many messages it holds.
    #[cfg(test)]
    pub fn wheel_size_and_len(&self) -> (u64, usize) {
        (self.wheel.slots, self.wheel.len)
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

    /// A queue sized as a run at `t_unit` ticks per `T` sizes it.
    fn sized<P>(t_unit: u64) -> EventQueue<P> {
        let mut q = EventQueue::new();
        q.reset(t_unit, 0, 0);
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = sized(1000);
        q.push(SimTime(30), timer(0, 0));
        q.push(SimTime(10), timer(0, 1));
        q.push(SimTime(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = sized(1000);
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
        let mut q: EventQueue<&str> = sized(1000);
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
        let mut q: EventQueue<&str> = sized(1000);
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
        let mut q: EventQueue<&str> = sized(1000);
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
        let mut q = sized(1000);
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
        let mut q = sized(1000);
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

    /// How far after the last popped instant a script op pushes, for a
    /// wheel of `slots`: mostly `dt` itself, so same-instant ties are
    /// common; one time in ten across the window's edge, and one in ten a
    /// whole number of windows out — the far heap, and once popped an idle
    /// gap longer than the window that wraps the slots.
    fn offset(reach: u8, dt: u64, slots: u64) -> u64 {
        match reach {
            0 => (slots + dt).saturating_sub(24),
            1 => slots * (1 + dt % 3) + dt / 3,
            _ => dt,
        }
    }

    fn lane_is_sorted(q: &EventQueue<()>) -> bool {
        q.lane.iter().zip(q.lane.iter().skip(1)).all(|(a, b)| a < b)
    }

    /// Every wheel entry sits in the slot of its instant, inside the window,
    /// behind the entries pushed before it; the bitmaps and the count agree.
    fn wheel_is_consistent(q: &EventQueue<()>) -> bool {
        let w = &q.wheel;
        let mut count = 0;
        for (word, &bits) in w.occupied.iter().enumerate() {
            if (w.summary[word >> 6] >> (word & 63)) & 1 != u64::from(bits != 0) {
                return false;
            }
            let mut bits = bits;
            while bits != 0 {
                let slot = word << 6 | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (mut node, mut last_seq) = (w.ends[slot].0, None);
                loop {
                    let n = &w.nodes[node as usize];
                    let in_slot = n.at.0 & (w.slots - 1) == slot as u64 && w.holds(n.at);
                    if !in_slot || n.kind.is_none() || last_seq.is_some_and(|s| s >= n.seq) {
                        return false;
                    }
                    (count, last_seq) = (count + 1, Some(n.seq));
                    if node == w.ends[slot].1 {
                        break;
                    }
                    node = n.next;
                }
            }
        }
        count == w.len
    }

    #[test]
    fn the_wheel_is_sized_by_the_clock_alone() {
        assert_eq!(wheel_slots(1000), 2048);
        assert_eq!(wheel_slots(1024), 4096);
        assert_eq!(wheel_slots(1), 4);
        assert_eq!(wheel_slots(u64::MAX), WHEEL_SLOTS_MAX);
        let mut q: EventQueue<()> = sized(1000);
        q.reset(7, 0, 0);
        assert_eq!(q.wheel_size_and_len(), (16, 0));
    }

    #[test]
    fn a_message_beyond_the_window_takes_the_far_heap() {
        let mut q = sized(10);
        q.push(SimTime(31), EventKind::Deliver(envelope(0)));
        q.push(SimTime(32), EventKind::Deliver(envelope(1)));
        assert_eq!((q.wheel.len, q.heap.len()), (1, 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![31, 32]);
    }

    #[test]
    fn every_class_and_store_meets_at_one_instant() {
        let mut q = sized(10);
        // Pushed at 0 for 40, beyond the 32-slot window: the far heap.
        q.push(SimTime(40), EventKind::Deliver(envelope(0)));
        q.push(SimTime(40), EventKind::Timer { site: SiteId(0), timer: 1, tag: 1 });
        q.push(SimTime(20), EventKind::Deliver(envelope(2)));
        assert_eq!(q.pop().map(|e| e.at.0), Some(20));
        // From 20 the window reaches 40: these land in the wheel.
        q.push(SimTime(40), EventKind::ReturnUd(envelope(3)));
        q.push(SimTime(40), EventKind::Crash(SiteId(1)));
        q.push(SimTime(40), EventKind::Deliver(envelope(5)));
        q.push(SimTime(40), EventKind::Recover(SiteId(1)));
        assert_eq!(q.wheel.len, 2);
        let order: Vec<(u64, u8, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| {
                let (_, seq, code, _) = signature(e.at, e.seq, &e.kind);
                (e.at.0, code, seq)
            })
            .collect();
        // Crash and recover, then the messages by sequence across the far
        // heap and the wheel, then the timer.
        assert_eq!(
            order,
            vec![(40, 0, 4), (40, 1, 6), (40, 2, 0), (40, 3, 3), (40, 2, 5), (40, 4, 1)]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 256 } else { 10_000 },
            ..ProptestConfig::default()
        })]

        /// Pushes land after the last popped instant, as the simulator
        /// schedules them (see [`offset`]); the narrow `dt` range makes
        /// same-instant crash, delivery and timer ties common, a lane a few
        /// hundred deep sends mid-lane timers to the overflow, and the clock
        /// is drawn so the wheel spans 4 to 2048 slots.
        #[test]
        fn wheel_heap_and_lane_pop_what_the_single_heap_popped(
            clock in 0usize..4,
            script in prop::collection::vec((0u8..10, 0u8..10, 0u64..48), 1..600),
        ) {
            let t_unit = [1, 7, 20, 1000][clock];
            let slots = wheel_slots(t_unit);
            let mut queue = sized(t_unit);
            let mut oracle = SingleHeap { heap: BinaryHeap::new(), next_seq: 0 };
            let mut now = SimTime::ZERO;
            for (id, &(code, reach, dt)) in script.iter().enumerate() {
                let id = id as u64;
                match (scripted(code, id), scripted(code, id)) {
                    (Some(kind), Some(twin)) => {
                        let at = SimTime(now.0 + offset(reach, dt, slots));
                        queue.push(at, kind);
                        oracle.push(at, twin);
                    }
                    _ => {
                        let got = queue.pop().map(|e| signature(e.at, e.seq, &e.kind));
                        let want = oracle.pop().map(|e| signature(e.at, e.seq, &e.kind));
                        prop_assert_eq!(got, want);
                        if let Some((at, ..)) = got {
                            now = SimTime(at);
                        }
                    }
                }
                prop_assert!(lane_is_sorted(&queue));
                prop_assert!(wheel_is_consistent(&queue));
            }
            loop {
                let got = queue.pop().map(|e| signature(e.at, e.seq, &e.kind));
                let want = oracle.pop().map(|e| signature(e.at, e.seq, &e.kind));
                prop_assert_eq!(got, want);
                prop_assert!(lane_is_sorted(&queue));
                prop_assert!(wheel_is_consistent(&queue));
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
