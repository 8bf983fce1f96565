//! Virtual time and the pending-event scheduler.
//!
//! The runtime executes against a deterministic virtual clock: asynchronous
//! raises join a FIFO queue, timed raises join a hierarchical timer wheel
//! (module `wheel`), and [`crate::Runtime::run_until_idle`] drains both,
//! advancing the clock to the next deadline when the FIFO is empty (paper
//! §2.2: timed events "are activated at a specified time or after a
//! specified delay").

mod wheel;

use pdo_obs::TraceCtx;

use pdo_ir::{EventId, Value};
use pdo_snap::{Codec, SnapReader, SnapWriter, SnapshotError};
use std::cmp::Ordering;
use std::collections::VecDeque;
use wheel::{Node, TimerWheel};

/// Causal-trace context riding a queued event: the parent span that
/// enqueued it plus the virtual time of enqueue, so the dispatch span
/// can attribute its queue wait (DESIGN.md §16). Diagnostic only —
/// excluded from [`Pending`]/[`TimerEntry`] equality and from the
/// durable snapshot encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedTrace {
    /// The trace and parent span of the raise that enqueued the event.
    pub ctx: TraceCtx,
    /// Virtual time the event was enqueued, nanoseconds.
    pub enqueued_ns: u64,
}

/// A monotonically advancing virtual clock in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ns: u64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(self) -> u64 {
        self.now_ns
    }

    /// Advances to `t` (saturating: never moves backwards).
    pub fn advance_to(&mut self, t: u64) {
        self.now_ns = self.now_ns.max(t);
    }

    /// Advances by `delta` nanoseconds.
    pub fn advance_by(&mut self, delta: u64) {
        self.now_ns = self.now_ns.saturating_add(delta);
    }
}

/// An event waiting in the asynchronous queue.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The event to dispatch.
    pub event: EventId,
    /// Its arguments.
    pub args: Vec<Value>,
    /// Causal-trace context of the enqueuing raise, if tracing.
    pub trace: Option<QueuedTrace>,
}

// `trace` is an in-memory diagnostic rider: it is not encoded, so traces
// do not survive a snapshot/restore cycle.
pdo_snap::codec_struct!(Pending { event, args } skip { trace });

// Equality is logical state only: the trace context is a diagnostic
// rider and must not make two otherwise-identical schedulers diverge
// (the chaos oracle compares reference vs optimized runtimes whose
// span ids differ).
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.event == other.event && self.args == other.args
    }
}

/// A timed event waiting for its deadline.
#[derive(Debug, Clone)]
pub struct TimerEntry {
    /// Virtual deadline (ns).
    pub deadline_ns: u64,
    /// Tie-break: insertion sequence (FIFO among equal deadlines).
    pub seq: u64,
    /// The event to dispatch.
    pub event: EventId,
    /// Its arguments.
    pub args: Vec<Value>,
    /// Causal-trace context of the scheduling raise, if tracing.
    pub trace: Option<QueuedTrace>,
}

pdo_snap::codec_struct!(TimerEntry { deadline_ns, seq, event, args } skip { trace });

// Same contract as [`Pending`]: trace context is excluded.
impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ns == other.deadline_ns
            && self.seq == other.seq
            && self.event == other.event
            && self.args == other.args
    }
}

impl Eq for TimerEntry {}

// A scheduler holding 100 000 timers keeps one of these per timer (a wheel
// node is its fields plus a link in its padding), so an entry stays a few
// words: its arguments live behind the `Vec` (recycled by the scheduler,
// below), not inline — eight inline 24-byte values would make every entry
// ~250 bytes.
const _: () = assert!(std::mem::size_of::<TimerEntry>() <= 80);
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: the greatest entry is the one that pops first,
        // the earliest deadline, then the lowest seq.
        other
            .deadline_ns
            .cmp(&self.deadline_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// How many emptied argument lists a scheduler keeps for its next raises.
/// A dispatch hands one back and the handlers it runs take a few, so a
/// steady session finds one waiting with far fewer than this; the bound is
/// only what an idle scheduler may retain after a burst (sixteen empty
/// buffers of a few values each), which is why it is a constant and not a
/// setting.
const SPARE_ARG_LISTS: usize = 16;

/// FIFO queue plus timer wheel.
///
/// Timers pop earliest deadline first and, among equal deadlines, in
/// arming order. They live in a hierarchical timing wheel anchored at the
/// last popped deadline (module `wheel`): arming is O(1), and popping re-links a
/// timer at most once per level on its way down. The wheel is allocated
/// with the first armed timer, so a scheduler that never arms one holds
/// none of it.
///
/// A scheduler is its own snapshot: it encodes as the FIFO front first,
/// every timer in pop order (earliest deadline, then lowest insertion
/// sequence), and the sequence counter, whose value keeps FIFO
/// tie-breaking among equal deadlines stable across a snapshot/restore
/// cycle. Its recycled argument lists are neither encoded nor cloned.
#[derive(Debug, Default)]
pub struct Scheduler {
    queue: VecDeque<Pending>,
    timers: Option<Box<TimerWheel>>,
    seq: u64,
    /// Argument lists of dispatched entries, emptied, awaiting reuse.
    spare_args: Vec<Vec<Value>>,
}

impl Clone for Scheduler {
    fn clone(&self) -> Self {
        Scheduler {
            queue: self.queue.clone(),
            timers: self
                .timers
                .as_ref()
                .filter(|timers| timers.len() > 0)
                .cloned(),
            seq: self.seq,
            spare_args: Vec::new(),
        }
    }
}

/// Logical state only, as [`Pending`] and [`TimerEntry`]: the timers are
/// compared in pop order, whatever the wheel's layout.
impl PartialEq for Scheduler {
    fn eq(&self, other: &Self) -> bool {
        self.queue == other.queue
            && self.seq == other.seq
            && self.timers_in_pop_order() == other.timers_in_pop_order()
    }
}

// Hand-written because decoding checks across fields: the timers must be
// strictly in pop order (the one order `put` writes) and the sequence
// counter past every timer's, or the next `push_timed` could reuse a
// `(deadline, seq)` and the FIFO tie-break would be undefined.
impl Codec for Scheduler {
    fn put(&self, w: &mut SnapWriter) {
        w.len_prefix(self.queue.len());
        for pending in &self.queue {
            pending.put(w);
        }
        let timers = self.timers_in_pop_order();
        w.len_prefix(timers.len());
        for node in timers {
            node.put(w);
        }
        self.seq.put(w);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let queue = Vec::<Pending>::take(r)?;
        let timers = Vec::<TimerEntry>::take(r)?;
        let seq = u64::take(r)?;
        if timers
            .windows(2)
            .any(|pair| (pair[0].deadline_ns, pair[0].seq) >= (pair[1].deadline_ns, pair[1].seq))
        {
            return Err(SnapshotError::Malformed(
                "timers are not strictly in pop order".into(),
            ));
        }
        if timers.iter().any(|t| t.seq >= seq) {
            return Err(SnapshotError::Malformed(
                "sequence counter is not past every timer's".into(),
            ));
        }
        let mut wheel = None;
        for timer in timers {
            wheel.get_or_insert_with(TimerWheel::boxed).push(timer);
        }
        Ok(Scheduler {
            queue: queue.into(),
            timers: wheel,
            seq,
            spare_args: Vec::new(),
        })
    }
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an asynchronous event.
    pub fn push_async(&mut self, event: EventId, args: Vec<Value>) {
        self.push_async_traced(event, args, None);
    }

    /// Enqueues an asynchronous event carrying a causal-trace context.
    pub fn push_async_traced(
        &mut self,
        event: EventId,
        args: Vec<Value>,
        trace: Option<QueuedTrace>,
    ) {
        self.queue.push_back(Pending { event, args, trace });
    }

    /// Schedules a timed event `delay_ns` after `now_ns`.
    pub fn push_timed(&mut self, now_ns: u64, delay_ns: u64, event: EventId, args: Vec<Value>) {
        self.push_timed_traced(now_ns, delay_ns, event, args, None);
    }

    /// Schedules a timed event carrying a causal-trace context.
    pub fn push_timed_traced(
        &mut self,
        now_ns: u64,
        delay_ns: u64,
        event: EventId,
        args: Vec<Value>,
        trace: Option<QueuedTrace>,
    ) {
        let seq = self.seq;
        self.seq += 1;
        let timers = self.timers.get_or_insert_with(TimerWheel::boxed);
        timers.push(TimerEntry {
            deadline_ns: now_ns.saturating_add(delay_ns),
            seq,
            event,
            args,
            trace,
        });
    }

    /// An owned copy of `args` for an entry about to be queued, built in a
    /// recycled list when one is waiting. An empty list owns no heap block
    /// and never touches the pool.
    pub(crate) fn args_from(&mut self, args: &[Value]) -> Vec<Value> {
        if args.is_empty() {
            return Vec::new();
        }
        let mut list = self.spare_args.pop().unwrap_or_default();
        list.extend_from_slice(args);
        list
    }

    /// Takes back the argument list of a popped entry once its dispatch has
    /// returned. The list is emptied first, so no [`Value`] outlives the
    /// dispatch it was an argument of.
    pub(crate) fn recycle_args(&mut self, mut args: Vec<Value>) {
        args.clear();
        if args.capacity() > 0 && self.spare_args.len() < SPARE_ARG_LISTS {
            self.spare_args.push(args);
        }
    }

    /// Removes every scheduled timer for `event` (Cactus's "canceling a
    /// delayed event"). Returns how many were cancelled; the survivors
    /// keep their order.
    pub fn cancel_timers(&mut self, event: EventId) -> usize {
        self.timers
            .as_mut()
            .map_or(0, |timers| timers.cancel(event))
    }

    /// Next queued asynchronous event, if any.
    pub fn pop_async(&mut self) -> Option<Pending> {
        self.queue.pop_front()
    }

    /// Pops the earliest timer whose deadline is `<= now_ns`.
    pub fn pop_due_timer(&mut self, now_ns: u64) -> Option<TimerEntry> {
        self.timers.as_mut()?.pop_due(now_ns)
    }

    /// The earliest timer deadline, if any timer is scheduled.
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.as_ref()?.next_deadline()
    }

    /// True when no work is queued or scheduled.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.timer_len() == 0
    }

    /// Queued (async) event count.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Scheduled (timed) event count.
    pub fn timer_len(&self) -> usize {
        self.timers.as_ref().map_or(0, |timers| timers.len())
    }

    /// Every scheduled timer, in the order they would pop.
    fn timers_in_pop_order(&self) -> Vec<&Node> {
        self.timers
            .as_ref()
            .map_or_else(Vec::new, |timers| timers.in_pop_order())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut c = VirtualClock::new();
        c.advance_to(100);
        c.advance_to(50);
        assert_eq!(c.now_ns(), 100);
        c.advance_by(10);
        assert_eq!(c.now_ns(), 110);
    }

    #[test]
    fn async_queue_is_fifo() {
        let mut s = Scheduler::new();
        s.push_async(EventId(1), vec![]);
        s.push_async(EventId(2), vec![]);
        assert_eq!(s.pop_async().unwrap().event, EventId(1));
        assert_eq!(s.pop_async().unwrap().event, EventId(2));
        assert!(s.pop_async().is_none());
    }

    #[test]
    fn timers_pop_in_deadline_order() {
        let mut s = Scheduler::new();
        s.push_timed(0, 300, EventId(3), vec![]);
        s.push_timed(0, 100, EventId(1), vec![]);
        s.push_timed(0, 200, EventId(2), vec![]);
        assert_eq!(s.next_deadline(), Some(100));
        assert!(s.pop_due_timer(50).is_none());
        assert_eq!(s.pop_due_timer(100).unwrap().event, EventId(1));
        assert_eq!(s.pop_due_timer(1000).unwrap().event, EventId(2));
        assert_eq!(s.pop_due_timer(1000).unwrap().event, EventId(3));
    }

    #[test]
    fn equal_deadlines_fifo_by_seq() {
        let mut s = Scheduler::new();
        s.push_timed(0, 100, EventId(1), vec![]);
        s.push_timed(0, 100, EventId(2), vec![]);
        assert_eq!(s.pop_due_timer(100).unwrap().event, EventId(1));
        assert_eq!(s.pop_due_timer(100).unwrap().event, EventId(2));
    }

    #[test]
    fn cancel_timers_removes_matching() {
        let mut s = Scheduler::new();
        s.push_timed(0, 100, EventId(1), vec![]);
        s.push_timed(0, 200, EventId(2), vec![]);
        s.push_timed(0, 300, EventId(1), vec![]);
        assert_eq!(s.cancel_timers(EventId(1)), 2);
        assert_eq!(s.timer_len(), 1);
        assert_eq!(s.pop_due_timer(u64::MAX).unwrap().event, EventId(2));
    }

    #[test]
    fn idle_reflects_both_queues() {
        let mut s = Scheduler::new();
        assert!(s.is_idle());
        s.push_async(EventId(0), vec![]);
        assert!(!s.is_idle());
        s.pop_async();
        assert!(s.is_idle());
        s.push_timed(0, 5, EventId(0), vec![]);
        assert!(!s.is_idle());
    }

    #[test]
    fn a_decoded_scheduler_keeps_order_and_tiebreak() {
        let mut s = Scheduler::new();
        s.push_async(EventId(7), vec![Value::Int(1)]);
        s.push_async(EventId(8), vec![]);
        s.push_timed(0, 100, EventId(1), vec![]);
        s.push_timed(0, 100, EventId(2), vec![]);
        s.push_timed(0, 50, EventId(3), vec![]);
        assert_eq!(
            s.timers_in_pop_order()
                .iter()
                .map(|t| t.event)
                .collect::<Vec<_>>(),
            [EventId(3), EventId(1), EventId(2)],
            "timers encode in pop order"
        );
        let mut r: Scheduler = pdo_snap::decode(&pdo_snap::encode(&s)).unwrap();
        assert_eq!(r, s, "round trip is exact");
        assert_eq!(r.seq, 3);
        // The decoded scheduler pops identically and keeps the seq
        // counter, so new timers tie-break after restored ones.
        r.push_timed(0, 100, EventId(9), vec![]);
        assert_eq!(r.pop_async().unwrap().event, EventId(7));
        assert_eq!(r.pop_due_timer(100).unwrap().event, EventId(3));
        assert_eq!(r.pop_due_timer(100).unwrap().event, EventId(1));
        assert_eq!(r.pop_due_timer(100).unwrap().event, EventId(2));
        assert_eq!(r.pop_due_timer(100).unwrap().event, EventId(9));
    }

    #[test]
    fn timed_deadline_saturates() {
        let mut s = Scheduler::new();
        s.push_timed(u64::MAX - 1, 100, EventId(0), vec![]);
        assert_eq!(s.next_deadline(), Some(u64::MAX));
    }

    #[test]
    fn codec_survives_the_hostile_sweep_and_drops_trace_riders() {
        let mut s = Scheduler::new();
        s.push_async(EventId(1), vec![Value::Int(5), Value::str("x")]);
        s.push_async(EventId(2), vec![]);
        s.push_timed(10, 90, EventId(3), vec![Value::bytes(vec![1, 2])]);
        s.push_timed(10, 20, EventId(4), vec![Value::Unit, Value::Bool(true)]);
        pdo_snap::hostile::check(&s);
        pdo_snap::hostile::check(&Scheduler::new());

        // A `Pending` is its event then its args; nothing of `trace`.
        let queued = Pending {
            event: EventId(9),
            args: vec![Value::Int(1)],
            trace: None,
        };
        assert_eq!(
            pdo_snap::encode(&queued),
            pdo_snap::encode(&(EventId(9), vec![Value::Int(1)]))
        );
    }

    /// Decoding accepts only what `put` writes: timers strictly in pop
    /// order, and a sequence counter past every timer's.
    #[test]
    fn non_canonical_timers_and_a_trailing_counter_are_malformed() {
        let timer = |deadline_ns, seq| TimerEntry {
            deadline_ns,
            seq,
            event: EventId(0),
            args: vec![],
            trace: None,
        };
        let decode = |timers: Vec<TimerEntry>, seq: u64| {
            let mut w = SnapWriter::new();
            Vec::<Pending>::new().put(&mut w);
            timers.put(&mut w);
            seq.put(&mut w);
            pdo_snap::decode::<Scheduler>(&w.finish())
        };
        assert!(decode(vec![timer(5, 0), timer(5, 1)], 2).is_ok());
        for (timers, seq) in [
            (vec![timer(5, 1), timer(5, 0)], 2),
            (vec![timer(5, 0), timer(5, 0)], 2),
            (vec![timer(6, 0), timer(5, 1)], 2),
            (vec![timer(5, 0), timer(5, 1)], 1),
        ] {
            assert!(matches!(
                decode(timers, seq),
                Err(SnapshotError::Malformed(_))
            ));
        }
    }

    #[test]
    fn cancel_timers_keeps_survivors_fifo() {
        let mut s = Scheduler::new();
        // Equal deadlines in level 0 and in a slot far above it, armed
        // with the cancelled event interleaved.
        for delay in [7, 1 << 30] {
            for i in 0..6 {
                s.push_timed(0, delay, EventId(i % 2), vec![Value::Int(i.into())]);
            }
        }
        assert_eq!(s.cancel_timers(EventId(1)), 6);
        let mut popped = Vec::new();
        while let Some(t) = s.pop_due_timer(u64::MAX) {
            popped.push((t.deadline_ns, t.args[0].as_int().unwrap()));
        }
        assert_eq!(
            popped,
            [
                (7, 0),
                (7, 2),
                (7, 4),
                (1 << 30, 0),
                (1 << 30, 2),
                (1 << 30, 4)
            ]
        );
    }

    /// The order the wheel must keep, by brute force: a `Vec` sorted by
    /// `(deadline, seq)`, which is what popping the greatest
    /// [`TimerEntry`] under its `Ord` yields.
    #[derive(Default)]
    struct Reference {
        timers: Vec<TimerEntry>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, now_ns: u64, delay_ns: u64, event: EventId, args: Vec<Value>) {
            let timer = TimerEntry {
                deadline_ns: now_ns.saturating_add(delay_ns),
                seq: self.seq,
                event,
                args,
                trace: None,
            };
            self.seq += 1;
            let key = |t: &TimerEntry| (t.deadline_ns, t.seq);
            let at = self.timers.partition_point(|t| key(t) < key(&timer));
            self.timers.insert(at, timer);
        }

        fn pop_due(&mut self, now_ns: u64) -> Option<TimerEntry> {
            let first = self.timers.first()?;
            assert_eq!(self.timers.iter().max(), Some(first), "Ord pops it first");
            (first.deadline_ns <= now_ns).then(|| self.timers.remove(0))
        }

        fn cancel(&mut self, event: EventId) -> usize {
            let before = self.timers.len();
            self.timers.retain(|t| t.event != event);
            before - self.timers.len()
        }
    }

    /// One step of [`the_wheel_pops_what_a_sorted_vec_pops`]: `kind` picks
    /// the operation, `a` and `b` its operands.
    fn differential_step(
        s: &mut Scheduler,
        r: &mut Reference,
        last_pop: &mut u64,
        (kind, a, b): (u8, u64, u64),
    ) -> Result<(), TestCaseError> {
        let event = EventId((a % 4) as u32);
        let args = if a & 4 == 0 {
            Vec::new()
        } else {
            vec![Value::Int(b as i64)]
        };
        let edge = |k: u64, side: u64| {
            (1u64 << (6 * (k % 11)))
                .wrapping_add(side % 3)
                .wrapping_sub(1)
        };
        match kind {
            // Arm, at `(now, delay)` drawn from the shapes that matter.
            0..=4 => {
                let (now, delay) = match a % 8 {
                    // The deadline of a timer already armed.
                    0 if !r.timers.is_empty() => (
                        r.timers[(b % r.timers.len() as u64) as usize].deadline_ns,
                        0,
                    ),
                    // A level edge, 2^(6k) ± 1, past the last pop or absolute.
                    1 => (*last_pop, edge(b, b >> 8)),
                    2 => (0, edge(b, b >> 8)),
                    // Saturating at `u64::MAX`.
                    3 => (u64::MAX - b % 4, b),
                    // Before the anchor, which only a hand-driven scheduler does.
                    4 => (last_pop.saturating_sub(1 + b % 5_000), b % 100),
                    5 => (*last_pop, b % 64),
                    6 => (*last_pop, b % 1_000_000),
                    _ => (*last_pop, b % (1 << 40)),
                };
                s.push_timed(now, delay, event, args.clone());
                r.push(now, delay, event, args);
            }
            // Pop what is due by a time near the last pop, or everything.
            5 | 6 => {
                let now = if b % 16 == 0 {
                    u64::MAX
                } else {
                    last_pop.saturating_add(b % (1 << (b % 40)))
                };
                let (got, want) = (s.pop_due_timer(now), r.pop_due(now));
                if let Some(t) = &want {
                    *last_pop = t.deadline_ns;
                }
                prop_assert_eq!(got, want);
            }
            7 => prop_assert_eq!(s.cancel_timers(event), r.cancel(event)),
            8 => {
                let copy = s.clone();
                prop_assert!(copy == *s);
                *s = copy;
            }
            _ => {
                let bytes = pdo_snap::encode(&*s);
                let layout = (Vec::<Pending>::new(), r.timers.clone(), r.seq);
                prop_assert!(
                    bytes == pdo_snap::encode(&layout),
                    "timers encode in pop order"
                );
                let decoded: Scheduler = pdo_snap::decode(&bytes).unwrap();
                prop_assert!(decoded == *s);
                *s = decoded;
            }
        }
        // Peek after every step.
        prop_assert_eq!(s.timer_len(), r.timers.len());
        prop_assert_eq!(s.next_deadline(), r.timers.first().map(|t| t.deadline_ns));
        prop_assert_eq!(s.is_idle(), r.timers.is_empty());
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The wheel against the order it replaced, over random arms,
        /// pops, peeks, cancels, clones and snapshot round trips, then a
        /// full drain.
        #[test]
        fn the_wheel_pops_what_a_sorted_vec_pops(
            steps in prop::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..160)
        ) {
            let (mut s, mut r, mut last_pop) = (Scheduler::new(), Reference::default(), 0);
            for step in steps {
                differential_step(&mut s, &mut r, &mut last_pop, step)?;
            }
            loop {
                let (got, want) = (s.pop_due_timer(u64::MAX), r.pop_due(u64::MAX));
                prop_assert_eq!(&got, &want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
