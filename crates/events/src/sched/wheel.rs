//! The timer wheel behind [`Scheduler`](super::Scheduler): a hierarchical
//! timing wheel (Varghese & Lauck, SOSP '87) over the `u64` deadline.
//!
//! Level `l` resolves bits `6l .. 6l + 6` of a deadline in 64 slots, and
//! eleven levels cover all 64 bits. The wheel is *anchored* at the last
//! deadline it popped: a timer sits at the highest level whose 6-bit group
//! of its deadline differs from the anchor's, in the slot that group
//! names. So every timer of a level is earlier than every timer above it,
//! the slots of a level are in deadline order, and a level-0 slot holds one
//! deadline. Arming links a node in O(1). Popping takes the lowest
//! occupied slot; above level 0, unless the slot holds only the timer
//! being popped, it first re-links that slot's timers against the
//! deadline being popped, which sends each one at least a level down, so
//! a timer is re-linked at most once per level. The earliest deadline is
//! kept, so peeking is a load; the one scan is of the lowest slot left
//! when a pop empties a slot.
//!
//! Order among equal deadlines is arming order: a slot is a FIFO list, and
//! a slot is only emptied into levels that are empty at that moment.
//!
//! Why the last pop: the runtime arms a timer at its clock plus a delay,
//! and its clock never runs behind the last deadline it fired, so every
//! arm lands at or after the anchor. An arm before it (from a caller
//! driving a scheduler by hand, or a runtime handed a scheduler whose last
//! pop is ahead of its clock) re-anchors the wheel at the new deadline,
//! re-linking every timer: O(timers), and exact.
//!
//! Why one `u32` per slot: a slot is the tail of a circular list whose
//! tail links to its head, which is all that appending and popping the
//! front need. The 704 slots and 11 occupancy words take 2.9 KB, boxed
//! with the first arm, and the nodes are one slab with a free list, so a
//! steady population allocates nothing.

use super::{QueuedTrace, TimerEntry};
use pdo_ir::{EventId, Value};
use pdo_snap::{Codec, SnapWriter};

/// Deadline bits one level resolves.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels over a `u64` deadline; the top one uses 16 of its slots.
const LEVELS: usize = u64::BITS.div_ceil(BITS) as usize;
/// An empty slot, or the end of the free list.
const NIL: u32 = u32::MAX;

/// One armed timer: a [`TimerEntry`]'s fields and its list link, flat, so
/// the link takes the entry's padding.
#[derive(Debug, Clone)]
pub(super) struct Node {
    deadline_ns: u64,
    seq: u64,
    pub(super) event: EventId,
    /// The next node of its slot's list, or of the free list.
    next: u32,
    args: Vec<Value>,
    trace: Option<QueuedTrace>,
}

// The wheel stores one node per armed timer: no bigger than a `TimerEntry`,
// so 100 000 timers take 8 MB of nodes.
const _: () = assert!(std::mem::size_of::<Node>() <= 80);

/// Logical state only, as [`TimerEntry`]: the link and the trace context
/// are excluded.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ns == other.deadline_ns
            && self.seq == other.seq
            && self.event == other.event
            && self.args == other.args
    }
}

impl Node {
    /// Writes the bytes of the [`TimerEntry`] this node holds.
    pub(super) fn put(&self, w: &mut SnapWriter) {
        self.deadline_ns.put(w);
        self.seq.put(w);
        self.event.put(w);
        self.args.put(w);
    }
}

/// The armed timers, popped earliest deadline first, then lowest sequence.
#[derive(Clone)]
pub(super) struct TimerWheel {
    /// Every node ever allocated; the free ones are chained from `free`.
    nodes: Vec<Node>,
    free: u32,
    len: u32,
    /// The last popped deadline (0 before the first), or the earlier one an
    /// arm re-anchored the wheel at: no timer is earlier.
    anchor: u64,
    /// The earliest armed deadline, while `len > 0`.
    next: u64,
    /// Bit `s` of word `l`: slot `s` of level `l` holds a timer.
    occupied: [u64; LEVELS],
    /// The tail of each slot's circular list, or [`NIL`].
    tails: [u32; LEVELS * SLOTS],
}

impl TimerWheel {
    /// An empty wheel anchored at time zero, boxed. Out of line, so the
    /// callers that arm a timer keep a small frame.
    #[cold]
    #[inline(never)]
    pub(super) fn boxed() -> Box<Self> {
        Box::new(TimerWheel {
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            anchor: 0,
            next: 0,
            occupied: [0; LEVELS],
            tails: [NIL; LEVELS * SLOTS],
        })
    }

    /// Armed timers.
    pub(super) fn len(&self) -> usize {
        self.len as usize
    }

    /// The earliest deadline, if a timer is armed.
    pub(super) fn next_deadline(&self) -> Option<u64> {
        (self.len > 0).then_some(self.next)
    }

    /// Arms `entry`, keeping its sequence number.
    #[inline]
    pub(super) fn push(&mut self, entry: TimerEntry) {
        let TimerEntry {
            deadline_ns,
            seq,
            event,
            args,
            trace,
        } = entry;
        if deadline_ns < self.anchor {
            self.reanchor(deadline_ns);
        }
        if self.len == 0 || deadline_ns < self.next {
            self.next = deadline_ns;
        }
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 timers are armed at once");
            self.nodes.push(Node {
                deadline_ns,
                seq,
                event,
                next: NIL,
                args,
                trace,
            });
            i
        } else {
            let i = self.free;
            let node = &mut self.nodes[i as usize];
            self.free = node.next;
            node.deadline_ns = deadline_ns;
            node.seq = seq;
            node.event = event;
            node.args = args;
            node.trace = trace;
            i
        };
        self.len += 1;
        self.link(i, deadline_ns);
    }

    /// Pops the earliest timer if its deadline is `<= now_ns`.
    pub(super) fn pop_due(&mut self, now_ns: u64) -> Option<TimerEntry> {
        if self.len == 0 || self.next > now_ns {
            return None;
        }
        let deadline_ns = self.next;
        let mut slot = self.slot_of(deadline_ns);
        self.anchor = deadline_ns;
        let tail = self.tails[slot];
        if slot >= SLOTS && self.nodes[tail as usize].next != tail {
            // The lowest occupied slot is above level 0 and holds more than
            // the timer being popped, and every level below it is empty:
            // re-linked against the new anchor, its timers keep their
            // order and `deadline_ns`'s land in level 0.
            let tail = self.detach(slot);
            self.relink(tail, |_| true);
            slot = (deadline_ns % SLOTS as u64) as usize;
        }
        let tail = self.tails[slot];
        let head = self.nodes[tail as usize].next;
        if head == tail {
            self.detach(slot);
        } else {
            self.nodes[tail as usize].next = self.nodes[head as usize].next;
        }
        self.len -= 1;
        if self.len > 0 && head == tail {
            self.next = self.earliest();
        }
        let node = &mut self.nodes[head as usize];
        node.next = self.free;
        self.free = head;
        Some(TimerEntry {
            deadline_ns,
            seq: node.seq,
            event: node.event,
            args: std::mem::take(&mut node.args),
            trace: node.trace,
        })
    }

    /// Removes every timer for `event`, the others keeping their order.
    /// Returns how many were removed.
    pub(super) fn cancel(&mut self, event: EventId) -> usize {
        let mut cancelled = 0;
        for slot in occupied_slots(self.occupied) {
            let tail = self.detach(slot);
            cancelled += self.relink(tail, |node| node.event != event);
        }
        self.len -= cancelled as u32;
        if self.len > 0 {
            self.next = self.earliest();
        }
        cancelled
    }

    /// Every armed timer, in the order they would pop.
    pub(super) fn in_pop_order(&self) -> Vec<&Node> {
        let mut order = Vec::with_capacity(self.len());
        for slot in occupied_slots(self.occupied) {
            let start = order.len();
            order.extend(self.list(slot));
            // A level-0 slot holds one deadline in arming order; a slot
            // above it holds a range of deadlines.
            if slot >= SLOTS {
                order[start..].sort_unstable_by_key(|node| (node.deadline_ns, node.seq));
            }
        }
        order
    }

    /// Where a timer due at `deadline_ns` belongs, as a slot index into
    /// [`TimerWheel::tails`]: level-major.
    fn slot_of(&self, deadline_ns: u64) -> usize {
        let highest_differing_bit =
            u64::BITS - 1 - ((deadline_ns ^ self.anchor) | 1).leading_zeros();
        let level = highest_differing_bit / BITS;
        level as usize * SLOTS + (deadline_ns >> (level * BITS)) as usize % SLOTS
    }

    /// Appends node `i`, due at `deadline_ns`, to the list of the slot
    /// that deadline belongs in.
    fn link(&mut self, i: u32, deadline_ns: u64) {
        let slot = self.slot_of(deadline_ns);
        let tail = self.tails[slot];
        if tail == NIL {
            self.nodes[i as usize].next = i;
            self.occupied[slot / SLOTS] |= 1 << (slot % SLOTS);
        } else {
            self.nodes[i as usize].next = self.nodes[tail as usize].next;
            self.nodes[tail as usize].next = i;
        }
        self.tails[slot] = i;
    }

    /// Empties `slot`, returning the tail of the list it held.
    fn detach(&mut self, slot: usize) -> u32 {
        self.occupied[slot / SLOTS] &= !(1 << (slot % SLOTS));
        std::mem::replace(&mut self.tails[slot], NIL)
    }

    /// Links every node of the detached list ending at `tail` again, in
    /// list order, and frees those `keep` refuses. Returns how many were
    /// freed.
    fn relink(&mut self, tail: u32, mut keep: impl FnMut(&Node) -> bool) -> usize {
        let mut freed = 0;
        let mut i = self.nodes[tail as usize].next;
        loop {
            let next = self.nodes[i as usize].next;
            if keep(&self.nodes[i as usize]) {
                self.link(i, self.nodes[i as usize].deadline_ns);
            } else {
                let node = &mut self.nodes[i as usize];
                node.args = Vec::new();
                node.next = self.free;
                self.free = i;
                freed += 1;
            }
            if i == tail {
                return freed;
            }
            i = next;
        }
    }

    /// Moves the anchor back to `anchor`, before every armed timer.
    #[cold]
    #[inline(never)]
    fn reanchor(&mut self, anchor: u64) {
        let tails: Vec<u32> = occupied_slots(self.occupied)
            .map(|slot| self.detach(slot))
            .collect();
        self.anchor = anchor;
        for tail in tails {
            self.relink(tail, |_| true);
        }
    }

    /// The earliest armed deadline; a timer must be armed.
    fn earliest(&self) -> u64 {
        let slot = occupied_slots(self.occupied)
            .next()
            .expect("a timer is armed");
        if slot < SLOTS {
            return self.anchor & !(SLOTS as u64 - 1) | slot as u64;
        }
        self.list(slot)
            .map(|node| node.deadline_ns)
            .min()
            .expect("an occupied slot holds a timer")
    }

    /// The nodes of `slot`'s list, head first.
    fn list(&self, slot: usize) -> impl Iterator<Item = &Node> {
        let tail = self.tails[slot];
        let mut i = if tail == NIL {
            NIL
        } else {
            self.nodes[tail as usize].next
        };
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let node = &self.nodes[i as usize];
            i = if i == tail { NIL } else { node.next };
            Some(node)
        })
    }
}

/// The timers in pop order, not the 704 slots that hold them.
impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.in_pop_order()).finish()
    }
}

/// The occupied slots of `occupied`, level-major: in deadline order.
fn occupied_slots(occupied: [u64; LEVELS]) -> impl Iterator<Item = usize> {
    occupied.into_iter().enumerate().flat_map(|(level, bits)| {
        std::iter::successors((bits != 0).then_some(bits), |&bits| {
            let rest = bits & (bits - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| level * SLOTS + bits.trailing_zeros() as usize)
    })
}
