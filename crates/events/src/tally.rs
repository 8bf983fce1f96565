//! The profile's counts, kept where raises and dispatches happen.
//!
//! The paper's profiler counts at the framework's raise and dispatch
//! sites (§3.1). [`ProfileTally`] is that count: the runtime updates it in
//! place at each raise, dispatch bracket and handler entry, and the
//! adaptive engine merges and clears it once per epoch. Its memory grows
//! with the distinct keys it has seen — edges, handler sequences, nested
//! raises — never with the number of events, so no window has to be
//! capped and no record is read back.
//!
//! The same buffer counts what the engine's quarantine and chain cache
//! need per epoch: each event's faults, guard misses and despecializations.
//! Those are rare, so they are counted without a hint.
//!
//! A recorded [`crate::Trace`] replays into the same tally
//! ([`ProfileTally::replay`]), which is how an offline profile is built:
//! one counting code for both.

use crate::trace::TraceRecord;
use pdo_ir::{EventId, FuncId, RaiseMode};

/// What one count is of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    /// `to` was raised, in `mode`, right after `from`.
    Edge {
        from: EventId,
        to: EventId,
        mode: RaiseMode,
    },
    /// A dispatch of `event` ran `ProfileTally::handlers[start..start + len]`.
    Sequence {
        event: EventId,
        start: u32,
        len: u32,
    },
    /// `handler`, running for `parent`, raised `child` synchronously.
    Nested {
        parent: EventId,
        handler: FuncId,
        child: EventId,
    },
    /// A fault of `event` (injected, or a contained organic trap).
    Fault(EventId),
    /// A rebind invalidated `event`'s installed chain.
    GuardMiss(EventId),
    /// Containment removed `event`'s chain.
    Despecialized(EventId),
}

#[derive(Debug, Clone, Copy)]
struct Count {
    key: Key,
    n: u64,
}

/// The innermost open dispatch. The bracket keeps the one it displaced
/// and hands it back at [`ProfileTally::dispatch_end`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenDispatch {
    event: EventId,
    /// Nesting depth it was opened at.
    depth: u32,
    /// Where its handlers start, counted from the end of the pooled
    /// sequences (which grow while it is open).
    start: usize,
}

/// Hint slots per kind of key.
const HINTS: usize = 64;

/// Room the two buffers take at their first use: enough for a session's
/// usual window, so they grow once rather than step by step.
const FIRST_ROOM: usize = 32;

/// What one window of execution showed the profiler: raises, the edges
/// between consecutive raises, each dispatch's handler sequence and the
/// synchronous raises made inside handlers — and, per event, the faults,
/// guard misses and despecializations the engine acts on.
///
/// Two buffers hold it all: the distinct keys with their counts, in the
/// order each was first counted, and the handler ids of the distinct
/// sequences and of the open dispatches.
#[derive(Debug, Clone)]
pub struct ProfileTally {
    raises: u64,
    first: Option<(EventId, RaiseMode)>,
    last: Option<EventId>,
    counts: Vec<Count>,
    /// The distinct sequences' handlers back to back (`..pooled`), then
    /// the open dispatches' (`pooled..`), innermost last.
    handlers: Vec<FuncId>,
    pooled: usize,
    open: Option<OpenDispatch>,
    /// Where the count of an edge was last found, by [`edge_slot`], and
    /// of an event's sequence, by the event's low bits: index + 1, or 0.
    /// A hit costs one compare instead of a scan whose exit the branch
    /// predictor cannot guess.
    edge_hint: [u32; HINTS],
    sequence_hint: [u32; HINTS],
}

/// `(from, to)`'s hint slot: distinct for every pair of the first eight
/// events.
#[inline]
fn edge_slot(from: EventId, to: EventId) -> usize {
    (from.0 as usize * 8 + to.0 as usize) % HINTS
}

impl Default for ProfileTally {
    fn default() -> Self {
        ProfileTally {
            raises: 0,
            first: None,
            last: None,
            counts: Vec::new(),
            handlers: Vec::new(),
            pooled: 0,
            open: None,
            edge_hint: [0; HINTS],
            sequence_hint: [0; HINTS],
        }
    }
}

impl ProfileTally {
    /// An empty tally.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// One raise of `event`.
    #[inline]
    pub(crate) fn raise(&mut self, event: EventId, mode: RaiseMode) {
        self.raises += 1;
        match self.last.replace(event) {
            Some(from) => {
                let slot = edge_slot(from, event);
                let key = Key::Edge {
                    from,
                    to: event,
                    mode,
                };
                let hinted = self.edge_hint[slot];
                self.edge_hint[slot] = self.count(hinted, key);
            }
            None => self.first = Some((event, mode)),
        }
        if mode == RaiseMode::Sync {
            if let Some(open) = self.open {
                // Raises happen inside handlers, so a dispatch that has
                // entered one is running its last.
                if self.handlers.len() > self.pooled + open.start {
                    let key = Key::Nested {
                        parent: open.event,
                        handler: self.handlers[self.handlers.len() - 1],
                        child: event,
                    };
                    self.count(0, key);
                }
            }
        }
    }

    /// Adds one to `key`'s count, looking at the hinted entry first, and
    /// returns the hint for where it is.
    #[inline]
    fn count(&mut self, hint: u32, key: Key) -> u32 {
        let hinted = (hint as usize).wrapping_sub(1);
        match self.counts.get_mut(hinted) {
            Some(c) if c.key == key => {
                c.n += 1;
                hint
            }
            _ => self.count_unhinted(key),
        }
    }

    /// Adds one to `key`'s count, found by a scan; returns its hint.
    #[cold]
    pub(crate) fn count_unhinted(&mut self, key: Key) -> u32 {
        let i = match self.counts.iter().position(|c| c.key == key) {
            Some(i) => {
                self.counts[i].n += 1;
                i
            }
            None => {
                if self.counts.capacity() == 0 {
                    self.counts.reserve(FIRST_ROOM);
                }
                self.counts.push(Count { key, n: 1 });
                self.counts.len() - 1
            }
        };
        u32::try_from(i + 1).unwrap_or(0)
    }

    /// Opens a dispatch of `event` at nesting `depth`; returns the open
    /// dispatch it displaces, for [`ProfileTally::dispatch_end`]. A
    /// dispatch opened at the depth of the innermost open one is not
    /// nested in its handlers: that one is over (a generic re-dispatch
    /// after its fast lane trapped), so its sequence closes here.
    #[inline]
    pub(crate) fn dispatch_begin(&mut self, event: EventId, depth: u32) -> Option<OpenDispatch> {
        if let Some(open) = self.open.filter(|o| o.depth == depth) {
            self.close(open);
        }
        self.open.replace(OpenDispatch {
            event,
            depth,
            start: self.handlers.len() - self.pooled,
        })
    }

    /// A handler of the innermost open dispatch is about to run.
    #[inline]
    pub(crate) fn handler_enter(&mut self, handler: FuncId) {
        if self.handlers.capacity() == 0 {
            self.handlers.reserve(FIRST_ROOM);
        }
        self.handlers.push(handler);
    }

    /// Closes the innermost open dispatch and reinstates `displaced`.
    #[inline]
    pub(crate) fn dispatch_end(&mut self, displaced: Option<OpenDispatch>) {
        if let Some(open) = std::mem::replace(&mut self.open, displaced) {
            self.close(open);
        }
    }

    /// Counts `open`'s handler sequence, if it ran any, and drops its
    /// handlers from the open region.
    #[inline]
    fn close(&mut self, open: OpenDispatch) {
        let from = self.pooled + open.start;
        let len = self.handlers.len() - from;
        if len == 0 {
            return;
        }
        let slot = open.event.0 as usize % HINTS;
        let (pool, ran) = self.handlers.split_at(from);
        let matches = |c: &Count| match c.key {
            Key::Sequence { event, start, len } => {
                event == open.event && pool[start as usize..(start + len) as usize] == *ran
            }
            _ => false,
        };
        let hinted = (self.sequence_hint[slot] as usize).wrapping_sub(1);
        let found = match self.counts.get(hinted) {
            Some(c) if matches(c) => Some(hinted),
            _ => self.counts.iter().position(matches),
        };
        let hint = match found {
            Some(i) => {
                self.counts[i].n += 1;
                self.handlers.truncate(from);
                u32::try_from(i + 1).unwrap_or(0)
            }
            None => {
                // New: move it to the pool's end, past the handlers of the
                // dispatches still open (their starts count from there).
                self.handlers[self.pooled..].rotate_right(len);
                let key = Key::Sequence {
                    event: open.event,
                    start: self.pooled as u32,
                    len: len as u32,
                };
                self.pooled += len;
                self.count_unhinted(key)
            }
        };
        self.sequence_hint[slot] = hint;
    }

    /// Forgets every count, keeping the buffers. Open dispatches (there
    /// are none between dispatches, where the engine drains) stay open.
    pub(crate) fn clear(&mut self) {
        self.raises = 0;
        self.first = None;
        self.last = None;
        self.counts.clear();
        self.handlers.drain(..self.pooled);
        self.pooled = 0;
        self.edge_hint = [0; HINTS];
        self.sequence_hint = [0; HINTS];
    }

    /// Raises counted.
    pub fn raises(&self) -> u64 {
        self.raises
    }

    /// The first raise counted, with its mode: the window's edge from the
    /// raise before it is the merger's to add.
    pub fn first(&self) -> Option<(EventId, RaiseMode)> {
        self.first
    }

    /// The last raise counted.
    pub fn last(&self) -> Option<EventId> {
        self.last
    }

    /// `(from, to, mode, n)`: `to` was raised in `mode` right after
    /// `from` `n` times in the window. A raise's occurrences are its
    /// in-edges, plus one if it was the first.
    pub fn edges(&self) -> impl Iterator<Item = (EventId, EventId, RaiseMode, u64)> + '_ {
        self.counts.iter().filter_map(|c| match c.key {
            Key::Edge { from, to, mode } => Some((from, to, mode, c.n)),
            _ => None,
        })
    }

    /// `(event, handlers, n)`: `n` dispatches of `event` ran exactly
    /// `handlers`; in the order each first closed. A dispatch that ran no
    /// handler is not counted.
    pub fn sequences(&self) -> impl Iterator<Item = (EventId, &[FuncId], u64)> {
        self.counts.iter().filter_map(|c| match c.key {
            Key::Sequence { event, start, len } => Some((
                event,
                &self.handlers[start as usize..(start + len) as usize],
                c.n,
            )),
            _ => None,
        })
    }

    /// `(parent, handler, child, n)`: `handler`, running for `parent`,
    /// raised `child` synchronously `n` times. `handler` is the function
    /// the dispatch ran, a super-handler included.
    pub fn nested(&self) -> impl Iterator<Item = (EventId, FuncId, EventId, u64)> + '_ {
        self.counts.iter().filter_map(|c| match c.key {
            Key::Nested {
                parent,
                handler,
                child,
            } => Some((parent, handler, child, c.n)),
            _ => None,
        })
    }

    /// `(event, n)`: `event` faulted `n` times, injected or as a contained
    /// organic trap; in the order each first faulted.
    pub fn faults(&self) -> impl Iterator<Item = (EventId, u64)> + '_ {
        self.counts.iter().filter_map(|c| match c.key {
            Key::Fault(event) => Some((event, c.n)),
            _ => None,
        })
    }

    /// `(event, n)`: `n` rebinds invalidated `event`'s installed chain, each
    /// counted once, by the first dispatch to find its guards refuted.
    pub fn guard_misses(&self) -> impl Iterator<Item = (EventId, u64)> + '_ {
        self.counts.iter().filter_map(|c| match c.key {
            Key::GuardMiss(event) => Some((event, c.n)),
            _ => None,
        })
    }

    /// `(event, n)`: containment removed `event`'s chain `n` times.
    pub fn despecialized(&self) -> impl Iterator<Item = (EventId, u64)> + '_ {
        self.counts.iter().filter_map(|c| match c.key {
            Key::Despecialized(event) => Some((event, c.n)),
            _ => None,
        })
    }

    /// Counts a recorded trace. The records carry no dispatch brackets,
    /// so they are inferred: dispatch ids grow with time and the handlers
    /// of one dispatch all enter at the same frame depth, so a handler
    /// entering at the depth of the innermost open dispatch under another
    /// id — or at a shallower depth — means that dispatch is over, and so
    /// does a raise at its depth or shallower.
    pub fn replay(records: &[TraceRecord]) -> ProfileTally {
        let mut tally = ProfileTally::new();
        let mut frames = 0u32;
        // Open dispatches: id, frame depth, what their bracket displaced.
        let mut open: Vec<(u64, u32, Option<OpenDispatch>)> = Vec::new();
        for record in records {
            match *record {
                TraceRecord::Raise { event, mode, .. } => {
                    while open.last().is_some_and(|&(_, depth, _)| depth >= frames) {
                        let (_, _, displaced) = open.pop().expect("checked");
                        tally.dispatch_end(displaced);
                    }
                    tally.raise(event, mode);
                }
                TraceRecord::HandlerEnter {
                    event,
                    handler,
                    dispatch,
                    ..
                } => {
                    while let Some(&(id, depth, displaced)) = open.last() {
                        if depth < frames || (depth == frames && id == dispatch) {
                            break;
                        }
                        open.pop();
                        tally.dispatch_end(displaced);
                    }
                    if open.last().is_none_or(|&(_, depth, _)| depth < frames) {
                        open.push((dispatch, frames, tally.dispatch_begin(event, frames)));
                    }
                    tally.handler_enter(handler);
                    frames += 1;
                }
                TraceRecord::HandlerExit { .. } => frames = frames.saturating_sub(1),
                TraceRecord::Fault { .. } => {}
            }
        }
        while let Some((_, _, displaced)) = open.pop() {
            tally.dispatch_end(displaced);
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(t: &ProfileTally) -> Vec<(u32, Vec<u32>, u64)> {
        t.sequences()
            .map(|(e, hs, n)| (e.0, hs.iter().map(|h| h.0).collect(), n))
            .collect()
    }

    #[test]
    fn nested_dispatch_closes_first_and_a_new_sequence_moves_under_its_parent() {
        let mut t = ProfileTally::new();
        t.raise(EventId(0), RaiseMode::Sync);
        let outer = t.dispatch_begin(EventId(0), 1);
        t.handler_enter(FuncId(1));
        t.raise(EventId(1), RaiseMode::Sync);
        let inner = t.dispatch_begin(EventId(1), 2);
        t.handler_enter(FuncId(4));
        t.dispatch_end(inner);
        t.handler_enter(FuncId(2));
        t.dispatch_end(outer);
        assert_eq!(seqs(&t), vec![(1, vec![4], 1), (0, vec![1, 2], 1)]);
        assert_eq!(
            t.nested().collect::<Vec<_>>(),
            vec![(EventId(0), FuncId(1), EventId(1), 1)]
        );
        assert_eq!(t.raises(), 2);
        assert_eq!(t.first(), Some((EventId(0), RaiseMode::Sync)));
        assert_eq!(t.last(), Some(EventId(1)));
    }

    #[test]
    fn a_redispatch_at_the_same_depth_closes_the_dispatch_it_follows() {
        let mut t = ProfileTally::new();
        let fast = t.dispatch_begin(EventId(0), 1);
        t.handler_enter(FuncId(9));
        let generic = t.dispatch_begin(EventId(0), 1);
        t.handler_enter(FuncId(1));
        t.dispatch_end(generic);
        t.dispatch_end(fast);
        assert_eq!(seqs(&t), vec![(0, vec![9], 1), (0, vec![1], 1)]);
    }

    #[test]
    fn repeats_count_and_clear_keeps_what_is_open() {
        let mut t = ProfileTally::new();
        for _ in 0..3 {
            let d = t.dispatch_begin(EventId(2), 0);
            t.handler_enter(FuncId(5));
            t.handler_enter(FuncId(6));
            t.dispatch_end(d);
        }
        let empty = t.dispatch_begin(EventId(3), 0);
        t.dispatch_end(empty);
        assert_eq!(seqs(&t), vec![(2, vec![5, 6], 3)]);
        let open = t.dispatch_begin(EventId(2), 0);
        t.handler_enter(FuncId(5));
        t.clear();
        assert_eq!(seqs(&t), vec![]);
        t.handler_enter(FuncId(6));
        t.dispatch_end(open);
        assert_eq!(seqs(&t), vec![(2, vec![5, 6], 1)]);
    }
}
