//! The handler graph (paper §3.1, Fig 8).
//!
//! Handler-level profiling answers two questions the event graph cannot:
//!
//! 1. **Which handlers run, in what order, when an event fires?** The
//!    registry is dynamic, so this is only observable from execution. If
//!    every dispatch of an event executed the same handler sequence, that
//!    sequence is *stable* and eligible for merging (Fig 7).
//! 2. **Which synchronous raises nest inside which handlers?** A raise of
//!    `Seg2Net` from inside a `SegFromUser` handler (Fig 8) means the
//!    child's handlers can be *subsumed* into the parent's super-handler
//!    (Fig 9).

use pdo_events::{ProfileTally, Trace};
use pdo_ir::{EventId, FuncId};
use std::collections::BTreeMap;

/// An observed handler sequence with its occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerSeq {
    /// Handlers in execution order.
    pub handlers: Vec<FuncId>,
    /// How many dispatches executed exactly this sequence.
    pub count: u64,
}

pdo_snap::codec_struct!(HandlerSeq { handlers, count });

/// A synchronous raise observed inside a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NestedRaise {
    /// The event whose handler performed the raise.
    pub parent_event: EventId,
    /// The handler that raised.
    pub handler: FuncId,
    /// The raised (child) event.
    pub child_event: EventId,
}

pdo_snap::codec_struct!(NestedRaise {
    parent_event,
    handler,
    child_event,
});

/// Per-event handler observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandlerGraph {
    /// For each event: the distinct handler sequences observed.
    pub sequences: BTreeMap<EventId, Vec<HandlerSeq>>,
    /// Counts of synchronous raises nested within handlers.
    pub nested: BTreeMap<NestedRaise, u64>,
}

pdo_snap::codec_struct!(HandlerGraph { sequences, nested });

/// One super-handler the optimizer deployed, as the merge needs to know it:
/// what a dispatch through it stands for in terms of program handlers.
///
/// A fast-lane dispatch shows the profiler a single frame — the merged
/// function — and none of the raises it subsumed, because those became
/// direct calls. Counting that as observed would make the profile describe
/// the optimizer instead of the program. The merge therefore credits each
/// such dispatch with the evidence the super-handler was compiled from,
/// for as long as it is `live`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperHandler {
    /// The merged function.
    pub func: FuncId,
    /// Whether its guards still hold. Dispatches through a super-handler
    /// that is not live are dropped: what they were compiled from no
    /// longer describes the program.
    pub live: bool,
    /// The handler sequence of the head event, then of every subsumed
    /// event, as merged.
    pub sequences: Vec<(EventId, Vec<FuncId>)>,
    /// The nested raises that were folded into direct calls.
    pub nested: Vec<NestedRaise>,
}

impl AsRef<SuperHandler> for SuperHandler {
    fn as_ref(&self) -> &SuperHandler {
        self
    }
}

/// How a merge tells program handlers from the optimizer's output. `S` is
/// whatever the caller keeps each super-handler in — an adaptive engine
/// keeps it beside the chain it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperHandlers<S = SuperHandler> {
    /// Function count of the base module: ids at or past it are
    /// super-handlers, never program handlers.
    pub base_functions: usize,
    /// The deployed super-handlers (a handful; looked up linearly). One
    /// that is not listed is treated as not live.
    pub deployed: Vec<S>,
}

impl SuperHandlers {
    /// No optimizer output in sight: every function is a program handler
    /// (offline profiling of an unoptimized run).
    pub fn none() -> Self {
        SuperHandlers {
            base_functions: usize::MAX,
            deployed: Vec::new(),
        }
    }
}

impl<S: AsRef<SuperHandler>> SuperHandlers<S> {
    /// `handler` as the profile may name it: itself when it is a program
    /// handler; for a live super-handler the first handler it merged — the
    /// merged frame cannot say which of them raised, and `optimize` reads
    /// nested evidence by `(parent, child)` only; `None` otherwise.
    pub(crate) fn raiser(&self, handler: FuncId) -> Option<FuncId> {
        if handler.index() < self.base_functions {
            return Some(handler);
        }
        let (_, head) = self.live(handler)?.sequences.first()?;
        head.first().copied()
    }

    pub(crate) fn live(&self, func: FuncId) -> Option<&SuperHandler> {
        self.deployed
            .iter()
            .map(AsRef::as_ref)
            .find(|s| s.func == func && s.live)
    }
}

impl HandlerGraph {
    /// An empty handler graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the handler graph from a trace containing handler records.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut graph = HandlerGraph::new();
        graph.merge(
            &ProfileTally::replay(&trace.records),
            &SuperHandlers::none(),
        );
        graph
    }

    /// Merges one counted window. A dispatch that ran a super-handler is
    /// credited, as many times as it ran, with what that super-handler
    /// was compiled from while it is live, and with nothing otherwise; a
    /// raise from inside one is named as [`SuperHandlers`] says the
    /// profile may.
    pub(crate) fn merge<S: AsRef<SuperHandler>>(
        &mut self,
        tally: &ProfileTally,
        supers: &SuperHandlers<S>,
    ) {
        for (event, handlers, n) in tally.sequences() {
            match handlers.iter().find(|h| h.index() >= supers.base_functions) {
                None => self.count_sequence(event, handlers, n),
                Some(&func) => {
                    if let Some(merged) = supers.live(func) {
                        for (event, sequence) in &merged.sequences {
                            self.count_sequence(*event, sequence, n);
                        }
                        for nested in &merged.nested {
                            *self.nested.entry(*nested).or_insert(0) += n;
                        }
                    }
                }
            }
        }
        for (parent_event, handler, child_event, n) in tally.nested() {
            if let Some(handler) = supers.raiser(handler) {
                let key = NestedRaise {
                    parent_event,
                    handler,
                    child_event,
                };
                *self.nested.entry(key).or_insert(0) += n;
            }
        }
    }

    pub(crate) fn count_sequence(&mut self, event: EventId, handlers: &[FuncId], n: u64) {
        let seqs = self.sequences.entry(event).or_default();
        match seqs.iter_mut().find(|s| s.handlers == handlers) {
            Some(s) => s.count += n,
            None => seqs.push(HandlerSeq {
                handlers: handlers.to_vec(),
                count: n,
            }),
        }
    }

    /// The unique stable handler sequence for `event`, if every observed
    /// dispatch executed the same one.
    pub fn stable_sequence(&self, event: EventId) -> Option<&[FuncId]> {
        match self.sequences.get(&event)?.as_slice() {
            [only] => Some(&only.handlers),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_events::TraceRecord;

    /// Total dispatches observed for `event`.
    fn dispatches(g: &HandlerGraph, event: EventId) -> u64 {
        g.sequences
            .get(&event)
            .map_or(0, |seqs| seqs.iter().map(|s| s.count).sum())
    }
    use pdo_ir::RaiseMode;

    fn enter(event: u32, handler: u32, dispatch: u64) -> TraceRecord {
        TraceRecord::HandlerEnter {
            event: EventId(event),
            handler: FuncId(handler),
            dispatch,
            at: 0,
        }
    }
    fn exit(event: u32, handler: u32, dispatch: u64) -> TraceRecord {
        TraceRecord::HandlerExit {
            event: EventId(event),
            handler: FuncId(handler),
            dispatch,
            at: 0,
        }
    }
    fn raise(event: u32, mode: RaiseMode, depth: u32) -> TraceRecord {
        TraceRecord::Raise {
            event: EventId(event),
            mode,
            depth,
            at: 0,
        }
    }

    #[test]
    fn stable_sequence_detected() {
        let t = Trace {
            records: vec![
                raise(0, RaiseMode::Sync, 0),
                enter(0, 10, 0),
                exit(0, 10, 0),
                enter(0, 11, 0),
                exit(0, 11, 0),
                raise(0, RaiseMode::Sync, 0),
                enter(0, 10, 1),
                exit(0, 10, 1),
                enter(0, 11, 1),
                exit(0, 11, 1),
            ],
        };
        let g = HandlerGraph::from_trace(&t);
        assert_eq!(
            g.stable_sequence(EventId(0)),
            Some(&[FuncId(10), FuncId(11)][..])
        );
        assert_eq!(dispatches(&g, EventId(0)), 2);
    }

    #[test]
    fn unstable_sequences_not_merged() {
        let t = Trace {
            records: vec![
                enter(0, 10, 0),
                exit(0, 10, 0),
                enter(0, 11, 1), // second dispatch ran a different handler
                exit(0, 11, 1),
            ],
        };
        let g = HandlerGraph::from_trace(&t);
        assert_eq!(g.stable_sequence(EventId(0)), None);
        assert_eq!(g.sequences[&EventId(0)].len(), 2);
        assert_eq!(dispatches(&g, EventId(0)), 2);
    }

    #[test]
    fn nested_sync_raise_attributed_to_handler() {
        // Handler 10 of event 0 synchronously raises event 1 (Fig 8 shape).
        let t = Trace {
            records: vec![
                raise(0, RaiseMode::Sync, 0),
                enter(0, 10, 0),
                raise(1, RaiseMode::Sync, 1),
                enter(1, 20, 1),
                exit(1, 20, 1),
                exit(0, 10, 0),
            ],
        };
        let g = HandlerGraph::from_trace(&t);
        let key = NestedRaise {
            parent_event: EventId(0),
            handler: FuncId(10),
            child_event: EventId(1),
        };
        // The inner handler raised nothing.
        assert_eq!(g.nested, BTreeMap::from([(key, 1)]));
    }

    #[test]
    fn async_raise_inside_handler_not_nested() {
        let t = Trace {
            records: vec![
                enter(0, 10, 0),
                raise(1, RaiseMode::Async, 1),
                raise(2, RaiseMode::Timed, 1),
                exit(0, 10, 0),
            ],
        };
        let g = HandlerGraph::from_trace(&t);
        assert!(g.nested.is_empty());
    }

    #[test]
    fn top_level_raise_not_nested() {
        let t = Trace {
            records: vec![raise(0, RaiseMode::Sync, 0), raise(1, RaiseMode::Sync, 0)],
        };
        let g = HandlerGraph::from_trace(&t);
        assert!(g.nested.is_empty());
    }

    #[test]
    fn deeply_nested_raise_attributed_to_innermost() {
        let t = Trace {
            records: vec![
                enter(0, 10, 0),
                enter(1, 20, 1),
                raise(2, RaiseMode::Sync, 2),
                exit(1, 20, 1),
                exit(0, 10, 0),
            ],
        };
        let g = HandlerGraph::from_trace(&t);
        let innermost = NestedRaise {
            parent_event: EventId(1),
            handler: FuncId(20),
            child_event: EventId(2),
        };
        // Only the innermost handler is credited, not handler 10 of event 0.
        assert_eq!(g.nested, BTreeMap::from([(innermost, 1)]));
    }

    #[test]
    fn empty_trace_yields_empty_graph() {
        let g = HandlerGraph::from_trace(&Trace::new());
        assert!(g.sequences.is_empty());
        assert!(g.nested.is_empty());
        assert_eq!(dispatches(&g, EventId(0)), 0);
        assert_eq!(g.stable_sequence(EventId(0)), None);
    }
}
