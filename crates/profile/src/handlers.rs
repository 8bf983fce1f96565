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

use pdo_events::{Trace, TraceRecord};
use pdo_ir::{EventId, FuncId, RaiseMode};
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

impl HandlerGraph {
    /// An empty handler graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the handler graph from a trace containing handler records.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut graph = HandlerGraph::new();
        // Collect per-dispatch sequences.
        let mut dispatches: BTreeMap<u64, (EventId, Vec<FuncId>)> = BTreeMap::new();
        // Stack of currently-open handler frames.
        let mut stack: Vec<(EventId, FuncId)> = Vec::new();

        for record in &trace.records {
            match record {
                TraceRecord::HandlerEnter {
                    event,
                    handler,
                    dispatch,
                    ..
                } => {
                    dispatches
                        .entry(*dispatch)
                        .or_insert_with(|| (*event, Vec::new()))
                        .1
                        .push(*handler);
                    stack.push((*event, *handler));
                }
                TraceRecord::HandlerExit { .. } => {
                    stack.pop();
                }
                TraceRecord::Raise { event, mode, .. } => {
                    if *mode == RaiseMode::Sync {
                        if let Some(&(parent_event, handler)) = stack.last() {
                            *graph
                                .nested
                                .entry(NestedRaise {
                                    parent_event,
                                    handler,
                                    child_event: *event,
                                })
                                .or_insert(0) += 1;
                        }
                    }
                }
                // Fault records carry no handler-nesting information.
                TraceRecord::Fault { .. } => {}
            }
        }

        // Fold dispatches into distinct sequences per event.
        for (_, (event, handlers)) in dispatches {
            let seqs = graph.sequences.entry(event).or_default();
            match seqs.iter_mut().find(|s| s.handlers == handlers) {
                Some(s) => s.count += 1,
                None => seqs.push(HandlerSeq { handlers, count: 1 }),
            }
        }
        graph
    }

    /// The unique stable handler sequence for `event`, if every observed
    /// dispatch executed the same one.
    pub fn stable_sequence(&self, event: EventId) -> Option<&[FuncId]> {
        match self.sequences.get(&event)?.as_slice() {
            [only] => Some(&only.handlers),
            _ => None,
        }
    }

    /// Total dispatches observed for `event`.
    pub fn dispatch_count(&self, event: EventId) -> u64 {
        self.sequences
            .get(&event)
            .map(|seqs| seqs.iter().map(|s| s.count).sum())
            .unwrap_or(0)
    }

    /// How many times `handler` (running for `parent`) synchronously raised
    /// `child`.
    pub fn nested_count(&self, parent: EventId, handler: FuncId, child: EventId) -> u64 {
        self.nested
            .get(&NestedRaise {
                parent_event: parent,
                handler,
                child_event: child,
            })
            .copied()
            .unwrap_or(0)
    }

    /// Events that `handler` of `parent` is observed to synchronously raise,
    /// with counts.
    pub fn raises_from(&self, parent: EventId, handler: FuncId) -> Vec<(EventId, u64)> {
        self.nested
            .iter()
            .filter(|(k, _)| k.parent_event == parent && k.handler == handler)
            .map(|(k, &v)| (k.child_event, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(g.dispatch_count(EventId(0)), 2);
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
        assert_eq!(g.dispatch_count(EventId(0)), 2);
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
        assert_eq!(g.nested_count(EventId(0), FuncId(10), EventId(1)), 1);
        assert_eq!(g.raises_from(EventId(0), FuncId(10)), vec![(EventId(1), 1)]);
        // The inner handler raised nothing.
        assert!(g.raises_from(EventId(1), FuncId(20)).is_empty());
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
        assert_eq!(g.nested_count(EventId(1), FuncId(20), EventId(2)), 1);
        assert_eq!(g.nested_count(EventId(0), FuncId(10), EventId(2)), 0);
    }

    #[test]
    fn empty_trace_yields_empty_graph() {
        let g = HandlerGraph::from_trace(&Trace::new());
        assert!(g.sequences.is_empty());
        assert!(g.nested.is_empty());
        assert_eq!(g.dispatch_count(EventId(0)), 0);
        assert_eq!(g.stable_sequence(EventId(0)), None);
    }
}
