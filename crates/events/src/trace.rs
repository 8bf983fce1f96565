//! Execution traces for event and handler profiling.
//!
//! Profiling is two-phase, as in §3.1 of the paper: the first run records
//! only event raises (event profiling); once hot event paths are known, a
//! second run additionally instruments the handlers of selected events
//! (handler profiling). [`TraceConfig`] selects the phase.

use crate::fault::FaultKind;
use pdo_ir::{EventId, FuncId, RaiseMode};
use std::collections::HashSet;

/// One record in an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// An event was raised. `depth` is the synchronous nesting depth at the
    /// raise site: a non-zero depth means the raise happened from inside
    /// another event's handler, which is what subsumption detection (§3.2.1,
    /// Fig 8) looks for.
    Raise {
        /// The raised event.
        event: EventId,
        /// How it was activated.
        mode: RaiseMode,
        /// Synchronous nesting depth at the raise site.
        depth: u32,
        /// Virtual-clock timestamp (ns).
        at: u64,
    },
    /// A handler started executing for `event`.
    HandlerEnter {
        /// Event being dispatched.
        event: EventId,
        /// The handler function.
        handler: FuncId,
        /// Dispatch group: all handlers run by one event occurrence share it.
        dispatch: u64,
        /// Virtual-clock timestamp (ns).
        at: u64,
    },
    /// The handler finished.
    HandlerExit {
        /// Event being dispatched.
        event: EventId,
        /// The handler function.
        handler: FuncId,
        /// Dispatch group: all handlers run by one event occurrence share it.
        dispatch: u64,
        /// Virtual-clock timestamp (ns).
        at: u64,
    },
    /// A fault (injected or contained organic trap) was recorded for
    /// `event`. Only present when event tracing is enabled.
    Fault {
        /// The faulting event.
        event: EventId,
        /// The fault kind.
        kind: FaultKind,
        /// Virtual-clock timestamp (ns).
        at: u64,
    },
}

/// Which handlers to instrument.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum HandlerTraceMode {
    /// No handler records (event-profiling phase).
    #[default]
    Off,
    /// Record handlers of every event.
    All,
    /// Record handlers only for the given events (the paper instruments the
    /// handlers of events on hot paths).
    Selected(HashSet<EventId>),
}

impl HandlerTraceMode {
    /// Should handlers of `event` be recorded?
    pub fn traces(&self, event: EventId) -> bool {
        match self {
            HandlerTraceMode::Off => false,
            HandlerTraceMode::All => true,
            HandlerTraceMode::Selected(set) => set.contains(&event),
        }
    }
}

/// Tracing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record [`TraceRecord::Raise`] entries.
    pub events: bool,
    /// Handler instrumentation mode.
    pub handlers: HandlerTraceMode,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: true,
            handlers: HandlerTraceMode::Off,
        }
    }
}

impl TraceConfig {
    /// Event-profiling phase: raises only.
    pub fn events_only() -> Self {
        Self::default()
    }

    /// No instrumentation at all: a runtime's initial state.
    pub fn off() -> Self {
        TraceConfig {
            events: false,
            handlers: HandlerTraceMode::Off,
        }
    }

    /// Full instrumentation: raises plus every handler.
    pub fn full() -> Self {
        TraceConfig {
            events: true,
            handlers: HandlerTraceMode::All,
        }
    }

    /// Handler-profiling phase for the given hot events.
    pub fn handlers_for(events: impl IntoIterator<Item = EventId>) -> Self {
        TraceConfig {
            events: true,
            handlers: HandlerTraceMode::Selected(events.into_iter().collect()),
        }
    }
}

/// A recorded execution trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Records in execution order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sequence of raised events, in order.
    pub fn event_sequence(&self) -> Vec<(EventId, RaiseMode)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Raise { event, mode, .. } => Some((*event, *mode)),
                _ => None,
            })
            .collect()
    }

    /// Number of raise records.
    pub fn raise_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Raise { .. }))
            .count()
    }

    /// The recorded fault events, in order, as `(event, kind)` pairs. Part
    /// of the observable behavior the chaos equivalence property compares.
    pub fn fault_sequence(&self) -> Vec<(EventId, FaultKind)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Fault { event, kind, .. } => Some((*event, *kind)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_mode_selection() {
        assert!(!HandlerTraceMode::Off.traces(EventId(0)));
        assert!(HandlerTraceMode::All.traces(EventId(0)));
        let sel = HandlerTraceMode::Selected([EventId(1)].into_iter().collect());
        assert!(sel.traces(EventId(1)));
        assert!(!sel.traces(EventId(2)));
    }

    #[test]
    fn event_sequence_filters_raises() {
        let t = Trace {
            records: vec![
                TraceRecord::Raise {
                    event: EventId(0),
                    mode: RaiseMode::Sync,
                    depth: 0,
                    at: 0,
                },
                TraceRecord::HandlerEnter {
                    event: EventId(0),
                    handler: FuncId(1),
                    dispatch: 0,
                    at: 1,
                },
                TraceRecord::Raise {
                    event: EventId(1),
                    mode: RaiseMode::Async,
                    depth: 1,
                    at: 2,
                },
                TraceRecord::HandlerExit {
                    event: EventId(0),
                    handler: FuncId(1),
                    dispatch: 0,
                    at: 3,
                },
            ],
        };
        assert_eq!(
            t.event_sequence(),
            vec![
                (EventId(0), RaiseMode::Sync),
                (EventId(1), RaiseMode::Async)
            ]
        );
        assert_eq!(t.raise_count(), 2);
    }

    #[test]
    fn fault_records_are_separated_from_raises() {
        let t = Trace {
            records: vec![
                TraceRecord::Raise {
                    event: EventId(3),
                    mode: RaiseMode::Timed,
                    depth: 0,
                    at: 99,
                },
                TraceRecord::Fault {
                    event: EventId(3),
                    kind: FaultKind::DropTimed,
                    at: 99,
                },
            ],
        };
        assert_eq!(t.raise_count(), 1);
        assert_eq!(t.event_sequence(), vec![(EventId(3), RaiseMode::Timed)]);
        assert_eq!(t.fault_sequence(), vec![(EventId(3), FaultKind::DropTimed)]);
    }
}
