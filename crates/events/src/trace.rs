//! Execution traces for offline profiling and for tests.
//!
//! A live session's profile is counted, not recorded
//! ([`crate::ProfileTally`]); a recorded trace is what an offline profile
//! replays into the same tally, and what equivalence tests compare.
//! [`TraceConfig`] selects what is recorded: event raises, and optionally
//! enter/exit records around every handler. The paper's second profiling
//! phase (§3.1), which instruments only the handlers of hot events, is not
//! reproduced: every caller traces all handlers.

use crate::fault::FaultKind;
use pdo_ir::{EventId, FuncId, RaiseMode};

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

/// Tracing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record [`TraceRecord::Raise`] entries.
    pub events: bool,
    /// Record [`TraceRecord::HandlerEnter`] / [`TraceRecord::HandlerExit`]
    /// around every handler.
    pub handlers: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: true,
            handlers: false,
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
            handlers: false,
        }
    }

    /// Full instrumentation: raises plus every handler.
    pub fn full() -> Self {
        TraceConfig {
            events: true,
            handlers: true,
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
