//! # pdo-profile — event and handler profiling
//!
//! Implements §3.1 of the paper:
//!
//! 1. Run the program and count its raises and dispatches: live, as the
//!    runtime's [`pdo_events::ProfileTally`], or offline, by replaying a
//!    recorded [`pdo_events::Trace`] into one.
//! 2. Build the **event graph** with the Fig 4 `GraphBuilder` algorithm:
//!    an edge `(e1, e2)` weighted by how many times `e2` immediately
//!    followed `e1` in the trace, annotated with the raise mode of `e2`.
//! 3. **Reduce** the graph by a threshold `T` (Fig 5 → Fig 6) and extract
//!    *event paths* and *event chains* (sequences guaranteed to follow
//!    their head, all activations after the head synchronous).
//! 4. Instrument the handlers of hot events and build the **handler
//!    graph**: the observed handler sequence per event and the nesting
//!    structure that reveals subsumable synchronous raises (Fig 8).
//!
//! The assembled [`Profile`] is a serializable artifact: produce it once,
//! [save it](save_profile), and feed it to the optimizer offline — the workflow the
//! paper describes ("the analysis and optimizations are currently performed
//! manually off-line after the program … has been executed enough times to
//! develop an adequate profile").

pub mod builder;
pub mod chains;
pub mod graph;
pub mod handlers;
#[cfg(test)]
mod reference;
pub mod store;

pub use builder::ProfileBuilder;
pub use chains::{event_chains, event_paths, hot_events};
pub use graph::{EdgeData, EdgeMode, EventGraph};
pub use handlers::{HandlerGraph, HandlerSeq, NestedRaise, SuperHandler, SuperHandlers};
pub use store::{load_profile, save_profile};

use pdo_events::{ProfileTally, Trace};
use pdo_ir::EventId;

/// A complete profile of one program configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// The event graph from the event-profiling phase.
    pub event_graph: EventGraph,
    /// The handler graph from the handler-profiling phase.
    pub handler_graph: HandlerGraph,
    /// Threshold used when reducing (recorded for reports).
    pub threshold: u64,
}

pdo_snap::codec_struct!(Profile {
    event_graph,
    handler_graph,
    threshold
});

impl Profile {
    /// Builds a profile from a single fully-instrumented trace (both event
    /// and handler records), using `threshold` for reduction: the records
    /// replay into the [`ProfileTally`] a live runtime keeps, which merges
    /// as an adaptive engine's windows do.
    pub fn from_trace(trace: &Trace, threshold: u64) -> Self {
        let tally = ProfileTally::replay(&trace.records);
        let mut profile = Profile {
            threshold,
            ..Profile::default()
        };
        profile.event_graph.merge(&tally, &mut None);
        profile.handler_graph.merge(&tally, &SuperHandlers::none());
        profile
    }

    /// The reduced event graph at this profile's threshold.
    pub fn reduced(&self) -> EventGraph {
        self.event_graph.reduce(self.threshold)
    }

    /// Event chains in the reduced graph (candidates for chain merging).
    pub fn chains(&self) -> Vec<Vec<EventId>> {
        event_chains(&self.reduced())
    }
}
