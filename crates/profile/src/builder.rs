//! Incremental, windowed profile construction for online adaptation.
//!
//! The offline workflow builds a [`Profile`](crate::Profile) from one big
//! trace. A long-running server cannot afford that: re-profiling must be
//! O(window), not O(everything the session ever did). [`ProfileBuilder`]
//! therefore merges *counted windows* — the [`ProfileTally`] the runtime
//! kept since the last epoch — into running accumulators, at a cost that
//! follows the window's distinct edges, sequences and nestings, not its
//! length.
//!
//! To let the profile track a *shifting* workload — the property the
//! adaptive server needs so a chain that went cold is eventually
//! despecialized — the builder applies **exponential decay**: on each
//! [`ProfileBuilder::end_epoch`] every accumulated weight is halved (and
//! zero-weight entries dropped). An event path that stops occurring falls
//! below any reduction threshold after a logarithmic number of epochs,
//! while a newly hot path crosses it as soon as one window carries enough
//! occurrences.

use crate::graph::EventGraph;
use crate::handlers::{HandlerGraph, SuperHandler, SuperHandlers};
use pdo_events::ProfileTally;
use pdo_ir::{EventId, FuncId};

/// Accumulates counted windows into a decaying profile.
///
/// A builder is its own snapshot: the decaying accumulators, the
/// cross-window boundary raise and the fresh-raise counter, so a decoded
/// builder produces the same profiles as the original.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileBuilder {
    event_graph: EventGraph,
    handler_graph: HandlerGraph,
    /// Carried across windows so the boundary edge between the last raise
    /// of one window and the first raise of the next is not lost.
    prev_raise: Option<EventId>,
    /// Raises observed since the last [`ProfileBuilder::take_fresh`].
    fresh: u64,
}

pdo_snap::codec_struct!(ProfileBuilder {
    event_graph,
    handler_graph,
    prev_raise,
    fresh,
});

impl ProfileBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one counted window into the accumulators: the edge from the
    /// previous window's last raise to this one's first, then the
    /// window's edges, sequences and nested raises, each distinct one
    /// once with its count. Allocates only for a sequence or nesting not
    /// seen before.
    ///
    /// `supers` says which functions are the optimizer's output and what
    /// they stand for, so the accumulators only ever name program handlers
    /// (see [`SuperHandlers`]).
    pub fn observe<S: AsRef<SuperHandler>>(
        &mut self,
        window: &ProfileTally,
        supers: &SuperHandlers<S>,
    ) {
        self.fresh += window.raises();
        self.event_graph.merge(window, &mut self.prev_raise);
        self.handler_graph.merge(window, supers);
    }

    /// [`ProfileBuilder::observe`] computed by folding a recorded window
    /// straight into the graphs: the oracle the tally is tested against.
    #[cfg(test)]
    pub(crate) fn reference_fold<S: AsRef<SuperHandler>>(
        &mut self,
        window: &pdo_events::Trace,
        supers: &SuperHandlers<S>,
    ) {
        self.fresh +=
            crate::reference::fold_events(&mut self.event_graph, window, &mut self.prev_raise);
        crate::reference::fold_handlers(&mut self.handler_graph, window, supers);
    }

    /// Forgets what was observed of `event`'s own dispatches — its handler
    /// sequences and the raises nested in them — because its bindings have
    /// changed and those observations describe the old ones. Its hotness
    /// (the event graph) is untouched, so the sequence now bound is stable
    /// as soon as one window has shown it, not once the old one has
    /// decayed away.
    pub fn forget_sequences(&mut self, event: EventId) {
        self.handler_graph.sequences.remove(&event);
        self.handler_graph
            .nested
            .retain(|k, _| k.parent_event != event);
    }

    /// Ends an adaptation epoch: halves every accumulated weight and drops
    /// entries that reach zero, so hotness observed `k` epochs ago carries
    /// weight `w / 2^k` today.
    pub fn end_epoch(&mut self) {
        for count in self.event_graph.nodes.values_mut() {
            *count /= 2;
        }
        self.event_graph.nodes.retain(|_, c| *c > 0);
        for data in self.event_graph.edges.values_mut() {
            data.weight /= 2;
            data.sync /= 2;
            data.asynchronous /= 2;
        }
        self.event_graph.edges.retain(|_, d| d.weight > 0);

        for seqs in self.handler_graph.sequences.values_mut() {
            for seq in seqs.iter_mut() {
                seq.count /= 2;
            }
            seqs.retain(|s| s.count > 0);
        }
        self.handler_graph.sequences.retain(|_, s| !s.is_empty());
        for count in self.handler_graph.nested.values_mut() {
            *count /= 2;
        }
        self.handler_graph.nested.retain(|_, c| *c > 0);
    }

    /// Number of raises observed since the last [`ProfileBuilder::take_fresh`].
    pub fn fresh_events(&self) -> u64 {
        self.fresh
    }

    /// Returns and resets the fresh-raise counter (called when the daemon
    /// decides to re-profile).
    pub fn take_fresh(&mut self) -> u64 {
        std::mem::take(&mut self.fresh)
    }

    /// The accumulated event graph (reporting/tests).
    pub fn event_graph(&self) -> &EventGraph {
        &self.event_graph
    }

    /// The accumulated handler graph (reporting/tests).
    pub fn handler_graph(&self) -> &HandlerGraph {
        &self.handler_graph
    }

    /// Drops every handler sequence and nested raise naming a function at
    /// or past `base_functions`: such an id is some optimizer's output, not
    /// a program handler, and means nothing outside the deployment that
    /// produced it (a restored image has none).
    pub fn retain_program_handlers(&mut self, base_functions: usize) {
        let program = |f: &FuncId| f.index() < base_functions;
        for seqs in self.handler_graph.sequences.values_mut() {
            seqs.retain(|s| s.handlers.iter().all(program));
        }
        self.handler_graph.sequences.retain(|_, s| !s.is_empty());
        self.handler_graph.nested.retain(|k, _| program(&k.handler));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeData;
    use crate::handlers::{HandlerSeq, NestedRaise, SuperHandler};
    use crate::Profile;
    use pdo_events::{Trace, TraceRecord};
    use pdo_ir::RaiseMode;

    fn raise(event: u32) -> TraceRecord {
        TraceRecord::Raise {
            event: EventId(event),
            mode: RaiseMode::Sync,
            depth: 0,
            at: 0,
        }
    }

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

    #[test]
    fn windows_merge_and_carry_the_boundary_edge() {
        let mut b = ProfileBuilder::new();
        b.observe(
            &ProfileTally::replay(&[raise(0), raise(1)]),
            &SuperHandlers::none(),
        );
        b.observe(
            &ProfileTally::replay(&[raise(0), raise(1)]),
            &SuperHandlers::none(),
        );
        let g = b.event_graph();
        assert_eq!(g.edges[&(EventId(0), EventId(1))].weight, 2);
        // The 1 -> 0 edge spans the window boundary.
        assert_eq!(g.edges[&(EventId(1), EventId(0))].weight, 1);
        assert_eq!(b.fresh_events(), 4);
    }

    #[test]
    fn windowed_build_matches_offline_build() {
        // Splitting one trace into windows must produce the same profile as
        // one offline pass (modulo nothing: prev carries over).
        let records: Vec<TraceRecord> = (0..20u64)
            .flat_map(|d| vec![raise(0), enter(0, 7, d), raise(1), exit(0, 7, d)])
            .collect();
        let offline = Profile::from_trace(
            &Trace {
                records: records.clone(),
            },
            5,
        );
        let mut b = ProfileBuilder::new();
        // Windows cut at dispatch boundaries (4 records per dispatch here),
        // matching how the epoch hook samples between dispatches.
        for chunk in records.chunks(12) {
            b.observe(&ProfileTally::replay(chunk), &SuperHandlers::none());
        }
        assert_eq!(b.event_graph(), &offline.event_graph);
        assert_eq!(b.handler_graph(), &offline.handler_graph);
    }

    /// Event 0 runs [1, 2]; handler 1 raises event 3, which runs [4]. The
    /// optimizer merged all of it into function 9 of a 9-function module.
    fn merged_into_f9(live: bool) -> SuperHandlers {
        SuperHandlers {
            base_functions: 9,
            deployed: vec![SuperHandler {
                func: FuncId(9),
                live,
                sequences: vec![
                    (EventId(0), vec![FuncId(1), FuncId(2)]),
                    (EventId(3), vec![FuncId(4)]),
                ],
                nested: vec![NestedRaise {
                    parent_event: EventId(0),
                    handler: FuncId(1),
                    child_event: EventId(3),
                }],
            }],
        }
    }

    #[test]
    fn fast_lane_dispatches_fold_to_what_a_generic_run_would_show() {
        // The same three raises of event 0, dispatched generically...
        let generic: Vec<TraceRecord> = (0..3u64)
            .flat_map(|d| {
                vec![
                    raise(0),
                    enter(0, 1, 2 * d),
                    raise(3),
                    enter(3, 4, 2 * d + 1),
                    exit(3, 4, 2 * d + 1),
                    exit(0, 1, 2 * d),
                    enter(0, 2, 2 * d),
                    exit(0, 2, 2 * d),
                ]
            })
            .collect();
        // ...and through the super-handler, which shows one frame and no
        // nested raise.
        let fast: Vec<TraceRecord> = (0..3u64)
            .flat_map(|d| vec![raise(0), enter(0, 9, d), exit(0, 9, d)])
            .collect();
        let mut slow_lane = ProfileBuilder::new();
        slow_lane.observe(&ProfileTally::replay(&generic), &merged_into_f9(true));
        let mut fast_lane = ProfileBuilder::new();
        fast_lane.observe(&ProfileTally::replay(&fast), &merged_into_f9(true));
        assert_eq!(fast_lane.handler_graph(), slow_lane.handler_graph());
        // Hotness is not credited: only the raises that really happened.
        assert_eq!(fast_lane.event_graph().nodes[&EventId(0)], 3);
        assert!(!fast_lane.event_graph().nodes.contains_key(&EventId(3)));
    }

    #[test]
    fn a_raise_left_in_a_super_handler_is_named_after_a_program_handler() {
        // Event 5 was not subsumed: it is raised, and dispatched
        // generically, from inside the merged frame.
        let records = vec![
            raise(0),
            enter(0, 9, 0),
            raise(5),
            enter(5, 6, 1),
            exit(5, 6, 1),
            exit(0, 9, 0),
        ];
        let mut b = ProfileBuilder::new();
        b.observe(&ProfileTally::replay(&records), &merged_into_f9(true));
        assert_eq!(
            b.handler_graph()
                .nested_count(EventId(0), FuncId(1), EventId(5)),
            1
        );
        assert_eq!(
            b.handler_graph().stable_sequence(EventId(5)),
            Some(&[FuncId(6)][..])
        );
        assert!(b.handler_graph().nested.keys().all(|k| k.handler.0 < 9));
    }

    #[test]
    fn a_super_handler_that_is_not_live_is_not_credited() {
        let records = vec![raise(0), enter(0, 9, 0), raise(5), exit(0, 9, 0)];
        for supers in [
            merged_into_f9(false),
            SuperHandlers {
                base_functions: 9,
                deployed: Vec::new(),
            },
        ] {
            let mut b = ProfileBuilder::new();
            b.observe(&ProfileTally::replay(&records), &supers);
            assert_eq!(b.handler_graph(), &HandlerGraph::new());
            assert_eq!(b.event_graph().nodes[&EventId(0)], 1, "the raise happened");
        }
    }

    #[test]
    fn forgetting_an_event_keeps_its_hotness_and_everyone_elses_sequences() {
        let mut b = ProfileBuilder::new();
        b.observe(
            &ProfileTally::replay(&[
                raise(0),
                enter(0, 1, 0),
                raise(3),
                enter(3, 4, 1),
                exit(3, 4, 1),
                exit(0, 1, 0),
            ]),
            &SuperHandlers::none(),
        );
        let hot = b.event_graph().clone();
        b.forget_sequences(EventId(0));
        assert_eq!(b.handler_graph().stable_sequence(EventId(0)), None);
        assert!(
            b.handler_graph().nested.is_empty(),
            "raised under the old bindings"
        );
        assert_eq!(
            b.handler_graph().stable_sequence(EventId(3)),
            Some(&[FuncId(4)][..])
        );
        assert_eq!(b.event_graph(), &hot);
    }

    #[test]
    fn retain_program_handlers_drops_what_names_no_program_function() {
        let mut b = ProfileBuilder::new();
        b.observe(
            &ProfileTally::replay(&[
                enter(0, 9, 0),
                raise(3),
                exit(0, 9, 0),
                enter(3, 4, 1),
                exit(3, 4, 1),
                enter(0, 1, 2),
                exit(0, 1, 2),
            ]),
            &SuperHandlers::none(),
        );
        assert_eq!(b.handler_graph().sequences[&EventId(0)].len(), 2);
        b.retain_program_handlers(9);
        assert_eq!(
            b.handler_graph().stable_sequence(EventId(0)),
            Some(&[FuncId(1)][..])
        );
        assert_eq!(
            b.handler_graph().stable_sequence(EventId(3)),
            Some(&[FuncId(4)][..])
        );
        assert!(b.handler_graph().nested.is_empty());
    }

    #[test]
    fn decay_forgets_cold_paths() {
        let mut b = ProfileBuilder::new();
        // 40 A->B traversals, B raised from inside A's handler, then
        // silence.
        let records: Vec<TraceRecord> = (0..40u64)
            .flat_map(|d| vec![raise(0), enter(0, 7, d), raise(1), exit(0, 7, d)])
            .collect();
        b.observe(&ProfileTally::replay(&records), &SuperHandlers::none());
        assert!(b.event_graph().edges[&(EventId(0), EventId(1))].weight >= 39);
        assert_eq!(
            b.handler_graph()
                .nested_count(EventId(0), FuncId(7), EventId(1)),
            40
        );
        for _ in 0..7 {
            b.end_epoch();
        }
        // 40 / 2^7 = 0: the edge, the sequence and the nesting are gone.
        assert!(!b
            .event_graph()
            .edges
            .contains_key(&(EventId(0), EventId(1))));
        assert_eq!(b.handler_graph(), &HandlerGraph::new());
    }

    #[test]
    fn fresh_counter_resets_on_take() {
        let mut b = ProfileBuilder::new();
        b.observe(
            &ProfileTally::replay(&[raise(0), raise(1), raise(0)]),
            &SuperHandlers::none(),
        );
        assert_eq!(b.take_fresh(), 3);
        assert_eq!(b.fresh_events(), 0);
    }

    #[test]
    fn a_decoded_builder_continues_identically() {
        let mut a = ProfileBuilder::new();
        a.observe(
            &ProfileTally::replay(&[raise(0), enter(0, 7, 0), raise(1), exit(0, 7, 0)]),
            &SuperHandlers::none(),
        );
        a.end_epoch();
        let mut b: ProfileBuilder = pdo_snap::decode(&pdo_snap::encode(&a)).unwrap();
        assert_eq!(b, a, "round trip is exact");
        // Both continue identically, including the boundary edge carried
        // in prev_raise and the fresh counter.
        let window = ProfileTally::replay(&[raise(0), raise(1)]);
        a.observe(&window, &SuperHandlers::none());
        b.observe(&window, &SuperHandlers::none());
        assert_eq!(a, b);
        assert_eq!(a.fresh_events(), b.fresh_events());
        assert_eq!(
            a.event_graph().reduce(1).nodes,
            b.event_graph().reduce(1).nodes
        );
    }

    #[test]
    fn accumulated_graph_reduces_at_threshold() {
        let mut b = ProfileBuilder::new();
        let mut records = Vec::new();
        for _ in 0..12 {
            records.push(raise(0));
            records.push(raise(1));
        }
        records.push(raise(2));
        b.observe(&ProfileTally::replay(&records), &SuperHandlers::none());
        let r = b.event_graph().reduce(10);
        assert!(r.edges.contains_key(&(EventId(0), EventId(1))));
        assert!(!r.nodes.contains_key(&EventId(2)));
    }

    #[test]
    fn state_codec_survives_the_hostile_sweep() {
        let (a, b) = (EventId(0), EventId(2));
        let edge = EdgeData {
            weight: 9,
            sync: 7,
            asynchronous: 2,
        };
        let seq = |handlers: &[u32], count| HandlerSeq {
            handlers: handlers.iter().map(|&h| FuncId(h)).collect(),
            count,
        };
        let nested = NestedRaise {
            parent_event: a,
            handler: FuncId(1),
            child_event: b,
        };
        pdo_snap::hostile::check(&ProfileBuilder {
            event_graph: EventGraph {
                nodes: [(a, 10), (b, 9)].into(),
                edges: [((a, b), edge), ((b, a), EdgeData::default())].into(),
            },
            handler_graph: HandlerGraph {
                sequences: [(a, vec![seq(&[1, 4], 8), seq(&[], 2)]), (b, vec![])].into(),
                nested: [(nested, 5)].into(),
            },
            prev_raise: Some(b),
            fresh: 19,
        });
        pdo_snap::hostile::check(&ProfileBuilder::new());
    }
}
