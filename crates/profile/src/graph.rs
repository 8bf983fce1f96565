//! The event graph (paper Fig 4 / Fig 5).

use pdo_events::{ProfileTally, Trace};
use pdo_ir::{EventId, Module, RaiseMode};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Activation-mode classification of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMode {
    /// Every traversal raised the successor synchronously.
    Sync,
    /// Every traversal raised the successor asynchronously (or timed).
    Async,
    /// A mix of both.
    Mixed,
}

/// Weight and activation statistics of one edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeData {
    /// Times the successor immediately followed the predecessor.
    pub weight: u64,
    /// Traversals where the successor was raised synchronously.
    pub sync: u64,
    /// Traversals where the successor was raised asynchronously or timed.
    pub asynchronous: u64,
}

pdo_snap::codec_struct!(EdgeData {
    weight,
    sync,
    asynchronous,
});

impl EdgeData {
    /// The edge's activation classification.
    pub fn mode(&self) -> EdgeMode {
        match (self.sync, self.asynchronous) {
            (_, 0) => EdgeMode::Sync,
            (0, _) => EdgeMode::Async,
            _ => EdgeMode::Mixed,
        }
    }

    /// True when the edge only ever carried synchronous activations, making
    /// it eligible for chain/subsumption optimization.
    pub fn is_pure_sync(&self) -> bool {
        self.asynchronous == 0 && self.sync > 0
    }
}

/// A weighted directed multigraph over events.
///
/// Built with the `GraphBuilder` algorithm of Fig 4: consecutive raises
/// `(prev, next)` in the trace add (or bump) the edge `prev → next`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventGraph {
    /// Occurrence count per event (node weights).
    pub nodes: BTreeMap<EventId, u64>,
    /// Edge data keyed by `(from, to)`.
    pub edges: BTreeMap<(EventId, EventId), EdgeData>,
}

pdo_snap::codec_struct!(EventGraph { nodes, edges });

impl EventGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the Fig 4 `GraphBuilder` over a trace's raise records.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut g = EventGraph::new();
        g.merge(&ProfileTally::replay(&trace.records), &mut None);
        g
    }

    /// The Fig 4 walk over one counted window, merged into the graph: a
    /// node occurrence per raise and an edge from the raise before it.
    /// `prev` is the last raise already merged — the window's first raise
    /// gets its edge from it — and is left at the window's last, so a run
    /// counted in windows merges to the graph of the whole.
    pub(crate) fn merge(&mut self, tally: &ProfileTally, prev: &mut Option<EventId>) {
        if let Some((first, mode)) = tally.first() {
            *self.nodes.entry(first).or_insert(0) += 1;
            if let Some(p) = *prev {
                self.add_edge(p, first, mode, 1);
            }
        }
        for (from, to, mode, n) in tally.edges() {
            self.add_edge(from, to, mode, n);
            *self.nodes.entry(to).or_insert(0) += n;
        }
        if let Some(last) = tally.last() {
            *prev = Some(last);
        }
    }

    /// Adds `n` traversals of `from → to` whose successor was raised in
    /// `mode`.
    pub(crate) fn add_edge(&mut self, from: EventId, to: EventId, mode: RaiseMode, n: u64) {
        let data = self.edges.entry((from, to)).or_default();
        data.weight += n;
        match mode {
            RaiseMode::Sync => data.sync += n,
            RaiseMode::Async | RaiseMode::Timed => data.asynchronous += n,
        }
    }

    /// The reduced graph: edges with `weight >= threshold` and the nodes
    /// they touch ("we first discard from the event graph edges whose
    /// weights are below the threshold T", §3.1).
    pub fn reduce(&self, threshold: u64) -> EventGraph {
        let mut g = EventGraph::new();
        for (&(from, to), &data) in &self.edges {
            if data.weight >= threshold {
                g.edges.insert((from, to), data);
                g.nodes
                    .insert(from, self.nodes.get(&from).copied().unwrap_or(0));
                g.nodes
                    .insert(to, self.nodes.get(&to).copied().unwrap_or(0));
            }
        }
        g
    }

    /// Outgoing edges of `event`.
    pub fn successors(&self, event: EventId) -> impl Iterator<Item = (EventId, &EdgeData)> {
        self.edges
            .range((event, EventId(0))..=(event, EventId(u32::MAX)))
            .map(|(&(_, to), data)| (to, data))
    }

    /// Incoming edges of `event` (linear scan; reporting only).
    pub fn predecessors(&self, event: EventId) -> Vec<(EventId, &EdgeData)> {
        self.edges
            .iter()
            .filter(|(&(_, to), _)| to == event)
            .map(|(&(from, _), data)| (from, data))
            .collect()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Graphviz rendering with weights; solid edges are synchronous, dashed
    /// asynchronous (the key of Fig 5), bold both-styles for mixed.
    pub fn to_dot(&self, module: &Module) -> String {
        let mut out = String::from("digraph events {\n  rankdir=TB;\n  node [shape=box];\n");
        for (&node, &count) in &self.nodes {
            let _ = writeln!(
                out,
                "  \"{}\" [label=\"{} ({count})\"];",
                module.event_name(node),
                module.event_name(node)
            );
        }
        for (&(from, to), data) in &self.edges {
            let style = match data.mode() {
                EdgeMode::Sync => "solid",
                EdgeMode::Async => "dashed",
                EdgeMode::Mixed => "bold",
            };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\", style={}];",
                module.event_name(from),
                module.event_name(to),
                data.weight,
                style
            );
        }
        out.push_str("}\n");
        out
    }

    /// A compact text listing (for reports): one `from -> to weight mode`
    /// line per edge, sorted by descending weight.
    pub fn edge_listing(&self, module: &Module) -> String {
        let mut edges: Vec<_> = self.edges.iter().collect();
        edges.sort_by(|a, b| b.1.weight.cmp(&a.1.weight).then(a.0.cmp(b.0)));
        let mut out = String::new();
        for (&(from, to), data) in edges {
            let _ = writeln!(
                out,
                "{:>6}  {:5}  {} -> {}",
                data.weight,
                match data.mode() {
                    EdgeMode::Sync => "sync",
                    EdgeMode::Async => "async",
                    EdgeMode::Mixed => "mixed",
                },
                module.event_name(from),
                module.event_name(to)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_events::TraceRecord;

    fn raise(event: u32, mode: RaiseMode) -> TraceRecord {
        TraceRecord::Raise {
            event: EventId(event),
            mode,
            depth: 0,
            at: 0,
        }
    }

    fn trace_of(seq: &[(u32, RaiseMode)]) -> Trace {
        Trace {
            records: seq.iter().map(|&(e, m)| raise(e, m)).collect(),
        }
    }

    #[test]
    fn graph_builder_counts_consecutive_pairs() {
        // A B A B A  =>  A->B x2, B->A x2
        let t = trace_of(&[
            (0, RaiseMode::Sync),
            (1, RaiseMode::Sync),
            (0, RaiseMode::Sync),
            (1, RaiseMode::Sync),
            (0, RaiseMode::Sync),
        ]);
        let g = EventGraph::from_trace(&t);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edges[&(EventId(0), EventId(1))].weight, 2);
        assert_eq!(g.edges[&(EventId(1), EventId(0))].weight, 2);
        assert_eq!(g.nodes[&EventId(0)], 3);
    }

    #[test]
    fn edge_mode_classification() {
        let t = trace_of(&[
            (0, RaiseMode::Sync),
            (1, RaiseMode::Sync),
            (0, RaiseMode::Async),
            (1, RaiseMode::Async),
            (2, RaiseMode::Timed),
        ]);
        let g = EventGraph::from_trace(&t);
        // 0->1 traversed twice: once sync, once async => mixed.
        assert_eq!(g.edges[&(EventId(0), EventId(1))].mode(), EdgeMode::Mixed);
        // 1->0: async only.
        assert_eq!(g.edges[&(EventId(1), EventId(0))].mode(), EdgeMode::Async);
        // 1->2 timed counts as async.
        assert_eq!(g.edges[&(EventId(1), EventId(2))].mode(), EdgeMode::Async);
    }

    #[test]
    fn reduce_drops_light_edges_and_orphan_nodes() {
        let mut t = Vec::new();
        for _ in 0..10 {
            t.push((0, RaiseMode::Sync));
            t.push((1, RaiseMode::Sync));
        }
        t.push((2, RaiseMode::Sync)); // 1->2 weight 1
        let g = EventGraph::from_trace(&trace_of(&t));
        let r = g.reduce(5);
        assert!(r.edges.contains_key(&(EventId(0), EventId(1))));
        assert!(r.edges.contains_key(&(EventId(1), EventId(0))));
        assert!(!r.edges.contains_key(&(EventId(1), EventId(2))));
        assert!(!r.nodes.contains_key(&EventId(2)));
    }

    #[test]
    fn reduce_keeps_node_occurrence_counts() {
        let t = trace_of(&[
            (0, RaiseMode::Sync),
            (1, RaiseMode::Sync),
            (0, RaiseMode::Sync),
        ]);
        let g = EventGraph::from_trace(&t);
        let r = g.reduce(1);
        assert_eq!(r.nodes[&EventId(0)], 2);
    }

    #[test]
    fn successors_iterates_in_order() {
        let t = trace_of(&[
            (5, RaiseMode::Sync),
            (1, RaiseMode::Sync),
            (5, RaiseMode::Sync),
            (3, RaiseMode::Sync),
        ]);
        let g = EventGraph::from_trace(&t);
        let succ: Vec<u32> = g.successors(EventId(5)).map(|(e, _)| e.0).collect();
        assert_eq!(succ, vec![1, 3]);
        assert_eq!(g.predecessors(EventId(5)).len(), 1);
    }

    #[test]
    fn empty_trace_empty_graph() {
        let g = EventGraph::from_trace(&Trace::new());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn single_event_has_node_but_no_edges() {
        let g = EventGraph::from_trace(&trace_of(&[(0, RaiseMode::Sync)]));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn dot_output_contains_names_and_styles() {
        let mut m = Module::new();
        m.add_event("A");
        m.add_event("B");
        let t = trace_of(&[(0, RaiseMode::Sync), (1, RaiseMode::Async)]);
        let g = EventGraph::from_trace(&t);
        let dot = g.to_dot(&m);
        assert!(dot.contains("\"A\" -> \"B\""));
        assert!(dot.contains("style=dashed"));
        let listing = g.edge_listing(&m);
        assert!(listing.contains("A -> B"));
    }

    #[test]
    fn self_loop_edges_supported() {
        let g = EventGraph::from_trace(&trace_of(&[(0, RaiseMode::Sync), (0, RaiseMode::Sync)]));
        assert_eq!(g.edges[&(EventId(0), EventId(0))].weight, 1);
    }
}
