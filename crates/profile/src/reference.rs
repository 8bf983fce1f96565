//! The record fold: a walk over a recorded trace window that counts
//! straight into the graphs, with no tally in between. It is the oracle
//! the live [`pdo_events::ProfileTally`] and its replay are tested
//! against.

use crate::graph::EventGraph;
use crate::handlers::{HandlerGraph, NestedRaise, SuperHandler, SuperHandlers};
use pdo_events::{Trace, TraceRecord};
use pdo_ir::{EventId, FuncId, RaiseMode};

/// Folds `window`'s raises into `graph`: a node occurrence per raise
/// record and an edge from the raise before it, starting from `prev` and
/// leaving it at the window's last. Returns the number of raises.
pub(crate) fn fold_events(
    graph: &mut EventGraph,
    window: &Trace,
    prev: &mut Option<EventId>,
) -> u64 {
    let mut raises = 0;
    for record in &window.records {
        let TraceRecord::Raise { event, mode, .. } = record else {
            continue;
        };
        raises += 1;
        *graph.nodes.entry(*event).or_insert(0) += 1;
        if let Some(p) = *prev {
            graph.add_edge(p, *event, *mode, 1);
        }
        *prev = Some(*event);
    }
    raises
}

#[derive(Debug, Clone, Copy)]
struct OpenDispatch {
    dispatch: u64,
    event: EventId,
    /// Frames open when its first handler entered.
    depth: usize,
    /// Where its handlers start in `handlers`.
    start: usize,
}

/// Folds `window`'s handler records into `graph`. Dispatch ids grow with
/// time and the handlers of one dispatch all enter at the same frame
/// depth, so a handler entering at the depth of the innermost open
/// dispatch under another id — or at a shallower depth — means that
/// dispatch is over.
pub(crate) fn fold_handlers<S: AsRef<SuperHandler>>(
    graph: &mut HandlerGraph,
    window: &Trace,
    supers: &SuperHandlers<S>,
) {
    let mut frames: Vec<(EventId, FuncId)> = Vec::new();
    let mut open: Vec<OpenDispatch> = Vec::new();
    let mut handlers: Vec<FuncId> = Vec::new();
    for record in &window.records {
        match *record {
            TraceRecord::HandlerEnter {
                event,
                handler,
                dispatch,
                ..
            } => {
                let depth = frames.len();
                while let Some(top) = open.last() {
                    if top.depth < depth || (top.depth == depth && top.dispatch == dispatch) {
                        break;
                    }
                    close(graph, supers, &mut open, &mut handlers);
                }
                if open.last().is_none_or(|top| top.depth < depth) {
                    open.push(OpenDispatch {
                        dispatch,
                        event,
                        depth,
                        start: handlers.len(),
                    });
                }
                handlers.push(handler);
                frames.push((event, handler));
            }
            TraceRecord::HandlerExit { .. } => {
                frames.pop();
            }
            TraceRecord::Raise {
                event: child_event,
                mode: RaiseMode::Sync,
                ..
            } => {
                if let Some(&(parent_event, handler)) = frames.last() {
                    if let Some(handler) = supers.raiser(handler) {
                        let key = NestedRaise {
                            parent_event,
                            handler,
                            child_event,
                        };
                        *graph.nested.entry(key).or_insert(0) += 1;
                    }
                }
            }
            TraceRecord::Raise { .. } | TraceRecord::Fault { .. } => {}
        }
    }
    while !open.is_empty() {
        close(graph, supers, &mut open, &mut handlers);
    }
}

/// The innermost open dispatch is over: count its handler sequence.
fn close<S: AsRef<SuperHandler>>(
    graph: &mut HandlerGraph,
    supers: &SuperHandlers<S>,
    open: &mut Vec<OpenDispatch>,
    handlers: &mut Vec<FuncId>,
) {
    let top = open.pop().expect("caller checked");
    let ran = &handlers[top.start..];
    match ran.iter().find(|h| h.index() >= supers.base_functions) {
        None => graph.count_sequence(top.event, ran, 1),
        Some(&func) => {
            if let Some(merged) = supers.live(func) {
                for (event, sequence) in &merged.sequences {
                    graph.count_sequence(*event, sequence, 1);
                }
                for nested in &merged.nested {
                    *graph.nested.entry(*nested).or_insert(0) += 1;
                }
            }
        }
    }
    handlers.truncate(top.start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileBuilder;
    use pdo_events::{
        CompiledChain, FaultInjector, FaultKind, FaultPolicy, FaultSpec, Guard, ProfileTally,
        Runtime, RuntimeConfig, TraceConfig,
    };
    use pdo_ir::{BinOp, FunctionBuilder, GlobalId, Module, Value};
    use proptest::prelude::*;

    /// A handler that adds its argument to `g`, traps on an argument
    /// divisible by `trap_on` and then makes `raises`.
    fn handler(
        m: &mut Module,
        name: &str,
        g: GlobalId,
        trap_on: Option<i64>,
        raises: &[(EventId, RaiseMode)],
    ) -> FuncId {
        let mut b = FunctionBuilder::new(name, 1);
        let v = b.load_global(g);
        let sum = b.bin(BinOp::Add, v, b.param(0));
        b.store_global(g, sum);
        if let Some(k) = trap_on {
            let k = b.const_int(k);
            let rem = b.bin(BinOp::Rem, b.param(0), k);
            let one = b.const_int(1);
            b.bin(BinOp::Div, one, rem);
        }
        for &(event, mode) in raises {
            if mode == RaiseMode::Timed {
                let delay = b.const_int(5);
                b.raise(event, mode, &[delay, b.param(0)]);
            } else {
                b.raise(event, mode, &[b.param(0)]);
            }
        }
        b.ret(None);
        m.add_function(b.finish())
    }

    /// `Hot` runs three handlers — the middle one traps on multiples of 7
    /// and raises `Child` synchronously, the last queues `Leaf` — `Child`
    /// raises `Leaf` synchronously, `Leaf` traps on multiples of 11 and
    /// `Empty` has no handler. Past the five program handlers: a
    /// super-handler for `Hot` (live; traps on multiples of 3, raises
    /// `Child`) and one for `Leaf` (dead).
    struct Lab {
        module: Module,
        events: [EventId; 4],
        hot: [FuncId; 3],
        child: FuncId,
        leaf: FuncId,
        supers: SuperHandlers,
    }

    fn lab() -> Lab {
        let mut m = Module::new();
        let events = [
            m.add_event("Hot"),
            m.add_event("Child"),
            m.add_event("Leaf"),
            m.add_event("Empty"),
        ];
        let [hot_e, child_e, leaf_e, _] = events;
        let g = m.add_global("sum", Value::Int(0));
        let hot = [
            handler(&mut m, "h0", g, None, &[]),
            handler(&mut m, "h1", g, Some(7), &[(child_e, RaiseMode::Sync)]),
            handler(&mut m, "h2", g, None, &[(leaf_e, RaiseMode::Async)]),
        ];
        let child = handler(&mut m, "child", g, None, &[(leaf_e, RaiseMode::Sync)]);
        let leaf = handler(&mut m, "leaf", g, Some(11), &[]);
        let base_functions = m.functions.len();
        let hot_super = handler(
            &mut m,
            "super_hot",
            g,
            Some(3),
            &[(child_e, RaiseMode::Sync)],
        );
        let leaf_super = handler(&mut m, "super_leaf", g, None, &[]);
        let supers = SuperHandlers {
            base_functions,
            deployed: vec![
                SuperHandler {
                    func: hot_super,
                    live: true,
                    sequences: vec![(hot_e, hot.to_vec()), (child_e, vec![child])],
                    nested: vec![NestedRaise {
                        parent_event: hot_e,
                        handler: hot[1],
                        child_event: child_e,
                    }],
                },
                SuperHandler {
                    func: leaf_super,
                    live: false,
                    sequences: vec![(leaf_e, vec![leaf])],
                    nested: Vec::new(),
                },
            ],
        };
        Lab {
            module: m,
            events,
            hot,
            child,
            leaf,
            supers,
        }
    }

    /// Installs a chain for each super-handler against the bindings now
    /// live, so its guards hold until the next rebind.
    fn install_chains(rt: &mut Runtime, lab: &Lab) {
        for (head, s) in [lab.events[0], lab.events[2]]
            .into_iter()
            .zip(&lab.supers.deployed)
        {
            let guard = Guard::capture(rt.registry(), head);
            rt.install_chain(CompiledChain {
                head,
                guards: vec![guard],
                func: s.func,
                params: 1,
            });
        }
    }

    /// Drains one window three ways — the live tally, the recorded
    /// window replayed into a tally, and the record fold — and checks
    /// all three builders agree, sequence order included.
    fn check_window(
        rt: &mut Runtime,
        supers: &SuperHandlers,
        builders: &mut [ProfileBuilder; 3],
    ) -> Result<(), TestCaseError> {
        let window = rt.take_trace();
        let [live, replayed, reference] = builders;
        rt.drain_profile_tally(|tally| live.observe(tally, supers));
        replayed.observe(&ProfileTally::replay(&window.records), supers);
        reference.reference_fold(&window, supers);
        prop_assert_eq!(&*live, &*reference);
        prop_assert_eq!(&*replayed, &*reference);
        for b in builders.iter_mut() {
            b.end_epoch();
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_live_tally_profiles_what_the_record_fold_does(
            seed in any::<u64>(),
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            let lab = lab();
            let [hot_e, child_e, leaf_e, _] = lab.events;
            let policy = [FaultPolicy::SkipEvent, FaultPolicy::Despecialize, FaultPolicy::Abort]
                [(seed % 3) as usize];
            let mut rt = Runtime::with_config(
                lab.module.clone(),
                RuntimeConfig { fault_policy: policy, ..RuntimeConfig::default() },
            );
            for (order, &h) in lab.hot.iter().enumerate() {
                rt.bind(hot_e, h, order as i32).expect("bind");
            }
            rt.bind(child_e, lab.child, 0).expect("bind");
            rt.bind(leaf_e, lab.leaf, 0).expect("bind");
            let kinds = [FaultKind::TrapDispatch, FaultKind::ExhaustFuel, FaultKind::CorruptArg { index: 0 }];
            rt.set_fault_injector(FaultInjector::from_plan((0..8u64).map(|i| FaultSpec {
                event: hot_e,
                occurrence: (seed >> (8 * i)) % 64,
                kind: kinds[(i % 3) as usize],
            })));
            rt.set_trace_config(TraceConfig::full());
            rt.enable_profile_tally();
            install_chains(&mut rt, &lab);
            let mut builders: [ProfileBuilder; 3] = Default::default();
            let mut mid_bound = true;
            for r in ops {
                let arg = Value::Int((r >> 8) as i64 % 1000);
                match r % 100 {
                    0..=59 => {
                        let event = lab.events[[0, 0, 0, 1, 2, 3][(r >> 40) as usize % 6]];
                        let _ = match (r >> 32) % 8 {
                            0 => rt.raise(event, RaiseMode::Async, &[arg]),
                            1 => rt.raise(event, RaiseMode::Timed, &[Value::Int(3), arg]),
                            _ => rt.raise(event, RaiseMode::Sync, &[arg]),
                        };
                    }
                    60..=69 => {
                        if mid_bound {
                            rt.unbind(hot_e, lab.hot[1]);
                        } else {
                            rt.bind(hot_e, lab.hot[1], 1).expect("bind");
                        }
                        mid_bound = !mid_bound;
                    }
                    70..=74 => {
                        if !rt.unbind(leaf_e, lab.leaf) {
                            rt.bind(leaf_e, lab.leaf, 0).expect("bind");
                        }
                    }
                    75..=79 => install_chains(&mut rt, &lab),
                    80..=89 => {
                        let _ = rt.run_until_idle();
                    }
                    _ => check_window(&mut rt, &lab.supers, &mut builders)?,
                }
            }
            let _ = rt.run_until_idle();
            check_window(&mut rt, &lab.supers, &mut builders)?;
        }
    }
}
