//! Property test: profile-directed optimization preserves observable
//! behaviour on randomly generated event programs.
//!
//! Programs are generated as layered DAGs (handlers may only synchronously
//! raise strictly higher-numbered events, so every raise sequence
//! terminates). For each generated program, binding plan, and workload, the
//! test runs the original runtime and the optimized runtime (chains
//! installed) and asserts the final global state is identical — including
//! after a random mid-run re-binding that invalidates some guards.

use pdo::{optimize, OptimizeOptions};
use pdo_events::{Runtime, TraceConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, RaiseMode, Value};
use pdo_profile::Profile;
use proptest::prelude::*;

const GLOBALS: u32 = 3;

/// One primitive op inside a generated handler body.
#[derive(Debug, Clone)]
enum Op {
    /// `g += k` under the lock.
    BumpLocked { global: u32, k: i64 },
    /// `g = g * 3 + k` without a lock.
    Mix { global: u32, k: i64 },
    /// Synchronously raise a higher event (offset from own + 1).
    RaiseSync { offset: u32 },
    /// Asynchronously raise a higher event.
    RaiseAsync { offset: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..GLOBALS, -5i64..5).prop_map(|(global, k)| Op::BumpLocked { global, k }),
        (0..GLOBALS, -5i64..5).prop_map(|(global, k)| Op::Mix { global, k }),
        (0u32..3).prop_map(|offset| Op::RaiseSync { offset }),
        (0u32..3).prop_map(|offset| Op::RaiseAsync { offset }),
    ]
}

#[derive(Debug, Clone)]
struct ProgramSpec {
    /// events[i] = handlers, each a list of ops.
    events: Vec<Vec<Vec<Op>>>,
    /// Workload: (event index, sync?) raises from the app.
    workload: Vec<(u32, bool)>,
    /// Optimizer configuration toggles.
    threshold: u64,
    subsume: bool,
    merge_all: bool,
    speculative: bool,
    inline: bool,
    compiler_passes: bool,
    /// Re-bind experiment: unbind this (event, handler-position) mid-run.
    rebind: Option<(u32, u32)>,
}

fn spec_strategy() -> impl Strategy<Value = ProgramSpec> {
    let handler = prop::collection::vec(op_strategy(), 1..5);
    let event = prop::collection::vec(handler, 0..3);
    let events = prop::collection::vec(event, 2..5);
    (
        events,
        prop::collection::vec((0u32..4, any::<bool>()), 1..12),
        1u64..6,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::option::of((0u32..4, 0u32..2)),
    )
        .prop_map(
            |(
                events,
                workload,
                threshold,
                subsume,
                merge_all,
                speculative,
                inline,
                compiler_passes,
                rebind,
            )| ProgramSpec {
                events,
                workload,
                threshold,
                subsume,
                merge_all,
                speculative,
                inline,
                compiler_passes,
                rebind,
            },
        )
}

struct Built {
    module: Module,
    bindings: Vec<(EventId, FuncId, i32)>,
    globals: Vec<GlobalId>,
}

fn build(spec: &ProgramSpec) -> Built {
    let mut m = Module::new();
    let n_events = spec.events.len();
    let events: Vec<EventId> = (0..n_events)
        .map(|i| m.add_event(format!("E{i}")))
        .collect();
    let globals: Vec<GlobalId> = (0..GLOBALS)
        .map(|i| m.add_global(format!("g{i}"), Value::Int(0)))
        .collect();

    let mut bindings = Vec::new();
    for (ei, handlers) in spec.events.iter().enumerate() {
        for (hi, ops) in handlers.iter().enumerate() {
            let mut b = FunctionBuilder::new(format!("h_{ei}_{hi}"), 0);
            for op in ops {
                match op {
                    Op::BumpLocked { global, k } => {
                        let g = globals[*global as usize];
                        b.lock(g);
                        let v = b.load_global(g);
                        let kk = b.const_int(*k);
                        let s = b.bin(BinOp::Add, v, kk);
                        b.store_global(g, s);
                        b.unlock(g);
                    }
                    Op::Mix { global, k } => {
                        let g = globals[*global as usize];
                        let v = b.load_global(g);
                        let three = b.const_int(3);
                        let t = b.bin(BinOp::Mul, v, three);
                        let kk = b.const_int(*k);
                        let s = b.bin(BinOp::Add, t, kk);
                        b.store_global(g, s);
                    }
                    Op::RaiseSync { offset } => {
                        let target = ei + 1 + *offset as usize;
                        if target < n_events {
                            b.raise(events[target], RaiseMode::Sync, &[]);
                        }
                    }
                    Op::RaiseAsync { offset } => {
                        let target = ei + 1 + *offset as usize;
                        if target < n_events {
                            b.raise(events[target], RaiseMode::Async, &[]);
                        }
                    }
                }
            }
            b.ret(None);
            let f = m.add_function(b.finish());
            bindings.push((events[ei], f, hi as i32));
        }
    }
    Built {
        module: m,
        bindings,
        globals,
    }
}

fn runtime_of(module: &Module, bindings: &[(EventId, FuncId, i32)]) -> Runtime {
    let mut rt = Runtime::new(module.clone());
    for &(e, f, o) in bindings {
        rt.bind(e, f, o).expect("bind");
    }
    rt
}

fn run_workload(
    rt: &mut Runtime,
    spec: &ProgramSpec,
    n_events: usize,
    bindings: &[(EventId, FuncId, i32)],
) -> Vec<Value> {
    for (i, &(ev, sync)) in spec.workload.iter().enumerate() {
        let ev = EventId(ev % n_events as u32);
        let mode = if sync {
            RaiseMode::Sync
        } else {
            RaiseMode::Async
        };
        rt.raise(ev, mode, &[]).expect("raise");
        rt.run_until_idle().expect("drain");
        // Optional mid-run re-binding halfway through the workload.
        if i == spec.workload.len() / 2 {
            if let Some((re, rh)) = spec.rebind {
                let event = EventId(re % n_events as u32);
                let bound: Vec<FuncId> = bindings
                    .iter()
                    .filter(|(e, ..)| *e == event)
                    .map(|&(_, f, _)| f)
                    .collect();
                if !bound.is_empty() {
                    let victim = bound[rh as usize % bound.len()];
                    rt.unbind(event, victim);
                }
            }
        }
    }
    (0..GLOBALS)
        .map(|g| rt.global(GlobalId(g)).clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimized_program_has_identical_observable_state(spec in spec_strategy()) {
        let built = build(&spec);
        let n_events = spec.events.len();

        // Reference run.
        let mut orig = runtime_of(&built.module, &built.bindings);
        let orig_state = run_workload(&mut orig, &spec, n_events, &built.bindings);

        // Profile run (fresh runtime, same plan).
        let mut prof = runtime_of(&built.module, &built.bindings);
        prof.set_trace_config(TraceConfig::full());
        for &(ev, sync) in &spec.workload {
            let ev = EventId(ev % n_events as u32);
            let mode = if sync { RaiseMode::Sync } else { RaiseMode::Async };
            prof.raise(ev, mode, &[]).expect("raise");
            prof.run_until_idle().expect("drain");
        }
        let profile = Profile::from_trace(&prof.take_trace(), spec.threshold);

        // Optimize.
        let mut opts = OptimizeOptions::new(spec.threshold);
        opts.subsume = spec.subsume;
        opts.merge_all = spec.merge_all;
        opts.speculative = spec.speculative;
        opts.inline = spec.inline;
        opts.compiler_passes = spec.compiler_passes;
        let opt = optimize(&built.module, prof.registry(), &profile, &opts);
        pdo_ir::verify_module(&opt.module).expect("optimized module verifies");

        // Optimized run, same workload including the mid-run re-binding.
        let mut fast = runtime_of(&opt.module, &built.bindings);
        opt.install_chains(&mut fast);
        let fast_state = run_workload(&mut fast, &spec, n_events, &built.bindings);

        prop_assert_eq!(orig_state, fast_state);
        let _ = built.globals;
    }
}
