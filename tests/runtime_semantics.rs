//! Cross-crate runtime-semantics tests: virtual-time ordering, queue
//! fairness, guard arity rules, chain lifecycle, and reserved natives.

use pdo_events::{
    CompiledChain, FaultInjector, FaultKind, FaultPolicy, FaultSpec, Guard, Runtime, RuntimeConfig,
    RuntimeError, TraceConfig,
};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};

/// A module whose single handler appends its event's tag digit to a
/// base-10 log global, so dispatch order is observable.
fn logger_module(events: usize) -> (Module, Vec<EventId>, pdo_ir::GlobalId, Vec<FuncId>) {
    let mut m = Module::new();
    let ids: Vec<EventId> = (0..events).map(|i| m.add_event(format!("E{i}"))).collect();
    let g = m.add_global("log", Value::Int(0));
    let funcs: Vec<FuncId> = (0..events)
        .map(|i| {
            let mut b = FunctionBuilder::new(format!("h{i}"), 0);
            let v = b.load_global(g);
            let ten = b.const_int(10);
            let s = b.bin(BinOp::Mul, v, ten);
            let d = b.const_int(i as i64 + 1);
            let o = b.bin(BinOp::Add, s, d);
            b.store_global(g, o);
            b.ret(None);
            m.add_function(b.finish())
        })
        .collect();
    (m, ids, g, funcs)
}

fn setup(events: usize) -> (Runtime, Vec<EventId>, pdo_ir::GlobalId, Vec<FuncId>) {
    let (m, ids, g, funcs) = logger_module(events);
    let mut rt = Runtime::new(m);
    for (e, f) in ids.iter().zip(&funcs) {
        rt.bind(*e, *f, 0).expect("bind");
    }
    (rt, ids, g, funcs)
}

#[test]
fn timers_fire_in_deadline_order_regardless_of_submission() {
    let (mut rt, ids, g, _) = setup(3);
    // Submit out of order: deadlines 300, 100, 200 for events 0, 1, 2.
    rt.raise(ids[0], RaiseMode::Timed, &[Value::Int(300)])
        .unwrap();
    rt.raise(ids[1], RaiseMode::Timed, &[Value::Int(100)])
        .unwrap();
    rt.raise(ids[2], RaiseMode::Timed, &[Value::Int(200)])
        .unwrap();
    rt.run_until_idle().unwrap();
    // Order: E1 (digit 2), E2 (digit 3), E0 (digit 1).
    assert_eq!(rt.global(g), &Value::Int(231));
    assert_eq!(rt.clock_ns(), 300);
}

#[test]
fn async_queue_drains_before_timers_advance_clock() {
    let (mut rt, ids, g, _) = setup(3);
    rt.raise(ids[0], RaiseMode::Timed, &[Value::Int(50)])
        .unwrap();
    rt.raise(ids[1], RaiseMode::Async, &[]).unwrap();
    rt.raise(ids[2], RaiseMode::Async, &[]).unwrap();
    rt.run_until_idle().unwrap();
    // Async events (digits 2 then 3) run before the clock advances to the
    // timer (digit 1).
    assert_eq!(rt.global(g), &Value::Int(231));
}

#[test]
fn run_until_leaves_future_timers_pending() {
    let (mut rt, ids, _, _) = setup(2);
    rt.raise(ids[0], RaiseMode::Timed, &[Value::Int(100)])
        .unwrap();
    rt.raise(ids[1], RaiseMode::Timed, &[Value::Int(10_000)])
        .unwrap();
    let steps = rt.run_until(1000).unwrap();
    assert_eq!(steps, 1);
    assert_eq!(rt.pending(), 1);
}

#[test]
fn chain_with_wrong_arity_never_fires() {
    let (mut rt, ids, g, funcs) = setup(1);
    rt.install_chain(CompiledChain {
        head: ids[0],
        guards: vec![Guard::capture(rt.registry(), ids[0])],
        func: funcs[0],
        params: 3, // wrong: handler takes 0
    });
    rt.raise(ids[0], RaiseMode::Sync, &[]).unwrap();
    // Fast path skipped (arity mismatch counts as a miss), generic ran.
    assert_eq!(rt.cost.fastpath_hits, 0);
    assert_eq!(rt.global(g), &Value::Int(1));
}

#[test]
fn removing_a_chain_restores_generic_dispatch() {
    let (mut rt, ids, g, funcs) = setup(1);
    rt.install_chain(CompiledChain {
        head: ids[0],
        guards: vec![Guard::capture(rt.registry(), ids[0])],
        func: funcs[0],
        params: 0,
    });
    rt.raise(ids[0], RaiseMode::Sync, &[]).unwrap();
    assert_eq!(rt.cost.fastpath_hits, 1);
    assert!(rt.remove_chain(ids[0]).is_some());
    rt.raise(ids[0], RaiseMode::Sync, &[]).unwrap();
    assert_eq!(rt.cost.fastpath_hits, 1);
    assert_eq!(rt.cost.registry_lookups, 1);
    assert_eq!(rt.global(g), &Value::Int(11));
}

#[test]
fn cancel_timer_native_cancels_pending_events() {
    let mut m = Module::new();
    let tick = m.add_event("Tick");
    let cancel = m.add_event("Cancel");
    let g = m.add_global("fired", Value::Int(0));
    let n_cancel = m.add_native(Runtime::NATIVE_CANCEL_TIMER);

    let mut b = FunctionBuilder::new("on_tick", 0);
    let v = b.load_global(g);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g, s);
    b.ret(None);
    let on_tick = m.add_function(b.finish());

    let mut b = FunctionBuilder::new("on_cancel", 0);
    let ev = b.const_int(i64::from(tick.0));
    let n = b.call_native(n_cancel, &[ev]);
    b.ret(Some(n));
    let on_cancel = m.add_function(b.finish());

    let mut rt = Runtime::new(m);
    rt.bind(tick, on_tick, 0).unwrap();
    rt.bind(cancel, on_cancel, 0).unwrap();
    rt.raise(tick, RaiseMode::Timed, &[Value::Int(100)])
        .unwrap();
    rt.raise(tick, RaiseMode::Timed, &[Value::Int(200)])
        .unwrap();
    rt.raise(cancel, RaiseMode::Sync, &[]).unwrap();
    rt.run_until_idle().unwrap();
    assert_eq!(rt.global(g), &Value::Int(0), "both timers cancelled");
}

#[test]
fn step_budget_applies_per_run_call() {
    let (rt_probe, ids_probe, _, _) = setup(1);
    drop((rt_probe.pending(), ids_probe)); // silence unused

    let (m, ids, _, funcs) = logger_module(1);
    let mut rt = Runtime::with_config(
        m,
        RuntimeConfig {
            max_steps: 3,
            ..Default::default()
        },
    );
    rt.bind(ids[0], funcs[0], 0).unwrap();
    for _ in 0..3 {
        rt.raise(ids[0], RaiseMode::Async, &[]).unwrap();
    }
    assert_eq!(rt.run_until_idle(), Ok(3));
    for _ in 0..4 {
        rt.raise(ids[0], RaiseMode::Async, &[]).unwrap();
    }
    assert_eq!(rt.run_until_idle(), Err(RuntimeError::StepLimit));
}

/// The fault injector counts an occurrence when the workload raises it or
/// the queue or timer heap pops it — never when it is raised synchronously
/// inside one of those, however shallow the nesting: a popped parent
/// dispatches at depth 0, and its child must not count either.
#[test]
fn faults_key_on_workload_raises_and_pops_never_on_nested_dispatch() {
    let (mut m, ids, g, funcs) = logger_module(2);
    let (parent, child) = (ids[0], ids[1]);
    let mut b = FunctionBuilder::new("raise_child", 0);
    b.raise(child, RaiseMode::Sync, &[]);
    b.ret(None);
    let raise_child = m.add_function(b.finish());
    let config = RuntimeConfig {
        fault_policy: FaultPolicy::SkipEvent,
        ..Default::default()
    };
    let mut rt = Runtime::with_config(m, config);
    rt.bind(parent, raise_child, 0).unwrap();
    rt.bind(child, funcs[1], 0).unwrap();
    let trap = |occurrence| FaultSpec {
        event: child,
        occurrence,
        kind: FaultKind::TrapDispatch,
    };
    rt.set_fault_injector(FaultInjector::from_plan((0..3).map(trap)));
    let mut raise = |event, mode| {
        let delay = [Value::Int(10)];
        let args: &[Value] = if mode == RaiseMode::Timed {
            &delay
        } else {
            &[]
        };
        rt.raise(event, mode, args).unwrap();
        rt.run_until_idle().unwrap();
        (rt.global(g).clone(), rt.stats().injected_faults)
    };
    let modes = [RaiseMode::Sync, RaiseMode::Async, RaiseMode::Timed];

    // Nested in a workload-raised, a queued and a timed parent: uncounted.
    let after = modes.map(|mode| raise(parent, mode));
    assert_eq!(
        after[2],
        (Value::Int(222), 0),
        "a nested child never counts"
    );
    // Raised by the workload, popped off the queue, popped off the timer
    // heap: occurrences 0, 1 and 2, each trapped.
    let after = modes.map(|mode| raise(child, mode));
    assert_eq!(after[2], (Value::Int(222), 3));
    // Occurrence 3 is unplanned, and nesting still does not count.
    raise(child, RaiseMode::Sync);
    assert_eq!(raise(parent, RaiseMode::Async), (Value::Int(22222), 3));
}

#[test]
fn tracing_depth_reflects_sync_nesting() {
    // E0's handler raises E1 sync; E1's raise record must carry depth 1.
    let mut m = Module::new();
    let e0 = m.add_event("E0");
    let e1 = m.add_event("E1");
    let mut b = FunctionBuilder::new("h0", 0);
    b.raise(e1, RaiseMode::Sync, &[]);
    b.ret(None);
    let h0 = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("h1", 0);
    b.ret(None);
    let h1 = m.add_function(b.finish());

    let mut rt = Runtime::new(m);
    rt.bind(e0, h0, 0).unwrap();
    rt.bind(e1, h1, 0).unwrap();
    rt.set_trace_config(TraceConfig::events_only());
    rt.raise(e0, RaiseMode::Sync, &[]).unwrap();
    let depths: Vec<u32> = rt
        .take_trace()
        .records
        .iter()
        .filter_map(|r| match r {
            pdo_events::TraceRecord::Raise { depth, .. } => Some(*depth),
            _ => None,
        })
        .collect();
    assert_eq!(depths, vec![0, 1]);
}

#[test]
fn fuel_budget_is_shared_across_dispatches() {
    let (m, ids, _, funcs) = logger_module(1);
    let mut rt = Runtime::with_config(
        m,
        RuntimeConfig {
            fuel: Some(40),
            ..Default::default()
        },
    );
    rt.bind(ids[0], funcs[0], 0).unwrap();
    // Each dispatch costs ~7 instructions; the 40-instruction budget
    // admits a handful of dispatches, then faults.
    let mut failures = 0;
    for _ in 0..20 {
        if rt.raise(ids[0], RaiseMode::Sync, &[]).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "fuel must eventually exhaust");
}
