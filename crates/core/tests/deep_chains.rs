//! Targeted optimizer tests: deep chains, conditional raises under
//! speculation, and fallback after re-optimization.

use pdo::{optimize, OptimizeOptions};
use pdo_events::{Runtime, TraceConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, RaiseMode, Value};
use pdo_profile::Profile;

/// Builds a linear chain `E0 → E1 → … → E{n-1}`: each event has a single
/// handler appending its digit (base 10) and synchronously raising the next.
fn chain_module(n: usize) -> (Module, Vec<EventId>, GlobalId, Vec<FuncId>) {
    let mut m = Module::new();
    let events: Vec<EventId> = (0..n).map(|i| m.add_event(format!("E{i}"))).collect();
    let g = m.add_global("log", Value::Int(0));
    let mut funcs = Vec::new();
    for i in 0..n {
        let mut b = FunctionBuilder::new(format!("h{i}"), 0);
        let v = b.load_global(g);
        let ten = b.const_int(10);
        let s = b.bin(BinOp::Mul, v, ten);
        let d = b.const_int(i as i64 + 1);
        let o = b.bin(BinOp::Add, s, d);
        b.store_global(g, o);
        if i + 1 < n {
            b.raise(events[i + 1], RaiseMode::Sync, &[]);
        }
        b.ret(None);
        funcs.push(m.add_function(b.finish()));
    }
    (m, events, g, funcs)
}

fn bound_runtime(m: &Module, events: &[EventId], funcs: &[FuncId]) -> Runtime {
    let mut rt = Runtime::new(m.clone());
    for (e, f) in events.iter().zip(funcs) {
        rt.bind(*e, *f, 0).unwrap();
    }
    rt
}

#[test]
fn five_deep_chain_collapses_to_one_dispatch() {
    let (m, events, g, funcs) = chain_module(5);
    let mut rt = bound_runtime(&m, &events, &funcs);
    rt.set_trace_config(TraceConfig::full());
    for _ in 0..50 {
        rt.raise(events[0], RaiseMode::Sync, &[]).unwrap();
    }
    let profile = Profile::from_trace(&rt.take_trace(), 25);
    let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(25));
    // Head super-handler subsumed the entire chain.
    let head = opt
        .report
        .events
        .iter()
        .find(|e| e.event == events[0])
        .expect("head optimized");
    assert_eq!(head.subsumed_raises, 1, "direct child subsumed");
    // Transitively, the chain guard covers all five events.
    let chain = opt.chains.iter().find(|c| c.head == events[0]).unwrap();
    assert_eq!(chain.guards.len(), 5, "guards: {:?}", chain.guards);

    let mut fast = bound_runtime(&opt.module, &events, &funcs);
    opt.install_chains(&mut fast);
    fast.raise(events[0], RaiseMode::Sync, &[]).unwrap();
    assert_eq!(fast.global(g), &Value::Int(12345));
    assert_eq!(fast.cost.fastpath_hits, 1);
    assert_eq!(fast.cost.raises_sync, 0, "no nested raises remain");
    assert_eq!(fast.cost.registry_lookups, 0);
}

#[test]
fn conditional_raise_subsumed_speculatively_keeps_both_branches() {
    // E0's handler raises E1 only for even inputs; speculation specializes
    // the raise site anyway — both branches must behave.
    let mut m = Module::new();
    let e0 = m.add_event("E0");
    let e1 = m.add_event("E1");
    let g = m.add_global("hits", Value::Int(0));

    let mut b = FunctionBuilder::new("h0", 1);
    let fire = b.new_block();
    let skip = b.new_block();
    let two = b.const_int(2);
    let rem = b.bin(BinOp::Rem, b.param(0), two);
    let zero = b.const_int(0);
    let even = b.bin(BinOp::Eq, rem, zero);
    b.branch(even, fire, skip);
    b.switch_to(fire);
    b.raise(e1, RaiseMode::Sync, &[]);
    b.ret(None);
    b.switch_to(skip);
    b.ret(None);
    let h0 = m.add_function(b.finish());

    let mut b = FunctionBuilder::new("h1", 0);
    let v = b.load_global(g);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g, s);
    b.ret(None);
    let h1 = m.add_function(b.finish());

    let mut rt = Runtime::new(m.clone());
    rt.bind(e0, h0, 0).unwrap();
    rt.bind(e1, h1, 0).unwrap();
    rt.set_trace_config(TraceConfig::full());
    // Profile only odd inputs: the nested raise is NEVER observed.
    for i in 0..40 {
        rt.raise(e0, RaiseMode::Sync, &[Value::Int(i * 2 + 1)])
            .unwrap();
    }
    let profile = Profile::from_trace(&rt.take_trace(), 20);

    let mut opts = OptimizeOptions::new(20);
    opts.speculative = true;
    opts.merge_all = true;
    let opt = optimize(&m, rt.registry(), &profile, &opts);

    let mut fast = Runtime::new(opt.module.clone());
    fast.bind(e0, h0, 0).unwrap();
    fast.bind(e1, h1, 0).unwrap();
    opt.install_chains(&mut fast);
    // Both parities behave correctly despite the unobserved branch.
    fast.raise(e0, RaiseMode::Sync, &[Value::Int(3)]).unwrap();
    assert_eq!(fast.global(g), &Value::Int(0));
    fast.raise(e0, RaiseMode::Sync, &[Value::Int(4)]).unwrap();
    assert_eq!(fast.global(g), &Value::Int(1));
}

#[test]
fn reoptimization_after_rebinding_restores_the_fast_path() {
    let (m, events, g, funcs) = chain_module(3);
    let mut rt = bound_runtime(&m, &events, &funcs);
    rt.set_trace_config(TraceConfig::full());
    for _ in 0..30 {
        rt.raise(events[0], RaiseMode::Sync, &[]).unwrap();
    }
    let profile = Profile::from_trace(&rt.take_trace(), 15);
    let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(15));

    let mut fast = bound_runtime(&opt.module, &events, &funcs);
    opt.install_chains(&mut fast);

    // Invalidate by re-binding the middle event — under another order key:
    // putting back the very binding that was taken off would leave the
    // list the chains were compiled for, and the guards would hold.
    let rebind = |rt: &mut Runtime| {
        rt.unbind(events[1], funcs[1]);
        rt.bind(events[1], funcs[1], 7).unwrap();
    };
    rebind(&mut fast);
    fast.raise(events[0], RaiseMode::Sync, &[]).unwrap();
    // The head chain misses, and the generic path's nested raise of E1
    // misses E1's own stale chain too.
    assert!(fast.cost.fastpath_misses >= 1);
    assert_eq!(fast.global(g), &Value::Int(123));

    // Recovering the fast path is the paper's offline loop: re-profile a
    // fresh session of the (original) program under the new configuration,
    // re-optimize, and deploy a fresh specialized session. A live runtime's
    // module is immutable, so re-optimization always ships as a new
    // deployment.
    let mut rt2 = bound_runtime(&m, &events, &funcs);
    rebind(&mut rt2);
    rt2.set_trace_config(TraceConfig::full());
    for _ in 0..30 {
        rt2.raise(events[0], RaiseMode::Sync, &[]).unwrap();
    }
    let profile2 = Profile::from_trace(&rt2.take_trace(), 15);
    let opt2 = optimize(&m, rt2.registry(), &profile2, &OptimizeOptions::new(15));

    let mut fast2 = bound_runtime(&opt2.module, &events, &funcs);
    rebind(&mut fast2);
    opt2.install_chains(&mut fast2);
    fast2.raise(events[0], RaiseMode::Sync, &[]).unwrap();
    assert_eq!(fast2.cost.fastpath_hits, 1, "fast path restored");
    assert_eq!(fast2.global(g), &Value::Int(123));
}
