//! Chaos equivalence on the synthetic media pipeline: the paper's
//! behavioral-equivalence guarantee holds *under injected faults*, not
//! just on the happy path.
//!
//! For any seeded plan of equivalence-safe faults (dispatch traps,
//! argument corruption, dropped/delayed timers, fuel exhaustion) and
//! either containment policy, the optimized program — monolithic or
//! per-event chains — must be observationally identical to the
//! original: same global state, same emitted packets in the same order,
//! same recorded fault sequence, same robustness counters. Faults key on
//! *top-level* occurrences precisely so this property is well defined
//! (see `pdo_events::fault` module docs). Fuel exhaustion is
//! equivalence-safe here because the optimizer runs with
//! `fuel_boundaries` on: merged super-handlers charge the boundary budget
//! at `__pdo_fuel_boundary` markers placed exactly where generic dispatch
//! charges it (before each pre-merge handler), so the occurrence aborts
//! at the same program point in both runs.
//!
//! The oracle itself (case derivation, snapshots, the equivalence assert
//! with its replay seed) lives in `tests/common/oracle.rs` and is shared
//! with the real-substrate suites (`chaos_ctp`, `chaos_seccomm`,
//! `chaos_xwin`).

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    assert_equivalent, chaos_cases, chaos_seed, observe, CaseContext, ChaosCase, Observed, POLICIES,
};
use pdo::{optimize, Optimization, OptimizeOptions};
use pdo_events::{
    FaultInjector, FaultKind, FaultPolicy, FaultSpec, Runtime, RuntimeConfig, TraceConfig,
};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_profile::Profile;
use std::cell::RefCell;
use std::rc::Rc;

/// Synchronous frames in a session (async extras ride on top).
const FRAMES: i64 = 24;

/// A small media pipeline: `Frame` updates counters and stages a value,
/// then synchronously raises `Encode` -> `Send`; `Send` emits a packet
/// through a native and arms a timed `Ack`. The chain `Frame -> Encode ->
/// Send` is exactly the shape the optimizer merges into a super-handler.
struct Pipeline {
    module: Module,
    frame: EventId,
    ack: EventId,
    bindings: Vec<(EventId, FuncId, i32)>,
}

fn pipeline() -> Pipeline {
    let mut m = Module::new();
    let frame = m.add_event("Frame");
    let encode = m.add_event("Encode");
    let send = m.add_event("Send");
    let ack = m.add_event("Ack");

    let g_frames = m.add_global("frames", Value::Int(0));
    let g_check = m.add_global("checksum", Value::Int(0));
    let g_staged = m.add_global("staged", Value::Int(0));
    let g_acks = m.add_global("acks", Value::Int(0));
    let g_ack_sum = m.add_global("ack_sum", Value::Int(0));
    let n_emit = m.add_native("emit");

    // Frame order 0: frames += 1; checksum = checksum * 31 + arg.
    let mut b = FunctionBuilder::new("frame_stat", 1);
    let v = b.load_global(g_frames);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g_frames, s);
    let c = b.load_global(g_check);
    let k = b.const_int(31);
    let scaled = b.bin(BinOp::Mul, c, k);
    let mixed = b.bin(BinOp::Add, scaled, b.param(0));
    b.store_global(g_check, mixed);
    b.ret(None);
    let h_stat = m.add_function(b.finish());

    // Frame order 10: staged = arg * 2 + 1, then the nested chain.
    let mut b = FunctionBuilder::new("frame_encode", 1);
    let two = b.const_int(2);
    let d = b.bin(BinOp::Mul, b.param(0), two);
    let one = b.const_int(1);
    let st = b.bin(BinOp::Add, d, one);
    b.store_global(g_staged, st);
    b.raise(encode, RaiseMode::Sync, &[]);
    b.ret(None);
    let h_encode = m.add_function(b.finish());

    // Encode: staged ^= 0x5A, then Send.
    let mut b = FunctionBuilder::new("encode_xform", 0);
    let v = b.load_global(g_staged);
    let mask = b.const_int(0x5A);
    let x = b.bin(BinOp::Xor, v, mask);
    b.store_global(g_staged, x);
    b.raise(send, RaiseMode::Sync, &[]);
    b.ret(None);
    let h_enc = m.add_function(b.finish());

    // Send: emit the staged packet, arm a timed Ack carrying it.
    let mut b = FunctionBuilder::new("send_emit", 0);
    let v = b.load_global(g_staged);
    let _ = b.call_native(n_emit, &[v]);
    let delay = b.const_int(1_000);
    b.raise(ack, RaiseMode::Timed, &[delay, v]);
    b.ret(None);
    let h_send = m.add_function(b.finish());

    // Ack: acks += 1; ack_sum += arg.
    let mut b = FunctionBuilder::new("ack_count", 1);
    let v = b.load_global(g_acks);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g_acks, s);
    let t = b.load_global(g_ack_sum);
    let u = b.bin(BinOp::Add, t, b.param(0));
    b.store_global(g_ack_sum, u);
    b.ret(None);
    let h_ack = m.add_function(b.finish());

    let bindings = vec![
        (frame, h_stat, 0),
        (frame, h_encode, 10),
        (encode, h_enc, 0),
        (send, h_send, 0),
        (ack, h_ack, 0),
    ];
    Pipeline {
        module: m,
        frame,
        ack,
        bindings,
    }
}

/// Runs the deterministic workload on `module` (optionally with compiled
/// chains installed) under `policy` and `plan`, and snapshots observables
/// through the shared oracle (`substrate` = the emitted packet stream).
fn run(
    p: &Pipeline,
    module: &Module,
    chains: Option<&Optimization>,
    policy: FaultPolicy,
    plan: &[FaultSpec],
) -> (Observed<Vec<Value>>, Runtime) {
    let mut rt = Runtime::with_config(
        module.clone(),
        RuntimeConfig {
            fault_policy: policy,
            ..Default::default()
        },
    );
    oracle::arm_tracing_and_histograms(&mut rt);
    for &(e, h, order) in &p.bindings {
        rt.bind(e, h, order).expect("bind");
    }
    let emitted = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&emitted);
    rt.bind_native_by_name("emit", move |args| {
        sink.borrow_mut().push(args[0].clone());
        Ok(Value::Unit)
    })
    .expect("bind emit");
    if let Some(opt) = chains {
        opt.install_chains(&mut rt);
    }
    rt.set_trace_config(TraceConfig::full());
    rt.set_fault_injector(FaultInjector::from_plan(plan.iter().copied()));

    for i in 0..FRAMES {
        rt.raise(p.frame, RaiseMode::Sync, &[Value::Int(i)])
            .expect("containment policy must not abort a sync raise");
        if i % 5 == 0 {
            rt.raise(p.frame, RaiseMode::Async, &[Value::Int(100 + i)])
                .expect("async raise");
        }
    }
    rt.run_until_idle()
        .expect("containment policy must not abort the drain");

    let packets = emitted.borrow().clone();
    let observed = observe(&mut rt, p.module.globals.len(), packets);
    (observed, rt)
}

/// Profiles the happy path and optimizes; `subsume` picks one monolithic
/// guard set per chain over Fig 14's per-event chains.
fn optimized(p: &Pipeline, subsume: bool) -> Optimization {
    let (_, mut rt) = run(p, &p.module, None, FaultPolicy::Abort, &[]);
    rt.set_trace_config(TraceConfig::full());
    for i in 0..FRAMES {
        rt.raise(p.frame, RaiseMode::Sync, &[Value::Int(i)])
            .expect("profiling raise");
    }
    rt.run_until_idle().expect("profiling drain");
    let profile = Profile::from_trace(&rt.take_trace(), 10);
    let mut opts = OptimizeOptions::new(10);
    opts.subsume = subsume;
    // Boundary markers make ExhaustFuel trip at the same program points in
    // merged code as in generic dispatch.
    opts.fuel_boundaries = true;
    let opt = optimize(&p.module, rt.registry(), &profile, &opts);
    assert!(
        !opt.chains.is_empty(),
        "the pipeline must produce at least one compiled chain"
    );
    opt
}

/// The capstone property: for any seeded fault plan and either
/// containment policy, original and optimized runs (monolithic and
/// per-event) observe identical behavior.
#[test]
fn optimized_program_is_observationally_identical_under_faults() {
    let p = pipeline();
    let events = [p.frame, p.ack];
    let forms = [
        ("monolithic", optimized(&p, true)),
        ("per-event", optimized(&p, false)),
    ];

    let base = chaos_seed();
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 8, 32);
        for policy in POLICIES {
            let (reference, _) = run(&p, &p.module, None, policy, &case.plan);
            for (form, opt) in &forms {
                let (observed, _) = run(&p, &opt.module, Some(opt), policy, &case.plan);
                let ctx = CaseContext {
                    substrate: "equivalence",
                    chain_form: form,
                    policy,
                    case: &case,
                };
                assert_equivalent(&ctx, &reference, &observed);
            }
        }
    }
}

#[test]
fn harness_is_meaningful_fastpath_used_when_unfaulted() {
    let p = pipeline();
    let opt = optimized(&p, true);
    let (reference, _) = run(&p, &p.module, None, FaultPolicy::SkipEvent, &[]);
    let (observed, rt) = run(&p, &opt.module, Some(&opt), FaultPolicy::SkipEvent, &[]);
    assert_eq!(observed, reference);
    assert!(
        rt.cost.fastpath_hits > 0,
        "an unfaulted run must actually exercise the compiled chains"
    );
    assert_eq!(reference.substrate.len() as i64, FRAMES + FRAMES / 5 + 1);
}

#[test]
fn despecialize_removes_chain_but_preserves_behavior() {
    let p = pipeline();
    let opt = optimized(&p, true);
    let plan = [FaultSpec {
        event: p.frame,
        occurrence: 2,
        kind: FaultKind::TrapDispatch,
    }];
    let (reference, _) = run(&p, &p.module, None, FaultPolicy::Despecialize, &plan);
    let (observed, rt) = run(
        &p,
        &opt.module,
        Some(&opt),
        FaultPolicy::Despecialize,
        &plan,
    );
    assert_eq!(observed, reference);
    assert!(
        rt.spec().get(p.frame).is_none(),
        "the faulting chain must be removed"
    );
    // The faulted occurrence was still drained (generically): every frame
    // landed in the counters.
    assert_eq!(observed.globals[0], Value::Int(FRAMES + FRAMES / 5 + 1));
    assert_eq!(
        observed.counters.injected_faults, 1,
        "one injected fault recorded"
    );
}
