//! Chaos equivalence for superinstruction fusion: a fused program is
//! observationally identical to its unfused original *under injected
//! faults*, not just on the happy path.
//!
//! The workload's handler bodies contain every shape the fusion pass
//! rewrites — the locked counter bump (`lfold.i`), the immediate checksum
//! fold (`gfold.i`), the register-operand fold (`gfold`), the single-store
//! critical section (`lstore`), and const-fed arithmetic (`bin.i`) — so
//! the sweep exercises all five superinstructions' charge-replay paths.
//! For any seeded plan of equivalence-safe faults (dispatch traps,
//! argument corruption, dropped/delayed timers, fuel exhaustion) and
//! either containment policy, the fused program must observe exactly what
//! the unfused one observes: same global state, same emitted packets,
//! same fault sequence, same robustness counters. Fuel exhaustion is the
//! sharp edge — each superinstruction charges its constituents as if they
//! executed individually, so a budget that dies in the middle of a fused
//! sequence must abort at the same constituent with the same partial
//! effects (e.g. the lock still held) as the unfused run. Argument
//! corruption drives mid-sequence eval faults through the batched-charge
//! refund path the same way.
//!
//! A second test covers the chains `pdo::optimize` builds: it fuses every
//! super-handler it finishes, with all five patterns on this workload, and
//! such a *fused chain* that traps under `FaultPolicy::Despecialize` must
//! be torn down while the session's behavior stays identical to the
//! never-optimized reference.

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
use pdo_passes::fuse_module;
use pdo_profile::Profile;
use std::cell::RefCell;
use std::rc::Rc;

/// Synchronous ticks in a session (async extras ride on top).
const TICKS: i64 = 24;

/// A pipeline whose handler bodies are built from fusable sequences:
/// `Tick` bumps a locked frame counter and stages a value, then
/// synchronously raises `Digest`, which folds the checksum, emits a
/// packet, and arms a timed `Flush`; `Flush` records the payload through
/// a locked store and a register-operand fold.
struct Pipeline {
    module: Module,
    tick: EventId,
    flush: EventId,
    bindings: Vec<(EventId, FuncId, i32)>,
}

fn pipeline() -> Pipeline {
    let mut m = Module::new();
    let tick = m.add_event("Tick");
    let digest = m.add_event("Digest");
    let flush = m.add_event("Flush");

    let g_frames = m.add_global("frames", Value::Int(0));
    let g_staged = m.add_global("staged", Value::Int(0));
    let g_digest = m.add_global("digest", Value::Int(0x5EED));
    let g_last = m.add_global("last", Value::Int(0));
    let g_sum = m.add_global("sum", Value::Int(0));
    let n_emit = m.add_native("emit");

    // Tick order 0: the locked frame bump — fuses to `lfold.i`.
    let mut b = FunctionBuilder::new("tick_bump", 1);
    b.lock(g_frames);
    let v = b.load_global(g_frames);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g_frames, s);
    b.unlock(g_frames);
    b.ret(None);
    let h_bump = m.add_function(b.finish());

    // Tick order 10: staged = arg * 2 + 3 — two `bin.i` fusions — then the
    // nested sync chain. (Not `+ 1`: merged into one body with the bump,
    // CSE would share the bump's constant and keep it live past the
    // locked sequence, which then could not fuse.)
    let mut b = FunctionBuilder::new("tick_stage", 1);
    let two = b.const_int(2);
    let d = b.bin(BinOp::Mul, b.param(0), two);
    let three = b.const_int(3);
    let st = b.bin(BinOp::Add, d, three);
    b.store_global(g_staged, st);
    b.raise(digest, RaiseMode::Sync, &[]);
    b.ret(None);
    let h_stage = m.add_function(b.finish());

    // Digest: digest ^= 0x5A — fuses to `gfold.i` — then emit the staged
    // packet and arm a timed Flush carrying it.
    let mut b = FunctionBuilder::new("digest_fold", 0);
    let v = b.load_global(g_digest);
    let mask = b.const_int(0x5A);
    let x = b.bin(BinOp::Xor, v, mask);
    b.store_global(g_digest, x);
    let p = b.load_global(g_staged);
    let _ = b.call_native(n_emit, &[p]);
    let delay = b.const_int(1_000);
    b.raise(flush, RaiseMode::Timed, &[delay, p]);
    b.ret(None);
    let h_digest = m.add_function(b.finish());

    // Flush: last = arg (a `lstore` critical section); sum += arg (a
    // register-operand `gfold`).
    let mut b = FunctionBuilder::new("flush_record", 1);
    b.lock(g_last);
    b.store_global(g_last, b.param(0));
    b.unlock(g_last);
    let v = b.load_global(g_sum);
    let u = b.bin(BinOp::Add, v, b.param(0));
    b.store_global(g_sum, u);
    b.ret(None);
    let h_flush = m.add_function(b.finish());

    let bindings = vec![
        (tick, h_bump, 0),
        (tick, h_stage, 10),
        (digest, h_digest, 0),
        (flush, h_flush, 0),
    ];
    Pipeline {
        module: m,
        tick,
        flush,
        bindings,
    }
}

/// The unconditionally fused twin of the pipeline's module; asserts every
/// superinstruction pattern actually fired so the sweep is meaningful.
fn fused_module(p: &Pipeline) -> Module {
    let mut fused = p.module.clone();
    let records = fuse_module(&mut fused, None, 0);
    for pattern in ["lfold.i", "gfold.i", "gfold", "lstore", "bin.i"] {
        assert!(
            records.iter().any(|r| r.pattern == pattern),
            "workload must exercise the `{pattern}` superinstruction; got {records:?}"
        );
    }
    pdo_ir::verify_module(&fused).expect("fused module must verify");
    assert!(fused.instr_count() < p.module.instr_count());
    fused
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

    for i in 0..TICKS {
        rt.raise(p.tick, RaiseMode::Sync, &[Value::Int(i)])
            .expect("containment policy must not abort a sync raise");
        if i % 5 == 0 {
            rt.raise(p.tick, RaiseMode::Async, &[Value::Int(100 + i)])
                .expect("async raise");
        }
    }
    rt.run_until_idle()
        .expect("containment policy must not abort the drain");

    let packets = emitted.borrow().clone();
    let observed = observe(&mut rt, p.module.globals.len(), packets);
    (observed, rt)
}

/// Profiles the happy path and optimizes it, with or without the compiler
/// passes (and the fusion that closes them).
fn optimized(p: &Pipeline, compiler_passes: bool) -> Optimization {
    let (_, mut rt) = run(p, &p.module, None, FaultPolicy::Abort, &[]);
    rt.set_trace_config(TraceConfig::full());
    for i in 0..TICKS {
        rt.raise(p.tick, RaiseMode::Sync, &[Value::Int(i)])
            .expect("profiling raise");
    }
    rt.run_until_idle().expect("profiling drain");
    let profile = Profile::from_trace(&rt.take_trace(), 10);
    let mut opts = OptimizeOptions::new(10);
    // Boundary markers make ExhaustFuel trip at the same program points in
    // merged code as in generic dispatch.
    opts.fuel_boundaries = true;
    opts.compiler_passes = compiler_passes;
    let opt = optimize(&p.module, rt.registry(), &profile, &opts);
    assert!(
        !opt.chains.is_empty(),
        "the pipeline must produce at least one compiled chain"
    );
    opt
}

/// The pipeline's chains as `optimize` builds them, asserting the chain
/// bodies genuinely contain superinstructions.
fn fused_chains(p: &Pipeline) -> Optimization {
    let opt = optimized(p, true);
    assert!(
        !opt.report.fused.is_empty(),
        "the super-handlers must contain fused sequences"
    );
    opt
}

fn has_fused_instr(f: &pdo_ir::Function) -> bool {
    f.blocks
        .iter()
        .any(|b| b.instrs.iter().any(|i| i.is_fused()))
}

#[test]
fn optimize_fuses_all_five_patterns_into_super_handlers_only() {
    let p = pipeline();
    let base = p.module.functions.len();
    let opt = fused_chains(&p);
    for pattern in ["lfold.i", "gfold.i", "gfold", "lstore", "bin.i"] {
        assert!(
            opt.report.fused.iter().any(|r| r.pattern == pattern),
            "`optimize` must fuse `{pattern}`; got {:?}",
            opt.report.fused
        );
    }
    assert!(opt.report.fused.iter().all(|r| r.func.index() >= base));
    assert_eq!(opt.module.functions[..base], p.module.functions[..]);
    assert!(opt.module.functions[base..].iter().any(has_fused_instr));

    let unfused = optimized(&p, false);
    assert!(unfused.report.fused.is_empty());
    assert!(!unfused.module.functions.iter().any(has_fused_instr));
}

/// The capstone property: for any seeded fault plan and either
/// containment policy, the fused program observes exactly what the
/// unfused original observes.
#[test]
fn fused_program_is_observationally_identical_under_faults() {
    let p = pipeline();
    let fused = fused_module(&p);
    let events = [p.tick, p.flush];

    let base = chaos_seed();
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 8, 32);
        for policy in POLICIES {
            let (reference, _) = run(&p, &p.module, None, policy, &case.plan);
            let (observed, _) = run(&p, &fused, None, policy, &case.plan);
            let ctx = CaseContext {
                substrate: "fusion",
                chain_form: "fused",
                policy,
                case: &case,
            };
            assert_equivalent(&ctx, &reference, &observed);
        }
    }
}

#[test]
fn harness_is_meaningful_unfaulted_runs_agree_and_fuse_everything() {
    let p = pipeline();
    let fused = fused_module(&p);
    let (reference, _) = run(&p, &p.module, None, FaultPolicy::SkipEvent, &[]);
    let (observed, rt) = run(&p, &fused, None, FaultPolicy::SkipEvent, &[]);
    assert_eq!(observed, reference);
    // Charge replay: the fused run executes fewer dispatched instructions
    // but charges exactly what the unfused run charges.
    assert!(rt.cost.instrs > 0);
    assert_eq!(
        reference.substrate.len() as i64,
        TICKS + TICKS / 5 + 1,
        "every tick (sync and async) must emit one packet"
    );
}

/// Despecialize-under-fault of a *fused* chain: a trap on the specialized
/// path tears the chain down, and the session's observable behavior stays
/// identical to the never-optimized reference.
#[test]
fn despecialize_removes_fused_chain_but_preserves_behavior() {
    let p = pipeline();
    let opt = fused_chains(&p);
    let plan = [FaultSpec {
        event: p.tick,
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
        rt.spec().get(p.tick).is_none(),
        "the faulting fused chain must be removed"
    );
    // The faulted occurrence was still drained (generically): every tick
    // landed in the frame counter.
    assert_eq!(observed.globals[0], Value::Int(TICKS + TICKS / 5 + 1));
    assert_eq!(
        observed.counters.injected_faults, 1,
        "one injected fault recorded"
    );
}
