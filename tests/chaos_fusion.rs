//! Chaos equivalence for superinstruction fusion: a fused program is
//! observationally identical to its unfused original *under injected
//! faults*, not just on the happy path.
//!
//! The workload's handler bodies contain every shape the fusion pass
//! rewrites — the locked counter bump (`lfold.i`), the immediate checksum
//! fold (`gfold.i`), the register-operand fold (`gfold`), the single-store
//! critical section (`lstore`), and const-fed arithmetic (`bin.i`) — so
//! the sweep exercises the constituents of all five superinstructions.
//! For any seeded plan of equivalence-safe faults (dispatch traps,
//! argument corruption, dropped/delayed timers, fuel exhaustion) over
//! `Tick`, its subsumable child `Digest` and `Flush`, and either
//! containment policy, the fused program must observe exactly what
//! the unfused one observes: same global state, same emitted packets,
//! same fault sequence, same robustness counters. Fuel exhaustion is the
//! sharp edge — each superinstruction charges its constituents as if they
//! executed individually, so a budget that dies in the middle of a fused
//! sequence must abort at the same constituent with the same partial
//! effects (e.g. the lock still held) as the unfused run. Argument
//! corruption drives mid-sequence eval faults through the same body, which
//! charges only the constituents it started.
//!
//! A second test covers the chains `pdo::optimize` builds: it fuses every
//! super-handler it finishes, with all five patterns on this workload, and
//! such a *fused chain* that traps under `FaultPolicy::Despecialize` must
//! be torn down while the session's behavior stays identical to the
//! never-optimized reference.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{sweep, Chains, ChaosCase, Pipeline, Seeded, RAISES};
use pdo::{Optimization, OptimizeOptions};
use pdo_events::{FaultKind, FaultPolicy, FaultSpec};
use pdo_ir::{BinOp, FunctionBuilder, Module, RaiseMode, Value};
use pdo_passes::fuse_module;

/// A pipeline whose handler bodies are built from fusable sequences:
/// `Tick` bumps a locked frame counter and stages a value, then
/// synchronously raises `Digest`, which folds the checksum, emits a
/// packet, and arms a timed `Flush`; `Flush` records the payload through
/// a locked store and a register-operand fold.
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
        head: tick,
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

/// Profiles the happy path and optimizes it, with or without the compiler
/// passes (and the fusion that closes them).
fn optimized(p: &Pipeline, compiler_passes: bool) -> Optimization {
    p.optimized(OptimizeOptions {
        compiler_passes,
        ..OptimizeOptions::new(10)
    })
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
    let events = p.events();
    sweep(
        "fusion",
        Seeded::sweep(),
        |s| ChaosCase::derive(s, &events, 8, 32),
        |module, case, policy| p.run(module, Chains::Generic, policy, &case.plan).0,
        &p.module,
        &[("fused", &fused)],
    );
}

#[test]
fn harness_is_meaningful_unfaulted_runs_agree_and_fuse_everything() {
    let p = pipeline();
    let fused = fused_module(&p);
    let (reference, _) = p.run(&p.module, Chains::Generic, FaultPolicy::SkipEvent, &[]);
    let (observed, rt) = p.run(&fused, Chains::Generic, FaultPolicy::SkipEvent, &[]);
    assert_eq!(observed, reference);
    // Charge replay: the fused run executes fewer dispatched instructions
    // but charges exactly what the unfused run charges.
    assert!(rt.cost.instrs > 0);
    assert_eq!(
        reference.substrate.len() as i64,
        RAISES + RAISES / 5 + 1,
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
        event: p.head,
        occurrence: 2,
        kind: FaultKind::TrapDispatch,
    }];
    let (reference, _) = p.run(&p.module, Chains::Generic, FaultPolicy::Despecialize, &plan);
    let chains = Chains::Static(&opt);
    let (observed, rt) = p.run(&p.module, chains, FaultPolicy::Despecialize, &plan);
    assert_eq!(observed, reference);
    assert!(
        rt.spec().get(p.head).is_none(),
        "the faulting fused chain must be removed"
    );
    // The faulted occurrence was still drained (generically): every tick
    // landed in the frame counter.
    assert_eq!(observed.globals[0], Value::Int(RAISES + RAISES / 5 + 1));
    assert_eq!(
        observed.counters.injected_faults, 1,
        "one injected fault recorded"
    );
}
