//! Superinstruction speedup gate: proves profile-directed fusion pays on
//! the interpreter's hot inner loops, and that opcode-profile sampling is
//! near-free on the dispatch path.
//!
//! Three handler bodies model the paper's workload inner loops:
//!
//! * `video`  — a run of locked frame-counter bumps
//!   (`lock; load; const; add; store; unlock`), the shape the video
//!   player's timer handler executes per frame; fuses to `lfold.i`.
//! * `seccomm` — a run of checksum folds over a global
//!   (`load; const; xor; store`), the SecComm packet-digest shape; fuses
//!   to `gfold.i`.
//! * `x`      — a const-heavy register expression chain
//!   (`const; add` pairs), the X-client coordinate-arithmetic shape;
//!   fuses to `bin.i`.
//!
//! Each body is timed unfused and after `pdo_passes::fuse` rewrote it, in
//! interleaved rounds so machine drift hits both sides equally. The
//! headline statistic per workload is the ratio of the medians of the
//! per-round minimum batch averages; the gate passes when at least one
//! workload speeds up by [`GATE`] (1.5×) or more. A second, independent
//! check times a full generic-dispatch runtime with opcode-profile
//! sampling on vs off and fails if sampling costs more than
//! [`OVERHEAD_GATE`] (5%). A third counts heap allocations per call beside
//! every timing: none of the three bodies builds a byte buffer, so the
//! interpreter must run them, fused and unfused, without allocating at all.
//!
//! Writes `BENCH_interp.json` (per-workload mean, 95% CI, allocations per
//! call, and speedups — the machine-readable artifact CI checks in) to the
//! path given as the first argument, default `BENCH_interp.json` in the
//! working directory, and exits nonzero when any gate fails.

use pdo_bench::{ab_rounds, allocs_per_call, CountingAlloc, Side};
use pdo_events::Runtime;
use pdo_ir::interp::{call, BasicEnv};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_passes::fuse_module;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Minimum fused-over-unfused speedup required on at least one workload.
const GATE: f64 = 1.5;

/// Maximum tolerated profiling-on/profiling-off dispatch ratio.
const OVERHEAD_GATE: f64 = 1.05;

/// Interleaved measurement rounds per side (median taken across them).
const ROUNDS: usize = 9;

/// Batch-average samples per round (passed to [`measure`]).
const SAMPLES: usize = 10;

/// Straight-line repetitions of the inner-loop pattern per handler body.
const REPS: usize = 16;

/// The video player's timer tick: `REPS` locked frame-counter bumps.
fn video_module() -> Module {
    let mut m = Module::new();
    let g = m.add_global("frames", Value::Int(0));
    let mut b = FunctionBuilder::new("video_tick", 0);
    for _ in 0..REPS {
        b.lock(g);
        let v = b.load_global(g);
        let k = b.const_int(1);
        let s = b.bin(BinOp::Add, v, k);
        b.store_global(g, s);
        b.unlock(g);
    }
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The SecComm packet digest: `REPS` checksum folds over a global.
fn seccomm_module() -> Module {
    let mut m = Module::new();
    let g = m.add_global("digest", Value::Int(0x5EED));
    let mut b = FunctionBuilder::new("seccomm_digest", 0);
    for i in 0..REPS {
        let v = b.load_global(g);
        let k = b.const_int(0x9E37_79B9 ^ i as i64);
        let s = b.bin(BinOp::Xor, v, k);
        b.store_global(g, s);
    }
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The X client's coordinate arithmetic: a const-heavy expression chain.
fn x_module() -> Module {
    let mut m = Module::new();
    let g = m.add_global("coord", Value::Int(0));
    let mut b = FunctionBuilder::new("x_translate", 0);
    let mut acc = b.const_int(1);
    for i in 0..2 * REPS {
        let k = b.const_int(i as i64 + 3);
        acc = b.bin(BinOp::Add, acc, k);
    }
    b.store_global(g, acc);
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The fused twin of `m`; panics if fusion found nothing to rewrite (the
/// gate would be meaningless).
fn fused_twin(m: &Module, workload: &str) -> Module {
    let mut fused = m.clone();
    let records = fuse_module(&mut fused, None, 0);
    assert!(
        !records.is_empty(),
        "{workload}: fusion pass found nothing to rewrite"
    );
    pdo_ir::verify_module(&fused)
        .unwrap_or_else(|e| panic!("{workload}: fused module invalid: {e}"));
    assert!(
        fused.instr_count() < m.instr_count(),
        "{workload}: fusion must shrink the body"
    );
    fused
}

/// One timed row of the artifact: the ns figures and, beside them, the heap
/// allocations one call makes.
fn row(side: &Side, allocs: f64) -> String {
    format!(
        "{{ {}, \"allocs_per_call\": {allocs:.2} }}",
        side.json_fields()
    )
}

/// Heap allocations one `call` of the kernel in `m` makes.
fn kernel_allocs(m: &Module) -> f64 {
    let mut env = BasicEnv::new(m);
    allocs_per_call(|| call(black_box(m), &mut env, FuncId(0), &[]).unwrap())
}

/// Interleaved A/B rounds of `call` on two variants of one handler.
fn kernel_rounds(a_mod: &Module, b_mod: &Module) -> (Side, Side) {
    let fa = FuncId(0);
    let mut env_a = BasicEnv::new(a_mod);
    let mut env_b = BasicEnv::new(b_mod);
    ab_rounds(
        ROUNDS,
        SAMPLES,
        || call(black_box(a_mod), &mut env_a, fa, &[]).unwrap(),
        || call(black_box(b_mod), &mut env_b, fa, &[]).unwrap(),
    )
}

/// A generic-dispatch runtime for the sampling overhead check: one event
/// fanned out to six short handlers, the registry-walk-plus-small-body
/// shape users actually pay during sampled epochs (same mix as
/// `BENCH_dispatch.json`'s workload, where dispatch overhead and handler
/// work are both on the clock).
fn dispatch_runtime(profiling: bool) -> (Runtime, EventId) {
    let mut m = Module::new();
    let mut handlers = Vec::new();
    for h in 0..6 {
        let g = m.add_global(format!("g{h}"), Value::Int(0));
        let mut b = FunctionBuilder::new(format!("h{h}"), 0);
        b.lock(g);
        let v = b.load_global(g);
        let k = b.const_int(1);
        let s = b.bin(BinOp::Add, v, k);
        b.store_global(g, s);
        b.unlock(g);
        b.ret(None);
        handlers.push(m.add_function(b.finish()));
    }
    let e = m.add_event("Tick");
    let mut rt = Runtime::new(m);
    for (order, h) in handlers.into_iter().enumerate() {
        rt.bind(e, h, order as i32).expect("bind");
    }
    rt.set_opcode_profiling(profiling);
    (rt, e)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".into());

    // Fused-vs-unfused inner loops.
    let mut workloads_json = Vec::new();
    let mut best = ("", 0.0f64);
    let mut allocs_sum = 0.0f64;
    for (name, module) in [
        ("video", video_module()),
        ("seccomm", seccomm_module()),
        ("x", x_module()),
    ] {
        let fused = fused_twin(&module, name);
        let (unfused_side, fused_side) = kernel_rounds(&module, &fused);
        let (unfused_allocs, fused_allocs) = (kernel_allocs(&module), kernel_allocs(&fused));
        allocs_sum += unfused_allocs + fused_allocs;
        let speedup = unfused_side.median_min() / fused_side.median_min();
        if speedup > best.1 {
            best = (name, speedup);
        }
        workloads_json.push(format!(
            "    \"{name}\": {{\n      \"instrs_unfused\": {}, \"instrs_fused\": {},\n      \
             \"unfused\": {},\n      \"fused\": {},\n      \"speedup\": {speedup:.4}\n    }}",
            module.instr_count(),
            fused.instr_count(),
            row(&unfused_side, unfused_allocs),
            row(&fused_side, fused_allocs),
        ));
    }

    // Opcode-profile sampling overhead on the full dispatch path.
    let (mut off_rt, e) = dispatch_runtime(false);
    let (mut on_rt, _) = dispatch_runtime(true);
    let (off, on) = ab_rounds(
        ROUNDS,
        SAMPLES,
        || off_rt.raise(black_box(e), RaiseMode::Sync, &[]).unwrap(),
        || on_rt.raise(black_box(e), RaiseMode::Sync, &[]).unwrap(),
    );
    assert!(
        on_rt.opcode_profile_data().is_some_and(|p| p.total() > 0),
        "profiling runtime must actually record opcodes"
    );
    let off_allocs = allocs_per_call(|| off_rt.raise(black_box(e), RaiseMode::Sync, &[]).unwrap());
    let on_allocs = allocs_per_call(|| on_rt.raise(black_box(e), RaiseMode::Sync, &[]).unwrap());
    let overhead = on.median_min() / off.median_min();
    let overhead_pass = overhead <= OVERHEAD_GATE;

    let speedup_pass = best.1 >= GATE;
    let alloc_pass = allocs_sum == 0.0;
    let pass = speedup_pass && overhead_pass && alloc_pass;
    let json = format!(
        "{{\n  \"bench\": \"interp/superinstructions\",\n  \"rounds\": {ROUNDS},\n  \
         \"workloads\": {{\n{}\n  }},\n  \
         \"best_workload\": \"{}\",\n  \"best_speedup\": {:.4},\n  \"gate\": {GATE},\n  \
         \"profiling_off\": {},\n  \"profiling_on\": {},\n  \
         \"profiling_overhead_ratio\": {overhead:.4},\n  \"overhead_gate\": {OVERHEAD_GATE},\n  \
         \"kernel_allocs_per_call_gate\": 0,\n  \
         \"pass\": {pass}\n}}\n",
        workloads_json.join(",\n"),
        best.0,
        best.1,
        row(&off, off_allocs),
        row(&on, on_allocs),
    );
    std::fs::write(&out, &json).expect("write BENCH_interp.json");
    print!("{json}");
    if !speedup_pass {
        eprintln!("interp gate FAILED: best speedup {:.4} < {GATE}", best.1);
    }
    if !overhead_pass {
        eprintln!("interp gate FAILED: sampling overhead {overhead:.4} > {OVERHEAD_GATE}");
    }
    if !alloc_pass {
        eprintln!(
            "interp gate FAILED: the kernels build no byte buffer yet allocate \
             (sum over rows {allocs_sum:.2} per call, must be 0)"
        );
    }
    if !pass {
        std::process::exit(1);
    }
    println!(
        "interp gate passed: {} sped up {:.2}x (gate {GATE}), sampling overhead {overhead:.4} (gate {OVERHEAD_GATE}), kernels allocate nothing",
        best.0, best.1
    );
}
