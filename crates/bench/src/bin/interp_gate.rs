//! Superinstruction speedup gate: proves fusion pays on the interpreter's
//! hot inner loops, and that counting executed and fused instructions is
//! near-free on the dispatch path.
//!
//! Two handler bodies time the two superinstructions in the shapes that
//! run (EXPERIMENTS.md "Two superinstructions"):
//!
//! * `locked_gfold` — a run of locked counter bumps by a live register
//!   (`lock; load; add; store; unlock`), the shape of the 16 `gfold` sites
//!   in the optimized video program; its read-modify-write fuses to
//!   `gfold` inside the lock.
//! * `x` — a const-heavy register expression chain (`const; add` pairs),
//!   the X-client coordinate-arithmetic shape; fuses to `bin.i`, which
//!   carries a third or more of the instructions executed on the
//!   `bin`-heavy benchmark workloads.
//!
//! Each body is timed unfused and after `pdo_passes::fuse` rewrote it, in
//! interleaved rounds so machine drift hits both sides equally. The
//! headline statistic per workload is the ratio of the medians of the
//! per-round minimum batch averages; the gate passes when at least one
//! workload speeds up by [`GATE`] (1.5×) or more. A second, independent
//! check times a full generic-dispatch runtime with the interpreter's
//! instruction counters on vs off and fails if counting costs more than
//! [`OVERHEAD_GATE`] (5%). A third counts heap allocations per call beside
//! every timing: neither body builds a byte buffer, so the
//! interpreter must run them, fused and unfused, without allocating at all.
//!
//! Beside the gates sits the ledger the next interpreter change reads:
//! `per_opcode_ns`, the cost of one instruction of each hot kind on a
//! [`Runtime`] (see [`opcode_ledger`]). Absolute nanoseconds swing with the
//! host, so they are reported; three ratios between rows do not, and are
//! gated ([`RATIO_GATES`]): an `add` or a `load` that costs much more than a
//! `mov`, or a `mov` much more than a bare terminator, means a result is
//! being assembled and copied again, or a call boundary has come back
//! between the dispatch loop and its hot arms.
//!
//! Writes `BENCH_interp.json` (per-workload mean, 95% CI, allocations per
//! call, and speedups — the machine-readable artifact CI checks in) to the
//! path given as the first argument, default `BENCH_interp.json` in the
//! working directory, and exits nonzero when any gate fails.

use pdo_bench::{allocs_per_call, interleaved, median, CountingAlloc, Side};
use pdo_events::Runtime;
use pdo_ir::interp::{call, BasicEnv};
use pdo_ir::{
    BinOp, BlockId, EventId, FuncId, FunctionBuilder, Instr, Module, RaiseMode, Reg, Value,
};
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

/// Batch-average samples per round (passed to [`interleaved`]).
const SAMPLES: usize = 10;

/// Straight-line repetitions of the inner-loop pattern per handler body.
const REPS: usize = 16;

/// Repetitions of one instruction in a [`opcode_ledger`] body.
const LEDGER_REPS: usize = 200;

/// `per_opcode_ns[row] <= bound * per_opcode_ns[base]`, as `(row, base,
/// bound)`. At the commit before the hot arms moved into the dispatch loop
/// the three read 2.4, 1.5 and 2.1.
const RATIO_GATES: [(&str, &str, f64); 3] = [
    ("bin_add", "mov", 1.6),
    ("load", "mov", 1.6),
    ("mov", "terminator", 1.5),
];

/// The optimized video program's counter bumps: `REPS` locked
/// `g = g + k`, with `k` one register live across all of them.
fn locked_gfold_module() -> Module {
    let mut m = Module::new();
    let g = m.add_global("sent", Value::Int(0));
    let mut b = FunctionBuilder::new("locked_gfold", 0);
    let k = b.const_int(1);
    for _ in 0..REPS {
        b.lock(g);
        let v = b.load_global(g);
        let s = b.bin(BinOp::Add, v, k);
        b.store_global(g, s);
        b.unlock(g);
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

/// Interleaved rounds of `call` on two variants of one handler.
fn kernel_rounds(a_mod: &Module, b_mod: &Module) -> Vec<Side> {
    let mods = [a_mod, b_mod];
    let mut envs = mods.map(BasicEnv::new);
    interleaved(2, ROUNDS, SAMPLES, |i| {
        call(black_box(mods[i]), &mut envs[i], FuncId(0), &[]).unwrap()
    })
}

/// A generic-dispatch runtime for the counting overhead check: one event
/// fanned out to six short handlers, the registry-walk-plus-small-body
/// shape a caller pays who switches instruction counting on (same mix as
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

/// One row of the per-opcode ledger: nanoseconds per instruction in each
/// measurement round.
struct LedgerRow {
    name: &'static str,
    per_round_ns: Vec<f64>,
}

impl LedgerRow {
    /// The row's figure: the median across rounds, as every other number
    /// this bin prints.
    fn ns(&self) -> f64 {
        median(&mut self.per_round_ns.clone())
    }

    /// The row over `base`, round by round, at the lower quartile of those
    /// ratios. Other tenants' load on this host comes and goes between
    /// rounds and moves rows unevenly (a row bound by instruction throughput
    /// slows, one bound by the latency of the per-instruction charge does
    /// not); what the ratio gates look for — a result assembled and copied
    /// again, a call boundary back between the loop and its arms — is there
    /// in every round. So the quiet rounds decide, and the quartile rather
    /// than the minimum keeps one stray reading of `base` from deciding.
    fn quiet_ratio_over(&self, base: &LedgerRow) -> f64 {
        let mut ratios: Vec<f64> = self
            .per_round_ns
            .iter()
            .zip(&base.per_round_ns)
            .map(|(row, base)| row / base)
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[(ratios.len() - 1) / 4]
    }
}

/// Nanoseconds per instruction, by kind, on a [`Runtime`]: each row is a
/// function whose one block repeats the instruction [`LEDGER_REPS`] times
/// over the same few registers, timed beside the empty function in
/// interleaved rounds; in each round the difference of the two minimum
/// batch averages, divided by the instructions the body adds, is the row's
/// reading. `lock_unlock` is per instruction of the pair, `terminator` one
/// `jump` between otherwise empty blocks, `empty_raise` a synchronous raise
/// of an event nothing is bound to, `callnative_nop` a one-argument native
/// that does nothing.
fn opcode_ledger() -> Vec<LedgerRow> {
    let mut m = Module::new();
    let g = m.add_global("g", Value::Int(1));
    let nop = m.add_native("nop");
    let silent = m.add_event("Silent");
    let (r0, r1, r2) = (Reg(0), Reg(1), Reg(2));
    let add = |op| Instr::Bin {
        op,
        dst: r2,
        lhs: r0,
        rhs: r1,
    };
    let rows: Vec<(&'static str, Vec<Instr>)> = vec![
        (
            "const",
            vec![Instr::Const {
                dst: r2,
                value: Value::Int(7),
            }],
        ),
        ("mov", vec![Instr::Mov { dst: r2, src: r0 }]),
        ("bin_add", vec![add(BinOp::Add)]),
        ("bin_lt", vec![add(BinOp::Lt)]),
        (
            "bin_imm",
            vec![Instr::BinImm {
                op: BinOp::Add,
                dst: r2,
                lhs: r0,
                imm: Value::Int(3),
            }],
        ),
        ("load", vec![Instr::LoadGlobal { dst: r2, global: g }]),
        ("store", vec![Instr::StoreGlobal { global: g, src: r0 }]),
        (
            "lock_unlock",
            vec![Instr::Lock { global: g }, Instr::Unlock { global: g }],
        ),
        (
            "callnative_nop",
            vec![Instr::CallNative {
                dst: r2,
                native: nop,
                args: vec![r0],
            }],
        ),
        (
            "empty_raise",
            vec![Instr::Raise {
                event: silent,
                mode: RaiseMode::Sync,
                args: vec![],
            }],
        ),
    ];
    // Every body starts from two integer registers and a third to write.
    let prologue = |b: &mut FunctionBuilder| {
        let (a, c, d) = (b.const_int(5), b.const_int(9), b.const_int(0));
        assert_eq!((a, c, d), (r0, r1, r2));
    };
    let mut empty = FunctionBuilder::new("empty", 0);
    prologue(&mut empty);
    empty.ret(None);
    let empty = m.add_function(empty.finish());
    let mut bodies: Vec<(&'static str, FuncId, usize)> = Vec::new();
    for (name, pattern) in rows {
        let mut b = FunctionBuilder::new(name, 0);
        prologue(&mut b);
        for _ in 0..LEDGER_REPS {
            for instr in &pattern {
                b.push(instr.clone());
            }
        }
        b.ret(None);
        bodies.push((
            name,
            m.add_function(b.finish()),
            LEDGER_REPS * pattern.len(),
        ));
    }
    let mut jumps = FunctionBuilder::new("terminator", 0);
    prologue(&mut jumps);
    for _ in 0..LEDGER_REPS {
        let next = jumps.new_block();
        jumps.jump(next);
        jumps.switch_to(next);
    }
    jumps.ret(None);
    assert_eq!(jumps.current_block(), BlockId(LEDGER_REPS as u32));
    bodies.push(("terminator", m.add_function(jumps.finish()), LEDGER_REPS));
    pdo_ir::verify_module(&m).expect("ledger module verifies");

    let module = std::sync::Arc::new(m);
    let mut rt = Runtime::new(module.clone());
    rt.bind_native(nop, |_| Ok(Value::Unit));
    let mut run = |f: FuncId| call(black_box(&*module), &mut rt, f, &[]).unwrap();
    bodies.push(("empty", empty, 0));
    let mut sides = interleaved(bodies.len(), ROUNDS, SAMPLES, |i| run(bodies[i].1));
    let empty_side = sides.pop().expect("the empty body");
    bodies.pop();
    bodies
        .into_iter()
        .zip(sides)
        .map(|((name, f, instrs), side)| {
            assert_eq!(allocs_per_call(|| run(f)), 0.0, "{name} allocates");
            let per_round_ns = side
                .round_mins()
                .iter()
                .zip(empty_side.round_mins())
                .map(|(body, empty)| ((body - empty) / instrs as f64).max(0.01))
                .collect();
            LedgerRow { name, per_round_ns }
        })
        .collect()
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".into());

    // Fused-vs-unfused inner loops.
    let mut workloads_json = Vec::new();
    let mut best = ("", 0.0f64);
    let mut allocs_sum = 0.0f64;
    for (name, module) in [("locked_gfold", locked_gfold_module()), ("x", x_module())] {
        let fused = fused_twin(&module, name);
        let sides = kernel_rounds(&module, &fused);
        let (unfused_side, fused_side) = (&sides[0], &sides[1]);
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
            row(unfused_side, unfused_allocs),
            row(fused_side, fused_allocs),
        ));
    }

    // Instruction-counting overhead on the full dispatch path.
    let (off_rt, e) = dispatch_runtime(false);
    let (on_rt, _) = dispatch_runtime(true);
    let mut rts = [off_rt, on_rt];
    let mut raise = |i: usize| rts[i].raise(black_box(e), RaiseMode::Sync, &[]).unwrap();
    let sides = interleaved(2, ROUNDS, SAMPLES, &mut raise);
    let (off_allocs, on_allocs) = (allocs_per_call(|| raise(0)), allocs_per_call(|| raise(1)));
    assert!(
        rts[1].opcode_profile_data().is_some_and(|p| p.total() > 0),
        "profiling runtime must actually count instructions"
    );
    let (off, on) = (&sides[0], &sides[1]);
    let overhead = on.median_min() / off.median_min();
    let overhead_pass = overhead <= OVERHEAD_GATE;

    // The per-opcode ledger and the ratios between its rows.
    let ledger = opcode_ledger();
    let ledger_row = |name: &str| ledger.iter().find(|r| r.name == name).expect("row");
    let ratios: Vec<(String, f64, f64)> = RATIO_GATES
        .iter()
        .map(|&(over, base, bound)| {
            let ratio = ledger_row(over).quiet_ratio_over(ledger_row(base));
            (format!("{over}_over_{base}"), ratio, bound)
        })
        .collect();
    let ratio_pass = ratios.iter().all(|(_, ratio, bound)| ratio <= bound);
    let ledger_json: Vec<String> = ledger
        .iter()
        .map(|r| format!("\"{}\": {:.2}", r.name, r.ns()))
        .collect();
    let ratios_json: Vec<String> = ratios
        .iter()
        .map(|(name, ratio, bound)| {
            format!("\"{name}\": {{ \"ratio\": {ratio:.3}, \"gate\": {bound} }}")
        })
        .collect();

    let speedup_pass = best.1 >= GATE;
    let alloc_pass = allocs_sum == 0.0;
    let pass = speedup_pass && overhead_pass && alloc_pass && ratio_pass;
    let json = format!(
        "{{\n  \"bench\": \"interp/superinstructions\",\n  \"rounds\": {ROUNDS},\n  \
         \"workloads\": {{\n{}\n  }},\n  \
         \"best_workload\": \"{}\",\n  \"best_speedup\": {:.4},\n  \"gate\": {GATE},\n  \
         \"profiling_off\": {},\n  \"profiling_on\": {},\n  \
         \"profiling_overhead_ratio\": {overhead:.4},\n  \"overhead_gate\": {OVERHEAD_GATE},\n  \
         \"kernel_allocs_per_call_gate\": 0,\n  \
         \"per_opcode_ns\": {{ {} }},\n  \"per_opcode_ratios\": {{\n    {}\n  }},\n  \
         \"pass\": {pass}\n}}\n",
        workloads_json.join(",\n"),
        best.0,
        best.1,
        row(off, off_allocs),
        row(on, on_allocs),
        ledger_json.join(", "),
        ratios_json.join(",\n    "),
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
    for (name, ratio, bound) in &ratios {
        if ratio > bound {
            eprintln!("interp gate FAILED: per-opcode ratio {name} {ratio:.3} > {bound}");
        }
    }
    if !pass {
        std::process::exit(1);
    }
    println!(
        "interp gate passed: {} sped up {:.2}x (gate {GATE}), sampling overhead {overhead:.4} (gate {OVERHEAD_GATE}), kernels allocate nothing",
        best.0, best.1
    );
}
