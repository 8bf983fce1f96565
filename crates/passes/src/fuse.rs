//! Superinstruction fusion.
//!
//! Rewrites straight-line sequences into the two fused [`Instr`]
//! superinstruction forms the interpreter dispatches in one `match` arm:
//!
//! * `Const`+`Bin`                    → [`Instr::BinImm`] (`bin.i`)
//! * `LoadGlobal`+`Bin`+`StoreGlobal` → [`Instr::GlobalFold`] (`gfold`)
//!
//! These are the two that pay (EXPERIMENTS.md "Two superinstructions"):
//! `bin.i` carries a third or more of the instructions executed on the
//! `bin`-heavy workloads, and a locked `gfold` runs about 1.8x faster than
//! its constituents. Any other sequence runs as its plain instructions; a
//! `Const`+`Bin` inside it still fuses to `bin.i`.
//!
//! Fusion is observationally invisible: the interpreter charges a fused
//! instruction exactly its constituents' costs at the points they would have
//! executed, and the pass only rewrites a sequence when every register the
//! sequence defines is dead afterwards (checked against block liveness), so
//! register state after the fused form matches the unfused run wherever it
//! can still be observed.
//!
//! `pdo::optimize` is the one product caller: it fuses every super-handler
//! it has finished building, unconditionally. The two patterns are fixed;
//! no profile decides which sequences fuse.

use crate::analysis::{liveness, RegSets};
use pdo_ir::cost::OpcodeProfile;
use pdo_ir::{BinOp, Block, FuncId, Function, Instr, Module, Reg, Terminator};

/// The sites fused in one function to one pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionRecord {
    /// Function that was rewritten.
    pub func: FuncId,
    /// The fused mnemonic (`"bin.i"` or `"gfold"`).
    pub pattern: &'static str,
    /// Number of sites rewritten to this pattern in this function.
    pub sites: u64,
}

/// Fuses every function in `module`; returns the per-function fusion
/// records (empty when nothing matched). The last two parameters are
/// ignored: they remain because the benchmark package
/// (`benchmark/src/workloads/video_play.rs`) calls it with them.
pub fn fuse_module(
    module: &mut Module,
    _profile: Option<&OpcodeProfile>,
    _min_pair: u64,
) -> Vec<FusionRecord> {
    let mut records = Vec::new();
    for idx in 0..module.functions.len() {
        fuse_function(
            &mut module.functions[idx],
            FuncId::from_index(idx),
            &mut records,
        );
    }
    records
}

/// Fuses one function, appending aggregated records to `out`. Returns
/// `true` if the function changed.
pub fn fuse_function(f: &mut Function, func: FuncId, out: &mut Vec<FusionRecord>) -> bool {
    // A block's live-out set is stable across intra-block rewrites (it
    // derives from successor blocks' uses), so one liveness solve serves
    // the whole scan.
    let live = liveness(f);
    let mut changed = false;
    for (b, block) in f.blocks.iter_mut().enumerate() {
        let live_out = LiveOut { live: &live, b };
        let mut i = 0;
        while i < block.instrs.len() {
            let fused =
                try_global_fold(block, i, live_out).or_else(|| try_bin_imm(block, i, live_out));
            if let Some((instr, width, pattern)) = fused {
                block.instrs.splice(i..i + width, [instr]);
                note(out, func, pattern);
                changed = true;
            }
            i += 1;
        }
    }
    if changed {
        shrink_reg_count(f);
    }
    changed
}

/// Recompute `reg_count` from the registers the fused body still touches.
///
/// Fusion folds register traffic into immediate operands, so a rewritten
/// body often needs far fewer (sometimes zero) register slots. The
/// interpreter sizes its per-call frame from `reg_count`, making this
/// shrink part of the optimization itself: smaller frames mean less
/// allocation and drop work on every call of a fused handler.
fn shrink_reg_count(f: &mut Function) {
    let mut high = usize::from(f.params);
    let mut touch = |r: Reg| high = high.max(r.index() + 1);
    for block in &f.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                touch(d);
            }
            instr.for_each_use(&mut touch);
        }
        match block.term {
            Terminator::Branch { cond, .. } => touch(cond),
            Terminator::Ret(Some(r)) => touch(r),
            Terminator::Ret(None) | Terminator::Jump(_) => {}
        }
    }
    f.reg_count = u16::try_from(high).expect("register index fits u16");
}

fn note(out: &mut Vec<FusionRecord>, func: FuncId, pattern: &'static str) {
    if let Some(r) = out
        .iter_mut()
        .find(|r| r.func == func && r.pattern == pattern)
    {
        r.sites += 1;
    } else {
        out.push(FusionRecord {
            func,
            pattern,
            sites: 1,
        });
    }
}

/// The live-out set of block `b`: row `b` of the function's liveness.
#[derive(Clone, Copy)]
struct LiveOut<'a> {
    live: &'a RegSets,
    b: usize,
}

/// True when `r` cannot be observed after instruction `end` of `block`: no
/// later instruction or the terminator reads it before a redefinition, and
/// it is not live out of the block.
fn dead_after(block: &Block, live_out: LiveOut, end: usize, r: Reg) -> bool {
    for instr in &block.instrs[end + 1..] {
        let mut used = false;
        instr.for_each_use(|u| used |= u == r);
        if used {
            return false;
        }
        if instr.def() == Some(r) {
            return true;
        }
    }
    match &block.term {
        Terminator::Ret(Some(x)) if *x == r => return false,
        Terminator::Branch { cond, .. } if *cond == r => return false,
        _ => {}
    }
    !live_out.live.contains(live_out.b, r)
}

/// Matches `dst = lhs <op> rhs` against a constant in `c`: returns the
/// non-constant operand with the constant in `rhs` position (swapping
/// commutative operators when the constant sits on the left).
fn bin_with_const(op: BinOp, lhs: Reg, rhs: Reg, c: Reg) -> Option<Reg> {
    if rhs == c && lhs != c {
        Some(lhs)
    } else if lhs == c && rhs != c && op.is_commutative() {
        Some(rhs)
    } else {
        None
    }
}

type Match = (Instr, usize, &'static str);

fn try_global_fold(block: &Block, i: usize, live_out: LiveOut) -> Option<Match> {
    let [Instr::LoadGlobal { dst: v, global: g1 }, Instr::Bin {
        op,
        dst: d,
        lhs,
        rhs,
    }, Instr::StoreGlobal { global: g2, src }] = block.instrs.get(i..i + 3)?
    else {
        return None;
    };
    if g1 != g2 || src != d {
        return None;
    }
    // The loaded value must be exactly one operand; the other (the fused
    // register operand) must be a different register, since after fusion it
    // is read from the register file while the load never lands in `v`.
    // The fused form computes `global <op> src`, so the loaded value goes
    // in `lhs` position: the mirror of `bin_with_const`'s constant.
    let s = bin_with_const(*op, *rhs, *lhs, *v)?;
    let end = i + 2;
    for r in [*v, *d] {
        if !dead_after(block, live_out, end, r) {
            return None;
        }
    }
    Some((
        Instr::GlobalFold {
            op: *op,
            global: *g1,
            src: s,
        },
        3,
        "gfold",
    ))
}

fn try_bin_imm(block: &Block, i: usize, live_out: LiveOut) -> Option<Match> {
    let [Instr::Const { dst: c, value }, Instr::Bin {
        op,
        dst: d,
        lhs,
        rhs,
    }] = block.instrs.get(i..i + 2)?
    else {
        return None;
    };
    let other = bin_with_const(*op, *lhs, *rhs, *c)?;
    // When the Bin overwrites the constant's register the unfused sequence
    // leaves the same result there; otherwise the constant must be dead.
    if d != c && !dead_after(block, live_out, i + 1, *c) {
        return None;
    }
    Some((
        Instr::BinImm {
            op: *op,
            dst: *d,
            lhs: other,
            imm: value.clone(),
        },
        2,
        "bin.i",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;
    use pdo_ir::{verify_module, GlobalId, Value};

    fn exec(m: &Module, name: &str, args: &[Value]) -> (Value, Vec<Value>, pdo_ir::CostCounter) {
        let id = m.function_by_name(name).unwrap();
        let mut env = BasicEnv::new(m);
        let r = call(m, &mut env, id, args).unwrap();
        let globals = (0..m.globals.len())
            .map(|g| env.global(GlobalId::from_index(g)).clone())
            .collect();
        (r, globals, env.cost)
    }

    /// The video fixture's shape: a locked `acc += r0`.
    const BUMP: &str = "global acc = int 0\n\
         func @bump(1) {\n\
         b0:\n\
           lock $acc\n\
           r1 = load $acc\n\
           r2 = add r1, r0\n\
           store $acc, r2\n\
           unlock $acc\n\
           ret\n\
         }\n";

    #[test]
    fn fuses_locked_bump_to_a_global_fold() {
        let mut m = parse_module(BUMP).unwrap();
        let before = exec(&m, "bump", &[Value::Int(3)]);
        let records = fuse_module(&mut m, None, 0);
        verify_module(&m).unwrap();
        let g = GlobalId(0);
        assert_eq!(
            m.functions[0].blocks[0].instrs,
            vec![
                Instr::Lock { global: g },
                Instr::GlobalFold {
                    op: BinOp::Add,
                    global: g,
                    src: Reg(0),
                },
                Instr::Unlock { global: g },
            ]
        );
        let after = exec(&m, "bump", &[Value::Int(3)]);
        // Same observable state AND same abstract cost.
        assert_eq!(before.1, after.1);
        assert_eq!(before.2, after.2);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].pattern, "gfold");
        assert_eq!(records[0].sites, 1);
    }

    #[test]
    fn immediate_fold_fuses_only_its_const_bin() {
        // `g = g + 3` has no fused form of its own: the `Const`+`Bin` in it
        // becomes `bin.i`, and the load and store stay.
        let text = "global acc = int 1\n\
             func @f(0) {\n\
             b0:\n\
               lock $acc\n\
               r0 = load $acc\n\
               r1 = const int 3\n\
               r2 = add r0, r1\n\
               store $acc, r2\n\
               unlock $acc\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let before = exec(&m, "f", &[]);
        let records = fuse_module(&mut m, None, 0);
        assert_eq!(records.len(), 1, "{records:?}");
        assert_eq!((records[0].pattern, records[0].sites), ("bin.i", 1));
        assert_eq!(
            m.functions[0].blocks[0].instrs[2],
            Instr::BinImm {
                op: BinOp::Add,
                dst: Reg(2),
                lhs: Reg(0),
                imm: Value::Int(3),
            }
        );
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 5);
        assert_eq!(exec(&m, "f", &[]), before);
    }

    #[test]
    fn live_result_blocks_fusion() {
        // r2 escapes through `ret`, so the store sequence must stay unfused.
        let text = "global acc = int 1\n\
             func @f(1) {\n\
             b0:\n\
               r1 = load $acc\n\
               r2 = add r1, r0\n\
               store $acc, r2\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(fuse_module(&mut m, None, 0).is_empty());
        verify_module(&m).unwrap();
        assert_eq!(exec(&m, "f", &[Value::Int(2)]).0, Value::Int(3));
    }

    #[test]
    fn live_out_blocks_fusion_across_blocks() {
        // r1 (the loaded value) is consumed in b1, so it is live out of b0.
        let text = "global acc = int 1\n\
             func @f(1) {\n\
             b0:\n\
               r1 = load $acc\n\
               r2 = add r1, r0\n\
               store $acc, r2\n\
               jump b1\n\
             b1:\n\
               ret r1\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(fuse_module(&mut m, None, 0).is_empty());
        verify_module(&m).unwrap();
        assert_eq!(exec(&m, "f", &[Value::Int(2)]).0, Value::Int(1));
    }

    #[test]
    fn commutative_swap_fuses_const_on_left() {
        let text = "func @f(1) {\n\
             b0:\n\
               r1 = const int 5\n\
               r2 = mul r1, r0\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        fuse_module(&mut m, None, 0);
        assert_eq!(
            m.functions[0].blocks[0].instrs,
            vec![Instr::BinImm {
                op: BinOp::Mul,
                dst: Reg(2),
                lhs: Reg(0),
                imm: Value::Int(5),
            }]
        );
        assert_eq!(exec(&m, "f", &[Value::Int(4)]).0, Value::Int(20));
    }

    #[test]
    fn non_commutative_const_on_left_not_fused() {
        // `sub` with the constant as lhs cannot move to the imm slot.
        let text = "func @f(1) {\n\
             b0:\n\
               r1 = const int 5\n\
               r2 = sub r1, r0\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(fuse_module(&mut m, None, 0).is_empty());
        assert_eq!(exec(&m, "f", &[Value::Int(1)]).0, Value::Int(4));
    }

    #[test]
    fn one_store_critical_section_runs_unfused() {
        // A one-store critical section has no fused form: fused, it ran
        // about as fast as its three instructions.
        let text = "global g = int 0\n\
             func @f(1) {\n\
             b0:\n\
               lock $g\n\
               store $g, r0\n\
               unlock $g\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let before = m.clone();
        assert!(fuse_module(&mut m, None, 0).is_empty());
        assert_eq!(m, before);
    }

    #[test]
    fn global_fold_register_operand_fuses() {
        let text = "global g = int 10\n\
             func @f(1) {\n\
             b0:\n\
               r1 = load $g\n\
               r2 = add r1, r0\n\
               store $g, r2\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let before = exec(&m, "f", &[Value::Int(7)]);
        fuse_module(&mut m, None, 0);
        assert_eq!(
            m.functions[0].blocks[0].instrs,
            vec![Instr::GlobalFold {
                op: BinOp::Add,
                global: GlobalId(0),
                src: Reg(0),
            }]
        );
        let after = exec(&m, "f", &[Value::Int(7)]);
        assert_eq!(before, after);
        assert_eq!(after.1[0], Value::Int(17));
    }

    #[test]
    fn self_operand_load_not_fused() {
        // `add r1, r1` uses the loaded value twice; GlobalFold carries only
        // one register operand, so this must stay unfused.
        let text = "global g = int 3\n\
             func @f(0) {\n\
             b0:\n\
               r1 = load $g\n\
               r2 = add r1, r1\n\
               store $g, r2\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(fuse_module(&mut m, None, 0).is_empty());
        assert_eq!(exec(&m, "f", &[]).1[0], Value::Int(6));
    }

    #[test]
    fn register_fold_keeps_the_operand_order() {
        // `gfold sub $g, r0` is `g - r0`: `sub r1, r0` fuses to it, while
        // `sub r0, r1` (`r0 - g`) once did too and must stay unfused.
        for (bin, fuses, after) in [("sub r1, r0", true, 7), ("sub r0, r1", false, -7)] {
            let text = format!(
                "global g = int 10\nfunc @f(1) {{\nb0:\n  r1 = load $g\n  \
                 r2 = {bin}\n  store $g, r2\n  ret\n}}\n"
            );
            let mut m = parse_module(&text).unwrap();
            assert_eq!(!fuse_module(&mut m, None, 0).is_empty(), fuses, "{bin}");
            assert_eq!(
                exec(&m, "f", &[Value::Int(3)]).1[0],
                Value::Int(after),
                "{bin}"
            );
        }
    }

    #[test]
    fn fused_module_survives_print_parse_roundtrip() {
        let mut m = parse_module(BUMP).unwrap();
        fuse_module(&mut m, None, 0);
        let printed = pdo_ir::display::print_module(&m);
        let reparsed = parse_module(&printed).unwrap();
        // Exact round-trip: fusion shrinks reg_count to what the body still
        // uses, which is also what the parser infers from the printed form.
        assert_eq!(m, reparsed, "printed form was:\n{printed}");
    }

    #[test]
    fn fusion_shrinks_register_frame() {
        let mut m = parse_module(BUMP).unwrap();
        assert_eq!(m.functions[0].reg_count, 3);
        fuse_module(&mut m, None, 0);
        // The fused body touches only its parameter, so the interpreter's
        // per-call frame shrinks to that one register.
        assert_eq!(m.functions[0].reg_count, 1);
        assert_eq!(pdo_ir::verify_module(&m), Ok(()));
    }

    #[test]
    fn records_aggregate_sites_per_pattern() {
        let text = "global g = int 0\n\
             func @f(1) {\n\
             b0:\n\
               r1 = load $g\n\
               r2 = add r1, r0\n\
               store $g, r2\n\
               r1 = load $g\n\
               r2 = xor r1, r0\n\
               store $g, r2\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let records = fuse_module(&mut m, None, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].sites, 2);
    }

    #[test]
    fn is_fused_marks_exactly_what_fusion_emits() {
        // The sources of both patterns, the sequences whose fused forms
        // are gone, two the pass refuses, and every plain instruction form.
        let sources = [
            BUMP,
            "global g = int 0\n\
             func @f(1) {\nb0:\n  lock $g\n  store $g, r0\n  unlock $g\n  ret\n}\n",
            "global g = int 10\n\
             func @f(1) {\nb0:\n  r1 = load $g\n  r2 = add r1, r0\n  store $g, r2\n  ret\n}\n",
            "global g = int 0\n\
             func @f(0) {\nb0:\n  r0 = load $g\n  r1 = const int 3\n  r2 = add r0, r1\n  \
             store $g, r2\n  ret\n}\n",
            "func @f(1) {\nb0:\n  r1 = const int 5\n  r2 = mul r1, r0\n  ret r2\n}\n",
            "func @f(1) {\nb0:\n  r1 = const int 5\n  r2 = sub r1, r0\n  ret r2\n}\n",
            "global g = int 3\n\
             func @f(0) {\nb0:\n  r1 = load $g\n  r2 = add r1, r1\n  store $g, r2\n  ret\n}\n",
            "event A\nglobal st = int 7\nnative work\n\
             func @all(2) {\nb0:\n  r2 = const int -9\n  r3 = const bool false\n  \
             r7 = mov r2\n  r8 = add r2, r7\n  r9 = neg r8\n  r10 = load $st\n  \
             store $st, r9\n  lock $st\n  unlock $st\n  r11 = call @all(r2, r3)\n  \
             r12 = native !work(r2)\n  raise sync %A(r2)\n  r13 = bnew r2\n  \
             r14 = blen r13\n  r15 = bget r13, r2\n  bset r13, r2, r8\n  \
             r16 = bcat r13, r13\n  r17 = bslice r13, r2, r14\n  ret r8\n}\n",
        ];
        let instrs = |m: &Module| -> Vec<Instr> {
            m.functions
                .iter()
                .flat_map(|f| &f.blocks)
                .flat_map(|b| b.instrs.clone())
                .collect()
        };
        let mut patterns = std::collections::BTreeSet::new();
        for text in sources {
            let mut m = parse_module(text).unwrap();
            assert!(instrs(&m).iter().all(|i| !i.is_fused()), "{text}");
            let records = fuse_module(&mut m, None, 0);
            let fused = instrs(&m).iter().filter(|i| i.is_fused()).count() as u64;
            assert_eq!(
                fused,
                records.iter().map(|r| r.sites).sum::<u64>(),
                "{text}"
            );
            patterns.extend(records.iter().map(|r| r.pattern));
        }
        assert_eq!(patterns.len(), 2, "{patterns:?}");
    }
}
