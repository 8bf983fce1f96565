//! Shared generators for the property-based integration tests.

use pdo_ir::{
    BinOp, Block, BlockId, EventId, Function, GlobalId, Instr, Module, NativeId, RaiseMode, Reg,
    Terminator, UnOp, Value,
};
use proptest::prelude::*;

/// Number of globals declared in generated modules. The last one holds
/// bytes, so that `bset` on a register loaded from it can succeed.
pub const GEN_GLOBALS: u16 = 3;

/// Times, in all, a generated function may take one of its backward
/// branches before each falls through forward.
const LOOP_TRIPS: i64 = 3;

const RAISE_MODES: [RaiseMode; 3] = [RaiseMode::Sync, RaiseMode::Async, RaiseMode::Timed];

/// A generated instruction template (registers resolved at build time).
#[derive(Debug, Clone)]
pub enum GenInstr {
    ConstInt(u16, i64),
    ConstBool(u16, bool),
    Mov(u16, u16),
    Bin(usize, u16, u16, u16),
    Un(usize, u16, u16),
    Load(u16, u16),
    Store(u16, u16),
    Lock(u16),
    Unlock(u16),
    /// `dst = native n0(arg)`.
    Native(u16, u16),
    /// `raise <RAISE_MODES[mode]> e0(arg)`.
    Raise(usize, u16),
    /// `dst = load g; tmp = const int index; bset dst, tmp, value`.
    LoadSet {
        dst: u16,
        global: u16,
        tmp: u16,
        index: i64,
        value: u16,
    },
}

/// A generated terminator template.
#[derive(Debug, Clone)]
pub enum GenTerm {
    Ret(Option<u16>),
    /// Jump forward by `1 + offset` blocks (clamped; ret if out of range).
    Jump(u16),
    /// Branch on a register to two forward offsets.
    Branch(u16, u16, u16),
    /// Branch back by `back` blocks (to this block when 0, never to the
    /// entry) while the function's trip counter lasts, else forward by
    /// `1 + exit`. In the entry block it is `Jump(exit)`.
    Back(u16, u16),
}

/// A generated function: register count, blocks of (instrs, term).
#[derive(Debug, Clone)]
pub struct GenFunction {
    pub params: u16,
    pub regs: u16,
    pub blocks: Vec<(Vec<GenInstr>, GenTerm)>,
}

pub fn gen_instr(regs: u16) -> impl Strategy<Value = GenInstr> {
    let r = 0..regs;
    prop_oneof![
        (r.clone(), -20i64..20).prop_map(|(d, v)| GenInstr::ConstInt(d, v)),
        (r.clone(), any::<bool>()).prop_map(|(d, v)| GenInstr::ConstBool(d, v)),
        (r.clone(), r.clone()).prop_map(|(d, s)| GenInstr::Mov(d, s)),
        (0..BinOp::ALL.len(), r.clone(), r.clone(), r.clone())
            .prop_map(|(op, d, a, b)| GenInstr::Bin(op, d, a, b)),
        (0..UnOp::ALL.len(), r.clone(), r.clone()).prop_map(|(op, d, s)| GenInstr::Un(op, d, s)),
        (r.clone(), 0..GEN_GLOBALS).prop_map(|(d, g)| GenInstr::Load(d, g)),
        (r.clone(), 0..GEN_GLOBALS).prop_map(|(s, g)| GenInstr::Store(s, g)),
        (0..GEN_GLOBALS).prop_map(GenInstr::Lock),
        (0..GEN_GLOBALS).prop_map(GenInstr::Unlock),
        (r.clone(), r.clone()).prop_map(|(d, a)| GenInstr::Native(d, a)),
        (0..RAISE_MODES.len(), r.clone()).prop_map(|(m, a)| GenInstr::Raise(m, a)),
        (r.clone(), 0..GEN_GLOBALS, r.clone(), 0i64..4, r.clone()).prop_map(
            |(dst, global, tmp, index, value)| GenInstr::LoadSet {
                dst,
                global,
                tmp,
                index,
                value,
            }
        ),
    ]
}

pub fn gen_term(regs: u16) -> impl Strategy<Value = GenTerm> {
    prop_oneof![
        prop::option::of(0..regs).prop_map(GenTerm::Ret),
        (0u16..3).prop_map(GenTerm::Jump),
        (0..regs, 0u16..3, 0u16..3).prop_map(|(c, a, b)| GenTerm::Branch(c, a, b)),
        (0u16..3, 0u16..3).prop_map(|(back, exit)| GenTerm::Back(back, exit)),
    ]
}

pub fn gen_function() -> impl Strategy<Value = GenFunction> {
    (1u16..6, 0u16..3).prop_flat_map(|(extra_regs, params)| {
        let regs = params + extra_regs;
        let block = (prop::collection::vec(gen_instr(regs), 0..8), gen_term(regs));
        prop::collection::vec(block, 1..5).prop_map(move |blocks| GenFunction {
            params,
            regs,
            blocks,
        })
    })
}

/// Materializes a generated function into a module with `GEN_GLOBALS`
/// globals, one event `e0` and one native `n0`. Forward edges cannot
/// cycle, and every backward branch first counts down one trip counter
/// shared by the whole function, so execution terminates.
pub fn build_module(f: &GenFunction) -> Module {
    let mut m = Module::new();
    for g in 0..GEN_GLOBALS - 1 {
        m.add_global(format!("g{g}"), Value::Int(0));
    }
    m.add_global(format!("g{}", GEN_GLOBALS - 1), Value::bytes(vec![0; 4]));
    m.add_event("e0");
    m.add_native("n0");
    let n_blocks = f.blocks.len();
    let loops = f
        .blocks
        .iter()
        .enumerate()
        .any(|(i, (_, t))| i > 0 && matches!(t, GenTerm::Back(..)));
    // Two registers past the generated ones: the trip counter and its test.
    let (trips, more) = (Reg(f.regs), Reg(f.regs + 1));
    let blocks: Vec<Block> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, (gen_instrs, term))| {
            let mut instrs = Vec::new();
            if i == 0 && loops {
                instrs.push(Instr::Const {
                    dst: trips,
                    value: Value::Int(LOOP_TRIPS),
                });
            }
            for gi in gen_instrs {
                emit(gi, &mut instrs);
            }
            let fwd = |off: u16| -> Option<BlockId> {
                let t = i + 1 + usize::from(off);
                (t < n_blocks).then(|| BlockId::from_index(t))
            };
            let term = match *term {
                GenTerm::Ret(r) => Terminator::Ret(r.map(Reg)),
                GenTerm::Jump(off) => match fwd(off) {
                    Some(t) => Terminator::Jump(t),
                    None => Terminator::Ret(None),
                },
                GenTerm::Branch(c, a, b) => match (fwd(a), fwd(b)) {
                    (Some(t), Some(e)) => Terminator::Branch {
                        cond: Reg(c),
                        then_blk: t,
                        else_blk: e,
                    },
                    (Some(t), None) | (None, Some(t)) => Terminator::Jump(t),
                    (None, None) => Terminator::Ret(None),
                },
                GenTerm::Back(back, exit) => match fwd(exit) {
                    Some(e) if i > 0 => {
                        // more = (trips -= 1) > 0
                        instrs.extend([
                            Instr::Const {
                                dst: more,
                                value: Value::Int(1),
                            },
                            Instr::Bin {
                                op: BinOp::Sub,
                                dst: trips,
                                lhs: trips,
                                rhs: more,
                            },
                            Instr::Const {
                                dst: more,
                                value: Value::Int(0),
                            },
                            Instr::Bin {
                                op: BinOp::Gt,
                                dst: more,
                                lhs: trips,
                                rhs: more,
                            },
                        ]);
                        Terminator::Branch {
                            cond: more,
                            then_blk: BlockId::from_index(
                                i.saturating_sub(usize::from(back)).max(1),
                            ),
                            else_blk: e,
                        }
                    }
                    Some(e) => Terminator::Jump(e),
                    None => Terminator::Ret(None),
                },
            };
            Block { instrs, term }
        })
        .collect();
    m.add_function(Function {
        name: "gen".into(),
        params: f.params,
        reg_count: f.regs + if loops { 2 } else { 0 },
        blocks,
    });
    m
}

/// Appends the instructions `gi` stands for.
fn emit(gi: &GenInstr, out: &mut Vec<Instr>) {
    let global = |g: u16| GlobalId(u32::from(g));
    match *gi {
        GenInstr::ConstInt(d, v) => out.push(Instr::Const {
            dst: Reg(d),
            value: Value::Int(v),
        }),
        GenInstr::ConstBool(d, v) => out.push(Instr::Const {
            dst: Reg(d),
            value: Value::Bool(v),
        }),
        GenInstr::Mov(d, s) => out.push(Instr::Mov {
            dst: Reg(d),
            src: Reg(s),
        }),
        GenInstr::Bin(op, d, a, b) => out.push(Instr::Bin {
            op: BinOp::ALL[op],
            dst: Reg(d),
            lhs: Reg(a),
            rhs: Reg(b),
        }),
        GenInstr::Un(op, d, s) => out.push(Instr::Un {
            op: UnOp::ALL[op],
            dst: Reg(d),
            src: Reg(s),
        }),
        GenInstr::Load(d, g) => out.push(Instr::LoadGlobal {
            dst: Reg(d),
            global: global(g),
        }),
        GenInstr::Store(s, g) => out.push(Instr::StoreGlobal {
            global: global(g),
            src: Reg(s),
        }),
        GenInstr::Lock(g) => out.push(Instr::Lock { global: global(g) }),
        GenInstr::Unlock(g) => out.push(Instr::Unlock { global: global(g) }),
        GenInstr::Native(d, a) => out.push(Instr::CallNative {
            dst: Reg(d),
            native: NativeId(0),
            args: vec![Reg(a)],
        }),
        GenInstr::Raise(mode, a) => out.push(Instr::Raise {
            event: EventId(0),
            mode: RAISE_MODES[mode],
            args: vec![Reg(a)],
        }),
        GenInstr::LoadSet {
            dst,
            global: g,
            tmp,
            index,
            value,
        } => out.extend([
            Instr::LoadGlobal {
                dst: Reg(dst),
                global: global(g),
            },
            Instr::Const {
                dst: Reg(tmp),
                value: Value::Int(index),
            },
            Instr::BytesSet {
                bytes: Reg(dst),
                index: Reg(tmp),
                value: Reg(value),
            },
        ]),
    }
}
