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
    /// `tmp = const bool value; dst = or|and tmp, param`, the operands
    /// swapped when `swap`: a boolean constant beside a parameter, whose
    /// type no pass can know.
    BoolBeside {
        or: bool,
        dst: u16,
        tmp: u16,
        value: bool,
        param: u16,
        swap: bool,
    },
    /// One of five read-modify-write sequences ([`FOLD_SHAPES`]) over its own
    /// temporaries `t0..t2`, `swap` trading the `bin`'s operands:
    /// `lock g; t0 = load g; t1 = const imm; t2 = op t0, t1; store g, t2;
    /// unlock g`, the same without the lock, `t0 = load g; t2 = op t0, reg;
    /// store g, t2`, `lock g; store g, reg; unlock g` and `t1 = const imm;
    /// reg = op reg, t1`.
    Fold {
        shape: usize,
        op: usize,
        global: u16,
        imm: i64,
        reg: u16,
        swap: bool,
    },
    /// `dst = const bytes` of `len` zero bytes.
    ConstBytes(u16, usize),
    /// A diamond over the temporaries `t0..t2`: `t2 = eq a, b` (`ne` when
    /// `ne`) on two parameters (or on `r0`) and `br t2`, two arms that
    /// define the same temporaries differently ([`Arms`]; `swap` trades
    /// the arms), and a join that uses them. The diamond splits its block:
    /// what follows it in the block runs in the join.
    Diamond {
        a: u16,
        b: u16,
        ne: bool,
        arms: Arms,
        swap: bool,
    },
}

/// What a [`GenInstr::Diamond`]'s arms define and its join reads.
#[derive(Debug, Clone)]
pub enum Arms {
    /// The arms set `t0` to one value each; the join computes
    /// `t2 = op t0, t1` after `t1 = const` the identity of `op` (`unit_of`;
    /// operands swapped when `swap`), then stores `t2` to `global` when
    /// `result`, else stores `t0` there and leaves `t2` dead. Either store
    /// shows whether the join ran past `op`.
    Consts {
        values: [Value; 2],
        op: usize,
        swap: bool,
        global: u16,
        result: bool,
    },
    /// The arms load `global` into `t0` and `t1`; the join loads it into
    /// `t2` and stores that to `to`.
    Loads { global: u16, to: u16 },
    /// `t0 = const bytes 00000000` before the branch; the first arm sets
    /// its byte `index` to `value`, the second leaves it; the join stores
    /// to `global` whether `t0` still equals `const bytes 00000000`.
    Set { index: i64, value: i64, global: u16 },
}

/// The input sequences of [`GenInstr::Fold`], in the order of its `shape`.
/// `fuse` rewrites the register fold to `gfold` and every `const` beside a
/// `bin` to `bin.i`; the other sequences keep their loads, stores and locks.
pub const FOLD_SHAPES: [&str; 5] = [
    "locked imm fold",
    "imm fold",
    "reg fold",
    "locked store",
    "const bin",
];

/// Temporaries of [`GenInstr::Fold`] and [`GenInstr::Diamond`], past the
/// generated registers and the trip counter's two: each template writes
/// them before it reads them and no other template reads them, so every
/// one is dead after its sequence and a fold can fuse.
const TEMPS: u16 = 3;

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

/// Instructions over `regs` registers, the first `params` of them the
/// function's parameters.
pub fn gen_instr(params: u16, regs: u16) -> impl Strategy<Value = GenInstr> {
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
        (
            any::<bool>(),
            r.clone(),
            params..regs,
            any::<bool>(),
            0..params.max(1),
            any::<bool>()
        )
            .prop_map(|(or, dst, tmp, value, param, swap)| GenInstr::BoolBeside {
                or,
                dst,
                tmp,
                value,
                param,
                swap,
            }),
        (
            0..FOLD_SHAPES.len(),
            0..BinOp::ALL.len(),
            0..GEN_GLOBALS,
            -4i64..5,
            r.clone(),
            any::<bool>()
        )
            .prop_map(|(shape, op, global, imm, reg, swap)| GenInstr::Fold {
                shape,
                op,
                global,
                imm,
                reg,
                swap,
            }),
        (r.clone(), 0usize..5).prop_map(|(d, len)| GenInstr::ConstBytes(d, len)),
        gen_diamond(params, consts()),
        gen_diamond(params, loads()),
        gen_diamond(params, set()),
    ]
}

/// A small integer or a boolean.
fn gen_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1i64..3).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A [`GenInstr::Diamond`] whose arms `arms` draws.
fn gen_diamond(params: u16, arms: impl Strategy<Value = Arms>) -> impl Strategy<Value = GenInstr> {
    let p = 0..params.max(1);
    (p.clone(), p, any::<bool>(), arms, any::<bool>()).prop_map(|(a, b, ne, arms, swap)| {
        GenInstr::Diamond {
            a,
            b,
            ne,
            arms,
            swap,
        }
    })
}

fn consts() -> impl Strategy<Value = Arms> {
    (
        gen_value(),
        gen_value(),
        0..BinOp::ALL.len(),
        any::<bool>(),
        0..GEN_GLOBALS,
        any::<bool>(),
    )
        .prop_map(|(a, b, op, swap, global, result)| Arms::Consts {
            values: [a, b],
            op,
            swap,
            global,
            result,
        })
}

fn loads() -> impl Strategy<Value = Arms> {
    (0..GEN_GLOBALS, 0..GEN_GLOBALS).prop_map(|(global, to)| Arms::Loads { global, to })
}

fn set() -> impl Strategy<Value = Arms> {
    (0i64..4, 1i64..256, 0..GEN_GLOBALS).prop_map(|(index, value, global)| Arms::Set {
        index,
        value,
        global,
    })
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
        let block = (
            prop::collection::vec(gen_instr(params, regs), 0..8),
            gen_term(regs),
        );
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
/// shared by the whole function, so execution terminates. A generated
/// block becomes one IR block, and three more for each diamond in it.
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
    let temps = f.blocks.iter().any(|(instrs, _)| {
        instrs
            .iter()
            .any(|gi| matches!(gi, GenInstr::Fold { .. } | GenInstr::Diamond { .. }))
    });
    // The IR block each generated block starts at.
    let starts: Vec<BlockId> = f
        .blocks
        .iter()
        .scan(0, |next, (instrs, _)| {
            let start = *next;
            let diamonds = instrs
                .iter()
                .filter(|gi| matches!(gi, GenInstr::Diamond { .. }))
                .count();
            *next += 1 + 3 * diamonds;
            Some(BlockId::from_index(start))
        })
        .collect();
    // Two registers past the generated ones: the trip counter and its test;
    // then the template temporaries.
    let (trips, more) = (Reg(f.regs), Reg(f.regs + 1));
    let blocks: Vec<Block> = f
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(i, (gen_instrs, term))| {
            let (mut out, mut instrs) = (Vec::new(), Vec::new());
            if i == 0 && loops {
                instrs.push(Instr::Const {
                    dst: trips,
                    value: Value::Int(LOOP_TRIPS),
                });
            }
            for gi in gen_instrs {
                let GenInstr::Diamond {
                    a,
                    b,
                    ne,
                    arms,
                    swap,
                } = gi
                else {
                    emit(gi, f.regs + 2, &mut instrs);
                    continue;
                };
                let here = starts[i].index() + out.len();
                let [before, mut then, mut otherwise, join] = diamond(arms, f.regs + 2);
                if *swap {
                    std::mem::swap(&mut then, &mut otherwise);
                }
                let cond = Reg(f.regs + 2 + 2); // t2
                instrs.extend(before);
                instrs.push(Instr::Bin {
                    op: if *ne { BinOp::Ne } else { BinOp::Eq },
                    dst: cond,
                    lhs: Reg(*a),
                    rhs: Reg(*b),
                });
                let to_join = Terminator::Jump(BlockId::from_index(here + 3));
                out.extend([
                    Block {
                        instrs: std::mem::replace(&mut instrs, join),
                        term: Terminator::Branch {
                            cond,
                            then_blk: BlockId::from_index(here + 1),
                            else_blk: BlockId::from_index(here + 2),
                        },
                    },
                    Block {
                        instrs: then,
                        term: to_join.clone(),
                    },
                    Block {
                        instrs: otherwise,
                        term: to_join,
                    },
                ]);
            }
            let fwd = |off: u16| -> Option<BlockId> {
                let t = i + 1 + usize::from(off);
                (t < n_blocks).then(|| starts[t])
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
                            then_blk: starts[i.saturating_sub(usize::from(back)).max(1)],
                            else_blk: e,
                        }
                    }
                    Some(e) => Terminator::Jump(e),
                    None => Terminator::Ret(None),
                },
            };
            out.push(Block { instrs, term });
            out
        })
        .collect();
    m.add_function(Function {
        name: "gen".into(),
        params: f.params,
        reg_count: f.regs
            + match (loops, temps) {
                (_, true) => 2 + TEMPS,
                (true, false) => 2,
                (false, false) => 0,
            },
        blocks,
    });
    m
}

/// The operand that leaves the other one unchanged under `op`, where there
/// is one: `and true`, `or false`, `mul 1`, `div 1`, else `0`.
fn unit_of(op: BinOp) -> Value {
    match op {
        BinOp::And => Value::Bool(true),
        BinOp::Or => Value::Bool(false),
        BinOp::Mul | BinOp::Div => Value::Int(1),
        _ => Value::Int(0),
    }
}

/// The instructions of a diamond whose temporaries start at register
/// `temps`: before its branch, in its first and second arm, and at the
/// head of its join.
fn diamond(arms: &Arms, temps: u16) -> [Vec<Instr>; 4] {
    let [t0, t1, t2] = [0, 1, 2].map(|i| Reg(temps + i));
    let global = |g: u16| GlobalId(u32::from(g));
    let konst = |dst, value| Instr::Const { dst, value };
    let zeros = || Value::bytes(vec![0; 4]);
    match arms {
        Arms::Consts {
            values: [a, b],
            op,
            swap,
            global: g,
            result,
        } => {
            let (lhs, rhs) = if *swap { (t1, t0) } else { (t0, t1) };
            let op = BinOp::ALL[*op];
            let join = vec![
                konst(t1, unit_of(op)),
                Instr::Bin {
                    op,
                    dst: t2,
                    lhs,
                    rhs,
                },
                Instr::StoreGlobal {
                    global: global(*g),
                    src: if *result { t2 } else { t0 },
                },
            ];
            [
                vec![],
                vec![konst(t0, a.clone())],
                vec![konst(t0, b.clone())],
                join,
            ]
        }
        Arms::Loads { global: g, to } => {
            let load = |dst| Instr::LoadGlobal {
                dst,
                global: global(*g),
            };
            let store = Instr::StoreGlobal {
                global: global(*to),
                src: t2,
            };
            [
                vec![],
                vec![load(t0)],
                vec![load(t1)],
                vec![load(t2), store],
            ]
        }
        Arms::Set {
            index,
            value,
            global: g,
        } => {
            let set = vec![
                konst(t1, Value::Int(*index)),
                konst(t2, Value::Int(*value)),
                Instr::BytesSet {
                    bytes: t0,
                    index: t1,
                    value: t2,
                },
            ];
            let join = vec![
                konst(t1, zeros()),
                Instr::Bin {
                    op: BinOp::Eq,
                    dst: t2,
                    lhs: t0,
                    rhs: t1,
                },
                Instr::StoreGlobal {
                    global: global(*g),
                    src: t2,
                },
            ];
            [vec![konst(t0, zeros())], set, vec![], join]
        }
    }
}

/// Appends the instructions `gi` stands for; a fold's temporaries start
/// at register `temps`.
fn emit(gi: &GenInstr, temps: u16, out: &mut Vec<Instr>) {
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
        GenInstr::ConstBytes(d, len) => out.push(Instr::Const {
            dst: Reg(d),
            value: Value::bytes(vec![0; len]),
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
        GenInstr::BoolBeside {
            or,
            dst,
            tmp,
            value,
            param,
            swap,
        } => {
            let (lhs, rhs) = if swap { (param, tmp) } else { (tmp, param) };
            out.extend([
                Instr::Const {
                    dst: Reg(tmp),
                    value: Value::Bool(value),
                },
                Instr::Bin {
                    op: if or { BinOp::Or } else { BinOp::And },
                    dst: Reg(dst),
                    lhs: Reg(lhs),
                    rhs: Reg(rhs),
                },
            ]);
        }
        GenInstr::Fold {
            shape,
            op,
            global: g,
            imm,
            reg,
            swap,
        } => {
            let (g, op, reg) = (global(g), BinOp::ALL[op], Reg(reg));
            let [t0, t1, t2] = [0, 1, 2].map(|i| Reg(temps + i));
            let bin = |dst, lhs, rhs| {
                let (lhs, rhs) = if swap { (rhs, lhs) } else { (lhs, rhs) };
                Instr::Bin { op, dst, lhs, rhs }
            };
            let konst = Instr::Const {
                dst: t1,
                value: Value::Int(imm),
            };
            let load = Instr::LoadGlobal { dst: t0, global: g };
            let store = |src| Instr::StoreGlobal { global: g, src };
            let (lock, unlock) = (Instr::Lock { global: g }, Instr::Unlock { global: g });
            match FOLD_SHAPES[shape] {
                "locked imm fold" => {
                    out.extend([lock, load, konst, bin(t2, t0, t1), store(t2), unlock]);
                }
                "imm fold" => out.extend([load, konst, bin(t2, t0, t1), store(t2)]),
                "reg fold" => out.extend([load, bin(t2, t0, reg), store(t2)]),
                "locked store" => out.extend([lock, store(reg), unlock]),
                _ => out.extend([konst, bin(reg, reg, t1)]),
            }
        }
        GenInstr::Diamond { .. } => unreachable!("`build_module` splits the block at a diamond"),
    }
}
