//! Local common-subexpression elimination.
//!
//! Within one block, a pure expression computed twice with the same operand
//! registers (and no intervening redefinition of those operands, nor
//! in-place buffer mutation) is replaced by a `mov` from the first result.
//! Re-executing an identical faulting expression is also redundant — if the
//! first occurrence faulted, execution never reaches the second — so `div`,
//! `bget`, and `bslice` participate.
//!
//! Handler merging makes this profitable: the paper notes that independent
//! handlers bound to the same event often repeat initialization and checks;
//! once merged into a super-handler those repetitions become block-local
//! common subexpressions.

use pdo_ir::{BinOp, Function, Instr, Reg, UnOp, Value};
use std::collections::HashMap;

/// A canonical key for a pure expression over registers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    /// A constant materialization — deduplicating these lets copy
    /// propagation unify downstream expressions that differ only in which
    /// register holds an identical literal. Constant folding leaves the
    /// resulting `mov` alone under exactly the availability rule below
    /// (see [`crate::constfold`]); the two must change together.
    Const(Value),
    Bin(BinOp, Reg, Reg),
    Un(UnOp, Reg),
    BytesLen(Reg),
    BytesGet(Reg, Reg),
    BytesConcat(Reg, Reg),
    BytesSlice(Reg, Reg, Reg),
}

impl ExprKey {
    fn of(instr: &Instr) -> Option<ExprKey> {
        match instr {
            Instr::Const { value, .. } => Some(ExprKey::Const(value.clone())),
            Instr::Bin { op, lhs, rhs, .. } => {
                let (a, b) = if op.is_commutative() && rhs < lhs {
                    (*rhs, *lhs)
                } else {
                    (*lhs, *rhs)
                };
                Some(ExprKey::Bin(*op, a, b))
            }
            Instr::Un { op, src, .. } => Some(ExprKey::Un(*op, *src)),
            Instr::BytesLen { bytes, .. } => Some(ExprKey::BytesLen(*bytes)),
            Instr::BytesGet { bytes, index, .. } => Some(ExprKey::BytesGet(*bytes, *index)),
            Instr::BytesConcat { lhs, rhs, .. } => Some(ExprKey::BytesConcat(*lhs, *rhs)),
            Instr::BytesSlice {
                bytes, start, end, ..
            } => Some(ExprKey::BytesSlice(*bytes, *start, *end)),
            _ => None,
        }
    }

    fn mentions(&self, r: Reg) -> bool {
        match self {
            ExprKey::Const(_) => false,
            ExprKey::Bin(_, a, b) | ExprKey::BytesGet(a, b) | ExprKey::BytesConcat(a, b) => {
                *a == r || *b == r
            }
            ExprKey::Un(_, a) | ExprKey::BytesLen(a) => *a == r,
            ExprKey::BytesSlice(a, b, c) => *a == r || *b == r || *c == r,
        }
    }
}

/// Eliminates common subexpressions within each of `f`'s blocks. Returns
/// `true` if `f` changed.
pub(crate) fn cse_function(f: &mut Function) -> bool {
    let mut changed = false;
    // Available expressions of the block at hand: key -> register holding
    // its value. One table for the function, emptied per block.
    let mut avail: HashMap<ExprKey, Reg> = HashMap::new();
    for block in &mut f.blocks {
        avail.clear();

        for instr in &mut block.instrs {
            // Invalidate expressions whose inputs a `bset` mutates in place.
            if let Instr::BytesSet { bytes, .. } = instr {
                let b = *bytes;
                avail.retain(|k, held| !k.mentions(b) && *held != b);
            }

            let key = ExprKey::of(instr);
            if let (Some(key), Some(dst)) = (key.clone(), instr.def()) {
                if let Some(&held) = avail.get(&key) {
                    if held != dst {
                        *instr = Instr::Mov { dst, src: held };
                        changed = true;
                    }
                }
            }

            // Redefinition of a register invalidates expressions that read
            // it and expressions whose value it held.
            if let Some(d) = instr.def() {
                avail.retain(|k, held| !k.mentions(d) && *held != d);
            }

            // Record the expression as available (after invalidation so a
            // self-referential def like `r0 = add r0, r1` is not recorded).
            if let (Some(key), Some(dst)) = (ExprKey::of(instr), instr.def()) {
                if !key.mentions(dst) {
                    avail.insert(key, dst);
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;
    use pdo_ir::{FuncId, Module, Value};

    fn run_cse(text: &str) -> Module {
        let mut m = parse_module(text).unwrap();
        for f in &mut m.functions {
            cse_function(f);
        }
        pdo_ir::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn duplicate_expression_becomes_mov() {
        let m = run_cse(
            "func @f(2) {\n\
             b0:\n\
               r2 = add r0, r1\n\
               r3 = add r0, r1\n\
               r4 = add r2, r3\n\
               ret r4\n\
             }\n",
        );
        assert_eq!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Mov {
                dst: Reg(3),
                src: Reg(2)
            }
        );
    }

    #[test]
    fn commutative_operands_canonicalized() {
        let m = run_cse(
            "func @f(2) {\n\
             b0:\n\
               r2 = add r0, r1\n\
               r3 = add r1, r0\n\
               ret r3\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Mov { .. }
        ));
    }

    #[test]
    fn non_commutative_not_canonicalized() {
        let m = run_cse(
            "func @f(2) {\n\
             b0:\n\
               r2 = sub r0, r1\n\
               r3 = sub r1, r0\n\
               ret r3\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Bin { .. }
        ));
    }

    #[test]
    fn redefinition_invalidates() {
        let text = "func @f(2) {\n\
             b0:\n\
               r2 = add r0, r1\n\
               r3 = const int 5\n\
               r0 = mov r3\n\
               r4 = add r0, r1\n\
               ret r4\n\
             }\n";
        let m = run_cse(text);
        assert!(matches!(
            m.functions[0].blocks[0].instrs[3],
            Instr::Bin { .. }
        ));
        let m0 = parse_module(text).unwrap();
        let mut e0 = BasicEnv::new(&m0);
        let mut e1 = BasicEnv::new(&m);
        assert_eq!(
            call(&m0, &mut e0, FuncId(0), &[Value::Int(1), Value::Int(2)]).unwrap(),
            call(&m, &mut e1, FuncId(0), &[Value::Int(1), Value::Int(2)]).unwrap(),
        );
    }

    #[test]
    fn bset_invalidates_bytes_expressions() {
        let text = "func @f(0) {\n\
             b0:\n\
               r0 = const bytes 0a\n\
               r1 = const int 0\n\
               r2 = bget r0, r1\n\
               r3 = const int 99\n\
               bset r0, r1, r3\n\
               r4 = bget r0, r1\n\
               r5 = add r2, r4\n\
               ret r5\n\
             }\n";
        let m = run_cse(text);
        // The second bget must not be CSE'd with the first.
        assert!(matches!(
            m.functions[0].blocks[0].instrs[5],
            Instr::BytesGet { .. }
        ));
        let mut env = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut env, FuncId(0), &[]).unwrap(),
            Value::Int(0x0a + 99)
        );
    }

    #[test]
    fn calls_are_barriers_for_nothing_but_not_expressions() {
        // Pure register expressions stay available across a raise; the raise
        // cannot change register contents.
        let m = run_cse(
            "event E\n\
             func @f(2) {\n\
             b0:\n\
               r2 = mul r0, r1\n\
               raise sync %E(r2)\n\
               r3 = mul r0, r1\n\
               ret r3\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[2],
            Instr::Mov { .. }
        ));
    }

    #[test]
    fn self_referential_def_not_recorded() {
        let m = run_cse(
            "func @f(1) {\n\
             b0:\n\
               r0 = add r0, r0\n\
               r1 = add r0, r0\n\
               ret r1\n\
             }\n",
        );
        // r1 = add r0, r0 is a *different* value than the first add because
        // r0 changed; it must not be replaced.
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Bin { .. }
        ));
    }
}
