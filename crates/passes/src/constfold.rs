//! Constant propagation and folding.
//!
//! Uses the per-function, whole-CFG value facts of the crate's one
//! forward dataflow: a constant, a type tag or nothing known per register.
//! Foldable pure instructions are replaced with `const`; algebraic
//! identities with one constant operand are simplified; branches on
//! constant conditions become jumps (enabling [`crate::cleanup`] to drop
//! the dead arm), and so does a branch on a proven bool whose two arms are
//! one block.
//!
//! One canonical form for repeated constants, shared with [`crate::cse`]:
//! the first `const v` of a block materialises, later equal ones are `mov`s
//! from it. So `rD = mov rS` is left alone exactly when `rS` still holds
//! what a `const` earlier in the same block put there — folding it would
//! produce the `const` that CSE turns straight back into this `mov`, and
//! the pipeline would never reach its fixed point. A `mov` of a constant
//! that arrives from another block still folds.

use crate::analysis::{value_facts, Fact, Pool, RegSets, Tag};
use pdo_ir::{BinOp, Function, Instr, Reg, Terminator, Value};

/// Folds constants, identities and constant branches in `f`. Returns
/// `true` if `f` changed.
pub(crate) fn fold_function(f: &mut Function) -> bool {
    let (pool, entry) = value_facts(f);
    let mut facts = vec![Fact::Unknown; usize::from(f.reg_count)];
    // Registers holding what a `const` of the block at hand put there: not
    // redefined and not `bset` since (the condition under which CSE offers
    // the register for an equal later `const`).
    let mut materialised = RegSets::new(1, f.reg_count);
    let mut changed = false;
    for (b, block) in f.blocks.iter_mut().enumerate() {
        facts.copy_from_slice(entry.entry(b));
        materialised.clear(0);
        for instr in &mut block.instrs {
            let canonical_mov =
                matches!(instr, Instr::Mov { src, .. } if materialised.contains(0, *src));
            if !canonical_mov {
                if let Some(replacement) = simplify(instr, &facts, &pool) {
                    *instr = replacement;
                    changed = true;
                }
            }
            pool.step(&mut facts, instr);
            match instr {
                Instr::Const { dst, .. } => materialised.insert(0, *dst),
                Instr::BytesSet { bytes, .. } => materialised.remove(0, *bytes),
                other => {
                    if let Some(d) = other.def() {
                        materialised.remove(0, d);
                    }
                }
            }
        }
        if let Terminator::Branch {
            cond,
            then_blk,
            else_blk,
        } = block.term
        {
            let fact = facts[cond.index()];
            let target = match fact {
                Fact::Bool(c) => Some(if c { then_blk } else { else_blk }),
                // `br c, bX, bX` goes to `bX` whatever `c` holds, but faults
                // on a non-bool `c` where `jump` cannot: folded only when
                // `c` is proven a bool, so no fault is erased.
                _ if then_blk == else_blk && fact.tag() == Some(Tag::Bool) => Some(then_blk),
                _ => None,
            };
            if let Some(t) = target {
                block.term = Terminator::Jump(t);
                changed = true;
            }
        }
    }
    changed
}

/// Computes a simpler replacement for `instr` given the value `facts`
/// before it (whose constants `pool` holds), or `None` if it cannot be
/// improved.
fn simplify(instr: &Instr, facts: &[Fact], pool: &Pool) -> Option<Instr> {
    let konst = |r: Reg| pool.value(facts[r.index()]);
    let tag = |r: Reg| facts[r.index()].tag();
    match instr {
        Instr::Bin { op, dst, lhs, rhs } => {
            // Full fold when both operands are known.
            if let (Some(a), Some(b)) = (konst(*lhs), konst(*rhs)) {
                // A fold that would fault is left to fault at runtime.
                let value = op.eval(&a, &b).ok()?;
                return Some(Instr::Const { dst: *dst, value });
            }
            // Identity simplification with one known operand. The variable
            // operand's *type* must be proven, otherwise the rewrite would
            // erase the type-mismatch fault the original raises (e.g.
            // `or bool_const, int_reg`).
            let (var, konst_val, konst_on_right) = match (konst(*lhs), konst(*rhs)) {
                (Some(k), None) => (*rhs, k, false),
                (None, Some(k)) => (*lhs, k, true),
                _ => return None,
            };
            let needed = match op {
                BinOp::And | BinOp::Or => Tag::Bool,
                _ => Tag::Int,
            };
            if tag(var) != Some(needed) {
                return None;
            }
            let mov = Some(Instr::Mov {
                dst: *dst,
                src: var,
            });
            match (op, konst_val) {
                (BinOp::Add, Value::Int(0)) => mov,
                (BinOp::Sub, Value::Int(0)) if konst_on_right => mov,
                (BinOp::Mul, Value::Int(1)) => mov,
                (BinOp::Div, Value::Int(1)) if konst_on_right => mov,
                (BinOp::Xor, Value::Int(0)) => mov,
                (BinOp::BitOr, Value::Int(0)) => mov,
                (BinOp::Shl | BinOp::Shr, Value::Int(0)) if konst_on_right => mov,
                (BinOp::And, Value::Bool(true)) => mov,
                (BinOp::Or, Value::Bool(false)) => mov,
                // Annihilators: these do NOT need the variable operand at
                // all, but the variable might be non-int/bool (a type error
                // at runtime), so only safe when we can't fault: And/Or
                // require bool operands, Mul requires ints — a type fault
                // would be erased. Stay conservative: skip annihilators.
                _ => None,
            }
        }
        Instr::Un { op, dst, src } => {
            let v = konst(*src)?;
            match op.eval(&v) {
                Ok(folded) => Some(Instr::Const {
                    dst: *dst,
                    value: folded,
                }),
                Err(_) => None,
            }
        }
        Instr::Mov { dst, src } => Some(Instr::Const {
            dst: *dst,
            value: konst(*src)?,
        }),
        Instr::BytesLen { dst, bytes } => {
            let v = konst(*bytes)?;
            let b = v.as_bytes()?;
            Some(Instr::Const {
                dst: *dst,
                value: Value::Int(b.len() as i64),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;
    use pdo_ir::{FuncId, Module};

    fn fold(text: &str) -> Module {
        let mut m = parse_module(text).unwrap();
        for f in &mut m.functions {
            fold_function(f);
        }
        pdo_ir::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn folds_constant_expression() {
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 6\n\
               r1 = const int 7\n\
               r2 = mul r0, r1\n\
               ret r2\n\
             }\n",
        );
        assert_eq!(
            m.functions[0].blocks[0].instrs[2],
            Instr::Const {
                dst: pdo_ir::Reg(2),
                value: Value::Int(42)
            }
        );
    }

    #[test]
    fn folds_across_blocks() {
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 10\n\
               jump b1\n\
             b1:\n\
               r1 = const int 1\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[1].instrs[1],
            Instr::Const {
                value: Value::Int(11),
                ..
            }
        ));
    }

    #[test]
    fn identity_add_zero_becomes_mov_when_type_proven() {
        // r3 = r0 + 5 is proven Int... no: r0 is an untyped parameter, so
        // prove the variable operand's type through a constant seed.
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 7\n\
               r1 = const int 0\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        );
        // Both operands constant: full fold wins over the identity.
        assert!(matches!(
            m.functions[0].blocks[0].instrs[2],
            Instr::Const {
                value: Value::Int(7),
                ..
            }
        ));
    }

    #[test]
    fn identity_applies_to_proven_int_variable() {
        // r1 = r0 * 1 where r0's Int-ness is proven by an earlier add of
        // two constants routed through a call-free data flow.
        let m = fold(
            "global g = int 3\n\
             func @f(1) {\n\
             b0:\n\
               r1 = const int 2\n\
               r2 = mul r0, r0\n\
               r3 = const int 0\n\
               r4 = add r2, r3\n\
               ret r4\n\
             }\n",
        );
        // r2 = mul r0, r0 yields Int whenever it does not fault, so the
        // dataflow proves r2: Int and `add r2, 0` becomes a mov.
        assert!(matches!(
            m.functions[0].blocks[0].instrs[3],
            Instr::Mov {
                src: pdo_ir::Reg(2),
                ..
            }
        ));
    }

    #[test]
    fn identity_refused_on_untyped_parameter() {
        // add r0, 0 on a parameter must stay: if r0 were a bool, the
        // original faults and `mov` would not.
        let m = fold(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 0\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Bin { op: BinOp::Add, .. }
        ));
    }

    #[test]
    fn sub_zero_only_on_right() {
        // 0 - x must NOT become mov x.
        let m = fold(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 0\n\
               r2 = sub r1, r0\n\
               ret r2\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Bin { op: BinOp::Sub, .. }
        ));
    }

    #[test]
    fn branch_on_constant_becomes_jump() {
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const bool true\n\
               br r0, b1, b2\n\
             b1:\n\
               ret\n\
             b2:\n\
               ret\n\
             }\n",
        );
        assert_eq!(
            m.functions[0].blocks[0].term,
            Terminator::Jump(pdo_ir::BlockId(1))
        );
    }

    #[test]
    fn same_target_branch_on_a_proven_bool_becomes_jump() {
        let text = "func @f(2) {\n\
             b0:\n\
               r2 = eq r0, r1\n\
               br r2, b1, b1\n\
             b1:\n\
               ret r0\n\
             }\n";
        let m = fold(text);
        assert_eq!(
            m.functions[0].blocks[0].term,
            Terminator::Jump(pdo_ir::BlockId(1))
        );
        // The `eq` feeding it is dead now, and the pipeline drops it.
        let mut m = parse_module(text).unwrap();
        crate::PassManager::standard().run(&mut m);
        let instrs: usize = m.functions[0].blocks.iter().map(|b| b.instrs.len()).sum();
        assert_eq!(instrs, 0, "{:?}", m.functions[0]);

        // On a parameter nothing is proven: the branch stays, and faults
        // on an int as it did.
        let m = fold("func @f(1) {\nb0:\n  br r0, b1, b1\nb1:\n  ret\n}\n");
        assert!(matches!(
            m.functions[0].blocks[0].term,
            Terminator::Branch { .. }
        ));
        let mut env = BasicEnv::new(&m);
        assert!(matches!(
            call(&m, &mut env, FuncId(0), &[Value::Int(3)]),
            Err(pdo_ir::interp::ExecError::BranchOnNonBool(_))
        ));
    }

    #[test]
    fn division_by_constant_zero_left_in_place() {
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 1\n\
               r1 = const int 0\n\
               r2 = div r0, r1\n\
               ret r2\n\
             }\n",
        );
        // Must still fault at runtime.
        assert!(matches!(
            m.functions[0].blocks[0].instrs[2],
            Instr::Bin { op: BinOp::Div, .. }
        ));
        let mut env = BasicEnv::new(&m);
        assert!(call(&m, &mut env, FuncId(0), &[]).is_err());
    }

    #[test]
    fn preserves_semantics_on_loop() {
        let text = "func @sum(1) {\n\
             b0:\n\
               r1 = const int 0\n\
               r2 = const int 0\n\
               jump b1\n\
             b1:\n\
               r3 = lt r2, r0\n\
               br r3, b2, b3\n\
             b2:\n\
               r4 = add r1, r2\n\
               r1 = mov r4\n\
               r5 = const int 1\n\
               r6 = add r2, r5\n\
               r2 = mov r6\n\
               jump b1\n\
             b3:\n\
               ret r1\n\
             }\n";
        let m0 = parse_module(text).unwrap();
        let m1 = fold(text);
        for n in [0i64, 1, 5, 10] {
            let mut e0 = BasicEnv::new(&m0);
            let mut e1 = BasicEnv::new(&m1);
            assert_eq!(
                call(&m0, &mut e0, FuncId(0), &[Value::Int(n)]).unwrap(),
                call(&m1, &mut e1, FuncId(0), &[Value::Int(n)]).unwrap()
            );
        }
    }

    #[test]
    fn folds_bytes_len_of_constant() {
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const bytes aabbcc\n\
               r1 = blen r0\n\
               ret r1\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Const {
                value: Value::Int(3),
                ..
            }
        ));
    }

    #[test]
    fn uninitialized_reg_folds_as_unit() {
        // r1 is never written before use; it holds Unit, so `eq r1, unit`
        // folds to true.
        let m = fold(
            "func @f(0) {\n\
             b0:\n\
               r0 = const unit\n\
               r2 = eq r0, r1\n\
               ret r2\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Const {
                value: Value::Bool(true),
                ..
            }
        ));
    }
}
