//! Liveness-based dead-code elimination.
//!
//! An instruction is removed when its destination is dead at that point and
//! the instruction has no side effect (stores, locks, calls, raises, buffer
//! mutation, and *potentially faulting* operations all count as effects, so
//! optimized code faults exactly when the original would).

use crate::analysis::{cannot_fault, liveness, type_states, type_step};
use pdo_ir::{Function, Terminator};

/// Deletes `f`'s dead instructions that cannot fault. Returns `true` if `f`
/// changed.
pub fn dce_function(f: &mut Function) -> bool {
    let lv = liveness(f);
    let ty_in = type_states(f);
    let mut changed = false;
    for (b, block) in f.blocks.iter_mut().enumerate() {
        // Forward pass: which instructions may go if their result is dead
        // — no side effect, and proven unable to fault by the type state
        // before them.
        let mut ty = ty_in[b].clone();
        let removable: Vec<bool> = block
            .instrs
            .iter()
            .map(|instr| {
                let removable = !instr.has_side_effect() && cannot_fault(instr, &ty);
                type_step(&mut ty, instr);
                removable
            })
            .collect();

        let mut live = lv.live_out[b].clone();
        match &block.term {
            Terminator::Branch { cond, .. } => {
                live.insert(*cond);
            }
            Terminator::Ret(Some(r)) => {
                live.insert(*r);
            }
            _ => {}
        }
        // Walk backwards, retaining live, effectful, or possibly-faulting
        // instructions.
        let mut keep = vec![true; block.instrs.len()];
        for (i, instr) in block.instrs.iter().enumerate().rev() {
            let dead = match instr.def() {
                Some(d) => !live.contains(d),
                None => false,
            };
            if dead && removable[i] {
                keep[i] = false;
                changed = true;
                continue;
            }
            if let Some(d) = instr.def() {
                live.remove(d);
            }
            instr.for_each_use(|r| {
                live.insert(r);
            });
        }
        if keep.iter().any(|k| !k) {
            let mut it = keep.iter();
            block.instrs.retain(|_| *it.next().expect("keep mask"));
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

    fn run_dce(text: &str) -> Module {
        let mut m = parse_module(text).unwrap();
        for f in &mut m.functions {
            dce_function(f);
        }
        pdo_ir::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn removes_unused_pure_instruction() {
        let m = run_dce(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 1\n\
               r2 = add r0, r0\n\
               ret r0\n\
             }\n",
        );
        // The const is dead and cannot fault: removed. The add reads the
        // untyped parameter r0 and could fault, so it must stay even
        // though its result is dead.
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 1);
        assert!(matches!(
            m.functions[0].blocks[0].instrs[0],
            Instr::Bin { .. }
        ));
    }

    use pdo_ir::Instr;

    #[test]
    fn removes_dead_arithmetic_with_proven_int_types() {
        let m = run_dce(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 2\n\
               r1 = add r0, r0\n\
               ret\n\
             }\n",
        );
        assert!(m.functions[0].blocks[0].instrs.is_empty());
    }

    #[test]
    fn keeps_dead_bool_op_on_untyped_operands() {
        let m = run_dce(
            "func @f(1) {\n\
             b0:\n\
               r1 = and r0, r0\n\
               ret\n\
             }\n",
        );
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 1);
    }

    #[test]
    fn eq_never_faults_and_is_removable() {
        let m = run_dce(
            "func @f(2) {\n\
             b0:\n\
               r2 = eq r0, r1\n\
               ret\n\
             }\n",
        );
        assert!(m.functions[0].blocks[0].instrs.is_empty());
    }

    #[test]
    fn transitively_dead_chain_removed_in_one_pass() {
        let m = run_dce(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 1\n\
               r2 = add r1, r1\n\
               r3 = add r2, r2\n\
               ret r0\n\
             }\n",
        );
        assert!(m.functions[0].blocks[0].instrs.is_empty());
    }

    #[test]
    fn keeps_effectful_instructions() {
        let m = run_dce(
            "event E\n\
             global g = int 0\n\
             native work\n\
             func @f(1) {\n\
             b0:\n\
               r1 = const int 1\n\
               store $g, r1\n\
               r2 = native !work(r1)\n\
               raise sync %E(r1)\n\
               ret r0\n\
             }\n",
        );
        // const feeds the store; store, native, and raise all stay.
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 4);
    }

    #[test]
    fn keeps_potentially_faulting_division() {
        let text = "func @f(2) {\n\
             b0:\n\
               r2 = div r0, r1\n\
               ret r0\n\
             }\n";
        let m = run_dce(text);
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 1);
        let mut env = BasicEnv::new(&m);
        assert!(call(&m, &mut env, FuncId(0), &[Value::Int(1), Value::Int(0)]).is_err());
    }

    #[test]
    fn loop_carried_values_kept() {
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
        let m = run_dce(text);
        let mut env = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut env, FuncId(0), &[Value::Int(5)]).unwrap(),
            Value::Int(10)
        );
    }

    #[test]
    fn dead_code_after_branch_arm_removed() {
        let m = run_dce(
            "func @f(1) {\n\
             b0:\n\
               r1 = const bool true\n\
               r2 = add r0, r0\n\
               br r1, b1, b2\n\
             b1:\n\
               ret r2\n\
             b2:\n\
               ret r0\n\
             }\n",
        );
        // r2 is live in b1, so the add stays; r1 feeds the branch.
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 2);
    }
}
