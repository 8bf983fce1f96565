//! Local copy propagation.
//!
//! Within each block, after `dst = mov src`, uses of `dst` are rewritten to
//! `src` until either register is redefined (or `src`'s buffer is mutated in
//! place by `bset`). This mostly cleans up the argument-passing `mov`s that
//! inlining and handler merging introduce.

use pdo_ir::{Function, Instr, Reg, Terminator};

/// Propagates copies within each of `f`'s blocks. Returns `true` if `f`
/// changed.
pub(crate) fn propagate_function(f: &mut Function) -> bool {
    let mut changed = false;
    // copy_of[d] = Some(s) means registers d and s currently hold the same
    // value and s is the preferred (older) name; `copies` lists the d that
    // have one, so invalidation looks at the live relations only.
    let mut copy_of: Vec<Option<Reg>> = vec![None; usize::from(f.reg_count)];
    let mut copies: Vec<Reg> = Vec::new();

    // Chase chains (a=mov b; c=mov a) with a small bound to stay robust
    // against accidental cycles.
    fn resolve(copy_of: &[Option<Reg>], mut r: Reg, changed: &mut bool) -> Reg {
        for _ in 0..copy_of.len() {
            match copy_of[r.index()] {
                Some(next) => {
                    r = next;
                    *changed = true;
                }
                None => break,
            }
        }
        r
    }

    // Invalidate any copy relation involving `r` (as source or dest).
    fn kill(copy_of: &mut [Option<Reg>], copies: &mut Vec<Reg>, r: Reg) {
        copy_of[r.index()] = None;
        copies.retain(|d| {
            let live = copy_of[d.index()].is_some_and(|s| s != r);
            if !live {
                copy_of[d.index()] = None;
            }
            live
        });
    }

    for block in &mut f.blocks {
        for d in copies.drain(..) {
            copy_of[d.index()] = None;
        }

        for instr in &mut block.instrs {
            // Rewrite uses first. `bset` is special: its *bytes* operand is
            // mutated in place, so renaming it to the copy source would
            // redirect the mutation to a different register — only its
            // index/value operands may be rewritten.
            if let Instr::BytesSet { index, value, .. } = instr {
                *index = resolve(&copy_of, *index, &mut changed);
                *value = resolve(&copy_of, *value, &mut changed);
            } else {
                instr.map_uses(|r| resolve(&copy_of, r, &mut changed));
            }

            // `bset` mutates the buffer named by its bytes register in
            // place; any alias relation involving it is stale.
            if let Instr::BytesSet { bytes, .. } = instr {
                kill(&mut copy_of, &mut copies, *bytes);
            }

            match instr {
                Instr::Mov { dst, src } if dst != src => {
                    let (d, s) = (*dst, *src);
                    kill(&mut copy_of, &mut copies, d);
                    copy_of[d.index()] = Some(s);
                    copies.push(d);
                }
                other => {
                    if let Some(d) = other.def() {
                        kill(&mut copy_of, &mut copies, d);
                    }
                }
            }
        }

        match &mut block.term {
            Terminator::Branch { cond, .. } => *cond = resolve(&copy_of, *cond, &mut changed),
            Terminator::Ret(Some(r)) => *r = resolve(&copy_of, *r, &mut changed),
            _ => {}
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

    fn prop(text: &str) -> Module {
        let mut m = parse_module(text).unwrap();
        for f in &mut m.functions {
            propagate_function(f);
        }
        pdo_ir::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn forwards_simple_copy() {
        let m = prop(
            "func @f(1) {\n\
             b0:\n\
               r1 = mov r0\n\
               r2 = const int 1\n\
               r3 = add r1, r2\n\
               ret r3\n\
             }\n",
        );
        assert!(matches!(
            m.functions[0].blocks[0].instrs[2],
            Instr::Bin { lhs: Reg(0), .. }
        ));
    }

    #[test]
    fn chases_copy_chains() {
        let m = prop(
            "func @f(1) {\n\
             b0:\n\
               r1 = mov r0\n\
               r2 = mov r1\n\
               ret r2\n\
             }\n",
        );
        assert_eq!(m.functions[0].blocks[0].term, Terminator::Ret(Some(Reg(0))));
    }

    #[test]
    fn redefinition_of_source_kills_copy() {
        let text = "func @f(1) {\n\
             b0:\n\
               r1 = mov r0\n\
               r2 = const int 99\n\
               r0 = mov r2\n\
               ret r1\n\
             }\n";
        let m = prop(text);
        // r1 must not be replaced by the redefined r0.
        assert_eq!(m.functions[0].blocks[0].term, Terminator::Ret(Some(Reg(1))));
        let m0 = parse_module(text).unwrap();
        let mut e0 = BasicEnv::new(&m0);
        let mut e1 = BasicEnv::new(&m);
        assert_eq!(
            call(&m0, &mut e0, FuncId(0), &[Value::Int(5)]).unwrap(),
            call(&m, &mut e1, FuncId(0), &[Value::Int(5)]).unwrap()
        );
    }

    #[test]
    fn bset_kills_alias() {
        // r1 = mov r0 (bytes); bset r0 mutates; returning r1's replacement
        // r0 would observe the mutation — forbidden.
        let text = "func @f(0) {\n\
             b0:\n\
               r0 = const bytes 00\n\
               r1 = mov r0\n\
               r2 = const int 0\n\
               r3 = const int 9\n\
               bset r0, r2, r3\n\
               ret r1\n\
             }\n";
        let m = prop(text);
        assert_eq!(m.functions[0].blocks[0].term, Terminator::Ret(Some(Reg(1))));
        let mut env = BasicEnv::new(&m);
        let out = call(&m, &mut env, FuncId(0), &[]).unwrap();
        assert_eq!(out, Value::bytes(vec![0]));
    }

    #[test]
    fn self_move_not_registered() {
        let m = prop(
            "func @f(1) {\n\
             b0:\n\
               r0 = mov r0\n\
               ret r0\n\
             }\n",
        );
        assert_eq!(m.functions[0].blocks[0].term, Terminator::Ret(Some(Reg(0))));
    }
}
