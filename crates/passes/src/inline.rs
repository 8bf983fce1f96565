//! Function inlining.
//!
//! The optimizer replaces generic `raise` dispatch with direct calls to
//! super-handlers; inlining then splices those handlers into the call site
//! ("this in turn opens up the possibility of inlining the function call
//! into the call site", §3.2.1). The pass is also useful on ordinary helper
//! calls inside handler bodies.

use pdo_ir::{Block, BlockId, Function, Instr, Module, Reg, Terminator, Value};

/// Inlines every eligible call site inside `module.functions[caller_idx]`,
/// leaving all other functions untouched. Returns `true` on change.
///
/// A call site is eligible when its callee has at most `threshold`
/// instructions (terminators included) and the call is not (directly)
/// recursive.
pub fn inline_into(module: &mut Module, caller_idx: usize, threshold: usize) -> bool {
    let mut changed = false;
    // One site at a time, the callee (never the caller) spliced from where
    // it lies; iteration reaches a fixed point because recursion is refused.
    while let Some((block, pos, callee_idx)) = find_site(module, caller_idx, threshold) {
        let (caller, callee) = caller_and_callee(&mut module.functions, caller_idx, callee_idx);
        inline_site(caller, block, pos, callee);
        changed = true;
    }
    changed
}

/// Finds the first inlinable call site in `caller`: returns
/// `(block index, instruction index, callee function index)`.
fn find_site(
    module: &Module,
    caller_idx: usize,
    threshold: usize,
) -> Option<(usize, usize, usize)> {
    let caller = &module.functions[caller_idx];
    for (b, block) in caller.blocks.iter().enumerate() {
        for (i, instr) in block.instrs.iter().enumerate() {
            let Instr::Call { func, .. } = instr else {
                continue;
            };
            let callee_idx = func.index();
            if callee_idx == caller_idx || callee_idx >= module.functions.len() {
                continue;
            }
            let callee = &module.functions[callee_idx];
            if callee.instr_count() > threshold {
                continue;
            }
            // Refuse callees that call themselves (direct recursion).
            if calls_function(callee, callee_idx) {
                continue;
            }
            // Refuse callees that call back into the caller (mutual
            // recursion would otherwise ping-pong between iterations).
            if calls_function(callee, caller_idx) {
                continue;
            }
            // Register-file ceiling: splicing adds callee.reg_count regs.
            if usize::from(caller.reg_count) + usize::from(callee.reg_count) > usize::from(u16::MAX)
            {
                continue;
            }
            return Some((b, i, callee_idx));
        }
    }
    None
}

/// The caller to splice into and the callee to splice from: two distinct
/// functions of one module, borrowed apart.
fn caller_and_callee(
    functions: &mut [Function],
    caller_idx: usize,
    callee_idx: usize,
) -> (&mut Function, &Function) {
    if caller_idx < callee_idx {
        let (lo, hi) = functions.split_at_mut(callee_idx);
        (&mut lo[caller_idx], &hi[0])
    } else {
        let (lo, hi) = functions.split_at_mut(caller_idx);
        (&mut hi[0], &lo[callee_idx])
    }
}

fn calls_function(f: &Function, target: usize) -> bool {
    f.blocks.iter().any(|b| {
        b.instrs
            .iter()
            .any(|i| matches!(i, Instr::Call { func, .. } if func.index() == target))
    })
}

/// Splices `callee` into `caller` at `caller.blocks[block].instrs[pos]`,
/// which must be a `Call` instruction.
fn inline_site(caller: &mut Function, block: usize, pos: usize, callee: &Function) {
    let reg_offset = caller.reg_count;
    let block_offset = caller.blocks.len() as u32 + 1; // +1 for continuation
    caller.reg_count += callee.reg_count;

    // Split the caller block: tail moves to a continuation block, and the
    // call itself comes off the end.
    let tail: Vec<Instr> = caller.blocks[block].instrs.split_off(pos + 1);
    let Some(Instr::Call { dst, args, .. }) = caller.blocks[block].instrs.pop() else {
        panic!("inline_site called on a non-call instruction");
    };
    let cont_term = std::mem::replace(
        &mut caller.blocks[block].term,
        Terminator::Jump(BlockId(block_offset)),
    );
    let cont_id = BlockId(caller.blocks.len() as u32);
    caller.blocks.push(Block {
        instrs: tail,
        term: cont_term,
    });
    debug_assert_eq!(cont_id.0 + 1, block_offset); // continuation precedes splice

    // Argument copies feed the callee's parameter registers.
    for (i, arg) in args.iter().enumerate() {
        caller.blocks[block].instrs.push(Instr::Mov {
            dst: Reg(reg_offset + i as u16),
            src: *arg,
        });
    }

    // Splice callee blocks, rewriting registers and block ids.
    for cb in &callee.blocks {
        let mut instrs = Vec::with_capacity(cb.instrs.len());
        for instr in &cb.instrs {
            let mut ni = instr.clone();
            ni.map_uses(|r| Reg(r.0 + reg_offset));
            ni.map_def(|r| Reg(r.0 + reg_offset));
            instrs.push(ni);
        }
        let term = match &cb.term {
            Terminator::Jump(t) => Terminator::Jump(BlockId(t.0 + block_offset)),
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => Terminator::Branch {
                cond: Reg(cond.0 + reg_offset),
                then_blk: BlockId(then_blk.0 + block_offset),
                else_blk: BlockId(else_blk.0 + block_offset),
            },
            Terminator::Ret(v) => {
                // Return becomes: dst = value; jump continuation.
                match v {
                    Some(r) => instrs.push(Instr::Mov {
                        dst,
                        src: Reg(r.0 + reg_offset),
                    }),
                    None => instrs.push(Instr::Const {
                        dst,
                        value: Value::Unit,
                    }),
                }
                Terminator::Jump(cont_id)
            }
        };
        caller.blocks.push(Block { instrs, term });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassManager;

    /// Inlines into every function of `m`; whether any changed.
    fn inline_all(m: &mut Module, threshold: usize) -> bool {
        (0..m.functions.len()).fold(false, |changed, f| inline_into(m, f, threshold) | changed)
    }
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;

    fn behaviour(m: &Module, f: &str, args: &[Value]) -> Result<(Value, Vec<Value>), String> {
        let id = m.function_by_name(f).unwrap();
        let mut env = BasicEnv::new(m);
        let r = call(m, &mut env, id, args).map_err(|e| e.to_string())?;
        let globals = (0..m.globals.len())
            .map(|g| env.global(pdo_ir::GlobalId::from_index(g)).clone())
            .collect();
        Ok((r, globals))
    }

    #[test]
    fn inlines_simple_callee() {
        let text = "func @main(1) {\n\
             b0:\n\
               r1 = call @inc(r0)\n\
               r2 = call @inc(r1)\n\
               ret r2\n\
             }\n\
             func @inc(1) {\n\
             b0:\n\
               r1 = const int 1\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let orig = behaviour(&m, "main", &[Value::Int(5)]).unwrap();
        assert!(inline_all(&mut m, 48));
        pdo_ir::verify_module(&m).unwrap();
        // No calls remain in main.
        let main = &m.functions[0];
        assert!(!main
            .blocks
            .iter()
            .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Call { .. }))));
        assert_eq!(behaviour(&m, "main", &[Value::Int(5)]).unwrap(), orig);
        assert_eq!(orig.0, Value::Int(7));
    }

    #[test]
    fn inlines_multi_block_callee() {
        let text = "func @main(1) {\n\
             b0:\n\
               r1 = call @abs(r0)\n\
               ret r1\n\
             }\n\
             func @abs(1) {\n\
             b0:\n\
               r1 = const int 0\n\
               r2 = lt r0, r1\n\
               br r2, b1, b2\n\
             b1:\n\
               r3 = neg r0\n\
               ret r3\n\
             b2:\n\
               ret r0\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(inline_all(&mut m, 48));
        pdo_ir::verify_module(&m).unwrap();
        assert_eq!(
            behaviour(&m, "main", &[Value::Int(-9)]).unwrap().0,
            Value::Int(9)
        );
        assert_eq!(
            behaviour(&m, "main", &[Value::Int(4)]).unwrap().0,
            Value::Int(4)
        );
    }

    #[test]
    fn void_return_produces_unit() {
        let text = "global g = int 0\n\
             func @main(0) {\n\
             b0:\n\
               r0 = call @store5()\n\
               ret r0\n\
             }\n\
             func @store5(0) {\n\
             b0:\n\
               r0 = const int 5\n\
               store $g, r0\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(inline_all(&mut m, 48));
        pdo_ir::verify_module(&m).unwrap();
        let (r, globals) = behaviour(&m, "main", &[]).unwrap();
        assert_eq!(r, Value::Unit);
        assert_eq!(globals[0], Value::Int(5));
    }

    #[test]
    fn recursive_callee_not_inlined() {
        let text = "func @main(1) {\n\
             b0:\n\
               r1 = call @rec(r0)\n\
               ret r1\n\
             }\n\
             func @rec(1) {\n\
             b0:\n\
               r1 = call @rec(r0)\n\
               ret r1\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(!inline_all(&mut m, 48));
    }

    #[test]
    fn oversized_callee_skipped() {
        let mut big = String::from(
            "func @main(1) {\nb0:\n  r1 = call @big(r0)\n  ret r1\n}\nfunc @big(1) {\nb0:\n",
        );
        for i in 1..=60 {
            big.push_str(&format!("  r{i} = const int {i}\n"));
        }
        big.push_str("  ret r0\n}\n");
        let mut m = parse_module(&big).unwrap();
        assert!(!inline_all(&mut m, 48));
        assert!(inline_all(&mut m, 4096));
    }

    #[test]
    fn mutual_recursion_stabilizes() {
        let text = "func @a(1) {\n\
             b0:\n\
               r1 = call @b(r0)\n\
               ret r1\n\
             }\n\
             func @b(1) {\n\
             b0:\n\
               r1 = call @a(r0)\n\
               ret r1\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        // Neither is inlined: each callee calls back into the caller.
        assert!(!inline_all(&mut m, 48));
    }

    #[test]
    fn full_pipeline_after_inline_folds_constants() {
        let text = "func @main(0) {\n\
             b0:\n\
               r0 = const int 20\n\
               r1 = call @inc(r0)\n\
               ret r1\n\
             }\n\
             func @inc(1) {\n\
             b0:\n\
               r1 = const int 1\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        PassManager::standard().run(&mut m);
        // main should collapse to `const 21; ret`.
        let main = &m.functions[0];
        assert_eq!(main.blocks.len(), 1, "main: {}", main);
        assert!(main.instr_count() <= 2, "main: {}", main);
        assert_eq!(behaviour(&m, "main", &[]).unwrap().0, Value::Int(21));
    }

    #[test]
    fn raises_inside_callee_survive_inline() {
        let text = "event E\n\
             func @main(1) {\n\
             b0:\n\
               r1 = call @notify(r0)\n\
               ret r1\n\
             }\n\
             func @notify(1) {\n\
             b0:\n\
               raise sync %E(r0)\n\
               ret r0\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(inline_all(&mut m, 48));
        let id = m.function_by_name("main").unwrap();
        let mut env = BasicEnv::new(&m);
        call(&m, &mut env, id, &[Value::Int(3)]).unwrap();
        assert_eq!(env.raised.len(), 1);
        assert_eq!(env.raised[0].2, vec![Value::Int(3)]);
    }
}
