//! CFG simplification: unreachable-block removal, jump threading and
//! straight-line block merging.

use crate::analysis::reachable_blocks;
use pdo_ir::{Block, BlockId, Function, Terminator};

/// Simplifies `f`'s CFG until no sub-step finds more to do. Returns `true`
/// if `f` changed.
pub(crate) fn cleanup_function(f: &mut Function) -> bool {
    let mut changed = false;
    // Iterate locally: each sub-step can expose more work for the others.
    loop {
        let mut step_changed = false;
        step_changed |= thread_trivial_jumps(f);
        step_changed |= merge_single_pred_chains(f);
        step_changed |= drop_unreachable(f);
        if !step_changed {
            break;
        }
        changed = true;
    }
    changed
}

/// Rewrites edges that target a block containing only `jump bN` to point at
/// `bN` directly.
fn thread_trivial_jumps(f: &mut Function) -> bool {
    // trivial[b] = Some(target) if block b is empty and ends in jump.
    let trivial: Vec<Option<BlockId>> = f
        .blocks
        .iter()
        .map(|b| match (&b.instrs.is_empty(), &b.term) {
            (true, Terminator::Jump(t)) => Some(*t),
            _ => None,
        })
        .collect();

    let resolve = |mut b: BlockId| -> BlockId {
        // Bound chain chasing to the block count to tolerate jump cycles.
        for _ in 0..trivial.len() {
            match trivial[b.index()] {
                Some(next) if next != b => b = next,
                _ => break,
            }
        }
        b
    };

    let mut changed = false;
    for block in &mut f.blocks {
        let before = block.term.clone();
        block.term.map_successors(resolve);
        if block.term != before {
            changed = true;
        }
    }
    changed
}

/// How many edges enter each block (a branch with both arms to one block
/// counts twice).
fn predecessor_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0; f.blocks.len()];
    for block in &f.blocks {
        block.term.for_each_successor(|s| {
            if let Some(c) = counts.get_mut(s.index()) {
                *c += 1;
            }
        });
    }
    counts
}

/// Merges `a -> jump b` into a single block when `b` has exactly one
/// predecessor and is not the entry block, every such chain in one sweep.
///
/// The predecessor counts are taken once and stay exact across merges: `a`
/// takes over `b`'s out-edges, so no other block's count moves, and `b`,
/// left in place as an empty `ret` (unreachable, collected by
/// `drop_unreachable`, so other blocks' ids stay stable within this step),
/// has no predecessor left. A chain is absorbed by its head whatever order
/// its links are merged in.
fn merge_single_pred_chains(f: &mut Function) -> bool {
    let mut preds = predecessor_counts(f);
    let mut changed = false;
    for a in 0..f.blocks.len() {
        while let Terminator::Jump(t) = f.blocks[a].term {
            let t = t.index();
            if t == 0 || t == a || preds[t] != 1 {
                break;
            }
            let spliced = std::mem::replace(&mut f.blocks[t], Block::new(Terminator::Ret(None)));
            preds[t] = 0;
            let a_block = &mut f.blocks[a];
            a_block.instrs.extend(spliced.instrs);
            a_block.term = spliced.term;
            changed = true;
        }
    }
    changed
}

/// Removes unreachable blocks, compacting ids.
fn drop_unreachable(f: &mut Function) -> bool {
    let reach = reachable_blocks(f);
    if reach.iter().all(|&r| r) {
        return false;
    }
    // Build the id remapping.
    let mut remap = vec![BlockId(0); f.blocks.len()];
    let mut next = 0u32;
    for (i, &r) in reach.iter().enumerate() {
        if r {
            remap[i] = BlockId(next);
            next += 1;
        }
    }
    let mut idx = 0;
    f.blocks.retain(|_| {
        let keep = reach[idx];
        idx += 1;
        keep
    });
    for block in &mut f.blocks {
        block.term.map_successors(|t| remap[t.index()]);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;
    use pdo_ir::{FuncId, Module, Value};

    fn clean(text: &str) -> Module {
        let mut m = parse_module(text).unwrap();
        for f in &mut m.functions {
            cleanup_function(f);
        }
        pdo_ir::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn predecessors_computed() {
        let f = pdo_ir::Function {
            name: "f".into(),
            params: 0,
            reg_count: 1,
            blocks: vec![
                Block::new(Terminator::Branch {
                    cond: pdo_ir::Reg(0),
                    then_blk: BlockId(1),
                    else_blk: BlockId(2),
                }),
                Block::new(Terminator::Jump(BlockId(2))),
                Block::new(Terminator::Ret(None)),
            ],
        };
        assert_eq!(predecessor_counts(&f), [0, 1, 2]);
    }

    #[test]
    fn removes_unreachable_blocks() {
        let m = clean(
            "func @f(0) {\n\
             b0:\n\
               jump b2\n\
             b1:\n\
               ret\n\
             b2:\n\
               ret\n\
             }\n",
        );
        // b1 removed; b0's jump retargeted... and then merged.
        assert!(m.functions[0].blocks.len() <= 2);
    }

    #[test]
    fn threads_empty_jump_blocks() {
        let m = clean(
            "func @f(1) {\n\
             b0:\n\
               br r0, b1, b2\n\
             b1:\n\
               jump b3\n\
             b2:\n\
               jump b3\n\
             b3:\n\
               ret r0\n\
             }\n",
        );
        match &m.functions[0].blocks[0].term {
            Terminator::Branch {
                then_blk, else_blk, ..
            } => assert_eq!(then_blk, else_blk),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn merges_straight_line_chain() {
        let m = clean(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 1\n\
               jump b1\n\
             b1:\n\
               r1 = const int 2\n\
               jump b2\n\
             b2:\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        );
        assert_eq!(m.functions[0].blocks.len(), 1);
        assert_eq!(m.functions[0].blocks[0].instrs.len(), 3);
        let mut env = BasicEnv::new(&m);
        assert_eq!(call(&m, &mut env, FuncId(0), &[]).unwrap(), Value::Int(3));
    }

    #[test]
    fn preserves_loops() {
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
        let m = clean(text);
        let mut env = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut env, FuncId(0), &[Value::Int(6)]).unwrap(),
            Value::Int(15)
        );
    }

    #[test]
    fn entry_block_never_merged_away() {
        let m = clean(
            "func @f(0) {\n\
             b0:\n\
               jump b1\n\
             b1:\n\
               ret\n\
             }\n",
        );
        assert!(!m.functions[0].blocks.is_empty());
        let mut env = BasicEnv::new(&m);
        assert_eq!(call(&m, &mut env, FuncId(0), &[]).unwrap(), Value::Unit);
    }

    #[test]
    fn self_loop_not_merged() {
        // An empty self-looping block must not make threading spin forever.
        let m = clean(
            "func @f(1) {\n\
             b0:\n\
               br r0, b1, b2\n\
             b1:\n\
               jump b1\n\
             b2:\n\
               ret\n\
             }\n",
        );
        assert!(m.functions[0].blocks.len() >= 2);
    }
}
