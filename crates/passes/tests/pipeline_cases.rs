//! Directed end-to-end cases for the pass pipeline: the merged-handler
//! shapes the optimizer produces, written out by hand, with exact expected
//! simplifications.

use pdo_ir::interp::{call, BasicEnv};
use pdo_ir::parse::parse_module;
use pdo_ir::{FuncId, GlobalId, Instr, Value};
use pdo_passes::{optimize_single_function, PassManager};

/// The canonical post-merge shape: two handlers' bodies back to back, each
/// with its own lock/load/store block on the same global. The pipeline
/// should coalesce the interior unlock/lock pair, forward the reload, and
/// drop the now-redundant store.
#[test]
fn merged_handler_shape_fully_cleans_up() {
    let text = "global acc = int 0\n\
         func @super(1) {\n\
         b0:\n\
           lock $acc\n\
           r1 = load $acc\n\
           r2 = const int 1\n\
           r3 = add r1, r2\n\
           store $acc, r3\n\
           unlock $acc\n\
           lock $acc\n\
           r4 = load $acc\n\
           r5 = const int 10\n\
           r6 = add r4, r5\n\
           store $acc, r6\n\
           unlock $acc\n\
           ret\n\
         }\n";
    let mut m = parse_module(text).unwrap();
    let before_locks = count_locks(&m);
    assert_eq!(before_locks, 4);
    PassManager::standard().run(&mut m);

    // Behaviour unchanged...
    let mut env = BasicEnv::new(&m);
    call(&m, &mut env, FuncId(0), &[Value::Unit]).unwrap();
    assert_eq!(env.global(GlobalId(0)), &Value::Int(11));
    // ...with a single critical section and a single load of the global.
    assert_eq!(count_locks(&m), 2, "{}", m.functions[0]);
    let loads = m.functions[0]
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter(|i| matches!(i, Instr::LoadGlobal { .. }))
        .count();
    assert_eq!(loads, 1, "{}", m.functions[0]);
}

fn count_locks(m: &pdo_ir::Module) -> usize {
    m.functions[0]
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter(|i| matches!(i, Instr::Lock { .. } | Instr::Unlock { .. }))
        .count()
}

/// Inlining a helper exposes constants that fold through a branch,
/// collapsing the CFG to a straight line.
#[test]
fn inline_then_fold_collapses_branches() {
    let text = "func @main(0) {\n\
         b0:\n\
           r0 = const int 3\n\
           r1 = call @classify(r0)\n\
           ret r1\n\
         }\n\
         func @classify(1) {\n\
         b0:\n\
           r1 = const int 5\n\
           r2 = lt r0, r1\n\
           br r2, b1, b2\n\
         b1:\n\
           r3 = const int 100\n\
           ret r3\n\
         b2:\n\
           r4 = const int 200\n\
           ret r4\n\
         }\n";
    let mut m = parse_module(text).unwrap();
    PassManager::standard().run(&mut m);
    let main = &m.functions[0];
    assert_eq!(main.blocks.len(), 1, "{main}");
    assert!(main.instr_count() <= 2, "{main}");
    let mut env = BasicEnv::new(&m);
    assert_eq!(call(&m, &mut env, FuncId(0), &[]).unwrap(), Value::Int(100));
}

/// The scoped pipeline must not touch other functions.
#[test]
fn optimize_single_function_is_scoped() {
    let text = "func @a(0) {\n\
         b0:\n\
           r0 = const int 2\n\
           r1 = const int 3\n\
           r2 = mul r0, r1\n\
           ret r2\n\
         }\n\
         func @b(0) {\n\
           b0:\n\
           r0 = const int 2\n\
           r1 = const int 3\n\
           r2 = mul r0, r1\n\
           ret r2\n\
         }\n";
    let mut m = parse_module(text).unwrap();
    let b_before = m.functions[1].clone();
    let report = optimize_single_function(&mut m, FuncId(0), None);
    assert!(report.converged);
    assert!(report.instrs_after < report.instrs_before);
    assert_eq!(report.instrs_after, m.functions[0].instr_count());
    assert_eq!(m.functions[1], b_before, "function b untouched");
}

/// Redundant work across merged handlers: once handler bodies share one
/// block, the duplicated `blen` + comparison become common subexpressions.
#[test]
fn repeated_checks_across_merged_handlers_are_deduplicated() {
    let text = "global count = int 0\n\
         func @super(1) {\n\
         b0:\n\
           r1 = blen r0\n\
           r2 = const int 0\n\
           r3 = gt r1, r2\n\
           r4 = load $count\n\
           r5 = const int 1\n\
           r6 = add r4, r5\n\
           store $count, r6\n\
           r7 = blen r0\n\
           r8 = const int 0\n\
           r9 = gt r7, r8\n\
           r10 = eq r3, r9\n\
           ret r10\n\
         }\n";
    let mut m = parse_module(text).unwrap();
    PassManager::standard().run(&mut m);
    let blens = m.functions[0]
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter(|i| matches!(i, Instr::BytesLen { .. }))
        .count();
    assert_eq!(
        blens, 1,
        "duplicate length check removed: {}",
        m.functions[0]
    );
    let gts = m.functions[0]
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter(|i| {
            matches!(
                i,
                Instr::Bin {
                    op: pdo_ir::BinOp::Gt,
                    ..
                }
            )
        })
        .count();
    assert_eq!(gts, 1, "duplicate comparison removed: {}", m.functions[0]);

    let mut env = BasicEnv::new(&m);
    let r = call(&m, &mut env, FuncId(0), &[Value::bytes(vec![1, 2])]).unwrap();
    assert_eq!(r, Value::Bool(true));
    assert_eq!(env.global(GlobalId(0)), &Value::Int(1));
}

/// Constant folding and CSE used to disagree on how a repeated constant is
/// spelled when both registers stay live across a block boundary: folding
/// turned `r2 = mov r1` into `r2 = const 5`, CSE turned it straight back,
/// both reported a change, and the pipeline ran to its iteration cap —
/// leaving whichever spelling the cap's parity selected. One canonical
/// form (the first `const` materialises, later ones are `mov`s) makes the
/// output a fixed point: a second run finds nothing to do.
#[test]
fn repeated_constant_live_across_blocks_converges() {
    let text = "global a = int 0\n\
         global b = int 0\n\
         func @f(1) {\n\
         b0:\n\
           r1 = const int 5\n\
           r2 = const int 5\n\
           br r0, b1, b2\n\
         b1:\n\
           store $a, r1\n\
           store $b, r2\n\
           ret\n\
         b2:\n\
           ret\n\
         }\n";
    let mut m = parse_module(text).unwrap();
    let first = PassManager::standard().run(&mut m);
    assert!(first.converged, "{first:?}");
    assert!(first.iterations <= 3, "{first:?}");
    assert_eq!(
        m.functions[0].blocks[0].instrs[1],
        Instr::Mov {
            dst: pdo_ir::Reg(2),
            src: pdo_ir::Reg(1)
        },
        "the later constant is a mov from the first"
    );

    let second = PassManager::standard().run(&mut m);
    assert!(second.converged);
    assert_eq!(second.iterations, 1, "{second:?}");
    assert!(
        second.pass_changes.iter().all(|&(_, n)| n == 0),
        "{second:?}"
    );

    for cond in [true, false] {
        let mut env = BasicEnv::new(&m);
        call(&m, &mut env, FuncId(0), &[Value::Bool(cond)]).unwrap();
        let want = if cond { Value::Int(5) } else { Value::Int(0) };
        assert_eq!(env.global(GlobalId(0)), &want);
        assert_eq!(env.global(GlobalId(1)), &want);
    }
}
