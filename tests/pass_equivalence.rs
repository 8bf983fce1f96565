//! Property test: the compiler pass pipeline preserves semantics —
//! result value, faults, global side effects, raised events and native
//! calls — on randomly generated IR functions.

mod common;

use common::{build_module, gen_function, GenFunction, GenInstr, GenTerm, GEN_GLOBALS};
use pdo_ir::interp::{call, BasicEnv};
use pdo_ir::{BinOp, EventId, FuncId, GlobalId, Instr, Module, NativeId, RaiseMode, Reg, Value};
use pdo_passes::{locks, PassManager};
use proptest::prelude::*;
use proptest::test_runner::{run, TestRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What one run shows: the result (errors reduced to their display
/// string), the final globals, every event raised and every native call's
/// argument, in order.
type Observed = (
    Result<Value, String>,
    Vec<Value>,
    Vec<(EventId, RaiseMode, Vec<Value>)>,
    Vec<Value>,
);

/// Runs `gen` in a fresh environment whose native `n0` halves a
/// non-negative integer and fails on anything else, so that some runs trap
/// in the middle with global state to compare.
fn observe(m: &Module, args: &[Value]) -> Observed {
    let mut env = BasicEnv::new(m);
    env.fuel = Some(100_000);
    let calls = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&calls);
    env.bind_native(NativeId(0), move |args| {
        log.lock().unwrap().extend_from_slice(args);
        match args {
            [Value::Int(i)] if *i >= 0 => Ok(Value::Int(i / 2)),
            _ => Err("n0 takes a non-negative integer".into()),
        }
    });
    let r = call(m, &mut env, FuncId(0), args).map_err(|e| e.to_string());
    let globals = (0..GEN_GLOBALS)
        .map(|g| env.global(GlobalId(u32::from(g))).clone())
        .collect();
    let calls = std::mem::take(&mut *calls.lock().unwrap());
    (r, globals, env.raised, calls)
}

/// Up to three arguments, each an integer or a boolean: a parameter of
/// either type meets every instruction, so a rewrite that drops a type
/// fault the passes did not prove away shows.
fn gen_args() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(
        prop_oneof![
            (-10i64..10).prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bool),
        ],
        0..3,
    )
}

/// The property's body for one function and its arguments (a missing one
/// is `1`): the standard pipeline's output verifies, is a fixed point, and
/// behaves as the original does.
fn check(f: &GenFunction, arg_vals: &[Value]) -> Result<(), TestCaseError> {
    let original = build_module(f);
    pdo_ir::verify_module(&original).expect("generated module verifies");

    let mut optimized = original.clone();
    let report = PassManager::standard().run(&mut optimized);
    pdo_ir::verify_module(&optimized).expect("optimized module verifies");

    // The output is a fixed point of the pipeline: it stopped because
    // nothing changed, and a second run finds nothing to do.
    prop_assert!(report.converged, "stopped on the iteration cap: {report:?}");
    let mut again = optimized.clone();
    let second = PassManager::standard().run(&mut again);
    prop_assert!(
        second.iterations == 1 && again == optimized,
        "a second run changed the module: {second:?}"
    );

    let args = args_for(f, arg_vals);
    same_behaviour(&observe(&original, &args), &observe(&optimized, &args))
}

/// `f`'s arguments from the drawn ones, `1` for each one missing.
fn args_for(f: &GenFunction, arg_vals: &[Value]) -> Vec<Value> {
    (0..usize::from(f.params))
        .map(|i| arg_vals.get(i).cloned().unwrap_or(Value::Int(1)))
        .collect()
}

/// Two runs show the same behaviour: globals, raised events, native calls
/// and result, where a fault matches any fault.
fn same_behaviour(before: &Observed, after: &Observed) -> Result<(), TestCaseError> {
    prop_assert_eq!(&before.1, &after.1, "globals diverged");
    prop_assert_eq!(&before.2, &after.2, "raised events diverged");
    prop_assert_eq!(&before.3, &after.3, "native calls diverged");
    match (&before.0, &after.0) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "results diverged"),
        (Err(_), Err(_)) => {} // both fault; fault kinds may be refined
        (a, b) => prop_assert!(false, "fault behaviour diverged: {a:?} vs {b:?}"),
    }
    Ok(())
}

/// Shrunk failure of an earlier pipeline (DESIGN.md §8.1): `and r0, r0`
/// faults when `r0` is not a boolean, so DCE must keep it although the
/// load that follows overwrites its result.
#[test]
fn dead_faulting_bin_before_a_load_is_preserved() {
    let f = GenFunction {
        params: 0,
        regs: 1,
        blocks: vec![(
            vec![GenInstr::Bin(5, 0, 0, 0), GenInstr::Load(0, 0)],
            GenTerm::Ret(None),
        )],
    };
    check(&f, &[]).unwrap();
}

/// Shrunk failure of an earlier pipeline (DESIGN.md §8.2): `or false, r1`
/// with an integer `r1` is a type fault, which folding the identity to
/// `mov` erased.
#[test]
fn or_identity_keeps_its_type_fault() {
    let f = GenFunction {
        params: 2,
        regs: 4,
        blocks: vec![(
            vec![GenInstr::ConstBool(0, false), GenInstr::Bin(6, 0, 0, 1)],
            GenTerm::Ret(None),
        )],
    };
    check(&f, &[Value::Int(4), Value::Int(-4)]).unwrap();
}

/// Loads that read their global before anything else in their block does:
/// only a fact carried in over a block edge can forward one.
fn upward_exposed_loads(m: &Module) -> usize {
    let mut count = 0;
    for block in &m.functions[0].blocks {
        let mut seen = Vec::new();
        for instr in &block.instrs {
            let (Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. }) = instr
            else {
                continue;
            };
            if !seen.contains(global) {
                seen.push(*global);
                count += usize::from(matches!(instr, Instr::LoadGlobal { .. }));
            }
        }
    }
    count
}

/// Cases each property draws. Few generated functions give load forwarding
/// a fact to carry over a block edge, so it takes this many to see a few
/// dozen that do.
const CASES: u32 = 2048;

/// Runs `count` on each case `standard_pipeline_preserves_behaviour`
/// draws by default, and returns how many it counted.
fn count_default_cases(mut count: impl FnMut(&GenFunction, &[Value]) -> bool) -> usize {
    let strategy = (gen_function(), gen_args());
    let mut counted = 0;
    run(
        &ProptestConfig::with_cases(CASES),
        "standard_pipeline_preserves_behaviour",
        |rng: &mut TestRng| {
            let (f, arg_vals) = strategy.generate(rng);
            counted += usize::from(count(&f, &arg_vals));
            Ok(())
        },
    );
    counted
}

/// The generator keeps exercising the CFG-wide forwarding: among the cases
/// `standard_pipeline_preserves_behaviour` draws by default, load
/// forwarding on its own takes a load over a block edge in at least 10.
#[test]
fn default_cases_forward_loads_across_block_edges() {
    let forwarded = count_default_cases(|f, _| {
        let mut m = build_module(f);
        let before = upward_exposed_loads(&m);
        locks::forward_function(&mut m.functions[0]);
        upward_exposed_loads(&m) < before
    });
    println!("{forwarded} of {CASES} default cases forward a load across a block edge");
    assert!(forwarded >= 10, "only {forwarded} of {CASES}");
}

/// `m` with each `and true, x` / `or false, x` (either operand order)
/// whose constant is a `const` of the same block turned into `mov x`,
/// whatever `x`'s type: constant folding's identity rule without its type
/// gate, within a block.
fn ungated_identities(m: &Module) -> Module {
    let mut m = m.clone();
    for block in &mut m.functions[0].blocks {
        let mut konst: HashMap<Reg, Value> = HashMap::new();
        for instr in &mut block.instrs {
            if let Instr::Bin {
                op: op @ (BinOp::And | BinOp::Or),
                dst,
                lhs,
                rhs,
            } = *instr
            {
                let identity = Value::Bool(op == BinOp::And);
                if konst.get(&lhs) == Some(&identity) {
                    *instr = Instr::Mov { dst, src: rhs };
                } else if konst.get(&rhs) == Some(&identity) {
                    *instr = Instr::Mov { dst, src: lhs };
                }
            }
            match instr {
                Instr::Const { dst, value } => {
                    konst.insert(*dst, value.clone());
                }
                other => {
                    if let Some(d) = other.def() {
                        konst.remove(&d);
                    }
                }
            }
        }
    }
    m
}

/// The generator keeps the identity type gate honest (DESIGN.md §8.2):
/// among the cases `standard_pipeline_preserves_behaviour` draws by
/// default, dropping the gate changes what at least 10 of them do.
#[test]
fn default_cases_fault_on_an_identity_of_the_wrong_type() {
    let exposed = count_default_cases(|f, arg_vals| {
        let original = build_module(f);
        let args = args_for(f, arg_vals);
        let before = observe(&original, &args);
        same_behaviour(&before, &observe(&ungated_identities(&original), &args)).is_err()
    });
    println!("{exposed} of {CASES} default cases behave otherwise without the identity type gate");
    assert!(exposed >= 10, "only {exposed} of {CASES}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn standard_pipeline_preserves_behaviour(
        f in gen_function(),
        arg_vals in gen_args(),
    ) {
        check(&f, &arg_vals)?;
    }

    #[test]
    fn pipeline_never_grows_code(f in gen_function()) {
        let original = build_module(&f);
        let mut optimized = original.clone();
        let report = PassManager::standard().run(&mut optimized);
        prop_assert!(report.instrs_after <= report.instrs_before);
    }
}
