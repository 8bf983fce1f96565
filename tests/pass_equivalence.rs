//! Property test: the compiler pass pipeline preserves semantics —
//! result value, faults, and global side effects — on randomly generated
//! IR functions.

mod common;

use common::{build_module, gen_function, GenFunction, GenInstr, GenTerm, GEN_GLOBALS};
use pdo_ir::interp::{call, BasicEnv};
use pdo_ir::{FuncId, GlobalId, Module, Value};
use pdo_passes::PassManager;
use proptest::prelude::*;

/// Runs `gen` in a fresh environment; returns the result (errors reduced
/// to their display string) and the final globals.
fn observe(m: &Module, args: &[Value]) -> (Result<Value, String>, Vec<Value>) {
    let mut env = BasicEnv::new(m);
    env.fuel = Some(100_000);
    let r = call(m, &mut env, FuncId(0), args).map_err(|e| e.to_string());
    let globals = (0..GEN_GLOBALS)
        .map(|g| env.global(GlobalId(u32::from(g))).clone())
        .collect();
    (r, globals)
}

/// The property's body for one function and its integer arguments:
/// the standard pipeline's output verifies, is a fixed point, and
/// behaves as the original does.
fn check(f: &GenFunction, arg_vals: &[i64]) -> Result<(), TestCaseError> {
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

    let args: Vec<Value> = (0..f.params)
        .map(|i| Value::Int(arg_vals.get(usize::from(i)).copied().unwrap_or(1)))
        .collect();

    let before = observe(&original, &args);
    let after = observe(&optimized, &args);
    prop_assert_eq!(&before.1, &after.1, "globals diverged");
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
    check(&f, &[4, -4]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn standard_pipeline_preserves_behaviour(
        f in gen_function(),
        arg_vals in prop::collection::vec(-10i64..10, 0..3),
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
