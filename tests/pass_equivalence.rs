//! Property test: the compiler pass pipeline preserves semantics —
//! result value, faults, global side effects, raised events and native
//! calls — on randomly generated IR functions.

mod common;

use common::{build_module, gen_function, GenFunction, GenInstr, GenTerm, GEN_GLOBALS};
use pdo_ir::interp::{call, BasicEnv};
use pdo_ir::{EventId, FuncId, GlobalId, Instr, Module, NativeId, RaiseMode, Value};
use pdo_passes::{Pass, PassManager, RedundantLoadElim};
use proptest::prelude::*;
use proptest::test_runner::{run, TestRng};
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
    check(&f, &[4, -4]).unwrap();
}

/// Loads that read their global before anything else in their block does:
/// only a fact carried in over a block edge can forward one.
fn upward_exposed_loads(m: &Module) -> usize {
    let mut count = 0;
    for block in &m.functions[0].blocks {
        let mut seen = Vec::new();
        for instr in &block.instrs {
            let (Instr::LoadGlobal { global, .. }
            | Instr::StoreGlobal { global, .. }
            | Instr::LockedStore { global, .. }) = instr
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

/// The generator keeps exercising the CFG-wide forwarding: among the cases
/// `standard_pipeline_preserves_behaviour` draws by default, load
/// forwarding on its own takes a load over a block edge in at least 10.
#[test]
fn default_cases_forward_loads_across_block_edges() {
    let strategy = (gen_function(), prop::collection::vec(-10i64..10, 0..3));
    let mut forwarded = 0;
    run(
        &ProptestConfig::with_cases(CASES),
        "standard_pipeline_preserves_behaviour",
        |rng: &mut TestRng| {
            let (f, _) = strategy.generate(rng);
            let mut m = build_module(&f);
            let before = upward_exposed_loads(&m);
            RedundantLoadElim.run(&mut m);
            forwarded += usize::from(upward_exposed_loads(&m) < before);
            Ok(())
        },
    );
    println!("{forwarded} of {CASES} default cases forward a load across a block edge");
    assert!(forwarded >= 10, "only {forwarded} of {CASES}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

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
