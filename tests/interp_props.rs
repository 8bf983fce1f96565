//! Property tests for the interpreter and the assembler: determinism,
//! execution equivalence across a print/parse round-trip, and fusion that
//! no fuel budget can tell from the sequences it replaced.

mod common;

use common::{build_module, gen_function, GenFunction, GEN_GLOBALS};
use pdo_ir::display::print_module;
use pdo_ir::interp::{call, BasicEnv, ExecError};
use pdo_ir::parse::parse_module;
use pdo_ir::{CostCounter, EventId, FuncId, GlobalId, Module, RaiseMode, Value};
use pdo_passes::{fuse_function, FusionRecord};
use proptest::prelude::*;
use proptest::test_runner::{run, TestRng};

fn observe(m: &Module, args: &[Value]) -> (Result<Value, String>, Vec<Value>, u64) {
    let mut env = BasicEnv::new(m);
    env.fuel = Some(100_000);
    let r = call(m, &mut env, FuncId(0), args).map_err(|e| e.to_string());
    let globals = (0..GEN_GLOBALS)
        .map(|g| env.global(GlobalId(u32::from(g))).clone())
        .collect();
    (r, globals, env.cost.instrs)
}

/// Everything a run under `fuel` leaves that fusion must not change: the
/// result, the globals, the raises, the charges, the fuel left and whether
/// every lock was released.
type Metered = (
    Result<Value, ExecError>,
    Vec<Value>,
    Vec<(EventId, RaiseMode, Vec<Value>)>,
    CostCounter,
    Option<u64>,
    bool,
);

fn metered(m: &Module, args: &[Value], fuel: Option<u64>) -> Metered {
    let mut env = BasicEnv::new(m);
    env.fuel = fuel;
    let r = call(m, &mut env, FuncId(0), args);
    let globals = (0..GEN_GLOBALS)
        .map(|g| env.global(GlobalId(u32::from(g))).clone())
        .collect();
    let balanced = env.locks_balanced();
    (r, globals, env.raised, env.cost, env.fuel, balanced)
}

/// The largest budget the fusion property tries beyond none.
const MAX_FUEL: u64 = 256;

/// `f`'s module and its copy through `fuse_function`, with what fused.
fn fused_pair(f: &GenFunction) -> (Module, Module, Vec<FusionRecord>) {
    let m = build_module(f);
    let mut fused = m.clone();
    let mut records = Vec::new();
    fuse_function(&mut fused.functions[0], FuncId(0), &mut records);
    (m, fused, records)
}

/// Cases `fusion_is_invisible_under_every_fuel_budget` draws by default.
const FUSION_CASES: u32 = 256;

/// The patterns `fuse` rewrites: the two superinstructions.
const PATTERNS: [&str; 2] = ["gfold", "bin.i"];

/// The generator keeps every superinstruction under the fusion property:
/// among the cases it draws by default, each pattern fuses in at least 10.
#[test]
fn default_cases_fuse_every_pattern() {
    let strategy = (gen_function(), -10i64..10);
    let mut fused = [0usize; PATTERNS.len()];
    run(
        &ProptestConfig::with_cases(FUSION_CASES),
        "fusion_is_invisible_under_every_fuel_budget",
        |rng: &mut TestRng| {
            let (f, _) = strategy.generate(rng);
            for r in fused_pair(&f).2 {
                let pattern = PATTERNS.iter().position(|p| *p == r.pattern).unwrap();
                fused[pattern] += 1;
            }
            Ok(())
        },
    );
    for (pattern, cases) in PATTERNS.iter().zip(fused) {
        println!("{pattern} fuses in {cases} of {FUSION_CASES} default cases");
        assert!(
            cases >= 10,
            "{pattern} fuses in only {cases} of {FUSION_CASES}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FUSION_CASES))]

    /// A fused function and its original agree on everything a run shows,
    /// with no budget and under every budget up to the unlimited run's
    /// charges (at most `MAX_FUEL`): a budget that dies inside a
    /// superinstruction stops it at the constituent the original stops at.
    #[test]
    fn fusion_is_invisible_under_every_fuel_budget(
        f in gen_function(),
        seed in -10i64..10,
    ) {
        let (m, fused, _) = fused_pair(&f);
        pdo_ir::verify_module(&fused).expect("fused module verifies");
        let args: Vec<Value> = (0..f.params).map(|i| Value::Int(seed + i64::from(i))).collect();
        let text = || format!("{}\nfused:\n{}", print_module(&m), print_module(&fused));
        let unlimited = metered(&m, &args, None);
        prop_assert_eq!(&unlimited, &metered(&fused, &args, None), "no budget, module:\n{}", text());
        for fuel in 0..=unlimited.3.instrs.min(MAX_FUEL) {
            prop_assert_eq!(
                metered(&m, &args, Some(fuel)),
                metered(&fused, &args, Some(fuel)),
                "fuel {}, module:\n{}", fuel, text()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn execution_is_deterministic(
        f in gen_function(),
        seed in -10i64..10,
    ) {
        let m = build_module(&f);
        let args: Vec<Value> = (0..f.params).map(|i| Value::Int(seed + i64::from(i))).collect();
        let a = observe(&m, &args);
        let b = observe(&m, &args);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn printed_and_reparsed_module_executes_identically(
        f in gen_function(),
        seed in -10i64..10,
    ) {
        let m = build_module(&f);
        let text = print_module(&m);
        let reparsed = parse_module(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let args: Vec<Value> = (0..f.params).map(|i| Value::Int(seed - i64::from(i))).collect();
        let a = observe(&m, &args);
        let b = observe(&reparsed, &args);
        prop_assert_eq!(a, b, "module text was:\n{}", text);
    }

    #[test]
    fn generated_modules_always_verify(f in gen_function()) {
        let m = build_module(&f);
        prop_assert!(pdo_ir::verify_module(&m).is_ok());
    }
}
