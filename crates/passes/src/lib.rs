//! # pdo-passes — compiler optimizations over the handler IR
//!
//! The PLDI 2002 paper applies "standard compiler optimizations, such as
//! common subexpression elimination and dead-code elimination" to the
//! super-handlers produced by its graph optimizations (§3.2.2). This crate
//! provides those passes over the `pdo-ir` representation:
//!
//! * `constfold` — constant propagation/folding plus algebraic identity
//!   simplification and branch folding,
//! * `copyprop` — copy propagation,
//! * `cse` — local common-subexpression elimination,
//! * `dce` — liveness-based dead-code elimination,
//! * `cleanup` — CFG simplification (unreachable blocks, jump threading,
//!   block merging),
//! * [`inline::inline_into`] — function inlining (used to inline direct
//!   handler calls into super-handlers),
//! * [`locks::coalesce_function`] — elimination of redundant unlock/lock
//!   pairs across merged handler boundaries, and of critical sections left
//!   empty (the paper's "state maintenance" savings),
//! * [`locks::forward_function`] — global load/store forwarding over the
//!   whole CFG, through natives, deferred raises and lock operations (the
//!   paper's "redundant initializations and code fragments").
//!
//! The first five are private: only the pipeline below runs them.
//!
//! The passes share two dataflow solvers over a function's CFG: backward
//! liveness (`dce`, `fuse`), and one forward solver on which three analyses
//! run: the value facts — per register a constant, a type tag or nothing
//! known — that `constfold` folds with; their type tags alone, which `dce`
//! proves an instruction unable to fault with; and the globals held in
//! registers that load forwarding reads. Each solve allocates a fixed
//! handful of blocks, not one per block: every block's state is a row of
//! one table of `Copy` cells, and liveness is one bit table.
//!
//! Each pass rewrites one function and says whether it changed it. One
//! driver runs them, [`optimize_single_function`]: the pipeline in its one
//! order, on one function, to a fixed point, verifying the module after
//! every changing iteration in debug builds. The optimizer runs it on each
//! super-handler it builds; [`PassManager::standard`] runs it on every
//! function of a module. The fixed point exists because passes agree on
//! canonical forms (see `constfold` for repeated constants); debug builds
//! also panic when an iteration ends in a state an earlier one ended in,
//! so two passes undoing each other fail a test instead of spinning to the
//! iteration cap.
//!
//! ```
//! use pdo_ir::{parse::parse_module, interp::{BasicEnv, call}, Value, FuncId};
//! use pdo_passes::PassManager;
//!
//! let mut m = parse_module(
//!     "func @f(1) {\n\
//!      b0:\n\
//!        r1 = const int 2\n\
//!        r2 = const int 3\n\
//!        r3 = mul r1, r2\n\
//!        r4 = add r0, r3\n\
//!        ret r4\n\
//!      }\n",
//! )?;
//! let before = m.instr_count();
//! PassManager::standard().run(&mut m);
//! assert!(m.instr_count() < before);
//! let mut env = BasicEnv::new(&m);
//! assert_eq!(call(&m, &mut env, FuncId(0), &[Value::Int(1)])?, Value::Int(7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod cleanup;
mod constfold;
mod copyprop;
mod cse;
mod dce;
pub mod fuse;
pub mod inline;
pub mod locks;

pub use fuse::{fuse_function, fuse_module, FusionRecord};

use pdo_ir::{FuncId, Function, Module};

/// Statistics from one [`optimize_single_function`] or [`PassManager::run`]
/// invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Instruction count before the pipeline ran.
    pub instrs_before: usize,
    /// Instruction count after the pipeline ran.
    pub instrs_after: usize,
    /// `(pass name, times it reported a change)` in pipeline order.
    pub pass_changes: Vec<(&'static str, usize)>,
    /// Fixed-point iterations executed.
    pub iterations: usize,
    /// The last iteration changed nothing: the result is a fixed point of
    /// the pipeline. `false` means the iteration cap stopped it first.
    pub converged: bool,
}

impl PipelineReport {
    /// A report of no iterations yet, every pass at zero changes.
    fn new(instrs_before: usize) -> Self {
        PipelineReport {
            instrs_before,
            pass_changes: FUNCTION_PASSES.iter().map(|(name, _)| (*name, 0)).collect(),
            ..Default::default()
        }
    }
}

/// Iterations the pipeline allows itself on one function.
const MAX_ITERATIONS: usize = 8;

/// Runs `round` — one trip through a pipeline, returning whether anything
/// changed — until a trip changes nothing or [`MAX_ITERATIONS`] trips have
/// run, and records in `report` how many ran and which of the two ended
/// them.
///
/// # Panics
///
/// In debug builds, when a trip that reported a change leaves the module
/// in a state one of the previous two trips (or the input) left it in:
/// passes are undoing each other and no number of trips would converge. A
/// long run that keeps reaching new states is legal.
fn run_to_fixed_point(
    module: &mut Module,
    report: &mut PipelineReport,
    mut round: impl FnMut(&mut Module, &mut PipelineReport) -> bool,
) {
    #[cfg(debug_assertions)]
    let mut ended_in = vec![module.clone()];
    for _ in 0..MAX_ITERATIONS {
        report.iterations += 1;
        if !round(module, report) {
            report.converged = true;
            break;
        }
        #[cfg(debug_assertions)]
        {
            assert!(
                !ended_in.contains(module),
                "pass pipeline oscillates: iteration {} reported a change and ended in a state \
                 an earlier iteration ended in (changes so far: {:?})",
                report.iterations,
                report.pass_changes
            );
            if ended_in.len() == 2 {
                ended_in.remove(0);
            }
            ended_in.push(module.clone());
        }
    }
}

/// One pass of the pipeline.
enum Pass {
    /// Inlining of call sites into the function; runs only when
    /// [`optimize_single_function`] is given a threshold.
    Inline,
    /// A pass confined to the function's own body.
    Body(fn(&mut Function) -> bool),
}

/// The pipeline, in its one order: inline, then scalar cleanups, then
/// lock and CFG cleanups.
const FUNCTION_PASSES: [(&str, Pass); 8] = [
    ("inline", Pass::Inline),
    ("copyprop", Pass::Body(copyprop::propagate_function)),
    ("constfold", Pass::Body(constfold::fold_function)),
    ("cse", Pass::Body(cse::cse_function)),
    ("redundantload", Pass::Body(locks::forward_function)),
    ("lockcoalesce", Pass::Body(locks::coalesce_function)),
    ("dce", Pass::Body(dce::dce_function)),
    ("cleanup", Pass::Body(cleanup::cleanup_function)),
];

/// Runs the pipeline on **one** function, inlining call sites within it
/// only when given an `inline_threshold`, to a fixed point (or eight
/// iterations; [`PipelineReport::converged`] says which). All other
/// functions in the module are left untouched — this is how the optimizer
/// cleans up freshly built super-handlers without perturbing the original
/// handler bodies whose generic dispatch path must remain intact.
///
/// The report counts that function's instructions.
///
/// # Panics
///
/// In debug builds, if an iteration leaves a module that fails
/// [`pdo_ir::verify_module`], or if the pipeline oscillates (an iteration
/// ends in a state an earlier one ended in).
pub fn optimize_single_function(
    module: &mut Module,
    func: FuncId,
    inline_threshold: Option<usize>,
) -> PipelineReport {
    let mut report = PipelineReport::new(module.functions[func.index()].instr_count());
    run_to_fixed_point(module, &mut report, |module, report| {
        let mut changed = false;
        for (i, (_, pass)) in FUNCTION_PASSES.iter().enumerate() {
            let changed_here = match pass {
                Pass::Inline => {
                    inline_threshold.is_some_and(|th| inline::inline_into(module, func.index(), th))
                }
                Pass::Body(pass) => pass(&mut module.functions[func.index()]),
            };
            if changed_here {
                changed = true;
                report.pass_changes[i].1 += 1;
            }
        }
        debug_assert!(
            !changed || pdo_ir::verify_module(module).is_ok(),
            "optimize_single_function broke the module: {:?}",
            pdo_ir::verify_module(module)
        );
        changed
    });
    report.instrs_after = module.functions[func.index()].instr_count();
    report
}

/// Callee size (instructions incl. terminators) up to which
/// [`PassManager::standard`] inlines.
const STANDARD_INLINE_THRESHOLD: usize = 48;

/// The pipeline over a whole module: each function in id order through
/// [`optimize_single_function`], inlining callees of up to 48
/// instructions.
pub struct PassManager;

impl PassManager {
    /// The standard pipeline: the driver and passes the optimizer runs on
    /// each super-handler, run on every function.
    pub fn standard() -> Self {
        PassManager
    }

    /// Runs the pipeline on every function. The report sums the functions'
    /// reports: instruction counts and each pass's changes add up,
    /// `iterations` is the most any function took, and `converged` holds
    /// only if every function converged.
    ///
    /// # Panics
    ///
    /// As [`optimize_single_function`], in debug builds.
    pub fn run(&self, module: &mut Module) -> PipelineReport {
        let mut report = PipelineReport::new(0);
        report.converged = true;
        for func in 0..module.functions.len() {
            let one = optimize_single_function(
                module,
                FuncId::from_index(func),
                Some(STANDARD_INLINE_THRESHOLD),
            );
            report.instrs_before += one.instrs_before;
            report.instrs_after += one.instrs_after;
            for (sum, (_, n)) in report.pass_changes.iter_mut().zip(one.pass_changes) {
                sum.1 += n;
            }
            report.iterations = report.iterations.max(one.iterations);
            report.converged &= one.converged;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::parse::parse_module;

    #[test]
    fn standard_pipeline_shrinks_constant_code() {
        let mut m = parse_module(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 6\n\
               r1 = const int 7\n\
               r2 = mul r0, r1\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        let report = PassManager::standard().run(&mut m);
        assert!(report.instrs_after < report.instrs_before);
        // Result should be a single const + ret.
        assert_eq!(m.functions[0].instr_count(), 2);
    }

    #[test]
    fn report_tracks_pass_names() {
        let mut m = parse_module("func @f(0) {\nb0:\n  ret\n}\n").unwrap();
        let before = m.clone();
        let report = PassManager::standard().run(&mut m);
        assert_eq!(m, before);
        assert_eq!(report.iterations, 1);
        let names: Vec<&str> = report.pass_changes.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "inline",
                "copyprop",
                "constfold",
                "cse",
                "redundantload",
                "lockcoalesce",
                "dce",
                "cleanup"
            ]
        );
    }

    #[test]
    fn module_report_sums_the_function_reports() {
        let text = "func @f(0) {\n\
             b0:\n\
               r0 = const int 6\n\
               r1 = const int 7\n\
               r2 = mul r0, r1\n\
               ret r2\n\
             }\n\
             func @g(0) {\n\
             b0:\n\
               r0 = call @f()\n\
               ret r0\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let mut one_by_one = m.clone();
        let parts: Vec<PipelineReport> = (0..2)
            .map(|f| optimize_single_function(&mut one_by_one, FuncId(f), Some(48)))
            .collect();
        let report = PassManager::standard().run(&mut m);
        assert_eq!(m, one_by_one);
        assert_eq!(report.instrs_before, 6);
        assert_eq!(
            report.instrs_before,
            parts[0].instrs_before + parts[1].instrs_before
        );
        assert_eq!(report.instrs_after, m.instr_count());
        for (i, (name, n)) in report.pass_changes.iter().enumerate() {
            assert_eq!(
                *n,
                parts[0].pass_changes[i].1 + parts[1].pass_changes[i].1,
                "{name}"
            );
        }
        assert_eq!(
            report.iterations,
            parts[0].iterations.max(parts[1].iterations)
        );
        assert!(report.converged);
        assert_eq!(report.pass_changes[0], ("inline", 1), "g inlined f");
    }
}
