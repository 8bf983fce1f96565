//! # pdo-passes — compiler optimizations over the handler IR
//!
//! The PLDI 2002 paper applies "standard compiler optimizations, such as
//! common subexpression elimination and dead-code elimination" to the
//! super-handlers produced by its graph optimizations (§3.2.2). This crate
//! provides those passes over the `pdo-ir` representation:
//!
//! * [`ConstFold`] — constant propagation/folding plus algebraic identity
//!   simplification and branch folding,
//! * [`CopyProp`] — copy propagation,
//! * [`Cse`] — local common-subexpression elimination,
//! * [`Dce`] — liveness-based dead-code elimination,
//! * [`Cleanup`] — CFG simplification (unreachable blocks, jump threading,
//!   block merging),
//! * [`Inline`] — function inlining (used to inline direct handler calls
//!   into super-handlers),
//! * [`LockCoalesce`] — elimination of redundant unlock/lock pairs across
//!   merged handler boundaries, and of critical sections left empty (the
//!   paper's "state maintenance" savings),
//! * [`RedundantLoadElim`] — global load/store forwarding over the whole
//!   CFG, through natives, deferred raises and lock operations (the
//!   paper's "redundant initializations and code fragments").
//!
//! Passes implement [`Pass`] and run under a [`PassManager`], which iterates
//! the pipeline to a fixed point and verifies the module after every
//! mutation in debug builds. The fixed point exists because passes agree on
//! canonical forms (see [`constfold`] for repeated constants); debug builds
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

pub mod analysis;
pub mod cleanup;
pub mod constfold;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod fuse;
pub mod inline;
pub mod locks;

pub use cleanup::Cleanup;
pub use constfold::ConstFold;
pub use copyprop::CopyProp;
pub use cse::Cse;
pub use dce::Dce;
pub use fuse::{fuse_function, fuse_module, FusionRecord};
pub use inline::Inline;
pub use locks::{LockCoalesce, RedundantLoadElim};

use pdo_ir::{Function, Module};

/// A module-level transformation.
pub trait Pass {
    /// A short identifier used in pipeline reports.
    fn name(&self) -> &'static str;

    /// Applies the pass; returns `true` if the module changed.
    fn run(&self, module: &mut Module) -> bool;
}

/// Statistics from one [`PassManager::run`] invocation.
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

/// Iterations [`optimize_single_function`] and a [`PassManager`] allow
/// themselves.
const MAX_ITERATIONS: usize = 8;

/// Runs `round` — one trip through a pipeline, returning whether anything
/// changed — until a trip changes nothing or `cap` trips have run, and
/// records in `report` how many ran and which of the two ended them.
///
/// # Panics
///
/// In debug builds, when a trip that reported a change leaves the module
/// in a state one of the previous two trips (or the input) left it in:
/// passes are undoing each other and no number of trips would converge. A
/// long run that keeps reaching new states is legal.
fn run_to_fixed_point(
    module: &mut Module,
    cap: usize,
    report: &mut PipelineReport,
    mut round: impl FnMut(&mut Module, &mut PipelineReport) -> bool,
) {
    #[cfg(debug_assertions)]
    let mut ended_in = vec![module.clone()];
    for _ in 0..cap {
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

/// Runs a sequence of passes to a fixed point.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PassManager {
    /// An empty manager; add passes with [`PassManager::add`].
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The standard pipeline used by the optimizer after handler merging:
    /// inline, then scalar cleanups, then CFG and lock cleanups.
    pub fn standard() -> Self {
        let mut pm = PassManager::new();
        pm.add(Inline::default())
            .add(CopyProp)
            .add(ConstFold)
            .add(Cse)
            .add(RedundantLoadElim)
            .add(LockCoalesce)
            .add(Dce)
            .add(Cleanup);
        pm
    }

    /// Appends a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs the pipeline to a fixed point (or eight iterations;
    /// [`PipelineReport::converged`] says which).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a pass produces a module that fails
    /// [`pdo_ir::verify_module`], or if the pipeline oscillates (an
    /// iteration ends in a state an earlier one ended in).
    pub fn run(&self, module: &mut Module) -> PipelineReport {
        let mut report = PipelineReport {
            instrs_before: module.instr_count(),
            pass_changes: self.passes.iter().map(|p| (p.name(), 0)).collect(),
            ..Default::default()
        };
        run_to_fixed_point(module, MAX_ITERATIONS, &mut report, |module, report| {
            let mut changed = false;
            for (i, pass) in self.passes.iter().enumerate() {
                if pass.run(module) {
                    changed = true;
                    report.pass_changes[i].1 += 1;
                    debug_assert!(
                        pdo_ir::verify_module(module).is_ok(),
                        "pass `{}` broke the module: {:?}",
                        pass.name(),
                        pdo_ir::verify_module(module)
                    );
                }
            }
            changed
        });
        report.instrs_after = module.instr_count();
        report
    }
}

type FunctionPass = fn(&mut Function) -> bool;

/// The scalar and CFG passes of [`PassManager::standard`], in its order, as
/// they apply to one function.
const FUNCTION_PASSES: [(&str, FunctionPass); 7] = [
    ("copyprop", copyprop::propagate_function),
    ("constfold", constfold::fold_function),
    ("cse", cse::cse_function),
    ("redundantload", locks::forward_function),
    ("lockcoalesce", locks::coalesce_function),
    ("dce", dce::dce_function),
    ("cleanup", cleanup::cleanup_function),
];

/// Runs the scalar and CFG pipeline on **one** function, optionally
/// inlining call sites within it first (`inline_threshold`). All other
/// functions in the module are left untouched — this is how the optimizer
/// cleans up freshly built super-handlers without perturbing the original
/// handler bodies whose generic dispatch path must remain intact.
///
/// The report counts that function's instructions; its first
/// `pass_changes` entry is `inline` (never changed without a threshold).
///
/// # Panics
///
/// As [`PassManager::run`], in debug builds.
pub fn optimize_single_function(
    module: &mut Module,
    func: pdo_ir::FuncId,
    inline_threshold: Option<usize>,
) -> PipelineReport {
    let mut report = PipelineReport {
        instrs_before: module.functions[func.index()].instr_count(),
        pass_changes: std::iter::once("inline")
            .chain(FUNCTION_PASSES.iter().map(|(name, _)| *name))
            .map(|name| (name, 0))
            .collect(),
        ..Default::default()
    };
    run_to_fixed_point(module, MAX_ITERATIONS, &mut report, |module, report| {
        let mut changed = false;
        if let Some(th) = inline_threshold {
            if inline::inline_into(module, func.index(), th) {
                changed = true;
                report.pass_changes[0].1 += 1;
            }
        }
        let f = &mut module.functions[func.index()];
        for (i, (_, pass)) in FUNCTION_PASSES.iter().enumerate() {
            if pass(f) {
                changed = true;
                report.pass_changes[i + 1].1 += 1;
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

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
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
    fn empty_manager_is_identity() {
        let mut m = parse_module("func @f(0) {\nb0:\n  ret\n}\n").unwrap();
        let before = m.clone();
        let report = PassManager::new().run(&mut m);
        assert_eq!(m, before);
        assert_eq!(report.iterations, 1);
    }

    #[test]
    fn report_tracks_pass_names() {
        let pm = PassManager::standard();
        let mut m = parse_module("func @f(0) {\nb0:\n  ret\n}\n").unwrap();
        let report = pm.run(&mut m);
        let names: Vec<&str> = report.pass_changes.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"constfold"));
        assert!(names.contains(&"dce"));
    }
}
