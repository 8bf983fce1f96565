//! An instantiated event program: module plus binding plan.

use pdo_events::{Runtime, RuntimeConfig, RuntimeError};
use pdo_ir::{EventId, FuncId, Module};
use std::sync::Arc;

/// A configured program: the IR module and the handler bindings to apply.
///
/// Re-applying the same binding plan always produces the same registry
/// versions, which is what lets specializations produced from a profiled
/// session be installed into a fresh session (the guards compare binding
/// versions).
#[derive(Debug, Clone, PartialEq)]
pub struct EventProgram {
    /// The IR module, shared by all sessions of this program: every
    /// runtime built from it holds this allocation, not a copy.
    pub module: Arc<Module>,
    /// `(event, handler, order)` bindings in application order.
    pub bindings: Vec<(EventId, FuncId, i32)>,
}

impl EventProgram {
    /// Builds a runtime with the bindings applied (natives still unbound).
    ///
    /// # Errors
    ///
    /// Propagates binding failures (unknown events/handlers), which signal
    /// a malformed program.
    pub fn runtime(&self) -> Result<Runtime, RuntimeError> {
        self.runtime_with_config(RuntimeConfig::default())
    }

    /// As [`EventProgram::runtime`] with explicit limits.
    ///
    /// # Errors
    ///
    /// Propagates binding failures.
    pub fn runtime_with_config(&self, config: RuntimeConfig) -> Result<Runtime, RuntimeError> {
        let mut rt = Runtime::with_config(Arc::clone(&self.module), config);
        self.apply_bindings(&mut rt)?;
        Ok(rt)
    }

    /// Applies this program's bindings to an existing runtime — used to set
    /// up a runtime built from an *optimized* module (whose original
    /// function ids are unchanged).
    ///
    /// # Errors
    ///
    /// Propagates binding failures.
    pub fn apply_bindings(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        for &(event, func, order) in &self.bindings {
            rt.bind(event, func, order)?;
        }
        Ok(())
    }

    /// A copy of this program executing `module` instead (e.g. the module
    /// produced by the optimizer, which extends the original).
    pub fn with_module(&self, module: impl Into<Arc<Module>>) -> EventProgram {
        EventProgram {
            module: module.into(),
            bindings: self.bindings.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::{BinOp, FunctionBuilder, RaiseMode, Value};

    fn program() -> (EventProgram, EventId, pdo_ir::GlobalId) {
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("n", Value::Int(0));
        let mut fb = FunctionBuilder::new("h", 0);
        let v = fb.load_global(g);
        let one = fb.const_int(1);
        let s = fb.bin(BinOp::Add, v, one);
        fb.store_global(g, s);
        fb.ret(None);
        let h = m.add_function(fb.finish());
        (
            EventProgram {
                module: Arc::new(m),
                bindings: vec![(e, h, 0)],
            },
            e,
            g,
        )
    }

    #[test]
    fn runtime_applies_bindings() {
        let (prog, e, g) = program();
        let mut rt = prog.runtime().unwrap();
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
    }

    #[test]
    fn identical_plans_yield_identical_versions() {
        let (prog, e, _) = program();
        let rt1 = prog.runtime().unwrap();
        let rt2 = prog.runtime().unwrap();
        assert_eq!(rt1.registry().version(e), rt2.registry().version(e));
    }

    #[test]
    fn bad_binding_rejected() {
        let (mut prog, _, _) = program();
        prog.bindings.push((EventId(9), FuncId(0), 0));
        assert!(prog.runtime().is_err());
    }

    #[test]
    fn with_module_keeps_bindings() {
        let (prog, e, g) = program();
        let extended = prog.with_module(Module::clone(&prog.module));
        let mut rt = extended.runtime().unwrap();
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
    }
}
