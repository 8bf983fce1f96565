//! The offline optimization loop as one call.
//!
//! Every consumer repeats the same dance: build an instrumented runtime,
//! drive a representative workload, build the [`Profile`], call
//! [`optimize`], then deploy a fresh runtime over the extended module with
//! the same bindings and natives plus the compiled chains. This module
//! packages that loop (§3.1's "executed enough times to develop an adequate
//! profile" workflow).

use crate::heal::SelfHealer;
use crate::quarantine::QuarantineConfig;
use crate::{optimize, Optimization, OptimizeOptions};
use pdo_events::{Runtime, RuntimeConfig, RuntimeError, TraceConfig};
use pdo_ir::{EventId, FuncId, Module};
use pdo_profile::Profile;
use std::fmt;

/// Workflow failure.
#[derive(Debug)]
pub enum WorkflowError {
    /// Building or driving a runtime failed.
    Runtime(RuntimeError),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Runtime(e) => write!(f, "workflow runtime failure: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<RuntimeError> for WorkflowError {
    fn from(e: RuntimeError) -> Self {
        WorkflowError::Runtime(e)
    }
}

/// The product of [`profile_and_optimize`]: a deployed, specialized runtime
/// plus the artifacts that produced it.
pub struct Deployed {
    /// A fresh runtime over the extended module — bindings applied, natives
    /// installed, chains live.
    pub runtime: Runtime,
    /// The optimization (module, chains, report) for inspection or for
    /// deploying further runtimes.
    pub optimization: Optimization,
    /// The profile the optimization was derived from.
    pub profile: Profile,
}

impl fmt::Debug for Deployed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployed")
            .field("runtime", &self.runtime)
            .field("report", &self.optimization.report)
            .finish()
    }
}

impl Deployed {
    /// A [`SelfHealer`] for this deployment's chains, so the
    /// re-optimization loop can quarantine faulting ones and re-install
    /// them after backoff.
    pub fn self_healer(&self, config: QuarantineConfig) -> SelfHealer {
        SelfHealer::new(config, &self.optimization.chains)
    }
}

/// Runs the complete offline loop.
///
/// * `bindings` — the `(event, handler, order)` plan, applied identically
///   to the instrumented and the deployed runtime (identical plans yield
///   identical binding lists, which is what the guards check).
/// * `install_natives` — called on **each** runtime to bind native
///   implementations; capture state via `Rc<RefCell<…>>` as usual.
/// * `drive` — the representative workload, executed once on the
///   instrumented runtime with full tracing enabled.
///
/// # Errors
///
/// Propagates binding, native-installation, and workload failures.
pub fn profile_and_optimize(
    module: &Module,
    bindings: &[(EventId, FuncId, i32)],
    config: RuntimeConfig,
    opts: &OptimizeOptions,
    mut install_natives: impl FnMut(&mut Runtime) -> Result<(), RuntimeError>,
    drive: impl FnOnce(&mut Runtime) -> Result<(), RuntimeError>,
) -> Result<Deployed, WorkflowError> {
    // Phase 1: instrumented run.
    let mut instrumented = Runtime::with_config(module.clone(), config);
    for &(e, f, o) in bindings {
        instrumented.bind(e, f, o)?;
    }
    install_natives(&mut instrumented)?;
    instrumented.set_trace_config(TraceConfig::full());
    drive(&mut instrumented)?;
    let profile = Profile::from_trace(&instrumented.take_trace(), opts.threshold);

    // Phase 2: optimize against the instrumented registry state.
    let optimization = optimize(module, instrumented.registry(), &profile, opts);

    // Phase 3: deploy.
    let mut runtime = Runtime::with_config(optimization.module.clone(), config);
    for &(e, f, o) in bindings {
        runtime.bind(e, f, o)?;
    }
    install_natives(&mut runtime)?;
    optimization.install_chains(&mut runtime);

    Ok(Deployed {
        runtime,
        optimization,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::{BinOp, FunctionBuilder, RaiseMode, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn one_call_workflow_produces_a_specialized_runtime() {
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("n", Value::Int(0));
        let n_obs = m.add_native("observe");
        let mut b = FunctionBuilder::new("h", 0);
        let v = b.load_global(g);
        let one = b.const_int(1);
        let s = b.bin(BinOp::Add, v, one);
        b.store_global(g, s);
        let _ = b.call_native(n_obs, &[s]);
        b.ret(None);
        let h = m.add_function(b.finish());

        let observed = Rc::new(RefCell::new(0i64));
        let obs = Rc::clone(&observed);
        let deployed = profile_and_optimize(
            &m,
            &[(e, h, 0)],
            RuntimeConfig::default(),
            &OptimizeOptions::new(10),
            move |rt| {
                let inner = Rc::clone(&obs);
                rt.bind_native_by_name("observe", move |args| {
                    *inner.borrow_mut() = args[0].as_int().unwrap_or(0);
                    Ok(Value::Unit)
                })
            },
            |rt| {
                for _ in 0..20 {
                    rt.raise(e, RaiseMode::Sync, &[])?;
                }
                Ok(())
            },
        )
        .expect("workflow");

        assert_eq!(deployed.optimization.report.events.len(), 1);
        let mut rt = deployed.runtime;
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
        assert_eq!(rt.cost.fastpath_hits, 1);
        assert_eq!(*observed.borrow(), 1, "deployed natives are live");
    }

    #[test]
    fn workflow_surfaces_drive_errors() {
        let mut m = Module::new();
        let e = m.add_event("E");
        let err = profile_and_optimize(
            &m,
            &[],
            RuntimeConfig::default(),
            &OptimizeOptions::new(1),
            |_| Ok(()),
            |rt| rt.raise(e, RaiseMode::Timed, &[]), // missing delay
        )
        .unwrap_err();
        assert!(matches!(err, WorkflowError::Runtime(_)));
        assert!(err.to_string().contains("delay"));
    }
}
