//! The plain event programs the benchmark serves: events whose handlers
//! add constants into a per-event global. The handlers do almost nothing
//! on purpose — on these programs everything *around* the handler
//! (framing, admission, dispatch, scheduling) is the cost under test — and
//! the accumulated globals have a closed form the output checks compare
//! against.

use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, Value};

/// A module of adder handlers plus the bindings that wire it up.
#[derive(Debug, Clone)]
pub struct AdderProgram {
    /// The module.
    pub module: Module,
    /// `events[i]` accumulates into `globals[i]`.
    pub events: Vec<EventId>,
    /// One accumulator per event.
    pub globals: Vec<GlobalId>,
    /// `(event, handler, order)`; handler `k` of an event adds `k + 1`.
    pub bindings: Vec<(EventId, FuncId, i32)>,
    /// What one raise of any event adds to its global under `bindings`.
    pub step: i64,
}

fn adder(m: &mut Module, name: String, g: GlobalId, delta: i64) -> FuncId {
    let mut fb = FunctionBuilder::new(name, 0);
    let v = fb.load_global(g);
    let d = fb.const_int(delta);
    let o = fb.bin(BinOp::Add, v, d);
    fb.store_global(g, o);
    fb.ret(None);
    m.add_function(fb.finish())
}

/// `events` events, each with `handlers` adder handlers bound in order.
pub fn adder_program(events: usize, handlers: usize) -> AdderProgram {
    let mut module = Module::new();
    let mut evs = Vec::with_capacity(events);
    let mut globals = Vec::with_capacity(events);
    let mut bindings = Vec::with_capacity(events * handlers);
    for i in 0..events {
        let e = module.add_event(format!("ev{i}"));
        let g = module.add_global(format!("acc{i}"), Value::Int(0));
        for k in 0..handlers {
            let f = adder(&mut module, format!("h{i}_{k}"), g, k as i64 + 1);
            bindings.push((e, f, k as i32));
        }
        evs.push(e);
        globals.push(g);
    }
    AdderProgram {
        module,
        events: evs,
        globals,
        bindings,
        step: (1..=handlers as i64).sum(),
    }
}

/// The rebind target of `rebind_churn`: configuration A is `program`'s
/// bindings; configuration B replaces event 0's middle handler (adds 2)
/// with `alt` (adds [`ALT_DELTA`]) at the same order.
#[derive(Debug, Clone, Copy)]
pub struct Rebind {
    /// The event whose binding flips.
    pub event: EventId,
    /// Configuration A's handler.
    pub a: FuncId,
    /// Configuration B's handler.
    pub b: FuncId,
    /// Their shared order.
    pub order: i32,
}

/// What configuration B's replacement handler adds.
pub const ALT_DELTA: i64 = 7;

/// Adds the configuration-B handler to a program with at least two
/// handlers on event 0.
pub fn with_rebind(mut p: AdderProgram) -> (AdderProgram, Rebind) {
    let (event, a, order) = p.bindings[1];
    assert_eq!(event, p.events[0], "binding 1 belongs to event 0");
    let b = adder(&mut p.module, "h0_1b".to_string(), p.globals[0], ALT_DELTA);
    (p, Rebind { event, a, b, order })
}

/// The bindings as the wire's raw `(event, func, order)` triples.
pub fn raw_bindings(b: &[(EventId, FuncId, i32)]) -> Vec<(u32, u32, i32)> {
    b.iter().map(|&(e, f, o)| (e.0, f.0, o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_events::{Runtime, RuntimeConfig};
    use pdo_ir::RaiseMode;

    #[test]
    fn one_raise_adds_step_and_rebind_changes_it() {
        let (p, rb) = with_rebind(adder_program(4, 3));
        assert_eq!(p.step, 6);
        pdo_ir::verify_module(&p.module).unwrap();
        let mut rt = Runtime::with_config(p.module.clone(), RuntimeConfig::default());
        for &(e, f, o) in &p.bindings {
            rt.bind(e, f, o).unwrap();
        }
        rt.raise(p.events[0], RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(p.globals[0]).as_int(), Some(6));
        assert!(rt.unbind(rb.event, rb.a));
        rt.bind(rb.event, rb.b, rb.order).unwrap();
        rt.raise(p.events[0], RaiseMode::Sync, &[]).unwrap();
        assert_eq!(
            rt.global(p.globals[0]).as_int(),
            Some(6 + 1 + ALT_DELTA + 3)
        );
        rt.raise(p.events[3], RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(p.globals[3]).as_int(), Some(6));
    }
}
