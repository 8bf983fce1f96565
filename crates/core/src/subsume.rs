//! Subsumption: rewriting synchronous raises into direct super-handler
//! calls (paper §3.2.1, Figs 8/9).

use pdo_ir::{EventId, FuncId, Function, Instr, RaiseMode};

/// A synchronous raise site found in a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaiseSite {
    /// Block index.
    pub block: usize,
    /// Instruction index within the block.
    pub pos: usize,
    /// The raised event.
    pub event: EventId,
    /// Number of arguments the raise passes.
    pub arity: usize,
}

/// Lists every `raise sync` site in `f`, in block/instruction order.
pub fn sync_raise_sites(f: &Function) -> Vec<RaiseSite> {
    let mut sites = Vec::new();
    for (b, block) in f.blocks.iter().enumerate() {
        for (i, instr) in block.instrs.iter().enumerate() {
            if let Instr::Raise {
                event,
                mode: RaiseMode::Sync,
                args,
            } = instr
            {
                sites.push(RaiseSite {
                    block: b,
                    pos: i,
                    event: *event,
                    arity: args.len(),
                });
            }
        }
    }
    sites
}

/// Replaces the raise at `site` with a **direct call** to `target` (the
/// child event's super-handler). Valid only under a chain-level guard on
/// the child's bindings: if the child re-binds, the whole chain must fall
/// back (§3.2.1).
///
/// # Panics
///
/// Panics if `site` does not address a synchronous raise.
pub fn subsume_direct(f: &mut Function, site: RaiseSite, target: FuncId) {
    let instr = &mut f.blocks[site.block].instrs[site.pos];
    let Instr::Raise {
        mode: RaiseMode::Sync,
        args,
        ..
    } = instr
    else {
        panic!("subsume_direct: site is not a synchronous raise");
    };
    let args = args.clone();
    let dst = f.new_reg();
    f.blocks[site.block].instrs[site.pos] = Instr::Call {
        dst,
        func: target,
        args,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;
    use pdo_ir::{verify_module, Module, Value};

    fn module_with_raise() -> Module {
        parse_module(
            "event Child\n\
             func @parent(1) {\n\
             b0:\n\
               r1 = const int 5\n\
               raise sync %Child(r0)\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n\
             func @child_super(1) {\n\
             b0:\n\
               ret r0\n\
             }\n",
        )
        .unwrap()
    }

    #[test]
    fn finds_sync_raise_sites() {
        let m = module_with_raise();
        let sites = sync_raise_sites(&m.functions[0]);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].block, 0);
        assert_eq!(sites[0].pos, 1);
        assert_eq!(sites[0].event, EventId(0));
        assert_eq!(sites[0].arity, 1);
    }

    #[test]
    fn async_raises_not_listed() {
        let m = parse_module(
            "event E\n\
             func @f(0) {\n\
             b0:\n\
               raise async %E()\n\
               raise timed %E()\n\
               ret\n\
             }\n",
        )
        .unwrap();
        assert!(sync_raise_sites(&m.functions[0]).is_empty());
    }

    #[test]
    fn direct_subsumption_replaces_raise_with_call() {
        let mut m = module_with_raise();
        let site = sync_raise_sites(&m.functions[0])[0];
        let target = m.function_by_name("child_super").unwrap();
        subsume_direct(&mut m.functions[0], site, target);
        verify_module(&m).unwrap();
        assert!(sync_raise_sites(&m.functions[0]).is_empty());
        let mut env = BasicEnv::new(&m);
        let parent = m.function_by_name("parent").unwrap();
        let r = call(&m, &mut env, parent, &[Value::Int(3)]).unwrap();
        assert_eq!(r, Value::Int(8));
        assert!(env.raised.is_empty(), "raise was replaced");
        assert_eq!(env.cost.calls, 1);
    }
}
