//! Functions, basic blocks, and modules.

use crate::ids::{BlockId, EventId, FuncId, GlobalId, NativeId, Reg};
use crate::instr::{Instr, Terminator};
use crate::value::Value;

/// A basic block: straight-line instructions ending in one [`Terminator`].
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The instructions executed in order.
    pub instrs: Vec<Instr>,
    /// The control-flow exit of the block.
    pub term: Terminator,
}

impl Block {
    /// Creates an empty block with the given terminator.
    pub fn new(term: Terminator) -> Self {
        Block {
            instrs: Vec::new(),
            term,
        }
    }
}

/// An IR function. Parameters are passed in registers `r0..r<params>`;
/// block 0 is the entry block.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbolic name (unique within a module by convention, not enforced).
    pub name: String,
    /// Number of parameters; they arrive in `r0..r<params>`.
    pub params: u16,
    /// Total number of virtual registers used (including parameters).
    pub reg_count: u16,
    /// The body; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Total number of instructions across all blocks (the paper's
    /// `objdump | wc -l` code-size analogue).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// Allocates a fresh register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.reg_count);
        self.reg_count = self
            .reg_count
            .checked_add(1)
            .expect("register count overflow");
        r
    }
}

/// A declared event. Bindings live in the runtime; the IR only knows names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDecl {
    /// The event's symbolic name (e.g. `SegFromUser`).
    pub name: String,
}

/// A declared mutable global cell, with its initial value.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// The global's symbolic name.
    pub name: String,
    /// Value before the first store.
    pub init: Value,
}

/// A declared native-function slot. The runtime binds the Rust closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeDecl {
    /// The slot's symbolic name (e.g. `des_encrypt`).
    pub name: String,
}

/// A compilation unit: functions plus the symbols they reference.
///
/// A `Module` is the unit the profiler observes and the optimizer rewrites;
/// the event runtime executes one module at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// All functions; [`FuncId`] indexes this vector.
    pub functions: Vec<Function>,
    /// All declared events; [`EventId`] indexes this vector.
    pub events: Vec<EventDecl>,
    /// All declared globals; [`GlobalId`] indexes this vector.
    pub globals: Vec<GlobalDecl>,
    /// All declared native slots; [`NativeId`] indexes this vector.
    pub natives: Vec<NativeDecl>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a function and returns its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        self.functions.push(f);
        id
    }

    /// Declares an event and returns its id.
    pub fn add_event(&mut self, name: impl Into<String>) -> EventId {
        let id = EventId::from_index(self.events.len());
        self.events.push(EventDecl { name: name.into() });
        id
    }

    /// Declares a global with an initial value and returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, init: Value) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(GlobalDecl {
            name: name.into(),
            init,
        });
        id
    }

    /// Declares a native slot and returns its id.
    pub fn add_native(&mut self, name: impl Into<String>) -> NativeId {
        let id = NativeId::from_index(self.natives.len());
        self.natives.push(NativeDecl { name: name.into() });
        id
    }

    /// Returns the function with `id`.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks up a function id by name (linear scan; intended for tests and
    /// program assembly, not hot paths).
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }

    /// Looks up an event id by name.
    pub fn event_by_name(&self, name: &str) -> Option<EventId> {
        self.events
            .iter()
            .position(|e| e.name == name)
            .map(EventId::from_index)
    }

    /// Looks up a global id by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(GlobalId::from_index)
    }

    /// Looks up a native slot id by name.
    pub fn native_by_name(&self, name: &str) -> Option<NativeId> {
        self.natives
            .iter()
            .position(|n| n.name == name)
            .map(NativeId::from_index)
    }

    /// The event's name, or a placeholder for out-of-range ids.
    pub fn event_name(&self, id: EventId) -> &str {
        self.events
            .get(id.index())
            .map(|e| e.name.as_str())
            .unwrap_or("<unknown-event>")
    }

    /// Total instruction count across all functions (code-size analogue of
    /// the paper's `objdump -d program | wc -l` measurement, §4.2).
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(Function::instr_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_declarations_assign_sequential_ids() {
        let mut m = Module::new();
        let e0 = m.add_event("A");
        let e1 = m.add_event("B");
        assert_eq!((e0, e1), (EventId(0), EventId(1)));
        assert_eq!(m.event_by_name("B"), Some(e1));
        assert_eq!(m.event_by_name("C"), None);
        assert_eq!(m.event_name(e0), "A");
        assert_eq!(m.event_name(EventId(99)), "<unknown-event>");
    }

    #[test]
    fn globals_and_natives() {
        let mut m = Module::new();
        let g = m.add_global("counter", Value::Int(0));
        let n = m.add_native("work");
        assert_eq!(m.global_by_name("counter"), Some(g));
        assert_eq!(m.native_by_name("work"), Some(n));
        assert_eq!(m.globals[g.index()].init, Value::Int(0));
    }

    #[test]
    fn instr_count_counts_terminators() {
        let f = Function {
            name: "f".into(),
            params: 0,
            reg_count: 1,
            blocks: vec![Block {
                instrs: vec![Instr::Const {
                    dst: Reg(0),
                    value: Value::Int(1),
                }],
                term: Terminator::Ret(Some(Reg(0))),
            }],
        };
        assert_eq!(f.instr_count(), 2);
        let mut m = Module::new();
        m.add_function(f.clone());
        m.add_function(f);
        assert_eq!(m.instr_count(), 4);
    }

    #[test]
    fn function_by_name_lookup() {
        let mut m = Module::new();
        let f = m.add_function(Function {
            name: "handler".into(),
            params: 1,
            reg_count: 1,
            blocks: vec![Block::new(Terminator::Ret(None))],
        });
        assert_eq!(m.function_by_name("handler"), Some(f));
    }
}
