//! # pdo-cactus — a Cactus-style composite-protocol framework
//!
//! Cactus (paper §2.3) structures a network service as a *composite
//! protocol*: a set of user-defined events plus *micro-protocols*, each
//! implementing one service property as a collection of event handlers.
//! A concrete service instance is configured by **choosing which
//! micro-protocols to include**; their handlers are bound to the shared
//! events at instantiation time.
//!
//! This crate provides that composition layer on top of `pdo-events`:
//!
//! * [`CompositeBuilder`] — declares events, globals, natives, and
//!   micro-protocols with their handlers;
//! * [`CompositeProtocol`] — the finished, immutable protocol definition;
//! * [`CompositeProtocol::instantiate`] — selects micro-protocols and
//!   yields an [`EventProgram`] (module + binding plan);
//! * [`EventProgram::runtime`] — builds a runtime with the bindings
//!   applied, ready for natives installation and execution.
//!
//! The `pdo-ctp` (transport protocol + video player) and `pdo-seccomm`
//! (secure channel) crates are built on this layer.

pub mod program;

pub use program::EventProgram;

use pdo_ir::{EventId, FuncId, FunctionBuilder, GlobalId, Module, NativeId, Value};
use std::sync::Arc;

/// One micro-protocol: a named set of handler bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroProtocol {
    /// The micro-protocol's name (e.g. `DESPrivacy`).
    pub name: String,
    /// `(event, handler, order)` bindings contributed when selected.
    pub bindings: Vec<(EventId, FuncId, i32)>,
}

/// A complete composite-protocol definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeProtocol {
    /// Protocol name (diagnostics only).
    pub name: String,
    /// The shared IR module: events, globals, natives, handler functions.
    pub module: Module,
    /// All available micro-protocols.
    pub micro_protocols: Vec<MicroProtocol>,
}

/// Failure to instantiate a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A requested micro-protocol name is not part of the composite.
    UnknownMicroProtocol(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownMicroProtocol(n) => {
                write!(f, "unknown micro-protocol `{n}`")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl CompositeProtocol {
    /// Instantiates the configuration selecting `micro_protocols` by name,
    /// in the given order (earlier micro-protocols bind first, which
    /// matters for equal order keys).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownMicroProtocol`] for unknown names.
    pub fn instantiate(&self, micro_protocols: &[&str]) -> Result<EventProgram, ConfigError> {
        let mut bindings = Vec::new();
        for &name in micro_protocols {
            let mp = self
                .micro_protocols
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| ConfigError::UnknownMicroProtocol(name.to_string()))?;
            bindings.extend(mp.bindings.iter().copied());
        }
        Ok(EventProgram {
            module: Arc::new(self.module.clone()),
            bindings,
        })
    }

    /// Instantiates with every micro-protocol, in declaration order.
    pub fn instantiate_all(&self) -> EventProgram {
        let names: Vec<&str> = self
            .micro_protocols
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        self.instantiate(&names).expect("own names are known")
    }

    /// Names of all micro-protocols.
    pub fn micro_protocol_names(&self) -> Vec<&str> {
        self.micro_protocols
            .iter()
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// Builds a [`CompositeProtocol`].
///
/// ```
/// use pdo_cactus::CompositeBuilder;
/// use pdo_ir::Value;
///
/// let mut b = CompositeBuilder::new("demo");
/// let tick = b.event("Tick");
/// let count = b.global("count", Value::Int(0));
/// b.micro_protocol("Counter", |mp| {
///     mp.handler(tick, 0, "count_tick", 1, |f| {
///         let v = f.load_global(count);
///         let one = f.const_int(1);
///         let s = f.bin(pdo_ir::BinOp::Add, v, one);
///         f.store_global(count, s);
///         f.ret(None);
///     });
/// });
/// let proto = b.finish();
/// assert_eq!(proto.micro_protocol_names(), vec!["Counter"]);
/// ```
#[derive(Debug)]
pub struct CompositeBuilder {
    name: String,
    module: Module,
    micro_protocols: Vec<MicroProtocol>,
}

impl CompositeBuilder {
    /// Starts a new composite protocol.
    pub fn new(name: impl Into<String>) -> Self {
        CompositeBuilder {
            name: name.into(),
            module: Module::new(),
            micro_protocols: Vec::new(),
        }
    }

    /// Declares an event.
    pub fn event(&mut self, name: impl Into<String>) -> EventId {
        self.module.add_event(name)
    }

    /// Declares a shared global with an initial value.
    pub fn global(&mut self, name: impl Into<String>, init: Value) -> GlobalId {
        self.module.add_global(name, init)
    }

    /// Declares a native slot (bound to Rust code at session setup).
    pub fn native(&mut self, name: impl Into<String>) -> NativeId {
        self.module.add_native(name)
    }

    /// Adds a free function (not bound to any event) for use as a helper.
    pub fn function(
        &mut self,
        name: &str,
        params: u16,
        build: impl FnOnce(&mut FunctionBuilder),
    ) -> FuncId {
        let mut fb = FunctionBuilder::new(name, params);
        build(&mut fb);
        self.module.add_function(fb.finish())
    }

    /// Declares a micro-protocol; its handlers are registered through the
    /// provided [`MicroProtocolBuilder`].
    pub fn micro_protocol(
        &mut self,
        name: impl Into<String>,
        build: impl FnOnce(&mut MicroProtocolBuilder<'_>),
    ) {
        let mut mp = MicroProtocolBuilder {
            module: &mut self.module,
            bindings: Vec::new(),
        };
        build(&mut mp);
        self.micro_protocols.push(MicroProtocol {
            name: name.into(),
            bindings: mp.bindings,
        });
    }

    /// Finalizes the protocol definition.
    pub fn finish(self) -> CompositeProtocol {
        CompositeProtocol {
            name: self.name,
            module: self.module,
            micro_protocols: self.micro_protocols,
        }
    }
}

/// Registers one micro-protocol's handlers.
#[derive(Debug)]
pub struct MicroProtocolBuilder<'a> {
    module: &'a mut Module,
    bindings: Vec<(EventId, FuncId, i32)>,
}

impl MicroProtocolBuilder<'_> {
    /// Defines a handler function and binds it to `event` with `order`.
    pub fn handler(
        &mut self,
        event: EventId,
        order: i32,
        name: &str,
        params: u16,
        build: impl FnOnce(&mut FunctionBuilder),
    ) -> FuncId {
        let mut fb = FunctionBuilder::new(name, params);
        build(&mut fb);
        let func = self.module.add_function(fb.finish());
        self.bindings.push((event, func, order));
        func
    }

    /// Binds an already-defined function to an additional event (a handler
    /// may be bound to more than one event, §2.1).
    pub fn bind(&mut self, event: EventId, func: FuncId, order: i32) {
        self.bindings.push((event, func, order));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::{BinOp, RaiseMode};

    fn counting_protocol() -> (CompositeProtocol, EventId, GlobalId) {
        let mut b = CompositeBuilder::new("demo");
        let tick = b.event("Tick");
        let count = b.global("count", Value::Int(0));
        b.micro_protocol("Ones", |mp| {
            mp.handler(tick, 0, "add_one", 1, |f| {
                let v = f.load_global(count);
                let one = f.const_int(1);
                let s = f.bin(BinOp::Add, v, one);
                f.store_global(count, s);
                f.ret(None);
            });
        });
        b.micro_protocol("Tens", |mp| {
            mp.handler(tick, 1, "add_ten", 1, |f| {
                let v = f.load_global(count);
                let ten = f.const_int(10);
                let s = f.bin(BinOp::Add, v, ten);
                f.store_global(count, s);
                f.ret(None);
            });
        });
        (b.finish(), tick, count)
    }

    #[test]
    fn configuration_selects_micro_protocols() {
        let (proto, tick, count) = counting_protocol();

        let ones_only = proto.instantiate(&["Ones"]).unwrap();
        let mut rt = ones_only.runtime().unwrap();
        rt.raise(tick, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(count), &Value::Int(1));

        let both = proto.instantiate_all();
        let mut rt2 = both.runtime().unwrap();
        rt2.raise(tick, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt2.global(count), &Value::Int(11));
    }

    #[test]
    fn unknown_micro_protocol_rejected() {
        let (proto, _, _) = counting_protocol();
        assert_eq!(
            proto.instantiate(&["Nope"]).unwrap_err(),
            ConfigError::UnknownMicroProtocol("Nope".into())
        );
    }

    #[test]
    fn handler_bound_to_two_events() {
        let mut b = CompositeBuilder::new("multi");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        let g = b.global("n", Value::Int(0));
        b.micro_protocol("Shared", |mp| {
            let h = mp.handler(e1, 0, "bump", 0, |f| {
                let v = f.load_global(g);
                let one = f.const_int(1);
                let s = f.bin(BinOp::Add, v, one);
                f.store_global(g, s);
                f.ret(None);
            });
            mp.bind(e2, h, 0);
        });
        let proto = b.finish();
        let prog = proto.instantiate_all();
        let mut rt = prog.runtime().unwrap();
        rt.raise(e1, RaiseMode::Sync, &[]).unwrap();
        rt.raise(e2, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(2));
    }

    #[test]
    fn selection_order_controls_equal_order_keys() {
        let (proto, tick, count) = counting_protocol();
        // Give both handlers equal order by re-declaring? Not possible here;
        // instead verify declaration-order binding for the "all" case.
        let prog = proto.instantiate(&["Tens", "Ones"]).unwrap();
        let mut rt = prog.runtime().unwrap();
        rt.raise(tick, RaiseMode::Sync, &[Value::Unit]).unwrap();
        // Orders are 0 (Ones) and 1 (Tens) regardless of selection order.
        assert_eq!(rt.global(count), &Value::Int(11));
    }
}
