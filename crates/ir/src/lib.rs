//! # pdo-ir — handler IR for profile-directed event optimization
//!
//! This crate defines the small register-based intermediate representation in
//! which event *handlers* are expressed, together with an interpreter, a
//! verifier, a textual assembler/disassembler, and a builder API.
//!
//! The IR is the substitution this reproduction makes for the PLDI 2002
//! paper's C sources: the original work hand-specialized C handler code after
//! profiling; here handlers are IR functions that the `pdo-passes` and
//! `pdo` crates can merge, inline, and optimize automatically. Payload work
//! (cryptography, codec work, I/O) stays in native Rust and is invoked from
//! the IR through a [`NativeId`] table, exactly as the paper's handlers call
//! into library code.
//!
//! ## Quick tour
//!
//! ```
//! use pdo_ir::{Module, FunctionBuilder, Value, BinOp};
//! use pdo_ir::interp::{BasicEnv, call};
//!
//! let mut module = Module::new();
//! let mut b = FunctionBuilder::new("add1", 1);
//! let one = b.const_value(Value::Int(1));
//! let out = b.bin(BinOp::Add, b.param(0), one);
//! b.ret(Some(out));
//! let f = module.add_function(b.finish());
//!
//! let mut env = BasicEnv::new(&module);
//! let r = call(&module, &mut env, f, &[Value::Int(41)]).unwrap();
//! assert_eq!(r, Value::Int(42));
//! ```
//!
//! The interpreter is parameterized over an [`interp::Env`] so that the event
//! runtime (crate `pdo-events`) can service [`Instr::Raise`] instructions by
//! recursively dispatching bound handlers, while unit tests can use the
//! self-contained [`interp::BasicEnv`].

pub mod builder;
pub mod cost;
pub mod display;
pub mod func;
pub mod ids;
pub mod instr;
pub mod interp;
pub mod parse;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cost::{CostCounter, OpcodeProfile};
pub use func::{Block, EventDecl, Function, GlobalDecl, Module, NativeDecl};
pub use ids::{BlockId, EventId, FuncId, GlobalId, NativeId, Reg};
pub use instr::{BinOp, Instr, RaiseMode, Terminator, UnOp};
pub use interp::{Env, ExecError};
pub use value::Value;
pub use verify::{verify_function, verify_module, VerifyError};
