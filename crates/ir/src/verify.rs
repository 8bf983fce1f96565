//! Structural verification of functions and modules.
//!
//! The optimizer runs the verifier after every transformation in debug
//! builds; it catches dangling block references, out-of-range registers,
//! and references to undeclared symbols.

use crate::func::{Function, Module};
use crate::ids::{BlockId, FuncId, Reg};
use crate::instr::{Instr, Terminator};
use std::fmt;

/// A structural defect found by verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The function has no blocks.
    EmptyFunction { func: String },
    /// A register index is >= `reg_count`.
    RegisterOutOfRange {
        func: String,
        block: BlockId,
        reg: Reg,
    },
    /// A terminator targets a block that does not exist.
    BadBlockTarget {
        func: String,
        block: BlockId,
        target: BlockId,
    },
    /// `params` exceeds `reg_count`.
    ParamsExceedRegs { func: String },
    /// A call references a function id outside the module.
    UnknownFunction { func: String, callee: FuncId },
    /// A reference to an undeclared event.
    UnknownEvent {
        func: String,
        event: crate::ids::EventId,
    },
    /// A reference to an undeclared global.
    UnknownGlobal {
        func: String,
        global: crate::ids::GlobalId,
    },
    /// A reference to an undeclared native slot.
    UnknownNative {
        func: String,
        native: crate::ids::NativeId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyFunction { func } => write!(f, "function `{func}` has no blocks"),
            VerifyError::RegisterOutOfRange { func, block, reg } => {
                write!(f, "function `{func}` {block}: register {reg} out of range")
            }
            VerifyError::BadBlockTarget {
                func,
                block,
                target,
            } => write!(
                f,
                "function `{func}` {block}: jump target {target} does not exist"
            ),
            VerifyError::ParamsExceedRegs { func } => {
                write!(f, "function `{func}`: params exceed register count")
            }
            VerifyError::UnknownFunction { func, callee } => {
                write!(f, "function `{func}` calls unknown function {callee}")
            }
            VerifyError::UnknownEvent { func, event } => {
                write!(f, "function `{func}` raises unknown event {event}")
            }
            VerifyError::UnknownGlobal { func, global } => {
                write!(f, "function `{func}` references unknown global {global}")
            }
            VerifyError::UnknownNative { func, native } => {
                write!(f, "function `{func}` calls unknown native {native}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies one function in isolation (no module-level symbol checks).
///
/// # Errors
///
/// Returns the first defect found.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    if f.blocks.is_empty() {
        return Err(VerifyError::EmptyFunction {
            func: f.name.clone(),
        });
    }
    if f.params > f.reg_count {
        return Err(VerifyError::ParamsExceedRegs {
            func: f.name.clone(),
        });
    }
    for (bid, block) in f.iter_blocks() {
        let check_reg = |r: Reg| -> Result<(), VerifyError> {
            if r.0 >= f.reg_count {
                Err(VerifyError::RegisterOutOfRange {
                    func: f.name.clone(),
                    block: bid,
                    reg: r,
                })
            } else {
                Ok(())
            }
        };
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                check_reg(d)?;
            }
            let mut bad = None;
            instr.for_each_use(|r| {
                if bad.is_none() && r.0 >= f.reg_count {
                    bad = Some(r);
                }
            });
            if let Some(r) = bad {
                return Err(VerifyError::RegisterOutOfRange {
                    func: f.name.clone(),
                    block: bid,
                    reg: r,
                });
            }
        }
        match &block.term {
            Terminator::Ret(Some(r)) => check_reg(*r)?,
            Terminator::Ret(None) => {}
            Terminator::Branch { cond, .. } => check_reg(*cond)?,
            Terminator::Jump(_) => {}
        }
        let mut bad_target = None;
        block.term.for_each_successor(|t| {
            if bad_target.is_none() && t.index() >= f.blocks.len() {
                bad_target = Some(t);
            }
        });
        if let Some(target) = bad_target {
            return Err(VerifyError::BadBlockTarget {
                func: f.name.clone(),
                block: bid,
                target,
            });
        }
    }
    Ok(())
}

/// Verifies every function in a module, including symbol references.
///
/// # Errors
///
/// Returns the first defect found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in &m.functions {
        verify_function(f)?;
        for block in &f.blocks {
            for instr in &block.instrs {
                match instr {
                    Instr::Call { func, .. } if func.index() >= m.functions.len() => {
                        return Err(VerifyError::UnknownFunction {
                            func: f.name.clone(),
                            callee: *func,
                        });
                    }
                    Instr::Raise { event, .. } if event.index() >= m.events.len() => {
                        return Err(VerifyError::UnknownEvent {
                            func: f.name.clone(),
                            event: *event,
                        });
                    }
                    Instr::LoadGlobal { global, .. }
                    | Instr::StoreGlobal { global, .. }
                    | Instr::Lock { global }
                    | Instr::Unlock { global }
                    | Instr::GlobalFold { global, .. }
                        if global.index() >= m.globals.len() =>
                    {
                        return Err(VerifyError::UnknownGlobal {
                            func: f.name.clone(),
                            global: *global,
                        });
                    }
                    Instr::CallNative { native, .. } if native.index() >= m.natives.len() => {
                        return Err(VerifyError::UnknownNative {
                            func: f.name.clone(),
                            native: *native,
                        });
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Block;
    use crate::instr::{BinOp, RaiseMode};
    use crate::value::Value;

    #[test]
    fn valid_function_passes() {
        let mut b = FunctionBuilder::new("f", 1);
        let one = b.const_int(1);
        let r = b.bin(BinOp::Add, b.param(0), one);
        b.ret(Some(r));
        assert_eq!(verify_function(&b.finish()), Ok(()));
    }

    #[test]
    fn register_out_of_range_detected() {
        let f = Function {
            name: "f".into(),
            params: 0,
            reg_count: 1,
            blocks: vec![Block {
                instrs: vec![Instr::Mov {
                    dst: Reg(0),
                    src: Reg(5),
                }],
                term: Terminator::Ret(None),
            }],
        };
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::RegisterOutOfRange { reg: Reg(5), .. })
        ));
    }

    #[test]
    fn bad_block_target_detected() {
        let f = Function {
            name: "f".into(),
            params: 0,
            reg_count: 0,
            blocks: vec![Block::new(Terminator::Jump(BlockId(9)))],
        };
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::BadBlockTarget { .. })
        ));
    }

    #[test]
    fn empty_function_detected() {
        let f = Function {
            name: "f".into(),
            params: 0,
            reg_count: 0,
            blocks: vec![],
        };
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::EmptyFunction { .. })
        ));
    }

    #[test]
    fn module_symbol_checks() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        b.raise(crate::ids::EventId(3), RaiseMode::Sync, &[]);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UnknownEvent { .. })
        ));

        let mut m2 = Module::new();
        let e = m2.add_event("E");
        let g = m2.add_global("g", Value::Int(0));
        let n = m2.add_native("n");
        let mut b2 = FunctionBuilder::new("f", 0);
        let v = b2.load_global(g);
        let _ = b2.call_native(n, &[v]);
        b2.raise(e, RaiseMode::Async, &[v]);
        b2.ret(None);
        m2.add_function(b2.finish());
        assert_eq!(verify_module(&m2), Ok(()));
    }

    #[test]
    fn fused_unknown_global_detected() {
        // The fused form that references a global must be range-checked.
        let instr = Instr::GlobalFold {
            op: BinOp::Add,
            global: crate::ids::GlobalId(9),
            src: Reg(0),
        };
        let mut m = Module::new();
        m.add_global("g", Value::Int(0));
        let f = Function {
            name: "f".into(),
            params: 1,
            reg_count: 1,
            blocks: vec![Block {
                instrs: vec![instr.clone()],
                term: Terminator::Ret(None),
            }],
        };
        m.functions.push(f);
        assert!(
            matches!(verify_module(&m), Err(VerifyError::UnknownGlobal { .. })),
            "{instr:?} escaped the global range check"
        );
    }

    #[test]
    fn fused_register_out_of_range_detected() {
        // Register operands of fused forms flow through def/use checks.
        let f = Function {
            name: "f".into(),
            params: 0,
            reg_count: 1,
            blocks: vec![Block {
                instrs: vec![Instr::BinImm {
                    op: BinOp::Add,
                    dst: Reg(0),
                    lhs: Reg(7),
                    imm: Value::Int(1),
                }],
                term: Terminator::Ret(None),
            }],
        };
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::RegisterOutOfRange { reg: Reg(7), .. })
        ));
        let f = Function {
            name: "f".into(),
            params: 0,
            reg_count: 1,
            blocks: vec![Block {
                instrs: vec![Instr::GlobalFold {
                    op: BinOp::Add,
                    global: crate::ids::GlobalId(0),
                    src: Reg(4),
                }],
                term: Terminator::Ret(None),
            }],
        };
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::RegisterOutOfRange { reg: Reg(4), .. })
        ));
    }

    #[test]
    fn unknown_callee_detected() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        let _ = b.call(FuncId(7), &[]);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UnknownFunction { .. })
        ));
    }
}
