//! Textual disassembly of modules and functions.
//!
//! The format round-trips through [`crate::parse`]: `parse(print(m)) == m`
//! up to register numbering (the printer emits registers verbatim, so the
//! round-trip is exact). Symbol references use sigils: `@function`,
//! `%event`, `$global`, `!native`.

use crate::func::{Function, Module};
use crate::ids::{EventId, FuncId, GlobalId, NativeId};
use crate::instr::{Instr, Terminator};
use crate::value::Value;
use std::fmt;
use std::fmt::Write as _;

/// Escapes a value as assembler text.
pub fn value_text(v: &Value) -> String {
    match v {
        Value::Unit => "unit".to_string(),
        Value::Int(i) => format!("int {i}"),
        Value::Bool(b) => format!("bool {b}"),
        Value::Bytes(b) => {
            let mut s = String::from("bytes ");
            if b.is_empty() {
                s.push('-');
            } else {
                for byte in b.iter() {
                    let _ = write!(s, "{byte:02x}");
                }
            }
            s
        }
        Value::Str(v) => format!("str {v:?}"),
    }
}

/// Resolves symbol names when a module is available, raw ids otherwise.
struct Symbols<'m>(Option<&'m Module>);

impl<'m> Symbols<'m> {
    fn func(&self, id: FuncId) -> String {
        match self.0.and_then(|m| m.functions.get(id.index())) {
            Some(f) => format!("@{}", f.name),
            None => format!("@{}", id.0),
        }
    }
    fn event(&self, id: EventId) -> String {
        match self.0.and_then(|m| m.events.get(id.index())) {
            Some(e) => format!("%{}", e.name),
            None => format!("%{}", id.0),
        }
    }
    fn global(&self, id: GlobalId) -> String {
        match self.0.and_then(|m| m.globals.get(id.index())) {
            Some(g) => format!("${}", g.name),
            None => format!("${}", id.0),
        }
    }
    fn native(&self, id: NativeId) -> String {
        match self.0.and_then(|m| m.natives.get(id.index())) {
            Some(n) => format!("!{}", n.name),
            None => format!("!{}", id.0),
        }
    }
}

fn regs_text(regs: &[crate::ids::Reg]) -> String {
    regs.iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn instr_text(i: &Instr, sym: &Symbols<'_>) -> String {
    match i {
        Instr::Const { dst, value } => format!("{dst} = const {}", value_text(value)),
        Instr::Mov { dst, src } => format!("{dst} = mov {src}"),
        Instr::Bin { op, dst, lhs, rhs } => {
            format!("{dst} = {} {lhs}, {rhs}", op.mnemonic())
        }
        Instr::Un { op, dst, src } => format!("{dst} = {} {src}", op.mnemonic()),
        Instr::LoadGlobal { dst, global } => format!("{dst} = load {}", sym.global(*global)),
        Instr::StoreGlobal { global, src } => format!("store {}, {src}", sym.global(*global)),
        Instr::Lock { global } => format!("lock {}", sym.global(*global)),
        Instr::Unlock { global } => format!("unlock {}", sym.global(*global)),
        Instr::Call { dst, func, args } => {
            format!("{dst} = call {}({})", sym.func(*func), regs_text(args))
        }
        Instr::CallNative { dst, native, args } => {
            format!(
                "{dst} = native {}({})",
                sym.native(*native),
                regs_text(args)
            )
        }
        Instr::Raise { event, mode, args } => format!(
            "raise {} {}({})",
            mode.mnemonic(),
            sym.event(*event),
            regs_text(args)
        ),
        Instr::BytesNew { dst, len } => format!("{dst} = bnew {len}"),
        Instr::BytesLen { dst, bytes } => format!("{dst} = blen {bytes}"),
        Instr::BytesGet { dst, bytes, index } => format!("{dst} = bget {bytes}, {index}"),
        Instr::BytesSet {
            bytes,
            index,
            value,
        } => format!("bset {bytes}, {index}, {value}"),
        Instr::BytesConcat { dst, lhs, rhs } => format!("{dst} = bcat {lhs}, {rhs}"),
        Instr::BytesSlice {
            dst,
            bytes,
            start,
            end,
        } => format!("{dst} = bslice {bytes}, {start}, {end}"),
        // Superinstructions: the `.i` suffix marks an immediate operand.
        Instr::BinImm { op, dst, lhs, imm } => {
            format!("{dst} = {}.i {lhs}, {}", op.mnemonic(), value_text(imm))
        }
        Instr::GlobalFold { op, global, src } => {
            format!("gfold {} {}, {src}", op.mnemonic(), sym.global(*global))
        }
    }
}

fn term_text(t: &Terminator) -> String {
    match t {
        Terminator::Jump(b) => format!("jump {b}"),
        Terminator::Branch {
            cond,
            then_blk,
            else_blk,
        } => format!("br {cond}, {then_blk}, {else_blk}"),
        Terminator::Ret(Some(r)) => format!("ret {r}"),
        Terminator::Ret(None) => "ret".to_string(),
    }
}

/// Renders a function. If `module` is provided, symbol references print as
/// names; otherwise as raw ids.
pub fn print_function(f: &Function, module: Option<&Module>) -> String {
    let sym = Symbols(module);
    let mut out = String::new();
    let _ = writeln!(out, "func @{}({}) {{", f.name, f.params);
    for (bid, block) in f.iter_blocks() {
        let _ = writeln!(out, "{bid}:");
        for instr in &block.instrs {
            let _ = writeln!(out, "  {}", instr_text(instr, &sym));
        }
        let _ = writeln!(out, "  {}", term_text(&block.term));
    }
    out.push_str("}\n");
    out
}

/// Renders a whole module: declarations first, then every function.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for e in &m.events {
        let _ = writeln!(out, "event {}", e.name);
    }
    for g in &m.globals {
        let _ = writeln!(out, "global {} = {}", g.name, value_text(&g.init));
    }
    for n in &m.natives {
        let _ = writeln!(out, "native {}", n.name);
    }
    if !(m.events.is_empty() && m.globals.is_empty() && m.natives.is_empty()) {
        out.push('\n');
    }
    for f in &m.functions {
        out.push_str(&print_function(f, Some(m)));
        out.push('\n');
    }
    out
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print_module(self))
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print_function(self, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, RaiseMode};

    #[test]
    fn prints_symbols_with_module() {
        let mut m = Module::new();
        let e = m.add_event("Ping");
        let g = m.add_global("seq", Value::Int(0));
        let n = m.add_native("work");
        let mut b = FunctionBuilder::new("h", 1);
        let v = b.load_global(g);
        let s = b.bin(BinOp::Add, v, b.param(0));
        b.store_global(g, s);
        let _ = b.call_native(n, &[s]);
        b.raise(e, RaiseMode::Sync, &[s]);
        b.ret(None);
        m.add_function(b.finish());

        let text = print_module(&m);
        assert!(text.contains("event Ping"));
        assert!(text.contains("global seq = int 0"));
        assert!(text.contains("native work"));
        assert!(text.contains("raise sync %Ping(r2)"));
        assert!(text.contains("r1 = load $seq"));
        assert!(text.contains("= native !work(r2)"));
    }

    #[test]
    fn prints_raw_ids_without_module() {
        let mut b = FunctionBuilder::new("h", 0);
        let r = b.call(FuncId(3), &[]);
        b.ret(Some(r));
        let f = b.finish();
        let text = print_function(&f, None);
        assert!(text.contains("call @3()"), "got: {text}");
    }

    #[test]
    fn value_text_forms() {
        assert_eq!(value_text(&Value::Unit), "unit");
        assert_eq!(value_text(&Value::Int(-3)), "int -3");
        assert_eq!(value_text(&Value::Bool(true)), "bool true");
        assert_eq!(value_text(&Value::bytes(vec![0xAB, 0x01])), "bytes ab01");
        assert_eq!(value_text(&Value::bytes(vec![])), "bytes -");
        assert_eq!(value_text(&Value::str("hi")), "str \"hi\"");
    }
}
