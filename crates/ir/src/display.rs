//! Textual disassembly of modules and functions.
//!
//! The format round-trips through [`crate::parse`]: `parse(print(m)) == m`
//! up to register numbering (the printer emits registers verbatim, so the
//! round-trip is exact). Symbol references use sigils: `@function`,
//! `%event`, `$global`, `!native`.
//!
//! There is one printer, [`write_module`] / [`write_function`], which
//! streams into any [`fmt::Write`]: every instruction, symbol, register
//! list and value goes straight into the writer, so printing a module
//! allocates nothing beyond what the writer itself grows. [`print_module`],
//! [`print_function`], [`value_text`] and the `Display` impls wrap it.

use crate::func::{Function, Module};
use crate::ids::{EventId, FuncId, GlobalId, NativeId, Reg};
use crate::instr::{Instr, Terminator};
use crate::value::Value;
use std::fmt::{self, Write};

/// A [`Value`] as assembler text, for `write!`.
struct Text<'v>(&'v Value);

impl fmt::Display for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Unit => f.write_str("unit"),
            Value::Int(i) => write!(f, "int {i}"),
            Value::Bool(b) => write!(f, "bool {b}"),
            Value::Bytes(b) if b.is_empty() => f.write_str("bytes -"),
            Value::Bytes(b) => {
                f.write_str("bytes ")?;
                b.iter().try_for_each(|byte| write!(f, "{byte:02x}"))
            }
            Value::Str(v) => write!(f, "str {v:?}"),
        }
    }
}

/// Escapes a value as assembler text.
pub fn value_text(v: &Value) -> String {
    Text(v).to_string()
}

/// A symbol reference: its sigil, then its name when a module resolves
/// it, its raw id otherwise.
struct Sym<'m> {
    sigil: char,
    name: Option<&'m str>,
    id: u32,
}

impl fmt::Display for Sym<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char(self.sigil)?;
        match self.name {
            Some(name) => f.write_str(name),
            None => write!(f, "{}", self.id),
        }
    }
}

/// Resolves symbol names when a module is available, raw ids otherwise.
struct Symbols<'m>(Option<&'m Module>);

impl<'m> Symbols<'m> {
    fn func(&self, id: FuncId) -> Sym<'m> {
        let f = self.0.and_then(|m| m.functions.get(id.index()));
        Sym {
            sigil: '@',
            name: f.map(|f| f.name.as_str()),
            id: id.0,
        }
    }
    fn event(&self, id: EventId) -> Sym<'m> {
        let e = self.0.and_then(|m| m.events.get(id.index()));
        Sym {
            sigil: '%',
            name: e.map(|e| e.name.as_str()),
            id: id.0,
        }
    }
    fn global(&self, id: GlobalId) -> Sym<'m> {
        let g = self.0.and_then(|m| m.globals.get(id.index()));
        Sym {
            sigil: '$',
            name: g.map(|g| g.name.as_str()),
            id: id.0,
        }
    }
    fn native(&self, id: NativeId) -> Sym<'m> {
        let n = self.0.and_then(|m| m.natives.get(id.index()));
        Sym {
            sigil: '!',
            name: n.map(|n| n.name.as_str()),
            id: id.0,
        }
    }
}

/// A register list, comma-separated.
struct Regs<'r>(&'r [Reg]);

impl fmt::Display for Regs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

fn write_instr<W: Write + ?Sized>(out: &mut W, i: &Instr, sym: &Symbols<'_>) -> fmt::Result {
    match i {
        Instr::Const { dst, value } => write!(out, "{dst} = const {}", Text(value)),
        Instr::Mov { dst, src } => write!(out, "{dst} = mov {src}"),
        Instr::Bin { op, dst, lhs, rhs } => {
            write!(out, "{dst} = {} {lhs}, {rhs}", op.mnemonic())
        }
        Instr::Un { op, dst, src } => write!(out, "{dst} = {} {src}", op.mnemonic()),
        Instr::LoadGlobal { dst, global } => write!(out, "{dst} = load {}", sym.global(*global)),
        Instr::StoreGlobal { global, src } => write!(out, "store {}, {src}", sym.global(*global)),
        Instr::Lock { global } => write!(out, "lock {}", sym.global(*global)),
        Instr::Unlock { global } => write!(out, "unlock {}", sym.global(*global)),
        Instr::Call { dst, func, args } => {
            write!(out, "{dst} = call {}({})", sym.func(*func), Regs(args))
        }
        Instr::CallNative { dst, native, args } => {
            write!(
                out,
                "{dst} = native {}({})",
                sym.native(*native),
                Regs(args)
            )
        }
        Instr::Raise { event, mode, args } => write!(
            out,
            "raise {} {}({})",
            mode.mnemonic(),
            sym.event(*event),
            Regs(args)
        ),
        Instr::BytesNew { dst, len } => write!(out, "{dst} = bnew {len}"),
        Instr::BytesLen { dst, bytes } => write!(out, "{dst} = blen {bytes}"),
        Instr::BytesGet { dst, bytes, index } => write!(out, "{dst} = bget {bytes}, {index}"),
        Instr::BytesSet {
            bytes,
            index,
            value,
        } => write!(out, "bset {bytes}, {index}, {value}"),
        Instr::BytesConcat { dst, lhs, rhs } => write!(out, "{dst} = bcat {lhs}, {rhs}"),
        Instr::BytesSlice {
            dst,
            bytes,
            start,
            end,
        } => write!(out, "{dst} = bslice {bytes}, {start}, {end}"),
        // Superinstructions: the `.i` suffix marks an immediate operand.
        Instr::BinImm { op, dst, lhs, imm } => {
            write!(out, "{dst} = {}.i {lhs}, {}", op.mnemonic(), Text(imm))
        }
        Instr::GlobalFold { op, global, src } => {
            write!(
                out,
                "gfold {} {}, {src}",
                op.mnemonic(),
                sym.global(*global)
            )
        }
    }
}

fn write_term<W: Write + ?Sized>(out: &mut W, t: &Terminator) -> fmt::Result {
    match t {
        Terminator::Jump(b) => write!(out, "jump {b}"),
        Terminator::Branch {
            cond,
            then_blk,
            else_blk,
        } => write!(out, "br {cond}, {then_blk}, {else_blk}"),
        Terminator::Ret(Some(r)) => write!(out, "ret {r}"),
        Terminator::Ret(None) => out.write_str("ret"),
    }
}

/// Writes a function into `out`. If `module` is provided, symbol
/// references print as names; otherwise as raw ids.
///
/// # Errors
///
/// Only those `out` itself returns.
pub fn write_function<W: Write + ?Sized>(
    out: &mut W,
    f: &Function,
    module: Option<&Module>,
) -> fmt::Result {
    let sym = Symbols(module);
    writeln!(out, "func @{}({}) {{", f.name, f.params)?;
    for (bid, block) in f.iter_blocks() {
        writeln!(out, "{bid}:")?;
        for instr in &block.instrs {
            out.write_str("  ")?;
            write_instr(out, instr, &sym)?;
            out.write_char('\n')?;
        }
        out.write_str("  ")?;
        write_term(out, &block.term)?;
        out.write_char('\n')?;
    }
    out.write_str("}\n")
}

/// Writes a whole module into `out`: declarations first, then every
/// function.
///
/// # Errors
///
/// Only those `out` itself returns.
pub fn write_module<W: Write + ?Sized>(out: &mut W, m: &Module) -> fmt::Result {
    for e in &m.events {
        writeln!(out, "event {}", e.name)?;
    }
    for g in &m.globals {
        writeln!(out, "global {} = {}", g.name, Text(&g.init))?;
    }
    for n in &m.natives {
        writeln!(out, "native {}", n.name)?;
    }
    if !(m.events.is_empty() && m.globals.is_empty() && m.natives.is_empty()) {
        out.write_char('\n')?;
    }
    for f in &m.functions {
        write_function(out, f, Some(m))?;
        out.write_char('\n')?;
    }
    Ok(())
}

/// Renders a function. If `module` is provided, symbol references print as
/// names; otherwise as raw ids.
pub fn print_function(f: &Function, module: Option<&Module>) -> String {
    let mut out = String::new();
    write_function(&mut out, f, module).expect("writing to a String cannot fail");
    out
}

/// Renders a whole module: declarations first, then every function.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, m).expect("writing to a String cannot fail");
    out
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_module(f, self)
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(f, self, None)
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

    /// The committed `optimize` outputs (`tests/fixtures/optimized_*.pdo`
    /// at the workspace root): every wrapper of the printer yields the
    /// fixture's own bytes.
    #[test]
    fn every_wrapper_prints_the_committed_fixtures_byte_for_byte() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        for name in [
            "optimized_ctp_video.pdo",
            "optimized_seccomm.pdo",
            "optimized_xclient.pdo",
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
            let m = crate::parse::parse_module(&text).unwrap();
            assert_eq!(print_module(&m), text, "{name}: print_module");
            assert_eq!(format!("{m}"), text, "{name}: Display");
            let f = &m.functions[0];
            assert_eq!(format!("{f}"), print_function(f, None), "{name}: function");
        }
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
