//! Assembler: parses the textual form produced by [`crate::display`].
//!
//! The grammar is line-oriented. Declarations (`event`, `global`, `native`)
//! must precede function bodies; symbol references (`@func`, `%event`,
//! `$global`, `!native`) may refer to any declaration in the module,
//! including functions defined later (two-pass resolution).

use crate::func::{Block, Function, Module};
use crate::ids::{BlockId, FuncId, Reg};
use crate::instr::{BinOp, Instr, RaiseMode, Terminator, UnOp};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parses a full module from assembler text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic or resolution
/// problem encountered.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();

    // Pass 1: collect declarations and function names.
    let mut module = Module::new();
    let mut func_names: HashMap<String, FuncId> = HashMap::new();
    {
        let mut next_func = 0usize;
        for &(ln, line) in &lines {
            if let Some(rest) = line.strip_prefix("func @") {
                let name = rest
                    .split('(')
                    .next()
                    .ok_or_else(|| ParseError {
                        line: ln,
                        message: "malformed func header".into(),
                    })?
                    .trim();
                if func_names
                    .insert(name.to_string(), FuncId::from_index(next_func))
                    .is_some()
                {
                    return err(ln, format!("duplicate function `{name}`"));
                }
                next_func += 1;
            } else if let Some(rest) = line.strip_prefix("event ") {
                module.add_event(rest.trim());
            } else if let Some(rest) = line.strip_prefix("global ") {
                let (name, init) = rest.split_once('=').ok_or_else(|| ParseError {
                    line: ln,
                    message: "global needs `= <value>`".into(),
                })?;
                let value = parse_value(init.trim(), ln)?;
                module.add_global(name.trim(), value);
            } else if let Some(rest) = line.strip_prefix("native ") {
                module.add_native(rest.trim());
            }
        }
    }

    // Pass 2: parse function bodies.
    let mut i = 0;
    while i < lines.len() {
        let (ln, line) = lines[i];
        if line.starts_with("event ") || line.starts_with("global ") || line.starts_with("native ")
        {
            i += 1;
            continue;
        }
        if let Some(rest) = line.strip_prefix("func @") {
            let open = rest.find('(').ok_or_else(|| ParseError {
                line: ln,
                message: "func header missing `(`".into(),
            })?;
            let name = rest[..open].trim().to_string();
            let close = rest.find(')').ok_or_else(|| ParseError {
                line: ln,
                message: "func header missing `)`".into(),
            })?;
            let params: u16 = rest[open + 1..close]
                .trim()
                .parse()
                .map_err(|_| ParseError {
                    line: ln,
                    message: "bad parameter count".into(),
                })?;
            if !rest[close + 1..].trim().starts_with('{') {
                return err(ln, "func header missing `{`");
            }
            let (func, consumed) =
                parse_function_body(&lines[i + 1..], name, params, &module, &func_names)?;
            module.add_function(func);
            i += consumed + 1;
        } else {
            return err(ln, format!("unexpected top-level line: `{line}`"));
        }
    }
    Ok(module)
}

fn strip_comment(l: &str) -> &str {
    match l.find(';') {
        Some(p) => &l[..p],
        None => l,
    }
}

fn parse_value(text: &str, ln: usize) -> Result<Value, ParseError> {
    let text = text.trim();
    if text == "unit" {
        return Ok(Value::Unit);
    }
    if let Some(rest) = text.strip_prefix("int ") {
        return rest
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ParseError {
                line: ln,
                message: format!("bad int `{rest}`"),
            });
    }
    if let Some(rest) = text.strip_prefix("bool ") {
        return match rest.trim() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => err(ln, format!("bad bool `{other}`")),
        };
    }
    if let Some(rest) = text.strip_prefix("bytes ") {
        let rest = rest.trim();
        if rest == "-" {
            return Ok(Value::bytes(Vec::new()));
        }
        if rest.len() % 2 != 0 {
            return err(ln, "bytes literal must have an even number of hex digits");
        }
        let mut out = Vec::with_capacity(rest.len() / 2);
        for chunk in rest.as_bytes().chunks(2) {
            let s = std::str::from_utf8(chunk).expect("hex digits are ascii");
            let byte = u8::from_str_radix(s, 16).map_err(|_| ParseError {
                line: ln,
                message: format!("bad hex byte `{s}`"),
            })?;
            out.push(byte);
        }
        return Ok(Value::bytes(out));
    }
    if let Some(rest) = text.strip_prefix("str ") {
        let rest = rest.trim();
        if rest.len() >= 2 && rest.starts_with('"') && rest.ends_with('"') {
            // Minimal unescaping: the printer only emits Rust debug escapes
            // for quotes and backslashes in our symbol-free strings.
            let inner = &rest[1..rest.len() - 1];
            let unescaped = inner.replace("\\\"", "\"").replace("\\\\", "\\");
            return Ok(Value::str(unescaped));
        }
        return err(ln, "str literal must be quoted");
    }
    err(ln, format!("unknown value `{text}`"))
}

struct FuncCtx<'m> {
    module: &'m Module,
    funcs: &'m HashMap<String, FuncId>,
}

impl FuncCtx<'_> {
    fn resolve_func(&self, tok: &str, ln: usize) -> Result<FuncId, ParseError> {
        let name = tok.strip_prefix('@').unwrap_or(tok);
        if let Some(&id) = self.funcs.get(name) {
            return Ok(id);
        }
        if let Ok(raw) = name.parse::<u32>() {
            return Ok(FuncId(raw));
        }
        err(ln, format!("unknown function `{name}`"))
    }

    fn resolve_event(&self, tok: &str, ln: usize) -> Result<crate::ids::EventId, ParseError> {
        let name = tok.strip_prefix('%').unwrap_or(tok);
        if let Some(id) = self.module.event_by_name(name) {
            return Ok(id);
        }
        if let Ok(raw) = name.parse::<u32>() {
            return Ok(crate::ids::EventId(raw));
        }
        err(ln, format!("unknown event `{name}`"))
    }

    fn resolve_global(&self, tok: &str, ln: usize) -> Result<crate::ids::GlobalId, ParseError> {
        let name = tok.strip_prefix('$').unwrap_or(tok);
        if let Some(id) = self.module.global_by_name(name) {
            return Ok(id);
        }
        if let Ok(raw) = name.parse::<u32>() {
            return Ok(crate::ids::GlobalId(raw));
        }
        err(ln, format!("unknown global `{name}`"))
    }

    fn resolve_native(&self, tok: &str, ln: usize) -> Result<crate::ids::NativeId, ParseError> {
        let name = tok.strip_prefix('!').unwrap_or(tok);
        if let Some(id) = self.module.native_by_name(name) {
            return Ok(id);
        }
        if let Ok(raw) = name.parse::<u32>() {
            return Ok(crate::ids::NativeId(raw));
        }
        err(ln, format!("unknown native `{name}`"))
    }
}

fn parse_reg(tok: &str, ln: usize) -> Result<Reg, ParseError> {
    let digits = tok.strip_prefix('r').ok_or_else(|| ParseError {
        line: ln,
        message: format!("expected register, found `{tok}`"),
    })?;
    digits.parse::<u16>().map(Reg).map_err(|_| ParseError {
        line: ln,
        message: format!("bad register `{tok}`"),
    })
}

fn parse_block_id(tok: &str, ln: usize) -> Result<BlockId, ParseError> {
    let digits = tok.strip_prefix('b').ok_or_else(|| ParseError {
        line: ln,
        message: format!("expected block, found `{tok}`"),
    })?;
    digits.parse::<u32>().map(BlockId).map_err(|_| ParseError {
        line: ln,
        message: format!("bad block `{tok}`"),
    })
}

/// Splits `name(r1, r2)` into (`name`, ["r1","r2"]).
fn parse_call_syntax(text: &str, ln: usize) -> Result<(&str, Vec<&str>), ParseError> {
    let open = text.find('(').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `(`".into(),
    })?;
    let close = text.rfind(')').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `)`".into(),
    })?;
    let callee = text[..open].trim();
    let inner = text[open + 1..close].trim();
    let args = if inner.is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(str::trim).collect()
    };
    Ok((callee, args))
}

fn parse_arg_regs(args: &[&str], ln: usize) -> Result<Vec<Reg>, ParseError> {
    args.iter().map(|a| parse_reg(a, ln)).collect()
}

fn parse_bin_op(tok: &str, ln: usize) -> Result<BinOp, ParseError> {
    BinOp::ALL
        .iter()
        .copied()
        .find(|o| o.mnemonic() == tok)
        .ok_or_else(|| ParseError {
            line: ln,
            message: format!("unknown operator `{tok}`"),
        })
}

/// Splits `<op> $g, <src>`, the operands of the `gfold` superinstruction.
fn split_fold(rest: &str, ln: usize) -> Result<(BinOp, &str, &str), ParseError> {
    let malformed = || ParseError {
        line: ln,
        message: "`gfold` needs `<op> $global, <operand>`".into(),
    };
    let (op_tok, rest) = rest.split_once(' ').ok_or_else(malformed)?;
    let op = parse_bin_op(op_tok.trim(), ln)?;
    let (g_tok, tail) = rest.split_once(',').ok_or_else(malformed)?;
    Ok((op, g_tok.trim(), tail.trim()))
}

#[allow(clippy::too_many_lines)]
fn parse_function_body(
    lines: &[(usize, &str)],
    name: String,
    params: u16,
    module: &Module,
    funcs: &HashMap<String, FuncId>,
) -> Result<(Function, usize), ParseError> {
    let ctx = FuncCtx { module, funcs };
    let mut blocks: Vec<Block> = Vec::new();
    let mut block_ids: Vec<BlockId> = Vec::new();
    let mut current: Option<(BlockId, Vec<Instr>, Option<Terminator>)> = None;
    let mut max_reg: i64 = i64::from(params) - 1;
    let mut consumed;

    let track = |r: Reg, max_reg: &mut i64| {
        *max_reg = (*max_reg).max(i64::from(r.0));
        r
    };

    for (idx, &(ln, line)) in lines.iter().enumerate() {
        consumed = idx + 1;
        if line == "}" {
            if let Some((bid, instrs, term)) = current.take() {
                block_ids.push(bid);
                blocks.push(Block {
                    instrs,
                    term: term.ok_or_else(|| ParseError {
                        line: ln,
                        message: format!("block {bid} missing terminator"),
                    })?,
                });
            }
            if blocks.is_empty() {
                return err(ln, "function has no blocks");
            }
            // Verify blocks were declared densely in order b0, b1, ...
            for (i, bid) in block_ids.iter().enumerate() {
                if bid.index() != i {
                    return err(
                        ln,
                        format!("blocks must be declared in order; found {bid} at position {i}"),
                    );
                }
            }
            let f = Function {
                name,
                params,
                reg_count: u16::try_from(max_reg + 1).map_err(|_| ParseError {
                    line: ln,
                    message: "too many registers".into(),
                })?,
                blocks,
            };
            return Ok((f, consumed));
        }
        if let Some(label) = line.strip_suffix(':') {
            if let Some((bid, instrs, term)) = current.take() {
                block_ids.push(bid);
                blocks.push(Block {
                    instrs,
                    term: term.ok_or_else(|| ParseError {
                        line: ln,
                        message: format!("block {bid} missing terminator"),
                    })?,
                });
            }
            current = Some((parse_block_id(label.trim(), ln)?, Vec::new(), None));
            continue;
        }
        let (_, instrs, term) = current.as_mut().ok_or_else(|| ParseError {
            line: ln,
            message: "instruction outside a block".into(),
        })?;
        if term.is_some() {
            return err(ln, "instruction after terminator");
        }

        // Terminators.
        if line == "ret" {
            *term = Some(Terminator::Ret(None));
            continue;
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            *term = Some(Terminator::Ret(Some(track(
                parse_reg(rest.trim(), ln)?,
                &mut max_reg,
            ))));
            continue;
        }
        if let Some(rest) = line.strip_prefix("jump ") {
            *term = Some(Terminator::Jump(parse_block_id(rest.trim(), ln)?));
            continue;
        }
        if let Some(rest) = line.strip_prefix("br ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return err(ln, "br needs `cond, then, else`");
            }
            *term = Some(Terminator::Branch {
                cond: track(parse_reg(parts[0], ln)?, &mut max_reg),
                then_blk: parse_block_id(parts[1], ln)?,
                else_blk: parse_block_id(parts[2], ln)?,
            });
            continue;
        }

        // Effect-only instructions.
        if let Some(rest) = line.strip_prefix("store ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 2 {
                return err(ln, "store needs `$global, reg`");
            }
            instrs.push(Instr::StoreGlobal {
                global: ctx.resolve_global(parts[0], ln)?,
                src: track(parse_reg(parts[1], ln)?, &mut max_reg),
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("lock ") {
            instrs.push(Instr::Lock {
                global: ctx.resolve_global(rest.trim(), ln)?,
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("unlock ") {
            instrs.push(Instr::Unlock {
                global: ctx.resolve_global(rest.trim(), ln)?,
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("raise ") {
            let (mode_tok, call) = rest.split_once(' ').ok_or_else(|| ParseError {
                line: ln,
                message: "raise needs `<mode> %event(args)`".into(),
            })?;
            let mode = match mode_tok {
                "sync" => RaiseMode::Sync,
                "async" => RaiseMode::Async,
                "timed" => RaiseMode::Timed,
                other => return err(ln, format!("bad raise mode `{other}`")),
            };
            let (callee, args) = parse_call_syntax(call, ln)?;
            let args = parse_arg_regs(&args, ln)?;
            for &a in &args {
                track(a, &mut max_reg);
            }
            instrs.push(Instr::Raise {
                event: ctx.resolve_event(callee, ln)?,
                mode,
                args,
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("bset ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return err(ln, "bset needs `bytes, index, value`");
            }
            instrs.push(Instr::BytesSet {
                bytes: track(parse_reg(parts[0], ln)?, &mut max_reg),
                index: track(parse_reg(parts[1], ln)?, &mut max_reg),
                value: track(parse_reg(parts[2], ln)?, &mut max_reg),
            });
            continue;
        }

        // The effect-only superinstruction.
        if let Some(rest) = line.strip_prefix("gfold ") {
            let (op, g, src) = split_fold(rest, ln)?;
            instrs.push(Instr::GlobalFold {
                op,
                global: ctx.resolve_global(g, ln)?,
                src: track(parse_reg(src, ln)?, &mut max_reg),
            });
            continue;
        }

        // `dst = op ...` forms.
        let (dst_tok, rhs) = line.split_once('=').ok_or_else(|| ParseError {
            line: ln,
            message: format!("unrecognized instruction `{line}`"),
        })?;
        let dst = track(parse_reg(dst_tok.trim(), ln)?, &mut max_reg);
        let rhs = rhs.trim();
        let (op, rest) = rhs
            .split_once(' ')
            .map_or((rhs, ""), |(op, rest)| (op, rest.trim()));
        // `call`/`native` parse their own argument syntax below.
        let operands: Vec<&str> = if rest.is_empty() || matches!(op, "call" | "native") {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };

        let need = |n: usize| -> Result<(), ParseError> {
            if operands.len() == n {
                Ok(())
            } else {
                err(ln, format!("`{op}` needs {n} operand(s)"))
            }
        };

        let instr = match op {
            "const" => Instr::Const {
                dst,
                value: parse_value(rest, ln)?,
            },
            "mov" => {
                need(1)?;
                Instr::Mov {
                    dst,
                    src: track(parse_reg(operands[0], ln)?, &mut max_reg),
                }
            }
            "load" => {
                need(1)?;
                Instr::LoadGlobal {
                    dst,
                    global: ctx.resolve_global(operands[0], ln)?,
                }
            }
            "call" => {
                let (callee, args) = parse_call_syntax(rest, ln)?;
                let args = parse_arg_regs(&args, ln)?;
                for &a in &args {
                    track(a, &mut max_reg);
                }
                Instr::Call {
                    dst,
                    func: ctx.resolve_func(callee, ln)?,
                    args,
                }
            }
            "native" => {
                let (callee, args) = parse_call_syntax(rest, ln)?;
                let args = parse_arg_regs(&args, ln)?;
                for &a in &args {
                    track(a, &mut max_reg);
                }
                Instr::CallNative {
                    dst,
                    native: ctx.resolve_native(callee, ln)?,
                    args,
                }
            }
            "bnew" => {
                need(1)?;
                Instr::BytesNew {
                    dst,
                    len: track(parse_reg(operands[0], ln)?, &mut max_reg),
                }
            }
            "blen" => {
                need(1)?;
                Instr::BytesLen {
                    dst,
                    bytes: track(parse_reg(operands[0], ln)?, &mut max_reg),
                }
            }
            "bget" => {
                need(2)?;
                Instr::BytesGet {
                    dst,
                    bytes: track(parse_reg(operands[0], ln)?, &mut max_reg),
                    index: track(parse_reg(operands[1], ln)?, &mut max_reg),
                }
            }
            "bcat" => {
                need(2)?;
                Instr::BytesConcat {
                    dst,
                    lhs: track(parse_reg(operands[0], ln)?, &mut max_reg),
                    rhs: track(parse_reg(operands[1], ln)?, &mut max_reg),
                }
            }
            "bslice" => {
                need(3)?;
                Instr::BytesSlice {
                    dst,
                    bytes: track(parse_reg(operands[0], ln)?, &mut max_reg),
                    start: track(parse_reg(operands[1], ln)?, &mut max_reg),
                    end: track(parse_reg(operands[2], ln)?, &mut max_reg),
                }
            }
            mnemonic => {
                if let Some(base) = mnemonic.strip_suffix(".i") {
                    // `dst = <op>.i lhs, <value>`: fused Const+Bin with an
                    // immediate. The immediate is everything after the first
                    // comma (value literals contain no leading comma).
                    let op = parse_bin_op(base, ln)?;
                    let (lhs_tok, imm_tok) = rest.split_once(',').ok_or_else(|| ParseError {
                        line: ln,
                        message: format!("`{mnemonic}` needs `reg, <value>`"),
                    })?;
                    Instr::BinImm {
                        op,
                        dst,
                        lhs: track(parse_reg(lhs_tok.trim(), ln)?, &mut max_reg),
                        imm: parse_value(imm_tok.trim(), ln)?,
                    }
                } else if let Some(bin) = BinOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
                    need(2)?;
                    Instr::Bin {
                        op: *bin,
                        dst,
                        lhs: track(parse_reg(operands[0], ln)?, &mut max_reg),
                        rhs: track(parse_reg(operands[1], ln)?, &mut max_reg),
                    }
                } else if let Some(un) = UnOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
                    need(1)?;
                    Instr::Un {
                        op: *un,
                        dst,
                        src: track(parse_reg(operands[0], ln)?, &mut max_reg),
                    }
                } else {
                    return err(ln, format!("unknown mnemonic `{mnemonic}`"));
                }
            }
        };
        instrs.push(instr);
    }
    err(
        lines.last().map(|&(ln, _)| ln).unwrap_or(0),
        "unterminated function body (missing `}`)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::print_module;

    #[test]
    fn parse_simple_function() {
        let m = parse_module(
            "func @f(2) {\n\
             b0:\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].params, 2);
        assert_eq!(m.functions[0].reg_count, 3);
    }

    #[test]
    fn parse_declarations_and_symbols() {
        let text = "event Ping\n\
                    global seq = int 7\n\
                    native work\n\
                    func @h(1) {\n\
                    b0:\n\
                      lock $seq\n\
                      r1 = load $seq\n\
                      r2 = add r1, r0\n\
                      store $seq, r2\n\
                      unlock $seq\n\
                      r3 = native !work(r2)\n\
                      raise sync %Ping(r3)\n\
                      ret\n\
                    }\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.events.len(), 1);
        assert_eq!(m.globals[0].init, Value::Int(7));
        let f = &m.functions[0];
        assert_eq!(f.blocks[0].instrs.len(), 7);
    }

    #[test]
    fn roundtrip_through_printer() {
        let text = "event A\n\
                    event B\n\
                    global st = bytes 0102\n\
                    native enc\n\
                    func @main(1) {\n\
                    b0:\n\
                      r1 = const int 10\n\
                      r2 = lt r0, r1\n\
                      br r2, b1, b2\n\
                    b1:\n\
                      r3 = call @helper(r0)\n\
                      raise async %B(r3)\n\
                      ret r3\n\
                    b2:\n\
                      r4 = const str \"big\"\n\
                      ret\n\
                    }\n\
                    func @helper(1) {\n\
                    b0:\n\
                      r1 = native !enc(r0)\n\
                      raise timed %A(r1, r0)\n\
                      ret r1\n\
                    }\n";
        let m1 = parse_module(text).unwrap();
        let printed = print_module(&m1);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m1, m2, "printed form was:\n{printed}");
    }

    #[test]
    fn forward_function_references_resolve() {
        let text = "func @a(0) {\n\
                    b0:\n\
                      r0 = call @b()\n\
                      ret r0\n\
                    }\n\
                    func @b(0) {\n\
                    b0:\n\
                      r0 = const int 1\n\
                      ret r0\n\
                    }\n";
        let m = parse_module(text).unwrap();
        match &m.functions[0].blocks[0].instrs[0] {
            Instr::Call { func, .. } => assert_eq!(*func, FuncId(1)),
            other => panic!("unexpected instr {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let m = parse_module(
            "; a comment\n\
             \n\
             func @f(0) { ; trailing\n\
             b0:\n\
               ret ; done\n\
             }\n",
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_module("func @f(0) {\nb0:\n  r0 = bogus r1\n  ret\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn missing_terminator_rejected() {
        let e = parse_module("func @f(0) {\nb0:\n  r0 = const int 1\n}\n").unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn out_of_order_blocks_rejected() {
        let e = parse_module("func @f(0) {\nb1:\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("order"), "{e}");
    }

    #[test]
    fn superinstructions_roundtrip() {
        // Both fused forms, with distinct operators and operand shapes.
        let text = "global acc = int 0\n\
                    func @f(1) {\n\
                    b0:\n\
                      r1 = add.i r0, int 5\n\
                      r2 = mul.i r1, int -3\n\
                      gfold add $acc, r2\n\
                      gfold xor $acc, r1\n\
                      ret\n\
                    }\n";
        let m1 = parse_module(text).unwrap();
        let f = &m1.functions[0];
        assert!(matches!(f.blocks[0].instrs[0], Instr::BinImm { .. }));
        assert!(matches!(f.blocks[0].instrs[2], Instr::GlobalFold { .. }));
        assert!(matches!(f.blocks[0].instrs[3], Instr::GlobalFold { .. }));
        let printed = print_module(&m1);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m1, m2, "printed form was:\n{printed}");
    }

    #[test]
    fn superinstructions_roundtrip_all_value_kinds() {
        // Immediates of every value kind survive the printer.
        let text = "global g = int 0\n\
                    func @f(1) {\n\
                    b0:\n\
                      r1 = eq.i r0, bool true\n\
                      r2 = ne.i r0, bytes ab01\n\
                      r3 = eq.i r0, str \"x\"\n\
                      r4 = eq.i r0, unit\n\
                      r5 = xor.i r0, int 255\n\
                      ret\n\
                    }\n";
        let m1 = parse_module(text).unwrap();
        let m2 = parse_module(&print_module(&m1)).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn malformed_superinstructions_rejected() {
        // Unknown operator in a fold.
        let e =
            parse_module("global g = int 0\nfunc @f(0) {\nb0:\n  gfold bogus $g, r0\n  ret\n}\n")
                .unwrap_err();
        assert!(e.message.contains("bogus"), "{e}");
        // Missing comma.
        let e = parse_module("global g = int 0\nfunc @f(0) {\nb0:\n  gfold add $g\n  ret\n}\n")
            .unwrap_err();
        assert!(e.message.contains("gfold"), "{e}");
        // `.i` suffix on a non-binop mnemonic.
        let e =
            parse_module("func @f(0) {\nb0:\n  r0 = bogus.i r0, int 1\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("bogus"), "{e}");
        // `lfold.i`, `gfold.i` and `lstore` are no longer instructions: a
        // module that spells one is refused at its line, never misread.
        for form in [
            "lfold.i add $g, int 1",
            "gfold.i mul $g, int 31",
            "lstore $g, r0",
        ] {
            let text = format!("global g = int 0\nfunc @f(1) {{\nb0:\n  {form}\n  ret\n}}\n");
            let e = parse_module(&text).unwrap_err();
            assert_eq!(e.line, 4, "{form}: {e}");
            assert!(e.message.contains(form), "{form}: {e}");
        }
    }

    #[test]
    fn bytes_and_str_values() {
        let m = parse_module(
            "global b = bytes -\n\
             global c = bytes ff00\n\
             global s = str \"hi\"\n",
        )
        .unwrap();
        assert_eq!(m.globals[0].init, Value::bytes(vec![]));
        assert_eq!(m.globals[1].init, Value::bytes(vec![0xff, 0x00]));
        assert_eq!(m.globals[2].init, Value::str("hi"));
    }
}
