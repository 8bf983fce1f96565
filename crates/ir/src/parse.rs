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
    // Pass 1: collect declarations and function names.
    let mut module = Module::new();
    let mut func_names: HashMap<&str, FuncId> = HashMap::new();
    for (ln, line) in lines(text) {
        if let Some(rest) = line.strip_prefix("func @") {
            let name = rest
                .split('(')
                .next()
                .ok_or_else(|| ParseError {
                    line: ln,
                    message: "malformed func header".into(),
                })?
                .trim();
            let id = FuncId::from_index(func_names.len());
            if func_names.insert(name, id).is_some() {
                return err(ln, format!("duplicate function `{name}`"));
            }
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

    // Pass 2: parse function bodies.
    module.functions.reserve_exact(func_names.len());
    let mut staging = Staging::default();
    let mut lines = lines(text);
    while let Some((ln, line)) = lines.next() {
        if line.starts_with("event ") || line.starts_with("global ") || line.starts_with("native ")
        {
            continue;
        }
        if let Some(rest) = line.strip_prefix("func @") {
            let open = rest.find('(').ok_or_else(|| ParseError {
                line: ln,
                message: "func header missing `(`".into(),
            })?;
            let name = rest[..open].trim().to_string();
            let close = rest[open..]
                .find(')')
                .map(|at| open + at)
                .ok_or_else(|| ParseError {
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
            let ctx = FuncCtx {
                module: &module,
                funcs: &func_names,
            };
            let func = parse_function_body(&mut lines, &mut staging, name, params, &ctx)?;
            module.add_function(func);
        } else {
            return err(ln, format!("unexpected top-level line: `{line}`"));
        }
    }
    Ok(module)
}

/// The lines of `text` that hold something, comments stripped and
/// trimmed, each with its 1-based line number.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim()))
        .filter(|(_, l)| !l.is_empty())
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
            if !inner.contains('\\') {
                return Ok(Value::str(inner));
            }
            let unescaped = inner.replace("\\\"", "\"").replace("\\\\", "\\");
            return Ok(Value::str(unescaped));
        }
        return err(ln, "str literal must be quoted");
    }
    err(ln, format!("unknown value `{text}`"))
}

struct FuncCtx<'m> {
    module: &'m Module,
    funcs: &'m HashMap<&'m str, FuncId>,
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

/// Splits `name(r1, r2)` into (`name`, `r1, r2`).
fn parse_call_syntax(text: &str, ln: usize) -> Result<(&str, &str), ParseError> {
    let open = text.find('(').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `(`".into(),
    })?;
    let close = text
        .rfind(')')
        .filter(|&close| close > open)
        .ok_or_else(|| ParseError {
            line: ln,
            message: "missing `)`".into(),
        })?;
    Ok((text[..open].trim(), text[open + 1..close].trim()))
}

/// The registers of a call's argument list `r1, r2`, in a vector of
/// exactly their number.
fn parse_arg_regs(list: &str, ln: usize) -> Result<Vec<Reg>, ParseError> {
    if list.is_empty() {
        return Ok(Vec::new());
    }
    let mut regs = Vec::with_capacity(list.matches(',').count() + 1);
    for arg in list.split(',') {
        regs.push(parse_reg(arg.trim(), ln)?);
    }
    Ok(regs)
}

/// The `N` comma-separated operands of `text`, trimmed, or `None` when it
/// holds another number of them.
fn split_operands<const N: usize>(text: &str) -> Option<[&str; N]> {
    let mut parts = text.split(',').map(str::trim);
    let mut out = [""; N];
    for slot in &mut out {
        *slot = parts.next()?;
    }
    parts.next().is_none().then_some(out)
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

/// The `N` operands of a `dst = <op> <rest>` form, or the error saying
/// how many `op` needs.
fn operands<'t, const N: usize>(
    op: &str,
    rest: &'t str,
    ln: usize,
) -> Result<[&'t str; N], ParseError> {
    let found = if rest.is_empty() {
        None
    } else {
        split_operands(rest)
    };
    found.ok_or_else(|| ParseError {
        line: ln,
        message: format!("`{op}` needs {N} operand(s)"),
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

/// Where a function's blocks and the current block's instructions are
/// gathered while they are parsed. One pair serves every function of a
/// module, so each finished block and function is copied out into a
/// vector of exactly its length, as a clone would allocate it.
#[derive(Default)]
struct Staging {
    blocks: Vec<Block>,
    instrs: Vec<Instr>,
}

/// Moves `staged`'s items into a vector of exactly their number, leaving
/// `staged` empty with its capacity kept.
fn take_exact<T>(staged: &mut Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(staged.len());
    out.append(staged);
    out
}

/// Parses a function body from the line after its header through its
/// closing `}`, leaving `lines` after it.
#[allow(clippy::too_many_lines)]
fn parse_function_body<'t>(
    lines: &mut impl Iterator<Item = (usize, &'t str)>,
    staging: &mut Staging,
    name: String,
    params: u16,
    ctx: &FuncCtx<'_>,
) -> Result<Function, ParseError> {
    let Staging { blocks, instrs } = staging;
    blocks.clear();
    instrs.clear();
    // The open block's id and terminator.
    let mut current: Option<(BlockId, Option<Terminator>)> = None;
    // The first block declared out of order and its position, reported at
    // the closing `}`.
    let mut misplaced: Option<(BlockId, usize)> = None;
    let mut max_reg: i64 = i64::from(params) - 1;
    let mut last_ln = 0;

    let track = |r: Reg, max_reg: &mut i64| {
        *max_reg = (*max_reg).max(i64::from(r.0));
        r
    };
    let mut close_block = |current: &mut Option<(BlockId, Option<Terminator>)>,
                           blocks: &mut Vec<Block>,
                           instrs: &mut Vec<Instr>,
                           ln: usize|
     -> Result<(), ParseError> {
        if let Some((bid, term)) = current.take() {
            if bid.index() != blocks.len() && misplaced.is_none() {
                misplaced = Some((bid, blocks.len()));
            }
            let term = term.ok_or_else(|| ParseError {
                line: ln,
                message: format!("block {bid} missing terminator"),
            })?;
            blocks.push(Block {
                instrs: take_exact(instrs),
                term,
            });
        }
        Ok(())
    };

    for (ln, line) in lines {
        last_ln = ln;
        if line == "}" {
            close_block(&mut current, blocks, instrs, ln)?;
            if blocks.is_empty() {
                return err(ln, "function has no blocks");
            }
            // Blocks must be declared densely in order b0, b1, ...
            if let Some((bid, i)) = misplaced {
                return err(
                    ln,
                    format!("blocks must be declared in order; found {bid} at position {i}"),
                );
            }
            return Ok(Function {
                name,
                params,
                reg_count: u16::try_from(max_reg + 1).map_err(|_| ParseError {
                    line: ln,
                    message: "too many registers".into(),
                })?,
                blocks: take_exact(blocks),
            });
        }
        if let Some(label) = line.strip_suffix(':') {
            close_block(&mut current, blocks, instrs, ln)?;
            current = Some((parse_block_id(label.trim(), ln)?, None));
            continue;
        }
        let (_, term) = current.as_mut().ok_or_else(|| ParseError {
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
            let Some([cond, then_blk, else_blk]) = split_operands(rest) else {
                return err(ln, "br needs `cond, then, else`");
            };
            *term = Some(Terminator::Branch {
                cond: track(parse_reg(cond, ln)?, &mut max_reg),
                then_blk: parse_block_id(then_blk, ln)?,
                else_blk: parse_block_id(else_blk, ln)?,
            });
            continue;
        }

        // Effect-only instructions.
        if let Some(rest) = line.strip_prefix("store ") {
            let Some([global, src]) = split_operands(rest) else {
                return err(ln, "store needs `$global, reg`");
            };
            instrs.push(Instr::StoreGlobal {
                global: ctx.resolve_global(global, ln)?,
                src: track(parse_reg(src, ln)?, &mut max_reg),
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
            let args = parse_arg_regs(args, ln)?;
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
            let Some([bytes, index, value]) = split_operands(rest) else {
                return err(ln, "bset needs `bytes, index, value`");
            };
            instrs.push(Instr::BytesSet {
                bytes: track(parse_reg(bytes, ln)?, &mut max_reg),
                index: track(parse_reg(index, ln)?, &mut max_reg),
                value: track(parse_reg(value, ln)?, &mut max_reg),
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

        let instr = match op {
            "const" => Instr::Const {
                dst,
                value: parse_value(rest, ln)?,
            },
            "mov" => {
                let [src] = operands(op, rest, ln)?;
                Instr::Mov {
                    dst,
                    src: track(parse_reg(src, ln)?, &mut max_reg),
                }
            }
            "load" => {
                let [global] = operands(op, rest, ln)?;
                Instr::LoadGlobal {
                    dst,
                    global: ctx.resolve_global(global, ln)?,
                }
            }
            "call" => {
                let (callee, args) = parse_call_syntax(rest, ln)?;
                let args = parse_arg_regs(args, ln)?;
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
                let args = parse_arg_regs(args, ln)?;
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
                let [len] = operands(op, rest, ln)?;
                Instr::BytesNew {
                    dst,
                    len: track(parse_reg(len, ln)?, &mut max_reg),
                }
            }
            "blen" => {
                let [bytes] = operands(op, rest, ln)?;
                Instr::BytesLen {
                    dst,
                    bytes: track(parse_reg(bytes, ln)?, &mut max_reg),
                }
            }
            "bget" => {
                let [bytes, index] = operands(op, rest, ln)?;
                Instr::BytesGet {
                    dst,
                    bytes: track(parse_reg(bytes, ln)?, &mut max_reg),
                    index: track(parse_reg(index, ln)?, &mut max_reg),
                }
            }
            "bcat" => {
                let [lhs, rhs] = operands(op, rest, ln)?;
                Instr::BytesConcat {
                    dst,
                    lhs: track(parse_reg(lhs, ln)?, &mut max_reg),
                    rhs: track(parse_reg(rhs, ln)?, &mut max_reg),
                }
            }
            "bslice" => {
                let [bytes, start, end] = operands(op, rest, ln)?;
                Instr::BytesSlice {
                    dst,
                    bytes: track(parse_reg(bytes, ln)?, &mut max_reg),
                    start: track(parse_reg(start, ln)?, &mut max_reg),
                    end: track(parse_reg(end, ln)?, &mut max_reg),
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
                    let [lhs, rhs] = operands(op, rest, ln)?;
                    Instr::Bin {
                        op: *bin,
                        dst,
                        lhs: track(parse_reg(lhs, ln)?, &mut max_reg),
                        rhs: track(parse_reg(rhs, ln)?, &mut max_reg),
                    }
                } else if let Some(un) = UnOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
                    let [src] = operands(op, rest, ln)?;
                    Instr::Un {
                        op: *un,
                        dst,
                        src: track(parse_reg(src, ln)?, &mut max_reg),
                    }
                } else {
                    return err(ln, format!("unknown mnemonic `{mnemonic}`"));
                }
            }
        };
        instrs.push(instr);
    }
    err(last_ln, "unterminated function body (missing `}`)")
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

    /// A `)` before the `(` is a missing `)`, not a slice out of order.
    #[test]
    fn close_paren_before_open_is_an_error() {
        let e = parse_module("func @f)(0 {\nb0:\n  ret\n}\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "func header missing `)`"));
        let e = parse_module("func @f(0) {\nb0:\n  r0 = call @f)(\n  ret\n}\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "missing `)`"));
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
