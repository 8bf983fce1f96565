//! The IR interpreter.
//!
//! Execution is parameterized over an [`Env`] that supplies global state,
//! native functions, and — crucially — the semantics of the `raise`
//! instruction. The event runtime in `pdo-events` implements [`Env`] so a
//! synchronous raise recursively dispatches bound handlers; the
//! self-contained [`BasicEnv`] here records raises for inspection, which is
//! what unit tests and the optimizer's equivalence checks need.
//!
//! There is one dispatch loop, `run`: the instructions handlers execute
//! most are arms of its `match`, and results — into a register, into a
//! global — are written in place rather than built and copied (DESIGN.md
//! §17, "The dispatch loop"). The [`Env`] serves that: it hands global
//! cells out by reference ([`Env::global_slot`], [`Env::global_slot_mut`])
//! and a native call the register its result goes to.

use crate::cost::{CostCounter, OpcodeProfile};
use crate::func::{Function, Module};
use crate::ids::{EventId, FuncId, GlobalId, NativeId, Reg};
use crate::instr::{BinOp, EvalError, Instr, RaiseMode, Terminator};
use crate::value::Value;
use std::cell::RefCell;
use std::fmt;

/// Maximum depth of nested IR `call` instructions within one entry call.
pub const MAX_CALL_DEPTH: usize = 256;

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Arithmetic failure (type mismatch, division by zero).
    Eval(EvalError),
    /// A `call` referenced a function id outside the module.
    UnknownFunction(FuncId),
    /// A call passed the wrong number of arguments.
    BadArgCount {
        /// Function that was called.
        func: String,
        /// Parameters the function declares.
        expected: u16,
        /// Arguments the call site passed.
        got: usize,
    },
    /// A branch condition was not a boolean.
    BranchOnNonBool(String),
    /// A bytes instruction received a non-bytes or non-int operand.
    BytesTypeError(&'static str),
    /// Byte index/slice out of bounds.
    OutOfBounds {
        /// Offending index (or slice end).
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// A negative length/index where a non-negative value was required.
    NegativeSize(i64),
    /// A `bslice` whose (non-negative) start lies past its end.
    InvertedRange {
        /// Slice start.
        start: i64,
        /// Slice end.
        end: i64,
    },
    /// The instruction budget was exhausted (guards against non-termination
    /// in generated code).
    OutOfFuel,
    /// Too many nested IR calls.
    DepthExceeded,
    /// A global id outside the environment's global store.
    GlobalOutOfRange(GlobalId),
    /// A native slot with no bound implementation.
    UnboundNative(NativeId),
    /// A native implementation failed.
    Native(String),
    /// The environment rejected a raise (e.g. unknown event).
    Raise(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Eval(e) => write!(f, "{e}"),
            ExecError::UnknownFunction(id) => write!(f, "unknown function {id}"),
            ExecError::BadArgCount {
                func,
                expected,
                got,
            } => write!(
                f,
                "function `{func}` expects {expected} arguments, got {got}"
            ),
            ExecError::BranchOnNonBool(t) => write!(f, "branch condition has type {t}"),
            ExecError::BytesTypeError(op) => write!(f, "type error in bytes operation `{op}`"),
            ExecError::OutOfBounds { index, len } => {
                write!(f, "byte index {index} out of bounds for length {len}")
            }
            ExecError::NegativeSize(n) => write!(f, "negative size or index {n}"),
            ExecError::InvertedRange { start, end } => {
                write!(f, "slice start {start} is past its end {end}")
            }
            ExecError::OutOfFuel => write!(f, "instruction budget exhausted"),
            ExecError::DepthExceeded => write!(f, "call depth exceeded"),
            ExecError::GlobalOutOfRange(g) => write!(f, "global {g} out of range"),
            ExecError::UnboundNative(n) => write!(f, "native slot {n} has no implementation"),
            ExecError::Native(msg) => write!(f, "native call failed: {msg}"),
            ExecError::Raise(msg) => write!(f, "raise failed: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Eval(e)
    }
}

/// The execution environment: global state, natives, raise semantics, and
/// cost accounting.
///
/// Globals are handed out by reference, not by value: a `load` clones from
/// the cell into the register, a `store` clones from the register into the
/// cell, and the fused read-modify-write forms update the cell where it
/// sits. `None` means the id is outside the store; the interpreter turns it
/// into [`ExecError::GlobalOutOfRange`].
pub trait Env {
    /// The global cell `global`, or `None` for an id outside the store.
    fn global_slot(&self, global: GlobalId) -> Option<&Value>;

    /// The global cell `global` for writing, or `None` for an id outside
    /// the store.
    fn global_slot_mut(&mut self, global: GlobalId) -> Option<&mut Value>;

    /// Acquires the state lock guarding `global`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::GlobalOutOfRange`] for unknown globals.
    fn lock(&mut self, global: GlobalId) -> Result<(), ExecError>;

    /// Releases the state lock guarding `global`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::GlobalOutOfRange`] for unknown globals.
    fn unlock(&mut self, global: GlobalId) -> Result<(), ExecError>;

    /// Invokes a native function slot and writes its result into `dst`
    /// (the calling instruction's destination register), which is left as
    /// it was when the call fails.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnboundNative`] for empty slots and
    /// [`ExecError::Native`] when the implementation fails.
    fn call_native(
        &mut self,
        native: NativeId,
        args: &[Value],
        dst: &mut Value,
    ) -> Result<(), ExecError>;

    /// Services a `raise` instruction.
    ///
    /// # Errors
    ///
    /// Implementations return [`ExecError::Raise`] for unknown events or
    /// propagate handler failures.
    fn raise(
        &mut self,
        module: &Module,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
    ) -> Result<(), ExecError>;

    /// The cost counters to charge execution to.
    fn cost(&mut self) -> &mut CostCounter;

    /// Remaining instruction budget, if the environment enforces one.
    /// Implementations returning `Some` have the budget decremented once per
    /// executed instruction; execution fails with [`ExecError::OutOfFuel`]
    /// when it reaches zero.
    fn fuel(&mut self) -> Option<&mut u64> {
        None
    }

    /// The instruction counters to record into, if any.
    ///
    /// [`call`] asks once, on entry: `Some` runs the whole activation —
    /// nested direct calls included — in the dispatch loop's recording
    /// instance, which counts every executed instruction and every fused
    /// one; `None` runs it in the instance with no recording code in it at
    /// all.
    fn opcode_profile(&mut self) -> Option<&mut OpcodeProfile> {
        None
    }
}

/// Arguments a `callnative` or `raise` passes through a buffer on the
/// interpreter's own stack; a longer list spills to the heap.
const INLINE_ARGS: usize = 8;

thread_local! {
    /// Register buffers of finished activations, emptied and waiting for the
    /// next call on this thread: at most one per nesting level reached.
    static FRAME_POOL: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

/// The registers of one activation.
///
/// The buffer is taken *out of* the pool, so the activation owns it: an
/// `env.raise` that re-enters [`call`] takes a different buffer and the two
/// never alias. Dropping the frame — on return, `?`, or unwinding — drops
/// every register before the buffer goes back, so no `Value` outlives its
/// call (a leftover `Arc` clone would turn a later `bytes_mut` into a copy).
struct Frame(Vec<Value>);

impl Frame {
    /// A frame of `reg_count` registers, all reading `Unit`.
    fn new(reg_count: usize) -> Frame {
        let mut regs = FRAME_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        regs.resize(reg_count, Value::Unit);
        Frame(regs)
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        self.0.clear();
        let regs = std::mem::take(&mut self.0);
        // During thread teardown the pool may already be gone; the buffer is
        // then simply freed.
        let _ = FRAME_POOL.try_with(|pool| pool.borrow_mut().push(regs));
    }
}

/// Calls IR function `func` with `args` under environment `env`.
///
/// This is the single entry point the event runtime uses to run handlers.
///
/// # Errors
///
/// Propagates any [`ExecError`] raised during execution.
pub fn call<E: Env + ?Sized>(
    module: &Module,
    env: &mut E,
    func: FuncId,
    args: &[Value],
) -> Result<Value, ExecError> {
    let (f, mut frame) = enter(module, func, args.len(), 0)?;
    frame.0[..args.len()].clone_from_slice(args);
    // Whether instructions are counted is decided here, once, for the whole
    // activation. Nothing that runs inside one can change the answer on the
    // event runtime: `Runtime::set_opcode_profiling` needs `&mut Runtime`,
    // which the activation holds until it returns.
    if env.opcode_profile().is_some() {
        run::<E, true>(module, env, f, frame, 0)
    } else {
        run::<E, false>(module, env, f, frame, 0)
    }
}

/// Checks a call — depth, function id, arity — and returns the callee with
/// a fresh frame whose first `argc` registers the caller fills in.
fn enter(
    module: &Module,
    func: FuncId,
    argc: usize,
    depth: usize,
) -> Result<(&Function, Frame), ExecError> {
    if depth > MAX_CALL_DEPTH {
        return Err(ExecError::DepthExceeded);
    }
    let f = module
        .functions
        .get(func.index())
        .ok_or(ExecError::UnknownFunction(func))?;
    if argc != usize::from(f.params) {
        return Err(ExecError::BadArgCount {
            func: f.name.clone(),
            expected: f.params,
            got: argc,
        });
    }
    Ok((f, Frame::new(usize::from(f.reg_count))))
}

/// The dispatch loop: runs `f`'s body in `frame`, whose parameter registers
/// are already set.
///
/// Everything a handler does often is an arm of this one `match`, written
/// where it runs: the measured `video_play` mix is `lock`+`unlock` 28.8 %,
/// `load` 16.1 %, `bin` 14.4 %, `store` 11.9 %, `const` 8.5 %, `callnative`
/// 6.8 %, `mov` 5.0 %, `raise` 4.2 % (the arms are in that order for the
/// reader; the compiled `match` is a jump table). Integer and boolean
/// results go into the destination through [`Value::clone_from`] /
/// [`BinOp::eval_ints_into`]: the payload alone when the tag already
/// matches. Only the byte operations, `callnative` and `raise` run out of
/// line ([`bytes_native_or_raise`]), which keeps their argument buffers out
/// of this frame — the one direct calls recurse through — and so does
/// `lstore` ([`locked_store`]).
///
/// `PROFILE` is the loop's only mode: [`call`] picks the instance once per
/// activation, so the recording instance pays for recording and the other
/// has no trace of it.
fn run<E: Env + ?Sized, const PROFILE: bool>(
    module: &Module,
    env: &mut E,
    f: &Function,
    mut frame: Frame,
    depth: usize,
) -> Result<Value, ExecError> {
    let regs = frame.0.as_mut_slice();

    let mut block = 0usize;
    loop {
        let b = &f.blocks[block];
        for instr in &b.instrs {
            charge(env)?;
            if PROFILE {
                if let Some(p) = env.opcode_profile() {
                    p.record(instr);
                }
            }
            match instr {
                Instr::Lock { global } => {
                    env.cost().lock_ops += 1;
                    env.lock(*global)?;
                }
                Instr::Unlock { global } => {
                    env.cost().lock_ops += 1;
                    env.unlock(*global)?;
                }
                Instr::LoadGlobal { dst, global } => match env.global_slot(*global) {
                    Some(cell) => regs[dst.index()].clone_from(cell),
                    None => return Err(global_out_of_range(*global)),
                },
                Instr::Bin { op, dst, lhs, rhs } => {
                    let done = match (&regs[lhs.index()], &regs[rhs.index()]) {
                        (&Value::Int(a), &Value::Int(b)) => {
                            op.eval_ints_into(a, b, &mut regs[dst.index()])
                        }
                        _ => false,
                    };
                    if !done {
                        regs[dst.index()] = eval_bin(*op, &regs[lhs.index()], &regs[rhs.index()])?;
                    }
                }
                // Fused Const+Bin. The `charge` above paid for the `Const`
                // constituent; the immediate rides in the instruction, so
                // the fused form skips one dispatch and all constant
                // register traffic.
                Instr::BinImm { op, dst, lhs, imm } => {
                    charge(env)?; // Bin
                    let done = match (&regs[lhs.index()], imm) {
                        (&Value::Int(a), &Value::Int(b)) => {
                            op.eval_ints_into(a, b, &mut regs[dst.index()])
                        }
                        _ => false,
                    };
                    if !done {
                        regs[dst.index()] = eval_bin(*op, &regs[lhs.index()], imm)?;
                    }
                }
                Instr::StoreGlobal { global, src } => match env.global_slot_mut(*global) {
                    Some(cell) => cell.clone_from(&regs[src.index()]),
                    None => return Err(global_out_of_range(*global)),
                },
                Instr::Const { dst, value } => regs[dst.index()].clone_from(value),
                Instr::Mov { dst, src } => match regs[src.index()] {
                    Value::Int(i) => regs[dst.index()].set_int(i),
                    Value::Bool(b) => regs[dst.index()].set_bool(b),
                    ref shared => {
                        let v = shared.clone();
                        regs[dst.index()] = v;
                    }
                },
                Instr::Un { op, dst, src } => {
                    regs[dst.index()] = op.eval(&regs[src.index()])?;
                }
                // Direct calls recurse from this frame. Arguments are cloned
                // straight into the callee's registers.
                Instr::Call { dst, func, args } => {
                    env.cost().calls += 1;
                    let (callee, mut callee_frame) = enter(module, *func, args.len(), depth + 1)?;
                    for (slot, r) in callee_frame.0[..args.len()].iter_mut().zip(args) {
                        *slot = regs[r.index()].clone();
                    }
                    regs[dst.index()] =
                        run::<E, PROFILE>(module, env, callee, callee_frame, depth + 1)?;
                }
                Instr::LockedFoldImm { op, global, imm } => fused(env, |env, m| {
                    locked(env, m, *global, |env, m| {
                        fold(env, m, *op, *global, imm, true)
                    })
                })?,
                Instr::GlobalFoldImm { op, global, imm } => {
                    fused(env, |env, m| fold(env, m, *op, *global, imm, true))?;
                }
                Instr::GlobalFold { op, global, src } => {
                    let rhs = &regs[src.index()];
                    fused(env, |env, m| fold(env, m, *op, *global, rhs, false))?;
                }
                Instr::LockedStore { global, src } => {
                    locked_store(env, *global, &regs[src.index()])?;
                }
                Instr::CallNative { .. }
                | Instr::Raise { .. }
                | Instr::BytesNew { .. }
                | Instr::BytesLen { .. }
                | Instr::BytesGet { .. }
                | Instr::BytesSet { .. }
                | Instr::BytesConcat { .. }
                | Instr::BytesSlice { .. } => bytes_native_or_raise(module, env, regs, instr)?,
            }
        }
        charge(env)?;
        match &b.term {
            Terminator::Jump(t) => block = t.index(),
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = &regs[cond.index()];
                match c {
                    Value::Bool(true) => block = then_blk.index(),
                    Value::Bool(false) => block = else_blk.index(),
                    other => return Err(ExecError::BranchOnNonBool(other.type_name().into())),
                }
            }
            Terminator::Ret(v) => {
                return Ok(match v {
                    Some(r) => std::mem::take(&mut regs[r.index()]),
                    None => Value::Unit,
                });
            }
        }
    }
}

/// `lhs <op> rhs` for everything the loop's `Int × Int` arms decline:
/// `div`/`rem`, `and`/`or`, every other operand kind and every mismatch.
#[inline(never)]
fn eval_bin(op: BinOp, lhs: &Value, rhs: &Value) -> Result<Value, ExecError> {
    Ok(op.eval(lhs, rhs)?)
}

/// `N` argument values in an array of exactly that size.
#[inline]
fn argv<const N: usize>(regs: &[Value], args: &[Reg]) -> [Value; N] {
    std::array::from_fn(|i| regs[args[i].index()].clone())
}

/// Hands `f` the values of `args` as one slice — built, and dropped, as
/// exactly `args.len()` values in a stack buffer up to [`INLINE_ARGS`] of
/// them, in a `Vec` beyond that — and the registers back, for a result.
#[inline]
fn with_argv<R>(
    regs: &mut [Value],
    args: &[Reg],
    f: impl FnOnce(&[Value], &mut [Value]) -> R,
) -> R {
    const _: () = assert!(INLINE_ARGS == 8, "one arm per inline arity below");
    match args.len() {
        0 => f(&[], regs),
        1 => f(&argv::<1>(regs, args), regs),
        2 => f(&argv::<2>(regs, args), regs),
        3 => f(&argv::<3>(regs, args), regs),
        4 => f(&argv::<4>(regs, args), regs),
        5 => f(&argv::<5>(regs, args), regs),
        6 => f(&argv::<6>(regs, args), regs),
        7 => f(&argv::<7>(regs, args), regs),
        8 => f(&argv::<8>(regs, args), regs),
        _ => {
            let spilled: Vec<Value> = args.iter().map(|r| regs[r.index()].clone()).collect();
            f(&spilled, regs)
        }
    }
}

#[inline]
fn charge<E: Env + ?Sized>(env: &mut E) -> Result<(), ExecError> {
    env.cost().instrs += 1;
    if let Some(fuel) = env.fuel() {
        if *fuel == 0 {
            return Err(out_of_fuel());
        }
        *fuel -= 1;
    }
    Ok(())
}

// Error construction lives behind `#[cold]` helpers so the hot dispatch arms
// stay branch-predictable and small.
#[cold]
#[inline(never)]
fn out_of_fuel() -> ExecError {
    ExecError::OutOfFuel
}

#[cold]
#[inline(never)]
fn global_out_of_range(global: GlobalId) -> ExecError {
    ExecError::GlobalOutOfRange(global)
}

#[cold]
#[inline(never)]
fn bytes_type_error(op: &'static str) -> ExecError {
    ExecError::BytesTypeError(op)
}

#[cold]
#[inline(never)]
fn out_of_bounds(index: i64, len: usize) -> ExecError {
    ExecError::OutOfBounds { index, len }
}

#[cold]
#[inline(never)]
fn negative_size(n: i64) -> ExecError {
    ExecError::NegativeSize(n)
}

#[cold]
#[inline(never)]
fn inverted_range(start: i64, end: i64) -> ExecError {
    ExecError::InvertedRange { start, end }
}

fn index_of(v: Option<i64>, len: usize, op: &'static str) -> Result<usize, ExecError> {
    let Some(i) = v else {
        return Err(bytes_type_error(op));
    };
    if i < 0 {
        return Err(negative_size(i));
    }
    let i = i as usize;
    if i >= len {
        return Err(out_of_bounds(i as i64, len));
    }
    Ok(i)
}

/// The instructions the dispatch loop does not run in line: the six byte
/// operations, `callnative` and `raise`. They allocate, call out of the
/// interpreter or both, so a call here is noise to them, and their
/// temporaries (argument buffers above all) stay off the loop's frame.
#[inline(never)]
fn bytes_native_or_raise<E: Env + ?Sized>(
    module: &Module,
    env: &mut E,
    regs: &mut [Value],
    instr: &Instr,
) -> Result<(), ExecError> {
    match instr {
        Instr::CallNative { dst, native, args } => {
            env.cost().native_calls += 1;
            // The argument values are copies, so the result can land in
            // `dst` while they are still alive (`dst` may be an argument).
            with_argv(regs, args, |argv, regs| {
                env.call_native(*native, argv, &mut regs[dst.index()])
            })?;
        }
        Instr::Raise { event, mode, args } => {
            match mode {
                RaiseMode::Sync => env.cost().raises_sync += 1,
                RaiseMode::Async | RaiseMode::Timed => env.cost().raises_async += 1,
            }
            with_argv(regs, args, |argv, _| env.raise(module, *event, *mode, argv))?;
        }
        Instr::BytesNew { dst, len } => {
            let n = regs[len.index()]
                .as_int()
                .ok_or_else(|| bytes_type_error("bnew"))?;
            if n < 0 {
                return Err(negative_size(n));
            }
            regs[dst.index()] = Value::bytes_with(n as usize, |_| {});
        }
        Instr::BytesLen { dst, bytes } => {
            let b = regs[bytes.index()]
                .as_bytes()
                .ok_or_else(|| bytes_type_error("blen"))?;
            let n = b.len() as i64;
            regs[dst.index()].set_int(n);
        }
        Instr::BytesGet { dst, bytes, index } => {
            let b = regs[bytes.index()]
                .as_bytes()
                .ok_or_else(|| bytes_type_error("bget"))?;
            let i = index_of(regs[index.index()].as_int(), b.len(), "bget")?;
            let byte = i64::from(b[i]);
            regs[dst.index()].set_int(byte);
        }
        Instr::BytesSet {
            bytes,
            index,
            value,
        } => {
            let v = regs[value.index()]
                .as_int()
                .ok_or_else(|| bytes_type_error("bset"))?;
            let idx = regs[index.index()].as_int();
            let buf = regs[bytes.index()]
                .bytes_mut()
                .ok_or_else(|| bytes_type_error("bset"))?;
            let i = index_of(idx, buf.len(), "bset")?;
            buf[i] = v as u8;
        }
        Instr::BytesConcat { dst, lhs, rhs } => {
            let a = regs[lhs.index()]
                .as_bytes()
                .ok_or_else(|| bytes_type_error("bcat"))?;
            let b = regs[rhs.index()]
                .as_bytes()
                .ok_or_else(|| bytes_type_error("bcat"))?;
            regs[dst.index()] = Value::bytes_with(a.len() + b.len(), |out| {
                let (head, tail) = out.split_at_mut(a.len());
                head.copy_from_slice(a);
                tail.copy_from_slice(b);
            });
        }
        Instr::BytesSlice {
            dst,
            bytes,
            start,
            end,
        } => {
            let b = regs[bytes.index()]
                .as_bytes()
                .ok_or_else(|| bytes_type_error("bslice"))?;
            let s = regs[start.index()]
                .as_int()
                .ok_or_else(|| bytes_type_error("bslice"))?;
            let e = regs[end.index()]
                .as_int()
                .ok_or_else(|| bytes_type_error("bslice"))?;
            if s < 0 || e < 0 {
                return Err(negative_size(s.min(e)));
            }
            if e < s {
                return Err(inverted_range(s, e));
            }
            if e as usize > b.len() {
                return Err(out_of_bounds(e, b.len()));
            }
            // The whole buffer is the same value: share the block (a later
            // `bset` through either register copies first, so it cannot be
            // told from a copy). A fragmenter slicing a message that fits
            // one segment takes this arm every time.
            regs[dst.index()] = if s == 0 && e as usize == b.len() {
                regs[bytes.index()].clone()
            } else {
                Value::bytes(&b[s as usize..e as usize])
            };
        }
        _ => unreachable!("the dispatch loop runs every other instruction itself"),
    }
    Ok(())
}

/// Runs one of the four fused global forms (`lfold.i`, `gfold.i`, `gfold`,
/// `lstore`): `body` is its constituents after the first, which the loop's
/// `charge` paid for. `body` runs them in program order and starts each
/// only if the fuel read on entering here allows it ([`Meter::admit`]), so
/// exhaustion and faults land on the same constituent, with the same
/// partial effects, as in the unfused sequence (a budget that dies inside
/// `lfold.i` leaves the lock held, as the unfused program would). The
/// [`Meter`] counts them in a local, and they are charged in one add on
/// every exit.
#[inline]
fn fused<E: Env + ?Sized>(
    env: &mut E,
    body: impl FnOnce(&mut E, &mut Meter) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let budget = env.fuel().map_or(u64::MAX, |fuel| *fuel);
    let m = &mut Meter { started: 0, budget };
    // Settled on each exit apart: a result held across the settling would
    // be built on the stack and copied out.
    if let Err(e) = body(env, m) {
        m.settle(env);
        return Err(e);
    }
    m.settle(env);
    Ok(())
}

/// The constituents a superinstruction has started after its first,
/// counted against the fuel left on entering it (`u64::MAX` for none).
struct Meter {
    started: u64,
    budget: u64,
}

impl Meter {
    /// Starts the next constituent, or refuses it for fuel: a refused one
    /// still counts one instruction and takes no fuel, as [`charge`] does.
    #[inline(always)]
    fn admit(&mut self) -> Result<(), ExecError> {
        self.started += 1;
        if self.started > self.budget {
            return Err(out_of_fuel());
        }
        Ok(())
    }

    /// True when the next [`Meter::admit`] will be refused.
    #[inline(always)]
    fn exhausted(&self) -> bool {
        self.started >= self.budget
    }

    /// Charges the started constituents to `cost.instrs` and the fuel.
    #[inline(always)]
    fn settle<E: Env + ?Sized>(&self, env: &mut E) {
        env.cost().instrs += self.started;
        if let Some(fuel) = env.fuel() {
            *fuel = fuel.saturating_sub(self.started);
        }
    }
}

/// `Lock`, `body`, `Unlock`: the bracket of `lfold.i` and `lstore`. The
/// `Lock` is the first constituent; `body` is metered from its own first.
#[inline(always)]
fn locked<E: Env + ?Sized>(
    env: &mut E,
    meter: &mut Meter,
    global: GlobalId,
    body: impl FnOnce(&mut E, &mut Meter) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    env.cost().lock_ops += 1;
    env.lock(global)?;
    meter.admit()?;
    body(env, meter)?;
    meter.admit()?; // Unlock
    env.cost().lock_ops += 1;
    env.unlock(global)
}

/// `LoadGlobal`, `Const` (when `imm`), `Bin`, `StoreGlobal` after a started
/// `LoadGlobal`: `global = global <op> rhs`, the cell updated where it sits
/// once the `StoreGlobal` is known to start. A budget that dies between the
/// `Bin` and the `StoreGlobal` evaluates without writing.
#[inline(always)]
fn fold<E: Env + ?Sized>(
    env: &mut E,
    meter: &mut Meter,
    op: BinOp,
    global: GlobalId,
    rhs: &Value,
    imm: bool,
) -> Result<(), ExecError> {
    let Some(cell) = env.global_slot_mut(global) else {
        return Err(global_out_of_range(global));
    };
    if imm {
        meter.admit()?; // Const
    }
    meter.admit()?; // Bin
    if meter.exhausted() {
        eval_bin(op, cell, rhs)?;
    } else {
        let done = match (&*cell, rhs) {
            (&Value::Int(a), &Value::Int(b)) => op.eval_ints_into(a, b, cell),
            _ => false,
        };
        if !done {
            *cell = eval_bin(op, cell, rhs)?;
        }
    }
    meter.admit() // StoreGlobal
}

/// `lstore`: `Lock`, `StoreGlobal`, `Unlock`. Out of line: inlined, its
/// bracket shifted [`run`]'s layout so that `interp_gate`'s
/// `bin_add_over_mov` row crossed its gate in about one run of six
/// (EXPERIMENTS.md "One path per superinstruction").
#[inline(never)]
fn locked_store<E: Env + ?Sized>(
    env: &mut E,
    global: GlobalId,
    src: &Value,
) -> Result<(), ExecError> {
    fused(env, |env, m| {
        locked(env, m, global, |env, _| {
            let Some(cell) = env.global_slot_mut(global) else {
                return Err(global_out_of_range(global));
            };
            cell.clone_from(src);
            Ok(())
        })
    })
}

/// A boxed native implementation.
pub type NativeFn = Box<dyn FnMut(&[Value]) -> Result<Value, String> + Send>;

/// A self-contained [`Env`] for tests and standalone execution.
///
/// Globals are initialized from the module's declarations; raises are
/// *recorded* (not dispatched) in [`BasicEnv::raised`] so callers can assert
/// on them; locks are counted for balance checking.
pub struct BasicEnv {
    globals: Vec<Value>,
    lock_depths: Vec<u32>,
    natives: Vec<Option<NativeFn>>,
    /// Every raise executed, in order.
    pub raised: Vec<(EventId, RaiseMode, Vec<Value>)>,
    /// Cost counters charged by the interpreter.
    pub cost: CostCounter,
    /// Optional instruction budget.
    pub fuel: Option<u64>,
    /// Optional instruction counters (`None` = profiling off).
    pub profile: Option<Box<OpcodeProfile>>,
}

impl fmt::Debug for BasicEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BasicEnv")
            .field("globals", &self.globals)
            .field("raised", &self.raised.len())
            .field("cost", &self.cost)
            .finish()
    }
}

impl BasicEnv {
    /// Creates an environment whose globals mirror `module`'s declarations
    /// and whose native slots are all unbound.
    pub fn new(module: &Module) -> Self {
        BasicEnv {
            globals: module.globals.iter().map(|g| g.init.clone()).collect(),
            lock_depths: vec![0; module.globals.len()],
            natives: module.natives.iter().map(|_| None).collect(),
            raised: Vec::new(),
            cost: CostCounter::new(),
            fuel: None,
            profile: None,
        }
    }

    /// Turns instruction counting on (fresh counters).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::new(OpcodeProfile::default()));
    }

    /// Binds a native implementation to a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot id is out of range for the module this environment
    /// was built from.
    pub fn bind_native(
        &mut self,
        native: NativeId,
        f: impl FnMut(&[Value]) -> Result<Value, String> + Send + 'static,
    ) {
        self.natives[native.index()] = Some(Box::new(f));
    }

    /// Current value of a global.
    pub fn global(&self, g: GlobalId) -> &Value {
        &self.globals[g.index()]
    }

    /// Overwrites a global (test setup).
    pub fn set_global(&mut self, g: GlobalId, v: Value) {
        self.globals[g.index()] = v;
    }

    /// True when every lock acquired has been released.
    pub fn locks_balanced(&self) -> bool {
        self.lock_depths.iter().all(|&d| d == 0)
    }
}

impl Env for BasicEnv {
    fn global_slot(&self, global: GlobalId) -> Option<&Value> {
        self.globals.get(global.index())
    }

    fn global_slot_mut(&mut self, global: GlobalId) -> Option<&mut Value> {
        self.globals.get_mut(global.index())
    }

    fn lock(&mut self, global: GlobalId) -> Result<(), ExecError> {
        match self.lock_depths.get_mut(global.index()) {
            Some(d) => {
                *d += 1;
                Ok(())
            }
            None => Err(ExecError::GlobalOutOfRange(global)),
        }
    }

    fn unlock(&mut self, global: GlobalId) -> Result<(), ExecError> {
        match self.lock_depths.get_mut(global.index()) {
            Some(d) => {
                *d = d.saturating_sub(1);
                Ok(())
            }
            None => Err(ExecError::GlobalOutOfRange(global)),
        }
    }

    fn call_native(
        &mut self,
        native: NativeId,
        args: &[Value],
        dst: &mut Value,
    ) -> Result<(), ExecError> {
        match self.natives.get_mut(native.index()) {
            Some(Some(f)) => {
                *dst = f(args).map_err(ExecError::Native)?;
                Ok(())
            }
            Some(None) | None => Err(ExecError::UnboundNative(native)),
        }
    }

    fn raise(
        &mut self,
        _module: &Module,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
    ) -> Result<(), ExecError> {
        self.raised.push((event, mode, args.to_vec()));
        Ok(())
    }

    fn cost(&mut self) -> &mut CostCounter {
        &mut self.cost
    }

    fn fuel(&mut self) -> Option<&mut u64> {
        self.fuel.as_mut()
    }

    fn opcode_profile(&mut self) -> Option<&mut OpcodeProfile> {
        self.profile.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::BinOp;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn run(module: &Module, name: &str, args: &[Value]) -> Result<Value, ExecError> {
        let mut env = BasicEnv::new(module);
        let f = module.function_by_name(name).unwrap();
        call(module, &mut env, f, args)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 2);
        let s = b.bin(BinOp::Add, b.param(0), b.param(1));
        let two = b.const_int(2);
        let p = b.bin(BinOp::Mul, s, two);
        b.ret(Some(p));
        m.add_function(b.finish());
        assert_eq!(
            run(&m, "f", &[Value::Int(3), Value::Int(4)]).unwrap(),
            Value::Int(14)
        );
    }

    #[test]
    fn branch_and_loop() {
        // sum 0..n via a loop.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("sum", 1);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let acc = b.const_int(0);
        let i = b.const_int(0);
        b.jump(head);

        b.switch_to(head);
        let done = b.bin(BinOp::Ge, i, b.param(0));
        b.branch(done, exit, body);

        b.switch_to(body);
        let acc2 = b.bin(BinOp::Add, acc, i);
        b.push(Instr::Mov {
            dst: acc,
            src: acc2,
        });
        let one = b.const_int(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.push(Instr::Mov { dst: i, src: i2 });
        b.jump(head);

        b.switch_to(exit);
        b.ret(Some(acc));
        m.add_function(b.finish());

        assert_eq!(run(&m, "sum", &[Value::Int(5)]).unwrap(), Value::Int(10));
        assert_eq!(run(&m, "sum", &[Value::Int(0)]).unwrap(), Value::Int(0));
    }

    #[test]
    fn globals_persist_within_env() {
        let mut m = Module::new();
        let g = m.add_global("acc", Value::Int(100));
        let mut b = FunctionBuilder::new("bump", 0);
        b.lock(g);
        let v = b.load_global(g);
        let one = b.const_int(1);
        let v2 = b.bin(BinOp::Add, v, one);
        b.store_global(g, v2);
        b.unlock(g);
        b.ret(Some(v2));
        let f = m.add_function(b.finish());

        let mut env = BasicEnv::new(&m);
        assert_eq!(call(&m, &mut env, f, &[]).unwrap(), Value::Int(101));
        assert_eq!(call(&m, &mut env, f, &[]).unwrap(), Value::Int(102));
        assert_eq!(env.global(g), &Value::Int(102));
        assert!(env.locks_balanced());
        assert_eq!(env.cost.lock_ops, 4);
    }

    #[test]
    fn nested_direct_calls() {
        let mut m = Module::new();
        let mut inner = FunctionBuilder::new("inner", 1);
        let one = inner.const_int(1);
        let r = inner.bin(BinOp::Add, inner.param(0), one);
        inner.ret(Some(r));
        let inner_id = m.add_function(inner.finish());

        let mut outer = FunctionBuilder::new("outer", 1);
        let c1 = outer.call(inner_id, &[outer.param(0)]);
        let c2 = outer.call(inner_id, &[c1]);
        outer.ret(Some(c2));
        m.add_function(outer.finish());

        assert_eq!(run(&m, "outer", &[Value::Int(10)]).unwrap(), Value::Int(12));
    }

    #[test]
    fn raise_recorded_by_basic_env() {
        let mut m = Module::new();
        let e = m.add_event("Ping");
        let mut b = FunctionBuilder::new("f", 1);
        b.raise(e, RaiseMode::Sync, &[b.param(0)]);
        b.raise(e, RaiseMode::Async, &[]);
        b.ret(None);
        let f = m.add_function(b.finish());

        let mut env = BasicEnv::new(&m);
        call(&m, &mut env, f, &[Value::Int(7)]).unwrap();
        assert_eq!(env.raised.len(), 2);
        assert_eq!(env.raised[0], (e, RaiseMode::Sync, vec![Value::Int(7)]));
        assert_eq!(env.raised[1], (e, RaiseMode::Async, vec![]));
        assert_eq!(env.cost.raises_sync, 1);
        assert_eq!(env.cost.raises_async, 1);
    }

    #[test]
    fn native_calls() {
        let mut m = Module::new();
        let n = m.add_native("triple");
        let mut b = FunctionBuilder::new("f", 1);
        let r = b.call_native(n, &[b.param(0)]);
        b.ret(Some(r));
        let f = m.add_function(b.finish());

        let mut env = BasicEnv::new(&m);
        env.bind_native(n, |args| {
            Ok(Value::Int(args[0].as_int().ok_or("not int")? * 3))
        });
        assert_eq!(
            call(&m, &mut env, f, &[Value::Int(4)]).unwrap(),
            Value::Int(12)
        );

        let mut unbound = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut unbound, f, &[Value::Int(4)]),
            Err(ExecError::UnboundNative(n))
        );
    }

    #[test]
    fn bytes_operations() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        let four = b.const_int(4);
        let buf = b.bytes_new(four);
        let zero = b.const_int(0);
        let val = b.const_int(0xAB);
        b.bytes_set(buf, zero, val);
        let got = b.bytes_get(buf, zero);
        let len = b.bytes_len(buf);
        let sum = b.bin(BinOp::Add, got, len);
        b.ret(Some(sum));
        m.add_function(b.finish());
        assert_eq!(run(&m, "f", &[]).unwrap(), Value::Int(0xAB + 4));
    }

    #[test]
    fn bytes_concat_and_slice() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 2);
        let cat = b.bytes_concat(b.param(0), b.param(1));
        let one = b.const_int(1);
        let three = b.const_int(3);
        let mid = b.bytes_slice(cat, one, three);
        b.ret(Some(mid));
        m.add_function(b.finish());
        let r = run(
            &m,
            "f",
            &[Value::bytes(vec![1, 2]), Value::bytes(vec![3, 4])],
        )
        .unwrap();
        assert_eq!(r, Value::bytes(vec![2, 3]));
    }

    #[test]
    fn whole_buffer_bslice_shares_and_still_copies_on_write() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("slice", 3);
        let sl = b.bytes_slice(b.param(0), b.param(1), b.param(2));
        b.ret(Some(sl));
        m.add_function(b.finish());
        // Slice the whole of `buf`, write through one of the two values,
        // return the other.
        for (name, write_slice) in [("poke_slice", true), ("poke_source", false)] {
            let mut b = FunctionBuilder::new(name, 1);
            let zero = b.const_int(0);
            let nine = b.const_int(9);
            let len = b.bytes_len(b.param(0));
            let whole = b.bytes_slice(b.param(0), zero, len);
            let (written, kept) = if write_slice {
                (whole, b.param(0))
            } else {
                (b.param(0), whole)
            };
            b.bytes_set(written, zero, nine);
            b.ret(Some(kept));
            m.add_function(b.finish());
        }

        let payload: Arc<[u8]> = Arc::from([1u8, 2, 3]);
        let arg = Value::Bytes(Arc::clone(&payload));
        let slice = |s, e| run(&m, "slice", &[arg.clone(), Value::Int(s), Value::Int(e)]);
        let Ok(Value::Bytes(whole)) = slice(0, 3) else {
            panic!("bslice [0, len) returns bytes");
        };
        assert!(Arc::ptr_eq(&whole, &payload), "the whole buffer is shared");
        for name in ["poke_slice", "poke_source"] {
            let kept = run(&m, name, std::slice::from_ref(&arg));
            assert_eq!(kept, Ok(Value::bytes([1u8, 2, 3])), "{name}");
        }
        assert_eq!(&payload[..], [1, 2, 3], "the caller's block is untouched");

        // Everything but the whole buffer is what it always was.
        assert_eq!(slice(1, 3), Ok(Value::bytes([2u8, 3])));
        assert_eq!(slice(0, 2), Ok(Value::bytes([1u8, 2])));
        assert_eq!(slice(2, 2), Ok(Value::bytes([])));
        assert_eq!(
            slice(3, 1),
            Err(ExecError::InvertedRange { start: 3, end: 1 })
        );
        assert_eq!(
            slice(0, 4),
            Err(ExecError::OutOfBounds { index: 4, len: 3 })
        );
        assert_eq!(slice(-1, 3), Err(ExecError::NegativeSize(-1)));
        let empty = [Value::bytes([]), Value::Int(0), Value::Int(0)];
        assert_eq!(run(&m, "slice", &empty), Ok(Value::bytes([])));
    }

    #[test]
    fn bytes_out_of_bounds_faults() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 1);
        let two = b.const_int(2);
        let buf = b.bytes_new(two);
        let _ = b.bytes_get(buf, b.param(0));
        b.ret(None);
        m.add_function(b.finish());
        assert_eq!(
            run(&m, "f", &[Value::Int(5)]),
            Err(ExecError::OutOfBounds { index: 5, len: 2 })
        );
        assert_eq!(
            run(&m, "f", &[Value::Int(-1)]),
            Err(ExecError::NegativeSize(-1))
        );
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("spin", 0);
        b.jump(BlockId(0));
        m.add_function(b.finish());
        let f = m.function_by_name("spin").unwrap();
        let mut env = BasicEnv::new(&m);
        env.fuel = Some(1000);
        assert_eq!(call(&m, &mut env, f, &[]), Err(ExecError::OutOfFuel));
    }

    use crate::ids::BlockId;

    #[test]
    fn arg_count_checked() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 2);
        b.ret(None);
        let f = m.add_function(b.finish());
        let mut env = BasicEnv::new(&m);
        let err = call(&m, &mut env, f, &[Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::BadArgCount {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn branch_on_non_bool_faults() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.branch(b.param(0), t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            run(&m, "f", &[Value::Int(1)]),
            Err(ExecError::BranchOnNonBool(_))
        ));
    }

    #[test]
    fn recursion_depth_limited() {
        let mut m = Module::new();
        // Reserve id 0 for the recursive function we are about to add.
        let mut b = FunctionBuilder::new("rec", 0);
        let r = b.call(FuncId(0), &[]);
        b.ret(Some(r));
        let f = m.add_function(b.finish());
        let mut env = BasicEnv::new(&m);
        assert_eq!(call(&m, &mut env, f, &[]), Err(ExecError::DepthExceeded));
    }

    #[test]
    fn bslice_reports_negative_and_inverted_ranges_apart() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 2);
        let eight = b.const_int(8);
        let buf = b.bytes_new(eight);
        let _ = b.bytes_slice(buf, b.param(0), b.param(1));
        b.ret(None);
        m.add_function(b.finish());
        let slice = |s, e| run(&m, "f", &[Value::Int(s), Value::Int(e)]);
        assert_eq!(
            slice(5, 3),
            Err(ExecError::InvertedRange { start: 5, end: 3 })
        );
        assert_eq!(
            slice(5, 3).unwrap_err().to_string(),
            "slice start 5 is past its end 3"
        );
        assert_eq!(slice(-2, 3), Err(ExecError::NegativeSize(-2)));
        assert_eq!(slice(2, -3), Err(ExecError::NegativeSize(-3)));
        assert_eq!(slice(3, 3), Ok(Value::Unit));
    }

    /// `f` with no parameters, `regs` registers, returning its last
    /// register without ever writing it.
    fn add_peek(m: &mut Module, regs: u16) -> FuncId {
        let mut b = FunctionBuilder::new("peek", 0);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.functions[f.index()].reg_count = regs;
        m.functions[f.index()].blocks[0].term = Terminator::Ret(Some(Reg(regs - 1)));
        f
    }

    #[test]
    fn fresh_registers_read_unit_in_a_reused_frame() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("fill", 1);
        let mut last = b.param(0);
        for _ in 0..12 {
            last = b.mov(last);
        }
        b.ret(Some(last));
        let fill = m.add_function(b.finish());
        let peek = add_peek(&mut m, 12);

        let mut env = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut env, fill, &[Value::Int(7)]),
            Ok(Value::Int(7))
        );
        // Same thread, same nesting level: `peek` runs in the buffer `fill`
        // just left.
        assert_eq!(call(&m, &mut env, peek, &[]), Ok(Value::Unit));
    }

    #[test]
    fn no_register_outlives_its_call() {
        let mut m = Module::new();
        let n = m.add_native("len");
        // hold(b, d): copies `b` around, passes it to a native and to a
        // callee, then divides by `d` (a trap when d == 0).
        let mut inner = FunctionBuilder::new("inner", 1);
        let c = inner.mov(inner.param(0));
        inner.ret(Some(c));
        let inner_id = m.add_function(inner.finish());
        let mut b = FunctionBuilder::new("hold", 2);
        let c1 = b.mov(b.param(0));
        let c2 = b.mov(c1);
        let len = b.call_native(n, &[c2]);
        let _ = b.call(inner_id, &[c1]);
        let q = b.bin(BinOp::Div, len, b.param(1));
        b.ret(Some(q));
        let hold = m.add_function(b.finish());
        // rec(b): passes `b` down until the depth limit trips.
        let rec_id = FuncId(m.functions.len() as u32);
        let mut r = FunctionBuilder::new("rec", 1);
        let keep = r.mov(r.param(0));
        let v = r.call(rec_id, &[keep]);
        r.ret(Some(v));
        assert_eq!(m.add_function(r.finish()), rec_id);

        let payload: Arc<[u8]> = Arc::from([1u8, 2, 3]);
        let arg = Value::Bytes(Arc::clone(&payload));
        let before = Arc::strong_count(&payload);
        let mut env = BasicEnv::new(&m);
        env.bind_native(n, |args| {
            Ok(Value::Int(
                args[0].as_bytes().ok_or("not bytes")?.len() as i64
            ))
        });

        let ok = call(&m, &mut env, hold, &[arg.clone(), Value::Int(1)]);
        assert_eq!(ok, Ok(Value::Int(3)));
        assert_eq!(Arc::strong_count(&payload), before, "after Ok");

        let trap = call(&m, &mut env, hold, &[arg.clone(), Value::Int(0)]);
        assert_eq!(trap, Err(ExecError::Eval(EvalError::DivisionByZero)));
        assert_eq!(Arc::strong_count(&payload), before, "after a trap");

        // Enough fuel to make the copies and enter the callee, not to finish.
        env.fuel = Some(5);
        let starved = call(&m, &mut env, hold, &[arg.clone(), Value::Int(1)]);
        assert_eq!(starved, Err(ExecError::OutOfFuel));
        assert_eq!(Arc::strong_count(&payload), before, "after OutOfFuel");
        env.fuel = None;

        let deep = call(&m, &mut env, rec_id, std::slice::from_ref(&arg));
        assert_eq!(deep, Err(ExecError::DepthExceeded));
        assert_eq!(Arc::strong_count(&payload), before, "after DepthExceeded");
    }

    #[test]
    fn arity_above_the_inline_buffer_spills_and_agrees() {
        const WIDE: u16 = INLINE_ARGS as u16 + 4;
        let mut m = Module::new();
        let sum = m.add_native("sum");
        let e = m.add_event("E");
        // add_all(p0..pk) = p0 + .. + pk, at both widths.
        let mut add_all = |k: u16| {
            let mut b = FunctionBuilder::new(format!("add{k}"), k);
            let mut acc = b.param(0);
            for i in 1..k {
                acc = b.bin(BinOp::Add, acc, b.param(i));
            }
            b.ret(Some(acc));
            m.add_function(b.finish())
        };
        let (add3, add_wide) = (add_all(3), add_all(WIDE));
        // f(a, b, c): a call, a native and a raise of `width` arguments,
        // the ones past the third all zero.
        let mut caller = |width: u16, callee: FuncId| {
            let mut b = FunctionBuilder::new(format!("f{width}"), 3);
            let mut args = vec![b.param(0), b.param(1), b.param(2)];
            let zero = b.const_int(0);
            args.resize(usize::from(width), zero);
            let called = b.call(callee, &args);
            let native = b.call_native(sum, &args);
            b.raise(e, RaiseMode::Sync, &args);
            let both = b.bin(BinOp::Mul, called, native);
            b.ret(Some(both));
            m.add_function(b.finish())
        };
        let (small, wide) = (caller(3, add3), caller(WIDE, add_wide));

        let mut env = BasicEnv::new(&m);
        env.bind_native(sum, |args| {
            Ok(Value::Int(args.iter().filter_map(Value::as_int).sum()))
        });
        let abc = [Value::Int(2), Value::Int(3), Value::Int(5)];
        let r_small = call(&m, &mut env, small, &abc).unwrap();
        let r_wide = call(&m, &mut env, wide, &abc).unwrap();
        assert_eq!(r_small, Value::Int(100));
        assert_eq!(r_wide, r_small);
        let (raised_small, raised_wide) = (&env.raised[0].2, &env.raised[1].2);
        assert_eq!(raised_small.as_slice(), &abc);
        assert_eq!(raised_wide.len(), usize::from(WIDE));
        assert_eq!(&raised_wide[..3], &abc);
        assert!(raised_wide[3..].iter().all(|v| v == &Value::Int(0)));
    }

    #[test]
    fn frame_survives_a_panicking_native() {
        let mut m = Module::new();
        let boom = m.add_native("boom");
        let mut b = FunctionBuilder::new("f", 1);
        let mut last = b.param(0);
        for _ in 0..6 {
            last = b.mov(last);
        }
        let r = b.call_native(boom, &[last]);
        b.ret(Some(r));
        let f = m.add_function(b.finish());
        let peek = add_peek(&mut m, 6);

        let payload: Arc<[u8]> = Arc::from([9u8; 4]);
        let arg = Value::Bytes(Arc::clone(&payload));
        let mut env = BasicEnv::new(&m);
        env.bind_native(boom, |_| panic!("native blew up"));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            call(&m, &mut env, f, std::slice::from_ref(&arg))
        }));
        assert!(unwound.is_err());
        // Unwinding dropped the registers and the inline argv...
        assert_eq!(Arc::strong_count(&payload), 2);
        // ...and the next calls on this thread see clean frames.
        assert_eq!(call(&m, &mut env, peek, &[]), Ok(Value::Unit));
        env.bind_native(boom, |args| Ok(args[0].clone()));
        assert_eq!(call(&m, &mut env, f, std::slice::from_ref(&arg)), Ok(arg));
    }

    #[test]
    fn instruction_cost_charged() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        let _ = b.const_int(1);
        let _ = b.const_int(2);
        b.ret(None);
        let f = m.add_function(b.finish());
        let mut env = BasicEnv::new(&m);
        call(&m, &mut env, f, &[]).unwrap();
        // 2 consts + 1 terminator.
        assert_eq!(env.cost.instrs, 3);
    }

    use crate::ids::{GlobalId as G, Reg};

    /// The unfused locked counter bump and its module-level twin with every
    /// body replaced by one `LockedFoldImm`.
    fn bump_modules() -> (Module, Module, FuncId) {
        let mut m = Module::new();
        let g = m.add_global("acc", Value::Int(0));
        let mut b = FunctionBuilder::new("bump", 0);
        b.lock(g);
        let v = b.load_global(g);
        let k = b.const_int(3);
        let s = b.bin(BinOp::Add, v, k);
        b.store_global(g, s);
        b.unlock(g);
        b.ret(None);
        let f = m.add_function(b.finish());

        let mut fused = m.clone();
        fused.functions[f.index()].blocks[0].instrs = vec![Instr::LockedFoldImm {
            op: BinOp::Add,
            global: g,
            imm: Value::Int(3),
        }];
        (m, fused, f)
    }

    #[test]
    fn fused_cost_equals_sum_of_constituents() {
        // Satellite: fuel/budget semantics are unchanged by fusion. The
        // fused run must charge exactly the same instrs and lock_ops as the
        // six-instruction sequence it replaces.
        let (plain, fused, f) = bump_modules();
        let mut e1 = BasicEnv::new(&plain);
        call(&plain, &mut e1, f, &[]).unwrap();
        let mut e2 = BasicEnv::new(&fused);
        call(&fused, &mut e2, f, &[]).unwrap();
        assert_eq!(e1.cost, e2.cost);
        assert_eq!(e1.cost.instrs, 7); // 6 instrs + terminator
        assert_eq!(e1.cost.lock_ops, 2);
        assert_eq!(e1.global(G(0)), e2.global(G(0)));
        assert_eq!(
            Instr::LockedFoldImm {
                op: BinOp::Add,
                global: G(0),
                imm: Value::Int(3)
            }
            .charge_units(),
            6
        );
    }

    #[test]
    fn fused_fuel_exhaustion_matches_unfused() {
        // Run both forms at every fuel level and require identical outcomes
        // AND identical partial effects (lock depth, global value).
        let (plain, fused, f) = bump_modules();
        for fuel in 0..10u64 {
            let mut e1 = BasicEnv::new(&plain);
            e1.fuel = Some(fuel);
            let r1 = call(&plain, &mut e1, f, &[]);
            let mut e2 = BasicEnv::new(&fused);
            e2.fuel = Some(fuel);
            let r2 = call(&fused, &mut e2, f, &[]);
            assert_eq!(r1, r2, "fuel={fuel}");
            assert_eq!(e1.cost, e2.cost, "fuel={fuel}");
            assert_eq!(e1.global(G(0)), e2.global(G(0)), "fuel={fuel}");
            assert_eq!(e1.locks_balanced(), e2.locks_balanced(), "fuel={fuel}");
        }
    }

    #[test]
    fn bin_imm_semantics_and_faults() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 1);
        b.ret(Some(b.param(0)));
        let f = m.add_function(b.finish());
        m.functions[f.index()].reg_count = 2;
        m.functions[f.index()].blocks[0].instrs = vec![Instr::BinImm {
            op: BinOp::Div,
            dst: Reg(1),
            lhs: Reg(0),
            imm: Value::Int(2),
        }];
        m.functions[f.index()].blocks[0].term = Terminator::Ret(Some(Reg(1)));
        let mut env = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut env, f, &[Value::Int(9)]).unwrap(),
            Value::Int(4)
        );
        // instrs: fused BinImm charges 2 (Const + Bin) + terminator.
        assert_eq!(env.cost.instrs, 3);

        // Faults surface exactly like the unfused Bin.
        m.functions[f.index()].blocks[0].instrs = vec![Instr::BinImm {
            op: BinOp::Div,
            dst: Reg(1),
            lhs: Reg(0),
            imm: Value::Int(0),
        }];
        let mut env = BasicEnv::new(&m);
        assert_eq!(
            call(&m, &mut env, f, &[Value::Int(9)]),
            Err(ExecError::Eval(EvalError::DivisionByZero))
        );
    }

    #[test]
    fn global_fold_variants_semantics() {
        let mut m = Module::new();
        let g = m.add_global("acc", Value::Int(10));
        let mut b = FunctionBuilder::new("f", 1);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.functions[f.index()].blocks[0].instrs = vec![
            Instr::GlobalFold {
                op: BinOp::Add,
                global: g,
                src: Reg(0),
            },
            Instr::GlobalFoldImm {
                op: BinOp::Mul,
                global: g,
                imm: Value::Int(31),
            },
            Instr::LockedStore {
                global: g,
                src: Reg(0),
            },
        ];
        let mut env = BasicEnv::new(&m);
        call(&m, &mut env, f, &[Value::Int(5)]).unwrap();
        // GlobalFold: 10+5=15; GlobalFoldImm: 15*31=465; LockedStore: 5.
        assert_eq!(env.global(g), &Value::Int(5));
        assert!(env.locks_balanced());
        assert_eq!(env.cost.lock_ops, 2);
        // 3 + 4 + 3 constituent charges + terminator.
        assert_eq!(env.cost.instrs, 11);
    }

    #[test]
    fn profile_counts_instructions_and_fused_ones() {
        let (plain, fused, f) = bump_modules();
        let mut env = BasicEnv::new(&plain);
        env.enable_profiling();
        call(&plain, &mut env, f, &[]).unwrap();
        let p = env.profile.as_ref().unwrap();
        assert_eq!(p.total(), 6);
        assert_eq!(p.fused_total(), 0);

        let mut env = BasicEnv::new(&fused);
        env.enable_profiling();
        call(&fused, &mut env, f, &[]).unwrap();
        let p = env.profile.as_ref().unwrap();
        assert_eq!(p.total(), 1);
        assert_eq!(p.fused_total(), 1);
    }

    /// Runs `instrs` as the whole body of a function over registers
    /// `r0..r3` preloaded from `init`, and returns what they hold afterwards.
    fn run_body(instrs: Vec<Instr>, init: &[Value]) -> Result<Vec<Value>, ExecError> {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", init.len() as u16);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.functions[f.index()].reg_count = 4;
        m.functions[f.index()].blocks[0].instrs = instrs;
        // Copy each register into a global last, so the test sees them all.
        let mut outs = Vec::new();
        for r in 0..4 {
            let g = m.add_global(format!("r{r}"), Value::Unit);
            m.functions[f.index()].blocks[0]
                .instrs
                .push(Instr::StoreGlobal {
                    global: g,
                    src: Reg(r),
                });
            outs.push(g);
        }
        let mut env = BasicEnv::new(&m);
        call(&m, &mut env, f, init)?;
        Ok(outs.into_iter().map(|g| env.global(g).clone()).collect())
    }

    #[test]
    fn bin_fast_path_agrees_with_eval() {
        use crate::instr::UnOp;
        let ints = [0, 1, -1, 63, 64, i64::MIN, i64::MAX];
        let mut operands = vec![Value::Unit, Value::Bool(false), Value::Bool(true)];
        operands.extend(ints.map(Value::Int));
        operands.extend([Value::bytes([1u8, 2]), Value::str("s")]);
        // The destination starts as each kind of value in turn, so both the
        // payload-only write and the whole-value write are taken.
        let dsts = [Value::Unit, Value::Int(7), Value::Bool(true)];
        let (mut checked, mut faults) = (0, 0);
        for (a, b) in operands
            .iter()
            .flat_map(|a| operands.iter().map(move |b| (a, b)))
        {
            for op in BinOp::ALL {
                let want = op.eval(a, b).map_err(ExecError::Eval);
                for dst in &dsts {
                    let init = [a.clone(), b.clone(), dst.clone()];
                    let bin = Instr::Bin {
                        op,
                        dst: Reg(2),
                        lhs: Reg(0),
                        rhs: Reg(1),
                    };
                    let got = run_body(vec![bin], &init).map(|regs| regs[2].clone());
                    assert_eq!(got, want, "{a} {op:?} {b} over {dst}");
                    let imm = Instr::BinImm {
                        op,
                        dst: Reg(2),
                        lhs: Reg(0),
                        imm: b.clone(),
                    };
                    let got = run_body(vec![imm], &init).map(|regs| regs[2].clone());
                    assert_eq!(got, want, "{a} {op:?}.i {b} over {dst}");
                }
                // The fold forms: the global is the left operand and the
                // destination at once.
                let mut m = Module::new();
                let g = m.add_global("acc", a.clone());
                let mut fb = FunctionBuilder::new("f", 1);
                fb.push(Instr::GlobalFold {
                    op,
                    global: g,
                    src: Reg(0),
                });
                fb.ret(None);
                let f = m.add_function(fb.finish());
                let mut env = BasicEnv::new(&m);
                let got = call(&m, &mut env, f, std::slice::from_ref(b));
                assert_eq!(got.map(|_| env.global(g).clone()), want, "gfold {op:?}");
                checked += 1;
                faults += usize::from(want.is_err());
            }
        }
        assert_eq!(checked, 12 * 12 * 18);
        assert!(faults > 0 && faults < checked);
        // The cases a shortcut is likeliest to get wrong, by value.
        let int = |op: BinOp, a, b| {
            run_body(
                vec![Instr::Bin {
                    op,
                    dst: Reg(2),
                    lhs: Reg(0),
                    rhs: Reg(1),
                }],
                &[Value::Int(a), Value::Int(b)],
            )
            .map(|regs| regs[2].clone())
        };
        assert_eq!(int(BinOp::Div, i64::MIN, -1), Ok(Value::Int(i64::MIN)));
        assert_eq!(int(BinOp::Rem, i64::MIN, -1), Ok(Value::Int(0)));
        let by_zero = Err(ExecError::Eval(EvalError::DivisionByZero));
        assert_eq!(int(BinOp::Rem, 5, 0), by_zero);
        assert_eq!(int(BinOp::Div, 5, 0), by_zero);
        assert_eq!(int(BinOp::Shl, 1, 64), Ok(Value::Int(1)));
        assert_eq!(int(BinOp::Shl, 1, 65), Ok(Value::Int(2)));
        assert_eq!(int(BinOp::Shr, i64::MIN, 63), Ok(Value::Int(-1)));
        assert_eq!(int(BinOp::Shr, -8, -1), Ok(Value::Int(-1)));
        assert_eq!(int(BinOp::Add, i64::MAX, 1), Ok(Value::Int(i64::MIN)));

        for v in &operands {
            for op in UnOp::ALL {
                let want = op.eval(v).map_err(ExecError::Eval);
                for dst in &dsts {
                    let un = Instr::Un {
                        op,
                        dst: Reg(1),
                        src: Reg(0),
                    };
                    let got = run_body(vec![un], &[v.clone(), dst.clone()]);
                    assert_eq!(got.map(|regs| regs[1].clone()), want, "{op:?} {v}");
                }
            }
        }
    }

    #[test]
    fn in_place_results_release_what_they_overwrite() {
        let payload: Arc<[u8]> = Arc::from([1u8, 2, 3]);
        let held = || Value::Bytes(Arc::clone(&payload));
        let add = |dst, lhs, rhs| Instr::Bin {
            op: BinOp::Add,
            dst,
            lhs,
            rhs,
        };
        // An integer or boolean result over the only other reference to a
        // byte block lets the block go — whichever arm writes it.
        let writers = [
            add(Reg(0), Reg(1), Reg(2)),
            Instr::Bin {
                op: BinOp::Lt,
                dst: Reg(0),
                lhs: Reg(1),
                rhs: Reg(2),
            },
            Instr::BinImm {
                op: BinOp::Mul,
                dst: Reg(0),
                lhs: Reg(1),
                imm: Value::Int(3),
            },
            Instr::Const {
                dst: Reg(0),
                value: Value::Int(9),
            },
            Instr::Const {
                dst: Reg(0),
                value: Value::Bool(true),
            },
            Instr::Mov {
                dst: Reg(0),
                src: Reg(1),
            },
            Instr::Un {
                op: crate::instr::UnOp::Neg,
                dst: Reg(0),
                src: Reg(1),
            },
            Instr::BytesLen {
                dst: Reg(0),
                bytes: Reg(3),
            },
        ];
        // A native called right after the write reads the count while the
        // frame is still up: what it sees is what the register itself did.
        let mut m = Module::new();
        let probe = m.add_native("probe");
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for writer in writers {
            let mut b = FunctionBuilder::new("f", 4);
            b.push(writer.clone());
            let _ = b.call_native(probe, &[]);
            b.ret(None);
            let f = m.add_function(b.finish());
            let mut env = BasicEnv::new(&m);
            let (watched, count) = (Arc::clone(&payload), Arc::clone(&seen));
            env.bind_native(probe, move |_| {
                count.store(Arc::strong_count(&watched), Ordering::Relaxed);
                Ok(Value::Unit)
            });
            let init = [held(), Value::Int(4), Value::Int(5), Value::bytes([0u8; 2])];
            let before = Arc::strong_count(&payload);
            assert_eq!(call(&m, &mut env, f, &init), Ok(Value::Unit));
            assert_eq!(seen.load(Ordering::Relaxed), before, "{writer:?}");
            assert_eq!(Arc::strong_count(&payload), before, "{writer:?}");
        }
        assert_eq!(Arc::strong_count(&payload), 1);

        // dst == lhs == rhs.
        let doubled = run_body(vec![add(Reg(0), Reg(0), Reg(0))], &[Value::Int(21)]);
        assert_eq!(doubled.unwrap()[0], Value::Int(42));
        let same = Instr::Bin {
            op: BinOp::Eq,
            dst: Reg(0),
            lhs: Reg(0),
            rhs: Reg(0),
        };
        let regs = run_body(vec![same], &[Value::Bytes(Arc::clone(&payload))]).unwrap();
        assert_eq!(regs[0], Value::Bool(true));
        assert_eq!(Arc::strong_count(&payload), 1, "eq over its own operands");
        let moved = Instr::Mov {
            dst: Reg(0),
            src: Reg(0),
        };
        let regs = run_body(vec![moved], &[Value::Bytes(Arc::clone(&payload))]).unwrap();
        assert_eq!(Arc::strong_count(&payload), 2, "r0's copy, in its global");
        drop(regs);

        // A `load` over a register holding bytes, and a `store` / fold over
        // a global holding them.
        let mut m = Module::new();
        let g = m.add_global("g", Value::Int(5));
        let mut b = FunctionBuilder::new("f", 1);
        b.push(Instr::LoadGlobal {
            dst: Reg(0),
            global: g,
        });
        b.ret(Some(Reg(0)));
        let load = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("g", 1);
        b.store_global(g, b.param(0));
        b.ret(None);
        let store = m.add_function(b.finish());
        let mut env = BasicEnv::new(&m);
        let arg = [Value::Bytes(Arc::clone(&payload))];
        assert_eq!(call(&m, &mut env, load, &arg), Ok(Value::Int(5)));
        assert_eq!(Arc::strong_count(&payload), 2, "only `arg` is left");
        env.set_global(g, Value::Bytes(Arc::clone(&payload)));
        assert_eq!(call(&m, &mut env, store, &[Value::Int(1)]), Ok(Value::Unit));
        assert_eq!(env.global(g), &Value::Int(1));
        assert_eq!(Arc::strong_count(&payload), 2, "the global let go");
        drop(arg);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    /// A module whose `all(p, d)` executes every opcode — each
    /// superinstruction included — across three blocks, then divides by `d`.
    /// Natives: `id` (slot 0) returns its argument.
    fn every_opcode_module() -> (Module, FuncId) {
        use crate::instr::UnOp;
        let mut m = Module::new();
        let acc = m.add_global("acc", Value::Int(10));
        let buf = m.add_global("buf", Value::Unit);
        let id = m.add_native("id");
        let e = m.add_event("E");
        let mut inner = FunctionBuilder::new("inner", 1);
        let one = inner.const_int(1);
        let r = inner.bin(BinOp::Add, inner.param(0), one);
        inner.ret(Some(r));
        let inner_id = m.add_function(inner.finish());

        let mut b = FunctionBuilder::new("all", 2);
        let (taken, join) = (b.new_block(), b.new_block());
        let c = b.const_int(5);
        let _ = b.mov(c);
        let s = b.bin(BinOp::Add, b.param(0), c);
        let _ = b.un(UnOp::Neg, s);
        b.lock(acc);
        let l = b.load_global(acc);
        b.store_global(acc, s);
        b.unlock(acc);
        let r = b.call(inner_id, &[l]);
        let n = b.call_native(id, &[r]);
        b.raise(e, RaiseMode::Sync, &[n]);
        b.raise(e, RaiseMode::Async, &[]);
        let four = b.const_int(4);
        let bytes = b.bytes_new(four);
        let len = b.bytes_len(bytes);
        let zero = b.const_int(0);
        b.bytes_set(bytes, zero, len);
        let got = b.bytes_get(bytes, zero);
        let cat = b.bytes_concat(bytes, bytes);
        let sl = b.bytes_slice(cat, zero, four);
        let t = b.new_reg();
        b.push(Instr::BinImm {
            op: BinOp::Add,
            dst: t,
            lhs: got,
            imm: Value::Int(7),
        });
        b.push(Instr::GlobalFold {
            op: BinOp::Add,
            global: acc,
            src: t,
        });
        b.push(Instr::GlobalFoldImm {
            op: BinOp::Mul,
            global: acc,
            imm: Value::Int(3),
        });
        b.push(Instr::LockedStore {
            global: buf,
            src: sl,
        });
        b.push(Instr::LockedFoldImm {
            op: BinOp::Add,
            global: acc,
            imm: Value::Int(1),
        });
        let cmp = b.bin(BinOp::Lt, c, t);
        b.branch(cmp, taken, join);
        b.switch_to(taken);
        b.jump(join);
        b.switch_to(join);
        let q = b.bin(BinOp::Div, t, b.param(1));
        b.ret(Some(q));
        let all = m.add_function(b.finish());
        crate::verify::verify_module(&m).unwrap();
        (m, all)
    }

    fn every_opcode_env(m: &Module) -> BasicEnv {
        let mut env = BasicEnv::new(m);
        env.bind_native(NativeId(0), |args| Ok(args[0].clone()));
        env
    }

    /// An environment whose first native call flips opcode profiling — the
    /// thing the event runtime's `&mut` rules out — to show what the
    /// interpreter does with it: nothing, until the next activation.
    struct FlipsProfiling {
        inner: BasicEnv,
        parked: Option<Box<OpcodeProfile>>,
    }

    impl Env for FlipsProfiling {
        fn global_slot(&self, global: GlobalId) -> Option<&Value> {
            self.inner.global_slot(global)
        }
        fn global_slot_mut(&mut self, global: GlobalId) -> Option<&mut Value> {
            self.inner.global_slot_mut(global)
        }
        fn lock(&mut self, global: GlobalId) -> Result<(), ExecError> {
            self.inner.lock(global)
        }
        fn unlock(&mut self, global: GlobalId) -> Result<(), ExecError> {
            self.inner.unlock(global)
        }
        fn call_native(
            &mut self,
            native: NativeId,
            args: &[Value],
            dst: &mut Value,
        ) -> Result<(), ExecError> {
            std::mem::swap(&mut self.inner.profile, &mut self.parked);
            self.inner.call_native(native, args, dst)
        }
        fn raise(
            &mut self,
            module: &Module,
            event: EventId,
            mode: RaiseMode,
            args: &[Value],
        ) -> Result<(), ExecError> {
            self.inner.raise(module, event, mode, args)
        }
        fn cost(&mut self) -> &mut CostCounter {
            self.inner.cost()
        }
        fn opcode_profile(&mut self) -> Option<&mut OpcodeProfile> {
            self.inner.opcode_profile()
        }
    }

    #[test]
    fn profile_mode_is_fixed_per_activation_and_counts_match() {
        // Expected counts were captured from the parent commit (227e3c7,
        // `step` still the catch-all), before the loop was touched: 29
        // instructions, `inner`'s two included, five of them fused.
        let (m, all) = every_opcode_module();
        let args = [Value::Int(2), Value::Int(1)];
        let mut env = every_opcode_env(&m);
        env.enable_profiling();
        assert_eq!(call(&m, &mut env, all, &args), Ok(Value::Int(11)));
        assert_eq!(env.cost.instrs, 46);
        let p = env.profile.as_ref().unwrap();
        assert_eq!((p.total(), p.fused_total()), (29, 5));

        // Profiling off runs the same program to the same result and cost.
        let mut off = every_opcode_env(&m);
        assert_eq!(call(&m, &mut off, all, &args), Ok(Value::Int(11)));
        assert_eq!(off.cost, env.cost);
        assert!(off.profile.is_none());

        // The mode is read once per activation. Turned on by the native in
        // the middle of one, profiling records nothing until the next;
        // turned off in the middle, the recording loop finds no profile to
        // write to and carries on.
        let mut flip = FlipsProfiling {
            inner: every_opcode_env(&m),
            parked: Some(Box::new(OpcodeProfile::default())),
        };
        assert_eq!(call(&m, &mut flip, all, &args), Ok(Value::Int(11)));
        assert_eq!(flip.inner.profile.as_ref().unwrap().total(), 0);
        assert_eq!(call(&m, &mut flip, all, &args), Ok(Value::Int(11)));
        // `all` up to its native, and all of `inner`.
        let recorded = flip.parked.as_ref().unwrap();
        assert_eq!((recorded.total(), recorded.fused_total()), (10 + 2, 0));
    }

    #[test]
    fn fuel_sweep_is_exact() {
        // (error, cost.instrs, fuel left, `acc`, len of `buf` or -1, lock
        // depths) of `all(2, 0)` under every budget: captured from the
        // parent commit (227e3c7), before the loop was touched. `div0` is
        // the faulting `div` the function ends in.
        type Row = (&'static str, u64, u64, i64, i64, [u32; 2]);
        #[rustfmt::skip]
        const ROWS: [Row; 49] = [
            ("fuel", 1, 0, 10, -1, [0, 0]), ("fuel", 2, 0, 10, -1, [0, 0]),
            ("fuel", 3, 0, 10, -1, [0, 0]), ("fuel", 4, 0, 10, -1, [0, 0]),
            ("fuel", 5, 0, 10, -1, [0, 0]), ("fuel", 6, 0, 10, -1, [1, 0]),
            ("fuel", 7, 0, 10, -1, [1, 0]), ("fuel", 8, 0, 7, -1, [1, 0]),
            ("fuel", 9, 0, 7, -1, [0, 0]), ("fuel", 10, 0, 7, -1, [0, 0]),
            ("fuel", 11, 0, 7, -1, [0, 0]), ("fuel", 12, 0, 7, -1, [0, 0]),
            ("fuel", 13, 0, 7, -1, [0, 0]), ("fuel", 14, 0, 7, -1, [0, 0]),
            ("fuel", 15, 0, 7, -1, [0, 0]), ("fuel", 16, 0, 7, -1, [0, 0]),
            ("fuel", 17, 0, 7, -1, [0, 0]), ("fuel", 18, 0, 7, -1, [0, 0]),
            ("fuel", 19, 0, 7, -1, [0, 0]), ("fuel", 20, 0, 7, -1, [0, 0]),
            ("fuel", 21, 0, 7, -1, [0, 0]), ("fuel", 22, 0, 7, -1, [0, 0]),
            ("fuel", 23, 0, 7, -1, [0, 0]), ("fuel", 24, 0, 7, -1, [0, 0]),
            ("fuel", 25, 0, 7, -1, [0, 0]), ("fuel", 26, 0, 7, -1, [0, 0]),
            ("fuel", 27, 0, 7, -1, [0, 0]), ("fuel", 28, 0, 7, -1, [0, 0]),
            ("fuel", 29, 0, 18, -1, [0, 0]), ("fuel", 30, 0, 18, -1, [0, 0]),
            ("fuel", 31, 0, 18, -1, [0, 0]), ("fuel", 32, 0, 18, -1, [0, 0]),
            ("fuel", 33, 0, 54, -1, [0, 0]), ("fuel", 34, 0, 54, -1, [0, 1]),
            ("fuel", 35, 0, 54, 4, [0, 1]), ("fuel", 36, 0, 54, 4, [0, 0]),
            ("fuel", 37, 0, 54, 4, [1, 0]), ("fuel", 38, 0, 54, 4, [1, 0]),
            ("fuel", 39, 0, 54, 4, [1, 0]), ("fuel", 40, 0, 54, 4, [1, 0]),
            ("fuel", 41, 0, 55, 4, [1, 0]), ("fuel", 42, 0, 55, 4, [0, 0]),
            ("fuel", 43, 0, 55, 4, [0, 0]), ("fuel", 44, 0, 55, 4, [0, 0]),
            ("fuel", 45, 0, 55, 4, [0, 0]), ("div0", 45, 0, 55, 4, [0, 0]),
            ("div0", 45, 1, 55, 4, [0, 0]), ("div0", 45, 2, 55, 4, [0, 0]),
            ("div0", 45, 3, 55, 4, [0, 0]),
        ];
        let (m, all) = every_opcode_module();
        for profiling in [false, true] {
            for (fuel, want) in ROWS.iter().enumerate() {
                let mut env = every_opcode_env(&m);
                env.fuel = Some(fuel as u64);
                if profiling {
                    env.enable_profiling();
                }
                let err = match call(&m, &mut env, all, &[Value::Int(2), Value::Int(0)]) {
                    Err(ExecError::OutOfFuel) => "fuel",
                    Err(ExecError::Eval(EvalError::DivisionByZero)) => "div0",
                    other => panic!("fuel {fuel}: {other:?}"),
                };
                let buf = env.global(G(1)).as_bytes().map_or(-1, |b| b.len() as i64);
                let got = (
                    err,
                    env.cost.instrs,
                    env.fuel.unwrap(),
                    env.global(G(0)).as_int().unwrap(),
                    buf,
                    [env.lock_depths[0], env.lock_depths[1]],
                );
                assert_eq!(got, *want, "fuel {fuel}, profiling {profiling}");
            }
        }
    }

    #[test]
    fn fused_faults_and_fuel_match_the_unfused_sequence() {
        // Each fused form beside the sequence it replaces, over a global that
        // takes the operator (`Int`), one that faults the `Bin` (`Bytes`),
        // one that is not there and an `Int` divided by zero, at every fuel
        // level and none, profiling off and on: same error, same charges,
        // same fuel left, same global, same lock depth.
        type Fused = fn(GlobalId, BinOp, i64) -> Vec<Instr>;
        type Unfused = fn(&mut FunctionBuilder, GlobalId, BinOp, i64);
        let forms: [(&str, Fused, Unfused); 5] = [
            (
                "lfold.i",
                |global, op, k| {
                    vec![Instr::LockedFoldImm {
                        op,
                        global,
                        imm: Value::Int(k),
                    }]
                },
                |b, g, op, k| {
                    b.lock(g);
                    let v = b.load_global(g);
                    let k = b.const_int(k);
                    let s = b.bin(op, v, k);
                    b.store_global(g, s);
                    b.unlock(g);
                },
            ),
            (
                "gfold.i",
                |global, op, k| {
                    vec![Instr::GlobalFoldImm {
                        op,
                        global,
                        imm: Value::Int(k),
                    }]
                },
                |b, g, op, k| {
                    let v = b.load_global(g);
                    let k = b.const_int(k);
                    let s = b.bin(op, v, k);
                    b.store_global(g, s);
                },
            ),
            (
                "gfold",
                |global, op, _| {
                    vec![Instr::GlobalFold {
                        op,
                        global,
                        src: Reg(0),
                    }]
                },
                |b, g, op, _| {
                    let v = b.load_global(g);
                    let s = b.bin(op, v, b.param(0));
                    b.store_global(g, s);
                },
            ),
            (
                "lstore",
                |global, _, _| {
                    vec![Instr::LockedStore {
                        global,
                        src: Reg(0),
                    }]
                },
                |b, g, _, _| {
                    b.lock(g);
                    b.store_global(g, b.param(0));
                    b.unlock(g);
                },
            ),
            (
                "bin.i",
                |global, op, k| {
                    vec![
                        Instr::BinImm {
                            op,
                            dst: Reg(2),
                            lhs: Reg(0),
                            imm: Value::Int(k),
                        },
                        Instr::StoreGlobal {
                            global,
                            src: Reg(2),
                        },
                    ]
                },
                |b, g, op, k| {
                    let k = b.const_int(k);
                    let s = b.bin(op, b.param(0), k);
                    b.store_global(g, s);
                },
            ),
        ];
        // (global's value, global missing, operator, immediate, argument)
        let inputs = [
            (Value::Int(1), false, BinOp::Add, 3, 2),
            (Value::bytes([1u8]), false, BinOp::Add, 3, 2),
            (Value::Int(1), true, BinOp::Add, 3, 2),
            (Value::Int(1), false, BinOp::Div, 0, 0),
        ];
        for (name, fused, unfused) in forms {
            for (init, missing, op, k, arg) in inputs.clone() {
                let mut plain = Module::new();
                let declared = plain.add_global("g", init.clone());
                let g = if missing { G(7) } else { declared };
                let mut b = FunctionBuilder::new("f", 1);
                unfused(&mut b, g, op, k);
                b.ret(None);
                let f = plain.add_function(b.finish());
                let mut twin = plain.clone();
                twin.functions[f.index()].blocks[0].instrs = fused(g, op, k);
                for fuel in std::iter::once(None).chain((0..9u64).map(Some)) {
                    for profiling in [false, true] {
                        let run = |m: &Module| {
                            let mut env = BasicEnv::new(m);
                            env.fuel = fuel;
                            if profiling {
                                env.enable_profiling();
                            }
                            let r = call(m, &mut env, f, &[Value::Int(arg)]);
                            (r, env.cost, env.fuel, env.globals, env.lock_depths)
                        };
                        assert_eq!(
                            run(&plain),
                            run(&twin),
                            "{name} over {init} {op:?} {k}, fuel {fuel:?}, profiling {profiling}"
                        );
                    }
                }
            }
        }
    }
}
