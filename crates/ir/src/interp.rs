//! The IR interpreter.
//!
//! Execution is parameterized over an [`Env`] that supplies global state,
//! native functions, and — crucially — the semantics of the `raise`
//! instruction. The event runtime in `pdo-events` implements [`Env`] so a
//! synchronous raise recursively dispatches bound handlers; the
//! self-contained [`BasicEnv`] here records raises for inspection, which is
//! what unit tests and the optimizer's equivalence checks need.

use crate::cost::{CostCounter, OpcodeProfile};
use crate::func::{Function, Module};
use crate::ids::{EventId, FuncId, GlobalId, NativeId, Reg};
use crate::instr::{EvalError, Instr, RaiseMode, Terminator};
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
pub trait Env {
    /// Reads a global cell.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::GlobalOutOfRange`] for unknown globals.
    fn load_global(&mut self, global: GlobalId) -> Result<Value, ExecError>;

    /// Writes a global cell.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::GlobalOutOfRange`] for unknown globals.
    fn store_global(&mut self, global: GlobalId, value: Value) -> Result<(), ExecError>;

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

    /// Invokes a native function slot.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnboundNative`] for empty slots and
    /// [`ExecError::Native`] when the implementation fails.
    fn call_native(&mut self, native: NativeId, args: &[Value]) -> Result<Value, ExecError>;

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

    /// The opcode/adjacent-pair frequency profile to record into, if any.
    ///
    /// When `Some`, the interpreter records every executed instruction's
    /// [`crate::cost::Opcode`] tag (and the pair it forms with its
    /// predecessor in the same straight-line run). The default `None`
    /// monomorphizes the recording away entirely, so environments that never
    /// profile pay nothing.
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
    run(module, env, f, frame, 0)
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

/// Runs `f`'s body in `frame`, whose parameter registers are already set.
fn run<E: Env + ?Sized>(
    module: &Module,
    env: &mut E,
    f: &Function,
    mut frame: Frame,
    depth: usize,
) -> Result<Value, ExecError> {
    let regs = frame.0.as_mut_slice();

    // A fresh function body starts a fresh pair chain: pairs never span a
    // call boundary the fusion pass could not rewrite.
    if let Some(p) = env.opcode_profile() {
        p.break_chain();
    }

    let mut block = 0usize;
    loop {
        let b = &f.blocks[block];
        for instr in &b.instrs {
            charge(env)?;
            if let Some(p) = env.opcode_profile() {
                p.record(instr.opcode());
            }
            // Direct calls recurse from this frame rather than through
            // `step`, keeping `step`'s many-armed frame (every arm's locals
            // are allocated up front in unoptimized builds) off the
            // recursion path. Arguments are cloned straight into the
            // callee's registers.
            if let Instr::Call { dst, func, args } = instr {
                env.cost().calls += 1;
                let (callee, mut callee_frame) = enter(module, *func, args.len(), depth + 1)?;
                for (slot, r) in callee_frame.0[..args.len()].iter_mut().zip(args) {
                    *slot = regs[r.index()].clone();
                }
                regs[dst.index()] = run(module, env, callee, callee_frame, depth + 1)?;
            } else {
                step(module, env, regs, instr)?;
            }
            // Nested execution (callee bodies, sync-dispatched handlers)
            // recorded in between; don't pair across the return.
            if matches!(
                instr,
                Instr::Call { .. } | Instr::CallNative { .. } | Instr::Raise { .. }
            ) {
                if let Some(p) = env.opcode_profile() {
                    p.break_chain();
                }
            }
        }
        charge(env)?;
        if let Some(p) = env.opcode_profile() {
            p.break_chain();
        }
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

/// Hands `f` the values of `args` as one slice: built in a stack buffer up
/// to [`INLINE_ARGS`] values, in a `Vec` beyond that.
fn with_argv<R>(regs: &[Value], args: &[Reg], f: impl FnOnce(&[Value]) -> R) -> R {
    if args.len() <= INLINE_ARGS {
        let mut buf = [const { Value::Unit }; INLINE_ARGS];
        for (slot, r) in buf.iter_mut().zip(args) {
            *slot = regs[r.index()].clone();
        }
        f(&buf[..args.len()])
    } else {
        let spilled: Vec<Value> = args.iter().map(|r| regs[r.index()].clone()).collect();
        f(&spilled)
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

fn step<E: Env + ?Sized>(
    module: &Module,
    env: &mut E,
    regs: &mut [Value],
    instr: &Instr,
) -> Result<(), ExecError> {
    // Arms are ordered by measured opcode frequency on the video/SecComm/X
    // inner loops (const/bin/load/store and the fused forms dominate);
    // rare and failure-prone arms sit at the bottom with their error
    // construction split into `#[cold]` helpers.
    match instr {
        Instr::Const { dst, value } => regs[dst.index()] = value.clone(),
        Instr::Bin { op, dst, lhs, rhs } => {
            regs[dst.index()] = op.eval(&regs[lhs.index()], &regs[rhs.index()])?;
        }
        // Fused Const+Bin. The interpreter loop pre-charged the `Const`
        // constituent; the immediate rides in the instruction, so the fused
        // form skips one dispatch and all constant register traffic.
        Instr::BinImm { op, dst, lhs, imm } => {
            charge(env)?; // Bin
            regs[dst.index()] = op.eval(&regs[lhs.index()], imm)?;
        }
        Instr::Mov { dst, src } => regs[dst.index()] = regs[src.index()].clone(),
        Instr::LoadGlobal { dst, global } => {
            regs[dst.index()] = env.load_global(*global)?;
        }
        Instr::StoreGlobal { global, src } => {
            let v = regs[src.index()].clone();
            env.store_global(*global, v)?;
        }
        // Fused read-modify-write and critical-section forms live in their
        // own functions (below) so their temporaries don't enlarge this
        // frame — `step` sits on the recursive `Call` path, where debug
        // builds allocate every arm's locals up front.
        Instr::LockedFoldImm { op, global, imm } => {
            step_locked_fold_imm(env, *op, *global, imm)?;
        }
        Instr::GlobalFoldImm { op, global, imm } => {
            step_global_fold_imm(env, *op, *global, imm)?;
        }
        Instr::GlobalFold { op, global, src } => {
            step_global_fold(env, *op, *global, &regs[src.index()])?;
        }
        Instr::LockedStore { global, src } => {
            step_locked_store(env, *global, &regs[src.index()])?;
        }
        Instr::Un { op, dst, src } => {
            regs[dst.index()] = op.eval(&regs[src.index()])?;
        }
        Instr::Lock { global } => {
            env.cost().lock_ops += 1;
            env.lock(*global)?;
        }
        Instr::Unlock { global } => {
            env.cost().lock_ops += 1;
            env.unlock(*global)?;
        }
        Instr::Call { .. } => unreachable!("`run` executes direct calls itself"),
        Instr::CallNative { dst, native, args } => {
            env.cost().native_calls += 1;
            regs[dst.index()] = with_argv(regs, args, |argv| env.call_native(*native, argv))?;
        }
        Instr::Raise { event, mode, args } => {
            match mode {
                RaiseMode::Sync => env.cost().raises_sync += 1,
                RaiseMode::Async | RaiseMode::Timed => env.cost().raises_async += 1,
            }
            with_argv(regs, args, |argv| env.raise(module, *event, *mode, argv))?;
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
            regs[dst.index()] = Value::Int(b.len() as i64);
        }
        Instr::BytesGet { dst, bytes, index } => {
            let b = regs[bytes.index()]
                .as_bytes()
                .ok_or_else(|| bytes_type_error("bget"))?;
            let i = index_of(regs[index.index()].as_int(), b.len(), "bget")?;
            regs[dst.index()] = Value::Int(i64::from(b[i]));
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
    }
    Ok(())
}

// Fused fast-path handlers. Each constituent of a superinstruction is
// charged as if it executed individually, so fuel exhaustion and faults
// interleave with effects exactly as before fusion (e.g. a mid-sequence
// OutOfFuel in `LockedFoldImm` leaves the lock held, just as the unfused
// program would). The first constituent's charge is paid by the interpreter
// loop before `step` is entered.
//
// The hot path pays the remaining constituents' charges in ONE batch,
// which is observationally exact as long as fuel cannot run out in the
// middle of the sequence: if a non-fuel fault fires mid-sequence, the cold
// refund path returns the charges of the constituents that never executed,
// restoring precisely the cost/fuel state the unfused sequence would show
// at that fault point. When fuel IS low enough to exhaust mid-sequence,
// the handlers fall back to a per-constituent replay that reproduces the
// exact exhaustion point and partial effects.

/// Pays `n` constituents' charges at once. Returns `false` (paying
/// nothing) when fuel could run out mid-sequence, in which case the caller
/// must replay charges per-constituent.
#[inline]
fn try_batch_charge<E: Env + ?Sized>(env: &mut E, n: u64) -> bool {
    if let Some(fuel) = env.fuel() {
        if *fuel < n {
            return false;
        }
        *fuel -= n;
    }
    env.cost().instrs += n;
    true
}

/// Returns the charges of the `n` constituents that never executed after a
/// mid-sequence fault on the batched fast path.
#[cold]
#[inline(never)]
fn refund_charges<E: Env + ?Sized>(env: &mut E, n: u64) {
    env.cost().instrs -= n;
    if let Some(fuel) = env.fuel() {
        *fuel += n;
    }
}

/// Fused `Lock`+`LoadGlobal`+`Const`+`Bin`+`StoreGlobal`+`Unlock`: the
/// locked counter-bump pattern that dominates the video/SecComm inner loops.
#[inline]
fn step_locked_fold_imm<E: Env + ?Sized>(
    env: &mut E,
    op: crate::instr::BinOp,
    global: GlobalId,
    imm: &Value,
) -> Result<(), ExecError> {
    if !try_batch_charge(env, 5) {
        return locked_fold_imm_exact(env, op, global, imm);
    }
    env.cost().lock_ops += 1;
    if let Err(e) = env.lock(global) {
        refund_charges(env, 5); // Load..Unlock never ran
        return Err(e);
    }
    let lhs = match env.load_global(global) {
        Ok(v) => v,
        Err(e) => {
            refund_charges(env, 4); // Const..Unlock never ran
            return Err(e);
        }
    };
    let v = match op.eval(&lhs, imm) {
        Ok(v) => v,
        Err(e) => {
            refund_charges(env, 2); // Store, Unlock never ran
            return Err(e.into());
        }
    };
    if let Err(e) = env.store_global(global, v) {
        refund_charges(env, 1); // Unlock never ran
        return Err(e);
    }
    env.cost().lock_ops += 1;
    env.unlock(global)
}

/// Exact per-constituent replay of [`step_locked_fold_imm`], used when
/// fuel may exhaust mid-sequence.
#[cold]
#[inline(never)]
fn locked_fold_imm_exact<E: Env + ?Sized>(
    env: &mut E,
    op: crate::instr::BinOp,
    global: GlobalId,
    imm: &Value,
) -> Result<(), ExecError> {
    env.cost().lock_ops += 1; // Lock (pre-charged by the loop)
    env.lock(global)?;
    charge(env)?; // Load
    let lhs = env.load_global(global)?;
    charge(env)?; // Const
    charge(env)?; // Bin
    let v = op.eval(&lhs, imm)?;
    charge(env)?; // Store
    env.store_global(global, v)?;
    charge(env)?; // Unlock
    env.cost().lock_ops += 1;
    env.unlock(global)
}

/// Fused `LoadGlobal`+`Const`+`Bin`+`StoreGlobal` read-modify-write.
#[inline]
fn step_global_fold_imm<E: Env + ?Sized>(
    env: &mut E,
    op: crate::instr::BinOp,
    global: GlobalId,
    imm: &Value,
) -> Result<(), ExecError> {
    if !try_batch_charge(env, 3) {
        return global_fold_imm_exact(env, op, global, imm);
    }
    let lhs = match env.load_global(global) {
        Ok(v) => v,
        Err(e) => {
            refund_charges(env, 3); // Const, Bin, Store never ran
            return Err(e);
        }
    };
    let v = match op.eval(&lhs, imm) {
        Ok(v) => v,
        Err(e) => {
            refund_charges(env, 1); // Store never ran
            return Err(e.into());
        }
    };
    env.store_global(global, v)
}

/// Exact per-constituent replay of [`step_global_fold_imm`].
#[cold]
#[inline(never)]
fn global_fold_imm_exact<E: Env + ?Sized>(
    env: &mut E,
    op: crate::instr::BinOp,
    global: GlobalId,
    imm: &Value,
) -> Result<(), ExecError> {
    let lhs = env.load_global(global)?; // Load (pre-charged)
    charge(env)?; // Const
    charge(env)?; // Bin
    let v = op.eval(&lhs, imm)?;
    charge(env)?; // Store
    env.store_global(global, v)
}

/// Fused `LoadGlobal`+`Bin`+`StoreGlobal` with a register operand.
#[inline]
fn step_global_fold<E: Env + ?Sized>(
    env: &mut E,
    op: crate::instr::BinOp,
    global: GlobalId,
    rhs: &Value,
) -> Result<(), ExecError> {
    if !try_batch_charge(env, 2) {
        return global_fold_exact(env, op, global, rhs);
    }
    let lhs = match env.load_global(global) {
        Ok(v) => v,
        Err(e) => {
            refund_charges(env, 2); // Bin, Store never ran
            return Err(e);
        }
    };
    let v = match op.eval(&lhs, rhs) {
        Ok(v) => v,
        Err(e) => {
            refund_charges(env, 1); // Store never ran
            return Err(e.into());
        }
    };
    env.store_global(global, v)
}

/// Exact per-constituent replay of [`step_global_fold`].
#[cold]
#[inline(never)]
fn global_fold_exact<E: Env + ?Sized>(
    env: &mut E,
    op: crate::instr::BinOp,
    global: GlobalId,
    rhs: &Value,
) -> Result<(), ExecError> {
    let lhs = env.load_global(global)?; // Load (pre-charged)
    charge(env)?; // Bin
    let v = op.eval(&lhs, rhs)?;
    charge(env)?; // Store
    env.store_global(global, v)
}

/// Fused `Lock`+`StoreGlobal`+`Unlock` single-store critical section.
#[inline]
fn step_locked_store<E: Env + ?Sized>(
    env: &mut E,
    global: GlobalId,
    src: &Value,
) -> Result<(), ExecError> {
    if !try_batch_charge(env, 2) {
        return locked_store_exact(env, global, src);
    }
    env.cost().lock_ops += 1;
    if let Err(e) = env.lock(global) {
        refund_charges(env, 2); // Store, Unlock never ran
        return Err(e);
    }
    if let Err(e) = env.store_global(global, src.clone()) {
        refund_charges(env, 1); // Unlock never ran
        return Err(e);
    }
    env.cost().lock_ops += 1;
    env.unlock(global)
}

/// Exact per-constituent replay of [`step_locked_store`].
#[cold]
#[inline(never)]
fn locked_store_exact<E: Env + ?Sized>(
    env: &mut E,
    global: GlobalId,
    src: &Value,
) -> Result<(), ExecError> {
    env.cost().lock_ops += 1; // Lock (pre-charged)
    env.lock(global)?;
    charge(env)?; // Store
    env.store_global(global, src.clone())?;
    charge(env)?; // Unlock
    env.cost().lock_ops += 1;
    env.unlock(global)
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
    /// Optional opcode/pair frequency profile (`None` = profiling off).
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

    /// Turns opcode/pair profiling on (fresh counters).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::new(OpcodeProfile::new()));
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
    fn load_global(&mut self, global: GlobalId) -> Result<Value, ExecError> {
        self.globals
            .get(global.index())
            .cloned()
            .ok_or(ExecError::GlobalOutOfRange(global))
    }

    fn store_global(&mut self, global: GlobalId, value: Value) -> Result<(), ExecError> {
        match self.globals.get_mut(global.index()) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(ExecError::GlobalOutOfRange(global)),
        }
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

    fn call_native(&mut self, native: NativeId, args: &[Value]) -> Result<Value, ExecError> {
        match self.natives.get_mut(native.index()) {
            Some(Some(f)) => f(args).map_err(ExecError::Native),
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
    use crate::cost::Opcode;
    use crate::instr::BinOp;
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
    fn profile_records_opcodes_and_pairs() {
        let (plain, fused, f) = bump_modules();
        let mut env = BasicEnv::new(&plain);
        env.enable_profiling();
        call(&plain, &mut env, f, &[]).unwrap();
        let p = env.profile.as_ref().unwrap();
        assert_eq!(p.count(Opcode::Lock), 1);
        assert_eq!(p.count(Opcode::LoadGlobal), 1);
        assert_eq!(p.pair_count(Opcode::Lock, Opcode::LoadGlobal), 1);
        assert_eq!(p.pair_count(Opcode::Const, Opcode::Bin), 1);
        assert_eq!(p.total(), 6);
        assert_eq!(p.fused_total(), 0);

        let mut env = BasicEnv::new(&fused);
        env.enable_profiling();
        call(&fused, &mut env, f, &[]).unwrap();
        let p = env.profile.as_ref().unwrap();
        assert_eq!(p.count(Opcode::LockedFoldImm), 1);
        assert_eq!(p.fused_total(), 1);
    }

    #[test]
    fn profile_pairs_do_not_span_calls() {
        let mut m = Module::new();
        let mut inner = FunctionBuilder::new("inner", 0);
        let _ = inner.const_int(1);
        inner.ret(None);
        let inner_id = m.add_function(inner.finish());
        let mut outer = FunctionBuilder::new("outer", 0);
        let _ = outer.call(inner_id, &[]);
        let _ = outer.const_int(2);
        outer.ret(None);
        let f = m.add_function(outer.finish());

        let mut env = BasicEnv::new(&m);
        env.enable_profiling();
        call(&m, &mut env, f, &[]).unwrap();
        let p = env.profile.as_ref().unwrap();
        // Neither (Call, inner's Const) nor (inner's Const, outer's Const)
        // may be paired across the call boundary.
        assert_eq!(p.pair_count(Opcode::Call, Opcode::Const), 0);
        assert_eq!(p.pair_count(Opcode::Const, Opcode::Const), 0);
        assert_eq!(p.count(Opcode::Const), 2);
        assert_eq!(p.count(Opcode::Call), 1);
    }
}
