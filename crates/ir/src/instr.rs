//! Instructions and block terminators.

use crate::ids::{EventId, FuncId, GlobalId, NativeId, Reg};
use crate::value::Value;
use std::fmt;

/// Binary arithmetic / logical / comparison operators.
///
/// Arithmetic and bitwise operators apply to [`Value::Int`]; `And`/`Or` apply
/// to [`Value::Bool`]; the comparisons `Eq`/`Ne` apply to any pair of values
/// and the ordered comparisons to integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer division. Fails on division by zero.
    Div,
    /// Integer remainder. Fails on division by zero.
    Rem,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Bitwise xor on integers.
    Xor,
    /// Bitwise and on integers.
    BitAnd,
    /// Bitwise or on integers.
    BitOr,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// Structural equality on any two values.
    Eq,
    /// Structural inequality on any two values.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,
}

impl BinOp {
    /// All operators, for exhaustive property tests.
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::BitAnd => "band",
            BinOp::BitOr => "bor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        }
    }

    /// True if the operator is commutative, used by CSE value numbering.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::Eq
                | BinOp::Ne
        )
    }

    /// Evaluates the operator on constant operands.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on type mismatch or division by zero; the
    /// interpreter converts this into an execution fault, while the constant
    /// folder simply declines to fold.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> Result<Value, EvalError> {
        use BinOp::*;
        if let (Value::Int(a), Value::Int(b)) = (lhs, rhs) {
            let (a, b) = (*a, *b);
            let mut out = Value::Unit;
            if self.eval_ints_into(a, b, &mut out) {
                return Ok(out);
            }
            return match self {
                Div | Rem if b == 0 => Err(EvalError::DivisionByZero),
                Div => Ok(Value::Int(a.wrapping_div(b))),
                Rem => Ok(Value::Int(a.wrapping_rem(b))),
                _ => Err(EvalError::TypeMismatch(self)), // `and` / `or`
            };
        }
        match (self, lhs, rhs) {
            (Eq, ..) => Ok(Value::Bool(lhs == rhs)),
            (Ne, ..) => Ok(Value::Bool(lhs != rhs)),
            (And, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a && *b)),
            (Or, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a || *b)),
            _ => Err(EvalError::TypeMismatch(self)),
        }
    }

    /// `Int × Int` for the operators that are total on integers, written
    /// into `dst` in place (see [`Value::clone_from`]): the arithmetic both
    /// [`BinOp::eval`] and the interpreter's `bin` arms run. Returns `false`,
    /// leaving `dst` alone, for the rest — `div`/`rem`, which can fault, and
    /// `and`/`or`, which do not take integers — and those go through `eval`.
    #[inline(always)]
    pub(crate) fn eval_ints_into(self, a: i64, b: i64, dst: &mut Value) -> bool {
        use BinOp::*;
        let int = match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Xor => a ^ b,
            BitAnd => a & b,
            BitOr => a | b,
            Shl => a.wrapping_shl(b as u32 & 63),
            Shr => a.wrapping_shr(b as u32 & 63),
            Eq | Ne | Lt | Le | Gt | Ge => {
                dst.set_bool(match self {
                    Eq => a == b,
                    Ne => a != b,
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    _ => a >= b,
                });
                return true;
            }
            Div | Rem | And | Or => return false,
        };
        dst.set_int(int);
        true
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
    /// Bitwise complement on integers.
    BNot,
}

impl UnOp {
    /// All operators, for exhaustive property tests.
    pub const ALL: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BNot];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::BNot => "bnot",
        }
    }

    /// Evaluates the operator on a constant operand.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::TypeMismatchUnary`] when the operand type does
    /// not match the operator.
    pub fn eval(self, v: &Value) -> Result<Value, EvalError> {
        match (self, v) {
            (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
            (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
            (UnOp::BNot, Value::Int(i)) => Ok(Value::Int(!i)),
            _ => Err(EvalError::TypeMismatchUnary(self)),
        }
    }
}

/// Failure of constant evaluation (also reused by the interpreter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// Operand types did not match a binary operator.
    TypeMismatch(BinOp),
    /// Operand type did not match a unary operator.
    TypeMismatchUnary(UnOp),
    /// Integer division or remainder by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch(op) => {
                write!(f, "type mismatch for operator `{}`", op.mnemonic())
            }
            EvalError::TypeMismatchUnary(op) => {
                write!(f, "type mismatch for operator `{}`", op.mnemonic())
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// How an event is activated (paper §2.2).
///
/// Synchronous raises run all bound handlers to completion before the raiser
/// continues; asynchronous raises enqueue the event; timed raises enqueue it
/// with a virtual-clock delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaiseMode {
    /// Handlers execute before the raise returns.
    Sync,
    /// Handlers execute later, from the event queue.
    Async,
    /// Handlers execute after a delay; the **first argument** of the raise is
    /// the delay in virtual nanoseconds.
    Timed,
}

impl RaiseMode {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            RaiseMode::Sync => "sync",
            RaiseMode::Async => "async",
            RaiseMode::Timed => "timed",
        }
    }
}

impl fmt::Display for RaiseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One IR instruction.
///
/// All instructions read registers and (except stores, locks, and raises)
/// write a destination register.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = value`
    Const { dst: Reg, value: Value },
    /// `dst = src`
    Mov { dst: Reg, src: Reg },
    /// `dst = lhs <op> rhs`
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// `dst = <op> src`
    Un { op: UnOp, dst: Reg, src: Reg },
    /// `dst = globals[global]`
    LoadGlobal { dst: Reg, global: GlobalId },
    /// `globals[global] = src`
    StoreGlobal { global: GlobalId, src: Reg },
    /// Acquire the state lock guarding `global` (paper: "state maintenance
    /// (synchronization and locking) costs for global variables").
    Lock { global: GlobalId },
    /// Release the state lock guarding `global`.
    Unlock { global: GlobalId },
    /// Direct call of another IR function.
    Call {
        dst: Reg,
        func: FuncId,
        args: Vec<Reg>,
    },
    /// Call into a native (Rust) function slot.
    CallNative {
        dst: Reg,
        native: NativeId,
        args: Vec<Reg>,
    },
    /// Raise an event through the runtime. For [`RaiseMode::Timed`], the
    /// first argument is the delay in virtual nanoseconds.
    Raise {
        event: EventId,
        mode: RaiseMode,
        args: Vec<Reg>,
    },
    /// `dst = fresh zeroed byte buffer of length len`
    BytesNew { dst: Reg, len: Reg },
    /// `dst = len(bytes)`
    BytesLen { dst: Reg, bytes: Reg },
    /// `dst = bytes[index]` (as Int). Fails when out of bounds.
    BytesGet { dst: Reg, bytes: Reg, index: Reg },
    /// `bytes[index] = value & 0xff` (copy-on-write). Fails out of bounds.
    BytesSet { bytes: Reg, index: Reg, value: Reg },
    /// `dst = lhs ++ rhs`
    BytesConcat { dst: Reg, lhs: Reg, rhs: Reg },
    /// `dst = bytes[start..end]`. Fails when the range is invalid.
    BytesSlice {
        dst: Reg,
        bytes: Reg,
        start: Reg,
        end: Reg,
    },
    /// Superinstruction: `dst = lhs <op> imm` — a fused `Const`+`Bin` with
    /// the constant carried as an immediate operand (no register traffic).
    ///
    /// Produced by the fusion pass; costs exactly as many
    /// abstract instructions as its two constituents.
    BinImm {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        imm: Value,
    },
    /// Superinstruction: `globals[global] = globals[global] <op> src` — a
    /// fused `LoadGlobal`+`Bin`+`StoreGlobal` read-modify-write.
    GlobalFold {
        op: BinOp,
        global: GlobalId,
        src: Reg,
    },
}

impl Instr {
    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::LoadGlobal { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::CallNative { dst, .. }
            | Instr::BytesNew { dst, .. }
            | Instr::BytesLen { dst, .. }
            | Instr::BytesGet { dst, .. }
            | Instr::BytesConcat { dst, .. }
            | Instr::BytesSlice { dst, .. }
            | Instr::BinImm { dst, .. } => Some(*dst),
            Instr::StoreGlobal { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. }
            | Instr::Raise { .. }
            | Instr::BytesSet { .. }
            | Instr::GlobalFold { .. } => None,
        }
    }

    /// Calls `f` for every register read by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Instr::Const { .. }
            | Instr::LoadGlobal { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. } => {}
            Instr::Mov { src, .. } | Instr::Un { src, .. } => f(*src),
            Instr::Bin { lhs, rhs, .. } | Instr::BytesConcat { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Instr::BinImm { lhs, .. } => f(*lhs),
            Instr::StoreGlobal { src, .. } | Instr::GlobalFold { src, .. } => f(*src),
            Instr::Call { args, .. }
            | Instr::CallNative { args, .. }
            | Instr::Raise { args, .. } => {
                for &a in args {
                    f(a);
                }
            }
            Instr::BytesNew { len, .. } => f(*len),
            Instr::BytesLen { bytes, .. } => f(*bytes),
            Instr::BytesGet { bytes, index, .. } => {
                f(*bytes);
                f(*index);
            }
            Instr::BytesSet {
                bytes,
                index,
                value,
            } => {
                f(*bytes);
                f(*index);
                f(*value);
            }
            Instr::BytesSlice {
                bytes, start, end, ..
            } => {
                f(*bytes);
                f(*start);
                f(*end);
            }
        }
    }

    /// Rewrites every register the instruction reads through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Instr::Const { .. }
            | Instr::LoadGlobal { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. } => {}
            Instr::Mov { src, .. } | Instr::Un { src, .. } => *src = f(*src),
            Instr::Bin { lhs, rhs, .. } | Instr::BytesConcat { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Instr::BinImm { lhs, .. } => *lhs = f(*lhs),
            Instr::StoreGlobal { src, .. } | Instr::GlobalFold { src, .. } => *src = f(*src),
            Instr::Call { args, .. }
            | Instr::CallNative { args, .. }
            | Instr::Raise { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Instr::BytesNew { len, .. } => *len = f(*len),
            Instr::BytesLen { bytes, .. } => *bytes = f(*bytes),
            Instr::BytesGet { bytes, index, .. } => {
                *bytes = f(*bytes);
                *index = f(*index);
            }
            Instr::BytesSet {
                bytes,
                index,
                value,
            } => {
                *bytes = f(*bytes);
                *index = f(*index);
                *value = f(*value);
            }
            Instr::BytesSlice {
                bytes, start, end, ..
            } => {
                *bytes = f(*bytes);
                *start = f(*start);
                *end = f(*end);
            }
        }
    }

    /// Rewrites the destination register, if any, through `f`.
    pub fn map_def(&mut self, f: impl FnOnce(Reg) -> Reg) {
        match self {
            Instr::Const { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::LoadGlobal { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::CallNative { dst, .. }
            | Instr::BytesNew { dst, .. }
            | Instr::BytesLen { dst, .. }
            | Instr::BytesGet { dst, .. }
            | Instr::BytesConcat { dst, .. }
            | Instr::BytesSlice { dst, .. }
            | Instr::BinImm { dst, .. } => *dst = f(*dst),
            Instr::StoreGlobal { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. }
            | Instr::Raise { .. }
            | Instr::BytesSet { .. }
            | Instr::GlobalFold { .. } => {}
        }
    }

    /// True if removing this instruction (when its result is unused) changes
    /// program behaviour: stores, locks, calls, raises, and byte mutation
    /// are effectful; arithmetic that can fault (`Div`/`Rem`, byte indexing)
    /// is also treated as effectful so dead-code elimination preserves
    /// faults.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Instr::StoreGlobal { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. }
            | Instr::Call { .. }
            | Instr::CallNative { .. }
            | Instr::Raise { .. }
            | Instr::BytesSet { .. } => true,
            Instr::Bin { op, .. } | Instr::BinImm { op, .. } => {
                matches!(op, BinOp::Div | BinOp::Rem)
            }
            Instr::BytesGet { .. } | Instr::BytesSlice { .. } | Instr::BytesNew { .. } => true,
            // A fused form that writes a global is effectful regardless of
            // operator.
            Instr::GlobalFold { .. } => true,
            _ => false,
        }
    }

    /// True for the superinstruction forms the fusion pass produces: the
    /// ones that charge for more than one constituent.
    #[inline]
    pub fn is_fused(&self) -> bool {
        self.charge_units() > 1
    }

    /// Abstract cost of this instruction in interpreter charge units: 1 for
    /// plain instructions, the constituent count for fused superinstructions
    /// (so fuel and budget semantics are unchanged by fusion).
    #[inline]
    pub fn charge_units(&self) -> u64 {
        match self {
            Instr::BinImm { .. } => 2,     // const + bin
            Instr::GlobalFold { .. } => 3, // load + bin + store
            _ => 1,
        }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(crate::ids::BlockId),
    /// Conditional branch on a boolean register.
    Branch {
        cond: Reg,
        then_blk: crate::ids::BlockId,
        else_blk: crate::ids::BlockId,
    },
    /// Return from the function, optionally with a value.
    Ret(Option<Reg>),
}

impl Terminator {
    /// Calls `f` for each successor block.
    pub fn for_each_successor(&self, mut f: impl FnMut(crate::ids::BlockId)) {
        match self {
            Terminator::Jump(b) => f(*b),
            Terminator::Branch {
                then_blk, else_blk, ..
            } => {
                f(*then_blk);
                f(*else_blk);
            }
            Terminator::Ret(_) => {}
        }
    }

    /// Rewrites each successor block through `f`.
    pub fn map_successors(
        &mut self,
        mut f: impl FnMut(crate::ids::BlockId) -> crate::ids::BlockId,
    ) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch {
                then_blk, else_blk, ..
            } => {
                *then_blk = f(*then_blk);
                *else_blk = f(*else_blk);
            }
            Terminator::Ret(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_arithmetic() {
        assert_eq!(
            BinOp::Add.eval(&Value::Int(2), &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            BinOp::Mul.eval(&Value::Int(-4), &Value::Int(3)).unwrap(),
            Value::Int(-12)
        );
        assert_eq!(
            BinOp::Div.eval(&Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn binop_eval_division_by_zero() {
        assert_eq!(
            BinOp::Div.eval(&Value::Int(1), &Value::Int(0)),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            BinOp::Rem.eval(&Value::Int(1), &Value::Int(0)),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn binop_eval_comparisons() {
        assert_eq!(
            BinOp::Lt.eval(&Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            BinOp::Eq.eval(&Value::str("a"), &Value::str("a")).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            BinOp::Ne.eval(&Value::Unit, &Value::Int(0)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn binop_eval_type_mismatch() {
        assert!(BinOp::Add.eval(&Value::Bool(true), &Value::Int(1)).is_err());
        assert!(BinOp::And.eval(&Value::Int(1), &Value::Int(1)).is_err());
    }

    #[test]
    fn binop_wrapping_overflow() {
        assert_eq!(
            BinOp::Add
                .eval(&Value::Int(i64::MAX), &Value::Int(1))
                .unwrap(),
            Value::Int(i64::MIN)
        );
        // i64::MIN / -1 overflows with a plain `/`; wrapping_div must not panic.
        assert_eq!(
            BinOp::Div
                .eval(&Value::Int(i64::MIN), &Value::Int(-1))
                .unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn binop_shift_masks_amount() {
        assert_eq!(
            BinOp::Shl.eval(&Value::Int(1), &Value::Int(64)).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(&Value::Int(5)).unwrap(), Value::Int(-5));
        assert_eq!(
            UnOp::Not.eval(&Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(UnOp::BNot.eval(&Value::Int(0)).unwrap(), Value::Int(-1));
        assert!(UnOp::Not.eval(&Value::Int(0)).is_err());
    }

    #[test]
    fn def_and_uses() {
        let i = Instr::Bin {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        let mut uses = vec![];
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn map_uses_rewrites() {
        let mut i = Instr::Raise {
            event: EventId(0),
            mode: RaiseMode::Sync,
            args: vec![Reg(1), Reg(2)],
        };
        i.map_uses(|r| Reg(r.0 + 10));
        match i {
            Instr::Raise { args, .. } => assert_eq!(args, vec![Reg(11), Reg(12)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn side_effects_classification() {
        assert!(Instr::Lock {
            global: GlobalId(0)
        }
        .has_side_effect());
        assert!(!Instr::Mov {
            dst: Reg(0),
            src: Reg(1)
        }
        .has_side_effect());
        assert!(Instr::Bin {
            op: BinOp::Div,
            dst: Reg(0),
            lhs: Reg(1),
            rhs: Reg(2)
        }
        .has_side_effect());
        assert!(!Instr::Bin {
            op: BinOp::Add,
            dst: Reg(0),
            lhs: Reg(1),
            rhs: Reg(2)
        }
        .has_side_effect());
    }

    #[test]
    fn terminator_successors() {
        let mut succs = vec![];
        Terminator::Branch {
            cond: Reg(0),
            then_blk: crate::ids::BlockId(1),
            else_blk: crate::ids::BlockId(2),
        }
        .for_each_successor(|b| succs.push(b));
        assert_eq!(succs.len(), 2);
        let mut none = vec![];
        Terminator::Ret(None).for_each_successor(|b| none.push(b));
        assert!(none.is_empty());
    }
}
