//! A convenience builder for constructing IR functions.

use crate::func::{Block, Function};
use crate::ids::{BlockId, EventId, FuncId, GlobalId, NativeId, Reg};
use crate::instr::{BinOp, Instr, RaiseMode, Terminator, UnOp};
use crate::value::Value;

/// Incrementally builds a [`Function`].
///
/// The builder starts with the entry block selected. Instructions are
/// appended to the *current* block; new blocks are created with
/// [`FunctionBuilder::new_block`] and selected with
/// [`FunctionBuilder::switch_to`]. Blocks that never receive a terminator
/// default to `ret` (no value) when [`FunctionBuilder::finish`] is called.
///
/// ```
/// use pdo_ir::{FunctionBuilder, Value, BinOp};
/// let mut b = FunctionBuilder::new("double", 1);
/// let two = b.const_value(Value::Int(2));
/// let out = b.bin(BinOp::Mul, b.param(0), two);
/// b.ret(Some(out));
/// let f = b.finish();
/// assert_eq!(f.params, 1);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: u16,
    reg_count: u16,
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
    current: usize,
}

impl FunctionBuilder {
    /// Starts a function with `params` parameters (available as
    /// `b.param(0..params)`).
    pub fn new(name: impl Into<String>, params: u16) -> Self {
        FunctionBuilder {
            name: name.into(),
            params,
            reg_count: params,
            blocks: vec![(Vec::new(), None)],
            current: 0,
        }
    }

    /// The `i`-th parameter register.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: u16) -> Reg {
        assert!(i < self.params, "parameter index {i} out of range");
        Reg(i)
    }

    /// Allocates a fresh register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.reg_count);
        self.reg_count = self.reg_count.checked_add(1).expect("too many registers");
        r
    }

    /// Creates a new, empty block and returns its id (does not select it).
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId::from_index(self.blocks.len() - 1)
    }

    /// Selects which block subsequent instructions are appended to.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(block.index() < self.blocks.len(), "unknown block {block}");
        self.current = block.index();
    }

    /// The currently selected block.
    pub fn current_block(&self) -> BlockId {
        BlockId::from_index(self.current)
    }

    /// Appends a raw instruction to the current block.
    pub fn push(&mut self, instr: Instr) {
        assert!(
            self.blocks[self.current].1.is_none(),
            "block {} already terminated",
            self.current
        );
        self.blocks[self.current].0.push(instr);
    }

    /// `dst = value`; returns `dst`.
    pub fn const_value(&mut self, value: Value) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Const { dst, value });
        dst
    }

    /// Shorthand for an integer constant.
    pub fn const_int(&mut self, v: i64) -> Reg {
        self.const_value(Value::Int(v))
    }

    /// `dst = src`; returns `dst`.
    pub fn mov(&mut self, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Mov { dst, src });
        dst
    }

    /// `dst = lhs <op> rhs`; returns `dst`.
    pub fn bin(&mut self, op: BinOp, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Bin { op, dst, lhs, rhs });
        dst
    }

    /// `dst = <op> src`; returns `dst`.
    pub fn un(&mut self, op: UnOp, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Un { op, dst, src });
        dst
    }

    /// `dst = globals[g]`; returns `dst`.
    pub fn load_global(&mut self, global: GlobalId) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::LoadGlobal { dst, global });
        dst
    }

    /// `globals[g] = src`.
    pub fn store_global(&mut self, global: GlobalId, src: Reg) {
        self.push(Instr::StoreGlobal { global, src });
    }

    /// Acquire the state lock for `global`.
    pub fn lock(&mut self, global: GlobalId) {
        self.push(Instr::Lock { global });
    }

    /// Release the state lock for `global`.
    pub fn unlock(&mut self, global: GlobalId) {
        self.push(Instr::Unlock { global });
    }

    /// Direct call; returns the result register.
    pub fn call(&mut self, func: FuncId, args: &[Reg]) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Call {
            dst,
            func,
            args: args.to_vec(),
        });
        dst
    }

    /// Native call; returns the result register.
    pub fn call_native(&mut self, native: NativeId, args: &[Reg]) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::CallNative {
            dst,
            native,
            args: args.to_vec(),
        });
        dst
    }

    /// Raise an event.
    pub fn raise(&mut self, event: EventId, mode: RaiseMode, args: &[Reg]) {
        self.push(Instr::Raise {
            event,
            mode,
            args: args.to_vec(),
        });
    }

    /// `dst = zeroed bytes of length len`; returns `dst`.
    pub fn bytes_new(&mut self, len: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::BytesNew { dst, len });
        dst
    }

    /// `dst = len(bytes)`; returns `dst`.
    pub fn bytes_len(&mut self, bytes: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::BytesLen { dst, bytes });
        dst
    }

    /// `dst = bytes[index]`; returns `dst`.
    pub fn bytes_get(&mut self, bytes: Reg, index: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::BytesGet { dst, bytes, index });
        dst
    }

    /// `bytes[index] = value`.
    pub fn bytes_set(&mut self, bytes: Reg, index: Reg, value: Reg) {
        self.push(Instr::BytesSet {
            bytes,
            index,
            value,
        });
    }

    /// `dst = lhs ++ rhs`; returns `dst`.
    pub fn bytes_concat(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::BytesConcat { dst, lhs, rhs });
        dst
    }

    /// `dst = bytes[start..end]`; returns `dst`.
    pub fn bytes_slice(&mut self, bytes: Reg, start: Reg, end: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::BytesSlice {
            dst,
            bytes,
            start,
            end,
        });
        dst
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Reg, then_blk: BlockId, else_blk: BlockId) {
        self.terminate(Terminator::Branch {
            cond,
            then_blk,
            else_blk,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Reg>) {
        self.terminate(Terminator::Ret(value));
    }

    fn terminate(&mut self, term: Terminator) {
        assert!(
            self.blocks[self.current].1.is_none(),
            "block {} already terminated",
            self.current
        );
        self.blocks[self.current].1 = Some(term);
    }

    /// Finalizes the function. Unterminated blocks become `ret` (no value).
    pub fn finish(self) -> Function {
        Function {
            name: self.name,
            params: self.params,
            reg_count: self.reg_count.max(self.params),
            blocks: self
                .blocks
                .into_iter()
                .map(|(instrs, term)| Block {
                    instrs,
                    term: term.unwrap_or(Terminator::Ret(None)),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_build() {
        let mut b = FunctionBuilder::new("f", 2);
        let s = b.bin(BinOp::Add, b.param(0), b.param(1));
        b.ret(Some(s));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.reg_count, 3);
        assert_eq!(f.blocks[0].term, Terminator::Ret(Some(Reg(2))));
    }

    #[test]
    fn multi_block_build() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.branch(b.param(0), t, e);
        b.switch_to(t);
        let one = b.const_int(1);
        b.ret(Some(one));
        b.switch_to(e);
        let zero = b.const_int(0);
        b.ret(Some(zero));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn unterminated_block_defaults_to_ret() {
        let b = FunctionBuilder::new("f", 0);
        let f = b.finish();
        assert_eq!(f.blocks[0].term, Terminator::Ret(None));
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn pushing_after_terminator_panics() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        b.const_int(1);
    }

    #[test]
    #[should_panic(expected = "parameter index")]
    fn param_out_of_range_panics() {
        let b = FunctionBuilder::new("f", 1);
        let _ = b.param(1);
    }
}
