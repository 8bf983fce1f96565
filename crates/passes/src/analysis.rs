//! Dataflow analyses shared by the passes: liveness, reachability, and the
//! constant lattice.

use pdo_ir::{Function, Instr, Reg, Terminator, Value};
use std::collections::VecDeque;

/// A bit set over registers of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `reg_count` registers.
    pub fn new(reg_count: u16) -> Self {
        RegSet {
            bits: vec![0; usize::from(reg_count).div_ceil(64)],
        }
    }

    /// Inserts `r`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !had
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: Reg) {
        let (w, b) = (r.index() / 64, r.index() % 64);
        self.bits[w] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Unions `other` into `self`; returns `true` if `self` grew.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut grew = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let before = *a;
            *a |= b;
            grew |= *a != before;
        }
        grew
    }
}

/// Per-block liveness sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<RegSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<RegSet>,
}

/// Registers used by a terminator.
fn term_uses(t: &Terminator, mut f: impl FnMut(Reg)) {
    match t {
        Terminator::Branch { cond, .. } => f(*cond),
        Terminator::Ret(Some(r)) => f(*r),
        _ => {}
    }
}

/// Computes backward liveness for `f` with a standard worklist algorithm.
pub fn liveness(f: &Function) -> Liveness {
    let n = f.blocks.len();
    let mut live_in = vec![RegSet::new(f.reg_count); n];
    let mut live_out = vec![RegSet::new(f.reg_count); n];
    let preds = f.predecessors();

    // One scratch set for the backward transfer: `dce` solves this on every
    // pipeline iteration, so a visit allocates nothing.
    let mut live = RegSet::new(f.reg_count);
    let mut work: VecDeque<usize> = (0..n).collect();
    while let Some(b) = work.pop_front() {
        // live_out[b] = union of live_in of successors. The sets only grow,
        // so the union lands on what the previous visit left there.
        f.blocks[b].term.for_each_successor(|s| {
            live_out[b].union_with(&live_in[s.index()]);
        });

        // Transfer backwards through the block.
        live.bits.copy_from_slice(&live_out[b].bits);
        term_uses(&f.blocks[b].term, |r| {
            live.insert(r);
        });
        for instr in f.blocks[b].instrs.iter().rev() {
            if let Some(d) = instr.def() {
                live.remove(d);
            }
            instr.for_each_use(|r| {
                live.insert(r);
            });
        }
        if live != live_in[b] {
            std::mem::swap(&mut live_in[b], &mut live);
            for &p in &preds[b] {
                if !work.contains(&p.index()) {
                    work.push_back(p.index());
                }
            }
        }
    }
    Liveness { live_in, live_out }
}

/// Returns which blocks are reachable from the entry.
pub fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if seen[b] {
            continue;
        }
        seen[b] = true;
        f.blocks[b].term.for_each_successor(|s| {
            if s.index() < f.blocks.len() && !seen[s.index()] {
                stack.push(s.index());
            }
        });
    }
    seen
}

/// The constant-propagation lattice for one register.
#[derive(Debug, Clone, PartialEq)]
pub enum Lattice {
    /// Not yet observed (top).
    Top,
    /// Known constant.
    Const(Value),
    /// Varies (bottom).
    Bottom,
}

impl Lattice {
    /// Lattice meet.
    pub fn meet(&self, other: &Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Top, x) | (x, Lattice::Top) => x.clone(),
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a.clone()),
            _ => Lattice::Bottom,
        }
    }

    /// The constant, if known.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Lattice::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// Abstract state: one lattice element per register.
pub type ConstState = Vec<Lattice>;

/// Meets `other` into `state`; returns `true` if `state` changed.
pub fn meet_states(state: &mut ConstState, other: &ConstState) -> bool {
    let mut changed = false;
    for (a, b) in state.iter_mut().zip(other) {
        let m = a.meet(b);
        if m != *a {
            *a = m;
            changed = true;
        }
    }
    changed
}

/// Applies one instruction's effect to the abstract constant state.
pub fn const_transfer(state: &mut ConstState, instr: &Instr) {
    match instr {
        Instr::Const { dst, value } => state[dst.index()] = Lattice::Const(value.clone()),
        Instr::Mov { dst, src } => state[dst.index()] = state[src.index()].clone(),
        Instr::Bin { op, dst, lhs, rhs } => {
            state[dst.index()] =
                match (state[lhs.index()].as_const(), state[rhs.index()].as_const()) {
                    (Some(a), Some(b)) => match op.eval(a, b) {
                        Ok(v) => Lattice::Const(v),
                        Err(_) => Lattice::Bottom,
                    },
                    _ => Lattice::Bottom,
                };
        }
        Instr::Un { op, dst, src } => {
            state[dst.index()] = match state[src.index()].as_const() {
                Some(v) => match op.eval(v) {
                    Ok(r) => Lattice::Const(r),
                    Err(_) => Lattice::Bottom,
                },
                None => Lattice::Bottom,
            };
        }
        // BytesSet mutates the buffer held in its `bytes` register without
        // redefining it; a previously-known constant no longer describes it.
        Instr::BytesSet { bytes, .. } => state[bytes.index()] = Lattice::Bottom,
        other => {
            if let Some(d) = other.def() {
                state[d.index()] = Lattice::Bottom;
            }
        }
    }
}

/// Computes block-entry constant states for `f` (worklist to fixpoint).
///
/// Registers hold [`Value::Unit`] before their first write, so at the entry
/// block every non-parameter register starts as `Const(Unit)` while
/// parameters start as `Bottom`.
pub fn const_states(f: &Function) -> Vec<ConstState> {
    let n = f.blocks.len();
    let top: ConstState = vec![Lattice::Top; usize::from(f.reg_count)];
    let mut in_states = vec![top; n];

    for (r, slot) in in_states[0].iter_mut().enumerate() {
        *slot = if r < usize::from(f.params) {
            Lattice::Bottom
        } else {
            Lattice::Const(Value::Unit)
        };
    }

    let mut work: VecDeque<usize> = VecDeque::from([0]);
    while let Some(b) = work.pop_front() {
        let mut state = in_states[b].clone();
        for instr in &f.blocks[b].instrs {
            const_transfer(&mut state, instr);
        }
        f.blocks[b].term.for_each_successor(|s| {
            if meet_states(&mut in_states[s.index()], &state) && !work.contains(&s.index()) {
                work.push_back(s.index());
            }
        });
    }
    in_states
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::parse::parse_module;

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(100);
        assert!(s.insert(Reg(70)));
        assert!(!s.insert(Reg(70)));
        assert!(s.contains(Reg(70)));
        s.remove(Reg(70));
        assert!(!s.contains(Reg(70)));
    }

    #[test]
    fn liveness_straight_line() {
        let m = parse_module(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 1\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        let lv = liveness(&m.functions[0]);
        // Nothing is live out of the only block.
        assert!(!lv.live_out[0].contains(Reg(2)));
        // The parameter is live in.
        assert!(lv.live_in[0].contains(Reg(0)));
        assert!(!lv.live_in[0].contains(Reg(1)));
    }

    #[test]
    fn liveness_across_branch() {
        let m = parse_module(
            "func @f(2) {\n\
             b0:\n\
               r2 = const bool true\n\
               br r2, b1, b2\n\
             b1:\n\
               ret r0\n\
             b2:\n\
               ret r1\n\
             }\n",
        )
        .unwrap();
        let lv = liveness(&m.functions[0]);
        assert!(lv.live_out[0].contains(Reg(0)));
        assert!(lv.live_out[0].contains(Reg(1)));
        assert!(lv.live_in[1].contains(Reg(0)));
        assert!(!lv.live_in[1].contains(Reg(1)));
    }

    #[test]
    fn liveness_loop_carried() {
        let m = parse_module(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 0\n\
               jump b1\n\
             b1:\n\
               r2 = lt r1, r0\n\
               br r2, b2, b3\n\
             b2:\n\
               r3 = const int 1\n\
               r4 = add r1, r3\n\
               r1 = mov r4\n\
               jump b1\n\
             b3:\n\
               ret r1\n\
             }\n",
        )
        .unwrap();
        let lv = liveness(&m.functions[0]);
        // r1 is live around the loop.
        assert!(lv.live_in[1].contains(Reg(1)));
        assert!(lv.live_out[2].contains(Reg(1)));
        // r0 (the bound) is live into the loop header.
        assert!(lv.live_in[1].contains(Reg(0)));
    }

    #[test]
    fn reachability() {
        let m = parse_module(
            "func @f(0) {\n\
             b0:\n\
               jump b2\n\
             b1:\n\
               ret\n\
             b2:\n\
               ret\n\
             }\n",
        )
        .unwrap();
        let r = reachable_blocks(&m.functions[0]);
        assert_eq!(r, vec![true, false, true]);
    }

    #[test]
    fn lattice_meet() {
        let c1 = Lattice::Const(Value::Int(1));
        let c2 = Lattice::Const(Value::Int(2));
        assert_eq!(Lattice::Top.meet(&c1), c1);
        assert_eq!(c1.meet(&c1), c1);
        assert_eq!(c1.meet(&c2), Lattice::Bottom);
        assert_eq!(Lattice::Bottom.meet(&c1), Lattice::Bottom);
    }

    #[test]
    fn const_states_entry_initialization() {
        let m = parse_module(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 5\n\
               ret r1\n\
             }\n",
        )
        .unwrap();
        let states = const_states(&m.functions[0]);
        assert_eq!(states[0][0], Lattice::Bottom); // param
        assert_eq!(states[0][1], Lattice::Const(Value::Unit)); // uninit reg
    }

    #[test]
    fn const_states_merge_conflicting() {
        let m = parse_module(
            "func @f(1) {\n\
             b0:\n\
               r1 = const bool true\n\
               br r1, b1, b2\n\
             b1:\n\
               r2 = const int 1\n\
               jump b3\n\
             b2:\n\
               r2 = const int 2\n\
               jump b3\n\
             b3:\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        let states = const_states(&m.functions[0]);
        assert_eq!(states[3][2], Lattice::Bottom);
    }

    #[test]
    fn const_states_merge_agreeing() {
        let m = parse_module(
            "func @f(1) {\n\
             b0:\n\
               r1 = const bool true\n\
               br r1, b1, b2\n\
             b1:\n\
               r2 = const int 7\n\
               jump b3\n\
             b2:\n\
               r2 = const int 7\n\
               jump b3\n\
             b3:\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        let states = const_states(&m.functions[0]);
        assert_eq!(states[3][2], Lattice::Const(Value::Int(7)));
    }

    #[test]
    fn bytes_set_invalidates_constant() {
        let m = parse_module(
            "func @f(0) {\n\
             b0:\n\
               r0 = const bytes 0000\n\
               r1 = const int 0\n\
               r2 = const int 9\n\
               bset r0, r1, r2\n\
               ret r0\n\
             }\n",
        )
        .unwrap();
        let f = &m.functions[0];
        let mut state = const_states(f)[0].clone();
        for i in &f.blocks[0].instrs {
            const_transfer(&mut state, i);
        }
        assert_eq!(state[0], Lattice::Bottom);
    }
}

/// A runtime type tag for the type lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// The unit value.
    Unit,
    /// 64-bit integer.
    Int,
    /// Boolean.
    Bool,
    /// Byte buffer.
    Bytes,
    /// String.
    Str,
}

impl Tag {
    /// The tag of a concrete value.
    pub fn of(v: &Value) -> Tag {
        match v {
            Value::Unit => Tag::Unit,
            Value::Int(_) => Tag::Int,
            Value::Bool(_) => Tag::Bool,
            Value::Bytes(_) => Tag::Bytes,
            Value::Str(_) => Tag::Str,
        }
    }
}

/// The type lattice for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TyLattice {
    /// Not yet observed.
    Top,
    /// Known type.
    Ty(Tag),
    /// Varies / unknown.
    Bottom,
}

impl TyLattice {
    /// Lattice meet.
    pub fn meet(self, other: TyLattice) -> TyLattice {
        match (self, other) {
            (TyLattice::Top, x) | (x, TyLattice::Top) => x,
            (TyLattice::Ty(a), TyLattice::Ty(b)) if a == b => TyLattice::Ty(a),
            _ => TyLattice::Bottom,
        }
    }

    /// The known tag, if any.
    pub fn tag(self) -> Option<Tag> {
        match self {
            TyLattice::Ty(t) => Some(t),
            _ => None,
        }
    }
}

/// Per-register type state.
pub type TyState = Vec<TyLattice>;

fn ty_transfer(state: &mut TyState, instr: &Instr) {
    use pdo_ir::BinOp as B;
    use pdo_ir::UnOp as U;
    let get = |state: &TyState, r: Reg| state[r.index()];
    let result = match instr {
        Instr::Const { value, .. } => Some(TyLattice::Ty(Tag::of(value))),
        Instr::Mov { src, .. } => Some(get(state, *src)),
        // The state describes values on the non-faulting continuation: if a
        // `mul` completes at all, its result is an Int, so the result type
        // is determined by the operator alone.
        Instr::Bin { op, .. } => {
            let out = match op {
                B::Eq | B::Ne | B::And | B::Or | B::Lt | B::Le | B::Gt | B::Ge => Tag::Bool,
                _ => Tag::Int,
            };
            Some(TyLattice::Ty(out))
        }
        Instr::Un { op, .. } => {
            let out = match op {
                U::Neg | U::BNot => Tag::Int,
                U::Not => Tag::Bool,
            };
            Some(TyLattice::Ty(out))
        }
        Instr::BytesNew { .. } | Instr::BytesConcat { .. } | Instr::BytesSlice { .. } => {
            Some(TyLattice::Ty(Tag::Bytes))
        }
        Instr::BytesLen { .. } | Instr::BytesGet { .. } => Some(TyLattice::Ty(Tag::Int)),
        _ => Some(TyLattice::Bottom), // loads, calls, natives: unknown
    };
    if let (Some(d), Some(r)) = (instr.def(), result) {
        state[d.index()] = r;
    }
}

/// Computes block-entry type states (worklist to fixpoint). Registers hold
/// `Unit` before their first write, so non-parameter registers start as
/// `Ty(Unit)` at the entry; parameters are `Bottom`.
pub fn type_states(f: &Function) -> Vec<TyState> {
    let n = f.blocks.len();
    let top: TyState = vec![TyLattice::Top; usize::from(f.reg_count)];
    let mut in_states = vec![top; n];
    for (r, slot) in in_states[0].iter_mut().enumerate() {
        *slot = if r < usize::from(f.params) {
            TyLattice::Bottom
        } else {
            TyLattice::Ty(Tag::Unit)
        };
    }
    let mut work: VecDeque<usize> = VecDeque::from([0]);
    while let Some(b) = work.pop_front() {
        let mut state = in_states[b].clone();
        for instr in &f.blocks[b].instrs {
            ty_transfer(&mut state, instr);
        }
        f.blocks[b].term.for_each_successor(|s| {
            let mut changed = false;
            for (cur, new) in in_states[s.index()].iter_mut().zip(&state) {
                let m = cur.meet(*new);
                if m != *cur {
                    *cur = m;
                    changed = true;
                }
            }
            if changed && !work.contains(&s.index()) {
                work.push_back(s.index());
            }
        });
    }
    in_states
}

/// True when executing `instr` can never fault given the type state before
/// it. Instructions that *can* fault must be preserved by dead-code
/// elimination even when their result is unused, so optimized code faults
/// exactly when the original would.
pub fn cannot_fault(instr: &Instr, state: &TyState) -> bool {
    use pdo_ir::BinOp as B;
    use pdo_ir::UnOp as U;
    let tag = |r: Reg| state[r.index()].tag();
    match instr {
        Instr::Const { .. } | Instr::Mov { .. } => true,
        Instr::Bin { op, lhs, rhs, .. } => match op {
            B::Eq | B::Ne => true,
            B::Div | B::Rem => false, // divide by zero
            B::And | B::Or => tag(*lhs) == Some(Tag::Bool) && tag(*rhs) == Some(Tag::Bool),
            _ => tag(*lhs) == Some(Tag::Int) && tag(*rhs) == Some(Tag::Int),
        },
        Instr::Un { op, src, .. } => match op {
            U::Neg | U::BNot => tag(*src) == Some(Tag::Int),
            U::Not => tag(*src) == Some(Tag::Bool),
        },
        Instr::BytesLen { bytes, .. } => tag(*bytes) == Some(Tag::Bytes),
        // Everything else either has side effects or can fault (indexing,
        // allocation with a negative size, calls, raises, globals range).
        _ => false,
    }
}

/// Applies `ty_transfer` for external callers stepping through a block.
pub fn type_step(state: &mut TyState, instr: &Instr) {
    ty_transfer(state, instr);
}
