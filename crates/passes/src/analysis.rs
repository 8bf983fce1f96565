//! Dataflow analyses shared by the passes: backward liveness,
//! reachability, one forward solver ([`forward`]), and the value facts it
//! computes for constant folding and dead-code elimination ([`Fact`]).

use pdo_ir::{BinOp, Function, Instr, Reg, Terminator, UnOp, Value};
use std::collections::VecDeque;

/// A bit set over registers of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `reg_count` registers.
    pub(crate) fn new(reg_count: u16) -> Self {
        RegSet {
            bits: vec![0; usize::from(reg_count).div_ceil(64)],
        }
    }

    /// Inserts `r`; returns `true` if it was newly inserted.
    pub(crate) fn insert(&mut self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !had
    }

    /// Removes `r`.
    pub(crate) fn remove(&mut self, r: Reg) {
        let (w, b) = (r.index() / 64, r.index() % 64);
        self.bits[w] &= !(1 << b);
    }

    /// Membership test.
    pub(crate) fn contains(&self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Unions `other` into `self`; returns `true` if `self` grew.
    pub(crate) fn union_with(&mut self, other: &RegSet) -> bool {
        let mut grew = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let before = *a;
            *a |= b;
            grew |= *a != before;
        }
        grew
    }
}

/// Registers used by a terminator.
fn term_uses(t: &Terminator, mut f: impl FnMut(Reg)) {
    match t {
        Terminator::Branch { cond, .. } => f(*cond),
        Terminator::Ret(Some(r)) => f(*r),
        _ => {}
    }
}

/// Computes backward liveness for `f` with a standard worklist algorithm:
/// the registers live on exit from each block.
pub(crate) fn liveness(f: &Function) -> Vec<RegSet> {
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
    live_out
}

/// Returns which blocks are reachable from the entry.
pub(crate) fn reachable_blocks(f: &Function) -> Vec<bool> {
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

/// Solves a forward dataflow problem over `f`'s CFG and returns each
/// block's entry state: `entry` at the entry block, and at every other
/// block a path reaches, the `meet` of its reached predecessors' exit
/// states, an exit state being its block's entry state stepped by `step`
/// through the block's instructions. A block no path reaches has no state
/// (`None`), so a state never needs a "not yet observed" element.
///
/// `meet(into, from)` merges `from` into `into` and says whether `into`
/// changed. Blocks are visited in index order, sweep after sweep, each
/// only when its entry state changed since its last visit, until none
/// does. That is a round-robin order: load forwarding's load step is not
/// monotone, so its result may depend on the order ([`crate::locks`]).
pub(crate) fn forward<S: Clone>(
    f: &Function,
    entry: S,
    mut meet: impl FnMut(&mut S, &S) -> bool,
    mut step: impl FnMut(&mut S, &Instr),
) -> Vec<Option<S>> {
    let n = f.blocks.len();
    let mut cur = entry.clone();
    let mut states = vec![None; n];
    states[0] = Some(entry);
    let mut changed = vec![false; n];
    changed[0] = true;
    while changed.contains(&true) {
        for b in 0..n {
            if !std::mem::take(&mut changed[b]) {
                continue;
            }
            cur.clone_from(states[b].as_ref().expect("a changed block has a state"));
            for instr in &f.blocks[b].instrs {
                step(&mut cur, instr);
            }
            f.blocks[b].term.for_each_successor(|s| {
                changed[s.index()] |= match &mut states[s.index()] {
                    Some(state) => meet(state, &cur),
                    unreached => {
                        *unreached = Some(cur.clone());
                        true
                    }
                };
            });
        }
    }
    states
}

/// A runtime type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
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
    fn of(v: &Value) -> Tag {
        match v {
            Value::Unit => Tag::Unit,
            Value::Int(_) => Tag::Int,
            Value::Bool(_) => Tag::Bool,
            Value::Bytes(_) => Tag::Bytes,
            Value::Str(_) => Tag::Str,
        }
    }
}

/// What is known of one register's value at a program point, on the path
/// where nothing before it faulted.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Fact {
    /// Exactly this value.
    Const(Value),
    /// Some value of this tag.
    Ty(Tag),
    /// Any value.
    Unknown,
}

impl Fact {
    /// The value, if known.
    pub(crate) fn as_const(&self) -> Option<&Value> {
        match self {
            Fact::Const(v) => Some(v),
            _ => None,
        }
    }

    /// The tag, if known: a constant's is its value's.
    pub(crate) fn tag(&self) -> Option<Tag> {
        match self {
            Fact::Const(v) => Some(Tag::of(v)),
            Fact::Ty(t) => Some(*t),
            Fact::Unknown => None,
        }
    }
}

/// The value facts at each block's entry, one per register, by
/// [`forward`]. Registers hold [`Value::Unit`] before their first write, so
/// every register but a parameter enters the function as `Const(Unit)`;
/// parameters are `Unknown`. At a join, equal facts stay, two facts of one
/// tag keep the tag, and anything else is `Unknown`. A block no path
/// reaches knows nothing: every fact in it is `Unknown`.
pub(crate) fn value_facts(f: &Function) -> Vec<Vec<Fact>> {
    let entry: Vec<Fact> = (0..f.reg_count)
        .map(|r| {
            if r < f.params {
                Fact::Unknown
            } else {
                Fact::Const(Value::Unit)
            }
        })
        .collect();
    let meet = |into: &mut Vec<Fact>, from: &Vec<Fact>| {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from) {
            if a != b {
                let met = match (a.tag(), b.tag()) {
                    (Some(x), Some(y)) if x == y => Fact::Ty(x),
                    _ => Fact::Unknown,
                };
                changed |= met != *a;
                *a = met;
            }
        }
        changed
    };
    forward(f, entry, meet, |facts, instr| step(facts, instr))
        .into_iter()
        .map(|s| s.unwrap_or_else(|| vec![Fact::Unknown; usize::from(f.reg_count)]))
        .collect()
}

/// Steps the value facts over one instruction. A `bin` or `un` of
/// constants that evaluates is a constant; any other gets its operator's
/// result tag, the tag its result has whenever it does not fault.
pub(crate) fn step(facts: &mut [Fact], instr: &Instr) {
    let fact = match instr {
        Instr::Const { value, .. } => Fact::Const(value.clone()),
        Instr::Mov { src, .. } => facts[src.index()].clone(),
        Instr::Bin { op, lhs, rhs, .. } => {
            let (a, b) = (&facts[lhs.index()], &facts[rhs.index()]);
            let folded = match (a.as_const(), b.as_const()) {
                (Some(a), Some(b)) => op.eval(a, b).ok(),
                _ => None,
            };
            folded.map_or(Fact::Ty(bin_tag(*op)), Fact::Const)
        }
        Instr::Un { op, src, .. } => {
            let folded = facts[src.index()].as_const().and_then(|v| op.eval(v).ok());
            folded.map_or(Fact::Ty(un_tag(*op)), Fact::Const)
        }
        Instr::BytesNew { .. } | Instr::BytesConcat { .. } | Instr::BytesSlice { .. } => {
            Fact::Ty(Tag::Bytes)
        }
        Instr::BytesLen { .. } | Instr::BytesGet { .. } => Fact::Ty(Tag::Int),
        // `bset` mutates the buffer its register holds without redefining
        // the register: the tag stays, the constant no longer describes it.
        Instr::BytesSet { bytes, .. } => {
            let held = &mut facts[bytes.index()];
            *held = held.tag().map_or(Fact::Unknown, Fact::Ty);
            return;
        }
        // Loads, calls and natives: unknown.
        _ => Fact::Unknown,
    };
    if let Some(d) = instr.def() {
        facts[d.index()] = fact;
    }
}

/// The tag of what `op` yields when it does not fault.
fn bin_tag(op: BinOp) -> Tag {
    use BinOp as B;
    match op {
        B::Eq | B::Ne | B::And | B::Or | B::Lt | B::Le | B::Gt | B::Ge => Tag::Bool,
        _ => Tag::Int,
    }
}

/// The tag of what `op` yields when it does not fault.
fn un_tag(op: UnOp) -> Tag {
    match op {
        UnOp::Neg | UnOp::BNot => Tag::Int,
        UnOp::Not => Tag::Bool,
    }
}

/// True when executing `instr` can never fault given the value facts
/// before it. Instructions that *can* fault must be preserved by dead-code
/// elimination even when their result is unused, so optimized code faults
/// exactly when the original would.
pub(crate) fn cannot_fault(instr: &Instr, facts: &[Fact]) -> bool {
    use BinOp as B;
    let tag = |r: Reg| facts[r.index()].tag();
    match instr {
        Instr::Const { .. } | Instr::Mov { .. } => true,
        Instr::Bin { op, lhs, rhs, .. } => match op {
            B::Eq | B::Ne => true,
            B::Div | B::Rem => false, // divide by zero
            B::And | B::Or => tag(*lhs) == Some(Tag::Bool) && tag(*rhs) == Some(Tag::Bool),
            _ => tag(*lhs) == Some(Tag::Int) && tag(*rhs) == Some(Tag::Int),
        },
        Instr::Un { op, src, .. } => tag(*src) == Some(un_tag(*op)),
        Instr::BytesLen { bytes, .. } => tag(*bytes) == Some(Tag::Bytes),
        // Everything else either has side effects or can fault (indexing,
        // allocation with a negative size, calls, raises, globals range).
        _ => false,
    }
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
               jump b1\n\
             b1:\n\
               r1 = const int 1\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        let live_out = liveness(&m.functions[0]);
        // The parameter is live into b1; what b1 defines is not.
        assert!(live_out[0].contains(Reg(0)));
        assert!(!live_out[0].contains(Reg(1)));
        // Nothing is live out of the returning block.
        assert!(!live_out[1].contains(Reg(2)));
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
        let live_out = liveness(&m.functions[0]);
        assert!(live_out[0].contains(Reg(0)));
        assert!(live_out[0].contains(Reg(1)));
        assert!(!live_out[0].contains(Reg(2)));
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
        let live_out = liveness(&m.functions[0]);
        // r1 is live around the loop, and r0 (the bound) into its header.
        assert!(live_out[0].contains(Reg(1)));
        assert!(live_out[2].contains(Reg(1)));
        assert!(live_out[0].contains(Reg(0)));
        assert!(!live_out[2].contains(Reg(4)));
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

    /// The value facts at the entry of `text`'s block `b`.
    fn facts_at(text: &str, b: usize) -> Vec<Fact> {
        let m = parse_module(text).unwrap();
        value_facts(&m.functions[0]).swap_remove(b)
    }

    #[test]
    fn value_facts_entry_initialization() {
        let facts = facts_at(
            "func @f(1) {\n\
             b0:\n\
               r1 = const int 5\n\
               ret r1\n\
             }\n",
            0,
        );
        assert_eq!(facts[0], Fact::Unknown); // param
        assert_eq!(facts[1], Fact::Const(Value::Unit)); // uninit reg
    }

    /// A diamond whose arms set `r2` to `then` and `else`.
    fn join_of(then: &str, other: &str) -> Fact {
        let text = format!(
            "func @f(1) {{\n\
             b0:\n\
               r1 = const bool true\n\
               br r1, b1, b2\n\
             b1:\n\
               r2 = const {then}\n\
               jump b3\n\
             b2:\n\
               r2 = const {other}\n\
               jump b3\n\
             b3:\n\
               ret r2\n\
             }}\n"
        );
        facts_at(&text, 3).swap_remove(2)
    }

    #[test]
    fn join_keeps_equal_constants_and_a_shared_tag() {
        assert_eq!(join_of("int 7", "int 7"), Fact::Const(Value::Int(7)));
        assert_eq!(join_of("int 1", "int 2"), Fact::Ty(Tag::Int));
        assert_eq!(join_of("int 1", "bool true"), Fact::Unknown);
        assert_eq!(join_of("bool true", "int 1"), Fact::Unknown);
    }

    #[test]
    fn a_faulting_fold_gets_its_operator_tag() {
        let m = parse_module(
            "func @f(0) {\n\
             b0:\n\
               r0 = const int 1\n\
               r1 = const int 0\n\
               r2 = div r0, r1\n\
               r3 = lt r0, r1\n\
               ret r2\n\
             }\n",
        )
        .unwrap();
        let f = &m.functions[0];
        let mut facts = value_facts(f).swap_remove(0);
        for i in &f.blocks[0].instrs {
            step(&mut facts, i);
        }
        assert_eq!(facts[2], Fact::Ty(Tag::Int));
        assert_eq!(facts[3], Fact::Const(Value::Bool(false)));
    }

    #[test]
    fn an_unreached_block_has_no_state() {
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
        let states = forward(&m.functions[0], (), |_, _| false, |_, _| {});
        assert_eq!(states, vec![Some(()), None, Some(())]);
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
        let mut facts = value_facts(f).swap_remove(0);
        for i in &f.blocks[0].instrs {
            step(&mut facts, i);
        }
        assert_eq!(facts[0], Fact::Ty(Tag::Bytes));
    }
}
