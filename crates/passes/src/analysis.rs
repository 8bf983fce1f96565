//! Dataflow analyses shared by the passes: backward liveness,
//! reachability, one forward solver ([`forward`]), and the two kinds of
//! facts it computes: per register a value ([`Fact`]) for constant folding
//! and a type tag ([`Tag`]) for dead-code elimination.
//!
//! A solve allocates a fixed handful of blocks however many blocks the
//! function has: [`forward`] keeps every block's entry state in one
//! `blocks × width` table of `Copy` cells, and [`liveness`] keeps every
//! block's live-out set in one bit table ([`RegSets`]).

use pdo_ir::{BinOp, Function, Instr, Reg, Terminator, UnOp, Value};

/// Bit sets over the registers of one function, `rows` of them in one
/// allocation: [`liveness`] keeps block `b`'s live-out set in row `b`.
pub(crate) struct RegSets {
    /// `u64` words per row.
    words: usize,
    bits: Vec<u64>,
}

impl RegSets {
    /// `rows` empty sets sized for `reg_count` registers.
    pub(crate) fn new(rows: usize, reg_count: u16) -> Self {
        let words = usize::from(reg_count).div_ceil(64);
        RegSets {
            words,
            bits: vec![0; rows * words],
        }
    }

    /// The word of row `row` that holds `r`, and `r`'s bit in it.
    fn bit(&self, row: usize, r: Reg) -> (usize, u64) {
        debug_assert!(r.index() < self.words * 64, "{r:?} beyond the sets");
        (row * self.words + r.index() / 64, 1 << (r.index() % 64))
    }

    /// Inserts `r` into row `row`.
    pub(crate) fn insert(&mut self, row: usize, r: Reg) {
        let (w, bit) = self.bit(row, r);
        self.bits[w] |= bit;
    }

    /// Removes `r` from row `row`.
    pub(crate) fn remove(&mut self, row: usize, r: Reg) {
        let (w, bit) = self.bit(row, r);
        self.bits[w] &= !bit;
    }

    /// Whether row `row` holds `r`.
    pub(crate) fn contains(&self, row: usize, r: Reg) -> bool {
        let (w, bit) = self.bit(row, r);
        self.bits[w] & bit != 0
    }

    /// Empties row `row`.
    pub(crate) fn clear(&mut self, row: usize) {
        self.bits[row * self.words..][..self.words].fill(0);
    }

    /// The words of row `row`.
    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..][..self.words]
    }

    /// Copies row `from` over row `into`.
    fn copy_row(&mut self, into: usize, from: usize) {
        self.bits.copy_within(
            from * self.words..(from + 1) * self.words,
            into * self.words,
        );
    }

    /// Unions row `from` into row `into`.
    fn union_row(&mut self, into: usize, from: usize) {
        for w in 0..self.words {
            self.bits[into * self.words + w] |= self.bits[from * self.words + w];
        }
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

/// Computes backward liveness for `f`: row `b` of the result holds the
/// registers live on exit from block `b`. The blocks are swept last to
/// first until a sweep grows no live-in set; the sets only grow, so any
/// order reaches the same least fixed point.
pub(crate) fn liveness(f: &Function) -> RegSets {
    let n = f.blocks.len();
    // Rows 0..n are the live-out sets, n..2n the live-in sets and 2n the
    // transfer's scratch set: one allocation for the whole solve.
    let mut sets = RegSets::new(2 * n + 1, f.reg_count);
    let scratch = 2 * n;
    loop {
        let mut grew = false;
        for (b, block) in f.blocks.iter().enumerate().rev() {
            // live_out[b] is the union of its successors' live-in sets.
            // They only grow, so the union lands on what the previous
            // sweep left there.
            block
                .term
                .for_each_successor(|s| sets.union_row(b, n + s.index()));
            sets.copy_row(scratch, b);
            term_uses(&block.term, |r| sets.insert(scratch, r));
            for instr in block.instrs.iter().rev() {
                if let Some(d) = instr.def() {
                    sets.remove(scratch, d);
                }
                instr.for_each_use(|r| sets.insert(scratch, r));
            }
            if sets.row(scratch) != sets.row(n + b) {
                sets.copy_row(n + b, scratch);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    sets.bits.truncate(n * sets.words);
    sets
}

/// Sets `seen[b]` to whether block `b` is reachable from the entry, with
/// `stack` as the work list. Both are overwritten, so a caller that asks
/// repeatedly keeps their blocks.
pub(crate) fn reachable_blocks(f: &Function, seen: &mut Vec<bool>, stack: &mut Vec<usize>) {
    seen.clear();
    seen.resize(f.blocks.len(), false);
    stack.clear();
    stack.push(0);
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
}

/// Every block's entry state from one [`forward`] solve: `width` cells per
/// block, in one table.
pub(crate) struct States<T> {
    width: usize,
    cells: Vec<T>,
}

impl<T> States<T> {
    /// The state at block `b`'s entry.
    pub(crate) fn entry(&self, b: usize) -> &[T] {
        &self.cells[b * self.width..][..self.width]
    }
}

/// Solves a forward dataflow problem over `f`'s CFG and returns each
/// block's entry state: `entry` at the entry block, and at every other
/// block a path reaches, the `meet` of its reached predecessors' exit
/// states, an exit state being its block's entry state stepped by `step`
/// through the block's instructions. A state is `entry.len()` cells; every
/// cell of a block no path reaches is `unreached`, so a state never needs
/// a "not yet observed" element.
///
/// `meet(into, from)` merges one cell of a predecessor's exit state into
/// the same cell of the entry state and says whether it changed. Blocks are
/// visited in index order, sweep after sweep, each only when its entry
/// state changed since its last visit, until none does. That is a
/// round-robin order: load forwarding's load step is not monotone, so its
/// result may depend on the order ([`crate::locks`]).
pub(crate) fn forward<T: Copy>(
    f: &Function,
    entry: Vec<T>,
    unreached: T,
    mut meet: impl FnMut(&mut T, T) -> bool,
    mut step: impl FnMut(&mut [T], &Instr),
) -> States<T> {
    let (n, width) = (f.blocks.len(), entry.len());
    let mut cells = vec![unreached; n * width];
    cells[..width].copy_from_slice(&entry);
    // The state being stepped through a block; it starts as the entry's.
    let mut cur = entry;
    let mut reached = vec![false; n];
    reached[0] = true;
    let mut changed = vec![false; n];
    changed[0] = true;
    while changed.contains(&true) {
        for b in 0..n {
            if !std::mem::take(&mut changed[b]) {
                continue;
            }
            cur.copy_from_slice(&cells[b * width..][..width]);
            for instr in &f.blocks[b].instrs {
                step(&mut cur, instr);
            }
            f.blocks[b].term.for_each_successor(|s| {
                let s = s.index();
                let state = &mut cells[s * width..][..width];
                if std::mem::replace(&mut reached[s], true) {
                    for (into, from) in state.iter_mut().zip(&cur) {
                        changed[s] |= meet(into, *from);
                    }
                } else {
                    state.copy_from_slice(&cur);
                    changed[s] = true;
                }
            });
        }
    }
    States { width, cells }
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
/// where nothing before it faulted: exactly one value (the first five
/// variants), some value of one tag, or nothing. A unit, int or bool
/// constant is held inline; a byte or string constant is its index in the
/// [`Pool`] of the solve that made the fact, which holds each value once,
/// so two facts are equal exactly when what they know is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fact {
    /// Exactly the unit value.
    Unit,
    /// Exactly this integer.
    Int(i64),
    /// Exactly this boolean.
    Bool(bool),
    /// Exactly the byte buffer at this index of the pool.
    Bytes(u32),
    /// Exactly the string at this index of the pool.
    Str(u32),
    /// Some value of this tag.
    Ty(Tag),
    /// Any value.
    Unknown,
}

impl Fact {
    /// The tag, if known: a constant's is its value's.
    pub(crate) fn tag(self) -> Option<Tag> {
        match self {
            Fact::Unit => Some(Tag::Unit),
            Fact::Int(_) => Some(Tag::Int),
            Fact::Bool(_) => Some(Tag::Bool),
            Fact::Bytes(_) => Some(Tag::Bytes),
            Fact::Str(_) => Some(Tag::Str),
            Fact::Ty(t) => Some(t),
            Fact::Unknown => None,
        }
    }

    /// The meet at a join: equal facts stay, two facts of one tag keep the
    /// tag, and anything else is `Unknown`. Says whether `self` changed.
    fn meet(&mut self, from: Fact) -> bool {
        if *self == from {
            return false;
        }
        let met = match (self.tag(), from.tag()) {
            (Some(x), Some(y)) if x == y => Fact::Ty(x),
            _ => Fact::Unknown,
        };
        std::mem::replace(self, met) != met
    }
}

/// The byte and string `const` values of one function, each value once:
/// a [`Fact`] knows one of them by its index here. `eval` only ever yields
/// ints and bools, so these are all the buffers and strings a fact can
/// know.
pub(crate) struct Pool(Vec<Value>);

/// The value facts at each block's entry, one per register, by
/// [`forward`], and the pool their constants index. Registers hold
/// [`Value::Unit`] before their first write, so every register but a
/// parameter enters the function as `Fact::Unit`; parameters are
/// `Unknown`. At a join, [`Fact::meet`]. A block no path reaches knows
/// nothing: every fact in it is `Unknown`.
pub(crate) fn value_facts(f: &Function) -> (Pool, States<Fact>) {
    let mut pool = Pool(Vec::new());
    for instr in f.blocks.iter().flat_map(|b| &b.instrs) {
        if let Instr::Const {
            value: v @ (Value::Bytes(_) | Value::Str(_)),
            ..
        } = instr
        {
            if !pool.0.contains(v) {
                pool.0.push(v.clone());
            }
        }
    }
    let entry = (0..f.reg_count)
        .map(|r| {
            if r < f.params {
                Fact::Unknown
            } else {
                Fact::Unit
            }
        })
        .collect();
    let states = forward(f, entry, Fact::Unknown, Fact::meet, |facts, instr| {
        pool.step(facts, instr)
    });
    (pool, states)
}

impl Pool {
    /// The value `fact` knows exactly, if it knows one.
    pub(crate) fn value(&self, fact: Fact) -> Option<Value> {
        match fact {
            Fact::Unit => Some(Value::Unit),
            Fact::Int(i) => Some(Value::Int(i)),
            Fact::Bool(b) => Some(Value::Bool(b)),
            Fact::Bytes(i) | Fact::Str(i) => Some(self.0[i as usize].clone()),
            Fact::Ty(_) | Fact::Unknown => None,
        }
    }

    /// The fact that a register holds exactly `v`. A buffer or string not
    /// in the pool (no instruction of the function makes one) keeps its tag
    /// only.
    fn fact(&self, v: &Value) -> Fact {
        let pooled = || self.0.iter().position(|p| p == v).map(|i| i as u32);
        match v {
            Value::Unit => Fact::Unit,
            Value::Int(i) => Fact::Int(*i),
            Value::Bool(b) => Fact::Bool(*b),
            Value::Bytes(_) => pooled().map_or(Fact::Ty(Tag::Bytes), Fact::Bytes),
            Value::Str(_) => pooled().map_or(Fact::Ty(Tag::Str), Fact::Str),
        }
    }

    /// Steps the value facts over one instruction. A `bin` or `un` of
    /// constants that evaluates is a constant; any other gets its
    /// operator's result tag, the tag its result has whenever it does not
    /// fault.
    pub(crate) fn step(&self, facts: &mut [Fact], instr: &Instr) {
        let fact = match instr {
            Instr::Const { value, .. } => self.fact(value),
            Instr::Mov { src, .. } => facts[src.index()],
            Instr::Bin { op, lhs, rhs, .. } => {
                let operands = (
                    self.value(facts[lhs.index()]),
                    self.value(facts[rhs.index()]),
                );
                match operands {
                    (Some(a), Some(b)) => op.eval(&a, &b).ok(),
                    _ => None,
                }
                .map_or(Fact::Ty(bin_tag(*op)), |v| self.fact(&v))
            }
            Instr::Un { op, src, .. } => self
                .value(facts[src.index()])
                .and_then(|v| op.eval(&v).ok())
                .map_or(Fact::Ty(un_tag(*op)), |v| self.fact(&v)),
            // `bset` mutates the buffer its register holds without
            // redefining the register: the tag stays, the constant no
            // longer describes it.
            Instr::BytesSet { bytes, .. } => {
                let held = &mut facts[bytes.index()];
                *held = held.tag().map_or(Fact::Unknown, Fact::Ty);
                return;
            }
            other => def_tag(other).map_or(Fact::Unknown, Fact::Ty),
        };
        if let Some(d) = instr.def() {
            facts[d.index()] = fact;
        }
    }
}

/// The type tags at each block's entry, one per register: the tags of what
/// [`value_facts`] computes, without the constants. `None` is a register
/// of unknown tag, and so is every register of a block no path reaches.
///
/// Dead-code elimination proves instructions unable to fault with these
/// alone: a constant's tag is all [`cannot_fault`] reads, and a folded
/// `bin` or `un` has its operator's result tag, so stepping tags gives the
/// tags of the stepped facts.
pub(crate) fn tag_facts(f: &Function) -> States<Option<Tag>> {
    let entry = (0..f.reg_count)
        .map(|r| (r >= f.params).then_some(Tag::Unit))
        .collect();
    // Two different tags, or a tag and nothing, meet in nothing.
    let meet = |into: &mut Option<Tag>, from| *into != from && into.take().is_some();
    forward(f, entry, None, meet, step_tags)
}

/// Steps the type tags over one instruction.
pub(crate) fn step_tags(tags: &mut [Option<Tag>], instr: &Instr) {
    match instr {
        Instr::Mov { dst, src } => tags[dst.index()] = tags[src.index()],
        // `bset` mutates its buffer in place: the tag stays.
        Instr::BytesSet { .. } => {}
        other => {
            if let Some(d) = other.def() {
                tags[d.index()] = def_tag(other);
            }
        }
    }
}

/// The tag of what `instr` (neither a `mov` nor a `bset`) defines whenever
/// it does not fault, if one is known.
fn def_tag(instr: &Instr) -> Option<Tag> {
    match instr {
        Instr::Const { value, .. } => Some(Tag::of(value)),
        Instr::Bin { op, .. } => Some(bin_tag(*op)),
        Instr::Un { op, .. } => Some(un_tag(*op)),
        Instr::BytesNew { .. } | Instr::BytesConcat { .. } | Instr::BytesSlice { .. } => {
            Some(Tag::Bytes)
        }
        Instr::BytesLen { .. } | Instr::BytesGet { .. } => Some(Tag::Int),
        // Loads, calls and natives: unknown.
        _ => None,
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

/// True when executing `instr` can never fault given the type `tags`
/// before it. Instructions that *can* fault must be preserved by dead-code
/// elimination even when their result is unused, so optimized code faults
/// exactly when the original would.
pub(crate) fn cannot_fault(instr: &Instr, tags: &[Option<Tag>]) -> bool {
    use BinOp as B;
    let tag = |r: Reg| tags[r.index()];
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

    /// The solver and facts this module shipped before its table was flat:
    /// one `Vec` of facts per block, each fact owning its constant, and an
    /// `Option` per block for "not reached yet". The flat solver must agree
    /// with it at every block entry, and dead-code elimination on tags with
    /// dead-code elimination on these full facts.
    mod reference {
        use super::super::{bin_tag, cannot_fault, liveness, un_tag, Tag};
        use pdo_ir::{Function, Instr, Terminator, Value};

        /// What is known of one register's value.
        #[derive(Debug, Clone, PartialEq)]
        pub(super) enum Fact {
            Const(Value),
            Ty(Tag),
            Unknown,
        }

        impl Fact {
            fn as_const(&self) -> Option<&Value> {
                match self {
                    Fact::Const(v) => Some(v),
                    _ => None,
                }
            }

            pub(super) fn tag(&self) -> Option<Tag> {
                match self {
                    Fact::Const(v) => Some(Tag::of(v)),
                    Fact::Ty(t) => Some(*t),
                    Fact::Unknown => None,
                }
            }
        }

        /// Each block's entry state, `None` where no path reaches.
        fn forward<S: Clone>(
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

        pub(super) fn value_facts(f: &Function) -> Vec<Vec<Fact>> {
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

        fn step(facts: &mut [Fact], instr: &Instr) {
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
                Instr::BytesSet { bytes, .. } => {
                    let held = &mut facts[bytes.index()];
                    *held = held.tag().map_or(Fact::Unknown, Fact::Ty);
                    return;
                }
                _ => Fact::Unknown,
            };
            if let Some(d) = instr.def() {
                facts[d.index()] = fact;
            }
        }

        /// Dead-code elimination that steps these full facts.
        pub(super) fn dce_function(f: &mut Function) -> bool {
            let mut live = liveness(f);
            let entry = value_facts(f);
            let mut changed = false;
            for (b, (block, mut facts)) in f.blocks.iter_mut().zip(entry).enumerate() {
                let removable: Vec<bool> = block
                    .instrs
                    .iter()
                    .map(|instr| {
                        let tags: Vec<Option<Tag>> = facts.iter().map(Fact::tag).collect();
                        let removable = !instr.has_side_effect() && cannot_fault(instr, &tags);
                        step(&mut facts, instr);
                        removable
                    })
                    .collect();
                match &block.term {
                    Terminator::Branch { cond, .. } => live.insert(b, *cond),
                    Terminator::Ret(Some(r)) => live.insert(b, *r),
                    _ => {}
                }
                let mut keep = vec![true; block.instrs.len()];
                for (i, instr) in block.instrs.iter().enumerate().rev() {
                    let dead = instr.def().is_some_and(|d| !live.contains(b, d));
                    if dead && removable[i] {
                        keep[i] = false;
                        changed = true;
                        continue;
                    }
                    if let Some(d) = instr.def() {
                        live.remove(b, d);
                    }
                    instr.for_each_use(|r| live.insert(b, r));
                }
                let mut it = keep.iter();
                block.instrs.retain(|_| *it.next().expect("keep mask"));
            }
            changed
        }
    }

    /// A fact of the solve that made `pool`, in the reference's terms.
    fn as_reference(pool: &Pool, fact: Fact) -> reference::Fact {
        match (pool.value(fact), fact) {
            (Some(v), _) => reference::Fact::Const(v),
            (None, Fact::Ty(t)) => reference::Fact::Ty(t),
            (None, _) => reference::Fact::Unknown,
        }
    }

    const STRAIGHT: &str = "func @f(1) {\n\
         b0:\n\
           jump b1\n\
         b1:\n\
           r1 = const int 1\n\
           r2 = add r0, r1\n\
           ret r2\n\
         }\n";

    const BRANCH: &str = "func @f(2) {\n\
         b0:\n\
           r2 = const bool true\n\
           br r2, b1, b2\n\
         b1:\n\
           ret r0\n\
         b2:\n\
           ret r1\n\
         }\n";

    const LOOP: &str = "func @f(1) {\n\
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
         }\n";

    const UNREACHED: &str = "func @f(0) {\n\
         b0:\n\
           jump b2\n\
         b1:\n\
           ret\n\
         b2:\n\
           ret\n\
         }\n";

    const FAULTING_FOLD: &str = "func @f(0) {\n\
         b0:\n\
           r0 = const int 1\n\
           r1 = const int 0\n\
           r2 = div r0, r1\n\
           r3 = lt r0, r1\n\
           ret r2\n\
         }\n";

    const BSET: &str = "func @f(0) {\n\
         b0:\n\
           r0 = const bytes 0000\n\
           r1 = const int 0\n\
           r2 = const int 9\n\
           bset r0, r1, r2\n\
           ret r0\n\
         }\n";

    /// A diamond whose arms set `r2` to `then` and `other`.
    fn diamond(then: &str, other: &str) -> String {
        format!(
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
        )
    }

    /// The arms [`join_keeps_equal_constants_and_a_shared_tag`] joins, and
    /// two pairs of pooled constants.
    const ARMS: [(&str, &str); 6] = [
        ("int 7", "int 7"),
        ("int 1", "int 2"),
        ("int 1", "bool true"),
        ("bool true", "int 1"),
        ("bytes 0a0b", "bytes 0a0b"),
        ("bytes 0a0b", "bytes 0a0c"),
    ];

    #[test]
    fn regsets_basics() {
        let mut s = RegSets::new(2, 100);
        s.insert(1, Reg(70));
        assert!(s.contains(1, Reg(70)));
        assert!(!s.contains(0, Reg(70)));
        s.remove(1, Reg(70));
        assert!(!s.contains(1, Reg(70)));
        s.insert(0, Reg(3));
        s.clear(0);
        assert!(!s.contains(0, Reg(3)));
    }

    #[test]
    fn liveness_straight_line() {
        let m = parse_module(STRAIGHT).unwrap();
        let live_out = liveness(&m.functions[0]);
        // The parameter is live into b1; what b1 defines is not.
        assert!(live_out.contains(0, Reg(0)));
        assert!(!live_out.contains(0, Reg(1)));
        // Nothing is live out of the returning block.
        assert!(!live_out.contains(1, Reg(2)));
    }

    #[test]
    fn liveness_across_branch() {
        let m = parse_module(BRANCH).unwrap();
        let live_out = liveness(&m.functions[0]);
        assert!(live_out.contains(0, Reg(0)));
        assert!(live_out.contains(0, Reg(1)));
        assert!(!live_out.contains(0, Reg(2)));
    }

    #[test]
    fn liveness_loop_carried() {
        let m = parse_module(LOOP).unwrap();
        let live_out = liveness(&m.functions[0]);
        // r1 is live around the loop, and r0 (the bound) into its header.
        assert!(live_out.contains(0, Reg(1)));
        assert!(live_out.contains(2, Reg(1)));
        assert!(live_out.contains(0, Reg(0)));
        assert!(!live_out.contains(2, Reg(4)));
    }

    #[test]
    fn reachability() {
        let m = parse_module(UNREACHED).unwrap();
        let (mut seen, mut stack) = (vec![true; 5], vec![4]);
        reachable_blocks(&m.functions[0], &mut seen, &mut stack);
        assert_eq!(seen, [true, false, true]);
    }

    /// The value facts at the entry of `text`'s block `b`, in the
    /// reference's terms.
    fn facts_at(text: &str, b: usize) -> Vec<reference::Fact> {
        let m = parse_module(text).unwrap();
        let (pool, facts) = value_facts(&m.functions[0]);
        let entry = facts.entry(b).iter();
        entry.map(|&fact| as_reference(&pool, fact)).collect()
    }

    #[test]
    fn value_facts_entry_initialization() {
        let m = parse_module("func @f(1) {\nb0:\n  r1 = const int 5\n  ret r1\n}\n").unwrap();
        let (_, facts) = value_facts(&m.functions[0]);
        assert_eq!(facts.entry(0), [Fact::Unknown, Fact::Unit]); // param, uninit reg
    }

    #[test]
    fn join_keeps_equal_constants_and_a_shared_tag() {
        let join_of = |(then, other)| facts_at(&diamond(then, other), 3).swap_remove(2);
        use reference::Fact as F;
        let want = [
            F::Const(Value::Int(7)),
            F::Ty(Tag::Int),
            F::Unknown,
            F::Unknown,
            F::Const(Value::bytes(vec![10, 11])),
            F::Ty(Tag::Bytes),
        ];
        for (arms, want) in ARMS.into_iter().zip(want) {
            assert_eq!(join_of(arms), want, "{arms:?}");
        }
    }

    #[test]
    fn a_faulting_fold_gets_its_operator_tag() {
        let m = parse_module(FAULTING_FOLD).unwrap();
        let f = &m.functions[0];
        let (pool, facts) = value_facts(f);
        let mut state = facts.entry(0).to_vec();
        for i in &f.blocks[0].instrs {
            pool.step(&mut state, i);
        }
        assert_eq!(state[2], Fact::Ty(Tag::Int));
        assert_eq!(state[3], Fact::Bool(false));
    }

    #[test]
    fn an_unreached_block_keeps_its_unreached_state() {
        let m = parse_module(UNREACHED).unwrap();
        let states = forward(&m.functions[0], vec![1u8], 0, |_, _| false, |_, _| {});
        let rows: Vec<&[u8]> = (0..3).map(|b| states.entry(b)).collect();
        assert_eq!(rows, [[1], [0], [1]]);
    }

    #[test]
    fn bytes_set_invalidates_constant() {
        let m = parse_module(BSET).unwrap();
        let f = &m.functions[0];
        let (pool, facts) = value_facts(f);
        let mut state = facts.entry(0).to_vec();
        for i in &f.blocks[0].instrs {
            pool.step(&mut state, i);
        }
        assert_eq!(state[0], Fact::Ty(Tag::Bytes));
    }

    /// The flat table agrees with the per-block reference at every block
    /// entry of every function of the three optimized programs and of this
    /// module's texts; the tag facts are the tags of those facts; and
    /// dead-code elimination on tags leaves what it leaves on full facts.
    #[test]
    fn flat_facts_and_tag_only_dce_match_the_reference() {
        let mut texts: Vec<String> = [
            include_str!("../../../tests/fixtures/optimized_ctp_video.pdo"),
            include_str!("../../../tests/fixtures/optimized_seccomm.pdo"),
            include_str!("../../../tests/fixtures/optimized_xclient.pdo"),
            STRAIGHT,
            BRANCH,
            LOOP,
            UNREACHED,
            FAULTING_FOLD,
            BSET,
        ]
        .map(String::from)
        .into();
        texts.extend(ARMS.map(|(then, other)| diamond(then, other)));
        let mut functions = 0;
        for text in &texts {
            let m = parse_module(text).unwrap();
            for f in &m.functions {
                functions += 1;
                let ((pool, facts), tags) = (value_facts(f), tag_facts(f));
                for (b, want) in reference::value_facts(f).iter().enumerate() {
                    let got = facts.entry(b).iter().map(|&x| as_reference(&pool, x));
                    let got: Vec<reference::Fact> = got.collect();
                    assert_eq!(&got, want, "{}: facts at b{b}", f.name);
                    let want: Vec<Option<Tag>> = want.iter().map(reference::Fact::tag).collect();
                    assert_eq!(tags.entry(b), want, "{}: tags at b{b}", f.name);
                }
                let (mut on_tags, mut on_facts) = (f.clone(), f.clone());
                assert_eq!(
                    crate::dce::dce_function(&mut on_tags),
                    reference::dce_function(&mut on_facts),
                    "{}",
                    f.name
                );
                assert_eq!(on_tags, on_facts);
            }
        }
        assert!(functions > 40, "{functions} functions");
    }
}
