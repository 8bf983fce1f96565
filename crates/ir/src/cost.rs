//! Abstract cost accounting.
//!
//! The paper attributes event overhead to four sources: indirect handler
//! calls, argument marshaling, state maintenance (locking), and redundant
//! work across handlers. The interpreter and the event runtime increment
//! these counters so tests and the report harness can attribute savings to
//! each source deterministically (the `pdo-bench` gates and `benchmark/`
//! measure the same paths in wall-clock time).

use std::fmt;
use std::ops::{Add, AddAssign};

/// Deterministic execution cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounter {
    /// IR instructions executed (including terminators).
    pub instrs: u64,
    /// Direct IR-to-IR calls.
    pub calls: u64,
    /// Native (Rust) calls.
    pub native_calls: u64,
    /// Handler invocations made *indirectly* through the registry.
    pub indirect_calls: u64,
    /// Handler invocations made through a specialized direct path.
    pub direct_handler_calls: u64,
    /// Events raised synchronously.
    pub raises_sync: u64,
    /// Events raised asynchronously (incl. timed).
    pub raises_async: u64,
    /// Registry lookups performed by the generic dispatch path.
    pub registry_lookups: u64,
    /// Argument values marshaled (cloned/boxed) by generic dispatch.
    pub marshaled_values: u64,
    /// Lock/unlock operations executed.
    pub lock_ops: u64,
    /// Specialized fast-path dispatches taken.
    pub fastpath_hits: u64,
    /// Specialized dispatches that failed their guard and fell back.
    pub fastpath_misses: u64,
}

impl CostCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// A single scalar summary used by tests comparing "work done":
    /// instruction count plus dispatch and marshaling overheads, weighted
    /// roughly like their real relative costs.
    pub fn weighted_total(&self) -> u64 {
        self.instrs
            + 2 * self.calls
            + 2 * self.native_calls
            + 8 * self.indirect_calls
            + 2 * self.direct_handler_calls
            + 6 * self.registry_lookups
            + 3 * self.marshaled_values
            + 10 * self.lock_ops
            + 4 * self.raises_sync
            + 4 * self.raises_async
    }

    /// Overhead attributable purely to event plumbing (everything except
    /// the instructions of handler bodies themselves).
    pub fn dispatch_overhead(&self) -> u64 {
        8 * self.indirect_calls
            + 6 * self.registry_lookups
            + 3 * self.marshaled_values
            + 4 * self.raises_sync
            + 4 * self.raises_async
    }
}

impl Add for CostCounter {
    type Output = CostCounter;

    fn add(mut self, rhs: CostCounter) -> CostCounter {
        self += rhs;
        self
    }
}

impl AddAssign for CostCounter {
    fn add_assign(&mut self, rhs: CostCounter) {
        self.instrs += rhs.instrs;
        self.calls += rhs.calls;
        self.native_calls += rhs.native_calls;
        self.indirect_calls += rhs.indirect_calls;
        self.direct_handler_calls += rhs.direct_handler_calls;
        self.raises_sync += rhs.raises_sync;
        self.raises_async += rhs.raises_async;
        self.registry_lookups += rhs.registry_lookups;
        self.marshaled_values += rhs.marshaled_values;
        self.lock_ops += rhs.lock_ops;
        self.fastpath_hits += rhs.fastpath_hits;
        self.fastpath_misses += rhs.fastpath_misses;
    }
}

impl fmt::Display for CostCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instrs={} calls={} natives={} indirect={} direct={} sync={} async={} \
             lookups={} marshaled={} locks={} fast-hit={} fast-miss={}",
            self.instrs,
            self.calls,
            self.native_calls,
            self.indirect_calls,
            self.direct_handler_calls,
            self.raises_sync,
            self.raises_async,
            self.registry_lookups,
            self.marshaled_values,
            self.lock_ops,
            self.fastpath_hits,
            self.fastpath_misses,
        )
    }
}

/// Compact opcode tags for the interpreter's frequency profile, one per
/// [`crate::Instr`] variant (including the fused superinstruction forms).
///
/// The adjacent-pair matrix indexed by these tags is what the fusion pass
/// consumes: the paper's profile→optimize loop applied to the execution
/// engine itself, following the bytecode-profiling playbook of metered VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// `Instr::Const`
    Const,
    /// `Instr::Mov`
    Mov,
    /// `Instr::Bin`
    Bin,
    /// `Instr::Un`
    Un,
    /// `Instr::LoadGlobal`
    LoadGlobal,
    /// `Instr::StoreGlobal`
    StoreGlobal,
    /// `Instr::Lock`
    Lock,
    /// `Instr::Unlock`
    Unlock,
    /// `Instr::Call`
    Call,
    /// `Instr::CallNative`
    CallNative,
    /// `Instr::Raise`
    Raise,
    /// `Instr::BytesNew`
    BytesNew,
    /// `Instr::BytesLen`
    BytesLen,
    /// `Instr::BytesGet`
    BytesGet,
    /// `Instr::BytesSet`
    BytesSet,
    /// `Instr::BytesConcat`
    BytesConcat,
    /// `Instr::BytesSlice`
    BytesSlice,
    /// `Instr::BinImm` (fused `Const`+`Bin`)
    BinImm,
    /// `Instr::GlobalFold` (fused `LoadGlobal`+`Bin`+`StoreGlobal`)
    GlobalFold,
    /// `Instr::GlobalFoldImm` (fused `LoadGlobal`+`Const`+`Bin`+`StoreGlobal`)
    GlobalFoldImm,
    /// `Instr::LockedStore` (fused `Lock`+`StoreGlobal`+`Unlock`)
    LockedStore,
    /// `Instr::LockedFoldImm` (fused locked read-modify-write)
    LockedFoldImm,
}

/// Number of distinct [`Opcode`] tags (array dimension for profiles).
pub const OPCODE_COUNT: usize = 22;

impl Opcode {
    /// All opcodes, in tag order.
    pub const ALL: [Opcode; OPCODE_COUNT] = [
        Opcode::Const,
        Opcode::Mov,
        Opcode::Bin,
        Opcode::Un,
        Opcode::LoadGlobal,
        Opcode::StoreGlobal,
        Opcode::Lock,
        Opcode::Unlock,
        Opcode::Call,
        Opcode::CallNative,
        Opcode::Raise,
        Opcode::BytesNew,
        Opcode::BytesLen,
        Opcode::BytesGet,
        Opcode::BytesSet,
        Opcode::BytesConcat,
        Opcode::BytesSlice,
        Opcode::BinImm,
        Opcode::GlobalFold,
        Opcode::GlobalFoldImm,
        Opcode::LockedStore,
        Opcode::LockedFoldImm,
    ];

    /// The tag as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name, used as the `op` label on exported metrics.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Const => "const",
            Opcode::Mov => "mov",
            Opcode::Bin => "bin",
            Opcode::Un => "un",
            Opcode::LoadGlobal => "load_global",
            Opcode::StoreGlobal => "store_global",
            Opcode::Lock => "lock",
            Opcode::Unlock => "unlock",
            Opcode::Call => "call",
            Opcode::CallNative => "call_native",
            Opcode::Raise => "raise",
            Opcode::BytesNew => "bytes_new",
            Opcode::BytesLen => "bytes_len",
            Opcode::BytesGet => "bytes_get",
            Opcode::BytesSet => "bytes_set",
            Opcode::BytesConcat => "bytes_concat",
            Opcode::BytesSlice => "bytes_slice",
            Opcode::BinImm => "bin_imm",
            Opcode::GlobalFold => "global_fold",
            Opcode::GlobalFoldImm => "global_fold_imm",
            Opcode::LockedStore => "locked_store",
            Opcode::LockedFoldImm => "locked_fold_imm",
        }
    }

    /// True for superinstruction tags produced by the fusion pass.
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            Opcode::BinImm
                | Opcode::GlobalFold
                | Opcode::GlobalFoldImm
                | Opcode::LockedStore
                | Opcode::LockedFoldImm
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Row of [`OpcodeProfile`]'s matrix that counts the opcodes *starting* a
/// straight-line run: the "previous opcode" of an instruction that has none.
pub(crate) const RUN_START: usize = OPCODE_COUNT;

/// Per-opcode and adjacent-pair frequency counters.
///
/// One matrix holds both: `follows[prev][op]` counts executions of `op`
/// right after `prev` in the same straight-line run, with one more row for
/// the opcodes that started a run. `record` is therefore a single increment
/// — cheap enough for the dispatch loop's recording instance to do per
/// instruction — and an opcode's total is the sum of its column. The matrix
/// only pairs opcodes that are adjacent *within a straight-line run*: block
/// boundaries, calls into other functions, and dispatch boundaries call
/// [`break_chain`] so a pair never spans a point the fusion pass could not
/// rewrite.
///
/// [`break_chain`]: OpcodeProfile::break_chain
#[derive(Debug, Clone)]
pub struct OpcodeProfile {
    follows: [u64; (OPCODE_COUNT + 1) * OPCODE_COUNT],
    /// Row of the previous opcode of the current run ([`RUN_START`] when
    /// the next opcode starts one).
    last: usize,
}

impl Default for OpcodeProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl OpcodeProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self {
            follows: [0; (OPCODE_COUNT + 1) * OPCODE_COUNT],
            last: RUN_START,
        }
    }

    /// Records one executed instruction (and the pair it forms with the
    /// previous instruction in the same straight-line run).
    #[inline]
    pub fn record(&mut self, op: Opcode) {
        self.last = self.record_after(self.last, op);
    }

    /// [`OpcodeProfile::record`] for a caller that keeps the run's previous
    /// row itself — the dispatch loop, in a local: counts `op` after row
    /// `prev` ([`RUN_START`] for the first of a run) and returns `op`'s row.
    #[inline]
    pub(crate) fn record_after(&mut self, prev: usize, op: Opcode) -> usize {
        self.follows[prev * OPCODE_COUNT + op.index()] += 1;
        op.index()
    }

    /// Ends the current straight-line run (block boundary, call, or dispatch
    /// boundary); the next recorded opcode starts a fresh pair chain.
    #[inline]
    pub fn break_chain(&mut self) {
        self.last = RUN_START;
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Executions of `op`.
    pub fn count(&self, op: Opcode) -> u64 {
        self.follows
            .chunks_exact(OPCODE_COUNT)
            .map(|row| row[op.index()])
            .sum()
    }

    /// Times `b` immediately followed `a` in a straight-line run.
    pub fn pair_count(&self, a: Opcode, b: Opcode) -> u64 {
        self.follows[a.index() * OPCODE_COUNT + b.index()]
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.follows.iter().sum()
    }

    /// Executions of fused superinstructions.
    pub fn fused_total(&self) -> u64 {
        Opcode::ALL
            .iter()
            .filter(|op| op.is_fused())
            .map(|op| self.count(*op))
            .sum()
    }

    /// Opcodes with a nonzero count, for metric export.
    pub fn counts(&self) -> impl Iterator<Item = (Opcode, u64)> + '_ {
        Opcode::ALL
            .iter()
            .map(move |op| (*op, self.count(*op)))
            .filter(|(_, n)| *n > 0)
    }

    /// Adjacent pairs with count ≥ `min`, hottest first.
    pub fn hot_pairs(&self, min: u64) -> Vec<(Opcode, Opcode, u64)> {
        let mut out = Vec::new();
        for a in Opcode::ALL {
            for b in Opcode::ALL {
                let n = self.pair_count(a, b);
                if n >= min {
                    out.push((a, b, n));
                }
            }
        }
        out.sort_by_key(|&(_, _, n)| std::cmp::Reverse(n));
        out
    }

    /// Folds another profile into this one (pair-chain state is not merged).
    pub fn merge(&mut self, other: &OpcodeProfile) {
        for (mine, theirs) in self.follows.iter_mut().zip(&other.follows) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let a = CostCounter {
            instrs: 10,
            lock_ops: 2,
            ..Default::default()
        };
        let b = CostCounter {
            instrs: 5,
            marshaled_values: 3,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.instrs, 15);
        assert_eq!(c.lock_ops, 2);
        assert_eq!(c.marshaled_values, 3);
    }

    #[test]
    fn weighted_total_monotone_in_overhead() {
        let lean = CostCounter {
            instrs: 100,
            ..Default::default()
        };
        let heavy = CostCounter {
            instrs: 100,
            indirect_calls: 10,
            marshaled_values: 20,
            ..Default::default()
        };
        assert!(heavy.weighted_total() > lean.weighted_total());
        assert_eq!(lean.dispatch_overhead(), 0);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = CostCounter {
            instrs: 1,
            ..Default::default()
        };
        c.reset();
        assert_eq!(c, CostCounter::default());
    }

    #[test]
    fn opcode_tags_are_dense_and_named() {
        assert_eq!(Opcode::ALL.len(), OPCODE_COUNT);
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(!op.name().is_empty());
        }
        // Names are unique (they become metric label values).
        let names: std::collections::HashSet<_> = Opcode::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), OPCODE_COUNT);
    }

    #[test]
    fn profile_records_ops_and_pairs() {
        let mut p = OpcodeProfile::new();
        p.record(Opcode::Const);
        p.record(Opcode::Bin);
        p.record(Opcode::Const);
        p.record(Opcode::Bin);
        assert_eq!(p.count(Opcode::Const), 2);
        assert_eq!(p.count(Opcode::Bin), 2);
        assert_eq!(p.pair_count(Opcode::Const, Opcode::Bin), 2);
        assert_eq!(p.pair_count(Opcode::Bin, Opcode::Const), 1);
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn break_chain_splits_pairs() {
        let mut p = OpcodeProfile::new();
        p.record(Opcode::Lock);
        p.break_chain();
        p.record(Opcode::StoreGlobal);
        assert_eq!(p.pair_count(Opcode::Lock, Opcode::StoreGlobal), 0);
        assert_eq!(p.total(), 2);
    }

    #[test]
    fn fused_total_counts_only_superinstructions() {
        let mut p = OpcodeProfile::new();
        p.record(Opcode::Bin);
        p.record(Opcode::BinImm);
        p.record(Opcode::LockedFoldImm);
        assert_eq!(p.fused_total(), 2);
        assert!(Opcode::BinImm.is_fused());
        assert!(!Opcode::Bin.is_fused());
    }

    #[test]
    fn hot_pairs_sorted_descending() {
        let mut p = OpcodeProfile::new();
        for _ in 0..5 {
            p.record(Opcode::Const);
            p.record(Opcode::Bin);
        }
        p.break_chain();
        p.record(Opcode::LoadGlobal);
        p.record(Opcode::Bin);
        let hot = p.hot_pairs(1);
        assert_eq!(hot[0].0, Opcode::Const);
        assert_eq!(hot[0].1, Opcode::Bin);
        assert_eq!(hot[0].2, 5);
        assert!(hot.iter().all(|(_, _, n)| *n >= 1));
    }

    #[test]
    fn merge_accumulates_profiles() {
        let mut a = OpcodeProfile::new();
        a.record(Opcode::Mov);
        a.record(Opcode::Mov);
        let mut b = OpcodeProfile::new();
        b.record(Opcode::Mov);
        b.record(Opcode::Mov);
        a.merge(&b);
        assert_eq!(a.count(Opcode::Mov), 4);
        assert_eq!(a.pair_count(Opcode::Mov, Opcode::Mov), 2);
    }
}
