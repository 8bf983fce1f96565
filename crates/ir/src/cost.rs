//! Abstract cost accounting.
//!
//! The paper attributes event overhead to four sources: indirect handler
//! calls, argument marshaling, state maintenance (locking), and redundant
//! work across handlers. The interpreter and the event runtime increment
//! these counters so tests and the report harness can attribute savings to
//! each source deterministically (the `pdo-bench` gates and `benchmark/`
//! measure the same paths in wall-clock time).

use crate::Instr;
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

/// What the dispatch loop's recording instance counts: instructions
/// executed (terminators excluded) and, of those, fused superinstructions.
/// Their ratio is how much of a run the fused arms carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpcodeProfile {
    total: u64,
    fused: u64,
}

impl OpcodeProfile {
    /// Counts one executed instruction. The fused count is a branch, not an
    /// add of `is_fused()`: most instructions are not fused, and skipping
    /// their second store is measurably cheaper in `interp_gate`.
    #[inline]
    pub(crate) fn record(&mut self, instr: &Instr) {
        self.total += 1;
        if instr.is_fused() {
            self.fused += 1;
        }
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Executions of fused superinstructions.
    pub fn fused_total(&self) -> u64 {
        self.fused
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
    fn fused_total_counts_only_superinstructions() {
        let mut p = OpcodeProfile::default();
        let (dst, lhs) = (crate::Reg(0), crate::Reg(1));
        p.record(&Instr::Bin {
            op: crate::BinOp::Add,
            dst,
            lhs,
            rhs: lhs,
        });
        p.record(&Instr::BinImm {
            op: crate::BinOp::Add,
            dst,
            lhs,
            imm: crate::Value::Int(1),
        });
        p.record(&Instr::LockedFoldImm {
            op: crate::BinOp::Add,
            global: crate::GlobalId(0),
            imm: crate::Value::Int(1),
        });
        assert_eq!(p.total(), 3);
        assert_eq!(p.fused_total(), 2);
    }
}
