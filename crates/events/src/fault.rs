//! Deterministic fault injection and fault-containment policy.
//!
//! Event-driven systems are exactly where fault interleavings hide bugs, so
//! the runtime carries a first-class, **deterministic** fault
//! substrate: a [`FaultInjector`] holds a plan of [`FaultSpec`]s, each
//! targeting the N-th occurrence of an event that was *raised by the
//! workload or popped* off the queue or timer wheel, and the [`FaultPolicy`]
//! on [`crate::RuntimeConfig`] decides what a fault does to the event loop.
//!
//! ## Why faults key on occurrences raised by the workload or popped
//!
//! The optimizer may subsume a nested synchronous raise into its parent's
//! super-handler (paper Fig 9), so the *nested* dispatch count of an event
//! differs between an original and an optimized run of the same program.
//! The occurrences the workload raises and the queue and timer wheel pop are
//! preserved exactly by every optimization, so a plan keyed on them hits the
//! same logical occurrence in both runs. A dispatch nested inside one of
//! them is never counted, at any depth: a popped parent dispatches at
//! depth 0, and its subsumable child must not count either. That is what makes the chaos
//! equivalence property (`tests/chaos_equivalence.rs`) well defined: the
//! paper's equivalence guarantee holds *under faults*, not just on the happy
//! path.
//!
//! ## Equivalence-safe vs best-effort kinds
//!
//! [`FaultKind::TrapDispatch`], [`FaultKind::CorruptArg`],
//! [`FaultKind::DropTimed`] and [`FaultKind::DelayTimed`] fire at a dispatch
//! or raise boundary, *before* any handler effect, so original and optimized
//! runs observe them identically. [`FaultKind::ExhaustFuel`] meters *handler
//! boundaries*: the faulted occurrence gets a budget of
//! [`EXHAUST_FUEL_BUDGET`] units and every pre-merge handler invocation in
//! its dynamic extent charges one unit before the handler body runs.
//! Super-handlers compiled with fuel-boundary markers
//! (`OptimizeOptions::fuel_boundaries` in the `pdo` crate) charge at the
//! same program points, so exhaustion trips identically in original and
//! optimized runs and the kind is equivalence-safe *for such builds*. Against
//! chains compiled without markers it remains best-effort. So when every
//! installed chain was compiled with the markers, every kind but
//! [`FaultKind::HandlerTrap`] has the same effect in original and optimized
//! runs.

use pdo_ir::{EventId, Value};
use std::collections::BTreeMap;

/// What happens when a handler faults (injected or organic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Propagate the error out of `raise`/`run_until_idle` (the pre-fault
    /// behavior, and still the default).
    #[default]
    Abort,
    /// Contain the fault: record it, skip the rest of the occurrence's
    /// dispatch, keep draining the queue.
    SkipEvent,
    /// Contain the fault *and* remove the faulting event's compiled chain
    /// so later occurrences fall back to generic dispatch. The occurrence
    /// itself is re-dispatched generically where that is safe (no handler
    /// effects have happened yet).
    Despecialize,
}

pdo_snap::codec_enum!(FaultPolicy {
    0 => Abort,
    1 => SkipEvent,
    2 => Despecialize,
});

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The target occurrence's dispatch traps before any handler runs.
    TrapDispatch,
    /// One argument of the target occurrence is corrupted at the marshaling
    /// boundary (both the fast path and the generic path see the corrupted
    /// value). `index` is reduced modulo the argument count.
    CorruptArg {
        /// Which argument to corrupt (modulo arity; no-op on zero arity).
        index: u16,
    },
    /// The target occurrence runs under a tiny *handler-boundary* budget:
    /// each pre-merge handler invocation in the occurrence charges one unit
    /// before its body runs, and exhaustion aborts the rest of the
    /// occurrence. Equivalence-safe against chains compiled with
    /// fuel-boundary markers (see module docs).
    ExhaustFuel,
    /// The target timed raise is silently dropped (timer never scheduled).
    DropTimed,
    /// The target timed raise is delayed by an extra virtual-clock interval.
    DelayTimed {
        /// Additional delay in virtual nanoseconds.
        extra_ns: u64,
    },
    /// An organic (non-injected) handler trap contained by the policy.
    /// Never appears in plans; recorded in stats and traces.
    HandlerTrap,
}

pdo_snap::codec_enum!(FaultKind {
    0 => TrapDispatch,
    1 => CorruptArg { index },
    2 => ExhaustFuel,
    3 => DropTimed,
    4 => DelayTimed { extra_ns },
    5 => HandlerTrap,
});

impl FaultKind {
    /// True for kinds that target the timed-raise counter rather than the
    /// dispatch counter.
    pub(crate) fn is_timed(self) -> bool {
        matches!(self, FaultKind::DropTimed | FaultKind::DelayTimed { .. })
    }

    /// Short static name used as a metric label and in `Fault` trace
    /// spans (`snake_case`, no payload).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TrapDispatch => "trap_dispatch",
            FaultKind::CorruptArg { .. } => "corrupt_arg",
            FaultKind::ExhaustFuel => "exhaust_fuel",
            FaultKind::DropTimed => "drop_timed",
            FaultKind::DelayTimed { .. } => "delay_timed",
            FaultKind::HandlerTrap => "handler_trap",
        }
    }
}

/// One planned fault: `kind` fires on the `occurrence`-th (0-based)
/// dispatch of `event` that the workload raised or the runtime popped —
/// or, for timed kinds, on the `occurrence`-th timed raise of `event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The targeted event.
    pub event: EventId,
    /// 0-based occurrence index within the event's own counter.
    pub occurrence: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// Handler-boundary budget used for [`FaultKind::ExhaustFuel`] dispatches:
/// small enough that any occurrence invoking more than two pre-merge
/// handlers (directly or through nested synchronous raises) trips it at a
/// boundary.
pub const EXHAUST_FUEL_BUDGET: u64 = 2;

/// Deterministically corrupts a value (used by [`FaultKind::CorruptArg`]).
/// The transform is pure, so both the original and the optimized run of a
/// program observe the same corrupted argument.
pub(crate) fn corrupt_value(v: &Value) -> Value {
    match v {
        Value::Unit => Value::Int(-1),
        Value::Int(n) => Value::Int(!n),
        Value::Bool(b) => Value::Bool(!b),
        Value::Bytes(bs) if bs.is_empty() => Value::bytes([0xFF]),
        Value::Bytes(bs) => Value::bytes_with(bs.len(), |out| {
            out.copy_from_slice(bs);
            out[0] ^= 0xFF;
        }),
        Value::Str(s) => Value::str(format!("\u{fffd}{s}")),
    }
}

/// A deterministic fault plan with per-event occurrence counters.
///
/// Counting is the injector's whole contract: `on_dispatch` must be called
/// exactly once per occurrence raised by the workload or popped, and
/// `on_timed` once per timed
/// raise, which [`crate::Runtime`] does. Two runtimes driven by the same
/// logical workload therefore consume the plan identically. A session
/// snapshot carries the injector itself — the faults still pending and
/// the counters — so a restored session neither re-fires faults that
/// already hit nor miscounts occurrences toward pending ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjector {
    /// Dispatch-targeted faults keyed by `(event, occurrence)`.
    dispatch_plan: BTreeMap<(EventId, u64), FaultKind>,
    /// Timed-raise-targeted faults keyed by `(event, occurrence)`.
    timed_plan: BTreeMap<(EventId, u64), FaultKind>,
    dispatch_counts: BTreeMap<EventId, u64>,
    timed_counts: BTreeMap<EventId, u64>,
}

pdo_snap::codec_struct!(FaultInjector {
    dispatch_plan,
    timed_plan,
    dispatch_counts,
    timed_counts,
});

impl FaultInjector {
    /// An injector with an empty plan (counts occurrences, fires nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an injector from an explicit plan. Later specs overwrite
    /// earlier ones targeting the same `(event, occurrence)` slot.
    pub fn from_plan(plan: impl IntoIterator<Item = FaultSpec>) -> Self {
        let mut fi = FaultInjector::new();
        for spec in plan {
            let key = (spec.event, spec.occurrence);
            if spec.kind.is_timed() {
                fi.timed_plan.insert(key, spec.kind);
            } else if spec.kind != FaultKind::HandlerTrap {
                fi.dispatch_plan.insert(key, spec.kind);
            }
        }
        fi
    }

    /// Number of faults still pending (not yet fired).
    pub fn pending(&self) -> usize {
        self.dispatch_plan.len() + self.timed_plan.len()
    }

    /// Advances the dispatch counter for `event` and returns a fault if this
    /// occurrence is targeted. Called by the runtime once per occurrence
    /// raised by the workload or popped.
    pub(crate) fn on_dispatch(&mut self, event: EventId) -> Option<FaultKind> {
        let n = self.dispatch_counts.entry(event).or_insert(0);
        let occurrence = *n;
        *n += 1;
        self.dispatch_plan.remove(&(event, occurrence))
    }

    /// Advances the timed-raise counter for `event` and returns a fault if
    /// this raise is targeted.
    pub(crate) fn on_timed(&mut self, event: EventId) -> Option<FaultKind> {
        let n = self.timed_counts.entry(event).or_insert(0);
        let occurrence = *n;
        *n += 1;
        self.timed_plan.remove(&(event, occurrence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_on_exact_occurrence() {
        let e = EventId(2);
        let mut fi = FaultInjector::from_plan([FaultSpec {
            event: e,
            occurrence: 1,
            kind: FaultKind::TrapDispatch,
        }]);
        assert_eq!(fi.on_dispatch(e), None);
        assert_eq!(fi.on_dispatch(e), Some(FaultKind::TrapDispatch));
        assert_eq!(fi.on_dispatch(e), None);
        assert_eq!(fi.pending(), 0);
    }

    #[test]
    fn timed_and_dispatch_counters_are_independent() {
        let e = EventId(0);
        let mut fi = FaultInjector::from_plan([
            FaultSpec {
                event: e,
                occurrence: 0,
                kind: FaultKind::DropTimed,
            },
            FaultSpec {
                event: e,
                occurrence: 0,
                kind: FaultKind::CorruptArg { index: 0 },
            },
        ]);
        assert_eq!(fi.on_timed(e), Some(FaultKind::DropTimed));
        assert_eq!(fi.on_dispatch(e), Some(FaultKind::CorruptArg { index: 0 }));
    }

    #[test]
    fn corruption_is_pure_and_changes_the_value() {
        for v in [
            Value::Unit,
            Value::Int(42),
            Value::Bool(false),
            Value::bytes(vec![1, 2, 3]),
            Value::bytes(Vec::<u8>::new()),
        ] {
            let a = corrupt_value(&v);
            let b = corrupt_value(&v);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(format!("{a:?}"), format!("{v:?}"));
        }
    }

    #[test]
    fn a_decoded_injector_keeps_counters_and_pending_plan() {
        let e = EventId(1);
        let mut fi = FaultInjector::from_plan([
            FaultSpec {
                event: e,
                occurrence: 0,
                kind: FaultKind::TrapDispatch,
            },
            FaultSpec {
                event: e,
                occurrence: 2,
                kind: FaultKind::ExhaustFuel,
            },
            FaultSpec {
                event: e,
                occurrence: 1,
                kind: FaultKind::DropTimed,
            },
        ]);
        assert_eq!(fi.on_dispatch(e), Some(FaultKind::TrapDispatch));
        assert_eq!(fi.on_timed(e), None);
        let mut restored: FaultInjector = pdo_snap::decode(&pdo_snap::encode(&fi)).unwrap();
        assert_eq!(restored, fi);
        // The restored injector neither re-fires occurrence 0 nor loses
        // count toward occurrence 2; both continue identically.
        for injector in [&mut fi, &mut restored] {
            assert_eq!(injector.on_dispatch(e), None, "occurrence 1 untargeted");
            assert_eq!(injector.on_dispatch(e), Some(FaultKind::ExhaustFuel));
            assert_eq!(injector.on_timed(e), Some(FaultKind::DropTimed));
            assert_eq!(injector.pending(), 0);
        }
    }

    #[test]
    fn handler_trap_specs_are_ignored_in_plans() {
        let fi = FaultInjector::from_plan([FaultSpec {
            event: EventId(0),
            occurrence: 0,
            kind: FaultKind::HandlerTrap,
        }]);
        assert_eq!(fi.pending(), 0);
    }

    #[test]
    fn codecs_survive_the_hostile_sweep() {
        let kinds = [
            FaultKind::TrapDispatch,
            FaultKind::CorruptArg { index: u16::MAX },
            FaultKind::ExhaustFuel,
            FaultKind::DropTimed,
            FaultKind::DelayTimed { extra_ns: 7_000 },
            FaultKind::HandlerTrap,
        ];
        let plan: BTreeMap<_, _> = (0u64..)
            .zip(kinds)
            .map(|(n, k)| ((EventId(3), n), k))
            .collect();
        let injector = FaultInjector {
            timed_plan: plan
                .range((EventId(3), 3)..(EventId(3), 5))
                .map(|(&key, &k)| (key, k))
                .collect(),
            dispatch_plan: plan,
            dispatch_counts: BTreeMap::from([(EventId(0), 4), (EventId(3), 1)]),
            timed_counts: BTreeMap::new(),
        };
        pdo_snap::hostile::check(&injector);
        for policy in [
            FaultPolicy::Abort,
            FaultPolicy::SkipEvent,
            FaultPolicy::Despecialize,
        ] {
            pdo_snap::hostile::check(&policy);
        }
    }
}
