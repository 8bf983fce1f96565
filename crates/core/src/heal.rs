//! Self-healing specialization: the re-optimization loop that pairs
//! [`FaultPolicy::Despecialize`](pdo_events::FaultPolicy) with the
//! [`Quarantine`].
//!
//! Under `Despecialize` the runtime removes a faulting chain and keeps
//! draining generically — correct, but permanently slow. The
//! [`SelfHealer`] closes the loop: once per *epoch* (a workload slice the
//! caller chooses) it takes the runtime's stats delta, feeds the
//! [`Quarantine`], removes chains for newly quarantined events, and
//! re-installs a chain once its event's backoff has expired **and** the
//! registry still matches what the chain was compiled for.
//!
//! "Still matches" is the chain's own guards' answer
//! ([`CompiledChain::guards_hold`]): they carry the binding lists the chain
//! was compiled against, so a chain compiled for `[h1, h2]` may come back
//! whenever the live bindings are exactly `[h1, h2]` again, whatever the
//! version counter did in between — the §3.3 guard mechanism plus a
//! recovery path. If the lists genuinely changed, the chain is reported
//! stale; producing a new one needs a fresh profile-and-optimize pass.

use crate::quarantine::{Quarantine, QuarantineConfig};
use pdo_events::{CompiledChain, Runtime, RuntimeStats};
use pdo_ir::EventId;
use std::collections::BTreeMap;

/// What one [`SelfHealer::heal`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Events newly quarantined this epoch, with their backoff expiry (ns).
    pub quarantined: Vec<(EventId, u64)>,
    /// Chains removed from the runtime because their event was quarantined.
    pub removed: Vec<EventId>,
    /// Chains (re-)installed: backoff expired and their guards hold.
    pub reinstalled: Vec<EventId>,
    /// Events whose backoff expired but whose bindings changed since
    /// compile time; they need a fresh profile-and-optimize pass.
    pub stale: Vec<EventId>,
}

impl HealReport {
    /// Nothing happened this pass.
    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
            && self.removed.is_empty()
            && self.reinstalled.is_empty()
            && self.stale.is_empty()
    }
}

/// The re-optimization loop state for one deployed runtime.
#[derive(Debug, Clone)]
pub struct SelfHealer {
    quarantine: Quarantine,
    /// The deployed chains by head event.
    chains: BTreeMap<EventId, CompiledChain>,
}

impl SelfHealer {
    /// Tracks the deployed `chains` under a fresh quarantine.
    pub fn new(config: QuarantineConfig, chains: &[CompiledChain]) -> Self {
        let mut healer = SelfHealer {
            quarantine: Quarantine::new(config),
            chains: BTreeMap::new(),
        };
        healer.rebind(chains);
        healer
    }

    /// Replaces the tracked chains with those of a *fresh* deployment (the
    /// adaptive daemon changed its plan), preserving the quarantine so a
    /// misbehaving event keeps its backoff across redeploys.
    pub fn rebind(&mut self, chains: &[CompiledChain]) {
        self.chains = chains.iter().map(|c| (c.head, c.clone())).collect();
    }

    /// The deployed chains, in head-event order — installed, quarantined
    /// or waiting for their bindings to return.
    pub fn chains(&self) -> impl Iterator<Item = &CompiledChain> {
        self.chains.values()
    }

    /// The quarantine state (for reports and tests).
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Mutable quarantine access — used by the adaptive engine to adopt
    /// strike counts and backoff expiries carried across a session
    /// snapshot/restore cycle.
    pub fn quarantine_mut(&mut self) -> &mut Quarantine {
        &mut self.quarantine
    }

    /// Runs one epoch boundary: takes the runtime's stats delta and heals.
    pub fn after_epoch(&mut self, runtime: &mut Runtime) -> HealReport {
        let stats = runtime.take_stats();
        self.heal(runtime, &stats)
    }

    /// As [`SelfHealer::after_epoch`] but with an explicit stats delta
    /// (when the caller already took the stats, e.g. to log them).
    pub fn heal(&mut self, runtime: &mut Runtime, stats: &RuntimeStats) -> HealReport {
        let now = runtime.clock_ns();
        let mut report = HealReport::default();

        for event in self.quarantine.observe(stats, now) {
            if runtime.remove_chain(event).is_some() {
                report.removed.push(event);
            }
            let until = self
                .quarantine
                .quarantined_until(event)
                .expect("just quarantined");
            report.quarantined.push((event, until));
        }

        for (&event, chain) in &self.chains {
            if runtime.spec().get(event).is_some() || self.quarantine.is_quarantined(event, now) {
                continue;
            }
            if chain.guards_hold(runtime.registry()) {
                runtime.install_chain(chain.clone());
                report.reinstalled.push(event);
            } else {
                report.stale.push(event);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, OptimizeOptions};
    use pdo_events::{
        FaultInjector, FaultKind, FaultPolicy, FaultSpec, RuntimeConfig, TraceConfig,
    };
    use pdo_ir::{BinOp, FuncId, FunctionBuilder, Module, RaiseMode, Value};

    fn counting_module() -> (Module, EventId, pdo_ir::GlobalId, FuncId) {
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("n", Value::Int(0));
        let mut b = FunctionBuilder::new("h", 0);
        let v = b.load_global(g);
        let one = b.const_int(1);
        let s = b.bin(BinOp::Add, v, one);
        b.store_global(g, s);
        b.ret(None);
        let h = m.add_function(b.finish());
        (m, e, g, h)
    }

    fn deploy(policy: FaultPolicy) -> (Runtime, SelfHealer, EventId, pdo_ir::GlobalId) {
        let (m, e, g, h) = counting_module();
        let mut rt = Runtime::new(m.clone());
        rt.bind(e, h, 0).unwrap();
        rt.set_trace_config(TraceConfig::full());
        for _ in 0..20 {
            rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        }
        let profile = pdo_profile::Profile::from_trace(&rt.take_trace(), 10);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(10));
        assert_eq!(opt.chains.len(), 1);

        let mut fast = Runtime::with_config(
            opt.module.clone(),
            RuntimeConfig {
                fault_policy: policy,
                ..Default::default()
            },
        );
        fast.bind(e, h, 0).unwrap();
        opt.install_chains(&mut fast);
        let healer = SelfHealer::new(
            QuarantineConfig {
                fault_threshold: 2,
                churn_threshold: 4,
                base_backoff_ns: 1_000,
                max_backoff_ns: 8_000,
            },
            &opt.chains,
        );
        (fast, healer, e, g)
    }

    #[test]
    fn faulting_chain_is_quarantined_then_reinstalled_after_backoff() {
        let (mut rt, mut healer, e, g) = deploy(FaultPolicy::Despecialize);
        // Three injected traps cross fault_threshold = 2.
        rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
            event: e,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        for _ in 0..3 {
            rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        }
        // Despecialize already removed the chain on the first trap, and each
        // occurrence still ran generically.
        assert!(rt.spec().get(e).is_none());
        assert_eq!(rt.global(g), &Value::Int(3));

        let report = healer.after_epoch(&mut rt);
        assert_eq!(report.quarantined.len(), 1);
        let (qe, until) = report.quarantined[0];
        assert_eq!(qe, e);
        assert_eq!(until, rt.clock_ns() + 1_000);
        // While quarantined: heal does not re-install.
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert!(report.reinstalled.is_empty());
        assert!(rt.spec().get(e).is_none());

        // Advance the virtual clock to exactly the expiry: re-installed.
        rt.advance_clock(1_000);
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert_eq!(report.reinstalled, vec![e]);
        assert!(rt.spec().get(e).is_some());
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 1);
    }

    #[test]
    fn reinstall_waits_for_full_backoff_on_virtual_clock() {
        let (mut rt, mut healer, e, _) = deploy(FaultPolicy::Despecialize);
        rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
            event: e,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        for _ in 0..3 {
            rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        }
        healer.after_epoch(&mut rt);
        rt.advance_clock(999); // one tick short
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert!(report.reinstalled.is_empty());
        rt.advance_clock(1);
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert_eq!(report.reinstalled, vec![e]);
    }

    #[test]
    fn guard_churn_quarantines_without_any_fault() {
        let (mut rt, mut healer, e, g) = deploy(FaultPolicy::Abort);
        let h = rt.registry().bindings(e)[0].handler;
        // Taking the handler off and putting it back is not churn: the
        // binding list is the one the chain was compiled for.
        rt.unbind(e, h);
        rt.bind(e, h, 0).unwrap();
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 1);
        assert_eq!(rt.stats().guard_misses(e), 0);
        // Five rebinds inside one epoch, each to a list the chain was not
        // compiled for: one guard miss apiece however many raises follow.
        for _ in 0..5 {
            rt.bind(e, h, 1).unwrap();
            for _ in 0..3 {
                rt.raise(e, RaiseMode::Sync, &[]).unwrap();
            }
        }
        assert_eq!(rt.stats().guard_misses(e), 5); // churn_threshold = 4
        assert_eq!(rt.cost.fastpath_misses, 15);
        let report = healer.after_epoch(&mut rt);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.removed, vec![e]); // healer removed the stale chain
                                             // After backoff the bindings are still not the compiled ones: the
                                             // chain is stale, not re-installed.
        rt.advance_clock(1_000);
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert_eq!(report.stale, vec![e]);
        // Once they are, it comes back as it is — the guard re-stamps
        // itself at the next dispatch.
        while rt.unbind(e, h) {}
        rt.bind(e, h, 0).unwrap();
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert_eq!(report.reinstalled, vec![e]);
        let before = rt.global(g).as_int().unwrap();
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 2, "returned bindings must hold");
        assert_eq!(rt.global(g).as_int(), Some(before + 1));
    }

    #[test]
    fn changed_sequence_reports_stale_instead_of_reinstalling() {
        let (mut rt, mut healer, e, _) = deploy(FaultPolicy::Despecialize);
        rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
            event: e,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        for _ in 0..3 {
            rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        }
        healer.after_epoch(&mut rt);
        // Genuinely change the bindings while quarantined.
        let h = rt.registry().bindings(e)[0].handler;
        rt.unbind(e, h);
        rt.advance_clock(10_000);
        let report = healer.heal(&mut rt, &RuntimeStats::default());
        assert_eq!(report.stale, vec![e]);
        assert!(rt.spec().get(e).is_none());
    }

    #[test]
    fn repeated_offense_doubles_backoff() {
        let (mut rt, mut healer, e, _) = deploy(FaultPolicy::Despecialize);
        let fault_round = |rt: &mut Runtime, healer: &mut SelfHealer, base: u64| {
            rt.set_fault_injector(FaultInjector::from_plan((base..base + 3).map(|i| {
                FaultSpec {
                    event: e,
                    occurrence: i - base,
                    kind: FaultKind::TrapDispatch,
                }
            })));
            for _ in 0..3 {
                rt.raise(e, RaiseMode::Sync, &[]).unwrap();
            }
            let report = healer.after_epoch(rt);
            report.quarantined[0].1 - rt.clock_ns()
        };
        let w1 = fault_round(&mut rt, &mut healer, 0);
        rt.advance_clock(w1);
        assert_eq!(
            healer.heal(&mut rt, &RuntimeStats::default()).reinstalled,
            vec![e]
        );
        let w2 = fault_round(&mut rt, &mut healer, 0);
        assert_eq!(w1, 1_000);
        assert_eq!(w2, 2_000);
    }

    #[test]
    fn per_event_chains_quarantine_only_the_faulting_segments_event() {
        // Fig 14 shape: Head's handler synchronously raises Child. With
        // subsumption off each event gets its own chain under its own
        // guard; the head's super-handler raises Child, whose chain (or,
        // once re-bound, generic dispatch) runs the segment.
        let mut m = Module::new();
        let head = m.add_event("Head");
        let child = m.add_event("Child");
        let g = m.add_global("log", Value::Int(0));
        let boom = m.add_native("boom"); // never bound: calling it traps

        let digit = |m: &mut Module, name: &str, d: i64, raises: Option<EventId>| {
            let mut b = FunctionBuilder::new(name, 0);
            let v = b.load_global(g);
            let ten = b.const_int(10);
            let scaled = b.bin(BinOp::Mul, v, ten);
            let dd = b.const_int(d);
            let s = b.bin(BinOp::Add, scaled, dd);
            b.store_global(g, s);
            if let Some(ev) = raises {
                b.raise(ev, RaiseMode::Sync, &[]);
            }
            b.ret(None);
            m.add_function(b.finish())
        };
        let h_head = digit(&mut m, "head_h", 1, Some(child));
        let h_child = digit(&mut m, "child_h", 2, None);
        let mut b = FunctionBuilder::new("trap_h", 0);
        let _ = b.call_native(boom, &[]);
        b.ret(None);
        let h_trap = m.add_function(b.finish());

        let mut rt = Runtime::new(m.clone());
        rt.bind(head, h_head, 0).unwrap();
        rt.bind(child, h_child, 0).unwrap();
        rt.set_trace_config(TraceConfig::full());
        for _ in 0..40 {
            rt.raise(head, RaiseMode::Sync, &[]).unwrap();
        }
        let profile = pdo_profile::Profile::from_trace(&rt.take_trace(), 20);
        let mut opts = OptimizeOptions::new(20);
        opts.subsume = false;
        let opt = optimize(&m, rt.registry(), &profile, &opts);
        assert_eq!(opt.chains.len(), 2);
        assert!(opt
            .chains
            .iter()
            .all(|c| c.guards.len() == 1 && c.guards[0].event == c.head));

        let mut fast = Runtime::with_config(
            opt.module.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        fast.bind(head, h_head, 0).unwrap();
        fast.bind(child, h_child, 0).unwrap();
        opt.install_chains(&mut fast);
        let mut healer = SelfHealer::new(
            QuarantineConfig {
                fault_threshold: 2,
                churn_threshold: 100,
                base_backoff_ns: 1_000,
                max_backoff_ns: 8_000,
            },
            &opt.chains,
        );

        // Fault only the child segment: the extra binding invalidates the
        // child's own guard, and its fallback generic dispatch traps.
        fast.bind(child, h_trap, 10).unwrap();
        for _ in 0..3 {
            fast.raise(head, RaiseMode::Sync, &[]).unwrap();
        }
        assert_eq!(fast.cost.fastpath_hits, 3, "head chain keeps its fast path");
        assert_eq!(fast.stats().faults(child), 3);
        assert_eq!(fast.stats().faults(head), 0);
        // Each raise still appends 1 (head) then 2 (child's intact handler).
        assert_eq!(fast.global(g), &Value::Int(121_212));

        let report = healer.after_epoch(&mut fast);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, child);
        assert!(!healer.quarantine().is_quarantined(head, fast.clock_ns()));
        // Only the faulting segment's event lost specialization; the head
        // chain stays installed and keeps hitting.
        assert!(fast.spec().get(head).is_some());
        assert!(fast.spec().get(child).is_none());
        fast.raise(head, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(fast.cost.fastpath_hits, 4);
    }
}
