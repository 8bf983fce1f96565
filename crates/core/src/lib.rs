//! # pdo — profile-directed optimization of event-based programs
//!
//! This crate is the reproduction of the PLDI 2002 paper's contribution:
//! given a program (a `pdo-ir` module executed by the `pdo-events` runtime)
//! and a [`pdo_profile::Profile`] of its event behaviour, [`optimize`]
//! applies the paper's graph optimizations —
//!
//! * **handler merging** (Fig 7): the stable handler sequence of a hot
//!   event becomes one *super-handler*;
//! * **event chains & subsumption** (Figs 8/9): synchronous raises inside
//!   merged bodies are replaced by direct calls to the child event's
//!   super-handler, collapsing whole chains into one function;
//! * **guarded fast paths** (§3.2.1/§3.3): every specialization carries the
//!   binding lists it assumed, and holds iff every one of them is still
//!   live; dynamic re-binding makes the dispatch fall back to generic code;
//! * **segment-only fallback** (Fig 14, §5 extension) is the same mechanism
//!   with [`OptimizeOptions::subsume`] off: one guarded chain per event, a
//!   parent's super-handler raises its child and the child's own chain
//!   takes the fast lane under its own guard, so a re-binding of one
//!   chained event degrades only that event;
//!
//! — followed by the **compiler optimizations** of §3.2.2 (inlining,
//! constant propagation, CSE, DCE, lock coalescing, redundant-load
//! elimination) from `pdo-passes`, applied only to the new super-handlers,
//! whose straight-line sequences are then fused into superinstructions.
//!
//! ```
//! use pdo_ir::{Module, FunctionBuilder, BinOp, Value, RaiseMode};
//! use pdo_events::{Runtime, TraceConfig};
//! use pdo_profile::Profile;
//! use pdo::{optimize, OptimizeOptions};
//!
//! // A module with one event and two handlers.
//! let mut m = Module::new();
//! let e = m.add_event("Tick");
//! let g = m.add_global("count", Value::Int(0));
//! let mut mk = |m: &mut Module, name: &str, k: i64| {
//!     let mut b = FunctionBuilder::new(name, 1);
//!     b.lock(g);
//!     let v = b.load_global(g);
//!     let kk = b.const_value(Value::Int(k));
//!     let s = b.bin(BinOp::Add, v, kk);
//!     b.store_global(g, s);
//!     b.unlock(g);
//!     b.ret(None);
//!     m.add_function(b.finish())
//! };
//! let h1 = mk(&mut m, "h1", 1);
//! let h2 = mk(&mut m, "h2", 10);
//!
//! // Profile a run.
//! let mut rt = Runtime::new(m.clone());
//! rt.bind(e, h1, 0)?;
//! rt.bind(e, h2, 1)?;
//! rt.set_trace_config(TraceConfig::full());
//! for _ in 0..100 {
//!     rt.raise(e, RaiseMode::Sync, &[Value::Unit])?;
//! }
//! let profile = Profile::from_trace(&rt.take_trace(), 50);
//!
//! // Optimize and run the specialized program.
//! let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));
//! assert_eq!(opt.report.events.len(), 1);
//! let mut fast = Runtime::new(opt.module.clone());
//! fast.bind(e, h1, 0)?;
//! fast.bind(e, h2, 1)?;
//! opt.install_chains(&mut fast);
//! fast.raise(e, RaiseMode::Sync, &[Value::Unit])?;
//! assert_eq!(fast.global(g), &Value::Int(11));
//! assert_eq!(fast.cost.fastpath_hits, 1);
//! assert_eq!(fast.cost.marshaled_values, 0);
//! # Ok::<(), pdo_events::RuntimeError>(())
//! ```

pub mod adapt;
pub mod merge;
pub mod quarantine;
pub mod report;
pub mod subsume;

pub use adapt::{
    AdaptConfig, AdaptStats, AdaptiveEngine, ChainCache, Deployable, EngineSnapshot, Plan,
};
pub use merge::{build_super_handler, build_super_handler_metered, MergeSkip};
pub use quarantine::{Quarantine, QuarantineConfig, QuarantineEntry};
pub use report::{EventReport, OptReport};
pub use subsume::{subsume_direct, sync_raise_sites, RaiseSite};

use pdo_events::{CompiledChain, Guard, Registry, Runtime};
use pdo_ir::{EventId, FuncId, Module, NativeId};
use pdo_passes::optimize_single_function;
use pdo_profile::{EventGraph, HandlerGraph, Profile};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for [`optimize`]. Start from [`OptimizeOptions::new`] and
/// toggle the extension flags for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Edge-weight threshold for graph reduction (the paper's `T`).
    pub threshold: u64,
    /// Replace synchronous raises inside super-handlers with direct calls
    /// to the child's super-handler (Figs 8/9), collapsing a chain into one
    /// function under one guard set. Default on. Off gives the paper's
    /// partitioned form (Fig 14): every hot event keeps its own chain under
    /// its own guard, nested raises stay raises, and a re-binding of a
    /// child sends only the child to generic dispatch while its parents
    /// stay on the fast lane.
    pub subsume: bool,
    /// Merge *every* event with a stable handler sequence, not only hot
    /// ones (§5 "simple extension"). Default off.
    pub merge_all: bool,
    /// Subsume raises even without nested-raise profile evidence (§5
    /// speculative optimization; always guarded, hence safe). Default off.
    pub speculative: bool,
    /// Inline merged handler bodies into the super-handler. Default on.
    pub inline: bool,
    /// Run the §3.2.2 compiler passes on super-handlers, and fuse the
    /// finished bodies into superinstructions. Default on.
    pub compiler_passes: bool,
    /// Emit a `__pdo_fuel_boundary` marker before each merged handler
    /// segment so [`pdo_events::FaultKind::ExhaustFuel`] trips at the same
    /// pre-merge handler boundaries as generic dispatch. Default off: the
    /// markers are native calls, which end lock coalescing's `unlock g …
    /// lock g` window (load forwarding sees through them), so they cost
    /// real optimization opportunity and are only worth it when
    /// fuel-exhaustion equivalence matters (chaos testing).
    pub fuel_boundaries: bool,
}

/// Inline size ceiling for handler bodies spliced into a super-handler.
const INLINE_THRESHOLD: usize = 4096;

impl OptimizeOptions {
    /// Defaults matching the paper's main configuration at threshold `t`.
    pub fn new(threshold: u64) -> Self {
        OptimizeOptions {
            threshold,
            subsume: true,
            merge_all: false,
            speculative: false,
            inline: true,
            compiler_passes: true,
            fuel_boundaries: false,
        }
    }
}

/// The result of [`optimize`]: an extended module (original functions plus
/// super-handlers), the guarded chains to install, and a report.
#[derive(Debug, Clone)]
pub struct Optimization {
    /// Original module plus the generated super-handlers. Original function
    /// ids are unchanged, so existing bindings remain valid.
    pub module: Module,
    /// Compiled chains, one per optimized event.
    pub chains: Vec<CompiledChain>,
    /// What happened.
    pub report: OptReport,
}

impl Optimization {
    /// Installs every chain into `runtime`. The runtime must be executing
    /// [`Optimization::module`] and its registry must match the binding
    /// state that was profiled (otherwise the guards simply never pass and
    /// dispatch stays generic — correct, but unoptimized).
    pub fn install_chains(&self, runtime: &mut Runtime) {
        for chain in &self.chains {
            runtime.install_chain(chain.clone());
        }
    }
}

/// Runs the full profile-directed optimization pipeline.
///
/// `registry` is the live binding state of the profiled program — the
/// specializations are valid exactly for that state and guarded against
/// any change from it.
pub fn optimize(
    module: &Module,
    registry: &Registry,
    profile: &Profile,
    opts: &OptimizeOptions,
) -> Optimization {
    let mut builder = Builder {
        out: module.clone(),
        registry,
        profile,
        opts,
        fuel_native: None,
        memo: BTreeMap::new(),
        in_progress: BTreeSet::new(),
        report: OptReport {
            module_instrs_before: module.instr_count(),
            ..Default::default()
        },
    };

    if opts.fuel_boundaries {
        let id = builder
            .out
            .native_by_name(Runtime::NATIVE_FUEL_BOUNDARY)
            .unwrap_or_else(|| builder.out.add_native(Runtime::NATIVE_FUEL_BOUNDARY));
        builder.fuel_native = Some(id);
    }

    for event in candidates(&profile.event_graph, &profile.handler_graph, opts) {
        builder.build(event);
    }
    if opts.compiler_passes {
        builder.fuse(module.functions.len());
    }

    let chains = builder.chains();
    builder.report.module_instrs_after = builder.out.instr_count();
    Optimization {
        module: builder.out,
        chains,
        report: builder.report,
    }
}

/// The events [`optimize`] starts from: the nodes of the graph reduced at
/// the threshold (every event touching an edge that heavy), or every
/// profiled event under `merge_all`.
pub(crate) fn candidates(
    events: &EventGraph,
    handlers: &HandlerGraph,
    opts: &OptimizeOptions,
) -> BTreeSet<EventId> {
    if opts.merge_all {
        return handlers.sequences.keys().copied().collect();
    }
    events
        .edges
        .iter()
        .filter(|(_, data)| data.weight >= opts.threshold)
        .flat_map(|(&(from, to), _)| [from, to])
        .collect()
}

/// The handler sequence [`optimize`] would merge for `event`: the one the
/// profile saw, if it saw only one and it is what is bound now. Otherwise
/// the reason to report, if there is one — an event never seen
/// dispatching, or bound to nothing, is simply not merged.
pub(crate) fn mergeable<'p>(
    handlers: &'p HandlerGraph,
    registry: &Registry,
    event: EventId,
) -> Result<&'p [FuncId], Option<MergeSkip>> {
    let Some(seq) = handlers.stable_sequence(event) else {
        let seen = handlers.sequences.contains_key(&event);
        return Err(seen.then_some(MergeSkip::UnstableSequence));
    };
    if !registry
        .bindings(event)
        .iter()
        .map(|b| b.handler)
        .eq(seq.iter().copied())
    {
        return Err(Some(MergeSkip::RegistryDrift));
    }
    if seq.is_empty() {
        return Err(None);
    }
    Ok(seq)
}

/// Does the profile justify folding `child` into `parent`'s body?
///
/// Always-correct guard semantics make the evidence requirement purely a
/// cost/benefit heuristic: without [`OptimizeOptions::speculative`], we
/// require an observed nested synchronous raise (Fig 8 pattern).
pub(crate) fn subsume_evidence(
    handlers: &HandlerGraph,
    opts: &OptimizeOptions,
    parent: EventId,
    child: EventId,
) -> bool {
    opts.speculative
        || handlers
            .nested
            .iter()
            .any(|(k, &count)| k.parent_event == parent && k.child_event == child && count > 0)
}

/// A built super-handler and what it covers.
#[derive(Debug, Clone)]
struct Built {
    func: FuncId,
    params: u16,
    /// Events whose handlers were folded in (excluding the head).
    subsumed: BTreeSet<EventId>,
}

struct Builder<'a> {
    out: Module,
    registry: &'a Registry,
    profile: &'a Profile,
    opts: &'a OptimizeOptions,
    fuel_native: Option<NativeId>,
    memo: BTreeMap<EventId, Option<Built>>,
    in_progress: BTreeSet<EventId>,
    report: OptReport,
}

impl Builder<'_> {
    /// Builds (or fetches) the super-handler for `event`.
    fn build(&mut self, event: EventId) -> Option<Built> {
        if let Some(b) = self.memo.get(&event) {
            return b.clone();
        }
        if self.in_progress.contains(&event) {
            return None; // event cycle: leave the raise generic
        }

        // The profiled sequence must be stable *and* still current.
        let seq: Vec<FuncId> = match mergeable(&self.profile.handler_graph, self.registry, event) {
            Ok(seq) => seq.to_vec(),
            Err(why) => {
                if let Some(why) = why {
                    self.report.skip(event, why);
                }
                self.memo.insert(event, None);
                return None;
            }
        };

        self.in_progress.insert(event);
        let name = format!("__super_{}", self.out.event_name(event));
        let shell = match merge::build_super_handler_metered(
            &mut self.out,
            &name,
            &seq,
            self.fuel_native,
        ) {
            Ok(f) => f,
            Err(reason) => {
                self.report.skip(event, reason);
                self.in_progress.remove(&event);
                self.memo.insert(event, None);
                return None;
            }
        };
        let params = self.out.function(shell).params;
        let instrs_original: usize = seq
            .iter()
            .map(|&h| self.out.function(h).instr_count())
            .sum();

        self.cleanup(shell);

        // Subsumption: fold synchronous child raises into the body. Work in
        // rounds: each round collects the current sites up front and
        // rewrites them in reverse order (so earlier positions stay valid),
        // then inlining may expose new sites from spliced child bodies.
        let mut subsumed: BTreeSet<EventId> = BTreeSet::new();
        let mut subsume_count = 0usize;
        if self.opts.subsume {
            let mut refused: BTreeSet<EventId> = BTreeSet::new();
            for _round in 0..4 {
                let sites: Vec<RaiseSite> = sync_raise_sites(&self.out.functions[shell.index()])
                    .into_iter()
                    .filter(|s| {
                        !refused.contains(&s.event)
                            && subsume_evidence(
                                &self.profile.handler_graph,
                                self.opts,
                                event,
                                s.event,
                            )
                    })
                    .collect();
                if sites.is_empty() {
                    break;
                }
                let mut did_any = false;
                for site in sites.into_iter().rev() {
                    let Some(child) = self.build(site.event) else {
                        refused.insert(site.event);
                        continue;
                    };
                    if usize::from(child.params) != site.arity {
                        refused.insert(site.event);
                        continue;
                    }
                    subsume_direct(&mut self.out.functions[shell.index()], site, child.func);
                    subsumed.insert(site.event);
                    subsumed.extend(child.subsumed.iter().copied());
                    subsume_count += 1;
                    did_any = true;
                }
                if !did_any {
                    break;
                }
                self.cleanup(shell);
            }
        }

        // Every path to here ran `cleanup` after the last edit to `shell`.
        self.in_progress.remove(&event);

        let built = Built {
            func: shell,
            params,
            subsumed,
        };
        self.report.events.push(EventReport {
            event,
            func: shell,
            merged_handlers: seq.len(),
            subsumed_raises: subsume_count,
            instrs_original,
            instrs_optimized: self.out.function(shell).instr_count(),
        });
        self.memo.insert(event, Some(built.clone()));
        Some(built)
    }

    /// Applies inlining / compiler passes to one super-handler according to
    /// the options.
    fn cleanup(&mut self, func: FuncId) {
        let inline = self.opts.inline.then_some(INLINE_THRESHOLD);
        if self.opts.compiler_passes {
            optimize_single_function(&mut self.out, func, inline);
        } else if let Some(th) = inline {
            pdo_passes::inline::inline_into(&mut self.out, func.index(), th);
        }
    }

    /// Rewrites the straight-line sequences of every function appended past
    /// the first `base_functions` into superinstructions, and re-counts the
    /// per-event reports on the fused bodies. Runs once, after the last
    /// super-handler is built: inlining splices child super-handlers into
    /// their parents, and the cleanup passes match unfused code.
    fn fuse(&mut self, base_functions: usize) {
        for idx in base_functions..self.out.functions.len() {
            pdo_passes::fuse_function(
                &mut self.out.functions[idx],
                FuncId::from_index(idx),
                &mut self.report.fused,
            );
        }
        debug_assert_eq!(pdo_ir::verify_module(&self.out), Ok(()));
        for e in &mut self.report.events {
            e.instrs_optimized = self.out.function(e.func).instr_count();
        }
    }

    /// Emits the compiled chains for every built event.
    fn chains(&self) -> Vec<CompiledChain> {
        let mut chains = Vec::new();
        for (&event, built) in &self.memo {
            let Some(built) = built else { continue };
            let mut guard_events: Vec<EventId> = vec![event];
            guard_events.extend(built.subsumed.iter().copied());
            chains.push(CompiledChain {
                head: event,
                guards: guard_events
                    .into_iter()
                    .map(|e| Guard::capture(self.registry, e))
                    .collect(),
                func: built.func,
                params: built.params,
            });
        }
        chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_events::{RuntimeError, TraceConfig};
    use pdo_ir::{BinOp, FunctionBuilder, RaiseMode, Value};

    /// Builds the Fig 8/9 shape: SegFromUser has three handlers, the middle
    /// one synchronously raises Seg2Net, which has two handlers. Each
    /// handler appends its digit to a base-100 accumulator so execution
    /// order is observable.
    fn chain_module() -> (Module, EventId, EventId, Vec<FuncId>, Vec<FuncId>) {
        let mut m = Module::new();
        let sfu = m.add_event("SegFromUser");
        let s2n = m.add_event("Seg2Net");
        let g = m.add_global("log", Value::Int(0));

        let digit = |m: &mut Module, name: &str, d: i64, raises: Option<EventId>| {
            let mut b = FunctionBuilder::new(name, 1);
            b.lock(g);
            let v = b.load_global(g);
            let hundred = b.const_int(100);
            let scaled = b.bin(BinOp::Mul, v, hundred);
            let dd = b.const_int(d);
            let s = b.bin(BinOp::Add, scaled, dd);
            b.store_global(g, s);
            b.unlock(g);
            if let Some(ev) = raises {
                b.raise(ev, RaiseMode::Sync, &[b.param(0)]);
            }
            b.ret(None);
            m.add_function(b.finish())
        };

        let h_sfu = vec![
            digit(&mut m, "fec_sfu1", 1, None),
            digit(&mut m, "tdriver_sfu", 2, Some(s2n)),
            digit(&mut m, "fec_sfu2", 3, None),
        ];
        let h_s2n = vec![
            digit(&mut m, "pau_s2n", 7, None),
            digit(&mut m, "td_s2n", 8, None),
        ];
        (m, sfu, s2n, h_sfu, h_s2n)
    }

    fn setup_runtime(
        m: &Module,
        sfu: EventId,
        s2n: EventId,
        h_sfu: &[FuncId],
        h_s2n: &[FuncId],
    ) -> Result<Runtime, RuntimeError> {
        let mut rt = Runtime::new(m.clone());
        for (i, &h) in h_sfu.iter().enumerate() {
            rt.bind(sfu, h, i as i32)?;
        }
        for (i, &h) in h_s2n.iter().enumerate() {
            rt.bind(s2n, h, i as i32)?;
        }
        Ok(rt)
    }

    fn profile_run(rt: &mut Runtime, sfu: EventId, n: usize) -> Profile {
        rt.set_trace_config(TraceConfig::full());
        for _ in 0..n {
            rt.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        }
        Profile::from_trace(&rt.take_trace(), (n / 2) as u64)
    }

    /// Expected accumulator after one SegFromUser dispatch: digits
    /// 1,2,(7,8 from subsumed Seg2Net),3 in base 100.
    fn expected_one_dispatch() -> i64 {
        let mut v = 0i64;
        for d in [1, 2, 7, 8, 3] {
            v = v * 100 + d;
        }
        v
    }

    #[test]
    fn expected_constant_matches() {
        assert_eq!(expected_one_dispatch(), 102_070_803);
    }

    #[test]
    fn optimizes_chain_and_preserves_behavior() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let g = m.global_by_name("log").unwrap();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);

        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));
        assert_eq!(
            opt.report.events.len(),
            2,
            "{}",
            opt.report.render(&opt.module)
        );
        assert_eq!(opt.report.total_subsumed(), 1);

        // Optimized runtime produces identical state with zero marshaling.
        let mut fast = setup_runtime(&opt.module, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        opt.install_chains(&mut fast);
        fast.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(fast.global(g), &Value::Int(expected_one_dispatch()));
        assert_eq!(fast.cost.fastpath_hits, 1);
        assert_eq!(fast.cost.marshaled_values, 0);
        assert_eq!(fast.cost.indirect_calls, 0);

        // Baseline runtime for comparison.
        let mut slow = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        slow.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(slow.global(g), &Value::Int(expected_one_dispatch()));
        assert!(slow.cost.weighted_total() > fast.cost.weighted_total());
    }

    #[test]
    fn lock_coalescing_happens_inside_super_handler() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));

        let mut fast = setup_runtime(&opt.module, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        opt.install_chains(&mut fast);
        fast.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        // 5 handlers × lock+unlock = 10 lock ops generically; the merged
        // body coalesces interior unlock/lock pairs down to one pair.
        assert_eq!(fast.cost.lock_ops, 2);
    }

    #[test]
    fn rebinding_child_falls_back_and_stays_correct() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let g = m.global_by_name("log").unwrap();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));

        let mut fast = setup_runtime(&opt.module, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        opt.install_chains(&mut fast);
        // Unbind one Seg2Net handler: the whole SegFromUser chain guard
        // fails (monolithic mode).
        fast.unbind(s2n, h_s2n[1]);
        fast.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        let mut v = 0i64;
        for d in [1, 2, 7, 3] {
            v = v * 100 + d;
        }
        assert_eq!(fast.global(g), &Value::Int(v));
        assert!(fast.cost.fastpath_misses >= 1);
        assert_eq!(fast.cost.fastpath_hits, 0);
    }

    #[test]
    fn per_event_chains_survive_child_rebinding() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let g = m.global_by_name("log").unwrap();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let mut opts = OptimizeOptions::new(50);
        opts.subsume = false;
        let opt = optimize(&m, rt.registry(), &profile, &opts);

        let mut fast = setup_runtime(&opt.module, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        opt.install_chains(&mut fast);
        fast.unbind(s2n, h_s2n[1]);
        fast.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        let mut v = 0i64;
        for d in [1, 2, 7, 3] {
            v = v * 100 + d;
        }
        assert_eq!(fast.global(g), &Value::Int(v));
        // Head guard still holds: the fast path is taken; only the Seg2Net
        // segment fell back (Fig 14).
        assert_eq!(fast.cost.fastpath_hits, 1);
    }

    #[test]
    fn per_event_child_returns_to_the_fast_lane_when_its_bindings_return() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let mut opts = OptimizeOptions::new(50);
        opts.subsume = false;
        let opt = optimize(&m, rt.registry(), &profile, &opts);

        let mut fast = setup_runtime(&opt.module, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        opt.install_chains(&mut fast);
        fast.enable_profile_tally();
        let dispatch = |fast: &mut Runtime| {
            let before = fast.cost;
            fast.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
            (
                fast.cost.fastpath_hits - before.fastpath_hits,
                fast.cost.marshaled_values - before.marshaled_values,
            )
        };
        // A: head and child both on the fast lane.
        assert_eq!(dispatch(&mut fast), (2, 0));
        // A -> B on the child: the head still hits at every dispatch, the
        // child runs generically (and marshals) while B is bound.
        assert!(fast.unbind(s2n, h_s2n[1]));
        for _ in 0..3 {
            let (hits, marshaled) = dispatch(&mut fast);
            assert_eq!(hits, 1, "head only");
            assert!(marshaled > 0, "child is generic");
        }
        // B -> A: the child's own content guard re-stamps itself at the
        // very first dispatch, with nobody's help.
        fast.bind(s2n, h_s2n[1], 1).unwrap();
        assert_eq!(dispatch(&mut fast), (2, 0));
        // One miss, the child's; none for the head.
        let tally = fast.profile_tally().unwrap();
        assert_eq!(tally.guard_misses().collect::<Vec<_>>(), vec![(s2n, 1)]);
    }

    #[test]
    fn unstable_sequence_skipped() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        rt.set_trace_config(TraceConfig::full());
        for i in 0..100 {
            // Alternate Seg2Net's binding so its sequence is unstable.
            if i == 50 {
                rt.unbind(s2n, h_s2n[1]);
            }
            rt.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        }
        let profile = Profile::from_trace(&rt.take_trace(), 50);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));
        // Seg2Net skipped (unstable); SegFromUser may still merge but not
        // subsume the unstable child.
        assert!(opt
            .report
            .skipped
            .iter()
            .any(|(e, why)| *e == s2n && why.contains("unstable")));
        assert_eq!(opt.report.total_subsumed(), 0);
    }

    #[test]
    fn registry_drift_skipped() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        // Re-bind after profiling.
        rt.unbind(sfu, h_sfu[2]);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));
        assert!(opt
            .report
            .skipped
            .iter()
            .any(|(e, why)| *e == sfu && why.contains("registry")));
    }

    #[test]
    fn code_growth_is_reported() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));
        assert!(opt.report.code_growth_percent() > 0.0);
        assert_eq!(opt.report.module_instrs_before, m.instr_count());
        assert_eq!(opt.report.module_instrs_after, opt.module.instr_count());
    }

    #[test]
    fn report_counts_events_and_module_on_the_same_fused_bodies() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(50));
        let report = &opt.report;
        assert!(!report.fused.is_empty(), "{}", report.render(&opt.module));
        for e in &report.events {
            assert_eq!(
                e.instrs_optimized,
                opt.module.function(e.func).instr_count()
            );
        }
        // Every appended function is one event's super-handler.
        let appended: usize = report.events.iter().map(|e| e.instrs_optimized).sum();
        assert_eq!(
            report.module_instrs_after,
            report.module_instrs_before + appended
        );
    }

    #[test]
    fn merge_all_includes_cold_events() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        // Tiny profile: below any reasonable threshold.
        rt.set_trace_config(TraceConfig::full());
        rt.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        let profile = Profile::from_trace(&rt.take_trace(), 1000);

        let cold = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(1000));
        assert!(cold.report.events.is_empty());

        let mut opts = OptimizeOptions::new(1000);
        opts.merge_all = true;
        opts.speculative = true;
        let all = optimize(&m, rt.registry(), &profile, &opts);
        assert_eq!(all.report.events.len(), 2);
    }

    #[test]
    fn no_inline_keeps_direct_calls() {
        let (m, sfu, s2n, h_sfu, h_s2n) = chain_module();
        let g = m.global_by_name("log").unwrap();
        let mut rt = setup_runtime(&m, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        let profile = profile_run(&mut rt, sfu, 100);
        let mut opts = OptimizeOptions::new(50);
        opts.inline = false;
        opts.compiler_passes = false;
        let opt = optimize(&m, rt.registry(), &profile, &opts);

        let mut fast = setup_runtime(&opt.module, sfu, s2n, &h_sfu, &h_s2n).unwrap();
        opt.install_chains(&mut fast);
        fast.raise(sfu, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(fast.global(g), &Value::Int(expected_one_dispatch()));
        // Direct calls instead of inlined bodies, but still no marshaling.
        assert!(fast.cost.calls >= 5);
        assert_eq!(fast.cost.marshaled_values, 0);
    }

    #[test]
    fn async_child_raise_never_subsumed() {
        // Like chain_module but the nested raise is asynchronous: it must
        // survive as a raise (timing semantics, §3.2.1).
        let mut m = Module::new();
        let a = m.add_event("A");
        let b_ev = m.add_event("B");
        let g = m.add_global("log", Value::Int(0));
        let mk = |m: &mut Module, name: &str, d: i64, raises: bool| {
            let mut fb = FunctionBuilder::new(name, 0);
            let v = fb.load_global(g);
            let ten = fb.const_int(10);
            let s = fb.bin(BinOp::Mul, v, ten);
            let dd = fb.const_int(d);
            let o = fb.bin(BinOp::Add, s, dd);
            fb.store_global(g, o);
            if raises {
                fb.raise(b_ev, RaiseMode::Async, &[]);
            }
            fb.ret(None);
            m.add_function(fb.finish())
        };
        let ha = mk(&mut m, "ha", 1, true);
        let hb = mk(&mut m, "hb", 2, false);

        let mut rt = Runtime::new(m.clone());
        rt.bind(a, ha, 0).unwrap();
        rt.bind(b_ev, hb, 0).unwrap();
        rt.set_trace_config(TraceConfig::full());
        for _ in 0..50 {
            rt.raise(a, RaiseMode::Sync, &[]).unwrap();
            rt.run_until_idle().unwrap();
        }
        let profile = Profile::from_trace(&rt.take_trace(), 10);
        let mut opts = OptimizeOptions::new(10);
        opts.speculative = true; // even speculation must not touch async
        let opt = optimize(&m, rt.registry(), &profile, &opts);

        let sup = opt.module.function_by_name("__super_A").expect("A merged");
        let has_async_raise = opt.module.function(sup).blocks.iter().any(|blk| {
            blk.instrs.iter().any(|i| {
                matches!(
                    i,
                    pdo_ir::Instr::Raise {
                        mode: RaiseMode::Async,
                        ..
                    }
                )
            })
        });
        assert!(has_async_raise, "async raise must be preserved");
    }
}
