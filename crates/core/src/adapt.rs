//! The online adaptive-specialization loop.
//!
//! The paper's pipeline is offline: run, trace, optimize, redeploy. The
//! [`AdaptiveEngine`] closes that loop at runtime. Attached to a
//! [`Runtime`] through the epoch hook (so it fires *inside*
//! [`Runtime::run_until`] on virtual-clock epoch boundaries, with no
//! call from the caller), each epoch it:
//!
//! 1. drains the profile the runtime counted since the last epoch (its
//!    [`ProfileTally`](pdo_events::ProfileTally)) into an incremental
//!    [`ProfileBuilder`]: one merge per distinct edge, handler sequence
//!    and nested raise, with no record to read back. The profile only
//!    ever describes the *program*: a dispatch that took the fast lane is
//!    credited with the handler sequences and nested raises its
//!    super-handler was compiled from ([`SuperHandlers`]) — the fast lane
//!    shows the runtime one merged frame and none of the raises it
//!    subsumed, and a profile of that would be a profile of the optimizer;
//! 2. feeds the same drain's per-event faults and guard misses to its
//!    [`Quarantine`], which removes the chains of events that fault or
//!    churn past a threshold and bars them for a backoff, and its
//!    despecializations to the [`ChainCache`]; then runs the one install
//!    step: a deployed chain the runtime does not hold comes back if its
//!    guards hold and the quarantine no longer bars it, and is forgotten
//!    if its bindings changed while it was out;
//! 3. when enough fresh events accumulated — or step 2 forgot a chain —
//!    works out the [`Plan`]:
//!    what [`optimize`] would build from *what is hot* and *what is
//!    bound*, by content. If that is the deployed plan, the epoch is over:
//!    a stationary workload reaches this fixed point after one deploy.
//!    Only a changed plan redeploys — from the [`ChainCache`] when the
//!    plan has been built before (an oscillating workload replays by
//!    pointer), else by running `optimize` against the **original base
//!    module** — hot-swapping the module and handing the new chains to
//!    the same install step;
//! 4. decays the accumulated profile, so hotness observed `k` epochs ago
//!    weighs `1/2^k`: a workload shift from chain A to chain B ends with
//!    B specialized and A despecialized.
//!
//! The tally of step 1 is the profile's one source: the runtime counts it
//! for as long as the engine is attached, and which lane a dispatch took
//! changes nothing the profile says about the program.
//!
//! The decision in step 3 is a function of the profile and the registry
//! alone, never of the previous decision, which is what makes it settle.
//! Two things keep the profile itself from reacting to the decision. A
//! live chain's compile-time evidence stays in force through step 1 for as
//! long as its guards hold and its head keeps being raised; without that,
//! a deployed parent would be re-planned without the children it subsumed
//! as soon as their raise records stopped appearing. And when a deployed
//! chain's guards fail, the observed sequences of the rebound events are
//! forgotten at once, so the list now bound is stable after one window
//! rather than after the old one has decayed away.
//!
//! Re-optimizing against the base module (not the previously optimized
//! one) keeps the module from growing a `__super_*` generation per
//! redeploy; existing function/global/native ids are stable because the
//! optimizer only appends, so [`Runtime::replace_module`] preserves all
//! session state.

use crate::quarantine::{Quarantine, QuarantineConfig, QuarantineEntry};
use crate::{candidates, mergeable, optimize, subsume_evidence};
use crate::{MergeSkip, Optimization, OptimizeOptions};
use pdo_events::{Binding, CompiledChain, Registry, Runtime};
use pdo_ir::{EventId, Module};
use pdo_obs::{AuditAction, Histogram, MetricsSnapshot, SpanKind};
use pdo_profile::{EventGraph, HandlerGraph, ProfileBuilder, SuperHandler, SuperHandlers};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Tuning for one session's adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Virtual-clock epoch length driving the loop (ns).
    pub epoch_ns: u64,
    /// Re-profile only after at least this many fresh raises accumulated
    /// (an epoch that forgets a chain re-profiles regardless).
    pub min_fresh_events: u64,
    /// Optimizer configuration used for each re-profile.
    pub opts: OptimizeOptions,
    /// Quarantine/backoff policy for the engine's [`Quarantine`].
    pub quarantine: QuarantineConfig,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            epoch_ns: 1_000_000,
            min_fresh_events: 64,
            opts: OptimizeOptions::new(16),
            quarantine: QuarantineConfig::default(),
        }
    }
}

/// Capacity of an engine's [`ChainCache`]: a workload oscillating between
/// phases it has already seen swaps the pre-built optimization back in
/// instead of re-running `optimize`.
const CHAIN_CACHE_CAP: usize = 8;

/// What [`optimize`] would build right now, named by everything it reads
/// from the profile and the registry: the engine's decision, the
/// [`ChainCache`] key, and — compared with the deployed one — the test for
/// "nothing to do". Two plans are equal exactly when `optimize` over the
/// same base module would be handed the same inputs, however many times
/// the bindings were taken apart and put back in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The optimizer configuration.
    pub opts: OptimizeOptions,
    /// Every event with a mergeable handler sequence that is a candidate
    /// or reachable from one through subsumption evidence, with the
    /// binding list that would be merged; in event order.
    pub events: Vec<(EventId, Arc<[Binding]>)>,
    /// `(parent, child)` for every two planned events with evidence that
    /// the parent's handlers raise the child synchronously; in order.
    pub subsumes: Vec<(EventId, EventId)>,
}

impl Plan {
    /// The plan for the accumulated `events`/`handlers` profile against
    /// the live `registry`. `declined` hears of every event that is hot
    /// (or raised by one that is) but cannot be merged, and why.
    pub fn wanted(
        events: &EventGraph,
        handlers: &HandlerGraph,
        registry: &Registry,
        opts: &OptimizeOptions,
        mut declined: impl FnMut(EventId, MergeSkip),
    ) -> Plan {
        let mut plan = Plan {
            opts: *opts,
            events: Vec::new(),
            subsumes: Vec::new(),
        };
        let mut pending: Vec<EventId> = candidates(events, handlers, opts).into_iter().collect();
        let mut seen = BTreeSet::new();
        while let Some(event) = pending.pop() {
            if !seen.insert(event) {
                continue;
            }
            if let Err(why) = mergeable(handlers, registry, event) {
                if let Some(why) = why {
                    declined(event, why);
                }
                continue;
            }
            plan.events.push((event, registry.snapshot(event)));
            if opts.subsume {
                // Looked for among the profiled events: one never seen
                // dispatching is not mergeable anyway. (Under
                // `speculative` each of them is a child — whether a raise
                // site for it turns up takes building the body to know.)
                let children = handlers
                    .sequences
                    .keys()
                    .filter(|&&child| subsume_evidence(handlers, opts, event, child));
                for &child in children {
                    plan.subsumes.push((event, child));
                    pending.push(child);
                }
            }
        }
        plan.events.sort_unstable_by_key(|&(event, _)| event);
        let planned = |event: &EventId| {
            plan.events
                .binary_search_by_key(event, |&(planned, _)| planned)
                .is_ok()
        };
        plan.subsumes.retain(|(_, child)| planned(child));
        plan.subsumes.sort_unstable();
        plan
    }
}

/// What one deploy puts into a runtime: the extended module, shared so a
/// redeploy is a pointer swap, and the guarded chains that enter it.
#[derive(Debug, Clone)]
pub struct Deployable {
    /// Base module plus the generated super-handlers.
    pub module: Arc<Module>,
    /// Compiled chains, one per optimized event, in head-event order.
    pub chains: Vec<CompiledChain>,
}

impl From<Optimization> for Deployable {
    fn from(mut opt: Optimization) -> Self {
        // The module now lives as long as a cache entry does: give back
        // the growth slack the optimizer's pushes left in it.
        opt.module.functions.shrink_to_fit();
        for function in &mut opt.module.functions {
            function.blocks.shrink_to_fit();
            for block in &mut function.blocks {
                block.instrs.shrink_to_fit();
            }
        }
        Deployable {
            module: Arc::new(opt.module),
            chains: opt.chains,
        }
    }
}

/// A bounded LRU of previously built optimizations, keyed by the [`Plan`]
/// they were built for.
///
/// Equal plans mean equal inputs to `optimize`, so a hit is the
/// optimization a rebuild would produce, guards included: they carry the
/// same binding lists the key does. (Correctness does not rest on that —
/// every dispatch checks its chain's guards against the live registry.)
/// Entries are dropped when the runtime despecializes one of their events
/// for containment: a chain that trapped is rebuilt, not replayed.
#[derive(Debug, Default)]
pub struct ChainCache {
    cap: usize,
    /// Most-recently-used last; linear scans are fine at LRU capacities.
    entries: Vec<(Plan, Deployable)>,
}

impl ChainCache {
    /// A cache holding up to `cap` optimizations (`0` disables).
    pub fn new(cap: usize) -> ChainCache {
        ChainCache {
            cap,
            ..ChainCache::default()
        }
    }

    /// The cached optimization for `plan`, if present.
    pub fn lookup(&mut self, plan: &Plan) -> Option<Deployable> {
        let idx = self.entries.iter().position(|(k, _)| k == plan)?;
        let entry = self.entries.remove(idx);
        let hit = entry.1.clone();
        self.entries.push(entry);
        Some(hit)
    }

    /// Caches `built` under `plan`, evicting the least-recently-used entry
    /// when full; returns whether it evicted. Empty optimizations are not
    /// cached (nothing to replay).
    pub fn insert(&mut self, plan: Plan, built: &Deployable) -> bool {
        if self.cap == 0 || built.chains.is_empty() {
            return false;
        }
        self.entries.retain(|(k, _)| k != &plan);
        let evict = self.entries.len() >= self.cap;
        if evict {
            self.entries.remove(0);
        }
        self.entries.push((plan, built.clone()));
        evict
    }

    /// Drops every entry containing a chain that dispatches or guards
    /// `event`, returning how many were dropped. Called when the runtime
    /// despecializes `event` for containment.
    pub fn invalidate_event(&mut self, event: EventId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, built)| {
            !built
                .chains
                .iter()
                .any(|c| c.head == event || c.guards.iter().any(|g| g.event == event))
        });
        before - self.entries.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Observable counters of one session's adaptation loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Epoch boundaries processed; each merged one counted window.
    pub epochs: u64,
    /// Re-profile passes run: the plan was worked out and compared with
    /// the deployed one. Most find it deployed already; those that do not
    /// redeploy, and each redeploy is one cache hit or one cache miss.
    pub reprofiles: u64,
    /// Chains installed (cumulative): by redeploys, and on their return
    /// from containment or quarantine.
    pub chains_installed: u64,
    /// Deployed chains let go of: installed ones a changed plan no longer
    /// wanted (the workload shifted away from them, or their bindings
    /// changed), and ones out of the runtime whose bindings changed
    /// before they could return.
    pub chains_dropped: u64,
    /// Chains the runtime removed for containment (`Despecialize` policy),
    /// accumulated from each epoch's profile tally.
    pub despecialized: u64,
    /// Redeploys served from the [`ChainCache`] (no `optimize` run).
    pub cache_hits: u64,
    /// Redeploys that had to run `optimize` (plan not seen, or evicted).
    pub cache_misses: u64,
    /// Cache entries evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Cache entries dropped because one of their events was despecialized.
    pub cache_invalidations: u64,
}

pdo_snap::codec_struct!(AdaptStats {
    epochs,
    reprofiles,
    chains_installed,
    chains_dropped,
    despecialized,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_invalidations,
});

impl AdaptStats {
    /// Field-wise sum of `other` into `self` — the one place that knows
    /// every counter, so server rollups can't silently drop a field
    /// when one is added here.
    pub fn absorb(&mut self, other: &AdaptStats) {
        let AdaptStats {
            epochs,
            reprofiles,
            chains_installed,
            chains_dropped,
            despecialized,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_invalidations,
        } = other;
        self.epochs += epochs;
        self.reprofiles += reprofiles;
        self.chains_installed += chains_installed;
        self.chains_dropped += chains_dropped;
        self.despecialized += despecialized;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.cache_evictions += cache_evictions;
        self.cache_invalidations += cache_invalidations;
    }
}

/// Serializable state of one [`AdaptiveEngine`], captured at an epoch
/// boundary (when the profile tally has just been drained, so nothing
/// in-flight is lost). A restored engine *resumes* specialization: the
/// decaying profile accumulators, the cumulative adaptation counters, and
/// every quarantine strike/backoff carry over.
///
/// Deliberately **not** captured — each is rebuilt deterministically or
/// is diagnostic-only: compiled chains (the next re-profile rebuilds them
/// from the carried profile, and a chain out of the runtime when the
/// snapshot was taken comes back through that rebuild), the
/// [`ChainCache`] (a warm-start cache) and the reprofile wall-clock
/// histogram (wall time is nondeterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Decaying profile accumulators.
    pub profile: ProfileBuilder,
    /// Cumulative adaptation counters.
    pub stats: AdaptStats,
    /// Per-event quarantine entries.
    pub quarantine: BTreeMap<EventId, QuarantineEntry>,
}

pdo_snap::codec_struct!(EngineSnapshot {
    profile,
    stats,
    quarantine,
});

/// The engine's one emission point: a decision is one `ChainAudit` span
/// (`event` concerned, `action` taken, `why`) in the causal trace, joining
/// the trace whose dispatch drove it. `why` runs only if the runtime has
/// a store attached and enabled.
fn audit(rt: &Runtime, event: Option<EventId>, action: AuditAction, why: impl FnOnce() -> String) {
    if let Some(t) = rt.tracer().filter(|t| t.enabled()) {
        let kind = SpanKind::ChainAudit {
            event: event.map(|e| e.0),
            action,
            why: why(),
        };
        let now = rt.clock_ns();
        t.record_under(rt.last_trace_ctx(), now, now, kind);
    }
}

/// Why a hot event is running generically. Audited when the answer
/// changes, not every epoch it stays the same.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WhyNot {
    /// The plan could not include it.
    Unmergeable(MergeSkip),
    /// It is planned and built, but barred by the quarantine.
    Quarantined { until_ns: u64 },
    /// It was deployed and has since cooled below the threshold.
    BelowThreshold,
    /// Its bindings changed under a deployed chain; what was observed of
    /// it has been forgotten and is being observed afresh.
    BindingsChanged,
}

impl WhyNot {
    fn label(&self) -> &'static str {
        match self {
            WhyNot::Unmergeable(MergeSkip::UnstableSequence) => "unstable-sequence",
            WhyNot::Unmergeable(MergeSkip::RegistryDrift) => "registry-drift",
            WhyNot::Unmergeable(MergeSkip::ArityMismatch) => "arity-mismatch",
            WhyNot::Unmergeable(MergeSkip::NoHandlers) => "no-handlers",
            WhyNot::Quarantined { .. } => "quarantined",
            WhyNot::BelowThreshold => "below-threshold",
            WhyNot::BindingsChanged => "bindings-changed",
        }
    }
}

/// Audits `why` for `event` unless it is the answer already on record.
fn note_why_not(
    rt: &Runtime,
    on_record: &mut BTreeMap<EventId, WhyNot>,
    event: EventId,
    why: WhyNot,
) {
    if on_record.get(&event) == Some(&why) {
        return;
    }
    audit(rt, Some(event), AuditAction::Decline, || match why {
        WhyNot::Quarantined { until_ns } => format!("quarantined until t={until_ns}ns"),
        _ => why.label().to_string(),
    });
    on_record.insert(event, why);
}

/// A deployed chain, kept with what a fast-lane dispatch of it stands for
/// in the profile: forgetting the chain forgets that credit with it.
#[derive(Debug)]
struct Deployed {
    chain: CompiledChain,
    merged: SuperHandler,
}

impl AsRef<SuperHandler> for Deployed {
    fn as_ref(&self) -> &SuperHandler {
        &self.merged
    }
}

/// Per-session state of the adaptive-specialization daemon.
#[derive(Debug)]
pub struct AdaptiveEngine {
    base: Arc<Module>,
    config: AdaptConfig,
    builder: ProfileBuilder,
    /// Bars faulting or churning events from specialization; a restored
    /// engine resumes it from its snapshot.
    quarantine: Quarantine,
    /// The plan the deployed chains were built for. Emptied when one of
    /// them is forgotten, so only a plan that wants nothing matches it
    /// until the next deploy.
    deployed: Option<Plan>,
    /// The deployed chains, in head-event order, each with its
    /// super-handler as the window merge credits it. After every install
    /// step each one is installed or barred by the quarantine.
    supers: SuperHandlers<Deployed>,
    /// The last audited answer per hot-but-generic event.
    why_not: BTreeMap<EventId, WhyNot>,
    stats: AdaptStats,
    /// Wall-clock duration of each re-profile pass. Wall time — not
    /// virtual time — because the pass is daemon work the workload never
    /// sees on the virtual clock; consequently the histogram is
    /// nondeterministic and excluded from exact snapshot pins.
    reprofile_wall_ns: Histogram,
    /// Previously built optimizations by plan, so oscillating phases skip
    /// `optimize`.
    cache: ChainCache,
}

impl AdaptiveEngine {
    /// An engine re-optimizing against `base` (the session's original,
    /// unspecialized module).
    pub fn new(base: impl Into<Arc<Module>>, config: AdaptConfig) -> Self {
        Self::from_snapshot(base, config, EngineSnapshot::default())
    }

    /// Hooks `engine` into `rt`: starts the runtime's profile tally and
    /// installs an epoch hook that runs [`AdaptiveEngine::on_epoch`]
    /// inside `run_until` — the session adapts with no further caller
    /// involvement. The engine handle stays shared so callers can read
    /// [`AdaptiveEngine::stats`].
    pub fn attach(engine: Rc<RefCell<Self>>, rt: &mut Runtime) {
        let epoch_ns = engine.borrow().config.epoch_ns;
        rt.enable_profile_tally();
        rt.set_epoch_hook(epoch_ns, move |rt, _boundary| {
            engine.borrow_mut().on_epoch(rt);
        });
    }

    /// Convenience: builds an engine over the runtime's current module
    /// (which must be the unoptimized base; the engine shares it) and
    /// attaches it.
    pub fn attach_new(rt: &mut Runtime, config: AdaptConfig) -> Rc<RefCell<Self>> {
        let engine = Rc::new(RefCell::new(AdaptiveEngine::new(rt.module_arc(), config)));
        Self::attach(Rc::clone(&engine), rt);
        engine
    }

    /// Captures the engine's serializable state. Meaningful at an epoch
    /// boundary, where the profile tally has just been drained into the
    /// builder — snapshotting mid-epoch loses only that partial window,
    /// never corrupts.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            profile: self.builder.clone(),
            stats: self.stats(),
            quarantine: self.quarantine.entries().clone(),
        }
    }

    /// Rebuilds an engine from a snapshot: profile accumulators, counters
    /// and quarantine entries resume; chains and the cache rebuild at the
    /// next re-profile. The image is outside input:
    /// observations naming a function `base` does not have (the
    /// `__super_*` ids images written before the profile stopped recording
    /// them can hold, or anything a hostile one invents) are dropped, as
    /// they would otherwise pin their event at "registry drift" until they
    /// decayed.
    pub fn from_snapshot(
        base: impl Into<Arc<Module>>,
        config: AdaptConfig,
        snap: EngineSnapshot,
    ) -> Self {
        let base = base.into();
        let mut builder = snap.profile;
        builder.retain_program_handlers(base.functions.len());
        AdaptiveEngine {
            supers: SuperHandlers {
                base_functions: base.functions.len(),
                deployed: Vec::new(),
            },
            base,
            config,
            builder,
            quarantine: Quarantine::resume(config.quarantine, snap.quarantine),
            deployed: None,
            why_not: BTreeMap::new(),
            stats: snap.stats,
            reprofile_wall_ns: Histogram::new(),
            cache: ChainCache::new(CHAIN_CACHE_CAP),
        }
    }

    /// Rebuilds an engine from `snap` and attaches it to `rt`.
    pub fn attach_restored(
        rt: &mut Runtime,
        base: impl Into<Arc<Module>>,
        config: AdaptConfig,
        snap: EngineSnapshot,
    ) -> Rc<RefCell<Self>> {
        let engine = Rc::new(RefCell::new(Self::from_snapshot(base, config, snap)));
        Self::attach(Rc::clone(&engine), rt);
        engine
    }

    /// Adaptation counters so far; a restored engine's include its
    /// pre-snapshot totals.
    pub fn stats(&self) -> AdaptStats {
        self.stats
    }

    /// Which events are barred from specialization, until when, and their
    /// strike counts.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// The session's original, unspecialized module — what every
    /// re-profile optimizes against, shared with every other session of
    /// the program. A snapshot carries it to reconstruct the session
    /// after a restart.
    pub fn base(&self) -> &Arc<Module> {
        &self.base
    }

    /// Wall-clock durations of every re-profile pass so far: working out
    /// the plan, and — when it changed — the cache lookup or `optimize`
    /// run plus the install.
    pub fn reprofile_wall_ns(&self) -> &Histogram {
        &self.reprofile_wall_ns
    }

    /// Runs one epoch boundary (normally invoked by the epoch hook).
    pub fn on_epoch(&mut self, rt: &mut Runtime) {
        self.stats.epochs += 1;
        self.check_deployed_guards(rt);
        // The quarantine starts counting at the first deploy: before it,
        // there is no chain for a fault to be held against.
        let counting = self.deployed.is_some();
        let now = rt.clock_ns();
        let mut barred = Vec::new();
        rt.drain_profile_tally(|window| {
            self.builder.observe(window, &self.supers);
            // Containment removed a chain: the quarantine, not a cache
            // hit, decides when it comes back.
            for (event, n) in window.despecialized() {
                self.stats.despecialized += n;
                self.stats.cache_invalidations += self.cache.invalidate_event(event) as u64;
            }
            if counting {
                barred = self
                    .quarantine
                    .observe(window.faults(), window.guard_misses(), now);
            }
        });
        let forgot = counting && {
            for event in barred {
                rt.remove_chain(event);
                let until_ns = self
                    .quarantine
                    .quarantined_until(event)
                    .expect("just quarantined");
                audit(rt, Some(event), AuditAction::Quarantine, || {
                    format!("faults exceeded quarantine threshold; backoff until t={until_ns}ns")
                });
            }
            self.install(rt, None)
        };
        if forgot || self.builder.fresh_events() >= self.config.min_fresh_events {
            self.reprofile(rt, forgot);
        }
        self.builder.end_epoch();
    }

    /// Asks every deployed chain whether its guards still hold, before the
    /// window is merged: a chain's compile-time evidence stands in for its
    /// fast-lane dispatches only while they do, and the events whose
    /// bindings changed under it start their observations over.
    fn check_deployed_guards(&mut self, rt: &Runtime) {
        let registry = rt.registry();
        for Deployed { chain, merged } in &mut self.supers.deployed {
            merged.live = chain.guards_hold(registry);
            if merged.live {
                continue;
            }
            for guard in chain.guards.iter().filter(|g| !g.holds(registry)) {
                self.builder.forget_sequences(guard.event);
                note_why_not(rt, &mut self.why_not, guard.event, WhyNot::BindingsChanged);
            }
        }
    }

    /// The one place a chain enters the runtime. Every deployed chain the
    /// runtime does not hold is left out while the quarantine bars it,
    /// installed if its guards hold, and otherwise forgotten: its bindings
    /// changed while it was out, and only a fresh plan can say what to
    /// build for them. Each decision is one audit span. At a redeploy,
    /// `redeploy` words the pass's evidence into each span, and a chain
    /// left out is audited too. Returns whether a chain was forgotten.
    fn install(&mut self, rt: &mut Runtime, redeploy: Option<&dyn Fn(&str) -> String>) -> bool {
        let now = rt.clock_ns();
        let because = |what: &str| redeploy.map_or_else(|| what.to_string(), |why| why(what));
        let mut forgot = false;
        self.supers.deployed.retain(|Deployed { chain, .. }| {
            let head = chain.head;
            if rt.spec().get(head).is_some() {
                return true;
            }
            if self.quarantine.is_quarantined(head, now) {
                if redeploy.is_some() {
                    audit(rt, Some(head), AuditAction::Quarantine, || {
                        because("install skipped: event under quarantine backoff")
                    });
                }
                return true;
            }
            if chain.guards_hold(rt.registry()) {
                rt.install_chain(chain.clone());
                self.stats.chains_installed += 1;
                audit(rt, Some(head), AuditAction::Install, || match redeploy {
                    Some(_) => because("hot chain from profile snapshot"),
                    None => because("chain returns: not barred, guards hold"),
                });
                return true;
            }
            self.stats.chains_dropped += 1;
            audit(rt, Some(head), AuditAction::Drop, || {
                because("bindings changed while the chain was out")
            });
            forgot = true;
            false
        });
        if let Some(plan) = self.deployed.as_mut().filter(|_| forgot) {
            plan.events.clear();
            plan.subsumes.clear();
        }
        forgot
    }

    /// One re-profile pass: works out the plan and, if it is not the
    /// deployed one, deploys it.
    fn reprofile(&mut self, rt: &mut Runtime, stale: bool) {
        let started = Instant::now();
        let fresh = self.builder.take_fresh();
        self.stats.reprofiles += 1;
        // Why each hot event that stays generic does, as of this pass;
        // audited below where it differs from the answer on record.
        let mut reasons = BTreeMap::new();
        let wanted = Plan::wanted(
            self.builder.event_graph(),
            self.builder.handler_graph(),
            rt.registry(),
            &self.config.opts,
            |event, why| {
                reasons.insert(event, WhyNot::Unmergeable(why));
            },
        );
        let now = rt.clock_ns();
        let quarantine = &self.quarantine;
        let barred = |event: EventId| {
            quarantine
                .quarantined_until(event)
                .filter(|_| quarantine.is_quarantined(event, now))
        };
        for &(event, _) in &wanted.events {
            if let Some(until_ns) = barred(event) {
                reasons.insert(event, WhyNot::Quarantined { until_ns });
            }
        }
        for (&event, why) in &reasons {
            note_why_not(rt, &mut self.why_not, event, why.clone());
        }
        self.why_not.retain(|event, _| reasons.contains_key(event));

        // The auditable "why" every decision span below carries: the
        // profile evidence behind this pass, formatted only when a span is
        // actually recorded.
        let (min_fresh, threshold) = (self.config.min_fresh_events, self.config.opts.threshold);
        let planned = wanted.events.len();
        let evidence = |outcome: std::fmt::Arguments<'_>| {
            format!(
                "fresh_events={fresh} min_fresh={min_fresh} threshold={threshold} stale={stale} \
                 planned={planned} outcome={outcome}"
            )
        };

        // Same plan: the fixed point. The install step has left every
        // deployed chain installed or barred.
        if self.deployed.as_ref() == Some(&wanted) {
            let chains = rt.spec().len();
            self.note_reprofile(rt, started, || {
                evidence(format_args!("settled chains={chains}"))
            });
            return;
        }

        let mut fused = Vec::new();
        let (built, cache) = match self.cache.lookup(&wanted) {
            Some(hit) => {
                self.stats.cache_hits += 1;
                (hit, "hit")
            }
            None => {
                self.stats.cache_misses += 1;
                let profile = self.builder.snapshot(threshold);
                let mut opt = optimize(&self.base, rt.registry(), &profile, &self.config.opts);
                fused = std::mem::take(&mut opt.report.fused);
                let built = Deployable::from(opt);
                if self.cache.insert(wanted.clone(), &built) {
                    self.stats.cache_evictions += 1;
                }
                (built, "miss")
            }
        };
        let chains = built.chains.len();
        let redeploy = || evidence(format_args!("redeploy cache={cache} chains={chains}"));
        let because = |what: &str| format!("{what}; {}", redeploy());
        // Fusion: which sequences `optimize` fused where (a cache hit
        // replays an optimization whose sites were audited at its miss).
        for r in &fused {
            audit(rt, None, AuditAction::Install, || {
                because(&format!(
                    "superinstruction fusion: func={} pattern={} sites={}",
                    r.func.0, r.pattern, r.sites
                ))
            });
        }
        if built.chains.is_empty() {
            // Nothing hot enough to build: no evidence is not evidence of
            // nothing, so the deployed chains (still guard-correct) stay
            // rather than thrash.
            self.note_reprofile(rt, started, || evidence(format_args!("nothing-built")));
            return;
        }

        // Every installed chain references the *current* module's function
        // ids, which the swap invalidates: remove them all first, counting
        // the ones the new plan no longer wants as dropped — in event
        // order, which is the table's, so the audit reads the same run to
        // run.
        let old_heads: Vec<EventId> = rt.spec().iter().map(|c| c.head).collect();
        for event in old_heads {
            rt.remove_chain(event);
            if !built.chains.iter().any(|c| c.head == event) {
                self.stats.chains_dropped += 1;
                audit(rt, Some(event), AuditAction::Drop, || {
                    because("chain not wanted by the new plan")
                });
                if !self.why_not.contains_key(&event) {
                    note_why_not(rt, &mut self.why_not, event, WhyNot::BelowThreshold);
                }
            }
        }
        rt.replace_module(Arc::clone(&built.module));

        // What a fast-lane dispatch of each new chain will stand for in the
        // profile: the lists its guards carry, and the raises between them
        // that are now direct calls.
        let nested = &self.builder.handler_graph().nested;
        self.supers.deployed = built
            .chains
            .into_iter()
            .map(|chain| {
                let guarded = |event: EventId| chain.guards.iter().any(|g| g.event == event);
                let merged = SuperHandler {
                    func: chain.func,
                    live: true,
                    sequences: chain
                        .guards
                        .iter()
                        .map(|g| (g.event, g.bindings().iter().map(|b| b.handler).collect()))
                        .collect(),
                    nested: nested
                        .keys()
                        .filter(|k| guarded(k.parent_event) && guarded(k.child_event))
                        .copied()
                        .collect(),
                };
                Deployed { chain, merged }
            })
            .collect();
        self.deployed = Some(wanted);
        // The install step's quarantine check sees every entry, including
        // strikes and backoffs a restored session carried across the
        // snapshot.
        self.install(rt, Some(&because));
        self.note_reprofile(rt, started, redeploy);
    }

    /// Closes out one re-profile pass: wall-clock duration into the
    /// engine's histogram and the pass-level audit span carrying `why`.
    fn note_reprofile(&mut self, rt: &Runtime, started: Instant, why: impl FnOnce() -> String) {
        let duration_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.reprofile_wall_ns.record(duration_ns);
        audit(rt, None, AuditAction::Reprofile, why);
    }

    /// Exports the adaptation loop's counters, gauges, and reprofile
    /// duration histogram into `snap` with `extra` labels on every series.
    /// `rt` supplies the live-chain gauge (the engine installs chains but
    /// the runtime owns them).
    pub fn export_metrics(&self, rt: &Runtime, snap: &mut MetricsSnapshot, extra: &[(&str, &str)]) {
        snap.counter(
            "pdo_adapt_epochs_total",
            "Epoch boundaries processed by the adaptation loop",
            extra,
            self.stats.epochs,
        );
        snap.counter(
            "pdo_adapt_cache_hits_total",
            "Redeploys served from the specialization cache",
            extra,
            self.stats.cache_hits,
        );
        snap.counter(
            "pdo_adapt_cache_misses_total",
            "Redeploys that had to run the optimizer",
            extra,
            self.stats.cache_misses,
        );
        snap.counter(
            "pdo_adapt_cache_evictions_total",
            "Specialization-cache entries evicted by the LRU bound",
            extra,
            self.stats.cache_evictions,
        );
        snap.counter(
            "pdo_adapt_cache_invalidations_total",
            "Specialization-cache entries dropped on despecialization",
            extra,
            self.stats.cache_invalidations,
        );
        snap.counter(
            "pdo_adapt_reprofiles_total",
            "Re-profile passes run (the plan was worked out)",
            extra,
            self.stats.reprofiles,
        );
        snap.counter(
            "pdo_adapt_redeploys_total",
            "Re-profile passes whose plan was not the deployed one",
            extra,
            self.stats.cache_hits + self.stats.cache_misses,
        );
        snap.counter(
            "pdo_adapt_chains_installed_total",
            "Compiled chains installed, by redeploys and on return (cumulative)",
            extra,
            self.stats.chains_installed,
        );
        snap.counter(
            "pdo_adapt_chains_dropped_total",
            "Installed chains a changed plan no longer wanted",
            extra,
            self.stats.chains_dropped,
        );
        snap.counter(
            "pdo_adapt_despecialized_total",
            "Chains the runtime removed for containment",
            extra,
            self.stats.despecialized,
        );
        snap.gauge(
            "pdo_adapt_chains_live",
            "Compiled chains currently installed in the runtime",
            extra,
            rt.spec().iter().count() as i64,
        );
        if self.reprofile_wall_ns.count() > 0 {
            snap.histogram(
                "pdo_adapt_reprofile_wall_ns",
                "Wall-clock duration of each re-profile pass",
                extra,
                &self.reprofile_wall_ns,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_events::{FaultInjector, FaultKind, FaultPolicy, FaultSpec, RuntimeConfig};
    use pdo_ir::{BinOp, FunctionBuilder, RaiseMode, Value};

    /// Two independent events, two handlers each; handler `k` adds `k` to
    /// its event's accumulator, so each dispatch of [h1, h2] adds 3.
    fn two_chain_module() -> (Module, [EventId; 2], [pdo_ir::GlobalId; 2]) {
        let mut m = Module::new();
        let a = m.add_event("A");
        let b = m.add_event("B");
        let ga = m.add_global("la", Value::Int(0));
        let gb = m.add_global("lb", Value::Int(0));
        let adder = |m: &mut Module, name: &str, g: pdo_ir::GlobalId, d: i64| {
            let mut fb = FunctionBuilder::new(name, 0);
            let v = fb.load_global(g);
            let dd = fb.const_int(d);
            let o = fb.bin(BinOp::Add, v, dd);
            fb.store_global(g, o);
            fb.ret(None);
            m.add_function(fb.finish())
        };
        adder(&mut m, "a1", ga, 1);
        adder(&mut m, "a2", ga, 2);
        adder(&mut m, "b1", gb, 1);
        adder(&mut m, "b2", gb, 2);
        (m, [a, b], [ga, gb])
    }

    fn bind_all(rt: &mut Runtime, m: &Module, a: EventId, b: EventId) {
        rt.bind(a, m.function_by_name("a1").unwrap(), 0).unwrap();
        rt.bind(a, m.function_by_name("a2").unwrap(), 1).unwrap();
        rt.bind(b, m.function_by_name("b1").unwrap(), 0).unwrap();
        rt.bind(b, m.function_by_name("b2").unwrap(), 1).unwrap();
    }

    fn config() -> AdaptConfig {
        AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: OptimizeOptions::new(10),
            ..Default::default()
        }
    }

    /// Drives `rt` with `n` timed raises of `event`, one per 100 ns, so
    /// `run_until` crosses epoch boundaries while dispatching.
    fn drive(rt: &mut Runtime, event: EventId, n: u64) {
        let start = rt.clock_ns();
        for i in 0..n {
            rt.raise(
                event,
                RaiseMode::Timed,
                &[Value::Int((i * 100 + 100) as i64)],
            )
            .unwrap();
        }
        rt.run_until(start + n * 100 + 1).unwrap();
    }

    #[test]
    fn hot_event_gets_specialized_with_no_caller_involvement() {
        let (m, [a, b], [ga, _]) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        drive(&mut rt, a, 60);
        let stats = engine.borrow().stats();
        assert!(stats.epochs > 0, "epoch hook must fire inside run_until");
        assert!(stats.reprofiles >= 1);
        assert!(rt.spec().get(a).is_some(), "hot chain installed");
        let before = rt.cost.fastpath_hits;
        drive(&mut rt, a, 10);
        assert!(rt.cost.fastpath_hits > before, "fast path actually used");
        // Behaviour preserved: 70 dispatches of [a1, a2], each adding 3.
        assert_eq!(rt.global(ga), &Value::Int(70 * 3));
    }

    #[test]
    fn a_long_epoch_still_sees_every_dispatch_whole() {
        // 2 000 dispatches of [a1, a2] before the first boundary: 10 000
        // raise, enter and exit events. The profile must read each
        // dispatch whole however many there are — a dispatch read in part
        // would make `A` look unstable, and it would not be specialized.
        let (m, [a, b], [ga, _]) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        for _ in 0..2_000 {
            rt.raise(a, RaiseMode::Sync, &[]).unwrap();
        }
        drive(&mut rt, b, 15);
        assert_eq!(engine.borrow().stats().epochs, 1);
        assert!(
            rt.spec().get(a).is_some(),
            "A ran one sequence 2 000 times and is hot"
        );
        let profile = engine.borrow().snapshot().profile;
        let whole = [
            m.function_by_name("a1").unwrap(),
            m.function_by_name("a2").unwrap(),
        ];
        assert_eq!(profile.handler_graph().stable_sequence(a), Some(&whole[..]));
        assert_eq!(rt.global(ga), &Value::Int(2_000 * 3));
    }

    #[test]
    fn reprofile_fuses_super_handlers_online() {
        let (m, [a, b], [ga, _]) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let store = rt.enable_tracing();
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some(), "hot chain installed");
        // What the engine deploys is `optimize`'s own output for the same
        // plan, with nothing done to it afterwards.
        let (plan, built) = opt_for(&rt, &m, a);
        assert_eq!(engine.borrow().deployed.as_ref(), Some(&plan));
        assert_eq!(
            pdo_ir::display::print_module(rt.module()),
            pdo_ir::display::print_module(&built.module)
        );
        // The installed super-handler (appended past the base module) must
        // carry superinstructions; base functions stay untouched.
        let base_fns = m.functions.len();
        assert!(
            rt.module().functions[base_fns..].iter().any(|f| f
                .blocks
                .iter()
                .any(|b| b.instrs.iter().any(|i| i.is_fused()))),
            "online reprofile should fuse the super-handler"
        );
        assert_eq!(rt.module().functions[..base_fns], m.functions[..]);
        // The audit names the fused pattern.
        assert!(
            store.spans().iter().any(|s| matches!(&s.kind,
                SpanKind::ChainAudit { event: None, action: AuditAction::Install, why }
                    if why.starts_with("superinstruction fusion:"))),
            "fusion must leave an audit span"
        );
        // Behaviour preserved through the fused fast path.
        drive(&mut rt, a, 10);
        assert_eq!(rt.global(ga), &Value::Int(70 * 3));
    }

    #[test]
    fn engine_leaves_opcode_profiling_to_the_caller() {
        let fused_series = |rt: &Runtime| {
            let mut snap = MetricsSnapshot::new();
            rt.export_metrics(&mut snap, &[]);
            snap.render().contains("pdo_interp_fused_total")
        };
        let (m, [a, b], [ga, _]) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let _engine = AdaptiveEngine::attach_new(&mut rt, config());
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        assert!(
            rt.opcode_profile_data().is_none(),
            "the engine never switches it on"
        );
        assert!(!fused_series(&rt));
        // The instrument still works for a caller who asks for it, and the
        // installed chain runs fused.
        rt.set_opcode_profiling(true);
        drive(&mut rt, a, 10);
        assert!(fused_series(&rt));
        assert!(rt
            .opcode_profile_data()
            .is_some_and(|p| p.total() > 0 && p.fused_total() > 0));
        assert_eq!(rt.global(ga), &Value::Int(70 * 3));
    }

    #[test]
    fn workload_shift_respecializes_and_drops_the_cold_chain() {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        assert!(rt.spec().get(b).is_none());
        // Shift: B becomes hot, A goes silent. Decay forgets A.
        drive(&mut rt, b, 200);
        assert!(rt.spec().get(b).is_some(), "B specialized after shift");
        assert!(rt.spec().get(a).is_none(), "A despecialized after shift");
        assert!(engine.borrow().stats().chains_dropped >= 1);
    }

    #[test]
    fn the_profile_describes_the_program_not_the_lane() {
        // Neither engine re-profiles, so each profile is exactly what its
        // runtime's counted windows showed. One runtime dispatches `A`
        // generically; the other runs a chain for `A` installed by hand.
        let config = AdaptConfig {
            min_fresh_events: u64::MAX,
            ..config()
        };
        let (m, [a, b], [ga, _]) = two_chain_module();
        let run = |fast: bool| {
            let mut rt = Runtime::new(m.clone());
            bind_all(&mut rt, &m, a, b);
            let engine = Rc::new(RefCell::new(AdaptiveEngine::new(m.clone(), config)));
            AdaptiveEngine::attach(Rc::clone(&engine), &mut rt);
            if fast {
                let (_, built) = opt_for(&rt, &m, a);
                rt.replace_module(built.module);
                for chain in built.chains {
                    rt.install_chain(chain);
                }
            }
            // Ten raises an epoch, so `A` is still hot at the end.
            for _ in 0..6 {
                drive(&mut rt, a, 10);
            }
            assert_eq!(rt.global(ga), &Value::Int(60 * 3));
            let lanes = (rt.cost.fastpath_hits, rt.cost.registry_lookups);
            let profile = engine.borrow().snapshot().profile;
            (lanes, profile.event_graph().clone())
        };
        let (generic_lanes, generic) = run(false);
        let (fast_lanes, fast) = run(true);
        assert_eq!(generic_lanes, (0, 60));
        assert_eq!(fast_lanes, (60, 0));
        assert!(generic.nodes[&a] > 0, "A was profiled");
        assert_eq!(fast, generic, "same raises, same event graph");
    }

    /// A runtime over [`two_chain_module`]'s `m` with every handler bound,
    /// whose containment removes a faulting chain, and an engine attached
    /// under `quarantine`.
    fn containing_session(
        m: &Module,
        [a, b]: [EventId; 2],
        quarantine: QuarantineConfig,
    ) -> (Runtime, Rc<RefCell<AdaptiveEngine>>) {
        let mut rt = Runtime::with_config(
            m.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        bind_all(&mut rt, m, a, b);
        let engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                quarantine,
                ..config()
            },
        );
        (rt, engine)
    }

    /// Injects `n` dispatch traps into the next `n` raises of `event` and
    /// raises it `n` times synchronously (no epoch boundary is crossed).
    fn trap(rt: &mut Runtime, event: EventId, n: u64) {
        rt.set_fault_injector(FaultInjector::from_plan((0..n).map(|i| FaultSpec {
            event,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        for _ in 0..n {
            rt.raise(event, RaiseMode::Sync, &[]).unwrap();
        }
    }

    /// Advances the idle clock 100 ns at a time until the engine has run
    /// one more epoch.
    fn next_epoch(rt: &mut Runtime, engine: &Rc<RefCell<AdaptiveEngine>>) {
        let epochs = engine.borrow().stats().epochs;
        while engine.borrow().stats().epochs == epochs {
            rt.advance_clock(100);
        }
    }

    /// `Install` spans naming `event`.
    fn installs(store: &pdo_obs::TraceStore, event: EventId) -> usize {
        store
            .spans()
            .iter()
            .filter(|s| {
                matches!(&s.kind, SpanKind::ChainAudit { event: Some(e), action: AuditAction::Install, .. }
                    if *e == event.0)
            })
            .count()
    }

    #[test]
    fn faulting_chain_quarantines_and_heals_inside_run_until() {
        let (m, events, [ga, _]) = two_chain_module();
        let a = events[0];
        let (mut rt, engine) = containing_session(
            &m,
            events,
            QuarantineConfig {
                fault_threshold: 2,
                base_backoff_ns: 2_000,
                ..Default::default()
            },
        );
        let store = rt.enable_tracing();
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        let (installed, spans) = (
            engine.borrow().stats().chains_installed,
            installs(&store, a),
        );
        // Three injected traps: despecialize + quarantine, all contained.
        trap(&mut rt, a, 3);
        assert!(rt.spec().get(a).is_none(), "containment removed the chain");
        // The first epoch quarantines A. It stays out at every epoch
        // before the backoff ends and is back at the first one after.
        next_epoch(&mut rt, &engine);
        let until = engine.borrow().quarantine().quarantined_until(a);
        let until = until.expect("quarantined at the first epoch");
        loop {
            next_epoch(&mut rt, &engine);
            if rt.clock_ns() < until {
                assert!(rt.spec().get(a).is_none(), "back before t={until}");
            } else {
                assert!(rt.spec().get(a).is_some(), "not back at t={until}");
                break;
            }
        }
        // The return is one install, audited once.
        assert_eq!(engine.borrow().stats().chains_installed, installed + 1);
        assert_eq!(installs(&store, a), spans + 1);
        assert!(engine.borrow().stats().despecialized >= 1);
        let fast = rt.cost.fastpath_hits;
        drive(&mut rt, a, 10);
        assert_eq!(rt.cost.fastpath_hits, fast + 10);
        // Every dispatch (faulted ones included, via generic fallback)
        // added its 3.
        assert_eq!(rt.global(ga), &Value::Int(73 * 3));
    }

    #[test]
    fn guard_churn_alone_quarantines() {
        let (m, events, _) = two_chain_module();
        let a = events[0];
        let (mut rt, engine) = containing_session(
            &m,
            events,
            QuarantineConfig {
                churn_threshold: 4,
                base_backoff_ns: 2_000,
                ..Default::default()
            },
        );
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        // A/B/A five times inside one epoch: each B is one guard miss, each
        // return to A takes the fast lane again, and nothing faults.
        let b1 = m.function_by_name("b1").unwrap();
        let fast = rt.cost.fastpath_hits;
        for _ in 0..5 {
            rt.bind(a, b1, 9).unwrap();
            rt.raise(a, RaiseMode::Sync, &[]).unwrap();
            assert!(rt.unbind(a, b1));
            rt.raise(a, RaiseMode::Sync, &[]).unwrap();
        }
        assert_eq!(rt.cost.fastpath_hits, fast + 5);
        let tally = rt.profile_tally().expect("the engine counts the profile");
        assert_eq!(tally.guard_misses().collect::<Vec<_>>(), vec![(a, 5)]);
        assert_eq!(rt.stats().faults(a), 0);
        next_epoch(&mut rt, &engine);
        let engine_now = engine.borrow();
        assert!(engine_now.quarantine().is_quarantined(a, rt.clock_ns()));
        assert_eq!(engine_now.quarantine().strikes(a), 1);
        assert!(
            rt.spec().get(a).is_none(),
            "the quarantine removed the chain"
        );
    }

    #[test]
    fn a_second_offence_waits_twice_as_long() {
        let (m, events, _) = two_chain_module();
        let a = events[0];
        let (mut rt, engine) = containing_session(
            &m,
            events,
            QuarantineConfig {
                fault_threshold: 2,
                base_backoff_ns: 2_000,
                ..Default::default()
            },
        );
        drive(&mut rt, a, 60);
        let offence = |rt: &mut Runtime| {
            trap(rt, a, 3);
            next_epoch(rt, &engine);
            let until = engine.borrow().quarantine().quarantined_until(a).unwrap();
            let backoff = until - rt.clock_ns();
            while rt.spec().get(a).is_none() {
                next_epoch(rt, &engine);
            }
            backoff
        };
        let first = offence(&mut rt);
        let second = offence(&mut rt);
        assert_eq!((first, second), (2_000, 4_000));
        assert_eq!(engine.borrow().quarantine().strikes(a), 2);
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

        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        rt.bind(head, h_head, 0).unwrap();
        rt.bind(child, h_child, 0).unwrap();
        let mut opts = OptimizeOptions::new(10);
        opts.subsume = false;
        let engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                opts,
                quarantine: QuarantineConfig {
                    fault_threshold: 2,
                    churn_threshold: 100,
                    ..Default::default()
                },
                ..config()
            },
        );
        // Ten raises an epoch: both events are deployed at the second
        // epoch and stay.
        for _ in 0..6 {
            drive(&mut rt, head, 10);
        }
        for event in [head, child] {
            let chain = rt.spec().get(event).expect("one chain per event");
            assert!(chain.guards.len() == 1 && chain.guards[0].event == event);
        }

        // Fault only the child segment: the extra binding invalidates the
        // child's own guard, and its fallback generic dispatch traps.
        rt.bind(child, h_trap, 10).unwrap();
        rt.set_global(g, Value::Int(0));
        let fast = rt.cost.fastpath_hits;
        for _ in 0..3 {
            rt.raise(head, RaiseMode::Sync, &[]).unwrap();
        }
        assert_eq!(
            rt.cost.fastpath_hits,
            fast + 3,
            "head chain keeps its fast path"
        );
        assert_eq!(rt.stats().faults(child), 3);
        assert_eq!(rt.stats().faults(head), 0);
        // Each raise still appends 1 (head) then 2 (child's intact handler).
        assert_eq!(rt.global(g), &Value::Int(121_212));

        next_epoch(&mut rt, &engine);
        let now = rt.clock_ns();
        let quarantine = engine.borrow().quarantine().clone();
        assert!(quarantine.is_quarantined(child, now));
        assert!(!quarantine.is_quarantined(head, now));
        // Only the faulting segment's event lost specialization; the head
        // chain stays installed and keeps hitting.
        assert!(rt.spec().get(head).is_some());
        assert!(rt.spec().get(child).is_none());
        rt.raise(head, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, fast + 4);
    }

    #[test]
    fn an_idle_session_reprofiles_once_when_a_held_chain_was_rebound() {
        let (m, events, _) = two_chain_module();
        let a = events[0];
        let (mut rt, engine) = containing_session(
            &m,
            events,
            QuarantineConfig {
                fault_threshold: 2,
                base_backoff_ns: 2_000,
                ..Default::default()
            },
        );
        let store = rt.enable_tracing();
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        trap(&mut rt, a, 3);
        let a2 = m.function_by_name("a2").unwrap();
        assert!(rt.unbind(a, a2));
        let before = engine.borrow().stats();
        for _ in 0..50 {
            rt.advance_clock(1_000);
        }
        let after = engine.borrow().stats();
        assert_eq!(after.epochs, before.epochs + 50);
        // Once the backoff ends the chain cannot come back under the
        // bindings it was built for: it is forgotten, and that one epoch
        // re-profiles. Nothing is hot, so the pass wants no chain and
        // settles without a lookup.
        assert_eq!(after.reprofiles, before.reprofiles + 1, "{after:?}");
        assert_eq!(after.cache_misses, before.cache_misses, "{after:?}");
        assert_eq!(after.chains_dropped, before.chains_dropped + 1);
        assert!(rt.spec().get(a).is_none());
        let drops = store.spans().into_iter().filter(|s| {
            matches!(&s.kind, SpanKind::ChainAudit { event: Some(0), action: AuditAction::Drop, why }
                if why.starts_with("bindings changed"))
        });
        assert_eq!(drops.count(), 1);
        // A's bindings go back to those its forgotten chain was built for:
        // the plan that chain came from no longer counts as deployed, so
        // when A is hot again it is specialized afresh.
        rt.bind(a, a2, 1).unwrap();
        drive(&mut rt, a, 60);
        let chain = rt.spec().get(a).expect("respecialized");
        assert!(chain.guards_hold(rt.registry()));
    }

    /// One adaptive run in which chains are installed (A, then B),
    /// quarantined and returned (A, under three injected traps) and dropped
    /// (A, when the workload shifts to B), with `store` attached.
    fn audited_run(store: &pdo_obs::TraceStore) -> Rc<RefCell<AdaptiveEngine>> {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::with_config(
            m.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        bind_all(&mut rt, &m, a, b);
        rt.set_tracer(store.clone());
        let engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                quarantine: QuarantineConfig {
                    fault_threshold: 2,
                    base_backoff_ns: 2_000,
                    ..Default::default()
                },
                ..config()
            },
        );
        drive(&mut rt, a, 60);
        rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
            event: a,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        drive(&mut rt, a, 3);
        drive(&mut rt, a, 120);
        assert!(rt.spec().get(a).is_some(), "chain healed");
        drive(&mut rt, b, 200);
        assert!(rt.spec().get(a).is_none(), "A dropped after the shift");
        engine
    }

    #[test]
    fn one_audit_span_per_decision_in_step_with_the_counters() {
        let store = pdo_obs::TraceStore::default();
        let engine = audited_run(&store);
        let spans = store.spans();
        assert_eq!(spans.len() as u64, store.recorded(), "ring must not wrap");
        // Decision spans (event set) by action; `reason` narrows Quarantine
        // to new quarantines — a skipped install is audited under the same
        // action but is not one.
        let decisions = |want: AuditAction, reason: &str| {
            spans
                .iter()
                .filter(|s| {
                    matches!(&s.kind, SpanKind::ChainAudit { event: Some(_), action, why }
                        if *action == want && why.starts_with(reason))
                })
                .count() as u64
        };
        let stats = engine.borrow().stats();
        assert!(stats.chains_installed >= 3, "A, A's return and B");
        assert_eq!(decisions(AuditAction::Install, ""), stats.chains_installed);
        assert!(decisions(AuditAction::Install, "chain returns") >= 1);
        assert!(stats.chains_dropped >= 1);
        assert_eq!(decisions(AuditAction::Drop, ""), stats.chains_dropped);
        let passes = spans.iter().filter(|s| {
            matches!(&s.kind, SpanKind::ChainAudit { event: None, action, .. }
                if *action == AuditAction::Reprofile)
        });
        assert_eq!(passes.count() as u64, stats.reprofiles);

        let quarantined = decisions(AuditAction::Quarantine, "faults exceeded");
        assert!(quarantined >= 1);
        let engine = engine.borrow();
        let q = engine.quarantine();
        let strikes: u32 = q.entries().values().map(|e| e.strikes).sum();
        assert_eq!(quarantined, u64::from(strikes));
        // The faults the quarantine counted are spans of their own.
        let faults = spans.iter().filter(
            |s| matches!(&s.kind, SpanKind::Fault { event: 0, kind } if kind == "trap_dispatch"),
        );
        assert_eq!(faults.count(), 3);
    }

    #[test]
    fn a_disabled_trace_store_records_nothing_and_changes_no_decision() {
        let on = pdo_obs::TraceStore::default();
        let off = pdo_obs::TraceStore::default();
        off.set_enabled(false);
        let traced = audited_run(&on).borrow().stats();
        let untraced = audited_run(&off).borrow().stats();
        assert_eq!(off.recorded(), 0);
        assert_eq!(traced, untraced);
    }

    #[test]
    fn audit_formats_the_why_only_when_a_span_is_recorded() {
        let (m, _, _) = two_chain_module();
        let mut rt = Runtime::new(m);
        let pass = AuditAction::Reprofile;
        audit(&rt, None, pass, || unreachable!("no store attached"));
        let store = rt.enable_tracing();
        store.set_enabled(false);
        audit(&rt, None, pass, || unreachable!("store disabled"));
        store.set_enabled(true);
        audit(&rt, None, pass, || "evidence".into());
        assert_eq!(store.recorded(), 1);
    }

    /// `A` is the initially hot workload; `C`'s handler raises `D` synchronously only while `flag`
    /// is set; `D` is also raised top-level so its handler sequence is on
    /// record before the shift.
    fn nested_shift_module() -> (
        Module,
        [EventId; 3],
        [pdo_ir::GlobalId; 2],
        pdo_ir::GlobalId,
    ) {
        let mut m = Module::new();
        let a = m.add_event("A");
        let c = m.add_event("C");
        let d = m.add_event("D");
        let ga = m.add_global("ga", Value::Int(0));
        let gc = m.add_global("gc", Value::Int(0));
        let gd = m.add_global("gd", Value::Int(0));
        let flag = m.add_global("flag", Value::Int(0));
        let adder = |m: &mut Module, name: &str, g: pdo_ir::GlobalId| {
            let mut fb = FunctionBuilder::new(name, 0);
            let v = fb.load_global(g);
            let one = fb.const_int(1);
            let o = fb.bin(BinOp::Add, v, one);
            fb.store_global(g, o);
            fb.ret(None);
            m.add_function(fb.finish())
        };
        adder(&mut m, "a1", ga);
        adder(&mut m, "a2", ga);
        adder(&mut m, "d1", gd);
        let mut fb = FunctionBuilder::new("c1", 0);
        let v = fb.load_global(gc);
        let one = fb.const_int(1);
        let o = fb.bin(BinOp::Add, v, one);
        fb.store_global(gc, o);
        let f = fb.load_global(flag);
        let zero = fb.const_int(0);
        let cond = fb.bin(BinOp::Ne, f, zero);
        let then_blk = fb.new_block();
        let done = fb.new_block();
        fb.branch(cond, then_blk, done);
        fb.switch_to(then_blk);
        fb.raise(d, RaiseMode::Sync, &[]);
        fb.jump(done);
        fb.switch_to(done);
        fb.ret(None);
        m.add_function(fb.finish());
        (m, [a, c, d], [gc, gd], flag)
    }

    #[test]
    fn a_raise_that_starts_nesting_mid_run_is_subsumed_on_the_next_deploy() {
        let (m, [a, c, d], [gc, gd], flag) = nested_shift_module();
        let mut rt = Runtime::new(m.clone());
        rt.bind(a, m.function_by_name("a1").unwrap(), 0).unwrap();
        rt.bind(c, m.function_by_name("c1").unwrap(), 0).unwrap();
        rt.bind(d, m.function_by_name("d1").unwrap(), 0).unwrap();
        let _engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                epoch_ns: 10_000,
                ..config()
            },
        );
        // C and D run just below the candidacy threshold, so their
        // (stable) handler sequences are on record but neither gets a
        // chain; A goes hot and deploys.
        drive(&mut rt, c, 4);
        drive(&mut rt, d, 4);
        drive(&mut rt, a, 95);
        assert!(rt.spec().get(a).is_some(), "A deployed");
        assert!(rt.spec().get(c).is_none(), "C stays below threshold");
        // The workload shifts: C goes hot and its handler starts raising D
        // synchronously; A is rebound, loses its chain and goes quiet. The
        // only record of the new nesting is the counted window.
        rt.set_global(flag, Value::Int(1));
        rt.bind(a, m.function_by_name("a2").unwrap(), 1).unwrap();
        rt.remove_chain(a);
        drive(&mut rt, c, 100);
        let chain = rt.spec().get(c).expect("C specialized after the shift");
        assert!(
            chain.guards.iter().any(|g| g.event == d),
            "C's chain must subsume D: {:?}",
            chain.guards
        );
        assert!(rt.spec().get(a).is_none(), "rebound, quiet A not rebuilt");
        // Behaviour preserved across the hot swap.
        assert_eq!(rt.global(gc), &Value::Int(104));
        assert_eq!(rt.global(gd), &Value::Int(104));
    }

    /// Stale-guard property: however the session churns — rebinds that
    /// bump binding versions, manual chain drops, traps that despecialize
    /// under containment — once the next epoch has processed the churn,
    /// no installed chain may carry a binding-version guard that
    /// disagrees with the live registry. Quarantine (guard-miss churn),
    /// re-profiling (which removes every deployed chain before a hot
    /// swap), and the install step (which installs a chain only while its
    /// guards hold) must jointly maintain the invariant.
    #[test]
    fn churn_cycles_never_leave_a_stale_guard_installed() {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::with_config(
            m.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        // Any third handler works as rebind churn; behaviour is not under
        // test here, only guard freshness.
        let extra = [
            m.function_by_name("b1").unwrap(),
            m.function_by_name("a1").unwrap(),
        ];
        let mut extra_bound = [false, false];

        let mut state = 0x5EED_CAFEu64;
        let mut next = move || -> u64 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        let mut installed_checks = 0u64;
        for cycle in 0..60 {
            // The mutated event and the driven event are drawn
            // independently: mutating an event that then goes *cold* is
            // exactly the case where only the re-profile's
            // remove-everything-before-swap (not guard-miss quarantine)
            // can clear the stale chain.
            let drive_idx = (next() % 2) as usize;
            let mut_idx = (next() % 2) as usize;
            let mutated = [a, b][mut_idx];
            let mutation = next() % 5;
            match mutation {
                0 => {
                    // Version churn: toggle an extra binding.
                    if extra_bound[mut_idx] {
                        rt.unbind(mutated, extra[mut_idx]);
                    } else {
                        rt.bind(mutated, extra[mut_idx], 5).unwrap();
                    }
                    extra_bound[mut_idx] = !extra_bound[mut_idx];
                }
                1 => {
                    rt.remove_chain(mutated);
                }
                2 => {
                    // A trap landing mid-burst; Despecialize containment
                    // removes the chain and feeds the quarantine.
                    let occurrence = next() % 8;
                    rt.set_fault_injector(FaultInjector::from_plan(std::iter::once(FaultSpec {
                        event: mutated,
                        occurrence,
                        kind: FaultKind::TrapDispatch,
                    })));
                }
                _ => {}
            }
            // Enough raises that every epoch inside the burst crosses the
            // candidacy threshold and the fresh-event floor, so the churn
            // is processed (by quarantine, re-profile, or the install
            // step) before the burst ends.
            drive(&mut rt, [a, b][drive_idx], 45);
            for chain in rt.spec().iter() {
                assert!(
                    chain.guards_hold(rt.registry()),
                    "cycle {cycle} (mutation {mutation}) left a stale guard \
                     installed for head {:?}: {:?} vs registry",
                    chain.head,
                    chain.guards,
                );
                installed_checks += 1;
            }
        }
        let stats = engine.borrow().stats();
        assert!(
            installed_checks > 0,
            "property never saw an installed chain"
        );
        assert!(stats.reprofiles > 1, "engine never re-profiled: {stats:?}");
        assert!(
            stats.chains_installed > 1,
            "engine never hot-swapped chains: {stats:?}"
        );
        // The specialization cache is on by default, so the property above
        // also covers the cached install path: every guard check ran
        // against chains that may have come from the cache, and at least
        // some must have (phases repeat across churn cycles). A cached
        // install that resurrected a stale binding-version guard would
        // have tripped `guards_hold` above.
        assert!(
            stats.cache_hits >= 1,
            "churn never exercised the cached install path: {stats:?}"
        );
        assert!(
            stats.cache_misses >= 1,
            "version churn must force at least one rebuild: {stats:?}"
        );
    }

    #[test]
    fn snapshot_restore_resumes_specialization_and_quarantine() {
        let (m, [a, b], _) = two_chain_module();
        let adapt_config = AdaptConfig {
            quarantine: QuarantineConfig {
                fault_threshold: 2,
                base_backoff_ns: 1_000_000,
                ..Default::default()
            },
            ..config()
        };
        let mut rt = Runtime::with_config(
            m.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, adapt_config);
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        // Quarantine A with a long backoff, then let an epoch process it.
        rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
            event: a,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        drive(&mut rt, a, 3);
        drive(&mut rt, b, 30);
        let until = engine
            .borrow()
            .quarantine()
            .quarantined_until(a)
            .expect("A quarantined");
        let snap = engine.borrow().snapshot();
        assert!(snap.stats.epochs > 0);
        // Profile, counters and a live quarantine entry: the durable form
        // round-trips and rejects every corruption.
        pdo_snap::hostile::check(&snap);
        assert_eq!(snap.quarantine[&a].until_ns, Some(until));

        // Restore into a fresh runtime at the same virtual time.
        let clock = rt.clock_ns();
        let mut rt2 = Runtime::with_config(
            m.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        bind_all(&mut rt2, &m, a, b);
        rt2.advance_clock(clock);
        let engine2 =
            AdaptiveEngine::attach_restored(&mut rt2, m.clone(), adapt_config, snap.clone());
        assert_eq!(engine2.borrow().snapshot(), snap, "round trip is exact");
        // A stays hot but its carried quarantine bars re-specialization…
        drive(&mut rt2, a, 60);
        assert!(
            engine2.borrow().stats().reprofiles > snap.stats.reprofiles,
            "restored engine resumes re-profiling"
        );
        assert!(
            rt2.spec().get(a).is_none(),
            "carried quarantine must bar A from re-specializing"
        );
        // …until the carried backoff expires on the virtual clock.
        rt2.advance_clock(1_000_000);
        drive(&mut rt2, a, 60);
        assert!(
            rt2.spec().get(a).is_some(),
            "A re-specializes once the carried backoff expires"
        );
        assert_eq!(
            engine2.borrow().quarantine().strikes(a),
            1,
            "strike count survives the restore"
        );
    }

    /// `n` independent events with two adder handlers each, every dispatch
    /// adding 3 to its event's accumulator.
    fn n_chain_module(n: usize) -> (Module, Vec<EventId>, Vec<pdo_ir::GlobalId>) {
        let mut m = Module::new();
        let (mut events, mut globals) = (Vec::new(), Vec::new());
        for i in 0..n {
            let e = m.add_event(format!("E{i}"));
            let g = m.add_global(format!("g{i}"), Value::Int(0));
            for d in 1..=2 {
                let mut fb = FunctionBuilder::new(format!("h{i}_{d}"), 0);
                let v = fb.load_global(g);
                let dd = fb.const_int(d);
                let o = fb.bin(BinOp::Add, v, dd);
                fb.store_global(g, o);
                fb.ret(None);
                m.add_function(fb.finish());
            }
            events.push(e);
            globals.push(g);
        }
        (m, events, globals)
    }

    /// A runtime over [`n_chain_module`]'s module with every handler bound.
    fn n_chain_runtime(m: &Module, events: &[EventId]) -> Runtime {
        let mut rt = Runtime::new(m.clone());
        for (i, &e) in events.iter().enumerate() {
            for d in 1..=2 {
                let h = m.function_by_name(&format!("h{i}_{d}")).unwrap();
                rt.bind(e, h, d).unwrap();
            }
        }
        rt
    }

    #[test]
    fn stationary_workload_reaches_a_fixed_point_after_one_deploy() {
        let (m, events, globals) = n_chain_module(4);
        let mut rt = n_chain_runtime(&m, &events);
        // 100 raises an epoch, round-robin: every edge e_i -> e_i+1 weighs
        // 25 in its first window against a threshold of 10, so all four
        // events are hot at once and none hovers.
        let engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                epoch_ns: 10_000,
                ..config()
            },
        );
        let epoch = |rt: &mut Runtime| {
            let start = rt.clock_ns();
            for i in 0..100u64 {
                let delay = Value::Int((i * 100 + 100) as i64);
                rt.raise(events[(i % 4) as usize], RaiseMode::Timed, &[delay])
                    .unwrap();
            }
            rt.run_until(start + 10_000).unwrap();
        };
        for _ in 0..32 {
            epoch(&mut rt);
        }
        let warm = engine.borrow().stats();
        assert_eq!(warm.chains_installed, 4, "{warm:?}");
        assert_eq!(warm.chains_dropped, 0, "{warm:?}");
        assert_eq!((warm.cache_misses, warm.cache_hits), (1, 0), "{warm:?}");
        let module = rt.module_arc();
        let generic = rt.cost.registry_lookups;
        let fast = rt.cost.fastpath_hits;
        for _ in 0..32 {
            epoch(&mut rt);
            assert!(Arc::ptr_eq(&module, &rt.module_arc()), "module swapped");
        }
        let settled = engine.borrow().stats();
        assert_eq!(settled.reprofiles, warm.reprofiles + 32, "passes still run");
        assert_eq!(
            AdaptStats {
                epochs: warm.epochs,
                reprofiles: warm.reprofiles,
                ..settled
            },
            warm,
            "and decide nothing"
        );
        assert_eq!(rt.cost.registry_lookups, generic, "every event stays fast");
        assert_eq!(rt.cost.fastpath_hits, fast + 32 * 100);
        for &g in &globals {
            assert_eq!(rt.global(g), &Value::Int(64 * 25 * 3));
        }
        // What the profile now holds is the program, not the optimizer.
        let base_functions = m.functions.len();
        let profile = engine.borrow().snapshot().profile;
        for (i, &e) in events.iter().enumerate() {
            let seq = profile.handler_graph().stable_sequence(e).expect("stable");
            assert!(seq.iter().all(|f| f.index() < base_functions));
            assert_eq!(seq.len(), 2, "event {i} credited with its own handlers");
        }
    }

    #[test]
    fn one_redeploy_audits_its_dropped_chains_in_event_order() {
        // Six events hot, then idle, then only the seventh: one redeploy
        // drops six chains at once. Which order they are audited in must
        // not depend on the spec table's hash seed, which differs between
        // two runtimes of one process.
        let dropped_in_order = || {
            let (m, events, _) = n_chain_module(7);
            let mut rt = n_chain_runtime(&m, &events);
            let store = rt.enable_tracing();
            let engine = AdaptiveEngine::attach_new(
                &mut rt,
                AdaptConfig {
                    epoch_ns: 12_000,
                    ..config()
                },
            );
            for _ in 0..4 {
                let start = rt.clock_ns();
                for i in 0..120u64 {
                    let delay = Value::Int((i * 100 + 100) as i64);
                    rt.raise(events[(i % 6) as usize], RaiseMode::Timed, &[delay])
                        .unwrap();
                }
                rt.run_until(start + 12_000).unwrap();
            }
            assert_eq!(rt.spec().len(), 6, "six chains deployed");
            // Near-idle epochs (one raise each keeps the virtual clock
            // moving) decay the six below the threshold; nothing is dropped
            // until something else is hot enough to plan for.
            for _ in 0..8 {
                rt.raise(events[6], RaiseMode::Timed, &[Value::Int(12_000)])
                    .unwrap();
                rt.run_until_idle().unwrap();
            }
            assert_eq!(engine.borrow().stats().chains_dropped, 0);
            drive(&mut rt, events[6], 240);
            assert_eq!(engine.borrow().stats().chains_dropped, 6);
            store
                .spans()
                .iter()
                .filter_map(|s| match s.kind {
                    SpanKind::ChainAudit {
                        event,
                        action: AuditAction::Drop,
                        ..
                    } => event,
                    _ => None,
                })
                .collect::<Vec<u32>>()
        };
        let first = dropped_in_order();
        assert_eq!(first, dropped_in_order(), "two identical runs");
        assert_eq!(first, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn oscillating_bindings_compile_each_configuration_once() {
        let (m, [a, b], [ga, gb]) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        let (a2, b1) = (
            m.function_by_name("a2").unwrap(),
            m.function_by_name("b1").unwrap(),
        );
        // Configuration B runs [a1, b1] for event A instead of [a1, a2].
        let swap = |rt: &mut Runtime, to_b: bool| {
            let (from, to) = if to_b { (a2, b1) } else { (b1, a2) };
            assert!(rt.unbind(a, from));
            rt.bind(a, to, 1).unwrap();
        };
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        let compiled = |engine: &Rc<RefCell<AdaptiveEngine>>| {
            let stats = engine.borrow().stats();
            (stats.cache_misses, stats.cache_hits)
        };
        assert_eq!(compiled(&engine), (1, 0));
        for (round, to_b) in [true, false, true, false].into_iter().enumerate() {
            swap(&mut rt, to_b);
            // The epoch the swap falls in, and a few settled ones.
            drive(&mut rt, a, 40);
            let chain = rt.spec().get(a).expect("respecialized");
            assert!(chain.guards_hold(rt.registry()), "round {round}");
            let fast = rt.cost.fastpath_hits;
            drive(&mut rt, a, 10);
            assert_eq!(rt.cost.fastpath_hits, fast + 10, "round {round}");
        }
        // B was compiled once, on the first swap; every later swap found
        // its plan in the cache.
        assert_eq!(compiled(&engine), (2, 3));
        let engine = engine.borrow();
        let quarantine = engine.quarantine();
        assert_eq!(quarantine.strikes(a), 0);
        assert_eq!(quarantine.quarantined_until(a), None);
        // 60 + 2 * 50 dispatches under A add 1 + 2; 2 * 50 under B add 1
        // to A's accumulator and 1 to B's.
        assert_eq!(rt.global(ga), &Value::Int(160 * 3 + 100));
        assert_eq!(rt.global(gb), &Value::Int(100));
    }

    #[test]
    fn restored_profile_naming_foreign_functions_does_not_pin_the_event() {
        use pdo_profile::{EdgeData, EventGraph, HandlerGraph, HandlerSeq, NestedRaise};
        let (m, [a, b], _) = two_chain_module();
        // What an image written while a `__super_*` chain was live could
        // hold: the hot event's only sequence is a function the base
        // module does not have.
        let foreign = pdo_ir::FuncId::from_index(m.functions.len());
        let edge = EdgeData {
            weight: 40,
            sync: 40,
            asynchronous: 0,
        };
        let nested = NestedRaise {
            parent_event: a,
            handler: foreign,
            child_event: b,
        };
        let event_graph = EventGraph {
            nodes: [(a, 40)].into(),
            edges: [((a, a), edge)].into(),
        };
        let handler_graph = HandlerGraph {
            sequences: [(
                a,
                vec![HandlerSeq {
                    handlers: vec![foreign],
                    count: 40,
                }],
            )]
            .into(),
            nested: [(nested, 3)].into(),
        };
        // A profile builder's image: its two graphs, the boundary raise and
        // the fresh-raise count.
        let image = pdo_snap::encode(&(event_graph, handler_graph, (Some(a), 20u64)));
        let snap = EngineSnapshot {
            profile: pdo_snap::decode(&image).unwrap(),
            ..EngineSnapshot::default()
        };
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_restored(&mut rt, m.clone(), config(), snap);
        let kept = engine.borrow().snapshot().profile;
        assert!(kept.handler_graph().sequences.is_empty());
        assert!(kept.handler_graph().nested.is_empty());
        assert_eq!(kept.event_graph().nodes[&a], 40, "hotness is kept");
        drive(&mut rt, a, 20); // two epochs
        assert!(rt.spec().get(a).is_some(), "{:?}", engine.borrow().stats());
    }

    /// Builds a real optimization for `event` from a synthetic trace of
    /// its bound handlers, with the plan it is the answer to, as the cache
    /// unit tests need genuine guard-bearing chains.
    fn opt_for(rt: &Runtime, base: &Module, event: EventId) -> (Plan, Deployable) {
        use pdo_events::{Trace, TraceRecord};
        let handlers: Vec<_> = rt
            .registry()
            .bindings(event)
            .iter()
            .map(|b| b.handler)
            .collect();
        let mut records = Vec::new();
        for d in 0..30u64 {
            records.push(TraceRecord::Raise {
                event,
                mode: RaiseMode::Sync,
                depth: 0,
                at: d,
            });
            for &handler in &handlers {
                records.push(TraceRecord::HandlerEnter {
                    event,
                    handler,
                    dispatch: d,
                    at: d,
                });
                records.push(TraceRecord::HandlerExit {
                    event,
                    handler,
                    dispatch: d,
                    at: d,
                });
            }
        }
        let profile = pdo_profile::Profile::from_trace(&Trace { records }, 10);
        let opts = OptimizeOptions::new(10);
        let plan = Plan::wanted(
            &profile.event_graph,
            &profile.handler_graph,
            rt.registry(),
            &opts,
            |e, why| panic!("{e:?} declined: {why}"),
        );
        let opt = optimize(base, rt.registry(), &profile, &opts);
        assert!(!opt.chains.is_empty(), "synthetic profile must specialize");
        (plan, opt.into())
    }

    #[test]
    fn chain_cache_hit_miss_eviction_and_guard_staleness() {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let (plan_a, opt_a) = opt_for(&rt, &m, a);
        let (plan_b, opt_b) = opt_for(&rt, &m, b);

        let mut cache = ChainCache::new(1);
        assert!(cache.lookup(&plan_a).is_none());

        assert!(!cache.insert(plan_a.clone(), &opt_a), "room: no eviction");
        let hit = cache.lookup(&plan_a).expect("cached");
        assert_eq!(hit.chains, opt_a.chains);
        assert!(
            Arc::ptr_eq(&hit.module, &opt_a.module),
            "a hit is a pointer"
        );

        // Capacity 1: caching B's phase evicts A's.
        assert_ne!(plan_a, plan_b, "distinct phases must key differently");
        assert!(cache.insert(plan_b.clone(), &opt_b), "full: evicts");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&plan_a).is_none());

        // The key is binding content. A rebind of B changes the plan, so
        // the entry built for the old bindings cannot be reached...
        let extra = m.function_by_name("a1").unwrap();
        rt.bind(b, extra, 7).unwrap();
        let (rebound, _) = opt_for(&rt, &m, b);
        assert_ne!(rebound, plan_b);
        assert!(cache.lookup(&rebound).is_none(), "stale entry must not hit");
        // ...and taking the rebind back reaches it again, under a version
        // number the entry has never seen, with guards that hold.
        assert!(rt.unbind(b, extra));
        let (returned, _) = opt_for(&rt, &m, b);
        assert_eq!(returned, plan_b);
        let hit = cache.lookup(&returned).expect("same content, same key");
        assert!(hit.chains.iter().all(|c| c.guards_hold(rt.registry())));
    }

    #[test]
    fn chain_cache_invalidate_event_drops_guarding_entries() {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let (plan_a, opt_a) = opt_for(&rt, &m, a);
        let (plan_b, opt_b) = opt_for(&rt, &m, b);
        let mut cache = ChainCache::new(4);
        cache.insert(plan_a, &opt_a);
        cache.insert(plan_b, &opt_b);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.invalidate_event(a), 1);
        assert_eq!(cache.len(), 1, "only A's entry is dropped");
        assert_eq!(cache.invalidate_event(EventId(999)), 0);
    }

    #[test]
    fn repeated_phase_hits_the_cache_and_preserves_behaviour() {
        let (m, [a, b], [ga, gb]) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(&mut rt, config());
        // Phase 1: A hot. Phase 2: B hot (A decays out). Phase 3: back to
        // A — its optimization replays from the cache.
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        drive(&mut rt, b, 200);
        assert!(rt.spec().get(b).is_some());
        let hits_before_return = engine.borrow().stats().cache_hits;
        drive(&mut rt, a, 200);
        assert!(rt.spec().get(a).is_some(), "A respecialized on return");
        let stats = engine.borrow().stats();
        assert!(
            stats.cache_hits > hits_before_return,
            "returning to a seen phase must hit the cache: {stats:?}"
        );
        // Behaviour identical to the uncached engine: every dispatch of
        // [h1, h2] added 3 to its accumulator.
        assert_eq!(rt.global(ga), &Value::Int(260 * 3));
        assert_eq!(rt.global(gb), &Value::Int(200 * 3));
    }

    #[test]
    fn binding_version_bump_misses_the_cache() {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::new(m.clone());
        bind_all(&mut rt, &m, a, b);
        // Short quarantine backoff: the rebind's guard-miss churn
        // quarantines A briefly, and the test wants to see it
        // re-specialize within the drive window.
        let engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                quarantine: QuarantineConfig {
                    base_backoff_ns: 2_000,
                    ..Default::default()
                },
                ..config()
            },
        );
        drive(&mut rt, a, 120);
        assert!(rt.spec().get(a).is_some());
        let before = engine.borrow().stats();
        // Rebind A: version bump makes every cached A-phase key stale.
        rt.bind(a, m.function_by_name("b1").unwrap(), 9).unwrap();
        drive(&mut rt, a, 240);
        let after = engine.borrow().stats();
        assert!(
            after.cache_misses > before.cache_misses,
            "rebind must force a fresh optimize: {after:?}"
        );
        let chain = rt.spec().get(a).expect("respecialized after rebind");
        assert!(chain.guards_hold(rt.registry()), "fresh guards installed");
    }

    #[test]
    fn despecialization_invalidates_the_cached_entry() {
        let (m, [a, b], _) = two_chain_module();
        let mut rt = Runtime::with_config(
            m.clone(),
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        bind_all(&mut rt, &m, a, b);
        let engine = AdaptiveEngine::attach_new(
            &mut rt,
            AdaptConfig {
                quarantine: QuarantineConfig {
                    fault_threshold: 2,
                    base_backoff_ns: 2_000,
                    ..Default::default()
                },
                ..config()
            },
        );
        drive(&mut rt, a, 60);
        assert!(rt.spec().get(a).is_some());
        rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
            event: a,
            occurrence: i,
            kind: FaultKind::TrapDispatch,
        })));
        drive(&mut rt, a, 3);
        assert!(rt.spec().get(a).is_none(), "containment removed the chain");
        // The next epoch drains the despecialization and drops the cached
        // A optimization with it.
        drive(&mut rt, b, 30);
        let stats = engine.borrow().stats();
        assert!(
            stats.cache_invalidations >= 1,
            "despecialization must invalidate the cache: {stats:?}"
        );
    }
}
