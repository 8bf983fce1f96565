//! The event runtime: dispatch, scheduling, state, and instrumentation.

use crate::fault::{corrupt_value, FaultInjector, FaultKind, FaultPolicy, EXHAUST_FUEL_BUDGET};
use crate::marshal::{marshal, unmarshal};
use crate::observe::Observers;
use crate::registry::Registry;
use crate::sched::{Scheduler, VirtualClock};
use crate::spec::{CompiledChain, GuardCheck, SpecTable};
use crate::tally::ProfileTally;
use crate::trace::{Trace, TraceConfig};
use pdo_ir::interp::{call, Env, ExecError};
use pdo_ir::{
    CostCounter, EventId, FuncId, GlobalId, Module, NativeId, OpcodeProfile, RaiseMode, Value,
};
use pdo_obs::{DispatchSrc, MetricsSnapshot, ObsHub, TraceCtx, TraceStore};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A native (Rust) function bound into the runtime.
///
/// Natives carry the substrate's payload work (crypto, codecs, I/O
/// simulation); they may capture shared state via `Rc<RefCell<…>>` — the
/// runtime is single-threaded by design, mirroring the paper's
/// handler-atomicity guarantee.
pub type NativeFn = Box<dyn FnMut(&[Value]) -> Result<Value, String>>;

/// Runtime failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Handler execution failed.
    Exec(ExecError),
    /// A raise referenced an event the module does not declare.
    UnknownEvent(EventId),
    /// A name-based lookup failed.
    UnknownName(String),
    /// Timed raise without a leading non-negative integer delay argument.
    BadTimedRaise,
    /// `run_until_idle` exceeded the configured step budget.
    StepLimit,
    /// Synchronous raise nesting exceeded the configured depth.
    SyncDepthExceeded,
    /// Marshaled arguments failed to unmarshal (indicates corruption).
    Marshal(String),
    /// An injected fault fired under [`FaultPolicy::Abort`].
    Fault {
        /// The event whose occurrence was targeted.
        event: EventId,
        /// The injected fault kind.
        kind: FaultKind,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "handler failed: {e}"),
            RuntimeError::UnknownEvent(e) => write!(f, "unknown event {e}"),
            RuntimeError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            RuntimeError::BadTimedRaise => {
                write!(f, "timed raise requires a leading non-negative delay")
            }
            RuntimeError::StepLimit => write!(f, "event-loop step budget exhausted"),
            RuntimeError::SyncDepthExceeded => write!(f, "synchronous raise nesting too deep"),
            RuntimeError::Marshal(m) => write!(f, "marshaling failed: {m}"),
            RuntimeError::Fault { event, kind } => {
                write!(f, "injected fault {kind:?} on {event}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}

/// Tunable limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum synchronous raise nesting (default 64).
    pub max_sync_depth: u32,
    /// Maximum queue/timer dispatches per `run_until_idle` (default 10M).
    pub max_steps: u64,
    /// Optional instruction budget shared by all handler executions.
    pub fuel: Option<u64>,
    /// What a handler fault (injected or organic) does to the event loop
    /// (default [`FaultPolicy::Abort`], the pre-fault-harness behavior).
    pub fault_policy: FaultPolicy,
}

pdo_snap::codec_struct!(RuntimeConfig {
    max_sync_depth,
    max_steps,
    fuel,
    fault_policy,
});

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_sync_depth: 64,
            max_steps: 10_000_000,
            fuel: None,
            fault_policy: FaultPolicy::Abort,
        }
    }
}

/// Observable robustness counters, cumulative from the runtime's
/// creation: nothing resets them.
///
/// They are part of the runtime's *observable behavior* for the chaos
/// equivalence property: an original and an optimized run of the same
/// workload under the same fault plan must agree on every field, whether
/// chains are installed or not. What does depend on specialization —
/// guard misses and despecializations — is counted per epoch in the
/// [`ProfileTally`] instead, for the adaptive engine that acts on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Faults recorded per event (injected and contained-organic).
    pub faults_by_event: BTreeMap<EventId, u64>,
    /// Injected faults that fired.
    pub injected_faults: u64,
    /// Organic handler traps contained by the policy.
    pub handler_traps: u64,
    /// Dispatches skipped (entirely or partially) by containment.
    pub skipped_dispatches: u64,
    /// Timed raises dropped by [`FaultKind::DropTimed`].
    pub dropped_timed: u64,
    /// Timed raises delayed by [`FaultKind::DelayTimed`].
    pub delayed_timed: u64,
}

impl RuntimeStats {
    /// Recorded faults for one event.
    pub fn faults(&self, event: EventId) -> u64 {
        self.faults_by_event.get(&event).copied().unwrap_or(0)
    }
}

/// What a native slot is: bound by the embedder, or one of the
/// runtime-implemented ("reserved") natives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NativeKind {
    /// [`Runtime::bind_native`] supplies the implementation.
    User,
    Bind,
    Unbind,
    CancelTimer,
    Clock,
    AdvanceClock,
    FuelBoundary,
}

/// The kind of every native slot of the module, resolved once from the
/// declarations by name so a call indexes it.
#[derive(Debug, Clone, Default)]
struct ReservedNatives {
    kinds: Vec<NativeKind>,
}

impl ReservedNatives {
    fn resolve(module: &Module) -> Self {
        let mut kinds = vec![NativeKind::User; module.natives.len()];
        for (name, kind) in [
            (Runtime::NATIVE_BIND, NativeKind::Bind),
            (Runtime::NATIVE_UNBIND, NativeKind::Unbind),
            (Runtime::NATIVE_CANCEL_TIMER, NativeKind::CancelTimer),
            (Runtime::NATIVE_CLOCK, NativeKind::Clock),
            (Runtime::NATIVE_ADVANCE_CLOCK, NativeKind::AdvanceClock),
            (Runtime::NATIVE_FUEL_BOUNDARY, NativeKind::FuelBoundary),
        ] {
            // The first slot declared under the name is the reserved one.
            if let Some(slot) = module.native_by_name(name) {
                kinds[slot.index()] = kind;
            }
        }
        ReservedNatives { kinds }
    }
}

/// A callback fired inside [`Runtime::run_until`] whenever the virtual clock
/// crosses an epoch boundary (see [`Runtime::set_epoch_hook`]). The second
/// argument is the boundary that was crossed, in virtual nanoseconds.
pub type EpochHook = Box<dyn FnMut(&mut Runtime, u64)>;

/// The single-threaded event runtime.
///
/// See the crate-level docs for the execution model. All handler execution,
/// scheduling, and state live here; the [`pdo_ir::interp::Env`]
/// implementation lets handler IR call back into the runtime for globals,
/// locks, natives, and nested raises.
pub struct Runtime {
    module: Arc<Module>,
    registry: Registry,
    globals: Vec<Value>,
    lock_words: Vec<AtomicU64>,
    natives: Vec<Option<NativeFn>>,
    reserved: ReservedNatives,
    spec: SpecTable,
    sched: Scheduler,
    clock: VirtualClock,
    sync_depth: u32,
    /// An occurrence the fault injector counted is being dispatched: every
    /// dispatch nested in it, at any depth, is part of it.
    occurrence_open: bool,
    dispatch_seq: u64,
    fuel: Option<u64>,
    boundary_fuel: Option<u64>,
    epoch_ns: Option<u64>,
    next_epoch_ns: u64,
    epoch_hook: Option<EpochHook>,
    config: RuntimeConfig,
    faults: Option<FaultInjector>,
    /// Every observation sink (profile tally, recorded trace, stats,
    /// metrics hub, causal trace store, opcode profile) behind one method
    /// per runtime event.
    sinks: Observers,
    /// Cost counters charged by dispatch and handler execution.
    pub cost: CostCounter,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("events", &self.module.events.len())
            .field("functions", &self.module.functions.len())
            .field("clock_ns", &self.clock.now_ns())
            .field("cost", &self.cost)
            .finish()
    }
}

impl Runtime {
    /// Reserved native name: `(event:int, func:int, order:int) -> unit`.
    pub const NATIVE_BIND: &'static str = "__pdo_bind";
    /// Reserved native name: `(event:int, func:int) -> bool`.
    pub const NATIVE_UNBIND: &'static str = "__pdo_unbind";
    /// Reserved native name: `(event:int) -> int` timers cancelled.
    pub const NATIVE_CANCEL_TIMER: &'static str = "__pdo_cancel_timer";
    /// Reserved native name: `() -> int` virtual time (ns).
    pub const NATIVE_CLOCK: &'static str = "__pdo_clock";
    /// Reserved native name: `(ns:int) -> unit` advance virtual time.
    pub const NATIVE_ADVANCE_CLOCK: &'static str = "__pdo_advance_clock";
    /// Reserved native name: `() -> unit` charge one handler-boundary unit
    /// of the occurrence's [`crate::fault::FaultKind::ExhaustFuel`] budget
    /// (no-op when no budget is engaged). The optimizer emits a call at the
    /// start of every merged handler segment when
    /// `OptimizeOptions::fuel_boundaries` is set, so merged code trips the
    /// budget at the same pre-merge program points as generic dispatch.
    pub const NATIVE_FUEL_BOUNDARY: &'static str = "__pdo_fuel_boundary";

    /// Creates a runtime for `module` with default configuration. Globals
    /// are initialized from the module's declarations.
    pub fn new(module: impl Into<Arc<Module>>) -> Self {
        Self::with_config(module, RuntimeConfig::default())
    }

    /// Creates a runtime with explicit limits.
    pub fn with_config(module: impl Into<Arc<Module>>, config: RuntimeConfig) -> Self {
        let module = module.into();
        let reserved = ReservedNatives::resolve(&module);
        Runtime {
            globals: module.globals.iter().map(|g| g.init.clone()).collect(),
            lock_words: module.globals.iter().map(|_| AtomicU64::new(0)).collect(),
            natives: module.natives.iter().map(|_| None).collect(),
            registry: Registry::new(),
            spec: SpecTable::new(),
            sched: Scheduler::new(),
            clock: VirtualClock::new(),
            sync_depth: 0,
            occurrence_open: false,
            dispatch_seq: 0,
            fuel: config.fuel,
            boundary_fuel: None,
            epoch_ns: None,
            next_epoch_ns: u64::MAX,
            epoch_hook: None,
            faults: None,
            sinks: Observers::new(),
            cost: CostCounter::new(),
            reserved,
            config,
            module,
        }
    }

    /// The module this runtime executes.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The limits this runtime was created with (needed to rebuild an
    /// equivalent runtime elsewhere, e.g. when a server restores a session
    /// from a snapshot image).
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// A clone of the module handle (for constructing optimized variants).
    pub fn module_arc(&self) -> Arc<Module> {
        Arc::clone(&self.module)
    }

    /// Edits the executing module in place (unshared first if another
    /// handle holds it) against the live bindings. Ids in use must keep
    /// their meaning; globals and native slots the edit appends start
    /// initialized and empty, and reserved natives are resolved anew.
    pub fn edit_module<R>(&mut self, edit: impl FnOnce(&mut Module, &Registry) -> R) -> R {
        let out = edit(Arc::make_mut(&mut self.module), &self.registry);
        self.fit_module();
        out
    }

    /// Fits the per-module state to the module now executing.
    fn fit_module(&mut self) {
        let module = &self.module;
        self.reserved = ReservedNatives::resolve(module);
        if self.natives.len() < module.natives.len() {
            self.natives.resize_with(module.natives.len(), || None);
        }
        while self.globals.len() < module.globals.len() {
            let idx = self.globals.len();
            self.globals.push(module.globals[idx].init.clone());
            self.lock_words.push(AtomicU64::new(0));
        }
    }

    /// Installs an epoch hook: inside [`Runtime::run_until`] (and on
    /// [`Runtime::advance_clock`]), whenever the virtual clock crosses a
    /// multiple of `epoch_ns`, `hook` runs *between* dispatches with full
    /// mutable access to the runtime. This is how background work — the
    /// adaptive engine's re-profiling, quarantine and chain installs — is
    /// driven without any caller-side loop. Crossing several boundaries in one
    /// step fires the hook once, with the first boundary crossed.
    ///
    /// The hook slot is emptied while the hook runs, so a hook raising
    /// events or advancing the clock cannot re-enter itself.
    pub fn set_epoch_hook(&mut self, epoch_ns: u64, hook: impl FnMut(&mut Runtime, u64) + 'static) {
        let epoch = epoch_ns.max(1);
        self.epoch_ns = Some(epoch);
        self.next_epoch_ns = (self.clock.now_ns() / epoch + 1).saturating_mul(epoch);
        self.epoch_hook = Some(Box::new(hook));
    }

    /// The configured epoch length, if an epoch hook is installed.
    pub fn epoch_ns(&self) -> Option<u64> {
        self.epoch_ns
    }

    /// Fires the epoch hook if the clock has crossed the next boundary.
    /// A caller holding a handle on the module lets go of it first, so an
    /// edit the hook makes happens in place.
    fn poll_epoch(&mut self) {
        let Some(epoch) = self.epoch_ns else {
            return;
        };
        if self.clock.now_ns() < self.next_epoch_ns || self.epoch_hook.is_none() {
            return;
        }
        let boundary = self.next_epoch_ns;
        self.next_epoch_ns = (self.clock.now_ns() / epoch + 1).saturating_mul(epoch);
        if let Some(mut hook) = self.epoch_hook.take() {
            hook(self, boundary);
            // Keep the hook unless it replaced or cleared itself.
            if self.epoch_hook.is_none() && self.epoch_ns.is_some() {
                self.epoch_hook = Some(hook);
            }
        }
    }

    /// The binding registry (read-only; mutate through [`Runtime::bind`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Binds `handler` to `event` with an order key.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownEvent`] if the module does not declare
    /// `event`, and [`RuntimeError::UnknownName`] if `handler` is out of
    /// range.
    pub fn bind(
        &mut self,
        event: EventId,
        handler: FuncId,
        order: i32,
    ) -> Result<(), RuntimeError> {
        self.check_event(event)?;
        if handler.index() >= self.module.functions.len() {
            return Err(RuntimeError::UnknownName(format!("{handler}")));
        }
        self.registry.bind(event, handler, order);
        Ok(())
    }

    /// Removes the first binding of `handler` to `event`.
    pub fn unbind(&mut self, event: EventId, handler: FuncId) -> bool {
        self.registry.unbind(event, handler)
    }

    /// Binds a native implementation into slot `native`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range for the module.
    pub fn bind_native(
        &mut self,
        native: NativeId,
        f: impl FnMut(&[Value]) -> Result<Value, String> + 'static,
    ) {
        self.natives[native.index()] = Some(Box::new(f));
    }

    /// Binds a native implementation by declared name.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownName`] when the module declares no
    /// native slot with that name.
    pub fn bind_native_by_name(
        &mut self,
        name: &str,
        f: impl FnMut(&[Value]) -> Result<Value, String> + 'static,
    ) -> Result<(), RuntimeError> {
        let id = self
            .module
            .native_by_name(name)
            .ok_or_else(|| RuntimeError::UnknownName(name.to_string()))?;
        self.bind_native(id, f);
        Ok(())
    }

    /// Installs a compiled super-handler chain.
    pub fn install_chain(&mut self, chain: CompiledChain) {
        self.spec.install(chain);
    }

    /// Removes the chain for `event`, if any.
    pub fn remove_chain(&mut self, event: EventId) -> Option<CompiledChain> {
        self.spec.remove(event)
    }

    /// The installed specialization table.
    pub fn spec(&self) -> &SpecTable {
        &self.spec
    }

    /// Sets the profile-trace configuration and clears prior records
    /// ([`TraceConfig::off`], the initial state, records nothing).
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.sinks.set_trace_config(config);
    }

    /// Attaches a fresh observability hub (see `pdo-obs`) and returns a
    /// handle to it: dispatches start feeding per-event fast/slow latency
    /// histograms. Guard misses and faults are spans in the causal trace
    /// ([`Runtime::set_tracer`]), not hub records. The handle is a cheap
    /// `Rc` a test oracle may share. When no hub is attached (the default)
    /// every instrumentation site is a single `Option` check.
    pub fn enable_observability(&mut self) -> ObsHub {
        let hub = ObsHub::new();
        self.sinks.obs = Some(hub.clone());
        hub
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&ObsHub> {
        self.sinks.obs.as_ref()
    }

    /// Attaches a causal trace store (see `pdo-obs::trace`, DESIGN.md
    /// §16): every raise, dispatch, timer fire, guard miss, fault, and
    /// despecialization records a span with a parent edge. A raise with
    /// no ambient or caller-supplied context mints a fresh [`TraceId`](pdo_obs::TraceId) —
    /// it is an external stimulus and becomes the trace root. The same
    /// store may be shared with the adaptive engine and the server that
    /// owns this runtime; it is a cheap `Rc` handle. Detached (the
    /// default) every site pays one `Option` check; attached-but-disabled
    /// adds one `Cell` load.
    pub fn set_tracer(&mut self, store: TraceStore) {
        self.sinks.tracer = Some(store);
    }

    /// Attaches a fresh default-capacity trace store and returns a
    /// handle to it.
    pub fn enable_tracing(&mut self) -> TraceStore {
        let store = TraceStore::default();
        self.sinks.tracer = Some(store.clone());
        store
    }

    /// The attached causal trace store, if any.
    pub fn tracer(&self) -> Option<&TraceStore> {
        self.sinks.tracer.as_ref()
    }

    /// Turns the interpreter's instruction counters (executed and fused)
    /// on or off. Off by default: an instrument for measuring how much of a
    /// run the fused arms carry, which nothing in the product switches on.
    /// Turning it off discards the counts; turning it on while it is on
    /// keeps them.
    pub fn set_opcode_profiling(&mut self, on: bool) {
        if !on {
            self.sinks.opcode_prof = None;
        } else if self.sinks.opcode_prof.is_none() {
            self.sinks.opcode_prof = Some(OpcodeProfile::default());
        }
    }

    /// The accumulated counters, while profiling is on.
    pub fn opcode_profile_data(&self) -> Option<&OpcodeProfile> {
        self.sinks.opcode_prof.as_ref()
    }

    /// Takes the accumulated counters, leaving zeroed ones behind. Returns
    /// `None` when profiling is off.
    pub fn take_opcode_profile(&mut self) -> Option<OpcodeProfile> {
        self.sinks.opcode_prof.as_mut().map(std::mem::take)
    }

    /// The most recent top-level dispatch's trace context — the anchor
    /// the adaptive engine parents its chain-audit spans to, and the
    /// wire layer its segment spans, so cross-layer actions join the
    /// trace that causally drove them.
    pub fn last_trace_ctx(&self) -> Option<TraceCtx> {
        self.sinks.last_tctx
    }

    /// Exports the runtime's counters and (when a hub is attached) its
    /// per-event dispatch-latency histograms into `snap`, with `extra`
    /// labels (e.g. `session`) on every series.
    pub fn export_metrics(&self, snap: &mut MetricsSnapshot, extra: &[(&str, &str)]) {
        snap.counter(
            "pdo_dispatch_fastpath_total",
            "Dispatches served by a guarded compiled chain",
            extra,
            self.cost.fastpath_hits,
        );
        snap.counter(
            "pdo_dispatch_guard_miss_total",
            "Fast-path attempts that fell back to generic dispatch on stale guards",
            extra,
            self.cost.fastpath_misses,
        );
        snap.counter(
            "pdo_dispatch_generic_total",
            "Dispatches served by the generic registry walk",
            extra,
            self.cost.registry_lookups,
        );
        self.sinks.export_metrics(snap, extra);
    }

    /// Installs a fault injector (replacing any previous one; occurrence
    /// counters start fresh).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Changes the fault-containment policy mid-run.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.config.fault_policy = policy;
    }

    /// Robustness counters recorded since the runtime was created.
    pub fn stats(&self) -> &RuntimeStats {
        &self.sinks.stats
    }

    /// Takes the recorded trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.sinks.trace)
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.sinks.trace
    }

    /// Starts counting the profile at every raise, dispatch and handler
    /// entry (see [`ProfileTally`]); a no-op while it is counted.
    pub fn enable_profile_tally(&mut self) {
        self.sinks.tally.get_or_insert_with(ProfileTally::new);
    }

    /// The profile counted since it was enabled or last drained, if it is
    /// counted.
    pub fn profile_tally(&self) -> Option<&ProfileTally> {
        self.sinks.tally.as_ref()
    }

    /// Hands the profile counted since the last drain to `merge`, then
    /// clears it in place, keeping its buffers. `merge` is not called
    /// while the profile is not counted.
    pub fn drain_profile_tally(&mut self, merge: impl FnOnce(&ProfileTally)) {
        if let Some(tally) = &mut self.sinks.tally {
            merge(tally);
            tally.clear();
        }
    }

    /// Current value of a global cell.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn global(&self, global: GlobalId) -> &Value {
        &self.globals[global.index()]
    }

    /// Overwrites a global cell (test/bench setup).
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn set_global(&mut self, global: GlobalId, value: Value) {
        self.globals[global.index()] = value;
    }

    /// Current virtual time in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advances the virtual clock by `delta_ns` (timers are *not* fired;
    /// use [`Runtime::run_until_idle`] or [`Runtime::run_until`]). Epoch
    /// hooks installed with [`Runtime::set_epoch_hook`] *do* fire if the
    /// advance crosses an epoch boundary, so idle sessions still adapt.
    pub fn advance_clock(&mut self, delta_ns: u64) {
        self.clock.advance_by(delta_ns);
        self.poll_epoch();
    }

    /// Pending asynchronous + timed event count.
    pub fn pending(&self) -> usize {
        self.sched.queued_len() + self.sched.timer_len()
    }

    /// Queued (async FIFO) event count.
    pub fn queued_len(&self) -> usize {
        self.sched.queued_len()
    }

    /// Scheduled (timed) event count.
    pub fn timer_len(&self) -> usize {
        self.sched.timer_len()
    }

    /// A copy of the scheduler (FIFO, timers, sequence counter) for
    /// snapshotting.
    pub fn export_sched(&self) -> Scheduler {
        self.sched.clone()
    }

    /// Replaces the scheduler with one exported by
    /// [`Runtime::export_sched`]. Timer deadlines are absolute virtual
    /// times; restore the clock (via [`Runtime::advance_clock`]) to the
    /// snapshotted time as well.
    pub fn restore_sched(&mut self, sched: Scheduler) {
        self.sched = sched;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Resets cost counters.
    pub fn reset_cost(&mut self) {
        self.cost.reset();
    }

    fn check_event(&self, event: EventId) -> Result<(), RuntimeError> {
        if event.index() < self.module.events.len() {
            Ok(())
        } else {
            Err(RuntimeError::UnknownEvent(event))
        }
    }

    /// Raises `event` with `mode`. For [`RaiseMode::Timed`] the first
    /// argument must be a non-negative integer delay in virtual ns; the
    /// remaining arguments are the handler arguments.
    ///
    /// # Errors
    ///
    /// Fails on unknown events, malformed timed raises, or handler faults.
    pub fn raise(
        &mut self,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        self.raise_traced(event, mode, args, None)
    }

    /// As [`Runtime::raise`], but joining the caller-supplied causal
    /// trace context instead of minting a fresh trace — how the ingress
    /// front door extends its root span into the runtime: `ctx` is the
    /// ambient span for the duration of the raise, so the raise and
    /// everything nested in it parent there. Without an attached,
    /// enabled trace store it has no effect.
    ///
    /// # Errors
    ///
    /// As [`Runtime::raise`].
    pub fn raise_traced(
        &mut self,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
        ctx: Option<TraceCtx>,
    ) -> Result<(), RuntimeError> {
        let module = self.module_arc();
        let displaced = self.sinks.adopt_ctx(ctx);
        let r = self.raise_inner(&module, event, mode, args);
        self.sinks.restore_ctx(displaced);
        r
    }

    fn raise_inner(
        &mut self,
        module: &Module,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        self.check_event(event)?;
        let now = self.clock.now_ns();
        let queued = self.sinks.raise(event, mode, self.sync_depth, now);
        match mode {
            RaiseMode::Sync => {
                if self.sync_depth >= self.config.max_sync_depth {
                    return Err(RuntimeError::SyncDepthExceeded);
                }
                self.sync_depth += 1;
                let r = self.dispatch_now(module, event, args);
                self.sync_depth -= 1;
                r
            }
            RaiseMode::Async => {
                let args = self.sched.args_from(args);
                self.sched.push_async_traced(event, args, queued);
                Ok(())
            }
            RaiseMode::Timed => {
                let delay = args
                    .first()
                    .and_then(Value::as_int)
                    .filter(|d| *d >= 0)
                    .ok_or(RuntimeError::BadTimedRaise)?;
                let mut delay = delay as u64;
                // Timed raises are never subsumed by the optimizer, so the
                // injector counts every one of them (unlike dispatches,
                // which count only those raised by the workload or popped).
                match self.faults.as_mut().and_then(|f| f.on_timed(event)) {
                    Some(kind @ FaultKind::DropTimed) => {
                        self.sinks.fault(event, kind, now);
                        return Ok(());
                    }
                    Some(kind @ FaultKind::DelayTimed { extra_ns }) => {
                        self.sinks.fault(event, kind, now);
                        delay = delay.saturating_add(extra_ns);
                    }
                    _ => {}
                }
                let args = self.sched.args_from(&args[1..]);
                self.sched
                    .push_timed_traced(now, delay, event, args, queued);
                Ok(())
            }
        }
    }

    /// Removes `event`'s compiled chain as a containment action. No-op
    /// when no chain is installed, which is what makes
    /// [`FaultPolicy::Despecialize`] equivalence-safe: the original
    /// (chain-less) run takes the same generic path afterwards.
    fn despecialize(&mut self, event: EventId) {
        if self.spec.remove(event).is_some() {
            self.sinks.despecialized(event, self.clock.now_ns());
        }
    }

    /// The one containment decision for a trap in `event`'s dispatch,
    /// whichever lane it came from. Boundary-fuel exhaustion in a *nested*
    /// dispatch propagates, so the enclosing occurrence aborts at the same
    /// program point a merged chain would; under [`FaultPolicy::Abort`]
    /// every trap propagates. Otherwise the trap is contained — recorded as
    /// a fault unless it is the fuel exhaustion we injected ourselves,
    /// which was already noted at injection time — and, under
    /// [`FaultPolicy::Despecialize`], `event`'s chain is removed. `Ok`
    /// means contained: the caller skips the rest of the dispatch.
    #[cold]
    fn contain(
        &mut self,
        event: EventId,
        err: ExecError,
        injected_fuel: bool,
    ) -> Result<(), RuntimeError> {
        let out_of_fuel = matches!(err, ExecError::OutOfFuel);
        let nested_exhaustion = out_of_fuel && self.boundary_fuel.is_some() && !injected_fuel;
        if nested_exhaustion || self.config.fault_policy == FaultPolicy::Abort {
            return Err(RuntimeError::Exec(err));
        }
        let organic = !(injected_fuel && out_of_fuel);
        self.sinks.contained(event, organic, self.clock.now_ns());
        if self.config.fault_policy == FaultPolicy::Despecialize {
            self.despecialize(event);
        }
        Ok(())
    }

    /// Dispatches the handlers of `event` immediately: guarded fast path
    /// when a chain is installed and valid, generic registry walk otherwise.
    ///
    /// Fault injection happens here, but only for the occurrences raised by
    /// the workload or popped off the queue or timer wheel: a dispatch nested
    /// inside an open occurrence is never counted, whatever its depth.
    /// Nested synchronous dispatch counts differ between original and
    /// optimized runs because of subsumption, so keying faults on them
    /// would make the chaos equivalence property ill-defined (see
    /// `crate::fault`).
    fn dispatch_now(
        &mut self,
        module: &Module,
        event: EventId,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        let injected = match self.faults.as_mut() {
            Some(faults) if !self.occurrence_open => faults.on_dispatch(event),
            _ => return self.dispatch_handlers(module, event, args, false, false),
        };
        self.occurrence_open = true;
        let r = self.dispatch_occurrence(module, event, args, injected);
        self.occurrence_open = false;
        r
    }

    /// Dispatches one counted occurrence under the fault planned for it.
    fn dispatch_occurrence(
        &mut self,
        module: &Module,
        event: EventId,
        args: &[Value],
        injected: Option<FaultKind>,
    ) -> Result<(), RuntimeError> {
        let Some(kind) = injected else {
            return self.dispatch_handlers(module, event, args, false, false);
        };
        self.sinks.fault(event, kind, self.clock.now_ns());
        match kind {
            FaultKind::TrapDispatch => match self.config.fault_policy {
                FaultPolicy::Abort => Err(RuntimeError::Fault { event, kind }),
                FaultPolicy::SkipEvent => {
                    self.sinks.contained(event, false, self.clock.now_ns());
                    Ok(())
                }
                FaultPolicy::Despecialize => {
                    // No handler effect has happened yet, so removing the
                    // chain and dispatching this occurrence generically is
                    // observably identical in original and optimized runs.
                    self.despecialize(event);
                    self.dispatch_handlers(module, event, args, true, false)
                }
            },
            FaultKind::CorruptArg { index } if !args.is_empty() => {
                let mut owned = args.to_vec();
                let i = usize::from(index) % owned.len();
                owned[i] = corrupt_value(&owned[i]);
                self.dispatch_handlers(module, event, &owned, false, false)
            }
            FaultKind::CorruptArg { .. } => {
                self.dispatch_handlers(module, event, args, false, false)
            }
            FaultKind::ExhaustFuel => {
                // Meter *pre-merge handler boundaries* for this occurrence:
                // every handler the original program would invoke (directly
                // or through nested synchronous raises) charges one unit
                // before its body runs, and super-handlers compiled with
                // `__pdo_fuel_boundary` markers charge at the same program
                // points — so exhaustion trips identically in original and
                // optimized runs (see `crate::fault`).
                let saved = self.boundary_fuel.take();
                self.boundary_fuel = Some(EXHAUST_FUEL_BUDGET);
                let r = self.dispatch_handlers(module, event, args, false, true);
                self.boundary_fuel = saved;
                r
            }
            // Timed kinds never reach the dispatch plan (see
            // `FaultInjector::from_plan`) and HandlerTrap is never planned.
            FaultKind::DropTimed | FaultKind::DelayTimed { .. } | FaultKind::HandlerTrap => {
                self.dispatch_handlers(module, event, args, false, false)
            }
        }
    }

    /// The one observation bracket around a dispatch: the sinks see it
    /// open, the body runs and reports which lane it took, and the sinks
    /// see it close with that lane (latency histogram sample, `Dispatch`
    /// span). With every sink off the bracket is one branch per sink.
    fn dispatch_handlers(
        &mut self,
        module: &Module,
        event: EventId,
        args: &[Value],
        force_generic: bool,
        injected_fuel: bool,
    ) -> Result<(), RuntimeError> {
        let scope = self
            .sinks
            .dispatch_begin(event, self.sync_depth, self.clock.now_ns());
        let r = self.dispatch_body(module, event, args, force_generic, injected_fuel);
        // An aborting dispatch has no lane to attribute; count it as slow.
        let fast = *r.as_ref().unwrap_or(&false);
        self.sinks
            .dispatch_end(scope, event, fast, self.clock.now_ns());
        r.map(|_fast| ())
    }

    /// Runs one handler inside its enter/exit observation bracket — the
    /// single invocation point both dispatch lanes share.
    fn call_handler(
        &mut self,
        module: &Module,
        event: EventId,
        handler: FuncId,
        dispatch: u64,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let traced = self
            .sinks
            .handler_enter(event, handler, dispatch, self.clock.now_ns());
        let result = call(module, self, handler, args);
        self.sinks
            .handler_exit(traced, event, handler, dispatch, self.clock.now_ns());
        result
    }

    /// The actual fast-path / generic dispatch, with per-call trap
    /// containment according to the configured [`FaultPolicy`]. Returns
    /// `true` when the dispatch entered a compiled chain (even if it then
    /// trapped and was contained), `false` for the generic path — the lane
    /// [`Runtime::dispatch_handlers`] reports to the sinks.
    fn dispatch_body(
        &mut self,
        module: &Module,
        event: EventId,
        args: &[Value],
        force_generic: bool,
        injected_fuel: bool,
    ) -> Result<bool, RuntimeError> {
        // Fast path: compiled chain with matching guards.
        if !force_generic {
            if let Some(chain) = self.spec.get_mut(event) {
                let check = if usize::from(chain.params) == args.len() {
                    chain.revalidate(&self.registry)
                } else {
                    GuardCheck::Stale
                };
                if check == GuardCheck::Holds {
                    let func = chain.func;
                    self.cost.fastpath_hits += 1;
                    self.cost.direct_handler_calls += 1;
                    let dispatch = self.dispatch_seq;
                    self.dispatch_seq += 1;
                    if let Err(err) = self.call_handler(module, event, func, dispatch, args) {
                        self.contain(event, err, injected_fuel)?;
                        // Injected exhaustion stops the occurrence at a
                        // well-defined boundary; re-dispatching would re-run
                        // the completed prefix. Otherwise, under
                        // `Despecialize`, a best-effort generic re-dispatch:
                        // the chain may have applied partial effects, so
                        // this is NOT equivalence-preserving — it keeps the
                        // occurrence from being lost entirely.
                        if self.config.fault_policy == FaultPolicy::Despecialize && !injected_fuel {
                            self.dispatch_handlers(module, event, args, true, false)?;
                        }
                    }
                    return Ok(true);
                }
                // Every fallen-back dispatch is charged; the sinks hear of
                // a miss once per rebind that invalidated the chain.
                self.cost.fastpath_misses += 1;
                if check == GuardCheck::Invalidated {
                    self.sinks.guard_miss(event, self.clock.now_ns());
                }
            }
        }

        // Generic path: registry lookup, snapshot, marshal per handler,
        // indirect invocation.
        self.cost.registry_lookups += 1;
        let dispatch = self.dispatch_seq;
        self.dispatch_seq += 1;
        let bindings = self.registry.snapshot(event);
        for binding in bindings.iter() {
            // Boundary-fuel metering: one unit per pre-merge handler
            // invocation, charged *before* the body runs — the same points
            // where super-handlers compiled with `fuel_boundaries` place
            // their `__pdo_fuel_boundary` markers.
            if let Some(n) = self.boundary_fuel {
                if n == 0 {
                    self.contain(event, ExecError::OutOfFuel, injected_fuel)?;
                    return Ok(false);
                }
                self.boundary_fuel = Some(n - 1);
            }
            self.cost.indirect_calls += 1;
            self.cost.marshaled_values += args.len() as u64;
            let packed = marshal(args);
            let unpacked = unmarshal(&packed).map_err(RuntimeError::Marshal)?;
            let result = self.call_handler(module, event, binding.handler, dispatch, &unpacked);
            if let Err(err) = result {
                self.contain(event, err, injected_fuel)?;
                return Ok(false);
            }
        }
        Ok(false)
    }

    /// Drains the asynchronous queue and timer wheel, advancing the virtual
    /// clock to each timer deadline. Returns the number of dispatches.
    ///
    /// # Errors
    ///
    /// Propagates handler faults; fails with [`RuntimeError::StepLimit`] if
    /// the configured budget is exhausted (guards against self-sustaining
    /// event cascades).
    pub fn run_until_idle(&mut self) -> Result<u64, RuntimeError> {
        self.run_until(u64::MAX)
    }

    /// As [`Runtime::run_until_idle`], but stops once the next piece of
    /// work would lie after virtual time `deadline_ns`.
    ///
    /// # Errors
    ///
    /// See [`Runtime::run_until_idle`].
    pub fn run_until(&mut self, deadline_ns: u64) -> Result<u64, RuntimeError> {
        let mut module = self.module_arc();
        let mut steps = 0u64;
        loop {
            if steps >= self.config.max_steps {
                return match self.sched.next_deadline() {
                    _ if self.sched.queued_len() > 0 => Err(RuntimeError::StepLimit),
                    Some(d) if d <= deadline_ns => Err(RuntimeError::StepLimit),
                    _ => Ok(steps),
                };
            }
            let (event, args, trace, src) = match self.sched.pop_async() {
                Some(p) => (p.event, p.args, p.trace, DispatchSrc::Queue),
                // One call per due timer: the earliest timer at or before
                // `deadline_ns`, then the clock moves to its deadline.
                None => match self.sched.pop_due_timer(deadline_ns) {
                    Some(t) => {
                        self.clock.advance_to(t.deadline_ns);
                        (t.event, t.args, t.trace, DispatchSrc::Timer)
                    }
                    None => return Ok(steps),
                },
            };
            self.sinks.popped(trace, src);
            let dispatched = self.dispatch_now(&module, event, &args);
            self.sched.recycle_args(args);
            dispatched?;
            steps += 1;
            if self.clock.now_ns() >= self.next_epoch_ns {
                // Let go of the module while the hook runs, so an edit it
                // makes happens in place.
                drop(module);
                self.poll_epoch();
                module = self.module_arc();
            }
        }
    }

    /// A runtime-implemented native (any `kind` but [`NativeKind::User`]).
    fn reserved_native(&mut self, kind: NativeKind, args: &[Value]) -> Result<Value, ExecError> {
        let arg_int = |i: usize| -> Result<i64, ExecError> {
            args.get(i)
                .and_then(Value::as_int)
                .ok_or_else(|| ExecError::Native("reserved native: bad argument".into()))
        };
        match kind {
            NativeKind::User => unreachable!("user natives are called through their slot"),
            NativeKind::Bind => {
                // An id past `u32` is as unknown as one past the module.
                let id = |i: usize| arg_int(i).map(|v| u32::try_from(v).unwrap_or(u32::MAX));
                let (e, f, o) = (id(0)?, id(1)?, arg_int(2)?);
                self.bind(EventId(e), FuncId(f), o as i32)
                    .map(|()| Value::Unit)
                    .map_err(|err| ExecError::Native(format!("{}: {err}", Runtime::NATIVE_BIND)))
            }
            NativeKind::Unbind => {
                let (e, f) = (arg_int(0)?, arg_int(1)?);
                Ok(Value::Bool(
                    self.registry.unbind(EventId(e as u32), FuncId(f as u32)),
                ))
            }
            NativeKind::CancelTimer => {
                arg_int(0).map(|e| Value::Int(self.sched.cancel_timers(EventId(e as u32)) as i64))
            }
            NativeKind::Clock => Ok(Value::Int(self.clock.now_ns() as i64)),
            NativeKind::AdvanceClock => arg_int(0).map(|ns| {
                self.clock.advance_by(ns.max(0) as u64);
                Value::Unit
            }),
            // Marker emitted by the optimizer before each merged handler
            // segment: charges the same boundary unit the generic dispatcher
            // charges before each pre-merge handler call.
            NativeKind::FuelBoundary => match self.boundary_fuel {
                Some(0) => Err(ExecError::OutOfFuel),
                Some(n) => {
                    self.boundary_fuel = Some(n - 1);
                    Ok(Value::Unit)
                }
                None => Ok(Value::Unit),
            },
        }
    }
}

// The small methods are `#[inline]`: the dispatch loop is instantiated for
// `Runtime` in this crate, and each of these is a field access it should
// see through.
impl Env for Runtime {
    #[inline]
    fn global_slot(&self, global: GlobalId) -> Option<&Value> {
        self.globals.get(global.index())
    }

    #[inline]
    fn global_slot_mut(&mut self, global: GlobalId) -> Option<&mut Value> {
        self.globals.get_mut(global.index())
    }

    #[inline]
    fn lock(&mut self, global: GlobalId) -> Result<(), ExecError> {
        match self.lock_words.get(global.index()) {
            Some(w) => {
                // A real atomic RMW: this is the measurable state-maintenance
                // cost the paper's lock elimination removes.
                w.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            None => Err(ExecError::GlobalOutOfRange(global)),
        }
    }

    #[inline]
    fn unlock(&mut self, global: GlobalId) -> Result<(), ExecError> {
        match self.lock_words.get(global.index()) {
            Some(w) => {
                w.fetch_sub(1, Ordering::AcqRel);
                Ok(())
            }
            None => Err(ExecError::GlobalOutOfRange(global)),
        }
    }

    fn call_native(
        &mut self,
        native: NativeId,
        args: &[Value],
        dst: &mut Value,
    ) -> Result<(), ExecError> {
        let slot = native.index();
        *dst = match self.reserved.kinds.get(slot) {
            Some(NativeKind::User) => match &mut self.natives[slot] {
                Some(f) => f(args).map_err(ExecError::Native)?,
                None => return Err(ExecError::UnboundNative(native)),
            },
            Some(&kind) => self.reserved_native(kind, args)?,
            None => return Err(ExecError::UnboundNative(native)),
        };
        Ok(())
    }

    fn raise(
        &mut self,
        module: &Module,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
    ) -> Result<(), ExecError> {
        // Nested raise from handler IR: the ambient span (the dispatch
        // executing this handler) is the causal parent.
        self.raise_inner(module, event, mode, args)
            .map_err(|e| match e {
                RuntimeError::Exec(inner) => inner,
                other => ExecError::Raise(other.to_string()),
            })
    }

    #[inline]
    fn cost(&mut self) -> &mut CostCounter {
        &mut self.cost
    }

    #[inline]
    fn fuel(&mut self) -> Option<&mut u64> {
        self.fuel.as_mut()
    }

    #[inline]
    fn opcode_profile(&mut self) -> Option<&mut OpcodeProfile> {
        self.sinks.opcode_prof.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Guard;
    use crate::trace::TraceRecord;
    use pdo_ir::{BinOp, FunctionBuilder};

    /// Module with one event `E` and two handlers that append 1 / 2 to a
    /// global accumulator encoded as `acc = acc * 10 + k`.
    fn two_handler_module() -> (Module, EventId, GlobalId, FuncId, FuncId) {
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("acc", Value::Int(0));
        let mk = |m: &mut Module, name: &str, k: i64| {
            let mut b = FunctionBuilder::new(name, 1);
            let v = b.load_global(g);
            let ten = b.const_int(10);
            let scaled = b.bin(BinOp::Mul, v, ten);
            let kk = b.const_int(k);
            let out = b.bin(BinOp::Add, scaled, kk);
            b.store_global(g, out);
            b.ret(None);
            m.add_function(b.finish())
        };
        let h1 = mk(&mut m, "h1", 1);
        let h2 = mk(&mut m, "h2", 2);
        (m, e, g, h1, h2)
    }

    #[test]
    fn sync_raise_runs_handlers_in_order() {
        let (m, e, g, h1, h2) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(12));
    }

    #[test]
    fn nested_sync_raises_leave_outer_frames_untouched() {
        // A -> call -> raise B -> call -> raise C, all synchronous: three
        // interpreter activations of `call` stacked through the runtime,
        // each reading its own registers again after the inner ones ran.
        let mut m = Module::new();
        let events = [m.add_event("A"), m.add_event("B"), m.add_event("C")];
        let globals = [
            m.add_global("ga", Value::Int(0)),
            m.add_global("gb", Value::Int(0)),
            m.add_global("gc", Value::Int(0)),
        ];
        let mut handlers = Vec::new();
        for level in 0..3 {
            // helper(p): raise the next level's event with p, return p * 10.
            let mut h = FunctionBuilder::new(format!("helper{level}"), 1);
            if level < 2 {
                h.raise(events[level + 1], RaiseMode::Sync, &[h.param(0)]);
            }
            let ten = h.const_int(10);
            let scaled = h.bin(BinOp::Mul, h.param(0), ten);
            h.ret(Some(scaled));
            let helper = m.add_function(h.finish());
            // handler(x): v = x + 1; g = helper(v) + v.
            let mut b = FunctionBuilder::new(format!("handler{level}"), 1);
            let one = b.const_int(1);
            let v = b.bin(BinOp::Add, b.param(0), one);
            let r = b.call(helper, &[v]);
            let out = b.bin(BinOp::Add, r, v);
            b.store_global(globals[level], out);
            b.ret(None);
            handlers.push(m.add_function(b.finish()));
        }
        let mut rt = Runtime::new(m);
        for (e, h) in events.iter().zip(&handlers) {
            rt.bind(*e, *h, 0).unwrap();
        }
        rt.raise(events[0], RaiseMode::Sync, &[Value::Int(1)])
            .unwrap();
        let got: Vec<&Value> = globals.iter().map(|g| rt.global(*g)).collect();
        assert_eq!(got, [&Value::Int(22), &Value::Int(33), &Value::Int(44)]);
    }

    #[test]
    fn order_key_reorders_handlers() {
        let (m, e, g, h1, h2) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 5).unwrap();
        rt.bind(e, h2, 0).unwrap();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(21));
    }

    #[test]
    fn async_raise_deferred_until_run() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.raise(e, RaiseMode::Async, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(0));
        assert_eq!(rt.pending(), 1);
        let steps = rt.run_until_idle().unwrap();
        assert_eq!(steps, 1);
        assert_eq!(rt.global(g), &Value::Int(1));
    }

    #[test]
    fn timed_raise_advances_clock() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.raise(e, RaiseMode::Timed, &[Value::Int(5_000), Value::Unit])
            .unwrap();
        assert_eq!(rt.clock_ns(), 0);
        rt.run_until_idle().unwrap();
        assert_eq!(rt.clock_ns(), 5_000);
        assert_eq!(rt.global(g), &Value::Int(1));
    }

    #[test]
    fn recycled_argument_buffers_hold_no_values() {
        // h(b, d) = 100 / d: a trap when d == 0, fatal under the default
        // `FaultPolicy::Abort`.
        let mut m = Module::new();
        let e = m.add_event("E");
        let mut b = FunctionBuilder::new("h", 2);
        let hundred = b.const_int(100);
        let _ = b.bin(BinOp::Div, hundred, b.param(1));
        b.ret(None);
        let h = m.add_function(b.finish());
        let mut rt = Runtime::new(m);
        rt.bind(e, h, 0).unwrap();

        let payload: std::sync::Arc<[u8]> = std::sync::Arc::from([1u8, 2, 3]);
        let holders = || std::sync::Arc::strong_count(&payload);
        for (mode, delay) in [
            (RaiseMode::Async, None),
            (RaiseMode::Timed, Some(Value::Int(5))),
        ] {
            for d in [1, 0, 1] {
                let mut args: Vec<Value> = delay.iter().cloned().collect();
                args.extend([Value::Bytes(payload.clone()), Value::Int(d)]);
                rt.raise(e, mode, &args).unwrap();
                drop(args);
                assert_eq!(holders(), 2, "the queued entry holds the payload");
                assert_eq!(rt.run_until_idle().is_err(), d == 0);
                assert_eq!(holders(), 1, "{mode:?}, d = {d}: nothing kept it");
            }
        }
    }

    #[test]
    fn timed_raise_requires_delay() {
        let (m, e, _, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        assert_eq!(
            rt.raise(e, RaiseMode::Timed, &[Value::Unit]),
            Err(RuntimeError::BadTimedRaise)
        );
        assert_eq!(
            rt.raise(e, RaiseMode::Timed, &[Value::Int(-1), Value::Unit]),
            Err(RuntimeError::BadTimedRaise)
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.raise(e, RaiseMode::Timed, &[Value::Int(100), Value::Unit])
            .unwrap();
        rt.raise(e, RaiseMode::Timed, &[Value::Int(10_000), Value::Unit])
            .unwrap();
        rt.run_until(1_000).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
        assert_eq!(rt.pending(), 1);
        rt.run_until_idle().unwrap();
        assert_eq!(rt.global(g), &Value::Int(11));
    }

    #[test]
    fn unbound_event_is_ignored() {
        let (m, e, g, _, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(0));
    }

    #[test]
    fn unknown_event_rejected() {
        let (m, _, _, _, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        assert!(matches!(
            rt.raise(EventId(99), RaiseMode::Sync, &[]),
            Err(RuntimeError::UnknownEvent(_))
        ));
    }

    #[test]
    fn nested_raise_from_handler() {
        // h raises F sync; F's handler bumps the global.
        let mut m = Module::new();
        let e = m.add_event("E");
        let f = m.add_event("F");
        let g = m.add_global("acc", Value::Int(0));
        let mut hb = FunctionBuilder::new("hf", 1);
        let v = hb.load_global(g);
        let one = hb.const_int(1);
        let out = hb.bin(BinOp::Add, v, one);
        hb.store_global(g, out);
        hb.ret(None);
        let hf = m.add_function(hb.finish());

        let mut eb = FunctionBuilder::new("he", 1);
        eb.raise(f, RaiseMode::Sync, &[eb.param(0)]);
        eb.raise(f, RaiseMode::Sync, &[eb.param(0)]);
        eb.ret(None);
        let he = m.add_function(eb.finish());

        let mut rt = Runtime::new(m);
        rt.bind(e, he, 0).unwrap();
        rt.bind(f, hf, 0).unwrap();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(2));
        assert_eq!(rt.cost.raises_sync, 2); // the two nested raises
    }

    #[test]
    fn runaway_sync_recursion_detected() {
        let mut m = Module::new();
        let e = m.add_event("E");
        let mut b = FunctionBuilder::new("h", 0);
        b.raise(e, RaiseMode::Sync, &[]);
        b.ret(None);
        let h = m.add_function(b.finish());
        let mut rt = Runtime::new(m);
        rt.bind(e, h, 0).unwrap();
        let err = rt.raise(e, RaiseMode::Sync, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::Exec(ExecError::Raise(_))));
    }

    #[test]
    fn runaway_async_cascade_hits_step_limit() {
        let mut m = Module::new();
        let e = m.add_event("E");
        let mut b = FunctionBuilder::new("h", 0);
        b.raise(e, RaiseMode::Async, &[]);
        b.ret(None);
        let h = m.add_function(b.finish());
        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                max_steps: 1000,
                ..Default::default()
            },
        );
        rt.bind(e, h, 0).unwrap();
        rt.raise(e, RaiseMode::Async, &[]).unwrap();
        assert_eq!(rt.run_until_idle(), Err(RuntimeError::StepLimit));
    }

    #[test]
    fn tracing_records_raises_and_handlers() {
        let (m, e, _, h1, h2) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        rt.set_trace_config(TraceConfig::full());
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        let t = rt.take_trace();
        assert_eq!(t.raise_count(), 1);
        let kinds: Vec<&'static str> = t
            .records
            .iter()
            .map(|r| match r {
                TraceRecord::Raise { .. } => "raise",
                TraceRecord::HandlerEnter { .. } => "enter",
                TraceRecord::HandlerExit { .. } => "exit",
                TraceRecord::Fault { .. } => "fault",
            })
            .collect();
        assert_eq!(kinds, vec!["raise", "enter", "exit", "enter", "exit"]);
    }

    #[test]
    fn cost_counters_track_generic_overheads() {
        let (m, e, _, h1, h2) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        rt.raise(e, RaiseMode::Sync, &[Value::Int(1), Value::Int(2)])
            .unwrap_err(); // arity mismatch faults; counters still charged
        rt.reset_cost();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.cost.registry_lookups, 1);
        assert_eq!(rt.cost.indirect_calls, 2);
        assert_eq!(rt.cost.marshaled_values, 2);
        assert_eq!(rt.cost.fastpath_hits, 0);
    }

    #[test]
    fn fast_path_dispatch_with_valid_guard() {
        let (m, e, g, h1, h2) = two_handler_module();
        // Build a "merged" super-handler equivalent to h1;h2.
        let mut m = m;
        let mut b = FunctionBuilder::new("super", 1);
        let v = b.load_global(g);
        let ten = b.const_int(10);
        let s1 = b.bin(BinOp::Mul, v, ten);
        let one = b.const_int(1);
        let a1 = b.bin(BinOp::Add, s1, one);
        let s2 = b.bin(BinOp::Mul, a1, ten);
        let two = b.const_int(2);
        let a2 = b.bin(BinOp::Add, s2, two);
        b.store_global(g, a2);
        b.ret(None);
        let sup = m.add_function(b.finish());

        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        rt.install_chain(CompiledChain {
            head: e,
            guards: vec![Guard::capture(rt.registry(), e)],
            func: sup,
            params: 1,
        });
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(12));
        assert_eq!(rt.cost.fastpath_hits, 1);
        assert_eq!(rt.cost.registry_lookups, 0);
        assert_eq!(rt.cost.marshaled_values, 0);
    }

    #[test]
    fn rebinding_invalidates_fast_path() {
        let (m, e, g, h1, h2) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.install_chain(CompiledChain {
            head: e,
            guards: vec![Guard::capture(rt.registry(), e)],
            func: h1, // "merged" = just h1 at this point
            params: 1,
        });
        // Re-bind: guard version no longer matches.
        rt.bind(e, h2, 1).unwrap();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.cost.fastpath_misses, 1);
        assert_eq!(rt.cost.fastpath_hits, 0);
        // Generic path ran both current handlers.
        assert_eq!(rt.global(g), &Value::Int(12));
    }

    #[test]
    fn guard_follows_binding_content_and_one_rebind_is_one_miss() {
        let (m, e, _, h1, h2) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.enable_profile_tally();
        let misses = |rt: &Runtime| {
            let tally = rt.profile_tally().unwrap();
            tally
                .guard_misses()
                .find(|&(ev, _)| ev == e)
                .map_or(0, |(_, n)| n)
        };
        rt.bind(e, h1, 0).unwrap();
        rt.install_chain(CompiledChain {
            head: e,
            guards: vec![Guard::capture(rt.registry(), e)],
            func: h1, // "merged" = just h1
            params: 1,
        });
        // Same content under new version numbers: the fast lane is kept.
        for round in 1..=3u64 {
            assert!(rt.unbind(e, h1));
            rt.bind(e, h1, 0).unwrap();
            rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
            assert_eq!(rt.cost.fastpath_hits, round);
        }
        assert_eq!(misses(&rt), 0);
        assert_eq!(rt.cost.fastpath_misses, 0);
        // A real rebind: every raise falls back, the sinks hear of it once.
        rt.bind(e, h2, 1).unwrap();
        for _ in 0..100 {
            rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        }
        assert_eq!(misses(&rt), 1);
        assert_eq!(rt.cost.fastpath_misses, 100);
        assert_eq!(rt.cost.fastpath_hits, 3);
        // The bindings return: the installed chain revalidates by itself.
        assert!(rt.unbind(e, h2));
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 4);
        assert_eq!(misses(&rt), 1);
    }

    #[test]
    fn reserved_native_bind_bumps_the_binding_version() {
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("acc", Value::Int(0));
        let nb = m.add_native(Runtime::NATIVE_BIND);

        // target handler: acc += 1
        let mut tb = FunctionBuilder::new("target", 0);
        let v = tb.load_global(g);
        let one = tb.const_int(1);
        let out = tb.bin(BinOp::Add, v, one);
        tb.store_global(g, out);
        tb.ret(None);
        let target_id_placeholder = 1u32; // will be function index 1

        // driver: binds `target` to E via the reserved native.
        let mut db = FunctionBuilder::new("driver", 0);
        let ev = db.const_int(e.0 as i64);
        let fv = db.const_int(target_id_placeholder as i64);
        let ord = db.const_int(0);
        let _ = db.call_native(nb, &[ev, fv, ord]);
        db.ret(None);
        let driver = m.add_function(db.finish());
        let target = m.add_function(tb.finish());
        assert_eq!(target.0, target_id_placeholder);

        let mut rt = Runtime::new(m);
        let module = rt.module_arc();
        call(&module, &mut rt, driver, &[]).unwrap();
        assert_eq!(rt.registry().version(e), 1);
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
    }

    #[test]
    fn guard_tables_follow_rebinds() {
        // Five events; the ones at the two ends of the module's id range are
        // rebound every way there is. An id the module lacks is refused.
        let mut m = Module::new();
        let events: Vec<EventId> = (0..5).map(|i| m.add_event(format!("E{i}"))).collect();
        let (first, last) = (events[0], events[4]);
        let g = m.add_global("acc", Value::Int(0));
        let nb = m.add_native(Runtime::NATIVE_BIND);
        let nu = m.add_native(Runtime::NATIVE_UNBIND);
        let mut hb = FunctionBuilder::new("bump", 0);
        let v = hb.load_global(g);
        let one = hb.const_int(1);
        let out = hb.bin(BinOp::Add, v, one);
        hb.store_global(g, out);
        hb.ret(None);
        let bump = m.add_function(hb.finish());
        // rebind(e): bind `bump` to `e` through the reserved native.
        let mut rb = FunctionBuilder::new("rebind", 1);
        let f = rb.const_int(i64::from(bump.0));
        let ord = rb.const_int(0);
        let _ = rb.call_native(nb, &[rb.param(0), f, ord]);
        rb.ret(None);
        let rebind = m.add_function(rb.finish());
        let mut ub = FunctionBuilder::new("unbind", 1);
        let f = ub.const_int(i64::from(bump.0));
        let gone = ub.call_native(nu, &[ub.param(0), f]);
        ub.ret(Some(gone));
        let unbind = m.add_function(ub.finish());

        let mut rt = Runtime::new(m);
        let module = rt.module_arc();
        let mut model = std::collections::BTreeMap::new();
        for e in [first, last] {
            let id = [Value::Int(i64::from(e.0))];
            let mut mutations = 0u64;
            assert_eq!(rt.registry().version(e), 0);
            rt.bind(e, bump, 0).unwrap();
            assert!(rt.unbind(e, bump));
            assert!(!rt.unbind(e, bump));
            mutations += 2;
            call(&module, &mut rt, rebind, &id).unwrap();
            call(&module, &mut rt, rebind, &id).unwrap();
            assert_eq!(call(&module, &mut rt, unbind, &id), Ok(Value::Bool(true)));
            mutations += 3;
            assert_eq!(rt.registry().version(e), mutations, "{e}");
            assert_eq!(rt.registry().bindings(e).len(), 1, "{e}");
            model.insert(e, mutations);
        }
        for (e, mutations) in &model {
            assert_eq!(
                rt.registry().version(*e),
                *mutations,
                "{e}, after the others"
            );
        }
        assert_eq!(rt.registry().version(events[2]), 0, "untouched in between");
        for foreign in [i64::from(u32::MAX), 5, -1, 1 << 40] {
            let refused = call(&module, &mut rt, rebind, &[Value::Int(foreign)]);
            assert!(
                matches!(refused, Err(ExecError::Native(_))),
                "{foreign}: {refused:?}"
            );
        }
        assert_eq!(rt.registry().version(EventId(5)), 0);

        // A chain for the highest event id is found and taken, at both ends.
        for e in [last, first] {
            rt.install_chain(CompiledChain {
                head: e,
                guards: vec![Guard::capture(rt.registry(), e)],
                func: bump,
                params: 0,
            });
        }
        assert_eq!(rt.spec().len(), 2);
        let before = rt.global(g).as_int().unwrap();
        rt.raise(last, RaiseMode::Sync, &[]).unwrap();
        rt.raise(first, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 2);
        assert_eq!(rt.global(g), &Value::Int(before + 2));
        // A rebind through the native is seen by the very next guard check,
        // and so is the unbind that puts the guarded list back.
        let id = [Value::Int(i64::from(last.0))];
        call(&module, &mut rt, rebind, &id).unwrap();
        rt.raise(last, RaiseMode::Sync, &[]).unwrap();
        assert_eq!((rt.cost.fastpath_hits, rt.cost.fastpath_misses), (2, 1));
        assert_eq!(call(&module, &mut rt, unbind, &id), Ok(Value::Bool(true)));
        rt.raise(last, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 3, "back to the guarded list");
        assert!(rt.remove_chain(last).is_some());
        assert_eq!(
            rt.spec().iter().map(|c| c.head).collect::<Vec<_>>(),
            [first]
        );
    }

    #[test]
    fn reserved_clock_natives() {
        let mut m = Module::new();
        m.add_event("E");
        let nc = m.add_native(Runtime::NATIVE_CLOCK);
        let na = m.add_native(Runtime::NATIVE_ADVANCE_CLOCK);
        let mut b = FunctionBuilder::new("f", 0);
        let delta = b.const_int(250);
        let _ = b.call_native(na, &[delta]);
        let now = b.call_native(nc, &[]);
        b.ret(Some(now));
        let f = m.add_function(b.finish());
        let mut rt = Runtime::new(m);
        let module = rt.module_arc();
        assert_eq!(call(&module, &mut rt, f, &[]).unwrap(), Value::Int(250));
        assert_eq!(rt.clock_ns(), 250);
    }

    #[test]
    fn handler_rebinding_mid_dispatch_uses_snapshot() {
        // h1 unbinds h2 while handling E; h2 still runs this dispatch
        // because generic dispatch snapshots the binding list.
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("acc", Value::Int(0));
        let nu = m.add_native(Runtime::NATIVE_UNBIND);

        let mut b1 = FunctionBuilder::new("h1", 0);
        let ev = b1.const_int(e.0 as i64);
        let h2id = b1.const_int(1); // function index 1 = h2
        let _ = b1.call_native(nu, &[ev, h2id]);
        b1.ret(None);
        let h1 = m.add_function(b1.finish());

        let mut b2 = FunctionBuilder::new("h2", 0);
        let v = b2.load_global(g);
        let one = b2.const_int(1);
        let out = b2.bin(BinOp::Add, v, one);
        b2.store_global(g, out);
        b2.ret(None);
        let h2 = m.add_function(b2.finish());

        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1)); // ran from snapshot
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1)); // now unbound
    }

    #[test]
    fn lock_instructions_exercise_lock_words() {
        let mut m = Module::new();
        m.add_event("E");
        let g = m.add_global("st", Value::Int(0));
        let mut b = FunctionBuilder::new("h", 0);
        b.lock(g);
        let v = b.load_global(g);
        let one = b.const_int(1);
        let out = b.bin(BinOp::Add, v, one);
        b.store_global(g, out);
        b.unlock(g);
        b.ret(None);
        let f = m.add_function(b.finish());
        let mut rt = Runtime::new(m);
        let module = rt.module_arc();
        call(&module, &mut rt, f, &[]).unwrap();
        assert_eq!(rt.cost.lock_ops, 2);
        assert_eq!(rt.global(g), &Value::Int(1));
    }

    use crate::fault::{FaultInjector, FaultKind, FaultPolicy, FaultSpec};

    fn trap_on_second(e: EventId) -> FaultInjector {
        FaultInjector::from_plan([FaultSpec {
            event: e,
            occurrence: 1,
            kind: FaultKind::TrapDispatch,
        }])
    }

    #[test]
    fn injected_trap_aborts_by_default() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.set_fault_injector(trap_on_second(e));
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        let err = rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Fault {
                kind: FaultKind::TrapDispatch,
                ..
            }
        ));
        assert_eq!(rt.global(g), &Value::Int(1)); // second occurrence had no effect
        assert_eq!(rt.stats().faults(e), 1);
    }

    #[test]
    fn skip_event_contains_injected_trap() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                fault_policy: FaultPolicy::SkipEvent,
                ..Default::default()
            },
        );
        rt.bind(e, h1, 0).unwrap();
        rt.set_fault_injector(trap_on_second(e));
        for _ in 0..3 {
            rt.raise(e, RaiseMode::Async, &[Value::Unit]).unwrap();
        }
        assert_eq!(rt.run_until_idle().unwrap(), 3);
        assert_eq!(rt.global(g), &Value::Int(11)); // occurrence 1 skipped
        assert_eq!(rt.stats().skipped_dispatches, 1);
        assert_eq!(rt.stats().injected_faults, 1);
    }

    #[test]
    fn despecialize_removes_chain_and_dispatches_generically() {
        let (m, e, g, h1, h2) = two_handler_module();
        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                fault_policy: FaultPolicy::Despecialize,
                ..Default::default()
            },
        );
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        // Broken "merged" chain: runs only h1, so its effect differs from
        // generic dispatch — we only check it is *removed* on fault.
        rt.install_chain(CompiledChain {
            head: e,
            guards: vec![Guard::capture(rt.registry(), e)],
            func: h1,
            params: 1,
        });
        rt.set_fault_injector(trap_on_second(e));
        rt.enable_profile_tally();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.cost.fastpath_hits, 1);
        assert_eq!(rt.global(g), &Value::Int(1)); // chain ran h1 only
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        // Fault fired: chain removed, occurrence dispatched generically.
        assert!(rt.spec().get(e).is_none());
        let tally = rt.profile_tally().unwrap();
        assert_eq!(tally.despecialized().collect::<Vec<_>>(), vec![(e, 1)]);
        assert_eq!(rt.global(g), &Value::Int(112)); // generic ran h1 and h2
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(11212));
        assert_eq!(rt.cost.fastpath_hits, 1); // never took the fast path again
    }

    #[test]
    fn corrupt_arg_reaches_handler_on_both_paths() {
        // Handler stores its argument into the global.
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("seen", Value::Int(0));
        let mut b = FunctionBuilder::new("h", 1);
        let p = b.param(0);
        b.store_global(g, p);
        b.ret(None);
        let h = m.add_function(b.finish());
        let mut rt = Runtime::new(m);
        rt.bind(e, h, 0).unwrap();
        rt.set_fault_injector(FaultInjector::from_plan([FaultSpec {
            event: e,
            occurrence: 0,
            kind: FaultKind::CorruptArg { index: 0 },
        }]));
        rt.raise(e, RaiseMode::Sync, &[Value::Int(7)]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(!7)); // corrupt_value on Int
        rt.raise(e, RaiseMode::Sync, &[Value::Int(7)]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(7)); // only occurrence 0 targeted
    }

    #[test]
    fn dropped_and_delayed_timed_raises() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        rt.set_fault_injector(FaultInjector::from_plan([
            FaultSpec {
                event: e,
                occurrence: 0,
                kind: FaultKind::DropTimed,
            },
            FaultSpec {
                event: e,
                occurrence: 1,
                kind: FaultKind::DelayTimed { extra_ns: 500 },
            },
        ]));
        rt.raise(e, RaiseMode::Timed, &[Value::Int(100), Value::Unit])
            .unwrap(); // dropped
        rt.raise(e, RaiseMode::Timed, &[Value::Int(100), Value::Unit])
            .unwrap(); // delayed to t=600
        assert_eq!(rt.pending(), 1);
        rt.run_until_idle().unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
        assert_eq!(rt.clock_ns(), 600);
        assert_eq!(rt.stats().dropped_timed, 1);
        assert_eq!(rt.stats().delayed_timed, 1);
    }

    #[test]
    fn nested_dispatches_do_not_consume_the_plan() {
        // E's handler raises F synchronously; a fault planned for F's
        // occurrence 0 must NOT fire on the nested dispatch, only on a
        // workload raise of F.
        let mut m = Module::new();
        let e = m.add_event("E");
        let f = m.add_event("F");
        let g = m.add_global("acc", Value::Int(0));
        let mut fb = FunctionBuilder::new("hf", 0);
        let v = fb.load_global(g);
        let one = fb.const_int(1);
        let out = fb.bin(BinOp::Add, v, one);
        fb.store_global(g, out);
        fb.ret(None);
        let hf = m.add_function(fb.finish());
        let mut eb = FunctionBuilder::new("he", 0);
        eb.raise(f, RaiseMode::Sync, &[]);
        eb.ret(None);
        let he = m.add_function(eb.finish());

        let mut rt = Runtime::new(m);
        rt.bind(e, he, 0).unwrap();
        rt.bind(f, hf, 0).unwrap();
        rt.set_fault_injector(FaultInjector::from_plan([FaultSpec {
            event: f,
            occurrence: 0,
            kind: FaultKind::TrapDispatch,
        }]));
        rt.raise(e, RaiseMode::Sync, &[]).unwrap(); // nested F unharmed
        assert_eq!(rt.global(g), &Value::Int(1));
        // The workload's raise of F is occurrence 0 and faults.
        let err = rt.raise(f, RaiseMode::Sync, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::Fault { .. }));
    }

    #[test]
    fn organic_trap_contained_and_counted() {
        // Handler always traps (calls an unbound native).
        let mut m = Module::new();
        let e = m.add_event("E");
        let n = m.add_native("boom");
        let mut b = FunctionBuilder::new("h", 0);
        let _ = b.call_native(n, &[]);
        b.ret(None);
        let h = m.add_function(b.finish());
        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                fault_policy: FaultPolicy::SkipEvent,
                ..Default::default()
            },
        );
        rt.bind(e, h, 0).unwrap();
        rt.raise(e, RaiseMode::Async, &[]).unwrap();
        rt.raise(e, RaiseMode::Async, &[]).unwrap();
        assert_eq!(rt.run_until_idle().unwrap(), 2);
        assert_eq!(rt.stats().handler_traps, 2);
        assert_eq!(rt.stats().skipped_dispatches, 2);
        assert_eq!(rt.stats().injected_faults, 0);
    }

    #[test]
    fn fault_records_appear_in_trace() {
        let (m, e, _, h1, _) = two_handler_module();
        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                fault_policy: FaultPolicy::SkipEvent,
                ..Default::default()
            },
        );
        rt.bind(e, h1, 0).unwrap();
        rt.set_trace_config(TraceConfig::events_only());
        rt.set_fault_injector(FaultInjector::from_plan([FaultSpec {
            event: e,
            occurrence: 0,
            kind: FaultKind::TrapDispatch,
        }]));
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        let t = rt.take_trace();
        assert_eq!(t.fault_sequence(), vec![(e, FaultKind::TrapDispatch)]);
    }

    /// Module with three handlers on one event, each computing `g = g*10+k`.
    fn three_handler_module() -> (Module, EventId, GlobalId, [FuncId; 3]) {
        let mut m = Module::new();
        let e = m.add_event("E");
        let g = m.add_global("acc", Value::Int(0));
        let mut hs = [FuncId(0); 3];
        for (i, h) in hs.iter_mut().enumerate() {
            let mut b = FunctionBuilder::new(format!("h{}", i + 1), 0);
            let v = b.load_global(g);
            let ten = b.const_int(10);
            let k = b.const_int(i as i64 + 1);
            let scaled = b.bin(BinOp::Mul, v, ten);
            let out = b.bin(BinOp::Add, scaled, k);
            b.store_global(g, out);
            b.ret(None);
            *h = m.add_function(b.finish());
        }
        (m, e, g, hs)
    }

    #[test]
    fn exhaust_fuel_meters_handler_boundaries() {
        // Budget is EXHAUST_FUEL_BUDGET = 2 boundary units: the first two
        // handlers run, the third trips at its pre-call boundary and the
        // occurrence is contained. The next occurrence runs all three.
        let (m, e, g, [h1, h2, h3]) = three_handler_module();
        let mut rt = Runtime::with_config(
            m,
            RuntimeConfig {
                fault_policy: FaultPolicy::SkipEvent,
                ..Default::default()
            },
        );
        rt.bind(e, h1, 0).unwrap();
        rt.bind(e, h2, 1).unwrap();
        rt.bind(e, h3, 2).unwrap();
        rt.set_fault_injector(FaultInjector::from_plan([FaultSpec {
            event: e,
            occurrence: 0,
            kind: FaultKind::ExhaustFuel,
        }]));
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(12)); // h1, h2 ran; h3 tripped
        assert_eq!(rt.stats().skipped_dispatches, 1);
        assert_eq!(rt.stats().injected_faults, 1); // noted at injection time
        assert_eq!(rt.stats().handler_traps, 0); // injected OutOfFuel suppressed
                                                 // Budget restored: occurrence 1 runs all three handlers.
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(12123));
    }

    #[test]
    fn epoch_hook_fires_between_dispatches_in_run_until() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (m, e, _, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        rt.bind(e, h1, 0).unwrap();
        let boundaries: Rc<RefCell<Vec<u64>>> = Rc::default();
        let seen = Rc::clone(&boundaries);
        rt.set_epoch_hook(1_000, move |_rt, at| seen.borrow_mut().push(at));
        for delay in [500i64, 1_500, 2_500] {
            rt.raise(e, RaiseMode::Timed, &[Value::Int(delay), Value::Unit])
                .unwrap();
        }
        rt.run_until_idle().unwrap();
        assert_eq!(*boundaries.borrow(), vec![1_000, 2_000]);
    }

    #[test]
    fn epoch_hook_fires_on_advance_clock() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (m, _, _, _, _) = two_handler_module();
        let mut rt = Runtime::new(m);
        let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
        let seen = Rc::clone(&fired);
        rt.set_epoch_hook(1_000, move |_rt, at| seen.borrow_mut().push(at));
        rt.advance_clock(2_500); // crosses 1000 and 2000; one poll, re-arms past now
        assert_eq!(*fired.borrow(), vec![1_000]);
        rt.advance_clock(1_000); // now 3500, crosses the re-armed 3000 boundary
        assert_eq!(*fired.borrow(), vec![1_000, 3_000]);
    }

    #[test]
    fn edit_module_keeps_state_and_extends_globals() {
        let (m, e, g, h1, _) = two_handler_module();
        let mut rt = Runtime::new(m.clone());
        rt.bind(e, h1, 0).unwrap();
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(1));
        // Extend the module in place, as the optimizer does.
        let g2 = rt.edit_module(|m, _| m.add_global("extra", Value::Int(99)));
        assert_eq!(rt.global(g), &Value::Int(1)); // existing state preserved
        assert_eq!(rt.global(g2), &Value::Int(99)); // new global initialized
        rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
        assert_eq!(rt.global(g), &Value::Int(11)); // bindings still live
    }

    #[test]
    fn config_codec_survives_the_hostile_sweep() {
        pdo_snap::hostile::check(&RuntimeConfig::default());
        pdo_snap::hostile::check(&RuntimeConfig {
            max_sync_depth: 3,
            max_steps: 99,
            fuel: Some(1_000),
            fault_policy: FaultPolicy::Despecialize,
        });
    }
}
