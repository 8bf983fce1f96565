//! The chaos-conformance oracle (DESIGN.md §11): substrate-independent
//! machinery for checking that an optimized session is observationally
//! identical to the original under equivalence-safe dispatch faults and a
//! faulty wire.
//!
//! Every free choice of a case — wire fault rates, the fault plan,
//! payloads, op streams, crash points — is drawn from one [`Schedule`]:
//! [`Seeded`] samples `CHAOS_CASES` of them from `CHAOS_SEED` on, and
//! [`Exhaustive`] enumerates every choice sequence up to a depth. [`sweep`]
//! is the one loop over them: derive the case, then under each containment
//! policy run the reference session and every optimized form — static
//! chains, a live adaptation engine, a restored session — snapshot each
//! with [`observe`] (or [`observe_external`] across a crash and restore),
//! and compare. A failing case prints the schedule that replays it: for a
//! seeded one, `CHAOS_SEED=<seed> CHAOS_CASES=1`.

#![allow(dead_code)] // each chaos binary uses a subset of the oracle

use pdo::{optimize, AdaptConfig, AdaptiveEngine, EngineSnapshot, Optimization, OptimizeOptions};
use pdo_events::wire::WireFaults;
use pdo_events::{
    splitmix64_next, FaultInjector, FaultKind, FaultPolicy, FaultSpec, Runtime, RuntimeStats,
    Scheduler, TraceConfig,
};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, RaiseMode, Value};
use pdo_obs::trace::{critical_path, export_lines, render_path};
use pdo_obs::SpanKind;
use pdo_profile::Profile;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Non-dispatch spans appended to a conformance failure (per run).
const SPAN_TAIL: usize = 64;

/// Seeded cases per sampled sweep (`CHAOS_CASES`, default 256).
pub fn chaos_cases() -> u64 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Base seed of a sampled sweep (`CHAOS_SEED`). Case `i` draws from seed
/// `base + i`, so the seed printed by a failure replays that one case via
/// `CHAOS_SEED=<printed seed> CHAOS_CASES=1`.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0BAD_C0DE)
}

/// The one source of a chaos case's choices, stepped by a sweep from one
/// schedule to the next. It prints as what identifies the current one.
pub trait Schedule: fmt::Display {
    /// The current schedule's next choice, in `0..n` (`n == 0` yields 0).
    fn choose(&mut self, n: u64) -> u64;

    /// Steps to the sweep's next schedule; `false` once all of them ran.
    fn next_schedule(&mut self) -> bool;
}

/// Sampled schedules: each is the splitmix64 stream of one seed.
#[derive(Debug, Clone)]
pub struct Seeded {
    seed: u64,
    state: u64,
    left: u64,
}

impl Seeded {
    /// The one schedule seeded with `seed` (a sweep has nothing after it).
    pub fn new(seed: u64) -> Seeded {
        Seeded {
            seed,
            state: seed,
            left: 0,
        }
    }

    /// The sampled sweep: `CHAOS_CASES` schedules, seeded `CHAOS_SEED`,
    /// `CHAOS_SEED + 1`, …
    pub fn sweep() -> Seeded {
        Seeded {
            left: chaos_cases(),
            ..Seeded::new(chaos_seed().wrapping_sub(1))
        }
    }
}

impl Schedule for Seeded {
    fn choose(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            splitmix64_next(&mut self.state) % n
        }
    }

    fn next_schedule(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        *self = Seeded {
            left: self.left,
            ..Seeded::new(self.seed.wrapping_add(1))
        };
        true
    }
}

impl fmt::Display for Seeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CHAOS_SEED={} CHAOS_CASES=1", self.seed)
    }
}

/// Every choice sequence of at most `depth` choices, depth-first. A run
/// replays the current sequence and takes choice 0 wherever it goes past
/// it; the next schedule bumps the deepest choice that has a sibling left.
/// Past `depth` choices every choice is 0. The enumeration is finite only
/// if what draws from it asks for finitely many choices of each size.
#[derive(Debug, Clone)]
pub struct Exhaustive {
    depth: usize,
    /// The current sequence: each choice taken, and out of how many.
    choices: Vec<(u64, u64)>,
    /// Choices the current run has drawn.
    drawn: usize,
    started: bool,
}

impl Exhaustive {
    /// The enumeration of every sequence of at most `depth` choices.
    pub fn new(depth: usize) -> Exhaustive {
        Exhaustive {
            depth,
            choices: Vec::new(),
            drawn: 0,
            started: false,
        }
    }
}

impl Schedule for Exhaustive {
    fn choose(&mut self, n: u64) -> u64 {
        if n == 0 || self.drawn == self.depth {
            return 0;
        }
        if self.drawn == self.choices.len() {
            self.choices.push((0, n));
        }
        let (choice, of) = self.choices[self.drawn];
        assert_eq!(of, n, "a schedule's choices depend only on earlier ones");
        self.drawn += 1;
        choice
    }

    fn next_schedule(&mut self) -> bool {
        if !std::mem::replace(&mut self.started, true) {
            return true;
        }
        self.choices.truncate(self.drawn);
        self.drawn = 0;
        while let Some((choice, of)) = self.choices.pop() {
            if choice + 1 < of {
                self.choices.push((choice + 1, of));
                return true;
            }
        }
        false
    }
}

impl fmt::Display for Exhaustive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let choices: Vec<u64> = self.choices.iter().map(|&(choice, _)| choice).collect();
        write!(f, "choices {choices:?}")
    }
}

/// A byte string of a length in `lens`, every byte drawn from `s`.
pub fn bytes(s: &mut impl Schedule, lens: Range<u64>) -> Vec<u8> {
    let len = lens.start + s.choose(lens.end - lens.start);
    (0..len).map(|_| s.choose(256) as u8).collect()
}

/// The wire and dispatch faults of a chaos case.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Wire-level faults (drop/duplicate/reorder/corrupt).
    pub wire: WireFaults,
    /// Dispatch-level fault plan, shared verbatim by every run of the case.
    pub plan: Vec<FaultSpec>,
}

impl ChaosCase {
    /// Draws a case from `s`: moderate wire-fault rates and up to
    /// `max_faults` dispatch faults over `events`, each keyed on an
    /// occurrence (raised by the workload or popped) below `max_occurrence`.
    pub fn derive(
        s: &mut impl Schedule,
        events: &[EventId],
        max_faults: u64,
        max_occurrence: u64,
    ) -> ChaosCase {
        let wire = WireFaults {
            drop_per_mille: s.choose(250) as u16,
            dup_per_mille: s.choose(250) as u16,
            reorder_per_mille: s.choose(300) as u16,
            corrupt_per_mille: s.choose(250) as u16,
            seed: s.choose(u64::MAX),
        };
        let n = s.choose(max_faults + 1);
        let plan = (0..n)
            .map(|_| {
                let event = events[s.choose(events.len() as u64) as usize];
                let occurrence = s.choose(max_occurrence);
                let kind = match s.choose(5) {
                    0 => FaultKind::TrapDispatch,
                    1 => FaultKind::CorruptArg {
                        index: s.choose(3) as u16,
                    },
                    2 => FaultKind::DropTimed,
                    3 => FaultKind::DelayTimed {
                        extra_ns: 1 + s.choose(5_000),
                    },
                    _ => FaultKind::ExhaustFuel,
                };
                FaultSpec {
                    event,
                    occurrence,
                    kind,
                }
            })
            .collect();
        ChaosCase { wire, plan }
    }
}

/// Everything the conformance claim covers: final base-module global
/// state, the recorded fault sequence, the observable robustness
/// counters, and the substrate's own externally visible state (delivered
/// payloads, display state, link statistics, captured errors…).
///
/// The `recent` field is diagnostic only — the run's latest guard misses,
/// faults and adaptation decisions as a span line dump, carried alongside
/// the snapshot so a divergence report can show *what each run was
/// doing* — and is deliberately excluded from the equality the oracle
/// asserts (the two runs legitimately differ in fast/slow path mix).
#[derive(Debug, Clone)]
pub struct Observed<S> {
    /// Final values of the base module's globals (optimized modules only
    /// append, so indices below the base count line up).
    pub globals: Vec<Value>,
    /// Injected and organic faults in dispatch order.
    pub faults: Vec<(EventId, FaultKind)>,
    /// Observable robustness counters.
    pub counters: RuntimeStats,
    /// Substrate-specific external state.
    pub substrate: S,
    /// Line dump of the last [`SPAN_TAIL`] spans that are not raises or
    /// dispatches (diagnostic, not compared).
    pub recent: String,
    /// Rendered critical path of the run's most recent causal trace
    /// (diagnostic, not compared — like `recent`): on divergence it
    /// shows the happens-before chain and latency attribution of the
    /// last thing each run did.
    pub trace_path: String,
}

impl<S: PartialEq> PartialEq for Observed<S> {
    fn eq(&self, other: &Self) -> bool {
        self.globals == other.globals
            && self.faults == other.faults
            && self.counters == other.counters
            && self.substrate == other.substrate
    }
}

fn snapshot_globals(rt: &Runtime, base_globals: usize) -> Vec<Value> {
    (0..base_globals)
        .map(|i| rt.global(GlobalId::from_index(i)).clone())
        .collect()
}

/// Arms a causal trace store and the dispatch-latency histograms on a
/// freshly built session, so both observation paths run under chaos and
/// divergence reports carry the run's recent guard misses, faults and
/// adaptation decisions plus the divergent trace's critical path.
fn arm_tracing_and_histograms(rt: &mut Runtime) {
    rt.enable_tracing();
    rt.enable_observability();
}

/// The last [`SPAN_TAIL`] retained spans that are not raises or
/// dispatches, as a line dump.
fn recent_spans(rt: &Runtime) -> String {
    let Some(store) = rt.tracer() else {
        return String::from("(causal tracing not armed)\n");
    };
    let mut rare: Vec<_> = store
        .spans()
        .into_iter()
        .filter(|s| !matches!(s.kind, SpanKind::Raise { .. } | SpanKind::Dispatch { .. }))
        .collect();
    rare.drain(..rare.len().saturating_sub(SPAN_TAIL));
    export_lines(&rare)
}

/// Renders the critical path of the most recent trace the runtime's
/// span ring retains — root-first with the attribution footer.
fn trace_path_tail(rt: &Runtime) -> String {
    let Some(store) = rt.tracer() else {
        return String::from("(causal tracing not armed)\n");
    };
    let spans = store.spans();
    let Some(latest) = spans.last().map(|s| s.trace) else {
        return String::from("(no spans retained)\n");
    };
    render_path(&critical_path(&spans, latest))
}

/// Full snapshot of a session that ran with `TraceConfig::full()`, with
/// static chains or a live adaptation engine.
pub fn observe<S>(rt: &mut Runtime, base_globals: usize, substrate: S) -> Observed<S> {
    Observed {
        globals: snapshot_globals(rt, base_globals),
        faults: rt.take_trace().fault_sequence(),
        counters: rt.stats().clone(),
        recent: recent_spans(rt),
        trace_path: trace_path_tail(rt),
        substrate,
    }
}

/// External-only snapshot for a session that crashed and was restored:
/// the runtime's counters and its recorded trace die with the process and
/// are not in an image, so only externally visible outputs (globals and
/// substrate state) are comparable with a session that never crashed.
pub fn observe_external<S>(rt: &Runtime, base_globals: usize, substrate: S) -> Observed<S> {
    Observed {
        globals: snapshot_globals(rt, base_globals),
        faults: Vec::new(),
        counters: RuntimeStats::default(),
        recent: recent_spans(rt),
        trace_path: trace_path_tail(rt),
        substrate,
    }
}

/// Identifies one conformance check for the failure report.
pub struct CaseContext<'a> {
    /// Substrate name, matching the test binary (`chaos_<substrate>`).
    substrate: &'a str,
    /// Chain form under test: `"monolithic"`, `"per-event"`,
    /// `"adaptive"`, …
    chain_form: &'a str,
    /// Containment policy both sessions ran under.
    policy: FaultPolicy,
    /// The derived case (wire faults, fault plan, workload).
    case: &'a dyn fmt::Debug,
}

/// Asserts the optimized session observed exactly what the reference
/// session observed; on divergence, panics with the whole case and both
/// snapshots (the sweep adds the schedule that replays it).
fn assert_equivalent<S: PartialEq + fmt::Debug>(
    ctx: &CaseContext<'_>,
    reference: &Observed<S>,
    optimized: &Observed<S>,
) {
    if reference == optimized {
        return;
    }
    let diverged = if reference.globals != optimized.globals {
        "globals"
    } else if reference.substrate != optimized.substrate {
        "substrate state"
    } else if reference.faults != optimized.faults {
        "fault sequence"
    } else {
        "robustness counters"
    };
    panic!(
        "chaos conformance violated: {} diverged on {} ({}, {:?})\n\
         reference critical path (latest trace):\n{rp}\
         optimized critical path (latest trace):\n{op}\
         case: {:?}\n\
         reference: {:#?}\n\
         optimized: {:#?}\n\
         reference recent spans (last {n} non-dispatch):\n{rr}\
         optimized recent spans (last {n} non-dispatch):\n{or}",
        diverged,
        ctx.substrate,
        ctx.chain_form,
        ctx.policy,
        ctx.case,
        reference,
        optimized,
        n = SPAN_TAIL,
        rr = reference.recent,
        or = optimized.recent,
        rp = reference.trace_path,
        op = optimized.trace_path,
    );
}

/// What one run of a case yields: one session's snapshot, or a pair's.
pub trait Observation {
    /// Asserts `observed` is what `reference` is, session by session.
    fn check(ctx: &CaseContext<'_>, reference: &Self, observed: &Self);
}

impl<S: PartialEq + fmt::Debug> Observation for Observed<S> {
    fn check(ctx: &CaseContext<'_>, reference: &Self, observed: &Self) {
        assert_equivalent(ctx, reference, observed);
    }
}

impl<A: Observation, B: Observation> Observation for (A, B) {
    fn check(ctx: &CaseContext<'_>, reference: &Self, observed: &Self) {
        A::check(ctx, &reference.0, &observed.0);
        B::check(ctx, &reference.1, &observed.1);
    }
}

/// Both containment policies the suites sweep.
const POLICIES: [FaultPolicy; 2] = [FaultPolicy::SkipEvent, FaultPolicy::Despecialize];

/// A live adaptation engine attached to a session.
pub type Engine = Rc<RefCell<AdaptiveEngine>>;

/// What a run optimizes its session with.
#[derive(Debug, Clone, Copy)]
pub enum Chains<'a> {
    /// Nothing: every dispatch is generic. The reference.
    Generic,
    /// One optimization's module and static chains.
    Static(&'a Optimization),
    /// A live adaptation engine.
    Adaptive(AdaptConfig),
}

/// Arms a freshly built session for a chaos run: tracing and latency
/// histograms, containment `policy`, the dispatch-fault `plan`, the full
/// recorded trace, and `chains`. Returns the engine, if `chains` attaches
/// one.
pub fn prepare(
    rt: &mut Runtime,
    chains: Chains<'_>,
    policy: FaultPolicy,
    plan: impl IntoIterator<Item = FaultSpec>,
) -> Option<Engine> {
    arm_tracing_and_histograms(rt);
    rt.set_fault_policy(policy);
    rt.set_fault_injector(FaultInjector::from_plan(plan));
    rt.set_trace_config(TraceConfig::full());
    match chains {
        Chains::Generic => None,
        Chains::Static(opt) => {
            rt.replace_module(opt.module.clone());
            opt.install_chains(rt);
            None
        }
        Chains::Adaptive(config) => Some(AdaptiveEngine::attach_new(rt, config)),
    }
}

/// Optimizes `module` for the profile of the trace `rt` recorded, with
/// fuel-boundary markers so that fuel exhaustion trips at the same program
/// points in merged code as in generic dispatch.
pub fn optimized(module: &Module, rt: &mut Runtime, opts: OptimizeOptions) -> Optimization {
    let opts = OptimizeOptions {
        fuel_boundaries: true,
        ..opts
    };
    let profile = Profile::from_trace(&rt.take_trace(), opts.threshold);
    let opt = optimize(module, rt.registry(), &profile, &opts);
    assert!(!opt.chains.is_empty(), "the workload must compile chains");
    opt
}

/// An engine configuration for chaos runs: epochs of `epoch_ns`, replans
/// after `min_fresh_events`, chains for events raised `threshold` times,
/// fuel-boundary markers on.
pub fn adapt_config(epoch_ns: u64, min_fresh_events: u64, threshold: u64) -> AdaptConfig {
    let mut opts = OptimizeOptions::new(threshold);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns,
        min_fresh_events,
        opts,
        ..AdaptConfig::default()
    }
}

/// Prints the schedule that replays a sweep's case if one of its runs
/// panics, whether by a divergence or inside the run.
struct Replay<'a> {
    substrate: &'a str,
    schedule: &'a dyn fmt::Display,
    policy: FaultPolicy,
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "chaos case failed under {:?}; replay: {} cargo test --test chaos_{}",
                self.policy, self.schedule, self.substrate
            );
        }
    }
}

/// The one chaos loop. For every schedule `schedules` steps through:
/// derive the case from it, then under each of [`POLICIES`] `run` it in
/// the `reference` form and in every named form, and assert each observed
/// what the reference did. Returns how many schedules it explored.
pub fn sweep<S: Schedule, C: fmt::Debug, F, O: Observation>(
    substrate: &str,
    mut schedules: S,
    derive: impl Fn(&mut S) -> C,
    run: impl Fn(&F, &C, FaultPolicy) -> O,
    reference: F,
    forms: &[(&str, F)],
) -> u64 {
    let mut explored = 0;
    while schedules.next_schedule() {
        let case = derive(&mut schedules);
        for policy in POLICIES {
            let _replay = Replay {
                substrate,
                schedule: &schedules,
                policy,
            };
            let expected = run(&reference, &case, policy);
            for (chain_form, form) in forms {
                let ctx = CaseContext {
                    substrate,
                    chain_form,
                    policy,
                    case: &case,
                };
                O::check(&ctx, &expected, &run(form, &case, policy));
            }
        }
        explored += 1;
    }
    explored
}

// --- synthetic programs ---------------------------------------------------

/// Synchronous raises of a pipeline's head per session; every fifth brings
/// an async one along.
pub const RAISES: i64 = 24;

/// A synthetic pipeline: a module whose handlers emit packets through the
/// native `emit`, their bindings, and the head event the workload raises.
pub struct Pipeline {
    pub module: Module,
    pub head: EventId,
    pub bindings: Vec<(EventId, FuncId, i32)>,
}

impl Pipeline {
    /// Every event of the module.
    pub fn events(&self) -> Vec<EventId> {
        (0..self.module.events.len())
            .map(EventId::from_index)
            .collect()
    }

    /// A session of `module` (the pipeline's, or a rewrite of it) with the
    /// pipeline's bindings, `emit` appending to `emitted`, armed by
    /// [`prepare`].
    pub fn session(
        &self,
        module: &Module,
        chains: Chains<'_>,
        policy: FaultPolicy,
        plan: &[FaultSpec],
        emitted: &Rc<RefCell<Vec<Value>>>,
    ) -> Runtime {
        let mut rt = Runtime::new(module.clone());
        for &(e, h, order) in &self.bindings {
            rt.bind(e, h, order).expect("bind");
        }
        let sink = Rc::clone(emitted);
        rt.bind_native_by_name("emit", move |args| {
            sink.borrow_mut().push(args[0].clone());
            Ok(Value::Unit)
        })
        .expect("bind emit");
        prepare(&mut rt, chains, policy, plan.iter().copied());
        rt
    }

    /// [`RAISES`] synchronous raises of the head with arguments 0, 1, …,
    /// every fifth followed by an async one, then a drain.
    fn workload(&self, rt: &mut Runtime) {
        for i in 0..RAISES {
            rt.raise(self.head, RaiseMode::Sync, &[Value::Int(i)])
                .expect("containment policy must not abort a sync raise");
            if i % 5 == 0 {
                rt.raise(self.head, RaiseMode::Async, &[Value::Int(100 + i)])
                    .expect("async raise");
            }
        }
        rt.run_until_idle()
            .expect("containment policy must not abort the drain");
    }

    /// Runs the workload on `module` with `chains` under `policy` and
    /// `plan`, and snapshots it (`substrate` = the emitted packets).
    pub fn run(
        &self,
        module: &Module,
        chains: Chains<'_>,
        policy: FaultPolicy,
        plan: &[FaultSpec],
    ) -> (Observed<Vec<Value>>, Runtime) {
        let emitted = Rc::default();
        let mut rt = self.session(module, chains, policy, plan, &emitted);
        self.workload(&mut rt);
        let n_globals = self.module.globals.len();
        (observe(&mut rt, n_globals, emitted.take()), rt)
    }

    /// Profiles the unfaulted workload and optimizes for it with `opts`.
    pub fn optimized(&self, opts: OptimizeOptions) -> Optimization {
        let generic = Chains::Generic;
        let mut rt = self.session(
            &self.module,
            generic,
            FaultPolicy::Abort,
            &[],
            &Rc::default(),
        );
        self.workload(&mut rt);
        optimized(&self.module, &mut rt, opts)
    }
}

/// Two independent events, `A` and `B`, with two handlers each: handler
/// `k` adds `k` to its event's accumulator. Returns the module, the
/// events and their bindings.
pub fn two_chain_module() -> (Module, [EventId; 2], Vec<(EventId, FuncId, i32)>) {
    let mut m = Module::new();
    let events = [m.add_event("A"), m.add_event("B")];
    let mut bindings = Vec::new();
    for (event, name) in events.into_iter().zip(["a", "b"]) {
        let g = m.add_global(format!("acc_{name}"), Value::Int(0));
        for d in 1..=2 {
            let mut fb = FunctionBuilder::new(format!("{name}{d}"), 0);
            let v = fb.load_global(g);
            let dd = fb.const_int(d);
            let o = fb.bin(BinOp::Add, v, dd);
            fb.store_global(g, o);
            fb.ret(None);
            bindings.push((event, m.add_function(fb.finish()), d as i32 - 1));
        }
    }
    (m, events, bindings)
}

// --- kill-restore machinery (crash-restart equivalence) ------------------

/// Complete captured state of a session — what survives a crash. With an
/// adaptation engine it is meaningful at an epoch boundary, where the
/// profile tally has just been drained into the engine's profile, so the
/// capture is exact. Substrate link/wire state travels separately (it
/// lives in the endpoint, not the runtime).
pub struct SessionCapture {
    pub globals: Vec<Value>,
    pub clock_ns: u64,
    pub sched: Scheduler,
    pub injector: Option<FaultInjector>,
    pub engine: Option<EngineSnapshot>,
}

/// Captures a session: every global, the virtual clock, the scheduler's
/// queue and timer heap, the remaining dispatch-fault plan (with fired
/// occurrence counts, so restored sessions don't re-fire spent faults),
/// and the adaptation daemon's snapshot if it has one.
pub fn capture_session(rt: &Runtime, n_globals: usize, engine: Option<&Engine>) -> SessionCapture {
    SessionCapture {
        globals: snapshot_globals(rt, n_globals),
        clock_ns: rt.clock_ns(),
        sched: rt.export_sched(),
        injector: rt.fault_injector().cloned(),
        engine: engine.map(|e| e.borrow().snapshot()),
    }
}

/// Rebuilds a freshly constructed session runtime from `cap`, mirroring
/// the server's restore path: globals, scheduler, fault plan, policy,
/// clock (before the epoch hook exists, so the catch-up doesn't fire a
/// burst of stale epochs), then the adaptation daemon from its snapshot
/// with `config` — the session resumes specialization instead of
/// cold-starting.
pub fn restore_session(
    rt: &mut Runtime,
    policy: FaultPolicy,
    cap: SessionCapture,
    config: Option<AdaptConfig>,
) -> Option<Engine> {
    arm_tracing_and_histograms(rt);
    for (i, value) in cap.globals.into_iter().enumerate() {
        rt.set_global(GlobalId::from_index(i), value);
    }
    rt.restore_sched(cap.sched);
    if let Some(injector) = cap.injector {
        rt.set_fault_injector(injector);
    }
    rt.set_fault_policy(policy);
    if cap.clock_ns > 0 {
        rt.advance_clock(cap.clock_ns);
    }
    let (snapshot, config) = cap.engine.zip(config)?;
    let base = rt.module_arc();
    Some(AdaptiveEngine::attach_restored(rt, base, config, snapshot))
}

// --- the real substrates' case pieces --------------------------------------

/// CTP: the fault pool, the payloads a case sends, what a session shows.
pub mod ctp {
    use super::{bytes, Schedule};
    use pdo_cactus::EventProgram;
    use pdo_ctp::{CtpEndpoint, CtpError, CtpStats};
    use pdo_ir::EventId;

    /// Externally visible CTP state: what the receiver model reassembled,
    /// the link statistics, and any surfaced session error (e.g.
    /// PeerUnreachable).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Obs {
        delivered: Vec<u8>,
        stats: CtpStats,
        error: Option<String>,
    }

    impl Obs {
        /// What `e` shows after a session that ended with `outcome`.
        pub fn of(e: &CtpEndpoint, outcome: Result<(), CtpError>) -> Obs {
            Obs {
                delivered: e.received_payload(),
                stats: e.stats(),
                error: outcome.err().map(|err| format!("{err:?}")),
            }
        }
    }

    /// The events the fault plans key on: the chain heads the workload and
    /// the timers drive, with their subsumable children.
    pub fn fault_events(program: &EventProgram) -> Vec<EventId> {
        [
            "SendMsg",
            "MsgFrmUserL",
            "MsgFrmUserH",
            "SegFromUser",
            "Seg2Net",
            "SegmentAcked",
            "SegmentTimeout",
            "ControllerClkL",
            "ControllerClkH",
            "ControllerFiring",
            "Controller",
            "ControllerFired",
            "Adapt",
        ]
        .iter()
        .map(|name| program.module.event_by_name(name).expect("CTP event"))
        .collect()
    }

    /// `n` application payloads of 1–300 bytes.
    pub fn payloads(s: &mut impl Schedule, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| bytes(s, 1..301)).collect()
    }
}

/// SecComm: the fault pool, the messages a case pushes, what the channel
/// shows.
pub mod seccomm {
    use super::{bytes, Schedule};
    use pdo_cactus::EventProgram;
    use pdo_events::wire::WireStats;
    use pdo_ir::EventId;
    use pdo_seccomm::LossyChannel;

    /// Externally visible channel state after a session.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Obs {
        delivered: Vec<Vec<u8>>,
        mac_dropped: u64,
        mac_failures: u64,
        wire: WireStats,
        errors: Vec<String>,
    }

    impl Obs {
        /// What `ch` shows after a session that surfaced `errors`.
        pub fn of(ch: &LossyChannel, errors: Vec<String>) -> Obs {
            Obs {
                delivered: ch.delivered().to_vec(),
                mac_dropped: ch.mac_dropped(),
                mac_failures: ch.rx().mac_failures(),
                wire: ch.wire_stats(),
                errors,
            }
        }
    }

    /// The events each side's fault plan keys on: the sender's
    /// `msgFromUser` chain, then the receiver's `msgFromNet` chain, each
    /// head with its subsumable children.
    pub fn fault_events(program: &EventProgram) -> [Vec<EventId>; 2] {
        [
            ["msgFromUser", "EncodeMsg", "msgToNet"],
            ["msgFromNet", "DecodeMsg", "msgToUser"],
        ]
        .map(|side| {
            side.iter()
                .map(|name| program.module.event_by_name(name).expect("SecComm event"))
                .collect()
        })
    }

    /// `n` messages of 0–239 bytes.
    pub fn payloads(s: &mut impl Schedule, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| bytes(s, 0..240)).collect()
    }
}
