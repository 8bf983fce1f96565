//! The chaos-conformance oracle (DESIGN.md §11): substrate-independent
//! machinery for checking that an optimized session is observationally
//! identical to the original under a seeded plan of equivalence-safe
//! dispatch faults and a seeded faulty wire.
//!
//! Each chaos suite derives a [`ChaosCase`] per iteration, runs the same
//! deterministic workload on a reference (unoptimized) session and an
//! optimized one — static chains or a live adaptation engine — snapshots
//! both with [`observe`] (or [`observe_external`] across a crash and
//! restore), and compares them with [`assert_equivalent`] —
//! whose failure message carries everything needed to replay the exact
//! case: `CHAOS_SEED=<seed> CHAOS_CASES=1`.

#![allow(dead_code)] // each chaos binary uses a subset of the oracle

use pdo_events::wire::WireFaults;
use pdo_events::{FaultKind, FaultPolicy, FaultSpec, Runtime, RuntimeStats};
use pdo_ir::{EventId, GlobalId, Value};
use pdo_obs::trace::{critical_path, export_lines, render_path};
use pdo_obs::SpanKind;
use std::fmt;

/// Non-dispatch spans appended to a conformance failure (per run).
const SPAN_TAIL: usize = 64;

/// Seeded cases per substrate configuration (`CHAOS_CASES`, default 256).
pub fn chaos_cases() -> u64 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Base seed of the sweep (`CHAOS_SEED`). Case `i` is derived from seed
/// `base + i`, so the seed printed by a failure replays that one case via
/// `CHAOS_SEED=<printed seed> CHAOS_CASES=1`.
pub fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0BAD_C0DE)
}

/// splitmix64 — the repo's standard deterministic test RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n == 0` yields 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// One derived chaos case: a seeded faulty wire plus a plan of
/// equivalence-safe dispatch faults keyed on top-level occurrences.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// The case's own seed (base seed + case index).
    pub seed: u64,
    /// Wire-level faults (drop/duplicate/reorder/corrupt).
    pub wire: WireFaults,
    /// Dispatch-level fault plan, shared verbatim by both runs.
    pub plan: Vec<FaultSpec>,
}

impl ChaosCase {
    /// Derives the case for `seed`: moderate wire-fault rates and up to
    /// `max_faults` dispatch faults drawn over `events`, each keyed on a
    /// top-level occurrence below `max_occurrence`.
    pub fn derive(
        seed: u64,
        events: &[EventId],
        max_faults: u64,
        max_occurrence: u64,
    ) -> ChaosCase {
        let mut rng = SplitMix::new(seed);
        let wire = WireFaults {
            drop_per_mille: rng.below(250) as u16,
            dup_per_mille: rng.below(250) as u16,
            reorder_per_mille: rng.below(300) as u16,
            corrupt_per_mille: rng.below(250) as u16,
            seed: rng.next(),
        };
        let n = rng.below(max_faults + 1);
        let plan = (0..n)
            .map(|_| {
                let event = events[rng.below(events.len() as u64) as usize];
                let occurrence = rng.below(max_occurrence);
                let kind = match rng.below(5) {
                    0 => FaultKind::TrapDispatch,
                    1 => FaultKind::CorruptArg {
                        index: rng.below(3) as u16,
                    },
                    2 => FaultKind::DropTimed,
                    3 => FaultKind::DelayTimed {
                        extra_ns: 1 + rng.below(5_000),
                    },
                    _ => FaultKind::ExhaustFuel,
                };
                assert!(
                    kind.is_equivalence_safe_with_fuel_boundaries(),
                    "the chaos pool must only contain equivalence-safe kinds"
                );
                FaultSpec {
                    event,
                    occurrence,
                    kind,
                }
            })
            .collect();
        ChaosCase { seed, wire, plan }
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
pub fn arm_tracing_and_histograms(rt: &mut Runtime) {
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
#[derive(Debug)]
pub struct CaseContext<'a> {
    /// Substrate name, matching the test binary (`chaos_<substrate>`).
    pub substrate: &'a str,
    /// Chain form under test: `"monolithic"`, `"per-event"`,
    /// `"adaptive"`, …
    pub chain_form: &'a str,
    /// Containment policy both sessions ran under.
    pub policy: FaultPolicy,
    /// The derived case (seed, wire faults, fault plan).
    pub case: &'a ChaosCase,
}

/// Asserts the optimized session observed exactly what the reference
/// session observed; on divergence, panics with the replaying seed, the
/// full fault plan, and both snapshots.
pub fn assert_equivalent<S: PartialEq + fmt::Debug>(
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
         replay: CHAOS_SEED={} CHAOS_CASES=1 cargo test --test chaos_{}\n\
         reference critical path (latest trace):\n{rp}\
         optimized critical path (latest trace):\n{op}\
         wire faults: {:?}\n\
         fault plan: {:?}\n\
         reference: {:#?}\n\
         optimized: {:#?}\n\
         reference recent spans (last {n} non-dispatch):\n{rr}\
         optimized recent spans (last {n} non-dispatch):\n{or}",
        diverged,
        ctx.substrate,
        ctx.chain_form,
        ctx.policy,
        ctx.case.seed,
        ctx.substrate,
        ctx.case.wire,
        ctx.case.plan,
        reference,
        optimized,
        n = SPAN_TAIL,
        rr = reference.recent,
        or = optimized.recent,
        rp = reference.trace_path,
        op = optimized.trace_path,
    );
}

/// Both containment policies the suites sweep.
pub const POLICIES: [FaultPolicy; 2] = [FaultPolicy::SkipEvent, FaultPolicy::Despecialize];

// --- kill-restore machinery (crash-restart equivalence) ------------------

use pdo::{AdaptConfig, AdaptiveEngine, EngineSnapshot};
use pdo_events::{FaultInjector, Scheduler};
use pdo_ir::Module;
use std::cell::RefCell;
use std::rc::Rc;

/// Complete captured state of a live adaptive session — what survives a
/// crash. Meaningful at an epoch boundary, where the profile tally has
/// just been drained into the engine's profile, so the capture is exact; substrate link/wire state travels separately (it
/// lives in the endpoint, not the runtime).
pub struct SessionCapture {
    pub globals: Vec<Value>,
    pub clock_ns: u64,
    pub sched: Scheduler,
    pub injector: Option<FaultInjector>,
    pub engine: EngineSnapshot,
}

/// Captures a session: every global, the virtual clock, the scheduler's
/// queue and timer heap, the remaining dispatch-fault plan (with fired
/// occurrence counts, so restored sessions don't re-fire spent faults),
/// and the adaptation daemon's snapshot.
pub fn capture_session(
    rt: &Runtime,
    n_globals: usize,
    engine: &Rc<RefCell<AdaptiveEngine>>,
) -> SessionCapture {
    SessionCapture {
        globals: (0..n_globals)
            .map(|i| rt.global(GlobalId::from_index(i)).clone())
            .collect(),
        clock_ns: rt.clock_ns(),
        sched: rt.export_sched(),
        injector: rt.fault_injector().cloned(),
        engine: engine.borrow().snapshot(),
    }
}

/// Rebuilds a freshly constructed session runtime from `cap`, mirroring
/// the server's restore path: globals, scheduler, fault plan, policy,
/// clock (before the epoch hook exists, so the catch-up doesn't fire a
/// burst of stale epochs), then the adaptation daemon from its snapshot
/// — the session resumes specialization instead of cold-starting.
pub fn restore_session(
    rt: &mut Runtime,
    base: impl Into<std::sync::Arc<Module>>,
    config: AdaptConfig,
    policy: FaultPolicy,
    cap: SessionCapture,
) -> Rc<RefCell<AdaptiveEngine>> {
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
    AdaptiveEngine::attach_restored(rt, base, config, cap.engine)
}
