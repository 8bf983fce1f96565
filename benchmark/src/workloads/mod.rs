//! The six workloads and what they share: the slice accounting every
//! workload fills in, the trait the harness drives, and helpers for the
//! layer ladder.
//!
//! A workload is generated and driven by **one thread**. That thread is
//! both the load generator and the engine thread, so on the wire workloads
//! exactly two threads are busy (this one and the `pdo-ingress-net`
//! acceptor) — the host has two cores, and a third spinning thread turns
//! the measurement into a scheduler lottery (README, "Topology").
//!
//! No workload overrides a product tunable: servers are built with
//! `ServerConfig::default()`, the ingress with `IngressConfig::default()`,
//! runtimes with `RuntimeConfig::default()`. The program under test
//! receives only the generated inputs.

use crate::alloc::AllocSnapshot;
use crate::metrics::Metrics;
use crate::span::Tracer;
use pdo::{AdaptStats, AdaptiveEngine};
use pdo_events::Runtime;
use pdo_ir::interp::BasicEnv;
use pdo_ir::{EventId, FuncId, Module, Value};
use std::time::{Duration, Instant};

pub mod control_plane;
pub mod rebind_churn;
pub mod timer_storm;
pub mod video_play;
pub mod wire_plain;
pub mod wire_seccomm;

/// Raises (or requests) between virtual-clock epoch advances, and the
/// advance itself: the in-process workloads pace epochs the way
/// `IngressConfig::default()` paces them on the wire, so the adaptation
/// daemons see the same cadence on every rung of the ladder.
pub const EPOCH_EVERY: u64 = 1024;
/// Virtual ns per epoch advance (`IngressConfig::default().epoch_step_ns`).
pub const EPOCH_STEP_NS: u64 = 1_000_000;

/// What one slice of one workload did. The harness owns the buffers and
/// clears them between slices.
#[derive(Debug, Default)]
pub struct SliceOut {
    /// Operations completed with a correct result.
    pub ops: u64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed, were shed, errored or returned a wrong output.
    pub failed: u64,
    /// Time the operations took. Harness work a workload does between
    /// operations (building a fresh endpoint, comparing outputs) is not in
    /// here.
    pub timed_ns: u64,
    /// Benchmark-thread allocations inside the timed regions.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Allocations other threads made meanwhile (the acceptor's).
    pub other_allocs: u64,
    /// Issue-to-result time per operation, ns (per batch mean where one
    /// call is too short to time alone).
    pub lat_ns: Vec<u32>,
    /// Open loop only: how late each request left, ns after it was due.
    pub late_ns: Vec<u32>,
}

impl SliceOut {
    /// Empties the slice, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.ops = 0;
        self.attempted = 0;
        self.failed = 0;
        self.timed_ns = 0;
        self.allocs = 0;
        self.alloc_bytes = 0;
        self.other_allocs = 0;
        self.lat_ns.clear();
        self.late_ns.clear();
    }

    /// Adds a finished timed region.
    pub fn add(&mut self, t: Timed) -> u64 {
        let ns = t.at.elapsed().as_nanos() as u64;
        let a = AllocSnapshot::now().since(t.allocs);
        self.timed_ns += ns;
        self.allocs += a.allocs;
        self.alloc_bytes += a.bytes;
        self.other_allocs += a.other_allocs;
        ns
    }

    /// Records a latency sample, saturating at `u32::MAX` ns (4.29 s).
    pub fn sample(&mut self, ns: u64) {
        self.lat_ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }
}

/// An open timed region: wall clock and allocation counters at entry.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    at: Instant,
    allocs: AllocSnapshot,
}

impl Timed {
    /// Starts timing now.
    pub fn start() -> Timed {
        Timed {
            allocs: AllocSnapshot::now(),
            at: Instant::now(),
        }
    }

    /// Ns since the region opened.
    pub fn elapsed_ns(&self) -> u64 {
        self.at.elapsed().as_nanos() as u64
    }
}

/// One workload, set up from a seed and driven in slices.
pub trait Workload {
    /// Runs operations for about `dur` of timed work, recording spans
    /// into `tr` when it is on.
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut);

    /// Whether operations are issued on a schedule of the workload's own
    /// (open loop) rather than as fast as they complete.
    fn paced(&self) -> bool {
        false
    }

    /// Cumulative `CostCounter::weighted_total` over everything this
    /// workload executes, read through the public runtime accessors.
    fn cost_units(&mut self) -> u64;

    /// Whether warm-up has done its job: where the workload expects the
    /// adaptive engine to specialize, chains are live.
    fn warmed(&mut self) -> bool;

    /// Finishes in-flight work and checks the program's outputs against
    /// their closed forms and references. Returns one line per failed
    /// check.
    fn verify(&mut self) -> Vec<String>;

    /// The lower rungs and standalone timings of the traced pass: replays
    /// this workload's seeded operation stream one layer lower each time
    /// and fills in the per-layer metrics. `tr` already holds the spans of
    /// the full-stack rung.
    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics);
}

/// Builds workload `name` from `seed`.
///
/// # Panics
///
/// If `name` is not one of the six workload names.
pub fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "wire_plain" => Box::new(wire_plain::WirePlain::setup(seed)),
        "wire_seccomm" => Box::new(wire_seccomm::WireSeccomm::setup(seed)),
        "video_play" => Box::new(video_play::VideoPlay::setup(seed)),
        "rebind_churn" => Box::new(rebind_churn::RebindChurn::setup(seed)),
        "timer_storm" => Box::new(timer_storm::TimerStorm::setup(seed)),
        "control_plane" => Box::new(control_plane::ControlPlane::setup(seed)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Monotonic ns clock shared by a workload's generator and its samples.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Starts at 0 now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Ns since the clock started.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Runs `batch` (which performs and returns some number of operations)
/// inside `layer.name` spans until `budget` is spent.
pub fn spend(
    budget: Duration,
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    mut batch: impl FnMut() -> u64,
) {
    let started = Instant::now();
    while started.elapsed() < budget {
        tr.enter(layer, name);
        let n = batch();
        tr.exit(n);
    }
}

/// A bare runtime over `module` with `bindings` applied and the adaptive
/// engine attached under its default configuration — a server session
/// minus the server: no observability hub, no span store, no shard.
pub fn bare_runtime(
    module: &Module,
    bindings: &[(EventId, FuncId, i32)],
) -> (Runtime, std::rc::Rc<std::cell::RefCell<AdaptiveEngine>>) {
    let mut rt = Runtime::with_config(module.clone(), pdo_events::RuntimeConfig::default());
    for &(e, f, o) in bindings {
        rt.bind(e, f, o).expect("binding a declared handler");
    }
    let engine = AdaptiveEngine::attach_new(&mut rt, pdo::AdaptConfig::default());
    (rt, engine)
}

/// Pads `rt`'s clock to `deadline_ns` after running due work, as the
/// server does for a plain session, so epoch hooks fire on idle sessions.
pub fn advance_runtime(rt: &mut Runtime, deadline_ns: u64) {
    rt.run_until(deadline_ns)
        .expect("run_until on a bare runtime");
    let now = rt.clock_ns();
    if deadline_ns > now {
        rt.advance_clock(deadline_ns - now);
    }
}

/// The function a raise of `event` ends up interpreting on `rt`: the
/// installed chain's super-handler when one is live, otherwise each bound
/// handler in order.
pub fn handler_bodies(rt: &Runtime, event: EventId) -> Vec<FuncId> {
    match rt.spec().get(event) {
        Some(chain) => vec![chain.func],
        None => rt
            .registry()
            .bindings(event)
            .iter()
            .map(|b| b.handler)
            .collect(),
    }
}

/// Interpreter-only rung for programs without natives: calls `funcs` in
/// order through `interp::call` on a `BasicEnv`, `budget` long, and fills
/// in the `ir.*` metrics. One operation is one pass over `funcs`.
pub fn ir_rung_basic(
    module: &Module,
    funcs: &[FuncId],
    args: &[Value],
    budget: Duration,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    const BATCH: u64 = 256;
    let mut env = BasicEnv::new(module);
    let one_op = |env: &mut BasicEnv| {
        for &f in funcs {
            pdo_ir::interp::call(module, env, f, args).expect("handler body runs");
        }
        env.raised.clear();
    };
    spend(budget, tr, "ir", "call", || {
        for _ in 0..BATCH {
            one_op(&mut env);
        }
        BATCH
    });
    let a = tr.agg("ir", "call");
    ir_metrics(m, a.ns_per_count(), a.allocs_per_count(), env.cost, a.count);
    // Opcode mix from a short profiled pass, kept out of the timing.
    let mut prof = BasicEnv::new(module);
    prof.enable_profiling();
    for _ in 0..64 {
        one_op(&mut prof);
    }
    if let Some(p) = prof.profile.as_deref() {
        m.set("ir.fused_frac", ratio(p.fused_total(), p.total()));
    }
}

/// Records the interpreter rung's metrics from its totals.
pub fn ir_metrics(m: &mut Metrics, call_ns: f64, allocs: f64, cost: pdo_ir::CostCounter, ops: u64) {
    m.set("ir.call_ns", call_ns);
    m.set("ir.allocs_per_call", allocs);
    m.set("ir.instrs_per_op", ratio(cost.instrs, ops));
    m.set("ir.native_calls_per_op", ratio(cost.native_calls, ops));
    m.set(
        "ir.ns_per_instr",
        if cost.instrs == 0 {
            0.0
        } else {
            call_ns * ops as f64 / cost.instrs as f64
        },
    );
}

/// Records the `core.*` adaptation counters.
pub fn adapt_metrics(m: &mut Metrics, s: &AdaptStats, reprofile_p50_ns: u64) {
    m.set("core.reprofiles", s.reprofiles as f64);
    m.set("core.reprofile_p50_us", reprofile_p50_ns as f64 / 1e3);
    m.set("core.chains_installed", s.chains_installed as f64);
    m.set("core.chains_dropped", s.chains_dropped as f64);
    m.set("core.despecialized", s.despecialized as f64);
    m.set(
        "core.cache_hit_frac",
        ratio(s.cache_hits, s.cache_hits + s.cache_misses),
    );
}

/// Records the `events.*` dispatch counters from a cost delta over `ops`.
pub fn dispatch_metrics(m: &mut Metrics, cost: pdo_ir::CostCounter, ops: u64) {
    m.set(
        "events.registry_lookups_per_op",
        ratio(cost.registry_lookups, ops),
    );
    m.set(
        "events.marshaled_values_per_op",
        ratio(cost.marshaled_values, ops),
    );
    m.set(
        "events.guard_miss_frac",
        ratio(
            cost.fastpath_misses,
            cost.fastpath_hits + cost.fastpath_misses + cost.registry_lookups,
        ),
    );
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Component-wise `after - before` of two cost counters.
pub fn cost_delta(after: pdo_ir::CostCounter, before: pdo_ir::CostCounter) -> pdo_ir::CostCounter {
    pdo_ir::CostCounter {
        instrs: after.instrs - before.instrs,
        calls: after.calls - before.calls,
        native_calls: after.native_calls - before.native_calls,
        indirect_calls: after.indirect_calls - before.indirect_calls,
        direct_handler_calls: after.direct_handler_calls - before.direct_handler_calls,
        raises_sync: after.raises_sync - before.raises_sync,
        raises_async: after.raises_async - before.raises_async,
        registry_lookups: after.registry_lookups - before.registry_lookups,
        marshaled_values: after.marshaled_values - before.marshaled_values,
        lock_ops: after.lock_ops - before.lock_ops,
        fastpath_hits: after.fastpath_hits - before.fastpath_hits,
        fastpath_misses: after.fastpath_misses - before.fastpath_misses,
    }
}
