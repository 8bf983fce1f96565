//! Chaos equivalence under dynamic re-binding with the adaptation engine
//! live: the paper's hard case (§3.3) against the whole online loop.
//!
//! A seeded stream of raises over 2–4 events (the hot one raises a child
//! synchronously from its middle handler), rebinds that cycle the hot
//! event through three configurations — and rebinds that take a handler
//! off and put the very same binding back — and epoch advances runs twice
//! under the same fault plan: on a runtime with an [`AdaptiveEngine`]
//! attached, which specializes, sees its guards fail, forgets, replans and
//! replays from its cache as the bindings move, and on a bare runtime that
//! only ever dispatches generically. Both must end with the same globals,
//! the same fault sequence and the same [`RuntimeStats`] counters, under
//! either containment policy.
//!
//! Both runs record the full trace. The engine-attached run takes each
//! epoch's records *in the epoch hook*, just before handing the boundary
//! to [`AdaptiveEngine::on_epoch`], and checks the engine's input there:
//! the profile of the runtime's live tally must be the profile of the
//! epoch's records replayed. The faults those records carry are kept, so
//! the fault sequence compared is the whole run's.
//!
//! [`RuntimeStats`]: pdo_events::RuntimeStats

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    assert_equivalent, chaos_cases, chaos_seed, CaseContext, ChaosCase, Observed, SplitMix,
    POLICIES,
};
use pdo::{AdaptConfig, AdaptStats, AdaptiveEngine, OptimizeOptions};
use pdo_events::{FaultInjector, FaultKind, FaultPolicy, Runtime, RuntimeConfig, TraceConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, RaiseMode, Value};
use pdo_profile::{Profile, ProfileBuilder, SuperHandlers};
use std::cell::RefCell;
use std::rc::Rc;

const EPOCH_NS: u64 = 1_000;
/// Operations per case.
const OPS: usize = 400;

/// The program: `Hot` runs `[stat, mid, tail]`, where `mid` is one of two
/// handlers that both raise `Child` synchronously, or absent; `Child` and
/// the side events run one handler each.
struct Program {
    module: Module,
    /// `[Hot, Child, Side1, Side2]`.
    events: [EventId; 4],
    stat: FuncId,
    mids: [FuncId; 2],
    tail: FuncId,
    singles: [FuncId; 3],
}

const MID_ORDER: i32 = 10;
const TAIL_ORDER: i32 = 20;

fn program() -> Program {
    let mut m = Module::new();
    let events = [
        m.add_event("Hot"),
        m.add_event("Child"),
        m.add_event("Side1"),
        m.add_event("Side2"),
    ];
    let log = m.add_global("log", Value::Int(0));
    let sum = m.add_global("sum", Value::Int(0));
    // log = log * 31 + digit (+ arg): order-sensitive, so a handler run
    // out of order, twice or not at all shows.
    let mix = |m: &mut Module, name: &str, digit: i64, g: GlobalId, raises: Option<EventId>| {
        let mut b = FunctionBuilder::new(name, 1);
        let v = b.load_global(g);
        let k = b.const_int(31);
        let scaled = b.bin(BinOp::Mul, v, k);
        let d = b.const_int(digit);
        let mixed = b.bin(BinOp::Add, scaled, d);
        let out = b.bin(BinOp::Add, mixed, b.param(0));
        b.store_global(g, out);
        if let Some(child) = raises {
            b.raise(child, RaiseMode::Sync, &[b.param(0)]);
        }
        b.ret(None);
        m.add_function(b.finish())
    };
    let stat = mix(&mut m, "stat", 1, log, None);
    let mids = [
        mix(&mut m, "mid_a", 2, log, Some(events[1])),
        mix(&mut m, "mid_b", 3, sum, Some(events[1])),
    ];
    let tail = mix(&mut m, "tail", 4, log, None);
    let singles = [
        mix(&mut m, "child", 5, sum, None),
        mix(&mut m, "side1", 6, log, None),
        mix(&mut m, "side2", 7, sum, None),
    ];
    Program {
        module: m,
        events,
        stat,
        mids,
        tail,
        singles,
    }
}

/// One step of a case's seeded operation stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Raise `events[i]` with an argument, now or in `delay_ns`.
    Raise(usize, i64, Option<u64>),
    /// Bind the hot event's middle handler `Some(0 | 1)`, or none.
    Rebind(Option<usize>),
    /// Take `tail` off and put the same binding back.
    SameContent,
    /// Run to the next epoch boundary.
    Epoch,
}

/// The case's stream over the first `n_events` events. The hot event
/// takes most raises, so the engine specializes it between rebinds.
fn ops(seed: u64, n_events: usize) -> Vec<Op> {
    let mut rng = SplitMix::new(seed ^ 0x0B1D_5EED);
    (0..OPS)
        .map(|_| match rng.below(100) {
            0..=2 => Op::Rebind(match rng.below(3) {
                2 => None,
                k => Some(k as usize),
            }),
            3..=4 => Op::SameContent,
            5..=19 => Op::Epoch,
            r => {
                let event = if r < 80 {
                    0
                } else {
                    rng.below(n_events as u64) as usize
                };
                let timed = (rng.below(8) == 0).then(|| 1 + rng.below(2 * EPOCH_NS));
                Op::Raise(event, rng.below(1 << 20) as i64, timed)
            }
        })
        .collect()
}

fn adapt_config() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(6);
    // Boundary markers make ExhaustFuel trip at the same program points in
    // merged code as in generic dispatch.
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: EPOCH_NS,
        min_fresh_events: 8,
        opts,
        ..AdaptConfig::default()
    }
}

/// Runs `stream` under `policy` and `case`'s fault plan, with the engine
/// attached or not, and snapshots what the equivalence claim covers.
fn run(
    p: &Program,
    stream: &[Op],
    case: &ChaosCase,
    policy: FaultPolicy,
    adaptive: bool,
) -> (Observed<()>, Runtime, AdaptStats) {
    let mut rt = Runtime::with_config(
        p.module.clone(),
        RuntimeConfig {
            fault_policy: policy,
            ..Default::default()
        },
    );
    oracle::arm_tracing_and_histograms(&mut rt);
    let [hot, ..] = p.events;
    rt.bind(hot, p.stat, 0).expect("bind");
    rt.bind(hot, p.mids[0], MID_ORDER).expect("bind");
    rt.bind(hot, p.tail, TAIL_ORDER).expect("bind");
    for (&event, &handler) in p.events[1..].iter().zip(&p.singles) {
        rt.bind(event, handler, 0).expect("bind");
    }
    rt.set_fault_injector(FaultInjector::from_plan(case.plan.iter().copied()));

    rt.set_trace_config(TraceConfig::full());
    // The faults of the epochs the hook took the records of.
    let taken: Rc<RefCell<Vec<(EventId, FaultKind)>>> = Rc::default();
    let engine = adaptive.then(|| {
        let engine = AdaptiveEngine::attach_new(&mut rt, adapt_config());
        // The engine's own hook, with the collection in front of it.
        let (sink, daemon, seed) = (Rc::clone(&taken), Rc::clone(&engine), case.seed);
        rt.set_epoch_hook(EPOCH_NS, move |rt, _| {
            let window = rt.take_trace();
            sink.borrow_mut().extend(window.fault_sequence());
            let mut live = ProfileBuilder::new();
            let tally = rt.profile_tally().expect("the engine counts the profile");
            live.observe(tally, &SuperHandlers::none());
            assert_eq!(
                live.snapshot(0),
                Profile::from_trace(&window, 0),
                "seed {seed:#x} ({policy:?}): the live tally differs from the epoch's records"
            );
            daemon.borrow_mut().on_epoch(rt);
        });
        engine
    });

    let mut mid = Some(0);
    for &op in stream {
        match op {
            Op::Raise(event, arg, None) => rt
                .raise(p.events[event], RaiseMode::Sync, &[Value::Int(arg)])
                .expect("containment policy must not abort a sync raise"),
            Op::Raise(event, arg, Some(delay_ns)) => rt
                .raise(
                    p.events[event],
                    RaiseMode::Timed,
                    &[Value::Int(delay_ns as i64), Value::Int(arg)],
                )
                .expect("timed raise"),
            Op::Rebind(to) => {
                if let Some(k) = mid {
                    assert!(rt.unbind(hot, p.mids[k]));
                }
                if let Some(k) = to {
                    rt.bind(hot, p.mids[k], MID_ORDER).expect("bind");
                }
                mid = to;
            }
            Op::SameContent => {
                assert!(rt.unbind(hot, p.tail));
                rt.bind(hot, p.tail, TAIL_ORDER).expect("bind");
            }
            Op::Epoch => {
                let boundary = (rt.clock_ns() / EPOCH_NS + 1) * EPOCH_NS;
                rt.run_until(boundary)
                    .expect("containment policy must not abort the drain");
                rt.advance_clock(boundary - rt.clock_ns());
            }
        }
    }
    rt.run_until_idle()
        .expect("containment policy must not abort the drain");

    let mut observed = oracle::observe(&mut rt, p.module.globals.len(), ());
    let mut faults = taken.take();
    faults.append(&mut observed.faults);
    observed.faults = faults;
    let stats = engine.map(|e| e.borrow().stats()).unwrap_or_default();
    (observed, rt, stats)
}

#[test]
fn engine_attached_session_is_observationally_identical_under_rebinds_and_faults() {
    let p = program();
    let base = chaos_seed();
    let mut totals = AdaptStats::default();
    let mut fast = 0;
    for i in 0..chaos_cases() {
        let seed = base.wrapping_add(i);
        let n_events = 2 + (seed % 3) as usize;
        // Faults key on top-level occurrences, and `Child` also dispatches
        // nested — at a depth the injector counts when the parent came off
        // the timer heap, and not at all once subsumed — so, as in the
        // other suites, it is not in the fault pool.
        let fault_events: Vec<EventId> = [0, 2, 3]
            .into_iter()
            .filter(|&e| e < n_events)
            .map(|e| p.events[e])
            .collect();
        let case = ChaosCase::derive(seed, &fault_events, 8, 48);
        let stream = ops(case.seed, n_events);
        for policy in POLICIES {
            let (reference, generic, _) = run(&p, &stream, &case, policy, false);
            assert_eq!(generic.cost.fastpath_hits, 0, "the reference stays generic");
            let (observed, rt, stats) = run(&p, &stream, &case, policy, true);
            let ctx = CaseContext {
                substrate: "rebind",
                chain_form: "adaptive",
                policy,
                case: &case,
            };
            assert_equivalent(&ctx, &reference, &observed);
            totals.absorb(&stats);
            fast += rt.cost.fastpath_hits;
        }
    }
    // The sweep means something only if the engine really was specializing,
    // replanning and replaying across the rebinds.
    assert!(fast > 0, "no case ever took the fast lane: {totals:?}");
    assert!(
        totals.cache_misses > 0 && totals.chains_installed > 0,
        "{totals:?}"
    );
    if chaos_cases() >= 16 {
        assert!(totals.cache_hits > 0, "no rebind ever returned: {totals:?}");
    }
}
