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
    adapt_config, chaos_cases, prepare, sweep, Chains, ChaosCase, Observed, Schedule, Seeded,
};
use pdo::AdaptStats;
use pdo_events::{FaultKind, FaultPolicy, Runtime};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, RaiseMode, Value};
use pdo_profile::{Profile, ProfileBuilder, SuperHandlers};
use std::cell::{Cell, RefCell};
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

/// A case: the fault plan and the operation stream, both over the first
/// two to four events.
#[derive(Debug)]
struct Case {
    chaos: ChaosCase,
    stream: Vec<Op>,
}

/// Draws a case. The hot event takes most raises, so the engine
/// specializes it between rebinds; every raised event, the subsumable
/// `Child` among them, is in the fault pool.
fn case(p: &Program, s: &mut Seeded) -> Case {
    let n_events = 2 + s.choose(3) as usize;
    let chaos = ChaosCase::derive(s, &p.events[..n_events], 8, 48);
    let stream = (0..OPS)
        .map(|_| match s.choose(100) {
            0..=2 => Op::Rebind(match s.choose(3) {
                2 => None,
                k => Some(k as usize),
            }),
            3..=4 => Op::SameContent,
            5..=19 => Op::Epoch,
            r => {
                let event = if r < 80 {
                    0
                } else {
                    s.choose(n_events as u64) as usize
                };
                let timed = (s.choose(8) == 0).then(|| 1 + s.choose(2 * EPOCH_NS));
                Op::Raise(event, s.choose(1 << 20) as i64, timed)
            }
        })
        .collect();
    Case { chaos, stream }
}

/// Runs `case` under `policy`, with the engine attached or not, and
/// snapshots what the equivalence claim covers.
fn run(
    p: &Program,
    case: &Case,
    policy: FaultPolicy,
    adaptive: bool,
) -> (Observed<()>, Runtime, AdaptStats) {
    let mut rt = Runtime::new(p.module.clone());
    let [hot, ..] = p.events;
    rt.bind(hot, p.stat, 0).expect("bind");
    rt.bind(hot, p.mids[0], MID_ORDER).expect("bind");
    rt.bind(hot, p.tail, TAIL_ORDER).expect("bind");
    for (&event, &handler) in p.events[1..].iter().zip(&p.singles) {
        rt.bind(event, handler, 0).expect("bind");
    }
    let config = adapt_config(EPOCH_NS, 8, 6);
    let chains = if adaptive {
        Chains::Adaptive(config)
    } else {
        Chains::Generic
    };
    let engine = prepare(&mut rt, chains, policy, case.chaos.plan.clone());
    // The faults of the epochs the hook took the records of.
    let taken: Rc<RefCell<Vec<(EventId, FaultKind)>>> = Rc::default();
    if let Some(engine) = &engine {
        // The engine's own hook, with the collection in front of it.
        let (sink, daemon) = (Rc::clone(&taken), Rc::clone(engine));
        rt.set_epoch_hook(EPOCH_NS, move |rt, _| {
            let window = rt.take_trace();
            sink.borrow_mut().extend(window.fault_sequence());
            let mut live = ProfileBuilder::new();
            let tally = rt.profile_tally().expect("the engine counts the profile");
            live.observe(tally, &SuperHandlers::none());
            assert_eq!(
                live.snapshot(0),
                Profile::from_trace(&window, 0),
                "the live tally differs from the epoch's records"
            );
            daemon.borrow_mut().on_epoch(rt);
        });
    }

    let mut mid = Some(0);
    for &op in &case.stream {
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
    let totals = RefCell::new(AdaptStats::default());
    let fast = Cell::new(0);
    sweep(
        "rebind",
        Seeded::sweep(),
        |s| case(&p, s),
        |&adaptive, case, policy| {
            let (observed, rt, stats) = run(&p, case, policy, adaptive);
            if !adaptive {
                assert_eq!(rt.cost.fastpath_hits, 0, "the reference stays generic");
            }
            totals.borrow_mut().absorb(&stats);
            fast.set(fast.get() + rt.cost.fastpath_hits);
            observed
        },
        false,
        &[("adaptive", true)],
    );
    // The sweep means something only if the engine really was specializing,
    // replanning and replaying across the rebinds.
    let totals = totals.into_inner();
    assert!(
        fast.get() > 0,
        "no case ever took the fast lane: {totals:?}"
    );
    assert!(
        totals.cache_misses > 0 && totals.chains_installed > 0,
        "{totals:?}"
    );
    if chaos_cases() >= 16 {
        assert!(totals.cache_hits > 0, "no rebind ever returned: {totals:?}");
    }
}
