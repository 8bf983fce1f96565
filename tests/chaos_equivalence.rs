//! Chaos equivalence on the synthetic media pipeline: the paper's
//! behavioral-equivalence guarantee holds *under injected faults*, not
//! just on the happy path.
//!
//! For any plan of equivalence-safe faults (dispatch traps, argument
//! corruption, dropped/delayed timers, fuel exhaustion) and either
//! containment policy, the optimized program — monolithic or per-event
//! chains — must be observationally identical to the original: same
//! global state, same emitted packets in the same order, same recorded
//! fault sequence, same robustness counters. Faults key on the occurrences
//! the workload raises or the runtime pops precisely so this property is
//! well defined (see `pdo_events::fault` module docs), so the pool holds
//! the subsumed children `Encode` and `Send` too. Fuel exhaustion is
//! equivalence-safe here because the optimizer runs with
//! `fuel_boundaries` on: merged super-handlers charge the boundary budget
//! at `__pdo_fuel_boundary` markers placed exactly where generic dispatch
//! charges it (before each pre-merge handler), so the occurrence aborts
//! at the same program point in both runs.
//!
//! One test samples seeded cases; another enumerates every schedule of a
//! few actions on the Fig 8/9 chain — workload raises of the parent and
//! of its subsumed child, pops, same-content rebinds and faults — and
//! checks the restored session too. The oracle itself (schedules, case
//! derivation, snapshots, the sweep) lives in `tests/common/oracle.rs`
//! and is shared with the real-substrate suites.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    capture_session, observe, restore_session, sweep, Chains, ChaosCase, Exhaustive, Observed,
    Pipeline, Schedule, Seeded, RAISES,
};
use pdo::{Optimization, OptimizeOptions};
use pdo_events::{FaultKind, FaultPolicy, FaultSpec};
use pdo_ir::{BinOp, FunctionBuilder, Module, RaiseMode, Value};
use std::rc::Rc;

/// Delay of the timed `Ack` each `Send` arms, in virtual ns.
const ACK_DELAY_NS: u64 = 1_000;

/// A small media pipeline: `Frame` updates counters and stages a value,
/// then synchronously raises `Encode` -> `Send`; `Send` emits a packet
/// through a native and arms a timed `Ack`. The chain `Frame -> Encode ->
/// Send` is exactly the shape the optimizer merges into a super-handler.
fn pipeline() -> Pipeline {
    let mut m = Module::new();
    let frame = m.add_event("Frame");
    let encode = m.add_event("Encode");
    let send = m.add_event("Send");
    let ack = m.add_event("Ack");

    let g_frames = m.add_global("frames", Value::Int(0));
    let g_check = m.add_global("checksum", Value::Int(0));
    let g_staged = m.add_global("staged", Value::Int(0));
    let g_acks = m.add_global("acks", Value::Int(0));
    let g_ack_sum = m.add_global("ack_sum", Value::Int(0));
    let n_emit = m.add_native("emit");

    // Frame order 0: frames += 1; checksum = checksum * 31 + arg.
    let mut b = FunctionBuilder::new("frame_stat", 1);
    let v = b.load_global(g_frames);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g_frames, s);
    let c = b.load_global(g_check);
    let k = b.const_int(31);
    let scaled = b.bin(BinOp::Mul, c, k);
    let mixed = b.bin(BinOp::Add, scaled, b.param(0));
    b.store_global(g_check, mixed);
    b.ret(None);
    let h_stat = m.add_function(b.finish());

    // Frame order 10: staged = arg * 2 + 1, then the nested chain.
    let mut b = FunctionBuilder::new("frame_encode", 1);
    let two = b.const_int(2);
    let d = b.bin(BinOp::Mul, b.param(0), two);
    let one = b.const_int(1);
    let st = b.bin(BinOp::Add, d, one);
    b.store_global(g_staged, st);
    b.raise(encode, RaiseMode::Sync, &[]);
    b.ret(None);
    let h_encode = m.add_function(b.finish());

    // Encode: staged ^= 0x5A, then Send.
    let mut b = FunctionBuilder::new("encode_xform", 0);
    let v = b.load_global(g_staged);
    let mask = b.const_int(0x5A);
    let x = b.bin(BinOp::Xor, v, mask);
    b.store_global(g_staged, x);
    b.raise(send, RaiseMode::Sync, &[]);
    b.ret(None);
    let h_enc = m.add_function(b.finish());

    // Send: emit the staged packet, arm a timed Ack carrying it.
    let mut b = FunctionBuilder::new("send_emit", 0);
    let v = b.load_global(g_staged);
    let _ = b.call_native(n_emit, &[v]);
    let delay = b.const_int(ACK_DELAY_NS as i64);
    b.raise(ack, RaiseMode::Timed, &[delay, v]);
    b.ret(None);
    let h_send = m.add_function(b.finish());

    // Ack: acks += 1; ack_sum += arg.
    let mut b = FunctionBuilder::new("ack_count", 1);
    let v = b.load_global(g_acks);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g_acks, s);
    let t = b.load_global(g_ack_sum);
    let u = b.bin(BinOp::Add, t, b.param(0));
    b.store_global(g_ack_sum, u);
    b.ret(None);
    let h_ack = m.add_function(b.finish());

    let bindings = vec![
        (frame, h_stat, 0),
        (frame, h_encode, 10),
        (encode, h_enc, 0),
        (send, h_send, 0),
        (ack, h_ack, 0),
    ];
    Pipeline {
        module: m,
        head: frame,
        bindings,
    }
}

/// Profiles the happy path and optimizes; `subsume` picks one monolithic
/// guard set per chain over Fig 14's per-event chains.
fn optimized(p: &Pipeline, subsume: bool) -> Optimization {
    p.optimized(OptimizeOptions {
        subsume,
        ..OptimizeOptions::new(10)
    })
}

/// The capstone property: for any seeded fault plan and either
/// containment policy, original and optimized runs (monolithic and
/// per-event) observe identical behavior.
#[test]
fn optimized_program_is_observationally_identical_under_faults() {
    let p = pipeline();
    let events = p.events();
    let [monolithic, per_event] = [true, false].map(|subsume| optimized(&p, subsume));
    sweep(
        "equivalence",
        Seeded::sweep(),
        |s| ChaosCase::derive(s, &events, 8, 32),
        |chains, case, policy| p.run(&p.module, *chains, policy, &case.plan).0,
        Chains::Generic,
        &[
            ("monolithic", Chains::Static(&monolithic)),
            ("per-event", Chains::Static(&per_event)),
        ],
    );
}

/// One step of an enumerated schedule.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// The workload queues a `Frame`; a later pop dispatches it.
    Frame,
    /// The workload raises the subsumed child `Encode` synchronously.
    Encode,
    /// Pops what is due within one `Ack` delay: queued frames, then acks.
    Pop,
    /// Takes `Encode`'s handler off and binds the same one back.
    Rebind,
    /// Exhausts the fuel of the next `Frame` (a parent) midway through its
    /// four pre-merge handlers.
    StarveFrame,
    /// Traps the next `Encode` the workload raises (a child).
    TrapEncode,
    /// Drops the next timed raise of `Ack`.
    DropAck,
}

const ACTIONS: [Action; 7] = [
    Action::Frame,
    Action::Encode,
    Action::Pop,
    Action::Rebind,
    Action::StarveFrame,
    Action::TrapEncode,
    Action::DropAck,
];

/// An enumerated case: its actions, and the plan its fault actions make.
#[derive(Debug)]
struct Script {
    actions: Vec<Action>,
    plan: Vec<FaultSpec>,
}

/// Draws a script from `s`: one action per choice, until choice 0 ends it.
/// A fault action targets the next occurrence of its event the script
/// causes: the next queued `Frame`, the next workload `Encode`, the next
/// `Ack` a `Send` arms.
fn script(p: &Pipeline, s: &mut impl Schedule) -> Script {
    let [encode, ack] = ["Encode", "Ack"].map(|name| p.module.event_by_name(name).unwrap());
    let (mut actions, mut plan) = (Vec::new(), Vec::new());
    let (mut frames, mut encodes) = (0, 0);
    while let Some(k) = s.choose(ACTIONS.len() as u64 + 1).checked_sub(1) {
        let action = ACTIONS[k as usize];
        let fault = match action {
            Action::Frame => {
                frames += 1;
                None
            }
            Action::Encode => {
                encodes += 1;
                None
            }
            Action::Pop | Action::Rebind => None,
            Action::StarveFrame => Some((p.head, frames, FaultKind::ExhaustFuel)),
            Action::TrapEncode => Some((encode, encodes, FaultKind::TrapDispatch)),
            Action::DropAck => Some((ack, frames + encodes, FaultKind::DropTimed)),
        };
        plan.extend(fault.map(|(event, occurrence, kind)| FaultSpec {
            event,
            occurrence,
            kind,
        }));
        actions.push(action);
    }
    Script { actions, plan }
}

/// Plays `script` with `chains`. With `restore` the session crashes at
/// the script's midpoint and a fresh one resumes from its capture; the
/// snapshot is then what the crashed session observed followed by what
/// its successor did.
fn play(
    p: &Pipeline,
    (chains, restore): (Chains<'_>, bool),
    script: &Script,
    policy: FaultPolicy,
) -> Observed<Vec<Value>> {
    let encode = p.module.event_by_name("Encode").unwrap();
    let xform = p.module.function_by_name("encode_xform").unwrap();
    let emitted = Rc::default();
    let mut rt = p.session(&p.module, chains, policy, &script.plan, &emitted);
    let mut crashed = None;
    for (i, &action) in script.actions.iter().enumerate() {
        if restore && i == script.actions.len() / 2 {
            let capture = capture_session(&rt, rt.module().globals.len(), None);
            crashed = Some(observe(&mut rt, 0, ()));
            rt = p.session(&p.module, chains, policy, &[], &emitted);
            restore_session(&mut rt, policy, capture, None);
        }
        match action {
            Action::Frame => rt
                .raise(p.head, RaiseMode::Async, &[Value::Int(i as i64)])
                .expect("async raise"),
            Action::Encode => rt
                .raise(encode, RaiseMode::Sync, &[])
                .expect("containment policy must not abort a sync raise"),
            Action::Pop => {
                rt.run_until(rt.clock_ns() + ACK_DELAY_NS)
                    .expect("containment policy must not abort the drain");
            }
            Action::Rebind => {
                assert!(rt.unbind(encode, xform));
                rt.bind(encode, xform, 0).expect("bind");
            }
            Action::StarveFrame | Action::TrapEncode | Action::DropAck => {}
        }
    }
    rt.run_until_idle()
        .expect("containment policy must not abort the drain");
    let mut observed = observe(&mut rt, p.module.globals.len(), emitted.take());
    if let Some(before) = crashed {
        observed.faults.splice(0..0, before.faults);
        let (mut a, b) = (before.counters, &mut observed.counters);
        for (&event, &n) in &b.faults_by_event {
            *a.faults_by_event.entry(event).or_default() += n;
        }
        a.injected_faults += b.injected_faults;
        a.handler_traps += b.handler_traps;
        a.skipped_dispatches += b.skipped_dispatches;
        a.dropped_timed += b.dropped_timed;
        a.delayed_timed += b.delayed_timed;
        *b = a;
    }
    observed
}

/// Schedule length the exhaustive test enumerates up to.
const DEPTH: usize = 4;

/// The Fig 8/9 chain under every schedule of at most four actions: the
/// generic run, per-event chains, the monolithic super-handler and a
/// monolithic session restored at the schedule's midpoint all observe the
/// same, under either containment policy.
#[test]
fn every_schedule_of_at_most_4_actions_is_identical_across_forms() {
    let p = pipeline();
    let [monolithic, per_event] = [true, false].map(|subsume| optimized(&p, subsume));
    let explored = sweep(
        "equivalence",
        Exhaustive::new(DEPTH),
        |s| script(&p, s),
        |&form, script, policy| play(&p, form, script, policy),
        (Chains::Generic, false),
        &[
            ("per-event", (Chains::Static(&per_event), false)),
            ("monolithic", (Chains::Static(&monolithic), false)),
            ("monolithic-restored", (Chains::Static(&monolithic), true)),
        ],
    );
    let actions = ACTIONS.len() as u64;
    println!("explored {explored} schedules of at most {DEPTH} of {actions} actions");
    assert_eq!(explored, (0..=DEPTH as u32).map(|k| actions.pow(k)).sum());
}

#[test]
fn harness_is_meaningful_fastpath_used_when_unfaulted() {
    let p = pipeline();
    let opt = optimized(&p, true);
    let (reference, _) = p.run(&p.module, Chains::Generic, FaultPolicy::SkipEvent, &[]);
    let (observed, rt) = p.run(&p.module, Chains::Static(&opt), FaultPolicy::SkipEvent, &[]);
    assert_eq!(observed, reference);
    assert!(
        rt.cost.fastpath_hits > 0,
        "an unfaulted run must actually exercise the compiled chains"
    );
    assert_eq!(reference.substrate.len() as i64, RAISES + RAISES / 5 + 1);
}

#[test]
fn despecialize_removes_chain_but_preserves_behavior() {
    let p = pipeline();
    let opt = optimized(&p, true);
    let plan = [FaultSpec {
        event: p.head,
        occurrence: 2,
        kind: FaultKind::TrapDispatch,
    }];
    let (reference, _) = p.run(&p.module, Chains::Generic, FaultPolicy::Despecialize, &plan);
    let (observed, rt) = p.run(
        &p.module,
        Chains::Static(&opt),
        FaultPolicy::Despecialize,
        &plan,
    );
    assert_eq!(observed, reference);
    assert!(
        rt.spec().get(p.head).is_none(),
        "the faulting chain must be removed"
    );
    // The faulted occurrence was still drained (generically): every frame
    // landed in the counters.
    assert_eq!(observed.globals[0], Value::Int(RAISES + RAISES / 5 + 1));
    assert_eq!(
        observed.counters.injected_faults, 1,
        "one injected fault recorded"
    );
}
