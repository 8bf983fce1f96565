//! Crash-restart conformance (DESIGN.md §14): killing a session at an
//! epoch boundary and restoring it from its snapshot must be invisible
//! in every external observable. For each seeded chaos case, a straight
//! run is compared against (a) a run restored from a snapshot at *every*
//! epoch boundary and (b) a run that crashes at a seeded mid-epoch
//! point, discards the partial work, and resumes from the last boundary
//! snapshot. Live adaptation engines ride along through every kill:
//! their profile, counters, and quarantine state are carried,
//! so restored sessions resume specialization.
//!
//! Three substrates: plain sessions through the real `Server` durable
//! image (`snapshot_to_bytes` → new process → `restore_from_bytes`), CTP
//! endpoints (link state is endpoint-internal, so crash-discard-replay
//! is sound), and SecComm endpoint pairs over a persistent
//! `LossyChannel` (the channel is the outside world — it survives the
//! crash while both endpoints rebuild, so no mid-epoch sweep there:
//! bytes already on the wire cannot be un-sent).
//!
//! Comparisons are external-only (globals + substrate state): dispatch
//! cost counters and the live trace die with the process by design.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    arm_tracing_and_histograms, assert_equivalent, capture_session, chaos_cases, chaos_seed,
    observe_external, restore_session, CaseContext, ChaosCase, Observed, SplitMix, POLICIES,
};
use pdo::{AdaptConfig, AdaptiveEngine, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams};
use pdo_events::wire::WireStats;
use pdo_events::{FaultInjector, FaultPolicy, RuntimeConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, LossyChannel, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, SessionId};
use std::cell::RefCell;
use std::rc::Rc;

type Engine = Rc<RefCell<AdaptiveEngine>>;

/// When (if ever) the run kills and restores its sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Restart {
    /// Uninterrupted reference run.
    Straight,
    /// Snapshot + kill + restore at every segment boundary (segments are
    /// epoch-aligned).
    Boundaries,
    /// Run segment `seg` partway to a mid-epoch point, crash, discard
    /// the partial work, restore the boundary snapshot, and replay.
    Crash { seg: usize, partial_ns: u64 },
}

// --- plain sessions through the Server's durable image -------------------

const SEGMENTS: usize = 4;
const SEG_NS: u64 = 5_000; // five 1 000 ns adaptation epochs per segment

/// Two independent events; handler `k` of each adds `k` to its event's
/// accumulator.
fn two_chain_module() -> (Module, [EventId; 2]) {
    let mut m = Module::new();
    let a = m.add_event("A");
    let b = m.add_event("B");
    let ga = m.add_global("acc_a", Value::Int(0));
    let gb = m.add_global("acc_b", Value::Int(0));
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
    (m, [a, b])
}

fn bindings(m: &Module, a: EventId, b: EventId) -> Vec<(EventId, FuncId, i32)> {
    vec![
        (a, m.function_by_name("a1").unwrap(), 0),
        (a, m.function_by_name("a2").unwrap(), 1),
        (b, m.function_by_name("b1").unwrap(), 0),
        (b, m.function_by_name("b2").unwrap(), 1),
    ]
}

fn server_adapt() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(10);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: 1_000,
        min_fresh_events: 20,
        opts,
        ..AdaptConfig::default()
    }
}

/// One timed raise: (session index, event, delay). Delays may exceed the
/// segment, leaving timers outstanding at the boundary — the snapshot
/// carries them.
type Raise = (usize, EventId, u64);

/// Seeded workload: per segment, a burst of timed raises plus (on odd
/// draws) one async raise submitted *after* the drain, so it sits in the
/// FIFO across the snapshot.
fn server_workload(seed: u64, events: [EventId; 2]) -> Vec<(Vec<Raise>, bool)> {
    let mut rng = SplitMix::new(seed ^ 0x09E5_7A97);
    (0..SEGMENTS)
        .map(|_| {
            let n = 4 + rng.below(8);
            let raises = (0..n)
                .map(|_| {
                    (
                        rng.below(2) as usize,
                        events[rng.below(2) as usize],
                        1 + rng.below(2 * SEG_NS),
                    )
                })
                .collect();
            (raises, rng.below(2) == 1)
        })
        .collect()
}

/// Runs the seeded workload on a two-session server under `restart` and
/// returns each session's final globals.
fn run_server(
    m: &Module,
    events: [EventId; 2],
    case: &ChaosCase,
    policy: FaultPolicy,
    workload: &[(Vec<Raise>, bool)],
    restart: Restart,
) -> Vec<Vec<Value>> {
    let config = || ServerConfig {
        adapt: server_adapt(),
    };
    let mut server = Server::new(config());
    let binds = bindings(m, events[0], events[1]);
    let rt_config = RuntimeConfig {
        fault_policy: policy,
        ..RuntimeConfig::default()
    };
    let ids: Vec<SessionId> = (0..2)
        .map(|_| server.open_session(m.clone(), rt_config, &binds).unwrap())
        .collect();
    // Each session gets the full dispatch-fault plan; the injector's
    // fired-occurrence counts travel inside the durable image.
    for &id in &ids {
        let plan = case.plan.clone();
        server
            .with_runtime(id, move |rt| {
                rt.set_fault_injector(FaultInjector::from_plan(plan));
            })
            .unwrap();
    }

    let submit_segment = |server: &mut Server, ids: &[SessionId], raises: &[Raise]| {
        for &(who, event, delay) in raises {
            server.submit(ids[who], event, delay, &[]).unwrap();
        }
    };
    let kill_restore = |server: Server, bytes: &[u8]| -> Server {
        drop(server); // the crash
        let mut revived = Server::new(config());
        revived.restore_from_bytes(bytes).expect("image restores");
        revived
    };

    for (s, (raises, async_tail)) in workload.iter().enumerate() {
        if let Restart::Crash { seg, partial_ns } = restart {
            if seg == s {
                let bytes = server.snapshot_to_bytes();
                // Doomed partial replay of this segment: everything it
                // does dies with the process.
                submit_segment(&mut server, &ids, raises);
                server.run_until(s as u64 * SEG_NS + partial_ns).unwrap();
                server = kill_restore(server, &bytes);
            }
        }
        submit_segment(&mut server, &ids, raises);
        server.run_until((s as u64 + 1) * SEG_NS).unwrap();
        if *async_tail {
            let event = events[0];
            server
                .with_runtime(ids[0], move |rt| {
                    rt.raise(event, RaiseMode::Async, &[]).unwrap();
                })
                .unwrap();
        }
        if restart == Restart::Boundaries {
            let bytes = server.snapshot_to_bytes();
            server = kill_restore(server, &bytes);
        }
    }
    // Final settle: drain trailing timers and the queued async raises.
    server
        .run_until(SEGMENTS as u64 * SEG_NS + 3 * SEG_NS)
        .unwrap();

    let n_globals = m.globals.len();
    ids.iter()
        .map(|&id| {
            server
                .with_runtime(id, move |rt| {
                    (0..n_globals)
                        .map(|i| rt.global(pdo_ir::GlobalId::from_index(i)).clone())
                        .collect::<Vec<Value>>()
                })
                .unwrap()
        })
        .collect()
}

#[test]
fn server_crash_restart_is_invisible_to_plain_sessions() {
    let (m, events) = two_chain_module();
    let base = chaos_seed() ^ 0x0D1E_0F5E;
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 4, 40);
        let workload = server_workload(case.seed, events);
        let mut crash_rng = SplitMix::new(case.seed ^ 0x000C_4A54);
        let crash = Restart::Crash {
            seg: crash_rng.below(SEGMENTS as u64) as usize,
            partial_ns: 1 + crash_rng.below(SEG_NS - 2),
        };
        for policy in POLICIES {
            let straight = run_server(&m, events, &case, policy, &workload, Restart::Straight);
            let boundaries = run_server(&m, events, &case, policy, &workload, Restart::Boundaries);
            assert_eq!(
                straight, boundaries,
                "restore-at-every-boundary diverged ({policy:?})\n\
                 replay: CHAOS_SEED={} CHAOS_CASES=1 cargo test --test chaos_restart",
                case.seed
            );
            let crashed = run_server(&m, events, &case, policy, &workload, crash);
            assert_eq!(
                straight, crashed,
                "mid-epoch crash sweep diverged ({policy:?}, {crash:?})\n\
                 replay: CHAOS_SEED={} CHAOS_CASES=1 cargo test --test chaos_restart",
                case.seed
            );
        }
    }
}

// --- CTP endpoints --------------------------------------------------------

const CTP_MESSAGES: usize = 5;
const CTP_STEP_NS: u64 = 60_000_000;

/// Epochs aligned with the per-message deadlines, so every boundary
/// restore happens with a drained trace window.
fn ctp_adapt() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(8);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: CTP_STEP_NS,
        min_fresh_events: 16,
        opts,
        ..AdaptConfig::default()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CtpObs {
    delivered: Vec<u8>,
    stats: pdo_ctp::CtpStats,
    error: Option<String>,
}

fn ctp_fault_events(program: &EventProgram) -> Vec<EventId> {
    [
        "SendMsg",
        "SegmentAcked",
        "SegmentTimeout",
        "ControllerClkL",
    ]
    .iter()
    .map(|name| program.module.event_by_name(name).expect("CTP event"))
    .collect()
}

fn ctp_payloads(case_seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix::new(case_seed ^ 0x7A71_0AD5);
    (0..CTP_MESSAGES)
        .map(|_| {
            let len = 1 + rng.below(300) as usize;
            (0..len).map(|_| rng.below(256) as u8).collect()
        })
        .collect()
}

/// What a CTP crash preserves: the runtime/engine capture plus the
/// endpoint-internal link state (unacked segments, in-flight wire,
/// retry ledger, receiver reassembly).
struct CtpCapture {
    cap: oracle::SessionCapture,
    link: pdo_ctp::CtpLinkState,
}

fn capture_ctp(e: &CtpEndpoint, engine: &Engine, prog: &EventProgram) -> CtpCapture {
    CtpCapture {
        cap: capture_session(e.runtime(), prog.module.globals.len(), engine),
        link: e.export_link(),
    }
}

/// Builds a fresh endpoint from a capture: link state through the
/// endpoint (no `open()` — restored sessions resume, they don't re-run
/// setup), everything else through the shared oracle restore.
fn restore_ctp(
    snap: CtpCapture,
    prog: &EventProgram,
    params: CtpParams,
    policy: FaultPolicy,
) -> (CtpEndpoint, Engine) {
    let mut ne = CtpEndpoint::new(prog, params).expect("rebuilt endpoint");
    ne.restore_link(snap.link);
    let ng = restore_session(
        ne.runtime_mut(),
        prog.module.clone(),
        ctp_adapt(),
        policy,
        snap.cap,
    );
    (ne, ng)
}

fn run_ctp(
    prog: &EventProgram,
    case: &ChaosCase,
    policy: FaultPolicy,
    payloads: &[Vec<u8>],
    restart: Restart,
) -> Observed<CtpObs> {
    let params = CtpParams {
        link_faults: case.wire,
        ..CtpParams::default()
    };
    let mut e = CtpEndpoint::new(prog, params).expect("endpoint");
    arm_tracing_and_histograms(e.runtime_mut());
    e.runtime_mut().set_fault_policy(policy);
    e.runtime_mut()
        .set_fault_injector(FaultInjector::from_plan(case.plan.iter().copied()));
    let mut engine = AdaptiveEngine::attach_new(e.runtime_mut(), ctp_adapt());

    let mut error = None;
    'run: {
        if let Err(err) = e.open() {
            error = Some(err);
            break 'run;
        }
        for (i, p) in payloads.iter().enumerate() {
            if let Restart::Crash { seg, partial_ns } = restart {
                if seg == i {
                    // Boundary capture, then a doomed partial segment
                    // whose outcome (errors included) dies with the
                    // process; the restore rewinds to the capture.
                    let snap = capture_ctp(&e, &engine, prog);
                    let _ = e.send(p);
                    let _ = e.run_until(i as u64 * CTP_STEP_NS + partial_ns);
                    drop(engine);
                    drop(e);
                    let (ne, ng) = restore_ctp(snap, prog, params, policy);
                    e = ne;
                    engine = ng;
                }
            }
            if let Err(err) = e.send(p) {
                error = Some(err);
                break 'run;
            }
            if let Err(err) = e.run_until((i as u64 + 1) * CTP_STEP_NS) {
                error = Some(err);
                break 'run;
            }
            if restart == Restart::Boundaries {
                let snap = capture_ctp(&e, &engine, prog);
                drop(engine);
                drop(e);
                let (ne, ng) = restore_ctp(snap, prog, params, policy);
                e = ne;
                engine = ng;
            }
        }
        if let Err(err) = e.drain(400_000_000) {
            error = Some(err);
        }
    }

    let obs = CtpObs {
        delivered: e.received_payload(),
        stats: e.stats(),
        error: error.map(|err| format!("{err:?}")),
    };
    drop(engine);
    observe_external(e.runtime(), prog.module.globals.len(), obs)
}

#[test]
fn ctp_crash_restart_is_invisible() {
    let program = ctp_program();
    let events = ctp_fault_events(&program);
    let base = chaos_seed() ^ 0x0D1E_C791;
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 5, 20);
        let payloads = ctp_payloads(case.seed);
        let mut crash_rng = SplitMix::new(case.seed ^ 0x000C_4A54);
        let crash = Restart::Crash {
            seg: crash_rng.below(CTP_MESSAGES as u64) as usize,
            partial_ns: 1 + crash_rng.below(CTP_STEP_NS - 2),
        };
        for policy in POLICIES {
            let reference = run_ctp(&program, &case, policy, &payloads, Restart::Straight);
            for (form, restart) in [
                ("ctp-boundaries", Restart::Boundaries),
                ("ctp-crash", crash),
            ] {
                let observed = run_ctp(&program, &case, policy, &payloads, restart);
                let ctx = CaseContext {
                    substrate: "restart",
                    chain_form: form,
                    policy,
                    case: &case,
                };
                assert_equivalent(&ctx, &reference, &observed);
            }
        }
    }
}

// --- SecComm endpoint pairs over a persistent channel ---------------------

const SEC_MESSAGES: usize = 8;
const SEC_STEP_NS: u64 = 30_000_000;

fn sec_adapt() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(8);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: SEC_STEP_NS,
        min_fresh_events: 16,
        opts,
        ..AdaptConfig::default()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SecObs {
    delivered: Vec<Vec<u8>>,
    mac_dropped: u64,
    mac_failures: u64,
    wire: WireStats,
    errors: Vec<String>,
}

fn sec_payloads(case_seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix::new(case_seed ^ 0x5EC_C033);
    (0..SEC_MESSAGES)
        .map(|_| {
            let len = rng.below(240) as usize;
            (0..len).map(|_| rng.below(256) as u8).collect()
        })
        .collect()
}

/// Kills one side and rebuilds it around the surviving channel.
fn rebuild_sec(
    old: &Endpoint,
    engine: Engine,
    prog: &EventProgram,
    keys: &Keys,
    policy: FaultPolicy,
) -> (Endpoint, Engine) {
    let cap = capture_session(old.runtime(), prog.module.globals.len(), &engine);
    let wire = old.export_wire();
    drop(engine);
    let mut ne = Endpoint::new(prog, keys).expect("rebuilt endpoint");
    ne.restore_wire(wire);
    let ng = restore_session(
        ne.runtime_mut(),
        prog.module.clone(),
        sec_adapt(),
        policy,
        cap,
    );
    (ne, ng)
}

fn run_sec(
    prog: &EventProgram,
    case: &ChaosCase,
    policy: FaultPolicy,
    payloads: &[Vec<u8>],
    restart: Restart,
) -> (Observed<()>, Observed<SecObs>) {
    let keys = Keys::default();
    let from_user = prog.module.event_by_name("msgFromUser").expect("event");
    let from_net = prog.module.event_by_name("msgFromNet").expect("event");
    let mut tx = Endpoint::new(prog, &keys).expect("tx");
    let mut rx = Endpoint::new(prog, &keys).expect("rx");
    let prepare = |ep: &mut Endpoint, side: EventId| -> Engine {
        let rt = ep.runtime_mut();
        arm_tracing_and_histograms(rt);
        rt.set_fault_policy(policy);
        rt.set_fault_injector(FaultInjector::from_plan(
            case.plan.iter().filter(|s| s.event == side).copied(),
        ));
        AdaptiveEngine::attach_new(rt, sec_adapt())
    };
    let mut tx_engine = prepare(&mut tx, from_user);
    let mut rx_engine = prepare(&mut rx, from_net);

    let mut ch = LossyChannel::new(tx, rx, case.wire);
    let mut errors = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        if let Err(e) = ch.send(payload) {
            errors.push(format!("send {i}: {e:?}"));
        }
        ch.tick(SEC_STEP_NS);
        if restart == Restart::Boundaries {
            // Both processes die at the epoch boundary; the channel — the
            // outside world — survives and the rebuilt endpoints resume
            // the conversation with carried keys, wire state, and
            // MAC-failure counters.
            let (ntx, ntg) = rebuild_sec(ch.tx(), tx_engine, prog, &keys, policy);
            let (nrx, nrg) = rebuild_sec(ch.rx(), rx_engine, prog, &keys, policy);
            tx_engine = ntg;
            rx_engine = nrg;
            let _old = ch.swap_endpoints(ntx, nrx);
        }
    }
    if let Err(e) = ch.settle() {
        errors.push(format!("settle: {e:?}"));
    }

    let obs = SecObs {
        delivered: ch.delivered().to_vec(),
        mac_dropped: ch.mac_dropped(),
        mac_failures: ch.rx().mac_failures(),
        wire: ch.wire_stats(),
        errors,
    };
    drop((tx_engine, rx_engine));
    let base_globals = prog.module.globals.len();
    (
        observe_external(ch.tx().runtime(), base_globals, ()),
        observe_external(ch.rx().runtime(), base_globals, obs),
    )
}

#[test]
fn seccomm_crash_restart_is_invisible() {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_FULL).expect("full config");
    let events: Vec<EventId> = ["msgFromUser", "msgFromNet"]
        .iter()
        .map(|name| program.module.event_by_name(name).expect("event"))
        .collect();
    let base = chaos_seed() ^ 0x00D1_E5EC;
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 5, SEC_MESSAGES as u64);
        let payloads = sec_payloads(case.seed);
        for policy in POLICIES {
            let (ref_tx, ref_rx) = run_sec(&program, &case, policy, &payloads, Restart::Straight);
            let (obs_tx, obs_rx) = run_sec(&program, &case, policy, &payloads, Restart::Boundaries);
            let ctx = CaseContext {
                substrate: "restart",
                chain_form: "seccomm-boundaries",
                policy,
                case: &case,
            };
            assert_equivalent(&ctx, &ref_tx, &obs_tx);
            assert_equivalent(&ctx, &ref_rx, &obs_rx);
        }
    }
}
