//! Crash-restart conformance (DESIGN.md §14): killing a session at an
//! epoch boundary and restoring it from its snapshot must be invisible
//! in every external observable. For each seeded chaos case, a straight
//! run is compared against (a) a run restored from a snapshot at *every*
//! epoch boundary and (b) a run that crashes at a drawn mid-epoch point,
//! discards the partial work, and resumes from the last boundary
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
//! cost counters, robustness counters and the live trace die with the
//! process by design.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    adapt_config, capture_session, ctp, observe_external, prepare, restore_session, seccomm, sweep,
    two_chain_module, Chains, ChaosCase, Engine, Observed, Schedule, Seeded, SessionCapture,
};
use pdo::AdaptConfig;
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpError, CtpLinkState, CtpParams};
use pdo_events::{FaultInjector, FaultPolicy, RuntimeConfig};
use pdo_ir::{EventId, RaiseMode};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, LossyChannel, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, SessionId};

/// When (if ever) the run kills and restores its sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Restart {
    /// Uninterrupted reference run.
    Straight,
    /// Snapshot + kill + restore at every segment boundary (segments are
    /// epoch-aligned).
    Boundaries,
    /// Run the case's crash segment partway to its mid-epoch point,
    /// crash, discard the partial work, restore the boundary snapshot,
    /// and replay.
    Crash,
}

/// Where a case's crash lands: a segment, and how far into it.
#[derive(Debug, Clone, Copy)]
struct CrashAt {
    seg: usize,
    partial_ns: u64,
}

impl CrashAt {
    /// A drawn point of one of `segments` segments of `seg_ns` each.
    fn draw(s: &mut Seeded, segments: usize, seg_ns: u64) -> CrashAt {
        CrashAt {
            seg: s.choose(segments as u64) as usize,
            partial_ns: 1 + s.choose(seg_ns - 2),
        }
    }
}

/// The forms every substrate's restored runs take.
const RESTARTS: [(&str, Restart); 2] = [
    ("boundaries", Restart::Boundaries),
    ("crash", Restart::Crash),
];

// --- plain sessions through the Server's durable image -------------------

const SEGMENTS: usize = 4;
const SEG_NS: u64 = 5_000; // five 1 000 ns adaptation epochs per segment

/// One timed raise: (session index, event, delay). Delays may exceed the
/// segment, leaving timers outstanding at the boundary — the snapshot
/// carries them.
type Raise = (usize, EventId, u64);

/// A server case: the fault plan; per segment, a burst of timed raises
/// plus (on odd draws) one async raise submitted *after* the drain, so it
/// sits in the FIFO across the snapshot; the crash point.
type ServerCase = (ChaosCase, Vec<(Vec<Raise>, bool)>, CrashAt);

fn server_case(s: &mut Seeded, events: [EventId; 2]) -> ServerCase {
    let chaos = ChaosCase::derive(s, &events, 4, 40);
    let workload = (0..SEGMENTS)
        .map(|_| {
            let raises = (0..4 + s.choose(8))
                .map(|_| {
                    let who = s.choose(2) as usize;
                    (who, events[s.choose(2) as usize], 1 + s.choose(2 * SEG_NS))
                })
                .collect();
            (raises, s.choose(2) == 1)
        })
        .collect();
    (chaos, workload, CrashAt::draw(s, SEGMENTS, SEG_NS))
}

/// Runs the case on a two-session server under `restart` and snapshots
/// both sessions.
fn run_server(
    (chaos, workload, crash): &ServerCase,
    policy: FaultPolicy,
    restart: Restart,
) -> (Observed<()>, Observed<()>) {
    let config = || ServerConfig {
        adapt: adapt_config(1_000, 20, 10),
    };
    let mut server = Server::new(config());
    let (m, events, binds) = two_chain_module();
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
        let plan = chaos.plan.clone();
        server
            .with_runtime(id, move |rt| {
                rt.set_fault_injector(FaultInjector::from_plan(plan));
            })
            .unwrap();
    }

    let submit_segment = |server: &mut Server, raises: &[Raise]| {
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
        if restart == Restart::Crash && crash.seg == s {
            let bytes = server.snapshot_to_bytes();
            // Doomed partial replay of this segment: everything it does
            // dies with the process.
            submit_segment(&mut server, raises);
            server
                .run_until(s as u64 * SEG_NS + crash.partial_ns)
                .unwrap();
            server = kill_restore(server, &bytes);
        }
        submit_segment(&mut server, raises);
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
    let mut observe = |id| {
        server
            .with_runtime(id, move |rt| observe_external(rt, n_globals, ()))
            .unwrap()
    };
    (observe(ids[0]), observe(ids[1]))
}

#[test]
fn server_crash_restart_is_invisible_to_plain_sessions() {
    let (_, events, _) = two_chain_module();
    sweep(
        "restart",
        Seeded::sweep(),
        |s| server_case(s, events),
        |&restart, case, policy| run_server(case, policy, restart),
        Restart::Straight,
        &RESTARTS,
    );
}

// --- CTP endpoints --------------------------------------------------------

const CTP_MESSAGES: usize = 5;
const CTP_STEP_NS: u64 = 60_000_000;

/// A CTP case: wire and dispatch faults, the payloads sent, and where
/// the crash lands.
type CtpCase = (ChaosCase, Vec<Vec<u8>>, CrashAt);

/// Epochs aligned with the per-message deadlines, so every boundary
/// restore happens with a drained profile tally.
fn ctp_adapt() -> AdaptConfig {
    adapt_config(CTP_STEP_NS, 16, 8)
}

/// What a CTP crash preserves: the runtime/engine capture plus the
/// endpoint-internal link state (unacked segments, in-flight wire,
/// retry ledger, receiver reassembly).
type CtpCapture = (SessionCapture, CtpLinkState);

fn capture_ctp(e: &CtpEndpoint, engine: &Engine) -> CtpCapture {
    let n_globals = e.runtime().module().globals.len();
    (
        capture_session(e.runtime(), n_globals, Some(engine)),
        e.export_link(),
    )
}

/// Builds a fresh endpoint from a capture: link state through the
/// endpoint (no `open()` — restored sessions resume, they don't re-run
/// setup), everything else through the shared oracle restore.
fn restore_ctp(
    (cap, link): CtpCapture,
    prog: &EventProgram,
    params: CtpParams,
    policy: FaultPolicy,
) -> (CtpEndpoint, Engine) {
    let mut e = CtpEndpoint::new(prog, params).expect("rebuilt endpoint");
    e.restore_link(link);
    let engine = restore_session(e.runtime_mut(), policy, cap, Some(ctp_adapt()));
    (e, engine.expect("an engine capture"))
}

fn run_ctp(
    prog: &EventProgram,
    (chaos, payloads, crash): &CtpCase,
    policy: FaultPolicy,
    restart: Restart,
) -> Observed<ctp::Obs> {
    let params = CtpParams {
        link_faults: chaos.wire,
        ..CtpParams::default()
    };
    let mut e = CtpEndpoint::new(prog, params).expect("endpoint");
    let adaptive = Chains::Adaptive(ctp_adapt());
    let mut engine = prepare(e.runtime_mut(), adaptive, policy, chaos.plan.clone()).unwrap();
    let outcome = (|| -> Result<(), CtpError> {
        e.open()?;
        for (i, p) in payloads.iter().enumerate() {
            if restart == Restart::Crash && crash.seg == i {
                // Boundary capture, then a doomed partial segment whose
                // outcome (errors included) dies with the process; the
                // restore rewinds to the capture.
                let snap = capture_ctp(&e, &engine);
                let _ = e.send(p);
                let _ = e.run_until(i as u64 * CTP_STEP_NS + crash.partial_ns);
                (e, engine) = restore_ctp(snap, prog, params, policy);
            }
            e.send(p)?;
            e.run_until((i as u64 + 1) * CTP_STEP_NS)?;
            if restart == Restart::Boundaries {
                (e, engine) = restore_ctp(capture_ctp(&e, &engine), prog, params, policy);
            }
        }
        e.drain(400_000_000)
    })();
    let obs = ctp::Obs::of(&e, outcome);
    drop(engine);
    observe_external(e.runtime(), prog.module.globals.len(), obs)
}

#[test]
fn ctp_crash_restart_is_invisible() {
    let program = ctp_program();
    let events = ctp::fault_events(&program);
    sweep(
        "restart",
        Seeded::sweep(),
        |s| {
            let chaos = ChaosCase::derive(s, &events, 5, 20);
            let payloads = ctp::payloads(s, CTP_MESSAGES);
            (chaos, payloads, CrashAt::draw(s, CTP_MESSAGES, CTP_STEP_NS))
        },
        |&restart, case, policy| run_ctp(&program, case, policy, restart),
        Restart::Straight,
        &RESTARTS,
    );
}

// --- SecComm endpoint pairs over a persistent channel ---------------------

const SEC_MESSAGES: usize = 8;
const SEC_STEP_NS: u64 = 30_000_000;

fn sec_adapt() -> AdaptConfig {
    adapt_config(SEC_STEP_NS, 16, 8)
}

/// A SecComm case: wire and dispatch faults, and the messages pushed.
type SecCase = (ChaosCase, Vec<Vec<u8>>);

/// Kills one side and rebuilds it around the surviving channel.
fn rebuild_sec(
    old: &Endpoint,
    engine: Engine,
    prog: &EventProgram,
    policy: FaultPolicy,
) -> (Endpoint, Engine) {
    let cap = capture_session(old.runtime(), prog.module.globals.len(), Some(&engine));
    let wire = old.export_wire();
    drop(engine);
    let mut e = Endpoint::new(prog, &Keys::default()).expect("rebuilt endpoint");
    e.restore_wire(wire);
    let engine = restore_session(e.runtime_mut(), policy, cap, Some(sec_adapt()));
    (e, engine.expect("an engine capture"))
}

fn run_sec(
    prog: &EventProgram,
    (chaos, payloads): &SecCase,
    policy: FaultPolicy,
    restart: Restart,
) -> (Observed<()>, Observed<seccomm::Obs>) {
    let keys = Keys::default();
    let [mut tx, mut rx] = [(); 2].map(|_| Endpoint::new(prog, &keys).expect("endpoint"));
    let config = sec_adapt();
    let [mut tx_engine, mut rx_engine] = [(&mut tx, 0), (&mut rx, 1)].map(|(ep, side)| {
        let events = &seccomm::fault_events(prog)[side];
        let plan = chaos.plan.iter().filter(|s| events.contains(&s.event));
        let adaptive = Chains::Adaptive(config);
        prepare(ep.runtime_mut(), adaptive, policy, plan.copied()).unwrap()
    });

    let mut ch = LossyChannel::new(tx, rx, chaos.wire);
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
            let (ntx, ntg) = rebuild_sec(ch.tx(), tx_engine, prog, policy);
            let (nrx, nrg) = rebuild_sec(ch.rx(), rx_engine, prog, policy);
            (tx_engine, rx_engine) = (ntg, nrg);
            let _old = ch.swap_endpoints(ntx, nrx);
        }
    }
    if let Err(e) = ch.settle() {
        errors.push(format!("settle: {e:?}"));
    }

    let obs = seccomm::Obs::of(&ch, errors);
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
    let events = seccomm::fault_events(&program).concat();
    sweep(
        "restart",
        Seeded::sweep(),
        |s| {
            let chaos = ChaosCase::derive(s, &events, 5, SEC_MESSAGES as u64);
            (chaos, seccomm::payloads(s, SEC_MESSAGES))
        },
        |&restart, case, policy| run_sec(&program, case, policy, restart),
        Restart::Straight,
        &[("seccomm-boundaries", Restart::Boundaries)],
    );
}
