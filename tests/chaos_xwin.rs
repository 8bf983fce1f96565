//! Chaos conformance on the X client stack: a GUI workload (popup and
//! scroll gestures, plain clicks) delivered over a faulty server
//! connection that can lose, duplicate, reorder, and garble X events,
//! plus equivalence-safe dispatch faults on the X protocol events and
//! their subsumable children. An optimized client — monolithic chains,
//! per-event chains, or a live adaptation engine — must end with the
//! identical display state, the identical widget globals, and the
//! identical fault sequence and robustness counters as the plain client.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    adapt_config, observe, prepare, sweep, Chains, ChaosCase, Observed, Schedule, Seeded,
};
use pdo::{Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_events::wire::WireStats;
use pdo_events::{FaultPolicy, TraceConfig};
use pdo_xwin::{x_client_program, FaultyXSession, XClient, XState};

/// Gestures per case.
const GESTURES: usize = 30;

/// One scripted gesture (drawn per case).
#[derive(Debug, Clone, Copy)]
enum Gesture {
    Popup(i64, i64),
    PlainClick(i64, i64),
    Scroll(i64),
}

/// Externally visible client state after a session.
#[derive(Debug, Clone, PartialEq)]
struct XObs {
    state: XState,
    wire: WireStats,
    errors: Vec<String>,
}

/// A case: wire and dispatch faults, and the gestures performed.
type Case = (ChaosCase, Vec<Gesture>);

/// Draws a case. Faults key on the two X protocol events, each with its
/// subsumable children.
fn case(program: &EventProgram, s: &mut Seeded) -> Case {
    let events: Vec<_> = [
        "ButtonPress",
        "ActionPopup",
        "PopupMotionCallback",
        "MotionNotify",
        "ActionScroll",
        "ThumbCallback",
        "PositionCallback",
    ]
    .iter()
    .map(|name| program.module.event_by_name(name).expect("X event"))
    .collect();
    let chaos = ChaosCase::derive(s, &events, 6, GESTURES as u64);
    let gestures = (0..GESTURES)
        .map(|_| match s.choose(4) {
            0 | 1 => Gesture::Popup(s.choose(500) as i64, s.choose(500) as i64),
            2 => Gesture::PlainClick(s.choose(500) as i64, s.choose(500) as i64),
            _ => Gesture::Scroll(s.choose(800) as i64),
        })
        .collect();
    (chaos, gestures)
}

/// Profiles the happy-path GUI workload and optimizes, as the end-to-end
/// suite does.
fn optimized(program: &EventProgram, subsume: bool) -> Optimization {
    let mut client = XClient::new(program).expect("profiling client");
    client.runtime_mut().set_trace_config(TraceConfig::full());
    for i in 0..250 {
        client.popup(i, i).expect("popup");
        client.scroll(i).expect("scroll");
    }
    let opts = OptimizeOptions {
        subsume,
        ..OptimizeOptions::new(100)
    };
    oracle::optimized(&program.module, client.runtime_mut(), opts)
}

/// Runs one session of `case` with `chains` and snapshots it.
fn run_case(
    prog: &EventProgram,
    chains: &Chains<'_>,
    (chaos, gestures): &Case,
    policy: FaultPolicy,
) -> Observed<XObs> {
    let mut client = XClient::new(prog).expect("client");
    let engine = prepare(client.runtime_mut(), *chains, policy, chaos.plan.clone());
    let mut session = FaultyXSession::new(client, chaos.wire);
    let mut errors = Vec::new();
    for (i, g) in gestures.iter().enumerate() {
        let outcome = match *g {
            Gesture::Popup(x, y) => session.popup(x, y),
            Gesture::PlainClick(x, y) => session.plain_click(x, y),
            Gesture::Scroll(y) => session.scroll(y),
        };
        if let Err(e) = outcome {
            errors.push(format!("gesture {i}: {e:?}"));
        }
        // Advance the virtual clock between gestures (fires epoch hooks
        // when an engine is attached; a no-op otherwise).
        session.client_mut().runtime_mut().advance_clock(20_000_000);
    }
    if let Err(e) = session.settle() {
        errors.push(format!("settle: {e:?}"));
    }

    let obs = XObs {
        state: session.client().state(),
        wire: session.wire_stats(),
        errors,
    };
    drop(engine);
    observe(
        session.client_mut().runtime_mut(),
        prog.module.globals.len(),
        obs,
    )
}

/// Sweeps `forms` of X clients against the plain client.
fn conformance(forms: &[(&str, Chains<'_>)]) {
    let program = x_client_program();
    sweep(
        "xwin",
        Seeded::sweep(),
        |s| case(&program, s),
        |chains, case, policy| run_case(&program, chains, case, policy),
        Chains::Generic,
        forms,
    );
}

#[test]
fn xwin_chaos_conformance_static_chains() {
    let program = x_client_program();
    let [monolithic, per_event] = [true, false].map(|subsume| optimized(&program, subsume));
    conformance(&[
        ("monolithic", Chains::Static(&monolithic)),
        ("per-event", Chains::Static(&per_event)),
    ]);
}

#[test]
fn xwin_chaos_conformance_adaptive_engine_live() {
    conformance(&[(
        "adaptive",
        Chains::Adaptive(adapt_config(20_000_000, 16, 8)),
    )]);
}
