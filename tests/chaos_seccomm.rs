//! Chaos conformance on the real SecComm stack: encrypt/MAC round-trips
//! over a seeded lossy datagram link (drops, duplicates, reorders, and
//! corruption that must land as counted MAC-failure drops, never handler
//! faults), with equivalence-safe dispatch faults injected on both the
//! sender's and receiver's coordinator events and their subsumable
//! children. Optimized endpoints — monolithic, per-event, or hot-swapped
//! by a live adaptation engine — must deliver byte-identical plaintexts,
//! the same drop counts, the same error outcomes, and the same fault
//! sequence and robustness counters as the plain endpoints.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::seccomm::{fault_events, payloads, Obs};
use oracle::{adapt_config, observe, prepare, sweep, Chains, ChaosCase, Observed, Seeded};
use pdo::{Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_events::{FaultPolicy, TraceConfig};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, LossyChannel, CONFIG_FULL};

/// Messages per case.
const MESSAGES: usize = 10;

/// A case: wire and dispatch faults, and the messages pushed.
type Case = (ChaosCase, Vec<Vec<u8>>);

fn program() -> EventProgram {
    seccomm_protocol()
        .instantiate(CONFIG_FULL)
        .expect("full config")
}

/// Profiles happy-path round-trips and optimizes, as the end-to-end suite
/// does.
fn optimized(program: &EventProgram, subsume: bool) -> Optimization {
    let mut ep = Endpoint::new(program, &Keys::default()).expect("profiling endpoint");
    ep.runtime_mut().set_trace_config(TraceConfig::full());
    let wires: Vec<_> = (0..60u8)
        .map(|i| ep.push(&[i; 200]).expect("push"))
        .collect();
    for w in &wires {
        ep.pop(w).expect("pop");
    }
    let opts = OptimizeOptions {
        subsume,
        ..OptimizeOptions::new(30)
    };
    let opt = oracle::optimized(&program.module, ep.runtime_mut(), opts);
    // Its chains hold no superinstruction: the one form they fused, a
    // single-store critical section, runs unfused (`chaos_fusion` covers
    // the two forms that remain).
    assert!(
        !opt.report.events.is_empty(),
        "optimize builds static chains"
    );
    opt
}

/// Runs one session of `case` over a [`LossyChannel`], both endpoints
/// with `chains` and their side's share of the fault plan, and snapshots
/// both sides. Returns `(tx snapshot, rx snapshot)`; the rx snapshot
/// carries the channel's external state.
fn run_case(
    prog: &EventProgram,
    chains: &Chains<'_>,
    (chaos, payloads): &Case,
    policy: FaultPolicy,
) -> (Observed<()>, Observed<Obs>) {
    let keys = Keys::default();
    let [mut tx, mut rx] = [(); 2].map(|_| Endpoint::new(prog, &keys).expect("endpoint"));
    let engines = [&mut tx, &mut rx]
        .into_iter()
        .zip(fault_events(prog))
        .map(|(ep, side)| {
            let plan = chaos.plan.iter().filter(|s| side.contains(&s.event));
            prepare(ep.runtime_mut(), *chains, policy, plan.copied())
        })
        .collect::<Vec<_>>();

    let mut ch = LossyChannel::new(tx, rx, chaos.wire);
    let mut errors = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        if let Err(e) = ch.send(payload) {
            errors.push(format!("send {i}: {e:?}"));
        }
        // Advance both virtual clocks between bursts (fires epoch hooks
        // when an engine is attached; a no-op otherwise).
        ch.tick(30_000_000);
    }
    if let Err(e) = ch.settle() {
        errors.push(format!("settle: {e:?}"));
    }

    let obs = Obs::of(&ch, errors);
    drop(engines);
    let base_globals = prog.module.globals.len();
    (
        observe(ch.tx_mut().runtime_mut(), base_globals, ()),
        observe(ch.rx_mut().runtime_mut(), base_globals, obs),
    )
}

/// Sweeps `forms` of SecComm endpoint pairs against the plain pair.
fn conformance(forms: &[(&str, Chains<'_>)]) {
    let program = program();
    let events = fault_events(&program).concat();
    sweep(
        "seccomm",
        Seeded::sweep(),
        |s| {
            let chaos = ChaosCase::derive(s, &events, 6, MESSAGES as u64);
            (chaos, payloads(s, MESSAGES))
        },
        |chains, case, policy| run_case(&program, chains, case, policy),
        Chains::Generic,
        forms,
    );
}

#[test]
fn seccomm_chaos_conformance_static_chains() {
    let program = program();
    let [monolithic, per_event] = [true, false].map(|subsume| optimized(&program, subsume));
    conformance(&[
        ("monolithic", Chains::Static(&monolithic)),
        ("per-event", Chains::Static(&per_event)),
    ]);
}

#[test]
fn seccomm_chaos_conformance_adaptive_engine_live() {
    conformance(&[(
        "adaptive",
        Chains::Adaptive(adapt_config(30_000_000, 16, 8)),
    )]);
}
