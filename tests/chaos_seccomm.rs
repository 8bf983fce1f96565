//! Chaos conformance on the real SecComm stack: encrypt/MAC round-trips
//! over a seeded lossy datagram link (drops, duplicates, reorders, and
//! corruption that must land as counted MAC-failure drops, never handler
//! faults), with equivalence-safe dispatch faults injected on both the
//! sender's and receiver's coordinator events. Optimized endpoints —
//! monolithic, per-event, or hot-swapped by a live adaptation engine —
//! must deliver byte-identical plaintexts, the same drop counts, the same
//! error outcomes, and the same fault sequence and robustness counters as
//! the plain endpoints.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    assert_equivalent, chaos_cases, chaos_seed, observe, CaseContext, ChaosCase, Observed,
    SplitMix, POLICIES,
};
use pdo::{optimize, AdaptConfig, AdaptiveEngine, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_events::wire::WireStats;
use pdo_events::{FaultInjector, FaultPolicy, Runtime, TraceConfig};
use pdo_ir::EventId;
use pdo_profile::Profile;
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, LossyChannel, CONFIG_FULL};
use std::cell::RefCell;
use std::rc::Rc;

/// Messages per case.
const MESSAGES: usize = 10;

/// Externally visible channel state after a session.
#[derive(Debug, Clone, PartialEq)]
struct SecObs {
    delivered: Vec<Vec<u8>>,
    mac_dropped: u64,
    mac_failures: u64,
    wire: WireStats,
    errors: Vec<String>,
}

fn case_payloads(case_seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix::new(case_seed ^ 0x5EC_C033);
    (0..MESSAGES)
        .map(|_| {
            let len = rng.below(240) as usize;
            (0..len).map(|_| rng.below(256) as u8).collect()
        })
        .collect()
}

/// Profiles happy-path round-trips and optimizes, as the end-to-end suite
/// does; `fuel_boundaries` keeps fuel exhaustion equivalence-safe.
fn optimized(program: &EventProgram, keys: &Keys, subsume: bool) -> Optimization {
    let mut ep = Endpoint::new(program, keys).expect("profiling endpoint");
    ep.runtime_mut().set_trace_config(TraceConfig::full());
    let mut wires = Vec::new();
    for i in 0..60u32 {
        wires.push(ep.push(&[i as u8; 200]).expect("push"));
    }
    for w in &wires {
        let _ = ep.pop(w).expect("pop");
    }
    let profile = Profile::from_trace(&ep.runtime_mut().take_trace(), 30);
    let mut opts = OptimizeOptions::new(30);
    opts.subsume = subsume;
    opts.fuel_boundaries = true;
    let opt = optimize(&program.module, ep.runtime().registry(), &profile, &opts);
    assert!(
        !opt.chains.is_empty(),
        "SecComm must produce compiled chains"
    );
    assert!(
        !opt.report.fused.is_empty(),
        "the static chains must run fused code"
    );
    opt
}

fn adapt_config() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(8);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: 30_000_000,
        min_fresh_events: 16,
        opts,
        ..AdaptConfig::default()
    }
}

type Engine = Rc<RefCell<AdaptiveEngine>>;

/// Configures one endpoint for a run: chains or engine, containment
/// policy, and the side's share of the dispatch-fault plan.
fn prepare(
    rt: &mut Runtime,
    opt: Option<&Optimization>,
    policy: FaultPolicy,
    case: &ChaosCase,
    side_event: EventId,
    adaptive: bool,
) -> Option<Engine> {
    oracle::arm_tracing_and_histograms(rt);
    if let Some(o) = opt {
        o.install_chains(rt);
    }
    rt.set_fault_policy(policy);
    rt.set_fault_injector(FaultInjector::from_plan(
        case.plan.iter().filter(|s| s.event == side_event).copied(),
    ));
    rt.set_trace_config(TraceConfig::full());
    adaptive.then(|| AdaptiveEngine::attach_new(rt, adapt_config()))
}

/// Runs one seeded session over a [`LossyChannel`] and snapshots both
/// sides. Returns `(tx snapshot, rx snapshot)`; the rx snapshot carries
/// the channel's external state.
fn run_case(
    prog: &EventProgram,
    base_globals: usize,
    opt: Option<&Optimization>,
    case: &ChaosCase,
    policy: FaultPolicy,
    payloads: &[Vec<u8>],
    adaptive: bool,
) -> (Observed<()>, Observed<SecObs>) {
    let keys = Keys::default();
    let from_user = prog.module.event_by_name("msgFromUser").expect("event");
    let from_net = prog.module.event_by_name("msgFromNet").expect("event");
    let mut tx = Endpoint::new(prog, &keys).expect("tx");
    let mut rx = Endpoint::new(prog, &keys).expect("rx");
    let tx_engine = prepare(tx.runtime_mut(), opt, policy, case, from_user, adaptive);
    let rx_engine = prepare(rx.runtime_mut(), opt, policy, case, from_net, adaptive);

    let mut ch = LossyChannel::new(tx, rx, case.wire);
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

    let obs = SecObs {
        delivered: ch.delivered().to_vec(),
        mac_dropped: ch.mac_dropped(),
        mac_failures: ch.rx_mut().mac_failures(),
        wire: ch.wire_stats(),
        errors,
    };
    drop((tx_engine, rx_engine));
    (
        observe(ch.tx_mut().runtime_mut(), base_globals, ()),
        observe(ch.rx_mut().runtime_mut(), base_globals, obs),
    )
}

fn fault_events(program: &EventProgram) -> Vec<EventId> {
    ["msgFromUser", "msgFromNet"]
        .iter()
        .map(|name| program.module.event_by_name(name).expect("event"))
        .collect()
}

#[test]
fn seccomm_chaos_conformance_static_chains() {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_FULL).expect("full config");
    let base_globals = program.module.globals.len();
    let events = fault_events(&program);
    let keys = Keys::default();
    let forms: Vec<(&str, Optimization, EventProgram)> =
        [("monolithic", true), ("per-event", false)]
            .into_iter()
            .map(|(form, subsume)| {
                let opt = optimized(&program, &keys, subsume);
                let opt_program = program.with_module(opt.module.clone());
                (form, opt, opt_program)
            })
            .collect();

    let base = chaos_seed();
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 6, MESSAGES as u64);
        let payloads = case_payloads(case.seed);
        for policy in POLICIES {
            let (ref_tx, ref_rx) = run_case(
                &program,
                base_globals,
                None,
                &case,
                policy,
                &payloads,
                false,
            );
            for (form, opt, opt_program) in &forms {
                let (obs_tx, obs_rx) = run_case(
                    opt_program,
                    base_globals,
                    Some(opt),
                    &case,
                    policy,
                    &payloads,
                    false,
                );
                let ctx = CaseContext {
                    substrate: "seccomm",
                    chain_form: form,
                    policy,
                    case: &case,
                };
                assert_equivalent(&ctx, &ref_tx, &obs_tx);
                assert_equivalent(&ctx, &ref_rx, &obs_rx);
            }
        }
    }
}

#[test]
fn seccomm_chaos_conformance_adaptive_engine_live() {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_FULL).expect("full config");
    let base_globals = program.module.globals.len();
    let events = fault_events(&program);

    let base = chaos_seed() ^ 0xADA9_71FE;
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 6, MESSAGES as u64);
        let payloads = case_payloads(case.seed);
        for policy in POLICIES {
            let (ref_tx, ref_rx) = run_case(
                &program,
                base_globals,
                None,
                &case,
                policy,
                &payloads,
                false,
            );
            let (obs_tx, obs_rx) =
                run_case(&program, base_globals, None, &case, policy, &payloads, true);
            let ctx = CaseContext {
                substrate: "seccomm",
                chain_form: "adaptive",
                policy,
                case: &case,
            };
            assert_equivalent(&ctx, &ref_tx, &obs_tx);
            assert_equivalent(&ctx, &ref_rx, &obs_rx);
        }
    }
}
