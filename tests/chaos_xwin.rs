//! Chaos conformance on the X client stack: a GUI workload (popup and
//! scroll gestures, plain clicks) delivered over a faulty server
//! connection that can lose, duplicate, reorder, and garble X events,
//! plus equivalence-safe dispatch faults on the X protocol events. An
//! optimized client — monolithic chains, per-event chains, or a live
//! adaptation engine — must end with the identical display state, the
//! identical widget globals, and the identical fault sequence and
//! robustness counters as the plain client.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    assert_equivalent, chaos_cases, chaos_seed, observe, CaseContext, ChaosCase, Observed,
    SplitMix, POLICIES,
};
use pdo::{optimize, AdaptConfig, AdaptiveEngine, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_events::wire::WireStats;
use pdo_events::{FaultInjector, FaultPolicy, TraceConfig};
use pdo_ir::EventId;
use pdo_profile::Profile;
use pdo_xwin::{x_client_program, FaultyXSession, XClient, XState};

/// Gestures per case.
const GESTURES: usize = 30;

/// One scripted gesture (derived deterministically per case).
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

fn case_gestures(case_seed: u64) -> Vec<Gesture> {
    let mut rng = SplitMix::new(case_seed ^ 0x0077_1DE5);
    (0..GESTURES)
        .map(|_| match rng.below(4) {
            0 | 1 => Gesture::Popup(rng.below(500) as i64, rng.below(500) as i64),
            2 => Gesture::PlainClick(rng.below(500) as i64, rng.below(500) as i64),
            _ => Gesture::Scroll(rng.below(800) as i64),
        })
        .collect()
}

fn fault_events(program: &EventProgram) -> Vec<EventId> {
    ["ButtonPress", "MotionNotify"]
        .iter()
        .map(|name| program.module.event_by_name(name).expect("X event"))
        .collect()
}

/// Profiles the happy-path GUI workload and optimizes, as the end-to-end
/// suite does; `fuel_boundaries` keeps fuel exhaustion equivalence-safe.
fn optimized(program: &EventProgram, subsume: bool) -> Optimization {
    let mut client = XClient::new(program).expect("profiling client");
    client.runtime_mut().set_trace_config(TraceConfig::full());
    for i in 0..250 {
        client.popup(i, i).expect("popup");
        client.scroll(i).expect("scroll");
    }
    let profile = Profile::from_trace(&client.runtime_mut().take_trace(), 100);
    let mut opts = OptimizeOptions::new(100);
    opts.subsume = subsume;
    opts.fuel_boundaries = true;
    let opt = optimize(
        &program.module,
        client.runtime().registry(),
        &profile,
        &opts,
    );
    assert!(
        !opt.chains.is_empty(),
        "X client must produce compiled chains"
    );
    opt
}

fn adapt_config() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(8);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: 20_000_000,
        min_fresh_events: 16,
        opts,
        ..AdaptConfig::default()
    }
}

/// Runs one seeded session and snapshots it.
fn run_case(
    prog: &EventProgram,
    base_globals: usize,
    opt: Option<&Optimization>,
    case: &ChaosCase,
    policy: FaultPolicy,
    gestures: &[Gesture],
    adaptive: bool,
) -> Observed<XObs> {
    let mut client = XClient::new(prog).expect("client");
    oracle::arm_tracing_and_histograms(client.runtime_mut());
    if let Some(o) = opt {
        o.install_chains(client.runtime_mut());
    }
    client.runtime_mut().set_fault_policy(policy);
    client
        .runtime_mut()
        .set_fault_injector(FaultInjector::from_plan(case.plan.iter().copied()));
    client.runtime_mut().set_trace_config(TraceConfig::full());
    let engine = adaptive.then(|| AdaptiveEngine::attach_new(client.runtime_mut(), adapt_config()));

    let mut session = FaultyXSession::new(client, case.wire);
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
    observe(session.client_mut().runtime_mut(), base_globals, obs)
}

#[test]
fn xwin_chaos_conformance_static_chains() {
    let program = x_client_program();
    let base_globals = program.module.globals.len();
    let events = fault_events(&program);
    let forms: Vec<(&str, Optimization, EventProgram)> =
        [("monolithic", true), ("per-event", false)]
            .into_iter()
            .map(|(form, subsume)| {
                let opt = optimized(&program, subsume);
                let opt_program = program.with_module(opt.module.clone());
                (form, opt, opt_program)
            })
            .collect();

    let base = chaos_seed();
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 6, GESTURES as u64);
        let gestures = case_gestures(case.seed);
        for policy in POLICIES {
            let reference = run_case(
                &program,
                base_globals,
                None,
                &case,
                policy,
                &gestures,
                false,
            );
            for (form, opt, opt_program) in &forms {
                let observed = run_case(
                    opt_program,
                    base_globals,
                    Some(opt),
                    &case,
                    policy,
                    &gestures,
                    false,
                );
                let ctx = CaseContext {
                    substrate: "xwin",
                    chain_form: form,
                    policy,
                    case: &case,
                };
                assert_equivalent(&ctx, &reference, &observed);
            }
        }
    }
}

#[test]
fn xwin_chaos_conformance_adaptive_engine_live() {
    let program = x_client_program();
    let base_globals = program.module.globals.len();
    let events = fault_events(&program);

    let base = chaos_seed() ^ 0xADA9_71FE;
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 6, GESTURES as u64);
        let gestures = case_gestures(case.seed);
        for policy in POLICIES {
            let reference = run_case(
                &program,
                base_globals,
                None,
                &case,
                policy,
                &gestures,
                false,
            );
            let observed = run_case(&program, base_globals, None, &case, policy, &gestures, true);
            let ctx = CaseContext {
                substrate: "xwin",
                chain_form: "adaptive",
                policy,
                case: &case,
            };
            assert_equivalent(&ctx, &reference, &observed);
        }
    }
}
