//! Chaos conformance on the real CTP stack: for any seeded case of wire
//! faults (drop/duplicate/reorder/corrupt, under the endpoint's FEC +
//! retransmission machinery) and equivalence-safe dispatch faults, a video
//! transfer through an optimized endpoint — monolithic chains, per-event
//! chains, or a live adaptation engine hot-swapping chains mid-session —
//! must be observationally identical to the plain endpoint: same delivered
//! payload, same link statistics, same final globals, same fault sequence
//! and robustness counters.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{
    arm_tracing_and_histograms, assert_equivalent, chaos_cases, chaos_seed, observe, CaseContext,
    ChaosCase, Observed, SplitMix, POLICIES,
};
use pdo::{optimize, AdaptConfig, AdaptiveEngine, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpError, CtpParams, VideoPlayer};
use pdo_events::{FaultInjector, FaultPolicy, TraceConfig};
use pdo_ir::EventId;
use pdo_profile::Profile;

/// Application messages per case.
const MESSAGES: usize = 6;

/// Externally visible CTP state: what the receiver model reassembled, the
/// link statistics, and any surfaced session error (e.g. PeerUnreachable).
#[derive(Debug, Clone, PartialEq)]
struct CtpObs {
    delivered: Vec<u8>,
    stats: pdo_ctp::CtpStats,
    error: Option<String>,
}

/// Events whose top-level occurrences the fault plans key on.
fn fault_events(program: &EventProgram) -> Vec<EventId> {
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

/// Deterministic per-case application payloads.
fn case_payloads(case_seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix::new(case_seed ^ 0x7A71_0AD5);
    (0..MESSAGES)
        .map(|_| {
            let len = 1 + rng.below(300) as usize;
            (0..len).map(|_| rng.below(256) as u8).collect()
        })
        .collect()
}

/// Profiles the happy-path video workload and optimizes, as the end-to-end
/// suite does; `fuel_boundaries` keeps fuel exhaustion equivalence-safe.
fn optimized(program: &EventProgram, subsume: bool) -> Optimization {
    let params = CtpParams {
        clk_period_ns: 40_000_000,
        ..CtpParams::default()
    };
    let mut e = CtpEndpoint::new(program, params).expect("profiling endpoint");
    e.open().expect("open");
    e.runtime_mut().set_trace_config(TraceConfig::full());
    let mut player = VideoPlayer::new(e, 25);
    player.play(120).expect("profiling session");
    let mut e = player.into_endpoint();
    let profile = Profile::from_trace(&e.runtime_mut().take_trace(), 90);
    let mut opts = OptimizeOptions::new(90);
    opts.subsume = subsume;
    opts.fuel_boundaries = true;
    let opt = optimize(&program.module, e.runtime().registry(), &profile, &opts);
    assert!(!opt.chains.is_empty(), "CTP must produce compiled chains");
    assert!(
        !opt.report.fused.is_empty(),
        "the static chains must run fused code"
    );
    opt
}

/// Adaptation config for the live-engine runs: epochs short enough that
/// chains deploy (and faults land) mid-session.
fn adapt_config() -> AdaptConfig {
    let mut opts = OptimizeOptions::new(8);
    opts.fuel_boundaries = true;
    AdaptConfig {
        epoch_ns: 40_000_000,
        min_fresh_events: 16,
        opts,
        ..AdaptConfig::default()
    }
}

/// Runs one seeded session and snapshots it. `opt` installs static chains;
/// `adaptive` attaches a live engine instead.
fn run_case(
    prog: &EventProgram,
    base_globals: usize,
    opt: Option<&Optimization>,
    case: &ChaosCase,
    policy: FaultPolicy,
    payloads: &[Vec<u8>],
    adaptive: bool,
) -> Observed<CtpObs> {
    let params = CtpParams {
        link_faults: case.wire,
        ..CtpParams::default()
    };
    let mut e = CtpEndpoint::new(prog, params).expect("endpoint");
    arm_tracing_and_histograms(e.runtime_mut());
    if let Some(o) = opt {
        o.install_chains(e.runtime_mut());
    }
    e.runtime_mut().set_fault_policy(policy);
    e.runtime_mut()
        .set_fault_injector(FaultInjector::from_plan(case.plan.iter().copied()));
    e.runtime_mut().set_trace_config(TraceConfig::full());
    let engine = adaptive.then(|| AdaptiveEngine::attach_new(e.runtime_mut(), adapt_config()));

    let outcome = (|| -> Result<(), CtpError> {
        e.open()?;
        for (i, p) in payloads.iter().enumerate() {
            e.send(p)?;
            e.run_until((i as u64 + 1) * 60_000_000)?;
        }
        e.drain(400_000_000)?;
        Ok(())
    })();
    let obs = CtpObs {
        delivered: e.received_payload(),
        stats: e.stats(),
        error: outcome.err().map(|err| format!("{err:?}")),
    };
    drop(engine);
    observe(e.runtime_mut(), base_globals, obs)
}

#[test]
fn ctp_chaos_conformance_static_chains() {
    let program = ctp_program();
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
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 6, 24);
        let payloads = case_payloads(case.seed);
        for policy in POLICIES {
            let reference = run_case(
                &program,
                base_globals,
                None,
                &case,
                policy,
                &payloads,
                false,
            );
            for (form, opt, opt_program) in &forms {
                let observed = run_case(
                    opt_program,
                    base_globals,
                    Some(opt),
                    &case,
                    policy,
                    &payloads,
                    false,
                );
                let ctx = CaseContext {
                    substrate: "ctp",
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
fn ctp_chaos_conformance_adaptive_engine_live() {
    let program = ctp_program();
    let base_globals = program.module.globals.len();
    let events = fault_events(&program);

    let base = chaos_seed() ^ 0xADA9_71FE;
    for i in 0..chaos_cases() {
        let case = ChaosCase::derive(base.wrapping_add(i), &events, 6, 24);
        let payloads = case_payloads(case.seed);
        for policy in POLICIES {
            let reference = run_case(
                &program,
                base_globals,
                None,
                &case,
                policy,
                &payloads,
                false,
            );
            let observed = run_case(&program, base_globals, None, &case, policy, &payloads, true);
            let ctx = CaseContext {
                substrate: "ctp",
                chain_form: "adaptive",
                policy,
                case: &case,
            };
            assert_equivalent(&ctx, &reference, &observed);
        }
    }
}
