//! Chaos conformance on the real CTP stack: for any seeded case of wire
//! faults (drop/duplicate/reorder/corrupt, under the endpoint's FEC +
//! retransmission machinery) and equivalence-safe dispatch faults on the
//! chain heads and their subsumable children, a video transfer through an
//! optimized endpoint — monolithic chains, per-event chains, or a live
//! adaptation engine hot-swapping chains mid-session — must be
//! observationally identical to the plain endpoint: same delivered
//! payload, same link statistics, same final globals, same fault sequence
//! and robustness counters.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::ctp::{fault_events, payloads, Obs};
use oracle::{adapt_config, observe, prepare, sweep, Chains, ChaosCase, Observed, Seeded};
use pdo::{Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpError, CtpParams, VideoPlayer};
use pdo_events::{FaultPolicy, TraceConfig};

/// Application messages per case.
const MESSAGES: usize = 6;

/// A case: wire and dispatch faults, and the payloads sent.
type Case = (ChaosCase, Vec<Vec<u8>>);

/// Profiles the happy-path video workload and optimizes, as the end-to-end
/// suite does.
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
    let opts = OptimizeOptions {
        subsume,
        ..OptimizeOptions::new(90)
    };
    let opt = oracle::optimized(&program.module, e.runtime_mut(), opts);
    assert!(
        !opt.report.fused.is_empty(),
        "the static chains run fused code"
    );
    opt
}

/// Runs one session of `case` with `chains` and snapshots it.
fn run_case(
    prog: &EventProgram,
    chains: &Chains<'_>,
    (chaos, payloads): &Case,
    policy: FaultPolicy,
) -> Observed<Obs> {
    let params = CtpParams {
        link_faults: chaos.wire,
        ..CtpParams::default()
    };
    let mut e = CtpEndpoint::new(prog, params).expect("endpoint");
    let engine = prepare(e.runtime_mut(), *chains, policy, chaos.plan.clone());
    let outcome = (|| -> Result<(), CtpError> {
        e.open()?;
        for (i, p) in payloads.iter().enumerate() {
            e.send(p)?;
            e.run_until((i as u64 + 1) * 60_000_000)?;
        }
        e.drain(400_000_000)
    })();
    let obs = Obs::of(&e, outcome);
    drop(engine);
    observe(e.runtime_mut(), prog.module.globals.len(), obs)
}

/// Sweeps `forms` of CTP sessions against the plain endpoint.
fn conformance(forms: &[(&str, Chains<'_>)]) {
    let program = ctp_program();
    let events = fault_events(&program);
    sweep(
        "ctp",
        Seeded::sweep(),
        |s| (ChaosCase::derive(s, &events, 6, 24), payloads(s, MESSAGES)),
        |chains, case, policy| run_case(&program, chains, case, policy),
        Chains::Generic,
        forms,
    );
}

#[test]
fn ctp_chaos_conformance_static_chains() {
    let program = ctp_program();
    let [monolithic, per_event] = [true, false].map(|subsume| optimized(&program, subsume));
    conformance(&[
        ("monolithic", Chains::Static(&monolithic)),
        ("per-event", Chains::Static(&per_event)),
    ]);
}

/// Epochs short enough that chains deploy (and faults land) mid-session.
#[test]
fn ctp_chaos_conformance_adaptive_engine_live() {
    conformance(&[(
        "adaptive",
        Chains::Adaptive(adapt_config(40_000_000, 16, 8)),
    )]);
}
