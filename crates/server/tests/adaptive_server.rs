//! Server-level adaptation properties.
//!
//! The headline property (the issue's acceptance bar): a server session
//! whose workload shifts — chain A hot, then chain B hot — ends with B
//! specialized and A despecialized, while its observational behavior
//! (every global) matches a plain generic runtime fed the identical
//! workload. No caller ever touches the profile, the optimizer, or the
//! quarantine: the per-session daemon does it all inside `run_until`.

use pdo::{AdaptConfig, OptimizeOptions};
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::{Runtime, RuntimeConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_seccomm::{seccomm_protocol, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerConfig};
use proptest::prelude::*;

/// Two independent events; handler `k` of each adds `k` to its event's
/// accumulator, so one dispatch of [h1, h2] adds 3.
fn two_chain_module() -> (Module, [EventId; 2], [pdo_ir::GlobalId; 2]) {
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
    (m, [a, b], [ga, gb])
}

fn bindings(m: &Module, a: EventId, b: EventId) -> Vec<(EventId, FuncId, i32)> {
    vec![
        (a, m.function_by_name("a1").unwrap(), 0),
        (a, m.function_by_name("a2").unwrap(), 1),
        (b, m.function_by_name("b1").unwrap(), 0),
        (b, m.function_by_name("b2").unwrap(), 1),
    ]
}

fn fast_adapt() -> AdaptConfig {
    AdaptConfig {
        epoch_ns: 1_000,
        min_fresh_events: 20,
        opts: OptimizeOptions::new(10),
        ..Default::default()
    }
}

/// One step of a replayable workload: a timed raise (relative delay) or a
/// drain to an absolute deadline.
enum Step {
    Raise(EventId, u64),
    Run(u64),
}

/// The shifting workload as data, so the server session and the generic
/// reference runtime replay it bit-for-bit: `a_burst` timed A-raises
/// 100 ns apart, drain; then `b_burst` timed B-raises, drain.
fn shifting_workload(a: EventId, b: EventId, a_burst: u64, b_burst: u64) -> Vec<Step> {
    let mut plan = Vec::new();
    for i in 0..a_burst {
        plan.push(Step::Raise(a, i * 100 + 100));
    }
    let phase1 = a_burst * 100 + 1;
    plan.push(Step::Run(phase1));
    for i in 0..b_burst {
        plan.push(Step::Raise(b, i * 100 + 100));
    }
    plan.push(Step::Run(phase1 + b_burst * 100 + 1));
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any burst sizes large enough to cross the adaptation
    /// thresholds, the shifted session specializes B, drops A, and stays
    /// observationally identical to the generic runtime.
    #[test]
    fn workload_shift_ends_with_b_specialized_and_behavior_preserved(
        a_burst in 40u64..90,
        b_burst in 180u64..260,
    ) {
        let (m, [a, b], _) = two_chain_module();
        let binds = bindings(&m, a, b);

        // The adaptive server session.
        let mut server = Server::new(ServerConfig {
            adapt: fast_adapt(),
        });
        let sid = server
            .open_session(m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();
        for step in shifting_workload(a, b, a_burst, b_burst) {
            match step {
                Step::Raise(e, delay) => server.submit(sid, e, delay, &[]).unwrap(),
                Step::Run(deadline) => server.run_until(deadline).unwrap(),
            }
        }

        // The generic reference: same module, same bindings, identical
        // raise timing, no adaptation (clock padded the same way the
        // server pads it, so timed raises land at identical instants).
        let mut reference = Runtime::new(m.clone());
        for &(e, h, order) in &binds {
            reference.bind(e, h, order).unwrap();
        }
        for step in shifting_workload(a, b, a_burst, b_burst) {
            match step {
                Step::Raise(e, delay) => {
                    reference
                        .raise(e, RaiseMode::Timed, &[Value::Int(delay as i64)])
                        .unwrap();
                }
                Step::Run(deadline) => {
                    reference.run_until(deadline).unwrap();
                    let now = reference.clock_ns();
                    if deadline > now {
                        reference.advance_clock(deadline - now);
                    }
                }
            }
        }

        let n_globals = m.globals.len();
        let (spec_b, spec_a, fastpath_hits, globals) = server
            .with_runtime(sid, move |rt| {
                let globals: Vec<Value> = (0..n_globals)
                    .map(|i| rt.global(pdo_ir::GlobalId::from_index(i)).clone())
                    .collect();
                (
                    rt.spec().get(b).is_some(),
                    rt.spec().get(a).is_some(),
                    rt.cost.fastpath_hits,
                    globals,
                )
            })
            .unwrap();
        prop_assert!(spec_b, "B specialized after shift");
        prop_assert!(!spec_a, "A despecialized after shift");
        prop_assert!(fastpath_hits > 0, "chains actually used");
        for (i, g) in globals.iter().enumerate() {
            prop_assert_eq!(
                g,
                reference.global(pdo_ir::GlobalId::from_index(i)),
                "global {}",
                i
            );
        }
        let stats = server.with_engine(sid, |e| e.stats()).unwrap();
        prop_assert!(stats.chains_dropped >= 1, "A's chain was dropped");
    }
}

#[test]
fn ctp_sessions_are_server_resident_and_adapt() {
    let program = ctp_program();
    let mut server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 50_000_000,
            min_fresh_events: 40,
            opts: OptimizeOptions::new(10),
            ..Default::default()
        },
    });
    let sid = server
        .open_ctp_session(&program, CtpParams::default())
        .unwrap();

    for i in 0..30u64 {
        let payload = vec![i as u8; 300];
        server
            .with_ctp(sid, move |ep| ep.send(&payload))
            .unwrap()
            .unwrap();
        server.run_until((i + 1) * 40_000_000).unwrap();
    }
    server
        .with_ctp(sid, |ep| ep.drain(2_000_000_000))
        .unwrap()
        .unwrap();

    let stats = server.with_ctp(sid, |ep| ep.stats()).unwrap();
    assert_eq!(stats.segments_acked, stats.segments_sent);
    assert!(stats.segments_sent >= 30);

    let adapt = server.with_engine(sid, |e| e.stats()).unwrap();
    assert!(
        adapt.epochs > 0,
        "epochs fired inside the protocol's run_until"
    );
    assert!(
        adapt.reprofiles >= 1,
        "the hot sender chain was re-profiled"
    );
    let report = server.report();
    let row = report.sessions.iter().find(|s| s.session == sid).unwrap();
    assert!(row.dispatched > 0);
}

#[test]
fn seccomm_sessions_roundtrip_across_adaptation() {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_FULL).unwrap();
    let keys = Keys::default();
    let mut server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 30,
            // Epoch decay halves weights each round, so a per-burst edge
            // weight of ~8 equilibrates around 14; threshold must sit
            // below that for the push/pop chains to stay hot.
            opts: OptimizeOptions::new(4),
            ..Default::default()
        },
    });
    let tx = server.open_seccomm_session(&program, &keys).unwrap();
    let rx = server.open_seccomm_session(&program, &keys).unwrap();

    // Interleave traffic bursts with idle time so adaptation epochs fire;
    // the roundtrip must keep working across the hot swap of the push/pop
    // chains.
    for round in 0..20u64 {
        for k in 0..8u64 {
            let msg = vec![(round * 8 + k) as u8; 48];
            let pushed = msg.clone();
            let wire = server
                .with_seccomm(tx, move |ep| ep.push(&pushed))
                .unwrap()
                .unwrap();
            let plain = server
                .with_seccomm(rx, move |ep| ep.pop(&wire))
                .unwrap()
                .unwrap();
            assert_eq!(plain, msg, "round {round} msg {k}");
        }
        server.run_until((round + 1) * 2_000).unwrap();
    }

    let tx_adapt = server.with_engine(tx, |e| e.stats()).unwrap();
    assert!(tx_adapt.epochs > 0);
    assert!(
        tx_adapt.reprofiles >= 1,
        "the encode chain is hot enough to re-profile: {tx_adapt:?}"
    );
    assert!(
        server.with_runtime(tx, |rt| rt.cost.fastpath_hits).unwrap() > 0,
        "post-swap pushes take the compiled chain"
    );
    // Tampering is still caught after the swap.
    let mut evil = server
        .with_seccomm(tx, |ep| ep.push(b"payload"))
        .unwrap()
        .unwrap();
    evil[0] ^= 0x80;
    assert!(server
        .with_seccomm(rx, move |ep| ep.pop(&evil))
        .unwrap()
        .is_err());
    assert_eq!(server.with_seccomm(rx, |ep| ep.mac_failures()).unwrap(), 1);
}

#[test]
fn mixed_fleet_report_is_consistent() {
    let (m, [a, b], _) = two_chain_module();
    let program = ctp_program();
    let mut server = Server::new(ServerConfig {
        adapt: fast_adapt(),
    });
    let binds = bindings(&m, a, b);
    let plain: Vec<_> = (0..4)
        .map(|_| {
            server
                .open_session(m.clone(), RuntimeConfig::default(), &binds)
                .unwrap()
        })
        .collect();
    let _ctp = server
        .open_ctp_session(&program, CtpParams::default())
        .unwrap();

    for i in 0..60u64 {
        for &sid in &plain {
            server.submit(sid, a, i * 100 + 100, &[]).unwrap();
        }
    }
    server.run_until(60 * 100 + 1).unwrap();

    let report = server.report();
    assert_eq!(report.sessions.len(), 5);
    let session_total: u64 = report.sessions.iter().map(|s| s.dispatched).sum();
    assert_eq!(report.dispatched(), session_total);
    assert!(
        report.dispatched() >= 4 * 60,
        "every plain raise dispatched"
    );
    for &sid in &plain {
        assert!(server
            .with_runtime(sid, move |rt| rt.spec().get(a).is_some())
            .unwrap());
    }
}
