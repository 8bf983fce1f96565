//! Robustness tour: link-level faults with retry/backoff, handler-fault
//! containment, and self-healing specialization.
//!
//! ```text
//! cargo run --release --example fault_containment
//! ```

use pdo::{AdaptConfig, AdaptiveEngine, OptimizeOptions, QuarantineConfig};
use pdo_ctp::{ctp_program, CtpEndpoint, CtpError, CtpParams, LinkFaults};
use pdo_events::{FaultInjector, FaultKind, FaultPolicy, FaultSpec, Runtime, RuntimeConfig};
use pdo_ir::{BinOp, FunctionBuilder, Module, RaiseMode, Value};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, SecCommError, CONFIG_FULL};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    lossy_link()?;
    dead_link();
    despecialize_and_heal();
    tampered_packets()?;
    Ok(())
}

/// 1. A 15%-drop, 3%-corrupt, 2%-reorder link: the positive-ack protocol
///    retransmits with exponential backoff until everything lands, and the
///    receiver releases the payloads in order.
fn lossy_link() -> Result<(), CtpError> {
    let params = CtpParams {
        ack_drop_every: 0,
        link_faults: LinkFaults {
            drop_per_mille: 150,
            corrupt_per_mille: 30,
            reorder_per_mille: 20,
            seed: 0xC0FFEE,
            ..Default::default()
        },
        max_retries: 12,
        ..Default::default()
    };
    let mut e = CtpEndpoint::new(&ctp_program(), params).expect("endpoint");
    e.open()?;
    let mut sent = Vec::new();
    for i in 0..30u8 {
        let msg = vec![i; 700];
        e.send(&msg)?;
        sent.extend_from_slice(&msg);
        e.run_until(u64::from(i + 1) * 50_000_000)?;
    }
    e.drain(30_000_000_000)?;
    let s = e.stats();
    println!(
        "lossy link : sent {} segments, {} retransmissions",
        s.segments_sent, s.retransmissions
    );
    println!(
        "             link dropped {} / corrupted {} / reordered {}",
        s.link_dropped, s.link_corrupted, s.link_reordered
    );
    println!(
        "             receiver: {} delivered, {} dup discarded, {} parity-dropped",
        s.rx_delivered, s.rx_duplicates, s.rx_corrupt_dropped
    );
    assert_eq!(
        e.received_payload(),
        sent,
        "all payloads, in order, no dups"
    );
    assert_eq!(s.segments_acked, s.segments_sent);
    println!("             every payload delivered in order ✔\n");
    Ok(())
}

/// 2. A dead link (100% drop): retries back off exponentially, then the
///    endpoint surfaces `PeerUnreachable` instead of hanging.
fn dead_link() {
    let params = CtpParams {
        ack_drop_every: 0,
        link_faults: LinkFaults {
            drop_per_mille: 1000,
            seed: 1,
            ..Default::default()
        },
        max_retries: 3,
        ..Default::default()
    };
    let mut e = CtpEndpoint::new(&ctp_program(), params).expect("endpoint");
    e.open().expect("open (nothing sent yet)");
    e.send(b"into the void")
        .expect("send enqueues before the link verdict");
    let err = e
        .drain(60_000_000_000)
        .expect_err("a dead link must not converge");
    println!(
        "dead link  : {} retransmissions, then: {err}\n",
        e.stats().retransmissions
    );
    assert!(matches!(err, CtpError::PeerUnreachable));
}

/// 3. Handler-fault containment + self-healing: injected traps despecialize
///    the chain (generic fallback keeps every event correct), the adaptive
///    engine's quarantine backs the event off on the virtual clock, and the
///    chain comes back once the backoff is over.
///
/// The engine is attached through the runtime's *epoch hook*, so profiling,
/// specialization, quarantine and return all run inside `run_until` on
/// virtual-clock epoch boundaries — the caller never calls the engine.
fn despecialize_and_heal() {
    let mut m = Module::new();
    let e = m.add_event("Tick");
    let g = m.add_global("count", Value::Int(0));
    let mut b = FunctionBuilder::new("tick", 0);
    let v = b.load_global(g);
    let one = b.const_int(1);
    let s = b.bin(BinOp::Add, v, one);
    b.store_global(g, s);
    b.ret(None);
    let h = m.add_function(b.finish());

    // A session with containment and an engine that bars an event after
    // two faults, for 1 ms of virtual time the first time.
    let mut rt = Runtime::with_config(
        m,
        RuntimeConfig {
            fault_policy: FaultPolicy::Despecialize,
            ..Default::default()
        },
    );
    rt.bind(e, h, 0).unwrap();
    let engine = AdaptiveEngine::attach_new(
        &mut rt,
        AdaptConfig {
            epoch_ns: 500_000,
            min_fresh_events: 20,
            opts: OptimizeOptions::new(10),
            quarantine: QuarantineConfig {
                fault_threshold: 2,
                base_backoff_ns: 1_000_000,
                ..Default::default()
            },
        },
    );
    // Timed ticks, `gap_ns` apart, run to completion.
    let ticks = |rt: &mut Runtime, n: i64, gap_ns: i64| {
        for i in 1..=n {
            rt.raise(e, RaiseMode::Timed, &[Value::Int(i * gap_ns)])
                .unwrap();
        }
        rt.run_until_idle().unwrap();
    };

    // The happy path: the engine profiles Tick and specializes it.
    ticks(&mut rt, 100, 10_000);
    assert!(rt.spec().get(e).is_some(), "the engine specialized Tick");
    let installed = engine.borrow().stats().chains_installed;

    // Three injected dispatch traps, all contained.
    rt.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
        event: e,
        occurrence: i,
        kind: FaultKind::TrapDispatch,
    })));
    for _ in 0..6 {
        rt.raise(e, RaiseMode::Sync, &[]).unwrap(); // contained: no abort
    }
    println!(
        "containment: 3 traps injected, chain removed = {}, all 106 ticks counted = {:?}",
        rt.spec().get(e).is_none(),
        rt.global(g)
    );
    assert!(rt.spec().get(e).is_none());
    assert_eq!(rt.global(g), &Value::Int(106));

    // Keep the session running on timed ticks: the next epoch quarantines
    // Tick, the backoff expires, the chain comes back — all with zero
    // engine calls from here.
    ticks(&mut rt, 15, 200_000);
    let engine = engine.borrow();
    let until = engine.quarantine().quarantined_until(e);
    let until = until.expect("the fault epoch quarantined Tick");
    println!(
        "healing    : quarantined until t={until}ns (strike {}, backoff on the virtual clock)",
        engine.quarantine().strikes(e)
    );
    assert!(rt.clock_ns() >= until);
    assert!(rt.spec().get(e).is_some(), "Tick is back after its backoff");
    assert_eq!(engine.stats().chains_installed, installed + 1);
    let fast = rt.cost.fastpath_hits;
    rt.raise(e, RaiseMode::Sync, &[]).unwrap();
    println!(
        "             by t={}ns the chain was back ({} install) -> fast-path hits = {}\n",
        rt.clock_ns(),
        engine.stats().chains_installed - installed,
        rt.cost.fastpath_hits
    );
    assert_eq!(rt.cost.fastpath_hits, fast + 1, "Tick is on the fast lane");
    assert_eq!(rt.global(g), &Value::Int(106 + 15 + 1));
}

/// 4. SecComm integrity: packets failing KeyedMD5 verification are dropped
///    and counted — the decode chain never runs on garbage, and the endpoint
///    keeps serving the next good packet.
fn tampered_packets() -> Result<(), SecCommError> {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_FULL).expect("full config");
    let keys = Keys::default();
    let mut tx = Endpoint::new(&program, &keys)?;
    let mut rx = Endpoint::new(&program, &keys)?;

    let good = tx.push(b"the real message")?;
    let mut evil = tx.push(b"the real message")?;
    evil[0] ^= 0x80;

    let verdict = rx.pop(&evil);
    println!("seccomm    : tampered packet -> {}", verdict.unwrap_err());
    println!(
        "             mac_failures = {}, next good packet still decodes: {:?}",
        rx.mac_failures(),
        String::from_utf8_lossy(&rx.pop(&good)?)
    );
    assert_eq!(rx.mac_failures(), 1);
    Ok(())
}
