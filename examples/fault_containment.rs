//! Robustness tour: link-level faults with retry/backoff, handler-fault
//! containment, and self-healing specialization.
//!
//! ```text
//! cargo run --release --example fault_containment
//! ```

use pdo::{optimize, OptimizeOptions, QuarantineConfig, SelfHealer};
use pdo_ctp::{ctp_program, CtpEndpoint, CtpError, CtpParams, LinkFaults};
use pdo_events::{
    FaultInjector, FaultKind, FaultPolicy, FaultSpec, Runtime, RuntimeConfig, TraceConfig,
};
use pdo_ir::{BinOp, FunctionBuilder, Module, RaiseMode, Value};
use pdo_profile::Profile;
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, SecCommError, CONFIG_FULL};
use std::cell::RefCell;
use std::rc::Rc;

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
///    the chain (generic fallback keeps every event correct), the quarantine
///    backs the chain off on the virtual clock, and the healer re-installs it.
///
/// The healer is attached through the runtime's *epoch hook*, so the whole
/// quarantine/backoff/re-install cycle runs inside `run_until` on
/// virtual-clock epoch boundaries — the caller never invokes `after_epoch`.
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

    // Profile and optimize the happy path.
    let mut rt = Runtime::new(m.clone());
    rt.bind(e, h, 0).unwrap();
    rt.set_trace_config(TraceConfig::full());
    for _ in 0..40 {
        rt.raise(e, RaiseMode::Sync, &[]).unwrap();
    }
    let profile = Profile::from_trace(&rt.take_trace(), 20);
    let opt = optimize(&m, rt.registry(), &profile, &OptimizeOptions::new(20));

    // Deploy with containment, then inject three dispatch traps.
    let mut fast = Runtime::with_config(
        opt.module.clone(),
        RuntimeConfig {
            fault_policy: FaultPolicy::Despecialize,
            ..Default::default()
        },
    );
    fast.bind(e, h, 0).unwrap();
    opt.install_chains(&mut fast);

    // The healer runs on epoch boundaries of the virtual clock, inside
    // `run_until` — no caller-driven `after_epoch`.
    let healer = Rc::new(RefCell::new(SelfHealer::new(
        QuarantineConfig {
            fault_threshold: 2,
            base_backoff_ns: 1_000_000,
            ..Default::default()
        },
        &opt.chains,
    )));
    let log: Rc<RefCell<Vec<(u64, pdo::HealReport)>>> = Rc::default();
    {
        let healer = Rc::clone(&healer);
        let log = Rc::clone(&log);
        fast.set_epoch_hook(500_000, move |rt, at| {
            let report = healer.borrow_mut().after_epoch(rt);
            if !report.is_empty() {
                log.borrow_mut().push((at, report));
            }
        });
    }

    fast.set_fault_injector(FaultInjector::from_plan((0..3).map(|i| FaultSpec {
        event: e,
        occurrence: i,
        kind: FaultKind::TrapDispatch,
    })));
    for _ in 0..6 {
        fast.raise(e, RaiseMode::Sync, &[]).unwrap(); // contained: no abort
    }
    println!(
        "containment: 3 traps injected, chain removed = {}, all 6 ticks counted = {:?}",
        fast.spec().get(e).is_none(),
        fast.global(g)
    );
    assert_eq!(fast.global(g), &Value::Int(6));

    // Keep the session running on timed ticks: epochs fire inside
    // `run_until`, the healer quarantines, the backoff expires, the chain
    // comes back — all with zero healer calls from here.
    for i in 1..=15i64 {
        fast.raise(e, RaiseMode::Timed, &[Value::Int(i * 200_000)])
            .unwrap();
    }
    fast.run_until_idle().unwrap();

    let log = log.borrow();
    let (at_q, first) = &log[0];
    let (_, until) = first.quarantined[0];
    println!(
        "healing    : epoch at t={at_q}ns quarantined the chain until t={until}ns \
         (backoff on the virtual clock)"
    );
    let reinstalled_at = log
        .iter()
        .find(|(_, r)| r.reinstalled.contains(&e))
        .map(|(at, _)| *at)
        .expect("a later epoch re-installs the chain");
    fast.raise(e, RaiseMode::Sync, &[]).unwrap();
    println!(
        "             epoch at t={reinstalled_at}ns re-installed it -> fast-path hits = {}\n",
        fast.cost.fastpath_hits
    );
    assert_eq!(fast.global(g), &Value::Int(6 + 15 + 1));
    assert!(fast.cost.fastpath_hits >= 1);
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
