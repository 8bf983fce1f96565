//! End-to-end observability (DESIGN.md §12): the exposition text format
//! is pinned exactly, and a live `pdo-server` run — plain, CTP, and
//! SecComm sessions under one roof — must surface every layer's series
//! in one scrape: per-event dispatch-latency histograms split fast/slow,
//! adaptation gauges, and wire/CTP/SecComm fault counters — while the
//! causal trace records the adaptation decisions behind them.

use pdo::AdaptConfig;
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::wire::WireFaults;
use pdo_events::{FaultInjector, FaultKind, FaultPolicy, FaultSpec, RuntimeConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use pdo_obs::{AuditAction, Histogram, MetricsSnapshot, SpanKind};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerConfig};

/// The render format is a contract (scrapers parse it): pin it exactly.
/// Samples stay below 16 so the log-linear histogram is exact and the
/// quantiles are integers, independent of bucket geometry.
#[test]
fn exposition_text_format_is_pinned() {
    let mut snap = MetricsSnapshot::new();
    snap.gauge("pdo_adapt_chains_live", "Live chains", &[("shard", "0")], 2);
    snap.counter(
        "pdo_wire_faults_total",
        "Wire faults",
        &[("kind", "dropped"), ("shard", "0")],
        3,
    );
    snap.counter(
        "pdo_wire_faults_total",
        "Wire faults",
        &[("kind", "corrupted"), ("shard", "0")],
        1,
    );
    let mut h = Histogram::new();
    for v in 1..=10u64 {
        h.record(v);
    }
    snap.histogram(
        "pdo_dispatch_latency_ns",
        "Dispatch latency",
        &[("event", "1"), ("path", "fast"), ("shard", "0")],
        &h,
    );
    let expected = "\
# HELP pdo_adapt_chains_live Live chains
# TYPE pdo_adapt_chains_live gauge
pdo_adapt_chains_live{shard=\"0\"} 2
# HELP pdo_dispatch_latency_ns Dispatch latency
# TYPE pdo_dispatch_latency_ns summary
pdo_dispatch_latency_ns{event=\"1\",path=\"fast\",shard=\"0\",quantile=\"0.5\"} 5
pdo_dispatch_latency_ns{event=\"1\",path=\"fast\",shard=\"0\",quantile=\"0.9\"} 9
pdo_dispatch_latency_ns{event=\"1\",path=\"fast\",shard=\"0\",quantile=\"0.99\"} 10
pdo_dispatch_latency_ns_sum{event=\"1\",path=\"fast\",shard=\"0\"} 55
pdo_dispatch_latency_ns_count{event=\"1\",path=\"fast\",shard=\"0\"} 10
pdo_dispatch_latency_ns_max{event=\"1\",path=\"fast\",shard=\"0\"} 10
# HELP pdo_wire_faults_total Wire faults
# TYPE pdo_wire_faults_total counter
pdo_wire_faults_total{kind=\"corrupted\",shard=\"0\"} 1
pdo_wire_faults_total{kind=\"dropped\",shard=\"0\"} 3
";
    assert_eq!(snap.render(), expected);
}

/// Two events, two handlers each — the server adaptation workload: enough repetition for chains to install mid-run, so both
/// dispatch lanes (slow before, fast after) accumulate samples.
fn adapt_module() -> (Module, [EventId; 2]) {
    let mut m = Module::new();
    let a = m.add_event("A");
    let b = m.add_event("B");
    let ga = m.add_global("acc_a", Value::Int(0));
    let gb = m.add_global("acc_b", Value::Int(0));
    let adder = |m: &mut Module, name: &str, g, d: i64| {
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
    (m, [a, b])
}

fn bindings(m: &Module, a: EventId, b: EventId) -> Vec<(EventId, FuncId, i32)> {
    vec![
        (a, m.function_by_name("a1").unwrap(), 0),
        (a, m.function_by_name("a2").unwrap(), 1),
        (b, m.function_by_name("b1").unwrap(), 0),
        (b, m.function_by_name("b2").unwrap(), 1),
    ]
}

#[test]
fn live_server_scrape_covers_every_layer() {
    let mut server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: pdo::OptimizeOptions::new(10),
            ..Default::default()
        },
    });

    // Plain session: hammer both events so the engine installs chains
    // mid-run (slow-path samples before, fast-path after).
    let (m, [a, b]) = adapt_module();
    let plain = server
        .open_session(m.clone(), Default::default(), &bindings(&m, a, b))
        .unwrap();
    for i in 0..80u64 {
        server.submit(plain, a, i * 100 + 100, &[]).unwrap();
        server.submit(plain, b, i * 100 + 100, &[]).unwrap();
    }
    server.run_until(80 * 100 + 1).unwrap();

    // CTP session over a seeded faulty link: wire fault counters, CTP
    // transport counters, and backoff gauges. Link faults can surface as
    // session errors (that is the point); metrics survive regardless.
    let ctp = server
        .open_ctp_session(
            &ctp_program(),
            CtpParams {
                link_faults: WireFaults {
                    drop_per_mille: 200,
                    dup_per_mille: 150,
                    reorder_per_mille: 200,
                    corrupt_per_mille: 150,
                    seed: 7,
                },
                ..Default::default()
            },
        )
        .unwrap();
    for i in 0..6u64 {
        let payload = vec![i as u8; 40 + i as usize * 17];
        let _ = server.with_ctp(ctp, move |ep| ep.send(&payload)).unwrap();
        let _ = server.run_until(8_001 + (i + 1) * 50_000_000);
    }

    // SecComm session: a corrupted wire message pushed through the
    // inbound chain must bump the MAC-failure counter.
    let keys = Keys::default();
    let sec_program = seccomm_protocol().instantiate(CONFIG_FULL).unwrap();
    let sec = server.open_seccomm_session(&sec_program, &keys).unwrap();
    let mut sender = Endpoint::new(&sec_program, &keys).unwrap();
    let mut wire = sender.push(b"tamper with me").unwrap();
    let mid = wire.len() / 2;
    wire[mid] ^= 0xFF;
    assert!(server
        .with_seccomm(sec, move |ep| ep.pop(&wire))
        .unwrap()
        .is_err());

    let snap = server.metrics();
    let text = snap.render();

    // Dispatch latency histograms, both lanes, from the live run.
    assert!(text.contains("# TYPE pdo_dispatch_latency_ns summary"));
    assert!(
        text.contains("path=\"fast\"") && text.contains("path=\"slow\""),
        "both dispatch lanes must have latency series:\n{text}"
    );

    // Adaptation gauges.
    let chains_live = snap.gauge_value("pdo_adapt_chains_live", &[]).unwrap_or(0);
    assert!(chains_live >= 1, "the plain session adapted:\n{text}");
    // The profile is counted, not recorded: nothing is drained unread,
    // and no series claims otherwise.
    assert!(
        !text.contains("pdo_profile_trace_"),
        "no profile-trace series:\n{text}"
    );

    // Wire fault counters from the CTP link.
    let wire_faults: u64 = ["dropped", "duplicated", "reordered", "corrupted"]
        .iter()
        .map(|kind| {
            snap.counter_value("pdo_wire_faults_total", &[("kind", kind)])
                .expect("wire fault counters are exported per kind")
        })
        .sum();
    assert!(
        wire_faults > 0,
        "the seeded faulty link misbehaved:\n{text}"
    );
    assert!(
        snap.counter_value("pdo_ctp_segments_sent_total", &[])
            .is_some_and(|v| v > 0),
        "CTP transport counters present:\n{text}"
    );
    assert!(snap.gauge_value("pdo_ctp_backoff_level", &[]).is_some());

    // SecComm MAC failures.
    assert_eq!(
        snap.counter_value("pdo_seccomm_mac_failures_total", &[]),
        Some(1)
    );

    // The session gauge is the live session count.
    assert_eq!(snap.gauge_value("pdo_server_sessions", &[]), Some(3));

    // The trace records the adaptation decision behind the live chain.
    let installs = server
        .trace_spans()
        .into_iter()
        .filter(|s| {
            matches!(
                s.kind,
                SpanKind::ChainAudit {
                    event: Some(_),
                    action: AuditAction::Install,
                    ..
                }
            )
        })
        .count();
    assert!(installs >= 1, "chain installs are audit spans");
}

/// A session's robustness counters count for its life: the engine reads
/// its epoch's evidence from its own tally, so an epoch boundary takes
/// nothing from what a scrape sees.
#[test]
fn server_fault_counters_only_go_up() {
    let mut server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            ..Default::default()
        },
    });
    let (m, [a, b]) = adapt_module();
    let config = RuntimeConfig {
        fault_policy: FaultPolicy::SkipEvent,
        ..Default::default()
    };
    let id = server
        .open_session(m.clone(), config, &bindings(&m, a, b))
        .unwrap();
    let trap = FaultSpec {
        event: a,
        occurrence: 0,
        kind: FaultKind::TrapDispatch,
    };
    server
        .with_runtime(id, |rt| {
            rt.set_fault_injector(FaultInjector::from_plan([trap]))
        })
        .unwrap();

    // One dispatch of A per step; the first traps, before the first
    // epoch boundary, and each later step crosses one more.
    let mut scrapes = Vec::new();
    for step in 0..4u64 {
        server.submit(id, a, 100, &[]).unwrap();
        server.run_until(step * 1_000 + 500).unwrap();
        let snap = server.metrics();
        scrapes.push(
            ["pdo_faults_injected_total", "pdo_dispatch_skipped_total"]
                .map(|name| snap.counter_value(name, &[]).unwrap()),
        );
    }
    let epochs = server.with_engine(id, |e| e.stats().epochs).unwrap();
    assert!(
        epochs >= 3,
        "the scrapes straddle epoch boundaries: {epochs}"
    );
    assert!(
        scrapes
            .windows(2)
            .all(|w| w[1][0] >= w[0][0] && w[1][1] >= w[0][1]),
        "a counter went down across an epoch: {scrapes:?}"
    );
    assert_eq!(
        scrapes,
        vec![[1, 1]; 4],
        "one trap fired, one dispatch skipped"
    );
}
