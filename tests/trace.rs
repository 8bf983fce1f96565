//! Causal trace graphs end to end (DESIGN.md §16): every external
//! stimulus mints a trace, every derived action records a span with a
//! parent edge, and the resulting happens-before DAG crosses every
//! layer — ingress front door, runtime dispatch, adaptive engine, and
//! the protocol wire — under one `TraceId`. The acceptance bar is a
//! live 3-session server behind a real TCP ingress whose wire-level
//! `TraceDump` shows all four layers linked in one trace, in both the
//! line format and valid Chrome trace-event JSON.

use pdo::AdaptConfig;
use pdo_events::Runtime;
use pdo_ingress::{
    Client, Ingress, IngressConfig, OpenKind, Reply, TraceFormat, TraceSelector, WireMode,
};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_obs::trace::{
    attribute, critical_path, parse_lines, render_path, trace_ids, DispatchSrc, Span, SpanKind,
};
use pdo_seccomm::{seccomm_protocol, CONFIG_FULL};
use pdo_server::{Server, ServerConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One event, two additive handlers — each dispatch is observable in a
/// global and cheap enough to hammer.
fn counter_module() -> (Module, EventId, Vec<(EventId, FuncId, i32)>) {
    let mut m = Module::new();
    let e = m.add_event("tick");
    let g = m.add_global("acc", Value::Int(0));
    for (name, d) in [("h1", 1i64), ("h2", 2)] {
        let mut fb = FunctionBuilder::new(name, 0);
        let v = fb.load_global(g);
        let dd = fb.const_int(d);
        let o = fb.bin(BinOp::Add, v, dd);
        fb.store_global(g, o);
        fb.ret(None);
        m.add_function(fb.finish());
    }
    let binds = vec![
        (e, m.function_by_name("h1").unwrap(), 0),
        (e, m.function_by_name("h2").unwrap(), 1),
    ];
    (m, e, binds)
}

fn traced_runtime() -> (Runtime, EventId, pdo_obs::trace::TraceStore) {
    let (m, e, binds) = counter_module();
    let mut rt = Runtime::new(m);
    for (ev, f, o) in binds {
        rt.bind(ev, f, o).unwrap();
    }
    let store = rt.enable_tracing();
    (rt, e, store)
}

/// A top-level sync raise is one trace with one span: the dispatch
/// itself, rooting the trace (a sync raise IS its dispatch — no
/// separate raise span, so the hot path stays at one ring write).
#[test]
fn sync_raise_roots_a_trace_with_its_dispatch_span() {
    let (mut rt, e, store) = traced_runtime();
    rt.raise(e, RaiseMode::Sync, &[]).unwrap();

    let spans = store.spans();
    assert!(
        !spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Raise { .. })),
        "sync raises record no separate raise span: {spans:?}"
    );
    let disp = spans
        .iter()
        .find(|s| matches!(s.kind, SpanKind::Dispatch { .. }))
        .expect("dispatch span recorded");
    assert_eq!(disp.parent, None, "external stimulus roots the trace");
    assert!(matches!(
        disp.kind,
        SpanKind::Dispatch {
            event,
            src: DispatchSrc::Sync,
            queued_ns: 0,
            ..
        } if event == e.0
    ));
}

/// Async and timed raises record the scheduling wait: the dispatch span
/// stays parented to the raise that enqueued it, and a timed dispatch
/// carries the virtual-clock delay as `queued_ns`.
#[test]
fn queued_and_timed_dispatches_carry_wait_and_parent() {
    let (mut rt, e, store) = traced_runtime();
    rt.raise(e, RaiseMode::Async, &[]).unwrap();
    rt.raise(e, RaiseMode::Timed, &[Value::Int(5_000)]).unwrap();
    rt.run_until_idle().unwrap();

    let spans = store.spans();
    let raises: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Raise { .. }))
        .collect();
    let dispatches: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Dispatch { .. }))
        .collect();
    assert_eq!(raises.len(), 2);
    assert_eq!(dispatches.len(), 2);
    assert_ne!(
        raises[0].trace, raises[1].trace,
        "each external stimulus mints its own trace"
    );

    for d in &dispatches {
        let parent_raise = raises
            .iter()
            .find(|r| Some(r.id) == d.parent)
            .expect("dispatch parented to the raise that enqueued it");
        assert_eq!(d.trace, parent_raise.trace);
    }
    let timed = dispatches
        .iter()
        .find(|d| {
            matches!(
                d.kind,
                SpanKind::Dispatch {
                    src: DispatchSrc::Timer,
                    ..
                }
            )
        })
        .expect("timer-sourced dispatch");
    assert!(matches!(
        timed.kind,
        SpanKind::Dispatch {
            queued_ns: 5_000,
            ..
        }
    ));
    assert!(dispatches.iter().any(|d| matches!(
        d.kind,
        SpanKind::Dispatch {
            src: DispatchSrc::Queue,
            ..
        }
    )));
}

/// Minimal structural validation of Chrome trace-event JSON without a
/// JSON parser: balanced braces/brackets outside string literals.
fn json_is_balanced(s: &str) -> bool {
    let (mut depth_obj, mut depth_arr) = (0i64, 0i64);
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return false;
        }
    }
    depth_obj == 0 && depth_arr == 0 && !in_str
}

/// The tentpole acceptance test: a live 3-session server (plain, CTP,
/// SecComm) behind a TCP ingress. Sync raises on the SecComm session
/// push frames through `net_send` (wire spans), the ingress epoch cadence
/// drives the adaptive engine hard enough to reprofile (audit spans),
/// and the wire-level `TraceDump` must show one `TraceId` whose spans
/// cover ingress, runtime, adapt, and wire — in the line format and as
/// valid Chrome trace-event JSON.
#[test]
fn one_trace_links_ingress_runtime_adapt_and_wire() {
    let server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 16,
            opts: pdo::OptimizeOptions::new(10),
            ..Default::default()
        },
    });
    let ingress = Ingress::bind(
        IngressConfig {
            // Epoch every few requests so adaptation (and its audit
            // spans) interleaves with the traced raises.
            epoch_every: 4,
            ..IngressConfig::default()
        },
        1,
    )
    .unwrap();
    let addr = ingress.tcp_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let client_stop = Arc::clone(&stop);
    let client = std::thread::spawn(move || {
        let mut c = Client::connect_tcp(addr).unwrap();
        let (m, e, binds) = counter_module();
        let plain = c
            .open(OpenKind::Plain {
                module: m,
                bindings: binds.iter().map(|&(ev, f, o)| (ev.0, f.0, o)).collect(),
            })
            .unwrap();
        let ctp = c.open(OpenKind::Ctp).unwrap();
        let sec = c.open(OpenKind::SecComm).unwrap();

        // The canonical SecComm program is deterministic: instantiate it
        // locally to resolve the user-facing event id.
        let sec_module = seccomm_protocol().instantiate(CONFIG_FULL).unwrap();
        let msg = sec_module.module.event_by_name("msgFromUser").unwrap();

        // Sync raises cascade through the outbound SecComm chain to
        // `net_send` — every one moves a frame, so every trace gets a
        // wire span. Interleave plain raises so a second session adapts.
        for round in 0..8u64 {
            for i in 0..8u64 {
                let payload = vec![(round * 8 + i) as u8; 24];
                let reply = c
                    .raise(sec, msg.0, WireMode::Sync, vec![Value::bytes(payload)])
                    .unwrap();
                assert_eq!(reply, Reply::Done, "seccomm raise dispatches");
            }
            assert_eq!(
                c.raise(plain, e.0, WireMode::Sync, vec![]).unwrap(),
                Reply::Done
            );
        }

        let metrics = c.scrape_metrics().unwrap();
        let lines = c
            .trace_dump(TraceSelector::LastN(64), TraceFormat::Lines)
            .unwrap();

        // Pick a trace covering all four layers from the line dump, then
        // pull the same trace as Chrome JSON.
        let spans = parse_lines(&lines);
        let full = trace_ids(&spans)
            .into_iter()
            .find(|t| {
                let layers: BTreeSet<&str> = spans
                    .iter()
                    .filter(|s| s.trace == *t)
                    .map(|s| s.kind.layer())
                    .collect();
                ["ingress", "runtime", "adapt", "wire"]
                    .iter()
                    .all(|l| layers.contains(l))
            })
            .expect("one trace must link ingress, runtime, adapt, and wire spans");
        let chrome = c
            .trace_dump(TraceSelector::Id(full.0), TraceFormat::Chrome)
            .unwrap();

        assert!(c.close(sec).unwrap());
        assert!(c.close(ctp).unwrap());
        assert!(c.close(plain).unwrap());
        client_stop.store(true, Ordering::SeqCst);
        (metrics, lines, full, chrome)
    });

    let mut server = server;
    let mut ingress = ingress;
    ingress
        .serve(&mut server, &stop)
        .expect("engine loop must not fail");
    let (metrics, lines, full, chrome) = client.join().unwrap();

    // The scrape is the whole deployment: server layers plus the front
    // door's own series in one exposition.
    assert!(metrics.contains("pdo_server_sessions"), "{metrics}");
    assert!(metrics.contains("pdo_ingress_admitted_total"), "{metrics}");
    assert!(
        metrics.contains("pdo_seccomm_frames_sent_total")
            || metrics.contains("pdo_dispatch_latency_ns")
    );

    // Line dump: re-parse and pin the four-layer trace's shape.
    let spans = parse_lines(&lines);
    let trace: Vec<&Span> = spans.iter().filter(|s| s.trace == full).collect();
    let root = trace
        .iter()
        .find(|s| s.parent.is_none())
        .expect("trace has a root");
    assert!(
        matches!(&root.kind, SpanKind::Ingress { request, .. } if request == "raise"),
        "wire-originated traces root at the ingress raise span: {root:?}"
    );
    let audit = trace
        .iter()
        .find(|s| matches!(s.kind, SpanKind::ChainAudit { .. }))
        .expect("adaptive engine audit joined the trace");
    if let SpanKind::ChainAudit { why, .. } = &audit.kind {
        assert!(
            why.contains("fresh_events="),
            "audit spans carry profile evidence, got {why:?}"
        );
    }
    assert!(
        trace
            .iter()
            .any(|s| matches!(&s.kind, SpanKind::Wire { proto, frames, .. }
                if proto == "seccomm" && *frames > 0)),
        "the raise's frames attribute to its trace"
    );

    // Every non-root parent edge resolves within the same trace: the
    // dump is a well-formed happens-before DAG, so the analyzer can walk
    // a critical path and attribute its latency.
    let ids: BTreeSet<u64> = trace.iter().map(|s| s.id.0).collect();
    for s in &trace {
        if let Some(p) = s.parent {
            assert!(ids.contains(&p.0), "dangling parent edge: {s:?}");
        }
    }
    let owned: Vec<Span> = trace.iter().map(|s| (*s).clone()).collect();
    let path = critical_path(&owned, full);
    assert!(!path.is_empty());
    assert_eq!(path[0].parent, None, "critical path starts at the root");
    let attr = attribute(&path);
    let rendered = render_path(&path);
    assert_eq!(
        rendered.lines().count(),
        path.len() + 1,
        "one line per span plus the attribution footer:\n{rendered}"
    );
    assert!(
        rendered.contains(&format!("total={}ns", attr.total_ns())),
        "footer totals the attribution:\n{rendered}"
    );

    // Chrome export: structurally valid JSON, one complete event per
    // span, with all four layers as `tid` lanes under one `pid`.
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(json_is_balanced(&chrome), "unbalanced JSON:\n{chrome}");
    let events = chrome.matches("\"ph\":\"X\"").count();
    assert!(
        events >= trace.len(),
        "chrome dump has at least the line dump's spans ({events} < {})",
        trace.len()
    );
    assert_eq!(
        chrome.matches(&format!("\"pid\":{}", full.0)).count(),
        events,
        "a single-trace dump renders as one process group"
    );
    for layer in ["ingress", "runtime", "adapt", "wire"] {
        assert!(
            chrome.contains(&format!("\"tid\":\"{layer}\"")),
            "layer {layer} missing from chrome export:\n{chrome}"
        );
    }
}
