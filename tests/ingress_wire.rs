//! Ingress wire-format properties (DESIGN.md §15), mirroring the durable
//! image's corruption discipline in `snap_roundtrip.rs`: for arbitrary
//! requests and replies of every frame type, encode → decode is
//! identity; and no corruption — every truncation prefix, a flipped bit
//! in every byte, a trailing byte (the shared `pdo_snap::hostile` sweep),
//! garbage — ever panics or wedges anything: it is a typed
//! [`IngressError`], and a live server behind a real socket keeps
//! serving other connections afterwards.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{bytes, Schedule, Seeded};
use pdo_ingress::proto::{decode_reply, decode_request, encode_reply, encode_request, FrameBuffer};
use pdo_ingress::{
    Client, ErrorCode, Ingress, IngressConfig, IngressError, OpenKind, Reply, Request,
    SessionStats, TraceFormat, TraceSelector, WireMode, MAX_FRAME_LEN,
};
use pdo_ir::{BinOp, EventId, FunctionBuilder, Module, Value};
use pdo_server::{Server, ServerConfig};
use pdo_snap::hostile;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A small but non-trivial module parameterized by `n` handlers, so
/// `Open{Plain}` frames carry real IR text of varying shape.
fn param_module(n: usize) -> (Module, EventId, Vec<(u32, u32, i32)>) {
    let mut m = Module::new();
    let e = m.add_event("tick");
    let g = m.add_global("acc", Value::Int(0));
    let mut binds = Vec::new();
    for k in 0..n.max(1) {
        let mut fb = FunctionBuilder::new(format!("h{k}"), 0);
        let v = fb.load_global(g);
        let dd = fb.const_int(k as i64 + 1);
        let o = fb.bin(BinOp::Add, v, dd);
        fb.store_global(g, o);
        fb.ret(None);
        let f = m.add_function(fb.finish());
        binds.push((e.0, f.0, k as i32));
    }
    (m, e, binds)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::bytes),
        "[a-z0-9]{0,16}".prop_map(Value::str),
    ]
}

fn arb_mode() -> impl Strategy<Value = WireMode> {
    prop_oneof![
        Just(WireMode::Sync),
        Just(WireMode::Async),
        any::<u64>().prop_map(|delay_ns| WireMode::Timed { delay_ns }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (1usize..5).prop_map(|n| {
            let (module, _, bindings) = param_module(n);
            Request::Open(OpenKind::Plain { module, bindings })
        }),
        Just(Request::Open(OpenKind::Ctp)),
        Just(Request::Open(OpenKind::SecComm)),
        (
            any::<u64>(),
            any::<u32>(),
            arb_mode(),
            proptest::collection::vec(arb_value(), 0..6)
        )
            .prop_map(|(session, event, mode, args)| Request::Raise {
                session,
                event,
                mode,
                args,
            }),
        any::<u64>().prop_map(|session| Request::Query { session }),
        any::<u64>().prop_map(|session| Request::Close { session }),
        Just(Request::MetricsScrape),
        (any::<u64>(), any::<bool>(), any::<bool>()).prop_map(|(v, by_id, chrome)| {
            Request::TraceDump {
                selector: if by_id {
                    TraceSelector::Id(v)
                } else {
                    TraceSelector::LastN(v)
                },
                format: if chrome {
                    TraceFormat::Chrome
                } else {
                    TraceFormat::Lines
                },
            }
        }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        any::<u64>().prop_map(|session| Reply::Opened { session }),
        Just(Reply::Done),
        proptest::array::uniform::<_, 8>(any::<u64>()).prop_map(|v: [u64; 8]| {
            Reply::Stats(SessionStats {
                session: v[0],
                clock_ns: v[1],
                dispatched: v[2],
                fastpath_hits: v[3],
                guard_misses: v[4],
                chains_live: v[5],
                queued: v[6],
                timers: v[7],
            })
        }),
        any::<bool>().prop_map(|existed| Reply::Closed { existed }),
        any::<u64>().prop_map(|retry_after_ns| Reply::Shed { retry_after_ns }),
        ("[ -~]{0,40}", (0usize..6)).prop_map(|(message, c)| Reply::Error {
            code: [
                ErrorCode::UnknownSession,
                ErrorCode::WrongKind,
                ErrorCode::Runtime,
                ErrorCode::Quiesced,
                ErrorCode::Malformed,
                ErrorCode::Internal,
            ][c],
            message,
        }),
        // Scrape and trace bodies are free-form text on the wire; throw
        // newlines and quotes at them, not just printable ASCII.
        "(?s).{0,120}".prop_map(|text| Reply::MetricsText { text }),
        "(?s).{0,120}".prop_map(|body| Reply::Trace { body }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is identity for every request frame type, under
    /// every request id.
    #[test]
    fn request_roundtrip(req in arb_request(), id in any::<u64>()) {
        let frame = encode_request(id, &req);
        let (rid, back) = decode_request(&frame).expect("own encoding decodes");
        prop_assert_eq!(rid, id);
        prop_assert_eq!(back, req);
    }

    /// encode → decode is identity for every reply frame type.
    #[test]
    fn reply_roundtrip(rep in arb_reply(), id in any::<u64>()) {
        let frame = encode_reply(id, &rep);
        let (rid, back) = decode_reply(&frame).expect("own encoding decodes");
        prop_assert_eq!(rid, id);
        prop_assert_eq!(back, rep);
    }

    /// Every truncation prefix of a valid frame is "need more bytes"
    /// through the stream reassembler — never a spurious frame — and a
    /// typed, stream-fatal error through the direct decoder. So is a
    /// flipped bit in any byte (the checksum, or the framing fields it
    /// protects, catches every one) and a trailing byte.
    #[test]
    fn corrupt_frames_are_typed_errors(req in arb_request(), seed in any::<u64>()) {
        let frame = encode_request(7, &req);
        let intact = hostile::sweep(&frame, |bytes| {
            if bytes.len() < frame.len() {
                let mut fb = FrameBuffer::new();
                fb.extend(bytes);
                match fb.next_frame(MAX_FRAME_LEN) {
                    Ok(None) => {}
                    other => panic!("prefix {} must want more, got {other:?}", bytes.len()),
                }
            }
            decode_request(bytes).map_err(|e| match e {
                IngressError::Frame(e) => e,
                other => panic!("corruption must classify stream-fatal, got {other:?}"),
            })
        });
        prop_assert_eq!(intact, (7, req));

        let mut s = Seeded::new(seed);

        // Garbage of assorted sizes through the reassembler: typed error
        // or more-bytes, never a panic, never a decoded frame.
        for len in [0, 1, 7, 19, 20, 64, 512] {
            let garbage = bytes(&mut s, len..len + 1);
            let mut fb = FrameBuffer::new();
            fb.extend(&garbage);
            if let Ok(Some(f)) = fb.next_frame(MAX_FRAME_LEN) {
                prop_assert!(
                    decode_request(f).is_err(),
                    "random garbage cannot decode as a request"
                );
            }
        }
    }
}

/// The live half of the corruption bar: seeded bit-flipped and truncated
/// frames, sent over real loopback connections, never wedge the server —
/// each bad connection ends in a typed reply, a close, or a stall of
/// that connection only, and a fresh client is always served afterwards.
#[test]
fn corrupted_wire_traffic_leaves_the_server_serving() {
    let mut server = Server::new(ServerConfig::default());
    let mut ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();

    let good = encode_request(
        3,
        &Request::Raise {
            session: 0,
            event: 0,
            mode: WireMode::Async,
            args: vec![Value::Int(9), Value::str("x")],
        },
    );
    let mut s = Seeded::new(0x0D15_EA5E);
    let stop = Arc::new(AtomicBool::new(false));
    let attacker_stop = Arc::clone(&stop);
    let attacker = std::thread::spawn(move || {
        for round in 0..24 {
            let mut c = Client::connect_tcp(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut bad = good.clone();
            if round % 3 == 2 {
                // Truncated frame: the sweep waits for the rest until we
                // hang up, then sees EOF.
                let cut = 1 + s.choose((bad.len() - 1) as u64) as usize;
                bad.truncate(cut);
            } else {
                let pos = s.choose((bad.len() * 8) as u64) as usize;
                bad[pos / 8] ^= 1 << (pos % 8);
            }
            c.send_raw(&bad).unwrap();
            // Whatever comes back — a typed Error reply, EOF/close, or a
            // read timeout — the failure stays on this connection. A
            // success reply would mean the checksum let corruption
            // through.
            match c.recv_reply() {
                Ok((_, Reply::Error { .. })) => {}
                Ok((rid, other)) => panic!("corrupt frame got success {rid} {other:?}"),
                Err(_) => {}
            }
        }
        attacker_stop.store(true, Ordering::SeqCst);
    });

    // Engine runs while the attacker hammers; bad frames close their
    // connection or get a typed error inside the sweep.
    ingress.serve(&mut server, &stop).unwrap();
    attacker.join().unwrap();

    // The server still serves a well-behaved client end to end.
    let stop2 = Arc::new(AtomicBool::new(false));
    let health_stop = Arc::clone(&stop2);
    let health = std::thread::spawn(move || {
        let mut c = Client::connect_tcp(addr).unwrap();
        let session = c.open(OpenKind::Ctp).unwrap();
        let stats = c.query(session).unwrap();
        assert_eq!(stats.session, session);
        assert!(c.close(session).unwrap());
        health_stop.store(true, Ordering::SeqCst);
    });
    ingress.serve(&mut server, &stop2).unwrap();
    health.join().unwrap();

    let m = ingress.metrics();
    let corrupt = m
        .counter_value(
            "pdo_ingress_connections_closed_total",
            &[("reason", "corrupt")],
        )
        .unwrap_or(0);
    assert!(corrupt >= 1, "the sweep produced at least one fatal stream");
}

/// A `Query` for a session that never existed — or existed and was
/// closed — must come back as a typed `Error{UnknownSession}` reply on a
/// live connection: not a hang, not a stream-fatal close, and certainly
/// not an engine panic.
#[test]
fn query_on_unknown_or_closed_session_is_a_typed_error() {
    let mut server = Server::new(ServerConfig::default());
    let mut ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let client_stop = Arc::clone(&stop);
    let client = std::thread::spawn(move || {
        let mut c = Client::connect_tcp(addr).unwrap();

        // Never-opened id: typed error, connection survives.
        match c.request(&Request::Query { session: 424242 }).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("query of unknown session must be a typed error, got {other:?}"),
        }

        // Open → close → query the stale id: same typed error, and the
        // connection is still healthy enough to run a full session
        // lifecycle afterwards.
        let session = c.open(OpenKind::Ctp).unwrap();
        assert!(c.close(session).unwrap());
        match c.request(&Request::Query { session }).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("query of closed session must be a typed error, got {other:?}"),
        }
        let s2 = c.open(OpenKind::Ctp).unwrap();
        let stats = c.query(s2).unwrap();
        assert_eq!(stats.session, s2);
        assert!(c.close(s2).unwrap());
        client_stop.store(true, Ordering::SeqCst);
    });
    ingress.serve(&mut server, &stop).unwrap();
    client.join().unwrap();
}
