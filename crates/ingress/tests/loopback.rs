//! Live loopback tests: a real `Server` behind a real `Ingress`, spoken
//! to over actual TCP and Unix sockets, for what only real sockets show:
//! the listeners, a real stream's close and shutdown, and the glue from
//! `Ingress` to the server. The admission decisions (admit, defer, shed,
//! rotate, close a slow peer, quiesce) are the connection machine's unit
//! tests in `src/net.rs`, which count them exactly over scripted streams.
//!
//! The ingress (`Ingress::drive`/`serve`) runs on the test's main
//! thread — the `!Send` server never moves — while clients run on
//! spawned threads, or on the same thread between sweeps. Nothing a
//! client does (corruption, disconnecting) may wedge the engine.

use pdo_ingress::proto;
use pdo_ingress::{
    Client, ErrorCode, FrameBuffer, Ingress, IngressConfig, OpenKind, Reply, Request, WireMode,
    MAX_FRAME_LEN,
};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use pdo_server::{Server, ServerConfig};
use pdo_snap::SnapWriter;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One event whose two handlers add 1 and 2 to an accumulator: each
/// dispatch adds 3.
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

fn plain_open(m: &Module, binds: &[(EventId, FuncId, i32)]) -> OpenKind {
    OpenKind::Plain {
        module: m.clone(),
        bindings: binds.iter().map(|&(e, f, o)| (e.0, f.0, o)).collect(),
    }
}

/// Drives the ingress on the current thread until `stop` is set, then
/// returns the ingress and server for post-mortem assertions.
fn run_engine(mut ingress: Ingress, mut server: Server, stop: &AtomicBool) -> (Ingress, Server) {
    ingress
        .serve(&mut server, stop)
        .expect("engine loop must not fail");
    (ingress, server)
}

#[test]
fn tcp_session_lifecycle_over_loopback() {
    let server = Server::new(ServerConfig::default());
    let ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let client_stop = Arc::clone(&stop);
    let client = std::thread::spawn(move || {
        let (m, e, binds) = counter_module();
        let mut c = Client::connect_tcp(addr).unwrap();
        let session = c.open(plain_open(&m, &binds)).unwrap();

        // 10 sync raises: each dispatches both handlers immediately.
        for _ in 0..10 {
            let reply = c.raise(session, e.0, WireMode::Sync, vec![]).unwrap();
            assert_eq!(reply, Reply::Done);
        }
        let stats = c.query(session).unwrap();
        assert_eq!(stats.session, session);
        assert_eq!(stats.dispatched, 10, "10 sync dispatches counted");
        assert_eq!(stats.queued, 0);

        // Async raises sit on the FIFO until the engine's next epoch.
        for _ in 0..3 {
            let reply = c.raise(session, e.0, WireMode::Async, vec![]).unwrap();
            assert_eq!(reply, Reply::Done);
        }

        assert!(c.close(session).unwrap(), "session existed");
        assert!(!c.close(session).unwrap(), "second close is a no-op");
        match c.raise(session, e.0, WireMode::Sync, vec![]).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("expected UnknownSession error, got {other:?}"),
        }
        client_stop.store(true, Ordering::SeqCst);
        session
    });

    let (ingress, server) = run_engine(ingress, server, &stop);
    client.join().unwrap();

    assert!(ingress.admitted_total() >= 16);
    assert_eq!(ingress.replied_total(), ingress.admitted_total());
    assert_eq!(ingress.shed_total(), 0, "nothing shed under light load");
    assert!(server.sessions().is_empty(), "session closed over the wire");

    let m = ingress.metrics();
    assert_eq!(
        m.counter_value("pdo_ingress_admitted_total", &[]),
        Some(ingress.admitted_total())
    );
    let rendered = m.render();
    assert!(rendered.contains("pdo_ingress_shed_total"));
    assert!(rendered.contains("pdo_ingress_request_latency_ns"));
    assert!(m.counter_value("pdo_ingress_connections_opened_total", &[]) >= Some(1));
}

#[test]
fn unix_socket_serves_protocol_sessions() {
    let path = std::env::temp_dir().join(format!("pdo-ingress-test-{}.sock", std::process::id()));
    let server = Server::new(ServerConfig::default());
    let cfg = IngressConfig {
        unix: Some(path.clone()),
        tcp: None,
        ..IngressConfig::default()
    };
    let ingress = Ingress::bind(cfg, 1).unwrap();
    assert!(ingress.tcp_addr().is_none());
    let stop = Arc::new(AtomicBool::new(false));

    let client_stop = Arc::clone(&stop);
    let sock = path.clone();
    let client = std::thread::spawn(move || {
        let mut c = Client::connect_unix(&sock).unwrap();
        let ctp = c.open(OpenKind::Ctp).unwrap();
        let sec = c.open(OpenKind::SecComm).unwrap();
        assert_ne!(ctp, sec);
        let stats = c.query(sec).unwrap();
        assert_eq!(stats.session, sec);
        assert!(c.close(ctp).unwrap());
        assert!(c.close(sec).unwrap());
        client_stop.store(true, Ordering::SeqCst);
    });

    let (mut ingress, _server) = run_engine(ingress, server, &stop);
    client.join().unwrap();
    ingress.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Corruption policy end to end: a checksum-valid frame with a bad body
/// gets a typed error and the connection lives; a stream-level corruption
/// kills that connection only — the server keeps serving everyone else.
#[test]
fn corrupt_frames_never_wedge_the_server() {
    let server = Server::new(ServerConfig::default());
    let ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let c_stop = Arc::clone(&stop);
    let client = std::thread::spawn(move || {
        let (m, e, binds) = counter_module();
        let mut c = Client::connect_tcp(addr).unwrap();
        let session = c.open(plain_open(&m, &binds)).unwrap();

        // Checksum-valid frame, unknown body tag: typed Malformed error,
        // connection survives.
        let mut w = SnapWriter::new();
        w.u64(77);
        w.u8(0xEE);
        c.send_raw(&w.finish_frame(&pdo_ingress::WIRE_MAGIC, pdo_ingress::WIRE_VERSION))
            .unwrap();
        match c.recv_reply().unwrap() {
            (77, Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected typed Malformed error, got {other:?}"),
        }
        let stats = c.query(session).unwrap();
        assert_eq!(stats.session, session, "connection survived bad payload");

        // Stream-level garbage: the ingress must drop this connection.
        c.send_raw(b"\xDE\xAD\xBE\xEF garbage that is no frame")
            .unwrap();
        let dead = matches!(
            c.recv_reply(),
            Err(pdo_ingress::IngressError::Closed) | Err(pdo_ingress::IngressError::Io(_))
        );
        assert!(dead, "corrupt stream must close the connection");

        // A fresh connection is served as if nothing happened.
        let mut c2 = Client::connect_tcp(addr).unwrap();
        let reply = c2.raise(session, e.0, WireMode::Sync, vec![]).unwrap();
        assert_eq!(reply, Reply::Done);
        let stats = c2.query(session).unwrap();
        assert_eq!(stats.dispatched, 1);
        c_stop.store(true, Ordering::SeqCst);
    });

    let (ingress, _server) = run_engine(ingress, server, &stop);
    client.join().unwrap();

    let m = ingress.metrics();
    assert_eq!(
        m.counter_value("pdo_ingress_frames_malformed_total", &[]),
        Some(1)
    );
    assert_eq!(
        m.counter_value(
            "pdo_ingress_connections_closed_total",
            &[("reason", "corrupt")]
        ),
        Some(1)
    );
}

/// Drives `ingress` until `done` holds, for at most 30 s.
fn drive_until(ingress: &mut Ingress, server: &mut Server, done: impl Fn(&Ingress) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done(ingress) {
        assert!(Instant::now() < deadline, "engine loop timed out");
        ingress.drive(server).unwrap();
    }
}

/// A TCP peer that sends three requests and then shuts down its write
/// half gets all three replies, and then the ingress closes the
/// connection as `eof`.
#[test]
fn a_half_closed_tcp_peer_gets_every_reply() {
    let mut server = Server::new(ServerConfig::default());
    let mut ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let mut sock = TcpStream::connect(ingress.tcp_addr().unwrap()).unwrap();
    for id in 0..3 {
        let frame = proto::encode_request(id, &Request::Close { session: 1 << 40 });
        sock.write_all(&frame).unwrap();
    }
    sock.shutdown(Shutdown::Write).unwrap();

    let closed = |ingress: &Ingress, reason| {
        ingress.metrics().counter_value(
            "pdo_ingress_connections_closed_total",
            &[("reason", reason)],
        )
    };
    drive_until(&mut ingress, &mut server, |i| closed(i, "eof") == Some(1));
    let mut bytes = Vec::new();
    sock.read_to_end(&mut bytes).unwrap();
    let mut replies = FrameBuffer::new();
    replies.extend(&bytes);
    for id in 0..3 {
        let frame = replies.next_frame(MAX_FRAME_LEN).unwrap().expect("a reply");
        let reply = proto::decode_reply(frame).unwrap();
        assert_eq!(reply, (id, Reply::Closed { existed: false }));
    }
    assert!(replies.is_empty(), "three replies and nothing else");
    assert_eq!(ingress.admitted_total(), 3);
    assert_eq!(ingress.connections(), 0);
    assert_eq!(closed(&ingress, "io"), Some(0));
}

/// Sends one request on `client` and drives the ingress until it is
/// answered; returns the reply.
fn call(ingress: &mut Ingress, server: &mut Server, client: &mut Client, req: Request) -> Reply {
    let answered = ingress.replied_total() + ingress.shed_total();
    client.send_raw(&proto::encode_request(7, &req)).unwrap();
    drive_until(ingress, server, |i| {
        i.replied_total() + i.shed_total() > answered
    });
    let (id, reply) = client.recv_reply().unwrap();
    assert_eq!(id, 7);
    reply
}

/// `Ingress::quiesce` quiesces the server too, so its queued raises run,
/// and a quiesced ingress sheds over the wire; `resume_admission` reopens
/// both.
#[test]
fn quiesce_reaches_the_server_and_resume_reopens_it() {
    let mut server = Server::new(ServerConfig::default());
    let mut ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let mut c = Client::connect_tcp(ingress.tcp_addr().unwrap()).unwrap();
    let (m, e, binds) = counter_module();
    let session = match call(
        &mut ingress,
        &mut server,
        &mut c,
        Request::Open(plain_open(&m, &binds)),
    ) {
        Reply::Opened { session } => session,
        other => panic!("expected Opened, got {other:?}"),
    };
    let raise = Request::Raise {
        session,
        event: e.0,
        mode: WireMode::Async,
        args: vec![],
    };
    for _ in 0..3 {
        assert_eq!(
            call(&mut ingress, &mut server, &mut c, raise.clone()),
            Reply::Done
        );
    }

    ingress.quiesce(&mut server).unwrap();
    assert!(!server.is_admitting());
    assert!(!ingress.is_admitting());
    let query = Request::Query { session };
    let retry_after_ns = IngressConfig::default().retry_after_ns;
    let shed = call(&mut ingress, &mut server, &mut c, query.clone());
    assert_eq!(shed, Reply::Shed { retry_after_ns });

    ingress.resume_admission(&mut server);
    assert!(server.is_admitting());
    match call(&mut ingress, &mut server, &mut c, query) {
        Reply::Stats(stats) => {
            assert_eq!(stats.queued, 0, "quiesce ran the queued raises");
            assert_eq!(stats.dispatched, 3);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}
