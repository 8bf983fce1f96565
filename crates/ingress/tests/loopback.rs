//! Live loopback tests: a real `Server` behind a real `Ingress`, spoken
//! to over actual TCP and Unix sockets by client threads.
//!
//! The ingress (`Ingress::drive`/`serve`) runs on the test's main
//! thread — the `!Send` server never moves — while clients run on
//! spawned threads and coordinate through channels. Every test ends by
//! asserting the server still serves: the acceptance bar is that nothing
//! a client does (flooding, corruption, disconnecting) wedges the engine.

use pdo_ingress::proto;
use pdo_ingress::{Client, ErrorCode, Ingress, IngressConfig, OpenKind, Reply, Request, WireMode};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use pdo_server::{Server, ServerConfig};
use pdo_snap::SnapWriter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
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

/// With a batch of one and a paused engine, a pipelined burst is shed — with
/// typed replies carrying a retry hint, not dropped connections or
/// unbounded queues — and the session keeps working afterwards.
#[test]
fn over_capacity_burst_is_shed_with_typed_replies() {
    const BURST: usize = 200;
    let mut server = Server::new(ServerConfig::default());
    let cfg = IngressConfig {
        max_inflight: 1,
        ..IngressConfig::default()
    };
    let mut ingress = Ingress::bind(cfg, 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();

    let paused = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let (burst_sent_tx, burst_sent_rx) = mpsc::channel::<()>();

    let c_paused = Arc::clone(&paused);
    let c_stop = Arc::clone(&stop);
    let client = std::thread::spawn(move || {
        let (m, e, binds) = counter_module();
        let mut c = Client::connect_tcp(addr).unwrap();
        let session = c.open(plain_open(&m, &binds)).unwrap();

        // Pause the engine, then pipeline a burst far over capacity.
        c_paused.store(true, Ordering::SeqCst);
        for i in 0..BURST {
            let frame = proto::encode_request(
                1000 + i as u64,
                &Request::Raise {
                    session,
                    event: e.0,
                    mode: WireMode::Sync,
                    args: vec![],
                },
            );
            c.send_raw(&frame).unwrap();
        }
        burst_sent_tx.send(()).unwrap();

        // Every request gets exactly one reply: Done or a typed Shed.
        let (mut done, mut shed) = (0usize, 0usize);
        for _ in 0..BURST {
            match c.recv_reply().unwrap().1 {
                Reply::Done => done += 1,
                Reply::Shed { retry_after_ns } => {
                    assert!(retry_after_ns > 0, "shed carries a retry hint");
                    shed += 1;
                }
                other => panic!("expected Done or Shed, got {other:?}"),
            }
        }
        assert_eq!(done + shed, BURST);
        assert!(shed > 0, "burst over capacity must shed");
        assert!(done >= 1, "admitted work still completes");

        // The connection and session survive the storm.
        let stats = c.query(session).unwrap();
        assert_eq!(stats.session, session);
        c_stop.store(true, Ordering::SeqCst);
        (done, shed)
    });

    // Engine: run the open, pause through the burst, then drain.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !stop.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "engine loop timed out");
        if paused.load(Ordering::SeqCst) {
            // Hold the engine until the whole burst is on the socket, so
            // one sweep reads it and admission control alone decides.
            burst_sent_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            paused.store(false, Ordering::SeqCst);
        }
        ingress.drive(&mut server).unwrap();
        std::thread::sleep(Duration::from_micros(100));
    }
    let (done, shed) = client.join().unwrap();

    assert_eq!(ingress.shed_total(), shed as u64);
    // Admitted = the open, every burst request that came back Done, and
    // the final query.
    assert_eq!(ingress.admitted_total() as usize, done + 2);
    // One bound: every shed of the burst found the batch full.
    let metrics = ingress.metrics();
    let shed_by = |reason| metrics.counter_value("pdo_ingress_shed_total", &[("reason", reason)]);
    assert_eq!(shed_by("permits"), Some(shed as u64));
    assert_eq!(shed_by("quiesced"), Some(0));
}

/// Two connections that each pipeline a burst past a small batch both
/// get commands admitted: each sweep starts just past the last
/// connection it admitted from, so a full batch is not always taken by
/// the connection accepted first.
#[test]
fn a_full_batch_rotates_across_connections() {
    const BURST: u64 = 64;
    let mut server = Server::new(ServerConfig::default());
    let cfg = IngressConfig {
        max_inflight: 4,
        ..IngressConfig::default()
    };
    let mut ingress = Ingress::bind(cfg, 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();

    // `Close` of an unknown session needs no setup and is admitted like
    // any other command: it replies `Closed`, or `Shed` when refused.
    let mut conns = [
        Client::connect_tcp(addr).unwrap(),
        Client::connect_tcp(addr).unwrap(),
    ];
    for c in &mut conns {
        for i in 0..BURST {
            let frame = proto::encode_request(i, &Request::Close { session: 1 << 40 });
            c.send_raw(&frame).unwrap();
        }
    }
    // Let both bursts land before the first sweep reads them.
    std::thread::sleep(Duration::from_millis(50));

    let deadline = Instant::now() + Duration::from_secs(30);
    while ingress.admitted_total() + ingress.shed_total() < 2 * BURST {
        assert!(Instant::now() < deadline, "engine loop timed out");
        ingress.drive(&mut server).unwrap();
    }
    for (k, c) in conns.iter_mut().enumerate() {
        let mut admitted = 0;
        for _ in 0..BURST {
            match c.recv_reply().unwrap().1 {
                Reply::Closed { existed: false } => admitted += 1,
                Reply::Shed { .. } => {}
                other => panic!("expected Closed or Shed, got {other:?}"),
            }
        }
        assert!(admitted > 0, "connection {k} had every command shed");
    }
    assert!(ingress.shed_total() > 0, "the bursts overflow the batch");
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

/// A consumer that pipelines requests past `max_outbuf` of replies without
/// reading any is closed with reason `slow`, while another connection is
/// served before and after.
#[test]
fn slow_consumer_is_closed_while_others_are_served() {
    // Metrics scrapes reply with kilobytes each: 2 000 of them are far
    // more than the Unix socket's buffer plus `max_outbuf`.
    const SCRAPES: usize = 2_000;
    let path = std::env::temp_dir().join(format!("pdo-ingress-slow-{}.sock", std::process::id()));
    let mut server = Server::new(ServerConfig::default());
    let cfg = IngressConfig {
        unix: Some(path.clone()),
        max_outbuf: 64 << 10,
        ..IngressConfig::default()
    };
    let mut ingress = Ingress::bind(cfg, 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let (closed_tx, closed_rx) = mpsc::channel::<()>();

    let c_done = Arc::clone(&done);
    let client = std::thread::spawn(move || {
        let (m, e, binds) = counter_module();
        let mut served = Client::connect_tcp(addr).unwrap();
        let session = served.open(plain_open(&m, &binds)).unwrap();

        // Pipeline the scrapes and never read a reply. Once the ingress
        // cuts the connection, the remaining writes fail.
        let mut slow = Client::connect_unix(&path).unwrap();
        let scrape = proto::encode_request(1, &Request::MetricsScrape);
        for _ in 0..SCRAPES {
            if slow.send_raw(&scrape).is_err() {
                break;
            }
        }
        closed_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the slow consumer was never closed");

        let reply = served.raise(session, e.0, WireMode::Sync, vec![]).unwrap();
        assert_eq!(reply, Reply::Done, "the other connection is still served");
        c_done.store(true, Ordering::SeqCst);
    });

    let closed = |ingress: &Ingress, reason| {
        ingress.metrics().counter_value(
            "pdo_ingress_connections_closed_total",
            &[("reason", reason)],
        )
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut told = false;
    while !done.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "engine loop timed out");
        ingress.drive(&mut server).unwrap();
        if !told && closed(&ingress, "slow") == Some(1) {
            closed_tx.send(()).unwrap();
            told = true;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    client.join().unwrap();
    assert_eq!(closed(&ingress, "slow"), Some(1));
    assert_eq!(closed(&ingress, "io"), Some(0));
}

/// Quiesce over the wire: in-flight work drains, later requests shed
/// with reason `quiesced`, and admission resumes cleanly.
#[test]
fn quiesce_drains_then_sheds_then_resumes() {
    let mut server = Server::new(ServerConfig::default());
    let mut ingress = Ingress::bind(IngressConfig::default(), 1).unwrap();
    let addr = ingress.tcp_addr().unwrap();

    let (to_client_tx, to_client_rx) = mpsc::channel::<&'static str>();
    let (to_main_tx, to_main_rx) = mpsc::channel::<&'static str>();

    let client = std::thread::spawn(move || {
        let (m, e, binds) = counter_module();
        let mut c = Client::connect_tcp(addr).unwrap();
        let session = c.open(plain_open(&m, &binds)).unwrap();
        for _ in 0..20 {
            assert_eq!(
                c.raise(session, e.0, WireMode::Async, vec![]).unwrap(),
                Reply::Done
            );
        }
        to_main_tx.send("loaded").unwrap();

        assert_eq!(to_client_rx.recv().unwrap(), "quiesced");
        // Blocking helper surfaces the Shed reply as an unexpected
        // reply error; the raw request path shows it directly.
        let e = c.query(session).unwrap_err();
        assert!(e.to_string().contains("Shed"), "got {e}");
        to_main_tx.send("saw-shed").unwrap();

        assert_eq!(to_client_rx.recv().unwrap(), "resumed");
        let stats = c.query(session).unwrap();
        assert_eq!(stats.queued, 0, "async FIFO drained by quiesce");
        assert!(stats.dispatched >= 20, "queued raises all dispatched");
        to_main_tx.send("done").unwrap();
    });

    // Engine: serve the load, quiesce, verify shed, resume.
    fn pump(
        ingress: &mut Ingress,
        server: &mut Server,
        until: &mpsc::Receiver<&'static str>,
    ) -> &'static str {
        loop {
            ingress.drive(server).unwrap();
            if let Ok(msg) = until.try_recv() {
                return msg;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    assert_eq!(pump(&mut ingress, &mut server, &to_main_rx), "loaded");

    ingress.quiesce(&mut server).unwrap();
    assert!(!server.is_admitting());
    assert!(!ingress.is_admitting());
    to_client_tx.send("quiesced").unwrap();
    assert_eq!(pump(&mut ingress, &mut server, &to_main_rx), "saw-shed");
    assert!(
        ingress.shed_total() >= 1,
        "post-quiesce request was shed, not queued"
    );

    ingress.resume_admission(&mut server);
    to_client_tx.send("resumed").unwrap();
    assert_eq!(pump(&mut ingress, &mut server, &to_main_rx), "done");
    client.join().unwrap();
}
