//! Durable snapshots.
//!
//! Pins the robustness contract: a whole server of every session kind
//! round-trips through `snapshot_to_bytes` / `restore_from_bytes` with
//! sessions resuming where they left off, images are deterministic
//! (restore-then-re-encode is byte-identical), and corrupt images
//! surface typed errors — never panics.

use pdo::{AdaptConfig, OptimizeOptions};
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::{Runtime, RuntimeConfig, RuntimeError};
use pdo_ir::interp::ExecError;
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_obs::SpanKind;
use pdo_seccomm::{seccomm_protocol, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, ServerError, SessionId};

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

/// A mixed fleet survives the full durability cycle: snapshot every
/// session kind, restore into a fresh server, and both the plain
/// accumulators and the protocol endpoints resume exactly. The restored
/// image re-encodes byte-identically, and the persistence counters and
/// per-session restore spans show up in observability.
#[test]
fn snapshot_restore_resumes_every_session_kind() {
    let (m, [a, b], [ga, _]) = two_chain_module();
    let ctp = ctp_program();
    let sec = seccomm_protocol().instantiate(CONFIG_FULL).unwrap();
    let keys = Keys::default();
    let config = || ServerConfig {
        adapt: fast_adapt(),
    };

    let mut server = Server::new(config());
    let binds = bindings(&m, a, b);
    let plain = server
        .open_session(m.clone(), RuntimeConfig::default(), &binds)
        .unwrap();
    let tx = server.open_seccomm_session(&sec, &keys).unwrap();
    let rx = server.open_seccomm_session(&sec, &keys).unwrap();
    let ctp_id = server.open_ctp_session(&ctp, CtpParams::default()).unwrap();

    // Phase 1: drive every kind, then land on an epoch boundary.
    for i in 0..40u64 {
        server.submit(plain, a, i * 100 + 100, &[]).unwrap();
    }
    for k in 0..6u64 {
        let msg = vec![k as u8; 32];
        let wire = server
            .with_seccomm(tx, move |ep| ep.push(&msg))
            .unwrap()
            .unwrap();
        let plain_msg = server
            .with_seccomm(rx, move |ep| ep.pop(&wire))
            .unwrap()
            .unwrap();
        assert_eq!(plain_msg, vec![k as u8; 32]);
    }
    let mut evil = server
        .with_seccomm(tx, |ep| ep.push(b"payload"))
        .unwrap()
        .unwrap();
    evil[0] ^= 0x80;
    assert!(server
        .with_seccomm(rx, move |ep| ep.pop(&evil))
        .unwrap()
        .is_err());
    for i in 0..4u64 {
        let payload = vec![i as u8; 150];
        server
            .with_ctp(ctp_id, move |ep| ep.send(&payload))
            .unwrap()
            .unwrap();
    }
    server
        .with_ctp(ctp_id, |ep| ep.drain(1_000_000_000))
        .unwrap()
        .unwrap();
    server.run_until(1_200_000_000).unwrap();

    let bytes = server.snapshot_to_bytes();
    let acc_before = server
        .with_runtime(plain, move |rt| rt.global(ga).clone())
        .unwrap();
    let ctp_before = server.with_ctp(ctp_id, |ep| ep.stats()).unwrap();

    // Crash: the server dies; a fresh one restores the image.
    drop(server);
    let mut revived = Server::new(config());
    let restored = revived.restore_from_bytes(&bytes).unwrap();
    assert_eq!(restored, vec![plain, tx, rx, ctp_id]);
    assert_eq!(revived.sessions().len(), 4);

    // Deterministic format: re-encoding the restored fleet reproduces
    // the image bit for bit.
    assert_eq!(revived.snapshot_to_bytes(), bytes, "round-trip bytes");

    // Plain state carried: accumulator, then it keeps accumulating.
    assert_eq!(
        revived
            .with_runtime(plain, move |rt| rt.global(ga).clone())
            .unwrap(),
        acc_before
    );
    revived.raise(plain, a, RaiseMode::Sync, &[]).unwrap();
    let Value::Int(n0) = acc_before else {
        panic!("int accumulator")
    };
    assert_eq!(
        revived
            .with_runtime(plain, move |rt| rt.global(ga).clone())
            .unwrap(),
        Value::Int(n0 + 3)
    );

    // SecComm state carried: the MAC-failure counter survived and the
    // restored pair still round-trips traffic under the same keys.
    assert_eq!(revived.with_seccomm(rx, |ep| ep.mac_failures()).unwrap(), 1);
    let wire = revived
        .with_seccomm(tx, |ep| ep.push(b"after-restore"))
        .unwrap()
        .unwrap();
    assert_eq!(
        revived
            .with_seccomm(rx, move |ep| ep.pop(&wire))
            .unwrap()
            .unwrap(),
        b"after-restore".to_vec()
    );

    // CTP state carried: counters resume (not reset) and new traffic
    // still acks completely.
    let ctp_mid = revived.with_ctp(ctp_id, |ep| ep.stats()).unwrap();
    assert_eq!(ctp_mid.segments_sent, ctp_before.segments_sent);
    for i in 0..3u64 {
        let payload = vec![0x5A; 120];
        revived
            .with_ctp(ctp_id, move |ep| ep.send(&payload))
            .unwrap()
            .unwrap();
        revived
            .run_until(1_200_000_000 + (i + 1) * 60_000_000)
            .unwrap();
    }
    revived
        .with_ctp(ctp_id, |ep| ep.drain(3_000_000_000))
        .unwrap()
        .unwrap();
    let ctp_after = revived.with_ctp(ctp_id, |ep| ep.stats()).unwrap();
    assert_eq!(ctp_after.segments_acked, ctp_after.segments_sent);
    assert!(ctp_after.segments_sent >= ctp_before.segments_sent + 3);

    // Adaptation continuity: the restored plain session had profile and
    // counters carried, so epochs keep counting from where they stopped.
    let stats = revived.with_engine(plain, |e| e.stats()).unwrap();
    assert!(stats.epochs > 0, "carried epoch counter: {stats:?}");

    // Fresh ids never collide with restored ones.
    let extra = revived
        .open_session(m.clone(), RuntimeConfig::default(), &binds)
        .unwrap();
    assert!(restored.iter().all(|&id| id != extra));

    // Observability: counters and size/latency histograms mention the
    // cycle, and each restored session's arrival is a span.
    let text = revived.metrics().render();
    assert!(text.contains("pdo_server_snapshots_total 1"));
    assert!(text.contains("pdo_server_restores_total 1"));
    assert!(text.contains("# TYPE pdo_server_snapshot_bytes summary"));
    assert!(text.contains("# TYPE pdo_server_snapshot_encode_wall_ns summary"));
    assert!(text.contains("# TYPE pdo_server_snapshot_decode_wall_ns summary"));
    let arrived: Vec<SessionId> = revived
        .trace_spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Restore { session } => Some(SessionId(session)),
            _ => None,
        })
        .collect();
    assert_eq!(arrived, restored, "one restore span per restored session");
}

/// Graceful shutdown: `quiesce()` before `save()` drains every queued
/// event and timer to a common clock, refuses new work with a typed
/// error, and the image then restores with the drained state — nothing
/// mid-flight to lose. `resume_admission()` reopens the door.
#[test]
fn quiesce_drains_before_save_and_restore_resumes() {
    let (m, [a, b], [ga, _]) = two_chain_module();
    let binds = bindings(&m, a, b);
    let config = || ServerConfig {
        adapt: fast_adapt(),
    };
    let mut server = Server::new(config());
    let id = server
        .open_session(m.clone(), RuntimeConfig::default(), &binds)
        .unwrap();
    let ctp_id = server
        .open_ctp_session(&ctp_program(), CtpParams::default())
        .unwrap();

    // Leave real work in flight: 25 timed events (a dispatch of [a1, a2]
    // adds 3), 13 of them dispatched by advancing to t=1300, plus 4
    // async events sitting undispatched in the FIFO.
    for i in 0..25u64 {
        server.submit(id, a, i * 100 + 100, &[]).unwrap();
    }
    server.run_until(1_300).unwrap();
    for _ in 0..4 {
        server
            .with_runtime(id, move |rt| rt.raise(a, RaiseMode::Async, &[]).unwrap())
            .unwrap();
    }

    let drained_to = server.quiesce().unwrap();
    assert!(!server.is_admitting());
    assert_eq!(
        server.with_runtime(id, |rt| rt.queued_len()).unwrap(),
        0,
        "quiesce drains the FIFO (future timers stay armed — the \
         snapshot carries the timer wheel)"
    );
    assert_eq!(
        server
            .with_runtime(id, move |rt| rt.global(ga).clone())
            .unwrap(),
        Value::Int(13 * 3 + 4 * 3),
        "every due timer and every queued async event dispatched"
    );
    let clock = server.with_runtime(id, |rt| rt.clock_ns()).unwrap();
    assert!(clock >= drained_to, "clocks padded to the drain deadline");

    // The quiesced server refuses new work with a typed error — on every
    // entry point.
    assert!(matches!(
        server.raise(id, a, RaiseMode::Sync, &[]),
        Err(ServerError::Quiesced)
    ));
    assert!(matches!(
        server.submit(id, b, 100, &[]),
        Err(ServerError::Quiesced)
    ));
    assert!(matches!(
        server.open_session(m.clone(), RuntimeConfig::default(), &binds),
        Err(ServerError::Quiesced)
    ));

    // Save the drained image, revive it elsewhere, and the restored
    // fleet resumes from exactly the drained state.
    let dir = std::env::temp_dir().join(format!("pdo-quiesce-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drained.pdosnap");
    server.save(&path).unwrap();
    let mut revived = Server::new(config());
    assert_eq!(revived.restore_from_file(&path).unwrap(), vec![id, ctp_id]);
    assert_eq!(
        revived
            .with_runtime(id, move |rt| rt.global(ga).clone())
            .unwrap(),
        Value::Int(13 * 3 + 4 * 3),
        "drained state restored exactly"
    );
    // The 12 not-yet-due timers crossed the save/restore: advancing past
    // their deadlines dispatches them in the revived server.
    revived.run_until(2_600).unwrap();
    assert_eq!(
        revived
            .with_runtime(id, move |rt| rt.global(ga).clone())
            .unwrap(),
        Value::Int(25 * 3 + 4 * 3),
        "armed timers carried by the image fire after restore"
    );
    revived.raise(id, a, RaiseMode::Sync, &[]).unwrap();
    assert_eq!(
        revived
            .with_runtime(id, move |rt| rt.global(ga).clone())
            .unwrap(),
        Value::Int(25 * 3 + 4 * 3 + 3),
        "a fresh server admits by default"
    );

    // And the original recovers too once admission resumes.
    server.resume_admission();
    assert!(server.is_admitting());
    server.raise(id, a, RaiseMode::Sync, &[]).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption never panics: truncations, bit flips, id collisions, and
/// garbage files all come back as `ServerError::Snapshot`.
/// A handler binding through `__pdo_bind` can name only what its module
/// declares: an unknown function or event traps the raise that tried, and
/// the image the server writes next still restores.
#[test]
fn reserved_bind_of_an_unknown_id_traps_and_the_image_restores() {
    let (mut m, [a, b], _) = two_chain_module();
    let bind = m.add_native(Runtime::NATIVE_BIND);
    let a1 = m.function_by_name("a1").unwrap();
    let mut binders = Vec::new();
    for (name, event, handler) in [
        ("bind_f999", i64::from(a.0), 999),
        ("bind_e999", 999, i64::from(a1.0)),
    ] {
        let mut fb = FunctionBuilder::new(name, 0);
        let args = [fb.const_int(event), fb.const_int(handler), fb.const_int(0)];
        fb.call_native(bind, &args);
        fb.ret(None);
        let trigger = m.add_event(format!("do_{name}"));
        binders.push((trigger, m.add_function(fb.finish())));
    }
    let mut binds = bindings(&m, a, b);
    binds.extend(binders.iter().map(|&(trigger, f)| (trigger, f, 0)));

    let config = || ServerConfig {
        adapt: fast_adapt(),
    };
    let mut server = Server::new(config());
    let id = server
        .open_session(m, RuntimeConfig::default(), &binds)
        .unwrap();
    for (trigger, _) in binders {
        match server.raise(id, trigger, RaiseMode::Sync, &[]) {
            Err(ServerError::Runtime(at, RuntimeError::Exec(ExecError::Native(_)))) => {
                assert_eq!(at, id)
            }
            other => panic!("a bind of an unknown id must trap, got {other:?}"),
        }
    }
    server.raise(id, a, RaiseMode::Sync, &[]).unwrap();
    let bytes = server.snapshot_to_bytes();
    assert_eq!(
        Server::new(config()).restore_from_bytes(&bytes).unwrap(),
        vec![id]
    );
}

#[test]
fn corrupt_images_yield_typed_errors() {
    let (m, [a, b], _) = two_chain_module();
    let binds = bindings(&m, a, b);
    let config = || ServerConfig {
        adapt: fast_adapt(),
    };
    let mut server = Server::new(config());
    let id = server
        .open_session(m.clone(), RuntimeConfig::default(), &binds)
        .unwrap();
    server.raise(id, a, RaiseMode::Sync, &[]).unwrap();
    let bytes = server.snapshot_to_bytes();

    // Every truncation, a flipped bit in every byte, and a trailing byte
    // are detected, and a failed restore opens nothing.
    let restored = pdo_snap::hostile::sweep(&bytes, |image| {
        let mut fresh = Server::new(config());
        match fresh.restore_from_bytes(image) {
            Ok(ids) => Ok(ids),
            Err(ServerError::Snapshot(e)) => {
                assert!(fresh.sessions().is_empty(), "failed restore opens nothing");
                Err(e)
            }
            Err(other) => panic!("corruption must fail typed, got {other:?}"),
        }
    });
    assert_eq!(restored, vec![id]);
    // Restoring over an already-open id is rejected before any state
    // changes.
    match server.restore_from_bytes(&bytes) {
        Err(ServerError::Snapshot(_)) => {}
        other => panic!("id collision must fail typed, got {other:?}"),
    }
    assert_eq!(server.sessions().len(), 1);

    // File-level persistence: save atomically, restore from disk, and a
    // missing file is a typed error.
    let dir = std::env::temp_dir().join(format!("pdo-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("image.pdosnap");
    server.save(&path).unwrap();
    let mut fresh = Server::new(config());
    assert_eq!(fresh.restore_from_file(&path).unwrap(), vec![id]);
    match Server::new(config()).restore_from_file(&dir.join("absent.pdosnap")) {
        Err(ServerError::Snapshot(_)) => {}
        other => panic!("missing file must fail typed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
