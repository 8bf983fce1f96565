//! Snapshot-format stability: a fixed fleet must encode to exactly the
//! committed golden image. Images are deterministic by construction
//! (virtual clocks, BTreeMap walks, IR-text modules — no wall time), so
//! any byte drift here is a format change. Deliberate format changes
//! bump `pdo_snap::VERSION`, regenerate the fixture with
//! `PDO_SNAP_BLESS=1 cargo test -p pdo-server --test format_stability`,
//! and commit the new bytes alongside the code.

use pdo::{AdaptConfig, OptimizeOptions};
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::RuntimeConfig;
use pdo_ir::{BinOp, EventId, FunctionBuilder, Module, Value};
use pdo_seccomm::{seccomm_protocol, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, ServerError};
use pdo_snap::SnapshotError;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn golden_path() -> PathBuf {
    fixture("golden.pdosnap")
}

fn counter_module() -> (Module, EventId) {
    let mut m = Module::new();
    let tick = m.add_event("Tick");
    let g = m.add_global("count", Value::Int(0));
    let mut fb = FunctionBuilder::new("bump", 0);
    let v = fb.load_global(g);
    let one = fb.const_int(1);
    let o = fb.bin(BinOp::Add, v, one);
    fb.store_global(g, o);
    fb.ret(None);
    m.add_function(fb.finish());
    (m, tick)
}

/// The pinned fleet: one plain counter session with timers past the
/// snapshot point, one CTP session mid-conversation, one SecComm pair
/// with traffic exchanged — every `KindSnapshot` variant appears in the
/// image.
fn golden_server() -> Server {
    let mut server = Server::new(ServerConfig {
        shards: 2,
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: OptimizeOptions::new(10),
            ..AdaptConfig::default()
        },
    });

    let (m, tick) = counter_module();
    let bump = m.function_by_name("bump").unwrap();
    let plain = server
        .open_session(m.clone(), RuntimeConfig::default(), &[(tick, bump, 0)])
        .unwrap();
    for i in 0..40u64 {
        // The first 20 land before the 2s snapshot horizon; the rest
        // stay pending in the image's timer heap.
        server
            .submit(plain, tick, 1 + i * 100_000_000, &[])
            .unwrap();
    }
    server.run_until(4_000).unwrap();

    let ctp = server
        .open_ctp_session(&ctp_program(), CtpParams::default())
        .unwrap();
    for i in 0..3u64 {
        let payload = vec![i as u8; 64 + 32 * i as usize];
        server
            .with_ctp(ctp, move |ep| ep.send(&payload))
            .unwrap()
            .unwrap();
        server.run_until((i + 1) * 60_000_000).unwrap();
    }

    let sec = seccomm_protocol().instantiate(CONFIG_FULL).unwrap();
    let keys = Keys::default();
    let tx = server.open_seccomm_session(&sec, &keys).unwrap();
    let rx = server.open_seccomm_session(&sec, &keys).unwrap();
    for i in 0..4u64 {
        let msg = vec![0x5A ^ i as u8; 16 + i as usize];
        let wire = server
            .with_seccomm(tx, move |ep| ep.push(&msg))
            .unwrap()
            .unwrap();
        server
            .with_seccomm(rx, move |ep| ep.pop(&wire))
            .unwrap()
            .unwrap();
    }
    server.run_until(2_000_000_000).unwrap();
    server
}

#[test]
fn golden_image_is_stable() {
    let bytes = golden_server().snapshot_to_bytes();
    let path = golden_path();
    if std::env::var_os("PDO_SNAP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), bytes.len());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with PDO_SNAP_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "snapshot bytes drifted from the committed fixture; if the format \
         change is deliberate, bump pdo_snap::VERSION and re-bless"
    );
}

/// The committed fixture is not just stable — it still restores into a
/// working server, and the revived fleet resumes: pending plain timers
/// fire, CTP keeps delivering, SecComm keeps decrypting.
#[test]
fn golden_image_restores_and_resumes() {
    if std::env::var_os("PDO_SNAP_BLESS").is_some() {
        return; // blessing run; the stability test writes the fixture
    }
    let golden = std::fs::read(golden_path()).expect("committed fixture");
    let mut server = Server::new(ServerConfig {
        shards: 2,
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: OptimizeOptions::new(10),
            ..AdaptConfig::default()
        },
    });
    let ids = server.restore_from_bytes(&golden).unwrap();
    assert_eq!(ids.len(), 4, "plain + ctp + seccomm tx/rx");
    assert_eq!(server.snapshot_to_bytes(), golden, "re-encode is identical");

    // The plain session had 40 timers; only the 20 due by the 2s
    // snapshot horizon fired before capture.
    let (m, _) = counter_module();
    let g = m.global_by_name("count").unwrap();
    let before = server
        .with_runtime(ids[0], move |rt| rt.global(g).clone())
        .unwrap();
    assert_eq!(
        before,
        Value::Int(20),
        "snapshot caught the counter mid-flight"
    );
    server.run_until(5_000_000_000).unwrap();
    let after = server
        .with_runtime(ids[0], move |rt| rt.global(g).clone())
        .unwrap();
    assert_eq!(after, Value::Int(40), "pending timers fired after restore");

    // CTP and SecComm sessions keep working post-restore.
    let ctp = ids[1];
    server
        .with_ctp(ctp, |ep| ep.send(b"after-golden-restore"))
        .unwrap()
        .unwrap();
    server.run_until(4_000_000_000).unwrap();
    server
        .with_ctp(ctp, |ep| ep.drain(5_000_000_000))
        .unwrap()
        .unwrap();
    let delivered = server
        .with_ctp(ctp, |ep| ep.received_payload().len())
        .unwrap();
    assert!(delivered > 0, "restored CTP session delivers");

    let (tx, rx) = (ids[2], ids[3]);
    let wire = server
        .with_seccomm(tx, |ep| ep.push(b"golden"))
        .unwrap()
        .unwrap();
    let plain = server
        .with_seccomm(rx, move |ep| ep.pop(&wire))
        .unwrap()
        .unwrap();
    assert_eq!(plain, b"golden");
}

/// The previous format's golden image (`VERSION` 2, kept byte for byte as
/// it was committed) is refused by its version field before its checksum
/// is looked at, and restores nothing.
#[test]
fn previous_version_image_is_refused_by_version() {
    let old = std::fs::read(fixture("golden.v2.pdosnap")).expect("committed fixture");
    let mut server = Server::new(ServerConfig::default());
    match server.restore_from_bytes(&old) {
        Err(ServerError::Snapshot(SnapshotError::UnsupportedVersion(2))) => {}
        other => panic!("a version-2 image must be UnsupportedVersion(2), got {other:?}"),
    }
    assert!(server.sessions().is_empty());
}
