//! Durable image round-trip properties (DESIGN.md §14): for seeded
//! fleets of every session kind, `snapshot_to_bytes` → fresh server →
//! `restore_from_bytes` → `snapshot_to_bytes` reproduces the image byte
//! for byte — the format has one canonical encoding per state, and a
//! restore loses nothing the format carries. And no corruption — every
//! truncation prefix, a flipped bit in every byte, a trailing byte (the
//! shared `pdo_snap::hostile` sweep), garbage — ever panics or
//! half-restores: it is a typed `ServerError::Snapshot` with the server
//! left empty.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{Schedule, Seeded};
use pdo::{AdaptConfig, OptimizeOptions};
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::RuntimeConfig;
use pdo_ir::EventId;
use pdo_seccomm::{seccomm_protocol, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, ServerError};
use pdo_snap::hostile;
use proptest::prelude::*;

fn config() -> ServerConfig {
    ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: OptimizeOptions::new(10),
            ..AdaptConfig::default()
        },
    }
}

/// Builds a server holding sessions of the selected kind (3 = all three
/// at once) and drives a seeded workload, ending at an epoch boundary so
/// snapshots are exact: timers may still be outstanding and async raises
/// queued — the image must carry them.
fn seeded_server(seed: u64, kind: usize) -> Server {
    let mut s = Seeded::new(seed);
    let mut server = Server::new(config());
    if kind == 0 || kind == 3 {
        let (m, [a, b], binds) = oracle::two_chain_module();
        for _ in 0..1 + s.choose(3) {
            let id = server
                .open_session(m.clone(), RuntimeConfig::default(), &binds)
                .unwrap();
            for _ in 0..s.choose(30) {
                let event = if s.choose(2) == 0 { a } else { b };
                server.submit(id, event, 1 + s.choose(8_000), &[]).unwrap();
            }
        }
        server.run_until(5_000).unwrap();
        // A queued async raise rides across the snapshot in the FIFO.
        if s.choose(2) == 0 {
            let ids = server.sessions();
            server
                .with_runtime(ids[0], move |rt| {
                    rt.raise(a, pdo_ir::RaiseMode::Async, &[]).unwrap();
                })
                .unwrap();
        }
    }
    if kind == 1 || kind == 3 {
        let program = ctp_program();
        let id = server
            .open_ctp_session(&program, CtpParams::default())
            .unwrap();
        for i in 0..2 + s.choose(3) {
            let payload = oracle::bytes(&mut s, 1..251);
            server
                .with_ctp(id, move |ep| ep.send(&payload))
                .unwrap()
                .unwrap();
            server.run_until((i + 1) * 60_000_000).unwrap();
        }
    }
    if kind == 2 || kind == 3 {
        let program = seccomm_protocol().instantiate(CONFIG_FULL).unwrap();
        let keys = Keys::default();
        let tx = server.open_seccomm_session(&program, &keys).unwrap();
        let rx = server.open_seccomm_session(&program, &keys).unwrap();
        for _ in 0..1 + s.choose(5) {
            let msg = oracle::bytes(&mut s, 0..120);
            let expect = msg.clone();
            let wire = server
                .with_seccomm(tx, move |ep| ep.push(&msg))
                .unwrap()
                .unwrap();
            let plain = server
                .with_seccomm(rx, move |ep| ep.pop(&wire))
                .unwrap()
                .unwrap();
            assert_eq!(plain, expect);
        }
        server.run_until(2_000_000_000).unwrap();
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// snapshot → restore → snapshot is byte-identical for every session
    /// kind alone and for a mixed fleet.
    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(seed in 0u64..1_000_000) {
        for kind in 0..4usize {
            let mut server = seeded_server(seed.wrapping_add(kind as u64), kind);
            let bytes = server.snapshot_to_bytes();
            let mut revived = Server::new(config());
            revived
                .restore_from_bytes(&bytes)
                .expect("a fresh image restores");
            prop_assert_eq!(
                revived.snapshot_to_bytes(),
                bytes,
                "kind {} round trip",
                kind
            );
        }
    }

    /// Every truncation prefix, a flipped bit in every byte and a
    /// trailing byte yield a typed error and an untouched (still empty)
    /// server — never a panic, never a partial restore.
    #[test]
    fn corrupt_images_are_typed_errors(seed in 0u64..1_000_000) {
        let mut server = seeded_server(seed, 0);
        let bytes = server.snapshot_to_bytes();
        let restored = hostile::sweep(&bytes, |image| {
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
        let mut expected = server.sessions();
        expected.sort();
        prop_assert_eq!(restored, expected, "the intact image restores every session");
        // Arbitrary garbage of assorted sizes.
        let mut s = Seeded::new(seed);
        for len in [0, 1, 7, 19, 20, 64, 1024] {
            let garbage = oracle::bytes(&mut s, len..len + 1);
            let mut fresh = Server::new(config());
            prop_assert!(matches!(
                fresh.restore_from_bytes(&garbage),
                Err(ServerError::Snapshot(_))
            ));
        }
    }
}

/// Profiles and server images share the `pdo-snap` frame, so the frame
/// checks pass for either file; the payload decoders are what tell them
/// apart, with a typed error and nothing restored.
#[test]
fn profile_frames_and_server_images_do_not_load_as_each_other() {
    use pdo_snap::SnapshotError::{Malformed, TrailingBytes, Truncated};
    let dir = std::env::temp_dir().join(format!("pdo-snap-kinds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let image_path = dir.join("fleet.pdosnap");
    seeded_server(1, 3).save(&image_path).unwrap();
    let err = pdo_profile::load_profile(&image_path).unwrap_err();
    assert!(
        matches!(err, Malformed(_) | TrailingBytes | Truncated { .. }),
        "a server image loaded as a profile gave {err}"
    );

    let mut profile = pdo_profile::Profile {
        threshold: 7,
        ..Default::default()
    };
    profile.event_graph.nodes.insert(EventId(0), 5);
    let profile_path = dir.join("profile.pdosnap");
    pdo_profile::save_profile(&profile, &profile_path).unwrap();
    let mut fresh = Server::new(config());
    match fresh.restore_from_file(&profile_path) {
        Err(ServerError::Snapshot(Malformed(_) | TrailingBytes | Truncated { .. })) => {}
        other => panic!("a profile restored as a server image gave {other:?}"),
    }
    assert!(fresh.sessions().is_empty(), "failed restore opens nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
