//! The durable session/server snapshot types.
//!
//! [`SessionSnapshot`] is the complete migratable state of one session —
//! base module, runtime limits, bindings, globals, virtual clock,
//! scheduler queue and timer heap, pending fault plan, the adaptation
//! daemon's [`EngineSnapshot`], and the protocol endpoint's link or wire
//! state — everything a fresh shard (or a fresh process) needs to resume
//! the session instead of cold-starting it. In-memory migration ships the
//! struct across the shard channel; durable persistence runs an [`Image`]
//! through `pdo_snap::{encode, decode}`.
//!
//! The byte layout is the field tables below plus the table next to each
//! captured state type in its own crate (`pdo_snap::Codec`). Every table
//! destructures its struct exhaustively, so adding a field to any captured
//! state type is a compile error rather than a silently incomplete
//! snapshot. Collections encode in key order and decode only in key order
//! (`BTreeMap`s, seq-sorted vectors), so every state has one encoding:
//! snapshot → restore → snapshot is byte-identical.

use pdo::EngineSnapshot;
use pdo_ctp::{CtpLinkState, CtpParams};
use pdo_events::{FaultInjectorState, RuntimeConfig, SchedulerState};
use pdo_ir::{EventId, FuncId, Module, Value};
use pdo_seccomm::{Keys, SecWireState};
use pdo_snap::{codec_enum, codec_struct};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::SessionId;

/// The migratable (and durable) portion of one session. See the module
/// docs; the adaptation daemon's live trace window and the current
/// epoch's undrained stats delta are the only state *not* captured —
/// both are empty at epoch boundaries, which is where snapshots are
/// taken.
#[derive(Debug, PartialEq)]
pub(crate) struct SessionSnapshot {
    /// Shared with the session it was taken from (and, in a decoded image,
    /// with every other session carrying the same module text).
    pub module: Arc<Module>,
    pub config: RuntimeConfig,
    pub bindings: Vec<(EventId, FuncId, i32)>,
    pub globals: Vec<Value>,
    pub clock_ns: u64,
    pub sched: SchedulerState,
    pub injector: Option<FaultInjectorState>,
    pub engine: EngineSnapshot,
    pub kind: KindSnapshot,
}

codec_struct!(SessionSnapshot {
    module,
    config,
    bindings,
    globals,
    clock_ns,
    sched,
    injector,
    engine,
    kind,
});

/// Protocol-endpoint state riding along with a session snapshot, plus
/// the recipe (params/keys) needed to rebuild the endpoint's natives.
#[derive(Debug, PartialEq)]
pub(crate) enum KindSnapshot {
    Plain,
    Ctp {
        params: CtpParams,
        link: Box<CtpLinkState>,
    },
    SecComm {
        keys: Keys,
        wire: Box<SecWireState>,
    },
}

codec_enum!(KindSnapshot {
    0 => Plain,
    1 => Ctp { params, link },
    2 => SecComm { keys, wire },
});

/// A whole server image: the id allocator plus every session's recorded
/// shard and full snapshot, keyed (and therefore encoded) by session id.
#[derive(Debug, PartialEq)]
pub(crate) struct Image {
    pub next_id: u64,
    pub sessions: BTreeMap<SessionId, (usize, SessionSnapshot)>,
}

codec_struct!(Image { next_id, sessions });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig, ServerError};
    use pdo_ctp::ctp_program;
    use pdo_ir::{BinOp, FunctionBuilder, RaiseMode};
    use pdo_seccomm::{seccomm_protocol, CONFIG_FULL};
    use pdo_snap::{decode, encode, hostile, Codec, SnapWriter, SnapshotError};

    /// Two sessions of every kind, each pair opened from one program, each
    /// session with state worth carrying: profiled plain counters with a
    /// queued raise and pending timers, CTP endpoints mid-conversation,
    /// SecComm endpoints with traffic.
    fn fleet_server() -> Server {
        let mut server = Server::new(ServerConfig {
            shards: 2,
            adapt: pdo::AdaptConfig {
                epoch_ns: 1_000,
                ..Default::default()
            },
        });
        let mut m = Module::new();
        let tick = m.add_event("Tick");
        let g = m.add_global("count", Value::Int(0));
        let mut fb = FunctionBuilder::new("bump", 0);
        let v = fb.load_global(g);
        let one = fb.const_int(1);
        let sum = fb.bin(BinOp::Add, v, one);
        fb.store_global(g, sum);
        fb.ret(None);
        let bump = m.add_function(fb.finish());
        let m = Arc::new(m);
        let ctp_program = ctp_program();
        let sec = seccomm_protocol().instantiate(CONFIG_FULL).unwrap();
        for k in 0..SESSIONS_PER_KIND as u64 {
            let plain = server
                .open_session(Arc::clone(&m), RuntimeConfig::default(), &[(tick, bump, 0)])
                .unwrap();
            // Ten raises per 1 µs epoch: the decaying profile stays
            // non-empty, and the last ten timers are still pending in the
            // image.
            for i in 0..30u64 {
                server.submit(plain, tick, 1 + k + i * 100, &[]).unwrap();
            }
            server.run_until(2_000).unwrap();
            server
                .with_runtime(plain, move |rt| {
                    rt.raise(tick, RaiseMode::Async, &[]).unwrap();
                })
                .unwrap();
        }
        for k in 0..SESSIONS_PER_KIND as u8 {
            let ctp = server
                .open_ctp_session(&ctp_program, CtpParams::default())
                .unwrap();
            server
                .with_ctp(ctp, move |ep| ep.send(&[7 + k; 200]))
                .unwrap()
                .unwrap();
            let tx = server.open_seccomm_session(&sec, &Keys::default()).unwrap();
            server
                .with_seccomm(tx, move |ep| ep.push(&[b'p' + k; 7]))
                .unwrap()
                .unwrap();
        }
        server
    }

    const SESSIONS_PER_KIND: usize = 2;
    const KINDS: usize = 3;

    fn fleet_image() -> Image {
        decode(&fleet_server().snapshot_to_bytes()).expect("own image decodes")
    }

    /// The image repeats every module (two sessions per program), so the
    /// sweep also covers the writer's and the reader's module memo.
    #[test]
    fn image_codec_survives_the_hostile_sweep() {
        let image = fleet_image();
        assert_eq!(image.sessions.len(), KINDS * SESSIONS_PER_KIND);
        hostile::check(&image);
    }

    /// Sessions of one program share one module allocation — at open and
    /// again after a restore, where the image's repeated module text
    /// parses once — in the runtime and in the engine's base alike; and
    /// the image a restored fleet writes is the image it was restored from.
    #[test]
    fn sessions_of_one_program_share_one_module_allocation() {
        let mut original = fleet_server();
        let image = original.snapshot_to_bytes();
        let mut restored = Server::new(ServerConfig {
            shards: 2,
            ..Default::default()
        });
        restored.restore_from_bytes(&image).unwrap();
        assert_eq!(restored.snapshot_to_bytes(), image);

        for server in [&mut original, &mut restored] {
            let bases = server.base_modules();
            assert_eq!(bases.len(), KINDS * SESSIONS_PER_KIND);
            for (id, base, executing) in &bases {
                let sharers = bases
                    .iter()
                    .filter(|(_, b, _)| Arc::ptr_eq(b, base))
                    .count();
                assert_eq!(sharers, SESSIONS_PER_KIND, "session {id}");
                // Each sharer holds it twice: the engine's base and (no
                // chain deployed on these short runs) the runtime. `bases`
                // itself holds as many again.
                assert!(Arc::ptr_eq(base, executing), "session {id}");
                let in_server = Arc::strong_count(base) - 2 * SESSIONS_PER_KIND;
                assert!(
                    in_server >= 2 * SESSIONS_PER_KIND,
                    "session {id}: {in_server} holders"
                );
            }
        }
    }

    fn is_malformed(w: SnapWriter) -> bool {
        matches!(
            decode::<Image>(&w.finish()),
            Err(SnapshotError::Malformed(_))
        )
    }

    /// A checksum-valid image whose session ids are not strictly
    /// increasing is not one `snapshot_to_bytes` writes: rejected, rather
    /// than decoded to a state that re-encodes differently.
    #[test]
    fn out_of_order_or_repeated_session_ids_are_malformed() {
        let image = fleet_image();
        let mut entries = image.sessions.iter();
        let (first, second) = (entries.next().unwrap(), entries.next().unwrap());
        for order in [[second, first], [first, first]] {
            let mut w = SnapWriter::new();
            image.next_id.put(&mut w);
            w.len_prefix(order.len());
            for (id, entry) in order {
                id.put(&mut w);
                entry.put(&mut w);
            }
            assert!(is_malformed(w));
        }
    }

    /// The same for an interior map: a repeated or out-of-order key in
    /// the carried profile used to decode silently (last wins).
    #[test]
    fn duplicate_profile_map_keys_are_malformed() {
        let image = fleet_image();
        let (id, (shard, session)) = image.sessions.iter().next().unwrap();
        let nodes = &session.engine.profile.event_graph.nodes;
        assert!(!nodes.is_empty(), "the plain session carries a profile");
        let canonical: Vec<(EventId, u64)> = nodes.iter().map(|(&e, &n)| (e, n)).collect();
        let (event, count) = canonical[0];

        // The image, spelled out down to the event-graph node map, which
        // is written as a plain list: same bytes, but any key order.
        let image_with_nodes = |nodes: &Vec<(EventId, u64)>| {
            let mut w = SnapWriter::new();
            image.next_id.put(&mut w);
            w.len_prefix(1);
            id.put(&mut w);
            shard.put(&mut w);
            let s = session;
            s.module.put(&mut w);
            s.config.put(&mut w);
            s.bindings.put(&mut w);
            s.globals.put(&mut w);
            s.clock_ns.put(&mut w);
            s.sched.put(&mut w);
            s.injector.put(&mut w);
            nodes.put(&mut w);
            s.engine.profile.event_graph.edges.put(&mut w);
            s.engine.profile.handler_graph.put(&mut w);
            s.engine.profile.prev_raise.put(&mut w);
            s.engine.profile.fresh.put(&mut w);
            s.engine.stats.put(&mut w);
            s.engine.quarantine.put(&mut w);
            s.kind.put(&mut w);
            w
        };
        let mut single = BTreeMap::new();
        single.insert(*id, (*shard, decode_session(session)));
        assert_eq!(
            image_with_nodes(&canonical).finish(),
            encode(&Image {
                next_id: image.next_id,
                sessions: single,
            }),
            "the spelled-out layout is the real one"
        );
        assert!(is_malformed(image_with_nodes(&vec![
            (event, count),
            (event, count + 1)
        ])));
        assert!(is_malformed(image_with_nodes(&vec![
            (EventId(event.0 + 1), 1),
            (event, count)
        ])));
    }

    fn restore(server: &mut Server, image: &Image) -> Result<Vec<SessionId>, ServerError> {
        server.restore_from_bytes(&encode(image))
    }

    fn is_malformed_restore(result: Result<Vec<SessionId>, ServerError>) -> bool {
        matches!(
            result,
            Err(ServerError::Snapshot(SnapshotError::Malformed(_)))
        )
    }

    /// An image whose id allocator is not past its own sessions would
    /// make the next `open_*` mint an id that is already resident:
    /// rejected before any session is opened.
    #[test]
    fn id_allocator_behind_its_sessions_is_malformed() {
        let mut image = fleet_image();
        let last = *image.sessions.keys().next_back().unwrap();
        image.next_id = last.0;
        let mut server = Server::new(ServerConfig::default());
        assert!(is_malformed_restore(restore(&mut server, &image)));
        assert!(server.sessions().is_empty(), "nothing was opened");

        image.next_id = last.0 + 1;
        assert_eq!(
            restore(&mut server, &image).unwrap().len(),
            KINDS * SESSIONS_PER_KIND
        );
        let fresh = server
            .open_session(Module::new(), RuntimeConfig::default(), &[])
            .unwrap();
        assert!(fresh > last, "the allocator resumes past the image");
    }

    /// More globals than the module declares is an error, not an
    /// out-of-bounds `set_global`; and the sessions restored before the
    /// bad one stay behind the allocator.
    #[test]
    fn globals_longer_than_the_module_table_are_malformed() {
        let mut image = fleet_image();
        let mut entries = image.sessions.iter_mut();
        let (&first, _) = entries.next().unwrap();
        let (_, (_, second)) = entries.next().unwrap();
        second.globals.push(Value::Int(7));
        let mut server = Server::new(ServerConfig::default());
        assert!(is_malformed_restore(restore(&mut server, &image)));
        assert_eq!(server.sessions(), vec![first], "restored up to the bad one");
        let fresh = server
            .open_session(Module::new(), RuntimeConfig::default(), &[])
            .unwrap();
        assert!(fresh.0 >= image.next_id, "restored ids stay allocated");
    }

    /// An owned copy of a borrowed snapshot, by way of its own codec.
    fn decode_session(s: &SessionSnapshot) -> SessionSnapshot {
        decode(&encode(s)).expect("own encoding decodes")
    }
}
