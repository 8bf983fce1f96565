//! The durable session/server snapshot types.
//!
//! [`SessionSnapshot`] is the complete state of one session — base
//! module, runtime limits, bindings, globals, virtual clock, scheduler
//! queue and timer wheel, pending fault plan, the adaptation daemon's
//! [`EngineSnapshot`], and the protocol endpoint's link or wire state —
//! everything a fresh process needs to resume the session instead of
//! cold-starting it. Durable persistence runs an [`Image`] through
//! `pdo_snap::{encode, decode}`.
//!
//! A captured state is its live type: the scheduler, fault injector,
//! profile builder, quarantine map and CTP link state are the session's
//! own values, cloned at capture and moved back in at restore, and each
//! encodes itself (`pdo_snap::Codec`) — a field table next to the type in
//! its own crate, or, for `Scheduler` and `FaultyWire`, whose decoding
//! checks across fields, a hand-written impl. Every table destructures its
//! struct exhaustively, so adding a field to any captured state type is a
//! compile error rather than a silently incomplete snapshot. Collections
//! encode in key order and decode only in key order (maps, hash maps
//! included; timers in pop order), so every state has one encoding:
//! snapshot → restore → snapshot is byte-identical, and a checksum-valid
//! image with a repeated or out-of-order key is `Malformed`.

use pdo::EngineSnapshot;
use pdo_ctp::{CtpLinkState, CtpParams};
use pdo_events::{FaultInjector, RuntimeConfig, Scheduler};
use pdo_ir::{EventId, FuncId, Module, Value};
use pdo_seccomm::{Keys, SecWireState};
use pdo_snap::{codec_enum, codec_struct};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::SessionId;

/// The durable portion of one session. See the module
/// docs; the adaptation daemon's live profile tally is the only
/// adaptation state *not* captured — it is empty at epoch boundaries,
/// which is where snapshots are taken. The runtime's robustness counters
/// are not captured either: they count from the runtime's creation, and
/// a restored session's start from zero.
#[derive(Debug, PartialEq)]
pub(crate) struct SessionSnapshot {
    /// Shared with the session it was taken from (and, in a decoded image,
    /// with every other session carrying the same module text).
    pub module: Arc<Module>,
    pub config: RuntimeConfig,
    pub bindings: Vec<(EventId, FuncId, i32)>,
    pub globals: Vec<Value>,
    pub clock_ns: u64,
    pub sched: Scheduler,
    pub injector: Option<FaultInjector>,
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

/// A whole server image: the id allocator plus every session's full
/// snapshot, keyed (and therefore encoded) by session id.
#[derive(Debug, PartialEq)]
pub(crate) struct Image {
    pub next_id: u64,
    pub sessions: BTreeMap<SessionId, SessionSnapshot>,
}

codec_struct!(Image { next_id, sessions });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig, ServerError};
    use pdo::QuarantineEntry;
    use pdo_ctp::ctp_program;
    use pdo_events::{FaultKind, FaultyWire, Pending, TimerEntry};
    use pdo_ir::{BinOp, FunctionBuilder, RaiseMode};
    use pdo_profile::{EdgeData, HandlerGraph};
    use pdo_seccomm::{seccomm_protocol, CONFIG_FULL};
    use pdo_snap::{decode, encode, hostile, Codec, SnapWriter, SnapshotError};

    /// Two sessions of every kind, each pair opened from one program, each
    /// session with state worth carrying: profiled plain counters with a
    /// queued raise and pending timers, CTP endpoints mid-conversation,
    /// SecComm endpoints with traffic.
    fn fleet_server() -> Server {
        let mut server = Server::new(ServerConfig {
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
        let mut restored = Server::new(ServerConfig::default());
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

    /// `value`'s encoding read back as `L`: a layout with the same bytes.
    fn relayout<L: Codec>(value: &impl Codec) -> L {
        decode(&encode(value)).expect("the layout is the value's")
    }

    /// The first session of `image` whose endpoint kind `matches` picks.
    fn first_session(
        image: &Image,
        matches: impl Fn(&KindSnapshot) -> bool,
    ) -> (SessionId, &SessionSnapshot) {
        image
            .sessions
            .iter()
            .find(|(_, s)| matches(&s.kind))
            .map(|(&id, s)| (id, s))
            .expect("the fleet holds one")
    }

    /// `image` as bytes, spelled out down to session `target`'s scheduler,
    /// fault injector, profile, quarantine and endpoint kind: each argument
    /// is written where that field of the session goes. A caller forges one
    /// of them by passing a layout of plain lists, which — unlike the live
    /// type — can hold a repeated or out-of-order key.
    fn spelled_out(
        image: &Image,
        target: SessionId,
        sched: &impl Codec,
        injector: &impl Codec,
        profile: &impl Codec,
        quarantine: &impl Codec,
        kind: &impl Codec,
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        image.next_id.put(&mut w);
        w.len_prefix(image.sessions.len());
        for (id, s) in &image.sessions {
            id.put(&mut w);
            if *id != target {
                s.put(&mut w);
                continue;
            }
            s.module.put(&mut w);
            s.config.put(&mut w);
            s.bindings.put(&mut w);
            s.globals.put(&mut w);
            s.clock_ns.put(&mut w);
            sched.put(&mut w);
            injector.put(&mut w);
            profile.put(&mut w);
            s.engine.stats.put(&mut w);
            quarantine.put(&mut w);
            kind.put(&mut w);
        }
        w.finish()
    }

    /// Restoring `bytes` into a fresh server is `Malformed` and opens
    /// nothing.
    fn assert_malformed_and_nothing_opened(bytes: &[u8]) {
        let mut server = Server::new(ServerConfig::default());
        assert!(is_malformed_restore(server.restore_from_bytes(bytes)));
        assert!(server.sessions().is_empty(), "nothing was opened");
    }

    /// The canonical-order contract for one collection a session carries.
    /// `forge` spells out the fleet image with the collection written as
    /// the plain list it is given. In canonical order (`entries`, two or
    /// more) that is a real image: it decodes, re-encodes to the same
    /// bytes and restores. With the first entry repeated, or the first two
    /// swapped, it is `Malformed` and nothing is opened — where the
    /// collection used to be copied into a plain vector and collected
    /// back, accepting any order and letting the last repeated key win.
    fn assert_only_canonical_order_restores<E: Clone>(
        entries: Vec<E>,
        forge: impl Fn(Vec<E>) -> Vec<u8>,
    ) {
        assert!(entries.len() >= 2, "two entries to reorder");
        let canonical = forge(entries.clone());
        let image: Image = decode(&canonical).expect("the canonical list decodes");
        assert_eq!(
            encode(&image),
            canonical,
            "the spelled-out layout is the real one"
        );
        Server::new(ServerConfig::default())
            .restore_from_bytes(&canonical)
            .expect("the canonical image restores");
        let mut repeated = entries.clone();
        repeated.insert(1, entries[0].clone());
        assert_malformed_and_nothing_opened(&forge(repeated));
        let mut swapped = entries;
        swapped.swap(0, 1);
        assert_malformed_and_nothing_opened(&forge(swapped));
    }

    /// A profile builder's layout with its event-graph node map as a plain
    /// list: the nodes, the edges, then the handler graph, the boundary
    /// raise and the fresh-raise count.
    type ProfileLayout = (
        Vec<(EventId, u64)>,
        BTreeMap<(EventId, EventId), EdgeData>,
        (HandlerGraph, Option<EventId>, u64),
    );

    /// The same for an interior map: a repeated or out-of-order key in
    /// the carried profile used to decode silently (last wins).
    #[test]
    fn duplicate_profile_map_keys_are_malformed() {
        let image = fleet_image();
        let (id, s) = first_session(&image, |k| *k == KindSnapshot::Plain);
        let (nodes, edges, rest): ProfileLayout = relayout(&s.engine.profile);
        assert!(!nodes.is_empty(), "the plain session carries a profile");
        let (event, count) = nodes[0];
        let with_nodes = |nodes: Vec<(EventId, u64)>| {
            let profile = (nodes, edges.clone(), rest.clone());
            let q = &s.engine.quarantine;
            spelled_out(&image, id, &s.sched, &s.injector, &profile, q, &s.kind)
        };
        assert_eq!(
            with_nodes(nodes.clone()),
            encode(&image),
            "the spelled-out layout is the real one"
        );
        assert_malformed_and_nothing_opened(&with_nodes(vec![(event, count), (event, count + 1)]));
        assert_malformed_and_nothing_opened(&with_nodes(vec![
            (EventId(event.0 + 1), 1),
            (event, count),
        ]));
    }

    /// A scheduler's layout: the FIFO, the timers as a plain list, the
    /// sequence counter.
    type SchedLayout = (Vec<Pending>, Vec<TimerEntry>, u64);

    /// A scheduler whose sequence counter trails its own timers would give
    /// the next timed raise a `(deadline, seq)` a pending timer already
    /// has, and their FIFO tie-break would be undefined: rejected before
    /// any session is opened.
    #[test]
    fn a_sequence_counter_behind_its_timers_is_malformed() {
        let image = fleet_image();
        let (id, s) = first_session(&image, |k| *k == KindSnapshot::Plain);
        let (queue, timers, seq): SchedLayout = relayout(&s.sched);
        let last = timers.iter().map(|t| t.seq).max().expect("pending timers");
        assert!(seq > last);
        let with_seq = |seq: u64| {
            let sched = (queue.clone(), timers.clone(), seq);
            let q = &s.engine.quarantine;
            spelled_out(
                &image,
                id,
                &sched,
                &s.injector,
                &s.engine.profile,
                q,
                &s.kind,
            )
        };
        assert_eq!(
            with_seq(seq),
            encode(&image),
            "the spelled-out layout is the real one"
        );
        assert_malformed_and_nothing_opened(&with_seq(last));
    }

    #[test]
    fn timers_restore_only_in_pop_order() {
        let image = fleet_image();
        let (id, s) = first_session(&image, |k| *k == KindSnapshot::Plain);
        let (queue, timers, seq): SchedLayout = relayout(&s.sched);
        assert_only_canonical_order_restores(timers, |timers| {
            let sched = (queue.clone(), timers, seq);
            let q = &s.engine.quarantine;
            spelled_out(
                &image,
                id,
                &sched,
                &s.injector,
                &s.engine.profile,
                q,
                &s.kind,
            )
        });
    }

    type FaultPlan = Vec<(EventId, u64, FaultKind)>;
    type FaultCounts = Vec<(EventId, u64)>;

    /// A fault injector's layout: the dispatch and timed plans, then the
    /// dispatch and timed occurrence counts, each a plain list.
    type InjectorLayout = (FaultPlan, FaultPlan, (FaultCounts, FaultCounts));

    /// The fleet image with `injector` installed on its first plain session.
    fn with_injector(image: &Image, injector: InjectorLayout) -> Vec<u8> {
        let (id, s) = first_session(image, |k| *k == KindSnapshot::Plain);
        let (profile, q) = (&s.engine.profile, &s.engine.quarantine);
        spelled_out(image, id, &s.sched, &Some(injector), profile, q, &s.kind)
    }

    #[test]
    fn fault_plans_restore_only_in_key_order() {
        let image = fleet_image();
        let tick = EventId(0);
        let dispatch = vec![
            (tick, 3, FaultKind::TrapDispatch),
            (tick, 5, FaultKind::CorruptArg { index: 1 }),
        ];
        assert_only_canonical_order_restores(dispatch, |plan| {
            with_injector(&image, (plan, vec![], (vec![], vec![])))
        });
        let timed = vec![
            (tick, 0, FaultKind::DropTimed),
            (tick, 2, FaultKind::DelayTimed { extra_ns: 9 }),
        ];
        assert_only_canonical_order_restores(timed, |plan| {
            with_injector(&image, (vec![], plan, (vec![], vec![])))
        });
    }

    #[test]
    fn fault_counts_restore_only_in_key_order() {
        let image = fleet_image();
        let counts = vec![(EventId(0), 4), (EventId(1), 2)];
        assert_only_canonical_order_restores(counts.clone(), |counts| {
            with_injector(&image, (vec![], vec![], (counts, vec![])))
        });
        assert_only_canonical_order_restores(counts, |counts| {
            with_injector(&image, (vec![], vec![], (vec![], counts)))
        });
    }

    type Segments = Vec<(i64, Arc<[u8]>)>;

    /// A CTP link's layout with its three seq-keyed maps and the
    /// receiver's gap buffer as plain lists (the receiver's four fields
    /// inline, from `rx_next` to `rx_duplicates`).
    #[derive(Clone)]
    struct LinkLayout {
        unacked: Segments,
        wire: Segments,
        retransmissions: u64,
        sends_since_sample: i64,
        ack_drop_every: u64,
        link: FaultyWire<(i64, Arc<[u8]>)>,
        outcome: Vec<(i64, bool)>,
        max_retries: u32,
        retries: Vec<(i64, u32)>,
        timeout_base_ns: i64,
        unreachable: bool,
        rx_next: i64,
        rx_buffer: Segments,
        rx_delivered: Segments,
        rx_duplicates: u64,
        rx_corrupt_dropped: u64,
    }

    codec_struct!(LinkLayout {
        unacked,
        wire,
        retransmissions,
        sends_since_sample,
        ack_drop_every,
        link,
        outcome,
        max_retries,
        retries,
        timeout_base_ns,
        unreachable,
        rx_next,
        rx_buffer,
        rx_delivered,
        rx_duplicates,
        rx_corrupt_dropped,
    });

    /// The canonical-order contract for one keyed list of the first CTP
    /// session's link: `list` picks it out of the link's layout, and
    /// `entries` replaces it.
    fn assert_link_list_is_canonical<E: Clone>(
        entries: Vec<E>,
        list: fn(&mut LinkLayout) -> &mut Vec<E>,
    ) {
        let image = fleet_image();
        let (id, s) = first_session(&image, |k| matches!(k, KindSnapshot::Ctp { .. }));
        let KindSnapshot::Ctp { params, link } = &s.kind else {
            unreachable!("a CTP session")
        };
        let layout: LinkLayout = relayout(&**link);
        assert_only_canonical_order_restores(entries, |entries| {
            let mut forged = layout.clone();
            *list(&mut forged) = entries;
            // A CTP kind is its tag, the params, then the link.
            let kind = (1u8, *params, forged);
            let (profile, q) = (&s.engine.profile, &s.engine.quarantine);
            spelled_out(&image, id, &s.sched, &s.injector, profile, q, &kind)
        });
    }

    /// A parity-checked segment: one payload byte and its xor.
    fn segment(byte: u8) -> Arc<[u8]> {
        Arc::from([byte, byte])
    }

    #[test]
    fn ctp_unacked_segments_restore_only_in_key_order() {
        let unacked = vec![(1, segment(1)), (2, segment(2))];
        assert_link_list_is_canonical(unacked, |l| &mut l.unacked);
    }

    #[test]
    fn ctp_delivery_outcomes_restore_only_in_key_order() {
        assert_link_list_is_canonical(vec![(1, true), (2, false)], |l| &mut l.outcome);
    }

    #[test]
    fn ctp_retry_counters_restore_only_in_key_order() {
        assert_link_list_is_canonical(vec![(1, 1), (2, 3)], |l| &mut l.retries);
    }

    #[test]
    fn receiver_gap_buffer_restores_only_in_key_order() {
        let buffer = vec![(5, segment(5)), (7, segment(7))];
        assert_link_list_is_canonical(buffer, |l| &mut l.rx_buffer);
    }

    #[test]
    fn quarantine_entries_restore_only_in_key_order() {
        let image = fleet_image();
        let (id, s) = first_session(&image, |k| *k == KindSnapshot::Plain);
        let entry = |strikes| QuarantineEntry {
            faults: 0,
            guard_misses: 1,
            strikes,
            until_ns: Some(5_000),
        };
        let entries = vec![(EventId(0), entry(1)), (EventId(1), entry(2))];
        assert_only_canonical_order_restores(entries, |q| {
            spelled_out(
                &image,
                id,
                &s.sched,
                &s.injector,
                &s.engine.profile,
                &q,
                &s.kind,
            )
        });
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
    /// out-of-bounds `set_global`; and a restore is all or nothing: the
    /// good session before the bad one is not opened either, and the id
    /// allocator is left where it was.
    #[test]
    fn globals_longer_than_the_module_table_are_malformed() {
        let mut image = fleet_image();
        let (_, second) = image.sessions.iter_mut().nth(1).unwrap();
        second.globals.push(Value::Int(7));
        let mut server = Server::new(ServerConfig::default());
        assert!(is_malformed_restore(restore(&mut server, &image)));
        assert!(server.sessions().is_empty(), "nothing was opened");
        let fresh = server
            .open_session(Module::new(), RuntimeConfig::default(), &[])
            .unwrap();
        assert_eq!(fresh, SessionId(1), "the id allocator is untouched");
    }
}
