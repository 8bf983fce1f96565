//! Wire-format stability: one frame per `Request`/`Reply` variant and
//! per `WireMode`/`OpenKind`/`TraceSelector`/`ErrorCode` must encode to
//! exactly the committed golden byte stream, and that stream must decode
//! back to the same values. Frames are deterministic by construction
//! (fixed-width integers, IR-text modules — no wall time), so any byte
//! drift here is a protocol change. Deliberate protocol changes bump
//! `proto::WIRE_VERSION`, regenerate the fixture with
//! `PDO_WIRE_BLESS=1 cargo test -p pdo-ingress --test wire_format_stability`,
//! and commit the new bytes alongside the code.

use pdo_ingress::proto::{
    decode_reply, decode_request, encode_reply, encode_request, FrameBuffer, MAX_FRAME_LEN,
};
use pdo_ingress::{
    ErrorCode, IngressError, OpenKind, Reply, Request, SessionStats, TraceFormat, TraceSelector,
    WireMode,
};
use pdo_ir::{BinOp, FunctionBuilder, Module, Value};
use pdo_snap::SnapshotError;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn golden_path() -> PathBuf {
    fixture("golden.pdowire")
}

fn counter_module() -> Module {
    let mut m = Module::new();
    m.add_event("Tick");
    let g = m.add_global("count", Value::Int(0));
    let mut fb = FunctionBuilder::new("bump", 1);
    let v = fb.load_global(g);
    let p = fb.param(0);
    let o = fb.bin(BinOp::Add, v, p);
    fb.store_global(g, o);
    fb.ret(None);
    m.add_function(fb.finish());
    m
}

/// The pinned requests: every `Request` variant, every `OpenKind`,
/// every `WireMode`, every `TraceSelector` × `TraceFormat`, and raise
/// arguments of every value type (plus the empty argument list).
fn golden_requests() -> Vec<Request> {
    let raise = |mode, args| Request::Raise {
        session: 0x0102_0304_0506_0708,
        event: 3,
        mode,
        args,
    };
    vec![
        Request::Open(OpenKind::Plain {
            module: counter_module(),
            bindings: vec![(0, 0, 0), (0, 0, -7), (0, 0, i32::MAX)],
        }),
        Request::Open(OpenKind::Ctp),
        Request::Open(OpenKind::SecComm),
        raise(WireMode::Sync, vec![]),
        raise(
            WireMode::Async,
            vec![
                Value::Unit,
                Value::Int(-5),
                Value::Bool(true),
                Value::bytes(vec![0, 1, 2, 0xFF]),
                Value::str("héllo"),
            ],
        ),
        raise(
            WireMode::Timed {
                delay_ns: 1_500_000,
            },
            vec![Value::Int(i64::MIN), Value::Bool(false)],
        ),
        Request::Query { session: 9 },
        Request::Close { session: u64::MAX },
        Request::MetricsScrape,
        Request::TraceDump {
            selector: TraceSelector::LastN(16),
            format: TraceFormat::Lines,
        },
        Request::TraceDump {
            selector: TraceSelector::Id(0x0001_0000_0000_0007),
            format: TraceFormat::Chrome,
        },
    ]
}

/// The pinned replies: every `Reply` variant and every `ErrorCode`.
fn golden_replies() -> Vec<Reply> {
    let mut replies = vec![
        Reply::Opened { session: 4 },
        Reply::Done,
        Reply::Stats(SessionStats {
            session: 4,
            clock_ns: 123_456_789,
            dispatched: 10,
            fastpath_hits: 6,
            guard_misses: 1,
            chains_live: 2,
            queued: 3,
            timers: 5,
        }),
        Reply::Closed { existed: true },
        Reply::Closed { existed: false },
        Reply::Shed {
            retry_after_ns: 2_000_000,
        },
        Reply::MetricsText {
            text: "# TYPE pdo_up gauge\npdo_up 1\n".into(),
        },
        Reply::Trace {
            body: "span trace=1 id=2 parent=- start=0 end=10 layer=ingress\n".into(),
        },
    ];
    for (code, message) in [
        (ErrorCode::UnknownSession, "unknown session s9"),
        (ErrorCode::WrongKind, "session s2 is not a CTP session"),
        (ErrorCode::Runtime, "fuel exhausted"),
        (ErrorCode::Quiesced, "server is quiesced"),
        (ErrorCode::Malformed, "unknown request tag byte 0xee"),
        (ErrorCode::Internal, ""),
    ] {
        replies.push(Reply::Error {
            code,
            message: message.into(),
        });
    }
    replies
}

/// Requests under ids 0.., then replies under ids 1000.., concatenated.
fn golden_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for (i, req) in golden_requests().iter().enumerate() {
        stream.extend_from_slice(&encode_request(i as u64, req));
    }
    for (i, rep) in golden_replies().iter().enumerate() {
        stream.extend_from_slice(&encode_reply(1000 + i as u64, rep));
    }
    stream
}

#[test]
fn golden_wire_stream_is_stable() {
    let bytes = golden_stream();
    let path = golden_path();
    if std::env::var_os("PDO_WIRE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), bytes.len());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with PDO_WIRE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "wire bytes drifted from the committed fixture; if the protocol \
         change is deliberate, bump proto::WIRE_VERSION and re-bless"
    );
}

/// The committed fixture is not just stable — it still reassembles into
/// exactly the pinned frames and every one decodes to its value.
#[test]
fn golden_wire_stream_decodes_to_the_pinned_values() {
    if std::env::var_os("PDO_WIRE_BLESS").is_some() {
        return; // blessing run; the stability test writes the fixture
    }
    let mut fb = FrameBuffer::new();
    fb.extend(&std::fs::read(golden_path()).expect("committed fixture"));
    let mut next = || {
        fb.next_frame(MAX_FRAME_LEN)
            .expect("fixture frames are well-formed")
            .expect("fixture holds one frame per pinned value")
    };
    for (i, req) in golden_requests().into_iter().enumerate() {
        assert_eq!(decode_request(&next()).unwrap(), (i as u64, req));
    }
    for (i, rep) in golden_replies().into_iter().enumerate() {
        assert_eq!(decode_reply(&next()).unwrap(), (1000 + i as u64, rep));
    }
    assert!(
        fb.is_empty(),
        "fixture holds nothing past the pinned frames"
    );
}

/// A peer speaking the previous protocol (`WIRE_VERSION` 2, whose session
/// stats carried a shard; its golden stream kept byte for byte as it was
/// committed) is refused by the version field before the checksum is
/// looked at, and that refusal closes the connection.
#[test]
fn previous_version_frame_is_refused_by_version() {
    let mut fb = FrameBuffer::new();
    fb.extend(&std::fs::read(fixture("golden.v2.pdowire")).expect("committed fixture"));
    let first = fb
        .next_frame(MAX_FRAME_LEN)
        .expect("the header reassembles")
        .expect("one whole frame");
    let err = decode_request(&first).unwrap_err();
    assert!(
        matches!(
            err,
            IngressError::Frame(SnapshotError::UnsupportedVersion(2))
        ),
        "a version-2 frame must be UnsupportedVersion(2), got {err:?}"
    );
    assert!(err.is_stream_fatal());
}
