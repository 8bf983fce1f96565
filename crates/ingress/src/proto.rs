//! The ingress wire protocol: length-prefixed, versioned, checksummed
//! frames carrying session commands and typed replies.
//!
//! A frame is exactly the `pdo-snap` framing discipline under a different
//! magic — `magic(8) | version(u32) | payload_len(u64) | payload |
//! xxh64(checksum)` — so the reader inherits the same hardening: corrupt
//! input is always a typed error, never a panic, and a peer speaking an
//! earlier `WIRE_VERSION` is refused by version, never by checksum. The
//! payload begins with a caller-chosen `req_id` (replies are matched by
//! id, not by arrival order, because a `Shed` reply can overtake queued
//! work) followed by a command or reply body.
//!
//! Every payload type declares its layout once, as the `pdo_snap::Codec`
//! field table next to it; encode and decode are both derived from that
//! table. Raise arguments travel `as WireArgs`: the `pdo-events`
//! marshaling layout — a tag vector then the value bodies, exactly how
//! [`pdo_events::marshal`] packs arguments for generic dispatch — read
//! body by body under each tag, so a body that does not match its tag
//! cannot decode.
//!
//! Error classification matters more than error detail here: a frame that
//! fails *framing* (bad magic, bad version, bad checksum, impossible
//! length) proves the byte stream itself is unreliable, so the connection
//! must die; a frame whose checksum verifies but whose *payload* grammar
//! is wrong proves only that one request is garbage, so the reply is a
//! typed `Error` and the connection lives. [`IngressError::is_stream_fatal`]
//! encodes that split.

use crate::IngressError;
use pdo_ir::{Module, Value};
use pdo_snap::{
    codec_enum, codec_struct, peek_frame_len, Codec, SnapReader, SnapWriter, SnapshotError, Tag,
    Via,
};

/// Leading bytes of every ingress frame. Distinct from the `pdo-snap`
/// durable-image magic so a wire frame can never be mistaken for a
/// snapshot file (or vice versa).
pub const WIRE_MAGIC: [u8; 8] = *b"PDOWIRE\0";

/// Wire format version this build speaks.
pub const WIRE_VERSION: u32 = 3;

/// Hard ceiling on one frame (header + payload + checksum). The reader
/// rejects larger declarations before buffering them, so a hostile
/// length field cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// What kind of session an `Open` creates.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenKind {
    /// A plain event program: the module travels as IR text plus its
    /// (event, func, order) handler bindings.
    Plain {
        /// The module to load (IR text on the wire).
        module: Module,
        /// Handler bindings as raw (event, func, order) triples.
        bindings: Vec<(u32, u32, i32)>,
    },
    /// The server's canonical CTP transport session.
    Ctp,
    /// The server's canonical SecComm secure-channel session.
    SecComm,
}

codec_enum!(OpenKind {
    0 => Plain { module, bindings },
    1 => Ctp,
    2 => SecComm,
});

/// Raise mode on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Dispatch before replying.
    Sync,
    /// Enqueue on the session's async FIFO.
    Async,
    /// Enqueue on the session's timer queue, due `delay_ns` from its
    /// current virtual time.
    Timed {
        /// Virtual-clock delay.
        delay_ns: u64,
    },
}

codec_enum!(WireMode {
    0 => Sync,
    1 => Async,
    2 => Timed { delay_ns },
});

/// A decoded client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session.
    Open(OpenKind),
    /// Raise `event` on `session` with marshaled `args`.
    Raise {
        /// Target session id.
        session: u64,
        /// Raw event id.
        event: u32,
        /// Dispatch mode.
        mode: WireMode,
        /// Handler arguments (marshal-layout on the wire).
        args: Vec<Value>,
    },
    /// Read one session's counters.
    Query {
        /// Target session id.
        session: u64,
    },
    /// Tear a session down.
    Close {
        /// Target session id.
        session: u64,
    },
    /// Scrape the whole deployment (server + ingress) as one Prometheus
    /// text exposition — the wire-level scrape endpoint a remote
    /// Prometheus (or `curl` through the client) pulls.
    MetricsScrape,
    /// Pull retained causal trace spans from every layer's trace store.
    TraceDump {
        /// Which traces to pull.
        selector: TraceSelector,
        /// Export encoding of the reply body.
        format: TraceFormat,
    },
}

codec_enum!(Request {
    1 => Open(kind),
    2 => Raise { session, event, mode, args as WireArgs },
    3 => Query { session },
    4 => Close { session },
    5 => MetricsScrape,
    6 => TraceDump { selector, format },
});

/// Raise arguments in the marshal layout: one count, the tag vector,
/// then the value bodies. Hand-written because that tags-then-bodies
/// shape is the point: a field table would interleave each tag with its
/// body. The count and the tags read as one `Vec<Tag>`, then each body
/// is read by its tag.
#[derive(Debug, Clone, PartialEq)]
struct WireArgs(Vec<Value>);

impl Codec for WireArgs {
    fn put(&self, w: &mut SnapWriter) {
        w.len_prefix(self.0.len());
        for v in &self.0 {
            Tag::of(v).put(w);
        }
        for v in &self.0 {
            Tag::put_body(v, w);
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let tags = Vec::<Tag>::take(r)?;
        let values: Result<_, _> = tags.iter().map(|t| t.take_body(r)).collect();
        Ok(WireArgs(values?))
    }
}

impl Via<WireArgs> for Vec<Value> {
    fn to_wire(&self) -> WireArgs {
        WireArgs(self.clone())
    }

    fn from_wire(wire: WireArgs) -> Result<Self, SnapshotError> {
        Ok(wire.0)
    }
}

/// Which traces a [`Request::TraceDump`] pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSelector {
    /// The `n` most recently minted traces still retained.
    LastN(u64),
    /// One specific trace by id (as reported in a previous dump or in
    /// span output).
    Id(u64),
}

codec_enum!(TraceSelector {
    0 => LastN(n),
    1 => Id(id),
});

/// Export encoding of a [`Reply::Trace`] body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Line-oriented `span …` dump (grep-able; `trace_report` input).
    Lines,
    /// Chrome trace-event JSON (load in `about:tracing` or Perfetto).
    Chrome,
}

codec_enum!(TraceFormat {
    0 => Lines,
    1 => Chrome,
});

/// One session's counters, as returned by `Query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// The session id.
    pub session: u64,
    /// The session's virtual clock.
    pub clock_ns: u64,
    /// Events dispatched (generic + fast path).
    pub dispatched: u64,
    /// Specialized fast-path dispatches.
    pub fastpath_hits: u64,
    /// Specialized dispatches that failed guards and fell back.
    pub guard_misses: u64,
    /// Compiled chains currently installed.
    pub chains_live: u64,
    /// Events waiting on the async FIFO.
    pub queued: u64,
    /// Events waiting on timers.
    pub timers: u64,
}

codec_struct!(SessionStats {
    session,
    clock_ns,
    dispatched,
    fastpath_hits,
    guard_misses,
    chains_live,
    queued,
    timers,
});

/// Why a request was refused, in machine-readable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No session with that id.
    UnknownSession,
    /// Session exists but is not of the requested protocol kind.
    WrongKind,
    /// The session's runtime or protocol endpoint failed.
    Runtime,
    /// The server is quiesced and not admitting.
    Quiesced,
    /// The request frame's payload failed to decode (checksum was valid).
    Malformed,
    /// An internal server failure (snapshot machinery etc.).
    Internal,
}

codec_enum!(ErrorCode {
    1 => UnknownSession,
    2 => WrongKind,
    3 => Runtime,
    4 => Quiesced,
    5 => Malformed,
    6 => Internal,
});

/// A decoded server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `Open` succeeded; here is the session id.
    Opened {
        /// The new session.
        session: u64,
    },
    /// `Raise` was executed (sync) or enqueued (async/timed).
    Done,
    /// `Query` result.
    Stats(SessionStats),
    /// `Close` result.
    Closed {
        /// Whether the session existed.
        existed: bool,
    },
    /// The request was refused by admission control: over capacity.
    /// Retry after the hinted backoff instead of immediately.
    Shed {
        /// Suggested client backoff (wall ns), scaled by current load.
        retry_after_ns: u64,
    },
    /// The request was admitted but failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// `MetricsScrape` result: Prometheus text exposition.
    MetricsText {
        /// The rendered exposition (possibly truncated to fit the frame
        /// ceiling; truncation drops whole lines, never splits one).
        text: String,
    },
    /// `TraceDump` result in the requested [`TraceFormat`].
    Trace {
        /// Line dump or Chrome trace-event JSON.
        body: String,
    },
}

codec_enum!(Reply {
    1 => Opened { session },
    2 => Done,
    3 => Stats(stats),
    4 => Closed { existed },
    5 => Shed { retry_after_ns },
    6 => Error { code, message },
    7 => MetricsText { text },
    8 => Trace { body },
});

/// One frame: `req_id`, then the command or reply body.
fn encode<T: Codec>(req_id: u64, body: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64(req_id);
    body.put(&mut w);
    w.finish_frame(&WIRE_MAGIC, WIRE_VERSION)
}

fn decode<T: Codec>(frame: &[u8]) -> Result<(u64, T), IngressError> {
    SnapReader::framed(frame, &WIRE_MAGIC, WIRE_VERSION)
        .map_err(IngressError::Frame)?
        .finish_as()
        .map_err(IngressError::Payload)
}

/// Encodes one request under `req_id` into a complete wire frame.
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    encode(req_id, req)
}

/// Decodes a complete request frame into `(req_id, request)`.
///
/// # Errors
///
/// [`IngressError::Frame`] when the framing itself (magic, version,
/// checksum, length) is wrong — the byte stream is unreliable and the
/// connection must close. [`IngressError::Payload`] when the frame
/// verified but its body grammar is wrong (including trailing bytes: the
/// sender speaks a different grammar) — reply with a typed error and keep
/// the connection.
pub fn decode_request(frame: &[u8]) -> Result<(u64, Request), IngressError> {
    decode(frame)
}

/// Encodes one reply under `req_id` into a complete wire frame.
pub fn encode_reply(req_id: u64, reply: &Reply) -> Vec<u8> {
    encode(req_id, reply)
}

/// Decodes a complete reply frame into `(req_id, reply)`.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_reply(frame: &[u8]) -> Result<(u64, Reply), IngressError> {
    decode(frame)
}

/// Best-effort extraction of the `req_id` from a frame whose payload
/// failed to decode, so the typed error reply can still be matched by
/// the client. `None` when even the id is unreadable.
pub(crate) fn frame_req_id(frame: &[u8]) -> Option<u64> {
    let mut r = SnapReader::framed(frame, &WIRE_MAGIC, WIRE_VERSION).ok()?;
    r.take_u64().ok()
}

/// Reassembles frames from a byte stream that arrives in arbitrary
/// chunks. Feed bytes with [`FrameBuffer::extend`], then pop complete
/// frames with [`FrameBuffer::next_frame`], which lends each frame out of
/// the buffer and advances a cursor past it. The popped bytes are dropped
/// by the next `extend`, once per read rather than once per frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the first byte not yet popped.
    head: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes, first dropping the frames already
    /// popped.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet popped.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is left to pop.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the next complete frame, if one is fully buffered. The frame
    /// is borrowed from the buffer until the next call.
    ///
    /// `Ok(None)` means the bytes so far are a consistent prefix — read
    /// more. An error means the stream is unrecoverable at this position
    /// (wrong magic, impossible length, over `max_frame`): frame
    /// boundaries can no longer be trusted, so the connection must close.
    ///
    /// # Errors
    ///
    /// [`IngressError::Frame`] on header corruption,
    /// [`IngressError::FrameTooLarge`] on an over-limit declaration.
    pub fn next_frame(&mut self, max_frame: usize) -> Result<Option<&[u8]>, IngressError> {
        let rest = &self.buf[self.head..];
        let total = match peek_frame_len(rest, &WIRE_MAGIC) {
            Ok(Some(total)) => total,
            Ok(None) => return Ok(None),
            Err(e) => return Err(IngressError::Frame(e)),
        };
        if total > max_frame {
            return Err(IngressError::FrameTooLarge {
                declared: total,
                max: max_frame,
            });
        }
        if rest.len() < total {
            return Ok(None);
        }
        let start = self.head;
        self.head += total;
        Ok(Some(&self.buf[start..self.head]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_snap::{hostile, SnapshotError};

    /// Corruption of a frame is caught by the framing — stream-fatal —
    /// never left to the payload grammar.
    fn framing_error<T>(decoded: Result<T, IngressError>) -> Result<T, SnapshotError> {
        decoded.map_err(|e| match e {
            IngressError::Frame(e) => e,
            other => panic!("a corrupt frame must be stream-fatal, got {other}"),
        })
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Open(OpenKind::Ctp),
            Request::Open(OpenKind::SecComm),
            Request::Raise {
                session: 7,
                event: 3,
                mode: WireMode::Timed { delay_ns: 1_000 },
                args: vec![
                    Value::Unit,
                    Value::Int(-5),
                    Value::Bool(true),
                    Value::bytes(vec![1, 2, 3]),
                    Value::str("hello"),
                ],
            },
            Request::Query { session: 9 },
            Request::Close { session: 2 },
            Request::MetricsScrape,
            Request::TraceDump {
                selector: TraceSelector::LastN(16),
                format: TraceFormat::Lines,
            },
            Request::TraceDump {
                selector: TraceSelector::Id(0x0001_0000_0000_0007),
                format: TraceFormat::Chrome,
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = encode_request(i as u64, req);
            let (id, back) = hostile::sweep(&frame, |b| framing_error(decode_request(b)));
            assert_eq!(id, i as u64);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn reply_frames_round_trip() {
        let reps = [
            Reply::Opened { session: 4 },
            Reply::Done,
            Reply::Stats(SessionStats {
                session: 4,
                clock_ns: 123,
                dispatched: 10,
                fastpath_hits: 6,
                guard_misses: 1,
                chains_live: 2,
                queued: 3,
                timers: 0,
            }),
            Reply::Closed { existed: true },
            Reply::Shed {
                retry_after_ns: 2_000_000,
            },
            Reply::Error {
                code: ErrorCode::UnknownSession,
                message: "unknown session s9".into(),
            },
            Reply::MetricsText {
                text: "# TYPE pdo_up gauge\npdo_up 1\n".into(),
            },
            Reply::Trace {
                body: "span trace=1 id=2 parent=- start=0 end=10 layer=ingress kind=ingress request=raise conn=3\n".into(),
            },
        ];
        for (i, rep) in reps.iter().enumerate() {
            let frame = encode_reply(1000 + i as u64, rep);
            let (id, back) = hostile::sweep(&frame, |b| framing_error(decode_reply(b)));
            assert_eq!(id, 1000 + i as u64);
            assert_eq!(&back, rep);
        }
    }

    #[test]
    fn frame_buffer_reassembles_split_and_coalesced_frames() {
        let f1 = encode_request(1, &Request::Query { session: 1 });
        let f2 = encode_request(2, &Request::Close { session: 1 });
        let mut stream = Vec::new();
        stream.extend_from_slice(&f1);
        stream.extend_from_slice(&f2);

        // Feed one byte at a time: every prefix is "need more", and the
        // two frames pop out exactly at their boundaries.
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame(MAX_FRAME_LEN).unwrap() {
                out.push(frame.to_vec());
            }
        }
        assert_eq!(out, vec![f1.clone(), f2.clone()]);
        assert!(fb.is_empty());

        // Feed everything at once: both frames drain back to back.
        let mut fb = FrameBuffer::new();
        fb.extend(&stream);
        assert_eq!(fb.next_frame(MAX_FRAME_LEN).unwrap().unwrap(), f1);
        assert_eq!(fb.next_frame(MAX_FRAME_LEN).unwrap().unwrap(), f2);
        assert!(fb.next_frame(MAX_FRAME_LEN).unwrap().is_none());
        assert!(fb.is_empty());

        // A read after the pops drops the popped bytes and keeps the
        // partial frame it completes.
        fb.extend(&f1[..10]);
        assert!(fb.next_frame(MAX_FRAME_LEN).unwrap().is_none());
        fb.extend(&f1[10..]);
        assert_eq!(fb.len(), f1.len());
        assert_eq!(fb.next_frame(MAX_FRAME_LEN).unwrap().unwrap(), f1);
    }

    #[test]
    fn stream_and_payload_corruption_classify_differently() {
        // Wrong magic: stream-fatal.
        let mut fb = FrameBuffer::new();
        fb.extend(b"NOTMAGIC________________");
        let err = fb.next_frame(MAX_FRAME_LEN).unwrap_err();
        assert!(err.is_stream_fatal(), "bad magic must be stream-fatal");

        // Oversized declaration: stream-fatal before buffering it.
        let mut huge = SnapWriter::new();
        huge.u64(1);
        let mut frame = huge.finish_frame(&WIRE_MAGIC, WIRE_VERSION);
        frame[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        let err = fb.next_frame(MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, IngressError::FrameTooLarge { .. }));

        // Valid checksum, bogus body tag: payload-level, connection
        // survives.
        let mut w = SnapWriter::new();
        w.u64(42);
        w.u8(0xEE);
        let frame = w.finish_frame(&WIRE_MAGIC, WIRE_VERSION);
        let err = decode_request(&frame).unwrap_err();
        assert!(!err.is_stream_fatal(), "bad body must keep the stream");
        assert_eq!(frame_req_id(&frame), Some(42));

        // Valid checksum, a collection count the rest of the payload
        // cannot hold (raise arguments, open bindings): refused as a
        // payload error before anything is allocated for it.
        let lying_count = |head: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            w.u64(42);
            head(&mut w);
            w.u64(u64::MAX >> 1);
            w.u64(0);
            decode_request(&w.finish_frame(&WIRE_MAGIC, WIRE_VERSION)).unwrap_err()
        };
        let raise = lying_count(&|w| {
            w.u8(2);
            w.u64(7); // session
            w.u32(3); // event
            w.u8(0); // sync
        });
        let open = lying_count(&|w| {
            w.u8(1);
            w.u8(0); // plain
            w.str("");
        });
        for err in [raise, open] {
            assert!(
                matches!(err, IngressError::Payload(SnapshotError::Malformed(_))),
                "{err}"
            );
        }
    }

    #[test]
    fn marshal_layout_is_count_tags_bodies_and_survives_the_sweep() {
        let args = WireArgs(vec![
            Value::Int(7),
            Value::Unit,
            Value::bytes(vec![9, 9]),
            Value::Bool(true),
            Value::str("s"),
        ]);
        hostile::check(&args);

        let mut w = SnapWriter::new();
        w.u64(5);
        for tag in [1, 0, 3, 2, 4] {
            w.u8(tag);
        }
        w.i64(7);
        w.bytes(&[9, 9]);
        w.bool(true);
        w.str("s");
        assert_eq!(w.finish(), pdo_snap::encode(&args));

        // Past the eight inline tags the decoder spills, with the same
        // bytes either way.
        hostile::check(&WireArgs((0..11).map(Value::Int).collect()));
    }

    #[test]
    fn wire_frames_are_not_snapshots() {
        let frame = encode_request(1, &Request::Query { session: 1 });
        assert!(matches!(
            SnapReader::new(&frame),
            Err(SnapshotError::BadMagic)
        ));
    }
}
