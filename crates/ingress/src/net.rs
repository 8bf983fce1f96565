//! The connection machine: every live connection's buffers, admission
//! and close accounting, with no socket in it.
//!
//! The machine reaches bytes only through [`Stream`] (`Read + Write`);
//! the socket shell, `Ingress`, owns the listeners and hands each
//! accepted socket to [`Net::open`]. [`Ingress::drive`](crate::Ingress::drive)
//! runs one sweep on the caller's thread: the shell accepts, then
//! [`Net::read`] (read, reassemble, decode, admit or shed), then the
//! engine runs the batch and appends each reply with [`Net::reply`], then
//! [`Net::flush`]. Nothing here blocks and nothing crosses a thread, so
//! the unit tests drive the same machine over scripted in-memory streams
//! and enumerate its schedules.
//!
//! Admission happens as each command is decoded: quiesced → typed
//! `Shed`; batch full (`max_inflight` commands this sweep) → the frames
//! the sweep read wait in their connection's buffer for the next sweep,
//! which handles them before reading that socket again and sheds them
//! with a typed `Shed` if its batch fills too. A stall of the thread
//! thus gets one more batch of grace, as a reader thread's queue would
//! give it, and overload is still shed within two sweeps. Each sweep
//! starts just past the last connection it admitted from, so a full
//! batch rotates across connections; the batch keeps arrival order, so
//! one connection's commands run in order.
//!
//! A peer that closes its write half is read no more, but the frames it
//! sent before are handled like any other connection's; it is closed
//! with reason `eof` once no complete frame is left and its replies are
//! flushed.

use crate::proto::{self, FrameBuffer, Reply, Request};
use crate::ErrorCode;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::time::Instant;

/// Why the sweep closed a connection: the `reason` label of
/// `pdo_ingress_connections_closed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// The peer closed its write half, and every reply to it was flushed.
    Eof,
    /// A read or write failed.
    Io,
    /// The byte stream failed framing; frame boundaries are lost.
    Corrupt,
    /// The peer fell further behind its replies than `max_outbuf`.
    Slow,
    /// The ingress shut down.
    Shutdown,
}

impl CloseReason {
    pub(crate) const ALL: [CloseReason; 5] = [
        CloseReason::Eof,
        CloseReason::Io,
        CloseReason::Corrupt,
        CloseReason::Slow,
        CloseReason::Shutdown,
    ];

    pub(crate) fn label(self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::Io => "io",
            CloseReason::Corrupt => "corrupt",
            CloseReason::Slow => "slow",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// One admitted command, waiting in the batch for the engine.
pub(crate) struct Work {
    pub conn: u64,
    pub req_id: u64,
    pub request: Request,
    pub admitted_at: Instant,
}

/// What the ingress counts; [`Ingress::metrics`](crate::Ingress::metrics)
/// exports it.
#[derive(Default)]
pub(crate) struct Counters {
    pub connections_opened: u64,
    /// Closed connections, indexed by [`CloseReason`].
    pub connections_closed: [u64; CloseReason::ALL.len()],
    pub admitted: u64,
    pub replied: u64,
    pub shed_permits: u64,
    pub shed_quiesced: u64,
    pub malformed_payloads: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Counters {
    fn closed(&mut self, reason: CloseReason) {
        self.connections_closed[reason as usize] += 1;
    }

    /// Bytes moved plus connections accepted: a sweep that changes this
    /// made progress even when it ran no command.
    pub fn moved(&self) -> u64 {
        self.bytes_read + self.bytes_written + self.connections_opened
    }
}

/// A connection's byte stream: a non-blocking socket, TCP or Unix.
pub(crate) trait Stream: Read + Write {}

impl<T: Read + Write> Stream for T {}

struct Conn {
    sock: Box<dyn Stream>,
    inbuf: FrameBuffer,
    /// `inbuf` holds frames read while the batch was full; the next
    /// sweep handles them before reading this socket again.
    waiting: bool,
    /// The peer closed its write half: the socket is read no more.
    eof: bool,
    out: Vec<u8>,
    /// Bytes of `out` already written; `out` is cleared once all are.
    out_pos: usize,
}

impl Conn {
    /// Reads what has arrived: at most four chunks, for fairness. A read
    /// of nothing marks the end of the peer's stream.
    fn read(&mut self, chunk: &mut [u8], bytes_read: &mut u64) -> Result<(), CloseReason> {
        for _ in 0..4 {
            match self.sock.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend(&chunk[..n]);
                    *bytes_read += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::Io),
            }
        }
        Ok(())
    }

    /// Writes as much of the reply buffer as the socket takes.
    fn flush(&mut self, bytes_written: &mut u64) -> Result<(), CloseReason> {
        while self.out_pos < self.out.len() {
            match self.sock.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(CloseReason::Io),
                Ok(n) => {
                    self.out_pos += n;
                    *bytes_written += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::Io),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }
}

/// The live connections and the admission state.
pub(crate) struct Net {
    conns: BTreeMap<u64, Conn>,
    /// Where the next sweep starts reading: just past the last
    /// connection a sweep admitted from.
    cursor: u64,
    chunk: Vec<u8>,
    max_outbuf: usize,
    pub admission: Admission,
    pub counters: Counters,
}

impl Net {
    pub(crate) fn new(cfg: &crate::IngressConfig) -> Net {
        Net {
            conns: BTreeMap::new(),
            cursor: 0,
            chunk: vec![0u8; 16 * 1024],
            max_outbuf: cfg.max_outbuf,
            admission: Admission {
                admitting: true,
                max_batch: cfg.max_inflight.max(1),
                max_frame: cfg.max_frame,
                retry_after_ns: cfg.retry_after_ns,
            },
            counters: Counters::default(),
        }
    }

    /// Takes a new connection; returns its id, counting from 1.
    pub(crate) fn open(&mut self, sock: Box<dyn Stream>) -> u64 {
        self.counters.connections_opened += 1;
        let id = self.counters.connections_opened;
        let conn = Conn {
            sock,
            inbuf: FrameBuffer::new(),
            waiting: false,
            eof: false,
            out: Vec::new(),
            out_pos: 0,
        };
        self.conns.insert(id, conn);
        id
    }

    /// Reads every connection, starting just past the last one admitted
    /// from, and handles every complete frame: a command is admitted into
    /// `batch`, waits for the next sweep or is shed; a bad payload gets a
    /// typed error. Closes the connections whose stream broke.
    pub(crate) fn read(&mut self, batch: &mut Vec<Work>) {
        let Net {
            conns,
            cursor,
            chunk,
            admission,
            counters,
            ..
        } = self;
        let start = *cursor;
        let mut closed = Vec::new();
        for bounds in [(Included(start), Unbounded), (Unbounded, Excluded(start))] {
            for (&id, conn) in conns.range_mut(bounds) {
                let admitted = batch.len();
                let handled = if conn.waiting || conn.eof {
                    Ok(())
                } else {
                    conn.read(chunk, &mut counters.bytes_read)
                };
                match handled.and_then(|()| admission.frames(id, conn, batch, counters)) {
                    Ok(()) if batch.len() > admitted => *cursor = id + 1,
                    Ok(()) => {}
                    Err(reason) => {
                        counters.closed(reason);
                        closed.push(id);
                    }
                }
            }
        }
        for id in closed {
            conns.remove(&id);
        }
    }

    /// Appends the reply to `conn`'s buffer; a reply to a connection that
    /// closed since its command was admitted is dropped.
    pub(crate) fn reply(&mut self, conn: u64, req_id: u64, reply: &Reply) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.out.extend_from_slice(&proto::encode_reply(req_id, reply));
        }
        self.counters.replied += 1;
    }

    /// Writes every connection's buffered replies. A connection whose
    /// write failed is closed, and so is a consumer that cannot keep up
    /// with its own replies, rather than buffering for it without bound,
    /// and a peer whose stream ended once nothing is left to answer.
    pub(crate) fn flush(&mut self) {
        let Net {
            conns,
            max_outbuf,
            counters,
            ..
        } = self;
        conns.retain(|_, conn| {
            let close = match conn.flush(&mut counters.bytes_written) {
                Err(reason) => Some(reason),
                Ok(()) if conn.out.len() - conn.out_pos > *max_outbuf => Some(CloseReason::Slow),
                Ok(()) if conn.eof && !conn.waiting && conn.out.is_empty() => {
                    Some(CloseReason::Eof)
                }
                Ok(()) => None,
            };
            close.map(|reason| counters.closed(reason)).is_none()
        });
    }

    /// Closes every connection.
    pub(crate) fn shutdown(&mut self) {
        let live = std::mem::take(&mut self.conns).len() as u64;
        self.counters.connections_closed[CloseReason::Shutdown as usize] += live;
    }
}

/// What decides whether a decoded command is admitted.
pub(crate) struct Admission {
    /// False while quiesced: every command is shed.
    pub admitting: bool,
    /// Most commands one sweep admits: `max_inflight`, at least 1.
    max_batch: usize,
    max_frame: usize,
    retry_after_ns: u64,
}

impl Admission {
    /// Handles the complete frames buffered on connection `id`. Once the
    /// batch is full, frames read this sweep wait for the next one;
    /// frames that already waited are shed.
    fn frames(
        &self,
        id: u64,
        conn: &mut Conn,
        batch: &mut Vec<Work>,
        counters: &mut Counters,
    ) -> Result<(), CloseReason> {
        loop {
            if self.admitting && batch.len() == self.max_batch && !conn.waiting {
                conn.waiting = !conn.inbuf.is_empty();
                return Ok(());
            }
            let frame = match conn.inbuf.next_frame(self.max_frame) {
                Ok(Some(f)) => f,
                Ok(None) => {
                    conn.waiting = false;
                    return Ok(());
                }
                // Framing is broken: boundaries can't be trusted any more.
                Err(_) => return Err(CloseReason::Corrupt),
            };
            let (req_id, reply) = match proto::decode_request(frame) {
                Ok((req_id, request)) if self.admitting && batch.len() < self.max_batch => {
                    batch.push(Work {
                        conn: id,
                        req_id,
                        request,
                        admitted_at: Instant::now(),
                    });
                    counters.admitted += 1;
                    continue;
                }
                Ok((req_id, _)) => {
                    if self.admitting {
                        counters.shed_permits += 1;
                    } else {
                        counters.shed_quiesced += 1;
                    }
                    // `base` with an empty batch, `2·base` with a full one.
                    let base = self.retry_after_ns;
                    let held = batch.len() as u64;
                    let retry_after_ns = base + base * held / self.max_batch as u64;
                    (req_id, Reply::Shed { retry_after_ns })
                }
                Err(e) if e.is_stream_fatal() => return Err(CloseReason::Corrupt),
                Err(e) => {
                    // Checksum-valid frame, bad payload: typed error reply,
                    // connection lives.
                    counters.malformed_payloads += 1;
                    let reply = Reply::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    };
                    (proto::frame_req_id(frame).unwrap_or(0), reply)
                }
            };
            conn.out
                .extend_from_slice(&proto::encode_reply(req_id, &reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IngressConfig, MAX_FRAME_LEN};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::io;
    use std::rc::Rc;

    /// One scripted peer: what it sends, what it was sent.
    #[derive(Default)]
    struct Wire {
        /// What the machine's next reads return, one entry per read: a
        /// byte chunk, or `None` for the end of the stream. An empty queue
        /// reads as `WouldBlock`.
        incoming: VecDeque<Option<Vec<u8>>>,
        /// Bytes one write takes at most; `None` takes all, `Some(0)` is a
        /// peer that reads nothing (`WouldBlock`).
        budget: Option<usize>,
        written: Vec<u8>,
        /// The machine dropped its end of the connection.
        closed: bool,
    }

    type Peer = Rc<RefCell<Wire>>;

    /// The machine's end of a scripted peer.
    struct Scripted(Peer);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut wire = self.0.borrow_mut();
            let Some(next) = wire.incoming.front_mut() else {
                return Err(ErrorKind::WouldBlock.into());
            };
            let Some(chunk) = next else { return Ok(0) };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                wire.incoming.pop_front();
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut wire = self.0.borrow_mut();
            let n = wire.budget.map_or(buf.len(), |b| b.min(buf.len()));
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            wire.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            self.0.borrow_mut().closed = true;
        }
    }

    fn machine(max_inflight: usize, max_outbuf: usize) -> Net {
        Net::new(&IngressConfig {
            max_inflight,
            max_outbuf,
            ..IngressConfig::default()
        })
    }

    fn connect(net: &mut Net) -> Peer {
        let peer = Peer::default();
        net.open(Box::new(Scripted(Rc::clone(&peer))));
        peer
    }

    fn send(peer: &Peer, bytes: Vec<u8>) {
        peer.borrow_mut().incoming.push_back(Some(bytes));
    }

    fn hang_up(peer: &Peer) {
        peer.borrow_mut().incoming.push_back(None);
    }

    /// A command that needs no session: `Close` of one that never existed.
    fn frame(req_id: u64) -> Vec<u8> {
        proto::encode_request(req_id, &Request::Close { session: 1 << 40 })
    }

    fn frames(req_ids: std::ops::Range<u64>) -> Vec<u8> {
        req_ids.flat_map(frame).collect()
    }

    /// What the engine answers to every admitted command.
    const RAN: Reply = Reply::Closed { existed: false };

    /// One sweep as `Ingress::drive` runs it: read and admit, reply to the
    /// batch in arrival order, flush. Returns the commands run.
    fn sweep(net: &mut Net) -> usize {
        let mut batch = Vec::new();
        net.read(&mut batch);
        for work in &batch {
            net.reply(work.conn, work.req_id, &RAN);
        }
        net.flush();
        batch.len()
    }

    /// The replies in `bytes`, in write order.
    fn decode_replies(bytes: &[u8]) -> Vec<(u64, Reply)> {
        let mut buf = FrameBuffer::new();
        buf.extend(bytes);
        let mut replies = Vec::new();
        while let Some(frame) = buf.next_frame(MAX_FRAME_LEN).unwrap() {
            replies.push(proto::decode_reply(frame).unwrap());
        }
        assert!(buf.is_empty(), "a reply was cut short");
        replies
    }

    fn replies(peer: &Peer) -> Vec<(u64, Reply)> {
        decode_replies(&peer.borrow().written)
    }

    fn closed(net: &Net, reason: CloseReason) -> u64 {
        net.counters.connections_closed[reason as usize]
    }

    fn shed(retry_after_ns: u64) -> Reply {
        Reply::Shed { retry_after_ns }
    }

    const BASE: u64 = 1_000_000;

    #[test]
    fn over_capacity_burst_is_shed_with_typed_replies() {
        assert_eq!(IngressConfig::default().retry_after_ns, BASE);
        let mut net = machine(1, 4 << 20);
        let peer = connect(&mut net);
        send(&peer, frames(0..200));

        assert_eq!(sweep(&mut net), 1, "sweep 1 admits one");
        assert_eq!(replies(&peer), [(0, RAN)], "and the other 199 wait");
        assert_eq!(net.counters.shed_permits, 0);

        assert_eq!(sweep(&mut net), 1, "sweep 2 admits one");
        assert_eq!(net.counters.shed_permits, 198, "and sheds the rest");
        // Sheds are written as they are decided, the batch's reply after
        // it runs; each finds the batch full: `2·base`.
        let mut want = vec![(0, RAN)];
        want.extend((2..200).map(|id| (id, shed(2 * BASE))));
        want.push((1, RAN));
        assert_eq!(replies(&peer), want);
        assert_eq!(net.counters.admitted, 2);
        assert_eq!(net.counters.replied, 2);
        assert_eq!(net.counters.shed_quiesced, 0);
    }

    #[test]
    fn a_full_batch_rotates_across_connections() {
        let mut net = machine(4, 4 << 20);
        let peers = [connect(&mut net), connect(&mut net)];
        for peer in &peers {
            send(peer, frames(0..64));
        }
        assert_eq!(sweep(&mut net), 4);
        assert_eq!(
            replies(&peers[0]).len(),
            4,
            "the first sweep fills from peer 1"
        );
        assert_eq!(replies(&peers[1]).len(), 0, "peer 2 waits");
        // The second sweep starts at peer 2: its first four run, and
        // everything else that waited is shed.
        assert_eq!(sweep(&mut net), 4);
        for peer in &peers {
            let got = replies(peer);
            let ran = got.iter().filter(|(_, r)| *r == RAN).count();
            let shed = got
                .iter()
                .filter(|(_, r)| matches!(r, Reply::Shed { .. }))
                .count();
            assert_eq!((ran, shed), (4, 60));
        }
        assert_eq!(net.counters.shed_permits, 120);
    }

    #[test]
    fn slow_consumer_is_closed_while_others_are_served() {
        let reply_len = proto::encode_reply(0, &RAN).len();
        let mut net = machine(1024, 2 * reply_len);
        let slow = connect(&mut net);
        let served = connect(&mut net);
        slow.borrow_mut().budget = Some(0);
        for id in 0..3 {
            send(&slow, frame(id));
            send(&served, frame(id));
            assert_eq!(sweep(&mut net), 2);
            assert_eq!(replies(&served).len(), id as usize + 1, "sweep {id} served");
            // Unflushed after this sweep: (id + 1) replies against two.
            let over = id == 2;
            assert_eq!(closed(&net, CloseReason::Slow), u64::from(over));
            assert_eq!(slow.borrow().closed, over);
        }
        assert!(slow.borrow().written.is_empty());
        assert_eq!(closed(&net, CloseReason::Io), 0);
        send(&served, frame(3));
        assert_eq!(sweep(&mut net), 1);
        assert_eq!(replies(&served).len(), 4, "still served after the close");
    }

    #[test]
    fn quiesce_drains_then_sheds_then_resumes() {
        let mut net = machine(1024, 4 << 20);
        let peer = connect(&mut net);
        send(&peer, frame(0));
        assert_eq!(sweep(&mut net), 1);

        // `Ingress::quiesce`: admission off, replies flushed.
        net.admission.admitting = false;
        net.flush();
        send(&peer, frame(1));
        assert_eq!(sweep(&mut net), 0);
        assert_eq!(net.counters.shed_quiesced, 1);

        net.admission.admitting = true;
        send(&peer, frame(2));
        assert_eq!(sweep(&mut net), 1);
        assert_eq!(replies(&peer), [(0, RAN), (1, shed(BASE)), (2, RAN)]);
        assert_eq!(net.counters.shed_permits, 0);
    }

    /// A peer that sends and then closes its write half still gets every
    /// reply, those deferred by a full batch too, and is closed as `eof`
    /// once they are flushed; a partial frame at the end is dropped.
    #[test]
    fn a_half_closed_peer_gets_every_reply() {
        let mut net = machine(2, 4 << 20);
        let peer = connect(&mut net);
        let mut bytes = frames(0..3);
        bytes.extend_from_slice(&frame(3)[..30]);
        send(&peer, bytes);
        hang_up(&peer);

        assert_eq!(sweep(&mut net), 2);
        assert!(!peer.borrow().closed, "frame 2 waits for the next sweep");
        assert_eq!(sweep(&mut net), 1);
        assert!(peer.borrow().closed);
        assert_eq!(replies(&peer), [(0, RAN), (1, RAN), (2, RAN)]);
        assert_eq!(closed(&net, CloseReason::Eof), 1);
        assert_eq!(net.counters.admitted, 3);
    }

    /// One schedule of [`every_schedule_keeps_the_admission_invariants`]:
    /// six deliveries (each peer's three chunks, in an order), sweeps
    /// between them, and maybe one quiesce/resume pair. Gap `g` is the
    /// point after `g` deliveries.
    #[derive(Debug, Clone, Copy)]
    struct Schedule {
        /// Bit `g`: the delivery after gap `g` is peer 1's, else peer 0's.
        order: u32,
        /// Bit `g - 1`: a sweep runs at gap `g`, for `g` in 1..=5.
        sweeps: u32,
        /// Quiesce at gap `q`, resume at gap `r`, before that gap's sweep.
        pair: Option<(u32, u32)>,
    }

    /// Three frames, ids 0..3, in three chunks: cut inside the second
    /// frame's header and inside the third frame's payload, so chunk `k`
    /// completes frame `k`.
    fn chunks() -> [Vec<u8>; 3] {
        let (a, b, c) = (frame(0), frame(1), frame(2));
        let (head, body) = (10, 24);
        assert!(head < 20 && body > 20 && body < c.len() - 8);
        [
            [&a[..], &b[..head]].concat(),
            [&b[head..], &c[..body]].concat(),
            c[body..].to_vec(),
        ]
    }

    /// One schedule in progress, and what its sweeps have shown so far.
    struct Run {
        s: Schedule,
        net: Net,
        peers: [Peer; 2],
        /// Chunks sent by each peer.
        delivered: [usize; 2],
        /// The sweep in which the machine read each peer's chunk `k`.
        read_at: [[usize; 3]; 2],
        /// Replies to each peer's request `k`.
        replied: [[u32; 3]; 2],
        /// Each peer's request that ran last.
        last_ran: [Option<u64>; 2],
        sweeps: usize,
    }

    impl Run {
        /// One sweep, then what must hold: every admitted request gets
        /// one reply, in per-connection order; a shed happens only while
        /// quiesced, or to a frame read in an earlier sweep; nothing is
        /// written to a closed connection; replied equals admitted.
        fn sweep(&mut self) {
            let s = self.s;
            let quiesced = !self.net.admission.admitting;
            let was_closed = self.peers.each_ref().map(|p| p.borrow().closed);
            let before = self.peers.each_ref().map(|p| p.borrow().written.len());
            let c = &self.net.counters;
            let (admitted, permits, quiet) = (c.admitted, c.shed_permits, c.shed_quiesced);
            sweep(&mut self.net);
            self.sweeps += 1;
            let (mut ran, mut sheds) = (0, 0);
            for (p, peer) in self.peers.iter().enumerate() {
                let wire = peer.borrow();
                let unread = wire.incoming.iter().flatten().count();
                for k in 0..self.delivered[p] - unread {
                    self.read_at[p][k] = self.read_at[p][k].min(self.sweeps);
                }
                if was_closed[p] {
                    assert_eq!(wire.written.len(), before[p], "{s:?}: a write after close");
                }
                for (id, reply) in decode_replies(&wire.written[before[p]..]) {
                    self.replied[p][id as usize] += 1;
                    if reply == RAN {
                        assert!(!quiesced, "{s:?}: admitted while quiesced");
                        assert!(self.last_ran[p] < Some(id), "{s:?}: peer {p} out of order");
                        self.last_ran[p] = Some(id);
                        ran += 1;
                    } else if quiesced {
                        assert_eq!(reply, shed(BASE), "{s:?}");
                        sheds += 1;
                    } else {
                        assert_eq!(reply, shed(2 * BASE), "{s:?}");
                        let waited = self.read_at[p][id as usize] < self.sweeps;
                        assert!(waited, "{s:?}: peer {p} frame {id} shed without a wait");
                        sheds += 1;
                    }
                }
            }
            let c = &self.net.counters;
            assert_eq!(c.admitted - admitted, ran, "{s:?}");
            let (shed_now, other) = match quiesced {
                true => (c.shed_quiesced - quiet, c.shed_permits - permits),
                false => (c.shed_permits - permits, c.shed_quiesced - quiet),
            };
            assert_eq!((shed_now, other), (sheds, 0), "{s:?}");
            assert_eq!(c.replied, c.admitted, "{s:?}");
            let closed: u64 = c.connections_closed.iter().sum();
            let live = c.connections_opened - closed;
            assert_eq!(self.net.conns.len() as u64, live, "{s:?}");
        }
    }

    /// Runs one schedule, checking every sweep; then every request has
    /// had its one reply, admitted plus shed equals the six frames, and
    /// the peer that hung up is closed as `eof`. Returns the counters.
    fn run(s: Schedule, chunks: &[Vec<u8>; 3]) -> Counters {
        let mut net = machine(2, 4 << 20);
        let peers = [connect(&mut net), connect(&mut net)];
        let mut run = Run {
            s,
            net,
            peers,
            delivered: [0; 2],
            read_at: [[usize::MAX; 3]; 2],
            replied: [[0; 3]; 2],
            last_ran: [None; 2],
            sweeps: 0,
        };
        for gap in 0..=6 {
            if s.pair.map(|(q, _)| q) == Some(gap) {
                // `Ingress::quiesce`: admission off, replies flushed.
                run.net.admission.admitting = false;
                run.net.flush();
            }
            if s.pair.map(|(_, r)| r) == Some(gap) {
                run.net.admission.admitting = true;
            }
            if (1..=5).contains(&gap) && s.sweeps >> (gap - 1) & 1 == 1 {
                run.sweep();
            }
            if gap < 6 {
                let p = (s.order >> gap & 1) as usize;
                send(&run.peers[p], chunks[run.delivered[p]].clone());
                run.delivered[p] += 1;
                if p == 0 && run.delivered[p] == 3 {
                    hang_up(&run.peers[0]);
                }
            }
        }
        // A frame waits at most one sweep, and a waiting peer reads its
        // socket one sweep late: three sweeps answer everything.
        for _ in 0..3 {
            run.sweep();
        }
        assert_eq!(run.replied, [[1; 3]; 2], "{s:?}: one reply per request");
        let c = &run.net.counters;
        let decided = c.admitted + c.shed_permits + c.shed_quiesced + c.malformed_payloads;
        assert_eq!(decided, 6, "{s:?}: every frame decoded once");
        let closed = run.peers.each_ref().map(|p| p.borrow().closed);
        assert_eq!(closed, [true, false], "{s:?}");
        assert_eq!(self::closed(&run.net, CloseReason::Eof), 1, "{s:?}");
        run.net.counters
    }

    /// Every schedule of two connections that each send three frames in
    /// three chunks (peer 0 then closes its write half), interleaved with
    /// sweeps, at `max_inflight = 2`, with and without a quiesce/resume
    /// pair.
    #[test]
    fn every_schedule_keeps_the_admission_invariants() {
        let chunks = chunks();
        let pairs: Vec<_> = (0..=5)
            .flat_map(|q| (q + 1..=6).map(move |r| Some((q, r))))
            .chain([None])
            .collect();
        let (mut explored, mut permits, mut quiesced) = (0, 0, 0);
        for order in (0u32..64).filter(|o| o.count_ones() == 3) {
            for sweeps in 0..32 {
                for &pair in &pairs {
                    let c = run(
                        Schedule {
                            order,
                            sweeps,
                            pair,
                        },
                        &chunks,
                    );
                    explored += 1;
                    permits += u64::from(c.shed_permits > 0);
                    quiesced += u64::from(c.shed_quiesced > 0);
                }
            }
        }
        println!(
            "explored {explored} schedules; a full batch shed in {permits}, quiesce in {quiesced}"
        );
        assert_eq!(explored, 20 * 32 * 22);
        assert!(
            permits > 0 && quiesced > 0,
            "the schedules reach every decision"
        );
    }
}
