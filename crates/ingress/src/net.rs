//! The socket half of one sweep: non-blocking TCP and Unix listeners,
//! every live connection's buffers, and admission.
//!
//! [`Ingress::drive`](crate::Ingress::drive) runs the sweep on the
//! caller's thread: [`Net::accept`], then [`Net::read`] (read, reassemble,
//! decode, admit or shed), then the engine runs the batch and appends
//! each reply with [`Net::reply`], then [`Net::flush`]. Nothing here
//! blocks and nothing crosses a thread.
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
//! The sweep is plain `std` non-blocking I/O (the offline toolchain has
//! no epoll binding). Its cost is linear in connections, which is the
//! intended regime: fronting multiplexers carry many logical clients per
//! connection.

use crate::proto::{self, FrameBuffer, Reply, Request};
use crate::ErrorCode;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::os::unix::net::UnixListener;
use std::time::Instant;

/// Why the sweep closed a connection: the `reason` label of
/// `pdo_ingress_connections_closed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// The peer closed its end.
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

/// A connected socket, TCP or Unix.
trait Stream: Read + Write {}

impl<T: Read + Write> Stream for T {}

struct Conn {
    sock: Box<dyn Stream>,
    inbuf: FrameBuffer,
    /// `inbuf` holds frames read while the batch was full; the next
    /// sweep handles them before reading this socket again.
    waiting: bool,
    out: Vec<u8>,
    /// Bytes of `out` already written; `out` is cleared once all are.
    out_pos: usize,
}

impl Conn {
    /// Reads what has arrived: at most four chunks, for fairness.
    fn read(&mut self, chunk: &mut [u8], bytes_read: &mut u64) -> Result<(), CloseReason> {
        for _ in 0..4 {
            match self.sock.read(chunk) {
                Ok(0) => return Err(CloseReason::Eof),
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

/// The listeners, the live connections and the admission state.
pub(crate) struct Net {
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    /// Where the next sweep starts reading: just past the last
    /// connection a sweep admitted from.
    cursor: u64,
    chunk: Vec<u8>,
    max_outbuf: usize,
    pub admission: Admission,
    pub counters: Counters,
}

impl Net {
    pub(crate) fn new(
        tcp: Option<TcpListener>,
        unix: Option<UnixListener>,
        cfg: &crate::IngressConfig,
    ) -> Net {
        Net {
            tcp,
            unix,
            conns: BTreeMap::new(),
            next_conn: 1,
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

    /// Accepts waiting connections, at most 64 so a connect storm cannot
    /// starve the live ones.
    pub(crate) fn accept(&mut self) {
        for _ in 0..64 {
            let sock: Box<dyn Stream> =
                if let Some(Ok((s, _))) = self.tcp.as_ref().map(TcpListener::accept) {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_nonblocking(true);
                    Box::new(s)
                } else if let Some(Ok((s, _))) = self.unix.as_ref().map(UnixListener::accept) {
                    let _ = s.set_nonblocking(true);
                    Box::new(s)
                } else {
                    return;
                };
            self.conns.insert(
                self.next_conn,
                Conn {
                    sock,
                    inbuf: FrameBuffer::new(),
                    waiting: false,
                    out: Vec::new(),
                    out_pos: 0,
                },
            );
            self.next_conn += 1;
            self.counters.connections_opened += 1;
        }
    }

    /// Reads every connection, starting just past the last one admitted
    /// from, and handles every complete frame: a command is admitted into
    /// `batch`, waits for the next sweep or is shed; a bad payload gets a
    /// typed error. Closes the connections whose stream ended or broke.
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
                let handled = if conn.waiting {
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
    /// with its own replies, rather than buffering for it without bound.
    pub(crate) fn flush(&mut self) {
        let Net {
            conns,
            max_outbuf,
            counters,
            ..
        } = self;
        conns.retain(|_, conn| {
            let mut flushed = conn.flush(&mut counters.bytes_written);
            if flushed.is_ok() && conn.out.len() - conn.out_pos > *max_outbuf {
                flushed = Err(CloseReason::Slow);
            }
            flushed.map_err(|reason| counters.closed(reason)).is_ok()
        });
    }

    /// Closes the listeners and every connection.
    pub(crate) fn shutdown(&mut self) {
        self.tcp = None;
        self.unix = None;
        for _ in std::mem::take(&mut self.conns) {
            self.counters.closed(CloseReason::Shutdown);
        }
    }

    /// Live connection count.
    pub(crate) fn connections(&self) -> usize {
        self.conns.len()
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
