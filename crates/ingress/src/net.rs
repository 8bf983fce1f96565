//! The acceptor: one I/O thread sweeping non-blocking TCP and Unix
//! listeners plus every live connection.
//!
//! Every command decoded from every connection flows into one admission
//! queue in arrival order, so one connection's work is processed in
//! order.
//!
//! Admission happens *here*, before any queueing: quiesced → typed
//! `Shed` reply; no permit → typed `Shed` reply. A permit is taken
//! before the command is queued and the queue is as long as the permit
//! pool, so the queue is never full: the pool is the only bound. The
//! engine never sees refused work, and the acceptor never blocks on the
//! engine.
//!
//! The sweep is plain `std` non-blocking I/O (the offline toolchain has
//! no epoll binding). Cost per sweep is linear in connections, which is
//! the intended regime: fronting multiplexers carry many logical clients
//! per connection. An exponential idle backoff (50µs → 1ms) keeps the
//! idle duty cycle negligible.

use crate::proto::{self, Reply};
use crate::{Shared, Work};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Why the acceptor closed a connection: the `reason` label of
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

pub(crate) struct NetParams {
    pub max_frame: usize,
    pub max_outbuf: usize,
    pub retry_after_ns: u64,
}

enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
}

struct Conn {
    sock: Sock,
    inbuf: proto::FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
}

pub(crate) fn net_main(
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    work_tx: SyncSender<Work>,
    reply_rx: Receiver<(u64, Vec<u8>)>,
    shared: Arc<Shared>,
    p: NetParams,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut idle: u32 = 0;
    let mut read_chunk = vec![0u8; 16 * 1024];

    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let mut progress = false;

        // Accept new connections (bounded per sweep so a connect storm
        // cannot starve live connections).
        for _ in 0..64 {
            let sock = if let Some(l) = &tcp {
                match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_nonblocking(true);
                        Some(Sock::Tcp(s))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                }
            } else {
                None
            };
            let sock = match sock {
                Some(s) => Some(s),
                None => match &unix {
                    Some(l) => match l.accept() {
                        Ok((s, _)) => {
                            let _ = s.set_nonblocking(true);
                            Some(Sock::Unix(s))
                        }
                        Err(_) => None,
                    },
                    None => None,
                },
            };
            let Some(sock) = sock else { break };
            let id = next_conn;
            next_conn += 1;
            shared.connections_opened.fetch_add(1, Ordering::Relaxed);
            conns.insert(
                id,
                Conn {
                    sock,
                    inbuf: proto::FrameBuffer::new(),
                    out: Vec::new(),
                    out_pos: 0,
                },
            );
            progress = true;
        }

        // Route engine replies into connection write buffers. Replies to
        // connections that died in the meantime are dropped.
        while let Ok((conn_id, bytes)) = reply_rx.try_recv() {
            if let Some(c) = conns.get_mut(&conn_id) {
                c.out.extend_from_slice(&bytes);
            }
            progress = true;
        }

        // Sweep every connection: flush, read, frame, admit.
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            match step_conn(id, conn, &shared, &work_tx, &p, &mut read_chunk) {
                Ok(stepped) => progress |= stepped,
                Err(reason) => {
                    conns.remove(&id);
                    shared.closed(reason);
                    progress = true;
                }
            }
        }

        // Yield-first idling, same rationale as `Ingress::serve`: stay
        // runnable through short lulls so a flooded peer cannot starve
        // the sweep out of its timeslice; sleep only when genuinely idle.
        if progress {
            idle = 0;
        } else {
            idle = idle.saturating_add(1);
            if idle <= crate::IDLE_YIELDS {
                std::thread::yield_now();
            } else {
                let us = 50u64 << (idle - crate::IDLE_YIELDS - 1).min(4);
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
        }
    }

    // Shutdown: every remaining connection is dropped (sockets close on
    // drop) and accounted for.
    for _ in conns.drain() {
        shared.closed(CloseReason::Shutdown);
    }
}

/// One sweep step for one connection. `Ok(true)` when any byte moved or
/// frame was handled; `Err(reason)` when the connection must close.
fn step_conn(
    id: u64,
    conn: &mut Conn,
    shared: &Shared,
    work_tx: &SyncSender<Work>,
    p: &NetParams,
    chunk: &mut [u8],
) -> Result<bool, CloseReason> {
    let mut progress = false;

    // Flush pending reply bytes.
    while conn.out_pos < conn.out.len() {
        match conn.sock.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(CloseReason::Io),
            Ok(n) => {
                conn.out_pos += n;
                shared.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::Io),
        }
    }
    if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
        conn.out.clear();
        conn.out_pos = 0;
    }

    // Read what has arrived (bounded per sweep for fairness).
    for _ in 0..4 {
        match conn.sock.read(chunk) {
            Ok(0) => return Err(CloseReason::Eof),
            Ok(n) => {
                conn.inbuf.extend(&chunk[..n]);
                shared.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::Io),
        }
    }

    // Reassemble and handle every complete frame.
    loop {
        let frame = match conn.inbuf.next_frame(p.max_frame) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            // Framing is broken: boundaries can't be trusted any more.
            Err(_) => return Err(CloseReason::Corrupt),
        };
        progress = true;
        match proto::decode_request(&frame) {
            Ok((req_id, request)) => {
                admit(id, conn, shared, work_tx, p, req_id, request)?;
            }
            Err(e) if e.is_stream_fatal() => return Err(CloseReason::Corrupt),
            Err(e) => {
                // Checksum-valid frame, bad payload: typed error reply,
                // connection lives.
                shared.malformed_payloads.fetch_add(1, Ordering::Relaxed);
                let req_id = proto::frame_req_id(&frame).unwrap_or(0);
                let reply = Reply::Error {
                    code: crate::ErrorCode::Malformed,
                    message: e.to_string(),
                };
                conn.out
                    .extend_from_slice(&proto::encode_reply(req_id, &reply));
            }
        }
    }

    // A consumer that cannot keep up with its own replies is cut off
    // rather than buffered without bound.
    if conn.out.len() - conn.out_pos > p.max_outbuf {
        return Err(CloseReason::Slow);
    }

    Ok(progress)
}

/// Admission control for one decoded request: a permit, then the queue,
/// with a typed `Shed` reply on any refusal.
fn admit(
    id: u64,
    conn: &mut Conn,
    shared: &Shared,
    work_tx: &SyncSender<Work>,
    p: &NetParams,
    req_id: u64,
    request: proto::Request,
) -> Result<(), CloseReason> {
    let shed = |conn: &mut Conn, counter: &std::sync::atomic::AtomicU64| {
        counter.fetch_add(1, Ordering::Relaxed);
        let reply = Reply::Shed {
            retry_after_ns: shared.retry_hint(p.retry_after_ns),
        };
        conn.out
            .extend_from_slice(&proto::encode_reply(req_id, &reply));
    };

    if !shared.admitting.load(Ordering::Relaxed) {
        shed(conn, &shared.shed_quiesced);
        return Ok(());
    }
    if !shared.limiter.try_acquire() {
        shed(conn, &shared.shed_permits);
        return Ok(());
    }
    // Every queued command holds a permit, so with one in hand there is
    // room: this send does not block. It fails only when the engine half
    // is gone.
    let work = Work {
        conn: id,
        req_id,
        request,
        admitted_at: Instant::now(),
    };
    if work_tx.send(work).is_err() {
        shared.limiter.release();
        return Err(CloseReason::Shutdown);
    }
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    Ok(())
}
