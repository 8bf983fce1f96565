//! The load generator's side of the wire: one non-blocking loopback TCP
//! connection multiplexing many logical clients, the shape
//! `ingress_load`'s `MuxConn` has. The benchmark thread sweeps its two
//! connections between calls to `Ingress::drive`, so generating load
//! costs no third busy thread.

use pdo_ingress::proto::{self, Reply, Request};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// What the generator remembers about a request in flight.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// Wire request id.
    pub req_id: u64,
    /// Caller's tag (logical client or session index).
    pub tag: u32,
    /// Send-or-due time, ns on the workload clock.
    pub start_ns: u64,
}

/// One multiplexed connection.
pub struct MuxConn {
    stream: TcpStream,
    inbuf: proto::FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// Replies come back in request order unless one was shed at the
    /// acceptor, so matching is a front pop with a scan as the fallback.
    pending: VecDeque<InFlight>,
    next_req: u64,
    chunk: Box<[u8]>,
}

impl MuxConn {
    /// Connects to the ingress at `addr`.
    ///
    /// # Panics
    ///
    /// If the loopback connection cannot be made or configured.
    pub fn connect(addr: SocketAddr) -> MuxConn {
        let stream = TcpStream::connect(addr).expect("connect to loopback ingress");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_nonblocking(true).expect("set non-blocking");
        MuxConn {
            stream,
            inbuf: proto::FrameBuffer::new(),
            out: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            pending: VecDeque::with_capacity(256),
            next_req: 1,
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
        }
    }

    /// Queues `req`; it goes out on the next [`MuxConn::sweep`].
    pub fn send(&mut self, req: &Request, tag: u32, start_ns: u64) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.out
            .extend_from_slice(&proto::encode_request(req_id, req));
        self.pending.push_back(InFlight {
            req_id,
            tag,
            start_ns,
        });
    }

    /// Requests sent and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Flushes queued requests, reads what has arrived and hands every
    /// decoded reply to `on_reply` with its request's bookkeeping.
    /// Returns the number of replies delivered.
    ///
    /// # Panics
    ///
    /// On a socket error, a corrupt frame, or a reply that matches no
    /// request: the benchmark cannot measure a broken connection.
    pub fn sweep(&mut self, mut on_reply: impl FnMut(Reply, InFlight)) -> u64 {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => panic!("ingress closed the load connection"),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("load connection write: {e}"),
            }
        }
        if self.out_pos == self.out.len() && self.out_pos > 0 {
            self.out.clear();
            self.out_pos = 0;
        }
        if self.pending.is_empty() {
            return 0;
        }
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => panic!("ingress closed the load connection"),
                Ok(n) => self.inbuf.extend(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("load connection read: {e}"),
            }
        }
        let mut delivered = 0;
        while let Some(frame) = self
            .inbuf
            .next_frame(proto::MAX_FRAME_LEN)
            .expect("ingress sent a corrupt frame")
        {
            let (rid, reply) = proto::decode_reply(&frame).expect("ingress reply decodes");
            let at = if self.pending.front().is_some_and(|p| p.req_id == rid) {
                0
            } else {
                self.pending
                    .iter()
                    .position(|p| p.req_id == rid)
                    .expect("reply matches a request in flight")
            };
            let info = self.pending.remove(at).expect("index from position");
            on_reply(reply, info);
            delivered += 1;
        }
        delivered
    }

    /// Sweeps until nothing is outstanding, yielding between sweeps.
    ///
    /// # Panics
    ///
    /// If replies stop arriving for 10 s.
    pub fn drain_with(
        &mut self,
        mut step: impl FnMut(),
        mut on_reply: impl FnMut(Reply, InFlight),
    ) {
        let started = std::time::Instant::now();
        while self.outstanding() > 0 {
            step();
            if self.sweep(&mut on_reply) == 0 {
                std::thread::yield_now();
            }
            assert!(
                started.elapsed().as_secs() < 10,
                "{} requests never answered",
                self.outstanding()
            );
        }
    }
}
