//! A blocking ingress client: one connection, synchronous
//! request/reply. This is the reference peer for tests and examples; the
//! `ingress_load` generator multiplexes thousands of logical clients per
//! connection with its own non-blocking driver, but speaks exactly the
//! same [`proto`] frames.

use crate::proto::{
    self, OpenKind, Reply, Request, SessionStats, TraceFormat, TraceSelector, WireMode,
};
use crate::IngressError;
use pdo_ir::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// A synchronous ingress connection.
pub struct Client {
    sock: Sock,
    buf: proto::FrameBuffer,
    next_req: u64,
}

impl Client {
    /// Connects over TCP with a default 10s read timeout (so a wedged
    /// server surfaces as a typed error, not a hang).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect_tcp(addr: SocketAddr) -> Result<Client, IngressError> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            sock: Sock::Tcp(s),
            buf: proto::FrameBuffer::new(),
            next_req: 1,
        })
    }

    /// Connects over a Unix socket with the same defaults.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect_unix(path: &Path) -> Result<Client, IngressError> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            sock: Sock::Unix(s),
            buf: proto::FrameBuffer::new(),
            next_req: 1,
        })
    }

    /// Overrides the read timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<(), IngressError> {
        match &self.sock {
            Sock::Tcp(s) => s.set_read_timeout(t)?,
            Sock::Unix(s) => s.set_read_timeout(t)?,
        }
        Ok(())
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), IngressError> {
        match &mut self.sock {
            Sock::Tcp(s) => s.write_all(bytes)?,
            Sock::Unix(s) => s.write_all(bytes)?,
        }
        Ok(())
    }

    /// Sends raw bytes verbatim — the corruption tests use this to put
    /// deliberately broken frames on the wire.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), IngressError> {
        self.write_all(bytes)
    }

    fn read_some(&mut self) -> Result<(), IngressError> {
        let mut chunk = [0u8; 16 * 1024];
        let n = match &mut self.sock {
            Sock::Tcp(s) => s.read(&mut chunk)?,
            Sock::Unix(s) => s.read(&mut chunk)?,
        };
        if n == 0 {
            return Err(IngressError::Closed);
        }
        self.buf.extend(&chunk[..n]);
        Ok(())
    }

    /// Reads until one complete reply frame is available and decodes it.
    ///
    /// # Errors
    ///
    /// Typed decode errors; [`IngressError::Closed`] on EOF;
    /// [`IngressError::Io`] on timeout.
    pub fn recv_reply(&mut self) -> Result<(u64, Reply), IngressError> {
        loop {
            if let Some(frame) = self.buf.next_frame(proto::MAX_FRAME_LEN)? {
                return proto::decode_reply(frame);
            }
            self.read_some()?;
        }
    }

    /// Sends `req` and blocks until its reply arrives (replies are
    /// matched by request id; replies to other in-flight ids from the
    /// same connection would be skipped, but a blocking client never has
    /// any).
    ///
    /// # Errors
    ///
    /// As [`Client::recv_reply`].
    pub fn request(&mut self, req: &Request) -> Result<Reply, IngressError> {
        let id = self.next_req;
        self.next_req += 1;
        let frame = proto::encode_request(id, req);
        self.write_all(&frame)?;
        loop {
            let (rid, reply) = self.recv_reply()?;
            if rid == id {
                return Ok(reply);
            }
        }
    }

    /// Opens a session, returning its id.
    ///
    /// # Errors
    ///
    /// Transport errors, plus [`IngressError::Closed`] mapped from
    /// non-`Opened` replies via [`unexpected`].
    pub fn open(&mut self, kind: OpenKind) -> Result<u64, IngressError> {
        match self.request(&Request::Open(kind))? {
            Reply::Opened { session } => Ok(session),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Raises `event` on `session`; returns the server's reply verbatim
    /// (callers decide how to treat `Shed` / `Error`).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn raise(
        &mut self,
        session: u64,
        event: u32,
        mode: WireMode,
        args: Vec<Value>,
    ) -> Result<Reply, IngressError> {
        self.request(&Request::Raise {
            session,
            event,
            mode,
            args,
        })
    }

    /// Queries one session's counters.
    ///
    /// # Errors
    ///
    /// Transport errors; non-`Stats` replies via [`unexpected`].
    pub fn query(&mut self, session: u64) -> Result<SessionStats, IngressError> {
        match self.request(&Request::Query { session })? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Closes a session; true when it existed.
    ///
    /// # Errors
    ///
    /// Transport errors; non-`Closed` replies via [`unexpected`].
    pub fn close(&mut self, session: u64) -> Result<bool, IngressError> {
        match self.request(&Request::Close { session })? {
            Reply::Closed { existed } => Ok(existed),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Scrapes the whole deployment (server + ingress) as one Prometheus
    /// text exposition — the remote-scrape path (`curl`-equivalent over
    /// the wire protocol).
    ///
    /// # Errors
    ///
    /// Transport errors; non-`MetricsText` replies via [`unexpected`].
    pub fn scrape_metrics(&mut self) -> Result<String, IngressError> {
        match self.request(&Request::MetricsScrape)? {
            Reply::MetricsText { text } => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Pulls retained causal trace spans from every layer in the chosen
    /// format (line dump for `trace_report`, Chrome JSON for Perfetto).
    ///
    /// # Errors
    ///
    /// Transport errors; non-`Trace` replies via [`unexpected`] —
    /// including the typed `Error` for an over-frame-limit Chrome dump.
    pub fn trace_dump(
        &mut self,
        selector: TraceSelector,
        format: TraceFormat,
    ) -> Result<String, IngressError> {
        match self.request(&Request::TraceDump { selector, format })? {
            Reply::Trace { body } => Ok(body),
            other => Err(unexpected("Trace", &other)),
        }
    }
}

/// Maps an unexpected-but-well-formed reply into a typed error carrying
/// the reply's own rendering (e.g. the server's `Error { message }`).
fn unexpected(wanted: &str, got: &Reply) -> IngressError {
    IngressError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("expected {wanted} reply, got {got:?}"),
    ))
}
